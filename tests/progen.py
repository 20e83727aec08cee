"""Random generator of small, well-formed, connected programs.

Connectedness is maintained by construction: every statement is started by
a role drawn from the set of roles that could finish the previous one, and
parallel branches get globally unique operation names.  Variable reads only
ever touch variables the same role already wrote, so generated programs are
also safe to run.  The checker still gets the last word — generation
rejects (and retries) anything it flags, which doubles as a sanity check
that the construction rules and the checker agree.
"""

from __future__ import annotations

import random

from chorad.check import check_program, has_errors
from chorad.parser import parse_program

ROLES = ("a", "b", "c")


class _Gen:
    def __init__(self, rng: random.Random, roles: tuple[str, ...]):
        self.rng = rng
        self.roles = roles
        self.op_n = 0
        self.var_n = 0
        self.par_done = False
        self.bound: dict[str, list[str]] = {r: [] for r in roles}

    def fresh_op(self) -> str:
        self.op_n += 1
        return f"op{self.op_n}"

    def fresh_var(self, role: str) -> str:
        self.var_n += 1
        name = f"v{self.var_n}"
        self.bound[role].append(name)
        return name

    def literal(self) -> str:
        pick = self.rng.randrange(3)
        if pick == 0:
            return str(self.rng.randrange(0, 9))
        if pick == 1:
            return self.rng.choice(["true", "false"])
        return '"' + self.rng.choice(["red", "green", "blue"]) + '"'

    def rhs(self, role: str) -> str:
        if self.bound[role] and self.rng.random() < 0.4:
            v = self.rng.choice(self.bound[role])
            if self.rng.random() < 0.5:
                return f'{v} + "!"'
            return v
        return self.literal()

    def guard(self) -> str:
        return self.rng.choice(["true", "false", "1 < 2", "2 == 2"])

    def _snapshot(self) -> dict[str, list[str]]:
        return {r: list(v) for r, v in self.bound.items()}

    # Statements return (text, final_roles).

    def stmt(self, frontier: set[str], depth: int, budget: list[int],
             allow_par: bool, basic: bool = False):
        budget[0] -= 1
        starter = self.rng.choice(sorted(frontier))
        others = [r for r in self.roles if r != starter]
        choices = ["assign", "interaction", "interaction"]
        if not basic and depth < 2 and budget[0] > 1:
            choices += ["if", "while", "scope"]
            if allow_par and not self.par_done:
                choices.append("par")
        kind = self.rng.choice(choices)
        if kind == "interaction" and not others:
            kind = "assign"
        if kind == "assign":
            rhs = self.rhs(starter)  # before binding: no self-reads
            var = self.fresh_var(starter)
            return f"{var}@{starter} = {rhs}", {starter}
        if kind == "interaction":
            peer = self.rng.choice(others)
            rhs = self.rhs(starter)
            var = self.fresh_var(peer)
            return (f"{self.fresh_op()}: {starter}( {rhs} ) "
                    f"-> {peer}( {var} )"), {starter, peer}
        if kind == "if":
            # Only one branch runs: afterwards a variable may be relied on
            # only if both branches bound it.
            saved = self._snapshot()
            then_text, then_fin = self.chain({starter}, depth + 1, budget,
                                             1, 2, allow_par)
            then_bound = self.bound
            self.bound = saved
            else_text, else_fin = self.chain({starter}, depth + 1, budget,
                                             1, 2, allow_par)
            self.bound = {r: [v for v in self.bound[r] if v in then_bound[r]]
                          for r in self.roles}
            text = (f"if ( {self.guard()} )@{starter} {{\n{then_text}\n}} "
                    f"else {{\n{else_text}\n}}")
            return text, then_fin | else_fin
        if kind == "while":
            # Counter starts >= 1, so the body runs and its bindings hold.
            # No par inside: each iteration would multiply its schedules.
            k = self.fresh_var(starter)
            body_text, _body_fin = self.chain({starter}, depth + 1, budget,
                                              1, 2, False)
            text = (f"{k}@{starter} = {self.rng.randrange(1, 3)};\n"
                    f"while ( {k} > 0 )@{starter} {{\n{body_text};\n"
                    f"{k}@{starter} = {k} - 1\n}}")
            return text, {starter}
        if kind == "par":
            # Branches race: neither may read what its sibling writes.
            # One short statement per branch keeps the schedule count of
            # exhaustive exploration within reach.
            self.par_done = True
            saved = self._snapshot()
            left, lfin = self.chain(frontier, depth + 1, budget, 1, 1, False,
                                    basic=True)
            left_bound = self.bound
            self.bound = saved
            right, rfin = self.chain(frontier, depth + 1, budget, 1, 1, False,
                                     basic=True)
            self.bound = {r: left_bound[r] + [v for v in self.bound[r]
                                              if v not in left_bound[r]]
                          for r in self.roles}
            return "{ " + left + " | " + right + " }", lfin | rfin
        # scope
        body_text, body_fin = self.chain({starter}, depth + 1, budget, 1, 2,
                                         allow_par)
        return (f"scope @{starter} {{\n{body_text}\n}} "
                f"prop {{ N.tag = {self.op_n} }}"), body_fin

    def chain(self, frontier: set[str], depth: int, budget: list[int],
              lo: int, hi: int, allow_par: bool, basic: bool = False):
        parts = []
        count = self.rng.randint(lo, hi)
        for _ in range(count):
            if budget[0] <= 0 and parts:
                break
            text, frontier = self.stmt(frontier, depth, budget, allow_par,
                                       basic)
            parts.append(text)
        return ";\n".join(parts), frontier

    def nested_par(self, frontier: set[str], depth: int, budget: list[int]):
        """A ``|`` of two branches of one or two statements each, where a
        statement may itself be such a ``|`` down to depth 3.  A branch
        reads only what was bound before the block or in itself."""
        saved = self._snapshot()
        branches, finals, bound = [], set(), self._snapshot()
        for _ in range(2):
            self.bound = {r: list(v) for r, v in saved.items()}
            parts, here = [], frontier
            for _ in range(self.rng.randint(1, 2)):
                if budget[0] <= 0 and parts:
                    break
                if depth < 3 and self.rng.random() < 0.35:
                    text, here = self.nested_par(here, depth + 1, budget)
                else:
                    text, here = self.stmt(here, depth, budget, False, basic=True)
                parts.append(text)
            branches.append("; ".join(parts))
            finals |= here
            for r in self.roles:
                bound[r] += [v for v in self.bound[r] if v not in bound[r]]
        self.bound = bound
        return "{ " + " | ".join(branches) + " }", finals


def random_program_source(seed: int, *, allow_par: bool = True) -> str:
    rng = random.Random(seed)
    roles = ROLES[:rng.choice((2, 3))]
    gen = _Gen(rng, roles)
    starter = roles[0]
    budget = [rng.randint(3, 6)]
    body, _ = gen.chain({starter}, 0, budget, 2, 4, allow_par)
    return (f"preamble {{ starter: {starter} }}\n\n"
            f"aioc {{\n{body}\n}}\n")


def random_connected_source(seed: int, *, allow_par: bool = True) -> str:
    """Source of a program that passes the checker; retries derived seeds."""
    for attempt in range(50):
        source = random_program_source(seed * 1009 + attempt,
                                       allow_par=allow_par)
        if not has_errors(check_program(parse_program(source))):
            return source
    raise AssertionError(f"seed {seed}: no connected program in 50 attempts")


def random_nested_par_source(seed: int) -> str:
    """Source of a connected program whose body is one ``|`` block nested
    to depth 3, with branches of at most two statements and a budget of
    4 to 10 statements; retries derived seeds as
    :func:`random_connected_source` does."""
    for attempt in range(50):
        rng = random.Random(seed * 1009 + attempt)
        roles = ROLES[:rng.choice((2, 3))]
        gen = _Gen(rng, roles)
        body, _ = gen.nested_par({roles[0]}, 1, [rng.randint(4, 10)])
        source = f"preamble {{ starter: {roles[0]} }}\n\naioc {{\n{body}\n}}\n"
        if not has_errors(check_program(parse_program(source))):
            return source
    raise AssertionError(f"seed {seed}: no connected program in 50 attempts")


def random_nested_par_program(seed: int):
    """The parsed program of :func:`random_nested_par_source`."""
    return parse_program(random_nested_par_source(seed))


def random_connected_program(seed: int, *, allow_par: bool = True):
    """The parsed program of :func:`random_connected_source`."""
    return parse_program(random_connected_source(seed, allow_par=allow_par))
