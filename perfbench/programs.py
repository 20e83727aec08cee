"""Benchmark inputs: program sources, their sizes in user units, and the
answers every run is checked against.

Nothing here imports chorad.  Each function writes the source text itself
and works out, from the program's meaning alone, how many source
statements it has, how many interactions the global program executes, and
which final values the roles must hold.  Those numbers are the units the
metrics divide by, so a change to how chorad runs a program (fewer acks,
guards or directives) cannot move the unit.

Seeds change values and names, never the shape of a program, so run time
and exploration verdicts are comparable between seeds.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, field

TEXT_ADDR = "socket://localhost:8002"
NEXT_ADDR = "socket://localhost:9"


@dataclass
class Prog:
    """One input program and everything needed to run and judge it."""

    name: str
    family: str
    size: int
    source: str
    roles: int
    stmts: int          # source statements (assignments, interactions, calls, if, while, scope)
    interactions: int   # interactions one run of the global program executes
    expected: dict[str, dict] = field(default_factory=dict)  # role -> var -> value (partial)
    services: str | None = None   # "text" (charAt/shiftChar) or "next" (scripted)
    rules: str = ""               # rule source published before the run
    expected_rules: list[str] = field(default_factory=list)  # applied rule ids, in order
    verdict: str | None = None    # exploration answer: "clean", "misbehaves" or "2-finals"


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _quote(s: str) -> str:
    return '"' + s + '"'


# --------------------------------------------------------------------------
# Size families
# --------------------------------------------------------------------------


def pipe_seq(n: int, seed: int) -> Prog:
    """``n`` textual scopes in one ``;`` chain, each adding one to ``x``."""
    x0 = _rng("pipe-seq", seed, n).randrange(1000)
    blocks = "\n".join(
        f"  scope @a {{ step: a( x ) -> b( _y ); back: b( _y + 1 ) -> a( x ) }}"
        f" prop {{ N.stage = {k} }};" for k in range(1, n + 1))
    source = (f"preamble {{\n  starter: a\n}}\n\naioc {{\n  x@a = {x0};\n{blocks}\n"
              f"  final: a( x ) -> b( result )\n}}\n")
    return Prog(f"pipe-seq-{n}", "pipe-seq", n, source, roles=2,
                stmts=3 * n + 2, interactions=2 * n + 1,
                expected={"a": {"x": x0 + n}, "b": {"result": x0 + n}})


def shift_text(text: str, offset: int) -> str:
    """Caesar shift of ASCII letters; the fork-join answer."""
    out = []
    for ch in text:
        if ch.islower():
            out.append(chr((ord(ch) - 97 + offset) % 26 + 97))
        elif ch.isupper():
            out.append(chr((ord(ch) - 65 + offset) % 26 + 65))
        else:
            out.append(ch)
    return "".join(out)


def fork_join(n: int, seed: int) -> Prog:
    """``n`` parallel scopes, each shifting one character through a service."""
    rng = _rng("fork-join", seed, n)
    text = "".join(rng.choice(string.ascii_letters) for _ in range(n))
    picks = "\n".join(f"  c{i}@a = charAt( text, {i} );" for i in range(n))
    branches = " |\n".join(
        f"    scope @a {{ r{i}@a = shiftChar( c{i}, 1 ) }} prop {{ N.index = {i} }}"
        for i in range(n))
    joined = " + ".join(f"r{i}" for i in range(n))
    source = (f'include charAt, shiftChar from "{TEXT_ADDR}"\n\n'
              f"preamble {{\n  starter: a\n}}\n\naioc {{\n  text@a = {_quote(text)};\n"
              f"{picks}\n  {{\n{branches}\n  }};\n  out@a = {joined};\n"
              f"  show: a( out ) -> b( result )\n}}\n")
    answer = shift_text(text, 1)
    return Prog(f"fork-join-{n}", "fork-join", n, source, roles=2,
                stmts=3 * n + 3, interactions=1,
                expected={"a": {"out": answer}, "b": {"result": answer}},
                services="text")


def ping(n: int, seed: int) -> Prog:
    """Scope-free two-role loop: ``n`` round trips."""
    i0 = _rng("ping", seed, n).randrange(1000)
    source = (f"preamble {{\n  starter: a\n}}\n\naioc {{\n  i@a = {i0};\n"
              f"  while ( i < {i0 + n} )@a {{\n    i@a = i + 1;\n"
              f"    there: a( i ) -> b( j );\n    back_again: b( j ) -> a( _x )\n  }}\n}}\n")
    last = i0 + n
    expected = {"a": {"i": last}, "b": {}} if n == 0 else \
        {"a": {"i": last, "_x": last}, "b": {"j": last}}
    return Prog(f"ping-{n}", "ping", n, source, roles=2, stmts=5,
                interactions=2 * n, expected=expected)


def pipe(n: int, seed: int, boosted: int = 0) -> Prog:
    """Two-role loop of ``n`` adaptable increment scopes.

    With ``boosted`` > 0 the program comes with that many rules, one per
    seed-chosen iteration, each replacing the increment by two.  Rules are
    published in iteration order, so the applied rule ids are
    ``s0/r1, s0/r2, ...`` in that order.
    """
    rng = _rng("pipe", seed, n, boosted)
    x0 = rng.randrange(1000)
    source = (f"preamble {{\n  starter: a\n}}\n\naioc {{\n  x@a = {x0};\n  i@a = 0;\n"
              f"  send0: a( x ) -> b( y );\n  while ( i < {n} )@a {{\n    i@a = i + 1;\n"
              f"    scope @a {{\n      step: a( \"go\" ) -> b( _g );\n      y@b = y + 1;\n"
              f"      back: b( y ) -> a( x )\n    }} prop {{ N.stage = \"inc\" }}\n  }};\n"
              f"  final: a( x ) -> b( result )\n}}\n")
    iterations = sorted(rng.sample(range(1, n + 1), boosted))
    rules = "\n".join(boost_rule(f"i == {k}") for k in iterations)
    total = x0 + n + boosted
    name = f"pipe-{n}" + (f"-boost-{boosted}" if boosted else "")
    return Prog(name, "pipe", n, source, roles=2, stmts=11,
                interactions=2 * n + 2,
                expected={"a": {"x": total, "i": n}, "b": {"result": total}},
                rules=rules,
                expected_rules=[f"s0/r{k}" for k in range(1, boosted + 1)])


def boost_rule(condition: str) -> str:
    return (f"rule {{\n  on {{ {condition} }}\n  do {{\n    step: a( \"go\" ) -> b( _g );\n"
            f"    y@b = y + 2;\n    back: b( y ) -> a( x )\n  }}\n}}\n")


def idle_rules(count: int, seed: int) -> list[str]:
    """Rules whose guard never holds during a pipe run (``i`` is never negative)."""
    rng = _rng("idle", seed)
    return [boost_rule(f"i == {-1 - rng.randrange(10_000)}") for _ in range(count)]


def while_par(n: int, seed: int) -> Prog:
    """Three-role loop whose body holds two ``|`` blocks."""
    rng = _rng("while-par", seed, n)
    du, dv = rng.randrange(1, 100), rng.randrange(1, 100)
    source = (f"preamble {{ starter: a }}\naioc {{\n  i@a = 0;\n  while ( i < {n} )@a {{\n"
              f"    i@a = i + 1;\n    {{ p: a( i ) -> b( u ) | q: a( i ) -> c( v ) }};\n"
              f"    {{ r: b( u + {du} ) -> a( s ) | t: c( v + {dv} ) -> a( w ) }}\n  }}\n}}\n")
    return Prog(f"while-par-{n}", "while-par", n, source, roles=3, stmts=8,
                interactions=4 * n,
                expected={"a": {"i": n, "s": n + du, "w": n + dv},
                          "b": {"u": n}, "c": {"v": n}})


# --------------------------------------------------------------------------
# Exploration set
# --------------------------------------------------------------------------


class _Gen:
    """Writes one connected, race-free program.

    ``shape`` makes every structural decision and ``surf`` every name and
    value, so the seed never changes a program's schedule tree.  Reads touch
    only variables the same role bound earlier in the same chain or before
    the enclosing compound, so every schedule computes the same stores.
    """

    def __init__(self, shape: random.Random, surf: random.Random, roles: list[str]):
        self.shape = shape
        self.surf = surf
        self.roles = roles
        self.ops = 0
        self.vars = 0
        self.par_done = False
        self.stmts = 0
        self.op_prefix = surf.choice(["op", "msg", "sig"])
        self.var_prefix = surf.choice(["v", "w", "z"])

    def op(self) -> str:
        self.ops += 1
        return f"{self.op_prefix}{self.ops}"

    def var(self, role: str, bound: dict[str, list[str]]) -> str:
        self.vars += 1
        name = f"{self.var_prefix}{self.vars}"
        bound[role].append(name)
        return name

    def value(self, role: str, bound: dict[str, list[str]]) -> str:
        if bound[role] and self.shape.random() < 0.4:
            v = self.surf.choice(bound[role])
            return f'{v} + "!"' if self.shape.random() < 0.5 else v
        kind = self.shape.randrange(3)
        if kind == 0:
            return str(self.surf.randrange(100))
        if kind == 1:
            return self.surf.choice(["true", "false"])
        return _quote(self.surf.choice(["red", "green", "blue", "amber"]))

    def simple(self, starter: str, bound) -> tuple[str, set[str], int]:
        others = [r for r in self.roles if r != starter]
        self.stmts += 1
        if self.shape.randrange(3) == 0:
            rhs = self.value(starter, bound)
            return f"{self.var(starter, bound)}@{starter} = {rhs}", {starter}, 0
        peer = self.shape.choice(others)
        rhs = self.value(starter, bound)
        return (f"{self.op()}: {starter}( {rhs} ) -> {peer}( {self.var(peer, bound)} )",
                {starter, peer}, 1)

    def stmt(self, frontier: set[str], depth: int, budget: list[int], bound):
        """Returns (text, final roles, interactions executed)."""
        budget[0] -= 1
        starter = self.shape.choice(sorted(frontier))
        kinds = ["simple", "simple", "simple"]
        if depth < 2 and budget[0] > 1:
            kinds += ["if", "while", "scope"] + ([] if self.par_done else ["par"])
        kind = self.shape.choice(kinds)
        if kind == "simple":
            return self.simple(starter, bound)
        self.stmts += 1
        if kind == "if":
            taken = self.shape.random() < 0.5
            lo = self.surf.randrange(50)
            hi = lo + 1 + self.surf.randrange(50)
            guard = f"{lo} < {hi}" if taken else f"{hi} < {lo}"
            then_text, then_fin, then_n = self.chain({starter}, depth + 1, budget, _copy(bound))
            else_text, else_fin, else_n = self.chain({starter}, depth + 1, budget, _copy(bound))
            return (f"if ( {guard} )@{starter} {{\n{then_text}\n}} else {{\n{else_text}\n}}",
                    then_fin | else_fin, then_n if taken else else_n)
        if kind == "while":
            rounds = self.shape.randrange(1, 3)
            counter = self.var(starter, bound)
            inner = _copy(bound)
            body, fin, n = self.chain({starter}, depth + 1, budget, inner)
            if starter not in fin:  # the decrement must follow the body
                sender = self.shape.choice(sorted(fin))
                body += (f";\n{self.op()}: {sender}( {self.value(sender, inner)} ) -> "
                         f"{starter}( {self.var(starter, inner)} )")
                self.stmts += 1
                n += 1
            self.stmts += 2  # counter set-up and decrement
            return (f"{counter}@{starter} = {rounds};\nwhile ( {counter} > 0 )@{starter} {{\n"
                    f"{body};\n{counter}@{starter} = {counter} - 1\n}}",
                    {starter}, n * rounds)
        if kind == "par":
            # One simple statement per branch keeps the schedule tree small.
            self.par_done = True
            left, lfin, ln = self.simple(self.shape.choice(sorted(frontier)), _copy(bound))
            right, rfin, rn = self.simple(self.shape.choice(sorted(frontier)), _copy(bound))
            self.stmts -= 1  # the block itself is not a statement
            return "{ " + left + " | " + right + " }", lfin | rfin, ln + rn
        body, fin, n = self.chain({starter}, depth + 1, budget, _copy(bound))
        return (f"scope @{starter} {{\n{body}\n}} prop {{ N.tag = {self.surf.randrange(100)} }}",
                fin, n)

    def chain(self, frontier: set[str], depth: int, budget: list[int], bound,
              lo: int = 1, hi: int = 2):
        parts, total = [], 0
        for _ in range(self.shape.randint(lo, hi)):
            if budget[0] <= 0 and parts:
                break
            text, frontier, n = self.stmt(frontier, depth, budget, bound)
            parts.append(text)
            total += n
        return ";\n".join(parts), frontier, total


def _copy(bound: dict[str, list[str]]) -> dict[str, list[str]]:
    return {r: list(v) for r, v in bound.items()}


ROLE_NAMES = ("ann", "bob", "cyd", "dot", "eve", "fay")
_SLOTS = ("ra", "rb", "rc")


def generated(index: int, seed: int) -> Prog:
    """Program ``index`` of the exploration set, with seed-chosen names.

    Structure is written over fixed role slots and renamed afterwards:
    structural choices such as ``sorted(frontier)`` must not see the names.
    """
    shape = _rng("shape", index)
    surf = _rng("surface", seed, index)
    slots = list(_SLOTS[:shape.choice((2, 2, 3))])
    gen = _Gen(shape, surf, slots)
    bound = {r: [] for r in slots}
    budget = [shape.randint(3, 6)]
    body, _fin, n = gen.chain({slots[0]}, 0, budget, bound, 2, 4)
    names = dict(zip(slots, surf.sample(ROLE_NAMES, len(slots))))
    body = re.sub(r"\b(ra|rb|rc)\b", lambda m: names[m.group(1)], body)
    source = f"preamble {{ starter: {names[slots[0]]} }}\n\naioc {{\n{body}\n}}\n"
    return Prog(f"gen-{index}", "generated", index, source, roles=len(slots),
                stmts=gen.stmts, interactions=n, verdict="clean")


def duplicated_notify() -> Prog:
    """Negative control: one operation in both branches of a ``|``; the
    checker must flag it and exploration must see it misbehave."""
    source = ("preamble { starter: a }\naioc {\n"
              "  { notify: a( 1 ) -> b( x ) | notify: a( 2 ) -> b( y ) }\n}\n")
    return Prog("duplicated-notify", "control", 0, source, roles=2, stmts=2,
                interactions=2, verdict="misbehaves")


def shared_service(seed: int) -> Prog:
    """Two roles call one scripted service in parallel: two final stores."""
    source = (f'include next from "{NEXT_ADDR}"\n\npreamble {{ starter: a }}\n\n'
              "aioc {\n  go: a( 1 ) -> b( w );\n"
              "  { x@a = next( 0 ) | y@b = next( 0 ) };\n  r: b( y ) -> a( q )\n}\n")
    return Prog("shared-service", "control", 0, source, roles=2, stmts=5,
                interactions=2, services="next", verdict="2-finals")


def shared_service_finals() -> list[dict]:
    """The two possible final stores: whoever calls first gets 10."""
    return [{"a": {"x": xa, "q": yb}, "b": {"w": 1, "y": yb}}
            for xa, yb in ((10, 20), (20, 10))]


NEXT_SCRIPT = [10, 20]


# --------------------------------------------------------------------------
# Robustness probes
# --------------------------------------------------------------------------


def nested_ifs(depth: int) -> Prog:
    """``depth`` nested ``if``s around one interaction."""
    inner = "m: a( 1 ) -> b( x )"
    for k in range(depth):
        inner = f"if ( 1 < 2 )@a {{ {inner} }} else {{ e{k}: a( 2 ) -> b( x ) }}"
    source = f"preamble {{ starter: a }}\naioc {{\n{inner}\n}}\n"
    return Prog(f"nested-if-{depth}", "probe", depth, source, roles=2,
                stmts=2 * depth + 1, interactions=1, expected={"b": {"x": 1}})
