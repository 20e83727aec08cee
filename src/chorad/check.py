"""Static validation: connectedness of behaviours, rule checks, program hygiene.

Connectedness is what makes naive projection safe to run without a central
orchestrator, and it is checked in polynomial time on the source tree:

* sequence condition — for every ``Seq(a, b)``, the initiator of each initial
  event of ``b`` must occur in some final event of ``a``.  Whoever starts the
  continuation must have taken part in how the predecessor ended, otherwise
  the projected code can act on state it was never ordered after.
* parallel condition — interaction keys ``(op, sender, receiver)`` collected
  recursively from the two branches of every ``Par`` must be disjoint, so
  concurrent messages can never be confused at a receiver.  Sequential reuse
  of an operation is fine; auxiliary operations never participate (they are
  generated unique per node).

If/While need no dedicated clause: projection coordinates branch decisions
with auxiliary broadcasts.  A scope's final events are those of its body
(the coordinator alone if the body is empty): the closing barrier orders the
coordinator after every participant, and each participant after its own part.

To keep reports readable the checker suppresses cascading sequence
violations: once a node is implicated in one, later pairs involving it are
assumed to be fallout from the same break.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    Assign,
    Behaviour,
    Call,
    If,
    Include,
    Interaction,
    NodeId,
    Par,
    Program,
    Rule,
    Scope,
    Seq,
    Skip,
    Var,
    While,
    chain_items,
    roles_of,
    walk,
)

#: Protocol names that parse and are retained on includes.  Only the JSON
#: line protocol is actually spoken; the others appear in historical corpus
#: programs and are tolerated, anything else draws a warning.
KNOWN_PROTOCOLS = ("json", "http", "soap", "sodep")

BUILTIN_FUNCTIONS = ("getInput",)


@dataclass(frozen=True)
class EventSignature:
    """Roles taking part in an initial/final event; the initiator comes first.

    Size is 1 (assignment, guard evaluation, scope start) or 2 (interaction,
    sender first).
    """

    roles: tuple[str, ...]
    node: NodeId = field(default=NodeId(), compare=False)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    @property
    def initiator(self) -> str:
        return self.roles[0]


@dataclass(frozen=True)
class Violation:
    kind: str  # "sequence" | "parallel" | "role" | "name"
    message: str
    nodes: tuple[NodeId, ...] = ()
    line: int = 0
    col: int = 0
    severity: str = "error"

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.kind}: {self.message}"


def _sig(b: Behaviour, *roles: str) -> EventSignature:
    return EventSignature(tuple(roles), node=b.nid, line=b.line, col=b.col)


def trans_initial(b: Behaviour) -> frozenset[EventSignature]:
    """Signatures of the events that can begin ``b``."""
    if isinstance(b, Skip):
        return frozenset()
    if isinstance(b, Assign):
        return frozenset({_sig(b, b.role)})
    if isinstance(b, Interaction):
        return frozenset({_sig(b, b.sender, b.receiver)})
    if isinstance(b, Seq):
        node: Behaviour = b
        while isinstance(node, Seq):  # spine-iterative: Seq nests deep
            first = trans_initial(node.first)
            if first:
                return first
            node = node.second
        return trans_initial(node)
    if isinstance(b, Par):
        return frozenset().union(*map(trans_initial, chain_items(b)))
    if isinstance(b, (If, While)):
        return frozenset({_sig(b, b.evaluator)})
    if isinstance(b, Scope):
        return frozenset({_sig(b, b.coordinator)})
    raise TypeError(f"not a behaviour node: {b!r}")


def trans_final(b: Behaviour) -> frozenset[EventSignature]:
    """Signatures of the events that can conclude ``b``."""
    if isinstance(b, Skip):
        return frozenset()
    if isinstance(b, (Assign, Interaction)):
        return trans_initial(b)
    if isinstance(b, Seq):
        spine = []
        node: Behaviour = b
        while isinstance(node, Seq):  # spine-iterative: Seq nests deep
            spine.append(node)
            node = node.second
        out = trans_final(node)
        while not out and spine:
            out = trans_final(spine.pop().first)
        return out
    if isinstance(b, Par):
        return frozenset().union(*map(trans_final, chain_items(b)))
    if isinstance(b, If):
        out = set()
        for branch in (b.then_branch, b.else_branch):
            fin = trans_final(branch)
            # an empty branch concludes with the guard evaluation itself
            out |= fin if fin else {_sig(b, b.evaluator)}
        return frozenset(out)
    if isinstance(b, While):
        return frozenset({_sig(b, b.evaluator)})
    if isinstance(b, Scope):
        fin = trans_final(b.body)
        return fin if fin else frozenset({_sig(b, b.coordinator)})
    raise TypeError(f"not a behaviour node: {b!r}")


def _interaction_keys(b: Behaviour, out: dict[tuple[str, str, str], Interaction]) -> None:
    """First occurrence of each (op, sender, receiver) key, scopes included."""
    for x in walk(b):
        if isinstance(x, Interaction):
            out.setdefault((x.op, x.sender, x.receiver), x)


def check_connectedness(b: Behaviour) -> list[Violation]:
    """All sequence/parallel violations in ``b``, in source order."""
    violations: list[Violation] = []
    implicated: set[tuple[int, ...]] = set()
    par_found: dict[int, list[Violation]] = {}  # id(Par node) -> its violations

    for node in walk(b):
        if isinstance(node, Seq):
            _check_seq(node, violations, implicated)
        elif isinstance(node, Par):
            if id(node) not in par_found:
                par_found.update(_check_par_chain(node))
            violations.extend(par_found.pop(id(node)))
    return violations


def _implicated(path: tuple[int, ...], implicated: set[tuple[int, ...]]) -> bool:
    # an event inside an already-flagged statement is the same break
    return any(path[:k] in implicated for k in range(len(path) + 1))


def _check_seq(node: Seq, violations: list[Violation],
               implicated: set[tuple[int, ...]]) -> None:
    finals = sorted(trans_final(node.first), key=lambda s: (s.node.path, s.roles))
    if not finals:
        return
    seen = set()
    for r in finals:
        seen.update(r.roles)
    for init in sorted(trans_initial(node.second), key=lambda s: (s.node.path, s.roles)):
        if init.initiator in seen:
            continue
        left = finals[0]
        if _implicated(left.node.path, implicated) \
                or _implicated(init.node.path, implicated):
            continue
        implicated.add(left.node.path)
        implicated.add(init.node.path)
        violations.append(
            Violation(
                "sequence",
                f"role '{init.initiator}' starts this statement but takes no part"
                f" in how the preceding one ends (line {left.line})",
                nodes=(left.node, init.node),
                line=init.line,
                col=init.col,
            )
        )


def _check_par_chain(node: Par) -> dict[int, list[Violation]]:
    """The violations of every Par node on the right spine from ``node``.

    Each spine node compares the keys of its left branch with those of its
    right branch, the rest of the spine.  Walking the branches right to left
    with one running dict of the rest's first occurrences checks a k-branch
    block in one pass over it instead of k.
    """
    spine = [node]
    while isinstance(spine[-1].right, Par):
        spine.append(spine[-1].right)
    rest: dict[tuple[str, str, str], Interaction] = {}
    _interaction_keys(spine[-1].right, rest)
    out: dict[int, list[Violation]] = {}
    for par in reversed(spine):
        left: dict[tuple[str, str, str], Interaction] = {}
        _interaction_keys(par.left, left)
        found = out[id(par)] = []
        for key in sorted(k for k in left if k in rest):
            a, b = left[key], rest[key]
            op, sender, receiver = key
            found.append(
                Violation(
                    "parallel",
                    f"operation '{op}' from '{sender}' to '{receiver}' is used in both"
                    f" parallel branches (lines {a.line} and {b.line})",
                    nodes=(a.nid, b.nid),
                    line=b.line,
                    col=b.col,
                )
            )
        rest.update(left)  # the left branch's occurrences come first
    return out


# =========================================================================
# Expression hygiene helpers
# =========================================================================


def _behaviour_exprs(b: Behaviour):
    for node in walk(b):
        if isinstance(node, (Assign, Interaction)):
            yield node, node.expr
        elif isinstance(node, (If, While)):
            yield node, node.guard


def _check_calls(body: Behaviour, declared: set[str]) -> list[Violation]:
    out = []
    for node, expr in _behaviour_exprs(body):
        for e in walk(expr):
            if isinstance(e, Call) and e.function not in declared:
                out.append(
                    Violation(
                        "name",
                        f"function '{e.function}' is not declared by any include",
                        nodes=(node.nid,),
                        line=e.line,
                        col=e.col,
                    )
                )
    return out


# =========================================================================
# Rule and program checks
# =========================================================================


def check_rule(rule: Rule) -> list[Violation]:
    """Connectedness of the rule body plus name hygiene of the condition."""
    violations = check_connectedness(rule.body)
    for e in walk(rule.condition):
        if isinstance(e, Var) and "." in e.name:
            ns = e.name.split(".", 1)[0]
            if ns not in ("N", "E"):
                violations.append(
                    Violation(
                        "name",
                        f"unknown namespace '{ns}.' in rule condition (use N. or E.)",
                        line=e.line,
                        col=e.col,
                    )
                )
        elif isinstance(e, Call):
            violations.append(
                Violation(
                    "name",
                    f"rule conditions cannot call functions ('{e.function}')",
                    line=e.line,
                    col=e.col,
                )
            )
    declared = {f for inc in rule.includes for f in inc.functions}
    declared.update(BUILTIN_FUNCTIONS)
    violations.extend(_check_calls(rule.body, declared))
    return violations


def _assigned_vars(b: Behaviour) -> dict[str, set[str]]:
    """role -> variables the program binds at that role (assignments and
    interaction targets)."""
    out: dict[str, set[str]] = {}
    for node in walk(b):
        if isinstance(node, Assign):
            out.setdefault(node.role, set()).add(node.var)
        elif isinstance(node, Interaction):
            out.setdefault(node.receiver, set()).add(node.var)
    return out


def validate_program(p: Program) -> list[Violation]:
    """Name/role hygiene; guard-variable analysis reports warnings only."""
    violations: list[Violation] = []
    roles = roles_of(p.body)

    if p.preamble.starter not in roles and p.preamble.starter not in p.preamble.locations:
        violations.append(
            Violation(
                "role",
                f"starter role '{p.preamble.starter}' does not occur in the program",
            )
        )

    seen_fns: dict[str, Include] = {}
    for inc in p.includes:
        for fn in inc.functions:
            if fn in seen_fns:
                violations.append(
                    Violation(
                        "name",
                        f"function '{fn}' is declared by more than one include",
                        line=inc.line,
                        col=inc.col,
                    )
                )
            else:
                seen_fns[fn] = inc
        if inc.protocol and inc.protocol not in KNOWN_PROTOCOLS:
            violations.append(
                Violation(
                    "name",
                    f"unknown protocol '{inc.protocol}' (only the JSON line protocol"
                    " is spoken; the declaration is retained)",
                    line=inc.line,
                    col=inc.col,
                    severity="warning",
                )
            )

    declared = set(seen_fns) | set(BUILTIN_FUNCTIONS)
    violations.extend(_check_calls(p.body, declared))

    assigned = _assigned_vars(p.body)
    for node in walk(p.body):
        if isinstance(node, (If, While)):
            known = assigned.get(node.evaluator, set())
            for e in walk(node.guard):
                if isinstance(e, Var) and e.name not in known:
                    violations.append(
                        Violation(
                            "role",
                            f"guard reads '{e.name}' which is never assigned at"
                            f" role '{node.evaluator}'",
                            nodes=(node.nid,),
                            line=e.line,
                            col=e.col,
                            severity="warning",
                        )
                    )
    return violations


def check_program(p: Program) -> list[Violation]:
    """Full static gate: hygiene plus connectedness, in that order."""
    return validate_program(p) + check_connectedness(p.body)


def has_errors(violations: list[Violation]) -> bool:
    return any(v.severity == "error" for v in violations)
