"""Static validation: connectedness of behaviours, rule checks, program hygiene.

Connectedness is what makes naive projection safe to run without a central
orchestrator, and it is checked on the source tree:

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

A check is one pass, linear in program size: it walks the body once and
reads that node list backwards, every node after its children, to fill a
table of initial and final events.  Hygiene reads the same list, walking
each expression once; only the parallel condition walks each ``|`` branch.

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


def _sig(b: Behaviour, *roles: str) -> frozenset[EventSignature]:
    return frozenset({EventSignature(tuple(roles), node=b.nid, line=b.line, col=b.col)})


def _events(nodes: list[Behaviour]) -> dict[int, tuple[frozenset, frozenset]]:
    """``id(node) -> (initial, final)`` for every node of ``nodes``, a walk.
    Read backwards, a walk reaches each node after its children, whose
    entries build its own.  Two events with the same roles are one
    signature; a union keeps the one that comes first in the source."""
    table = {}
    for b in reversed(nodes):
        cls = type(b)
        if cls is Seq:
            (init, fin), (init2, fin2) = table[id(b.first)], table[id(b.second)]
            table[id(b)] = (init or init2, fin2 or fin)
        elif cls is Par:
            (init, fin), (init2, fin2) = table[id(b.left)], table[id(b.right)]
            table[id(b)] = (init | init2, fin | fin2)
        elif cls is Skip:
            table[id(b)] = (frozenset(), frozenset())
        elif cls is Assign:
            sig = _sig(b, b.role)
            table[id(b)] = (sig, sig)
        elif cls is Interaction:
            sig = _sig(b, b.sender, b.receiver)
            table[id(b)] = (sig, sig)
        elif cls is If:
            # an empty branch concludes with the guard evaluation itself
            sig = _sig(b, b.evaluator)
            fin, fin2 = table[id(b.then_branch)][1], table[id(b.else_branch)][1]
            table[id(b)] = (sig, (fin or sig) | (fin2 or sig))
        elif cls is While:
            sig = _sig(b, b.evaluator)
            table[id(b)] = (sig, sig)
        elif cls is Scope:
            sig = _sig(b, b.coordinator)
            table[id(b)] = (sig, table[id(b.body)][1] or sig)
        else:
            raise TypeError(f"not a behaviour node: {b!r}")
    return table


def trans_initial(b: Behaviour) -> frozenset[EventSignature]:
    """Signatures of the events that can begin ``b``, from its table entry."""
    return _events(walk(b))[id(b)][0]


def trans_final(b: Behaviour) -> frozenset[EventSignature]:
    """Signatures of the events that can conclude ``b``, from its table entry."""
    return _events(walk(b))[id(b)][1]


def _interaction_keys(b: Behaviour) -> dict[tuple[str, str, str], Interaction]:
    """First occurrence of each (op, sender, receiver) key, scopes included."""
    # read backwards, so the first occurrence is the one that stays
    return {(x.op, x.sender, x.receiver): x
            for x in reversed(walk(b)) if type(x) is Interaction}


def check_connectedness(b: Behaviour) -> list[Violation]:
    """All sequence/parallel violations in ``b``, in source order."""
    return _connectedness(walk(b))


def _connectedness(nodes: list[Behaviour]) -> list[Violation]:
    """:func:`check_connectedness` of the behaviour ``nodes`` is a walk of."""
    events = _events(nodes)
    violations: list[Violation] = []
    implicated: set[tuple[int, ...]] = set()
    par_found: dict[int, list[Violation]] = {}  # id(Par node) -> its violations

    for node in nodes:
        cls = type(node)
        if cls is Seq:
            _check_seq(events[id(node.first)][1], events[id(node.second)][0],
                       violations, implicated)
        elif cls is Par:
            if id(node) not in par_found:
                par_found.update(_check_par_chain(node))
            violations.extend(par_found.pop(id(node)))
    return violations


def _implicated(path: tuple[int, ...], implicated: set[tuple[int, ...]]) -> bool:
    # an event inside an already-flagged statement is the same break
    return any(path[:k] in implicated for k in range(len(path) + 1))


def _check_seq(finals: frozenset[EventSignature], initials: frozenset[EventSignature],
               violations: list[Violation], implicated: set[tuple[int, ...]]) -> None:
    """The sequence condition across one ``;``, from its two sides' events:
    at most one report, on the first adrift initial event in source order."""
    if not finals:
        return
    left = min(finals, key=lambda s: (s.node.path, s.roles))
    if _implicated(left.node.path, implicated):
        return
    seen = {role for r in finals for role in r.roles}
    for init in sorted(initials, key=lambda s: (s.node.path, s.roles)):
        if init.initiator in seen or _implicated(init.node.path, implicated):
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
        return  # any later pair has ``left`` in it, so it is the same break


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
    rest = _interaction_keys(spine[-1].right)
    out: dict[int, list[Violation]] = {}
    for par in reversed(spine):
        left = _interaction_keys(par.left)
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
# Hygiene, rule and program checks
# =========================================================================


def _facts(nodes: list[Behaviour], declared: set[str],
           ) -> tuple[list[Violation], list[tuple[Behaviour, Var]], dict[str, set[str]]]:
    """The undeclared calls and guard reads of ``nodes``, a walk, in source
    order, each expression walked once; and every role in it, mapped to the
    variables bound there (assignments and interaction targets)."""
    calls: list[Violation] = []
    reads: list[tuple[Behaviour, Var]] = []
    bound: dict[str, set[str]] = {}
    for node in nodes:
        cls = type(node)
        guard = cls is If or cls is While
        if cls is Assign:
            bound.setdefault(node.role, set()).add(node.var)
            expr = node.expr
        elif cls is Interaction:
            bound.setdefault(node.sender, set())
            bound.setdefault(node.receiver, set()).add(node.var)
            expr = node.expr
        elif guard:
            bound.setdefault(node.evaluator, set())
            expr = node.guard
        else:
            if cls is Scope:
                bound.setdefault(node.coordinator, set())
            continue
        for e in walk(expr):
            if type(e) is Call and e.function not in declared:
                calls.append(
                    Violation(
                        "name",
                        f"function '{e.function}' is not declared by any include",
                        nodes=(node.nid,),
                        line=e.line,
                        col=e.col,
                    )
                )
            elif guard and type(e) is Var:
                reads.append((node, e))
    return calls, reads, bound


def check_rule(rule: Rule) -> list[Violation]:
    """Connectedness of the rule body plus name hygiene of the condition."""
    nodes = walk(rule.body)
    violations = _connectedness(nodes)
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
    violations.extend(_facts(nodes, declared)[0])
    return violations


def validate_program(p: Program) -> list[Violation]:
    """Name/role hygiene; guard-variable analysis reports warnings only."""
    return _validate(p, walk(p.body))


def _validate(p: Program, nodes: list[Behaviour]) -> list[Violation]:
    """:func:`validate_program` of ``p``, whose body ``nodes`` is a walk of."""
    declared = {fn for inc in p.includes for fn in inc.functions}
    calls, reads, bound = _facts(nodes, declared | set(BUILTIN_FUNCTIONS))
    violations: list[Violation] = []
    if p.preamble.starter not in bound and p.preamble.starter not in p.preamble.locations:
        violations.append(
            Violation(
                "role",
                f"starter role '{p.preamble.starter}' does not occur in the program",
            )
        )

    seen_fns: set[str] = set()
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
                seen_fns.add(fn)
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
    violations.extend(calls)
    for node, e in reads:
        if e.name not in bound[node.evaluator]:
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
    nodes = walk(p.body)
    return _validate(p, nodes) + _connectedness(nodes)


def has_errors(violations: list[Violation]) -> bool:
    return any(v.severity == "error" for v in violations)
