"""Abstract syntax for choreography programs, adaptation rules, and expressions.

All nodes are frozen dataclasses.  Structural equality deliberately ignores
node ids and source positions (those fields carry ``compare=False``), so two
parses of the same text compare equal while each node still knows where it
came from for diagnostics.

Node ids are child-index paths from the behaviour root, assigned in
pre-order.  They are stable across reparses of identical source and seed the
deterministic names of the auxiliary operations inserted by projection, so
every participant of a deployment derives the same names independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Union

Value = Union[int, bool, str]
Role = str


@dataclass(frozen=True)
class NodeId:
    """Path of child indices from the behaviour root.

    ``str()`` renders the path digits joined by underscores, the exact form
    embedded in auxiliary operation names.
    """

    path: tuple[int, ...] = ()

    def child(self, index: int) -> "NodeId":
        return NodeId(self.path + (index,))

    def prefixed(self, prefix: tuple[int, ...]) -> "NodeId":
        return NodeId(prefix + self.path)

    def __str__(self) -> str:
        return "_".join(str(i) for i in self.path)


# =========================================================================
# Expressions
# =========================================================================


@dataclass(frozen=True)
class Expr:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class Lit(Expr):
    value: Value = 0


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference.

    In rule conditions the name may be namespaced (``N.key`` for scope
    properties, ``E.key`` for environment entries); program expressions only
    ever use bare names.
    """

    name: str = ""


@dataclass(frozen=True)
class Unary(Expr):
    op: str = "!"
    operand: Expr = Lit(False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str = "+"
    left: Expr = Lit(0)
    right: Expr = Lit(0)


@dataclass(frozen=True)
class Call(Expr):
    """Invocation of ``getInput`` or an included external function."""

    function: str = ""
    args: tuple[Expr, ...] = ()


# =========================================================================
# Behaviours
# =========================================================================


@dataclass(frozen=True)
class Behaviour:
    nid: NodeId = field(default=NodeId(), compare=False, kw_only=True)
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class Skip(Behaviour):
    pass


@dataclass(frozen=True)
class Assign(Behaviour):
    var: str = ""
    role: Role = ""
    expr: Expr = Lit(0)


@dataclass(frozen=True)
class Interaction(Behaviour):
    """``op: sender( expr ) -> receiver( var )``; sender and receiver differ."""

    op: str = ""
    sender: Role = ""
    expr: Expr = Lit(0)
    receiver: Role = ""
    var: str = ""


@dataclass(frozen=True)
class Seq(Behaviour):
    first: Behaviour = Skip()
    second: Behaviour = Skip()


@dataclass(frozen=True)
class Par(Behaviour):
    left: Behaviour = Skip()
    right: Behaviour = Skip()


@dataclass(frozen=True)
class If(Behaviour):
    guard: Expr = Lit(True)
    evaluator: Role = ""
    then_branch: Behaviour = Skip()
    else_branch: Behaviour = Skip()


@dataclass(frozen=True)
class While(Behaviour):
    guard: Expr = Lit(False)
    evaluator: Role = ""
    body: Behaviour = Skip()


@dataclass(frozen=True)
class Scope(Behaviour):
    """Adaptable region led by ``coordinator``; ``props`` describe it to rules."""

    coordinator: Role = ""
    body: Behaviour = Skip()
    props: dict[str, Value] = field(default_factory=dict)


# =========================================================================
# Programs and rules
# =========================================================================


@dataclass(frozen=True)
class Include:
    functions: tuple[str, ...]
    address: str
    protocol: str | None = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Preamble:
    starter: Role
    locations: dict[Role, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Program:
    includes: tuple[Include, ...]
    preamble: Preamble
    body: Behaviour


@dataclass(frozen=True)
class Rule:
    """``rule { include* on { condition } do { body } }``."""

    includes: tuple[Include, ...]
    condition: Expr
    body: Behaviour
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


# =========================================================================
# Operations
# =========================================================================


def assign_ids(b: Behaviour, base: NodeId = NodeId()) -> Behaviour:
    """Return a copy of ``b`` with path-based node ids assigned in pre-order.

    Child indices: Seq first=0 second=1, Par left=0 right=1, If then=0
    else=1, While body=0, Scope body=0.
    """
    if isinstance(b, (Seq, Par)):
        # iterative along the right spine: sequential programs nest deep
        spine: list[tuple[Behaviour, NodeId]] = []
        node, nb = b, base
        while isinstance(node, (Seq, Par)):
            spine.append((node, nb))
            node = node.second if isinstance(node, Seq) else node.right
            nb = nb.child(1)
        out = assign_ids(node, nb)
        for node, nb in reversed(spine):
            if isinstance(node, Seq):
                out = replace(node, nid=nb, second=out,
                              first=assign_ids(node.first, nb.child(0)))
            else:
                out = replace(node, nid=nb, right=out,
                              left=assign_ids(node.left, nb.child(0)))
        return out
    if isinstance(b, If):
        return replace(
            b,
            nid=base,
            then_branch=assign_ids(b.then_branch, base.child(0)),
            else_branch=assign_ids(b.else_branch, base.child(1)),
        )
    if isinstance(b, While):
        return replace(b, nid=base, body=assign_ids(b.body, base.child(0)))
    if isinstance(b, Scope):
        return replace(b, nid=base, body=assign_ids(b.body, base.child(0)))
    return replace(b, nid=base)


def reroot_ids(b: Behaviour, prefix: tuple[int, ...]) -> Behaviour:
    """Prefix every node id in ``b`` with ``prefix``.

    Used when a rule body replaces a scope: re-rooting the body at the scope's
    id makes every role derive identical auxiliary names for it.
    """
    kids = {}
    for f in fields(b):
        v = getattr(b, f.name)
        if isinstance(v, Behaviour):
            kids[f.name] = reroot_ids(v, prefix)
    return replace(b, nid=b.nid.prefixed(prefix), **kids)


def roles_of(b: Behaviour) -> set[Role]:
    """Every role occurring in ``b`` as annotation, sender, receiver,
    evaluator, or coordinator."""
    out: set[Role] = set()
    _collect_roles(b, out)
    return out


def _collect_roles(b: Behaviour, out: set[Role]) -> None:
    stack = [b]
    while stack:
        x = stack.pop()
        if isinstance(x, Assign):
            out.add(x.role)
        elif isinstance(x, Interaction):
            out.add(x.sender)
            out.add(x.receiver)
        elif isinstance(x, Seq):
            stack += (x.first, x.second)
        elif isinstance(x, Par):
            stack += (x.left, x.right)
        elif isinstance(x, If):
            out.add(x.evaluator)
            stack += (x.then_branch, x.else_branch)
        elif isinstance(x, While):
            out.add(x.evaluator)
            stack.append(x.body)
        elif isinstance(x, Scope):
            out.add(x.coordinator)
            stack.append(x.body)


def _flatten(b: Behaviour, cls: type) -> list[Behaviour]:
    out: list[Behaviour] = []
    stack = [b]
    while stack:
        x = stack.pop()
        if isinstance(x, cls):
            pair = (x.first, x.second) if cls is Seq else (x.left, x.right)
            stack.append(pair[1])
            stack.append(pair[0])
        else:
            out.append(normalize(x))
    return out


def normalize(b: Behaviour) -> Behaviour:
    """Remove ``skip`` units from Seq/Par chains and canonicalise their
    nesting to the right.

    Surviving nodes keep their original ids (rebuilding only touches the
    interior Seq/Par spine, whose ids never feed auxiliary names).  If, While
    and Scope nodes are preserved even when their bodies normalise to skip:
    a guard evaluation is still an observable event and a scope with an empty
    default body is still an adaptation point.
    """
    if isinstance(b, (Seq, Par)):
        cls = Seq if isinstance(b, Seq) else Par
        items = [x for x in _flatten(b, cls) if not isinstance(x, Skip)]
        if not items:
            return Skip(nid=b.nid, line=b.line, col=b.col)
        out = items[-1]
        for item in reversed(items[:-1]):
            if cls is Seq:
                out = Seq(item, out, nid=b.nid, line=item.line, col=item.col)
            else:
                out = Par(item, out, nid=b.nid, line=item.line, col=item.col)
        return out
    if isinstance(b, If):
        return replace(
            b,
            then_branch=normalize(b.then_branch),
            else_branch=normalize(b.else_branch),
        )
    if isinstance(b, While):
        return replace(b, body=normalize(b.body))
    if isinstance(b, Scope):
        return replace(b, body=normalize(b.body))
    return b


# =========================================================================
# Pretty printing
# =========================================================================

# Precedence levels for minimal parenthesisation; comparisons are
# non-associative so equal-level comparison operands are always wrapped.
_LEVELS = {"or": 1, "and": 2, "==": 3, "!=": 3, "<": 3, ">": 3, "<=": 3, ">=": 3,
           "+": 4, "-": 4, "*": 5, "/": 5}


def _escape(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_literal(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return _escape(v)
    return str(v)


def pretty_print_expr(e: Expr, parent_level: int = 0, right: bool = False) -> str:
    if isinstance(e, Lit):
        return render_literal(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.function}( {', '.join(pretty_print_expr(a) for a in e.args)} )" \
            if e.args else f"{e.function}()"
    if isinstance(e, Unary):
        return "!" + pretty_print_expr(e.operand, 6)
    if isinstance(e, Binary):
        lvl = _LEVELS[e.op]
        text = (
            f"{pretty_print_expr(e.left, lvl)} {e.op} "
            f"{pretty_print_expr(e.right, lvl, right=True)}"
        )
        if lvl < parent_level or (lvl == parent_level and (right or lvl == 3)):
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {e!r}")


def _chain_items(b: Behaviour, cls: type) -> list[Behaviour]:
    out: list[Behaviour] = []
    stack = [b]
    while stack:
        x = stack.pop()
        if isinstance(x, cls):
            pair = (x.first, x.second) if cls is Seq else (x.left, x.right)
            stack.append(pair[1])
            stack.append(pair[0])
        else:
            out.append(x)
    return out


def _seq_items(b: Behaviour) -> list[Behaviour]:
    return _chain_items(b, Seq)


def _par_items(b: Behaviour) -> list[Behaviour]:
    return _chain_items(b, Par)


def pretty_print(b: Behaviour, indent: int = 0) -> str:
    """Render ``b`` as canonical source.

    The output reparses to ``normalize(b)``: the printer flattens Seq/Par
    chains into ``;``/``|`` lists and the grammar rebuilds them
    right-associated, which is exactly the normal form.
    """
    pad = " " * indent
    if isinstance(b, Skip):
        return pad + "skip"
    if isinstance(b, Assign):
        return f"{pad}{b.var}@{b.role} = {pretty_print_expr(b.expr)}"
    if isinstance(b, Interaction):
        return (
            f"{pad}{b.op}: {b.sender}( {pretty_print_expr(b.expr)} )"
            f" -> {b.receiver}( {b.var} )"
        )
    if isinstance(b, Seq):
        return ";\n".join(pretty_print(x, indent) for x in _seq_items(b))
    if isinstance(b, Par):
        parts = []
        for x in _par_items(b):
            if isinstance(x, Seq):  # `;` binds looser than `|`: brace the chain
                inner = pretty_print(x, indent + 2)
                parts.append(f"{pad}{{\n{inner}\n{pad}}}")
            else:
                parts.append(pretty_print(x, indent))
        return f"\n{pad}|\n".join(parts)
    if isinstance(b, If):
        out = (
            f"{pad}if( {pretty_print_expr(b.guard)} )@{b.evaluator} {{\n"
            f"{pretty_print(b.then_branch, indent + 2)}\n{pad}}}"
        )
        if not isinstance(b.else_branch, Skip):
            out += f" else {{\n{pretty_print(b.else_branch, indent + 2)}\n{pad}}}"
        return out
    if isinstance(b, While):
        return (
            f"{pad}while( {pretty_print_expr(b.guard)} )@{b.evaluator} {{\n"
            f"{pretty_print(b.body, indent + 2)}\n{pad}}}"
        )
    if isinstance(b, Scope):
        out = (
            f"{pad}scope @{b.coordinator} {{\n"
            f"{pretty_print(b.body, indent + 2)}\n{pad}}}"
        )
        if b.props:
            props = ", ".join(f"N.{k} = {render_literal(v)}" for k, v in b.props.items())
            out += f" prop {{ {props} }}"
        return out
    raise TypeError(f"not a behaviour node: {b!r}")


def pretty_print_program(p: Program) -> str:
    lines = []
    for inc in p.includes:
        entry = f"include {', '.join(inc.functions)} from {_escape(inc.address)}"
        if inc.protocol:
            entry += f" with {inc.protocol}"
        lines.append(entry)
    lines.append("preamble {")
    lines.append(f"  starter: {p.preamble.starter}")
    for role, addr in p.preamble.locations.items():
        lines.append(f"  location@{role} = {_escape(addr)}")
    lines.append("}")
    lines.append("aioc {")
    lines.append(pretty_print(p.body, 2))
    lines.append("}")
    return "\n".join(lines) + "\n"
