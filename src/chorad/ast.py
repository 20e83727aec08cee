"""Abstract syntax for choreography programs, adaptation rules, and expressions.

All nodes are frozen dataclasses.  Structural equality deliberately ignores
node ids and source positions (those fields carry ``compare=False``), so two
parses of the same text compare equal while each node still knows where it
came from for diagnostics.

Node ids are paths of positions from the behaviour root: the statements of
a ``;`` or ``|`` chain are numbered by their position in the chain, and the
branches or body of an ``if``, ``while`` or ``scope`` by their field.  An id
is therefore as deep as the node is syntactically nested, however long the
program.  Ids are stable across reparses of identical source and seed the
deterministic names of the auxiliary operations inserted by projection, so
every participant of a deployment derives the same names independently.

Every pass finds a behaviour's children through one table built from the
dataclass fields: ``walk`` visits a tree in source order and ``chain_items``
lists the statements of a ``;`` or ``|`` chain, both without recursion, so
long programs and wide blocks stay clear of the recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Union

Value = Union[int, bool, str]
Role = str


@dataclass(frozen=True)
class NodeId:
    """Path of positions from the behaviour root (see :func:`assign_ids`).

    Lexicographic order of paths is source pre-order.  ``str()`` renders
    the path digits joined by underscores, the exact form embedded in
    auxiliary operation names.
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


#: Per expression class, its operand fields in declaration order, each with
#: whether it holds a tuple of operands: the one table expression walks use.
_EXPR_FIELDS = {cls: tuple((f.name, f.type != "Expr") for f in fields(cls)
                           if f.type in ("Expr", "tuple[Expr, ...]"))
                for cls in Expr.__subclasses__()}
_EXPR_FIELDS_REVERSED = {cls: names[::-1] for cls, names in _EXPR_FIELDS.items()}

#: Binary operators by precedence, loosest first; the parser and the printer
#: both read it.  Operators of level ``COMPARISON`` do not associate.
PRECEDENCE = {"or": 1, "and": 2, "==": 3, "!=": 3, "<": 3, ">": 3, "<=": 3, ">=": 3,
              "+": 4, "-": 4, "*": 5, "/": 5}
COMPARISON = 3
_UNARY_LEVEL = max(PRECEDENCE.values()) + 1


def walk_expr(e: Expr, post_order: bool = False) -> list[Expr]:
    """Every node of ``e`` left to right, without recursion: each before its
    operands, or with ``post_order`` after them (evaluation order)."""
    # post-order is the reverse of a pre-order that takes operands right to left
    table = _EXPR_FIELDS if post_order else _EXPR_FIELDS_REVERSED
    out: list[Expr] = []
    stack = [e]
    while stack:
        x = stack.pop()
        out.append(x)
        for name, many in table[type(x)]:
            if many:
                stack += getattr(x, name) if post_order else reversed(getattr(x, name))
            else:
                stack.append(getattr(x, name))
    if post_order:
        out.reverse()
    return out


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


#: Per behaviour class, the names of its sub-behaviour fields and of its
#: role fields, in declaration order: the one table every tree walk uses.
_CHILD_FIELDS = {cls: tuple(f.name for f in fields(cls) if f.type == "Behaviour")
                 for cls in Behaviour.__subclasses__()}
_CHILD_FIELDS_REVERSED = {cls: names[::-1] for cls, names in _CHILD_FIELDS.items()}
_ROLE_FIELDS = {cls: tuple(f.name for f in fields(cls) if f.type == "Role")
                for cls in Behaviour.__subclasses__()}


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

    @cached_property
    def roles(self) -> frozenset[Role]:
        """``roles_of(body)``, computed once: rule matching tests it per scope."""
        return frozenset(roles_of(self.body))


# =========================================================================
# Operations
# =========================================================================


def assign_ids(b: Behaviour, base: NodeId = NodeId()) -> Behaviour:
    """Return a copy of ``b`` with position-based node ids.

    Item i of a ``;`` or ``|`` chain at ``base`` gets ``base.child(i)``; the
    chain's interior Seq/Par nodes all keep ``base`` and come back nested to
    the right, the normal form.  Any other node's children are numbered by
    field: If then=0 else=1, While body=0, Scope body=0.  A path is thus as
    long as the node's syntactic nesting, and paths in lexicographic order
    are in source pre-order.
    """
    cls = type(b)
    if cls is Seq or cls is Par:
        return join_chain(cls, [assign_ids(x, base.child(i))
                                for i, x in enumerate(chain_items(b))], nid=base)
    return replace(b, nid=base, **{name: assign_ids(getattr(b, name), base.child(i))
                                   for i, name in enumerate(_CHILD_FIELDS[cls])})


def reroot_ids(b: Behaviour, prefix: tuple[int, ...]) -> Behaviour:
    """Prefix every node id in ``b`` with ``prefix``.

    Used when a rule body replaces a scope: re-rooting the body at the scope's
    id makes every role derive identical auxiliary names for it.  Chains come
    back nested to the right, each sharing its root's id, as ``normalize``
    leaves them.
    """
    cls = type(b)
    if cls is Seq or cls is Par:
        return join_chain(cls, [reroot_ids(x, prefix) for x in chain_items(b)],
                          nid=b.nid.prefixed(prefix))
    return replace(b, nid=b.nid.prefixed(prefix),
                   **{name: reroot_ids(getattr(b, name), prefix)
                      for name in _CHILD_FIELDS[cls]})


def walk(b: Behaviour) -> Iterator[Behaviour]:
    """Every node of ``b`` in source order (pre-order), without recursion."""
    stack = [b]
    while stack:
        x = stack.pop()
        yield x
        for name in _CHILD_FIELDS_REVERSED[type(x)]:
            stack.append(getattr(x, name))


def chain_items(b: Behaviour) -> list[Behaviour]:
    """The statements of the ``;`` or ``|`` chain rooted at ``b``, in source
    order, however the chain nests; ``[b]`` for any other node."""
    cls = type(b)
    if cls is not Seq and cls is not Par:
        return [b]
    out: list[Behaviour] = []
    stack = [b]
    while stack:
        x = stack.pop()
        if type(x) is cls:
            for name in _CHILD_FIELDS_REVERSED[cls]:
                stack.append(getattr(x, name))
        else:
            out.append(x)
    return out


def join_chain(cls: type, items: list[Behaviour], nid: NodeId = NodeId()) -> Behaviour:
    """``items`` joined by ``cls`` (Seq or Par) and nested to the right, the
    normal form; every interior node gets ``nid``."""
    out = items[-1]
    for item in reversed(items[:-1]):
        out = cls(item, out, nid=nid, line=item.line, col=item.col)
    return out


def roles_of(b: Behaviour) -> set[Role]:
    """Every role occurring in ``b`` as annotation, sender, receiver,
    evaluator, or coordinator."""
    out: set[Role] = set()
    for x in walk(b):
        for name in _ROLE_FIELDS[type(x)]:
            out.add(getattr(x, name))
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
    cls = type(b)
    if cls is Seq or cls is Par:
        items = [x for x in map(normalize, chain_items(b)) if not isinstance(x, Skip)]
        if not items:
            return Skip(nid=b.nid, line=b.line, col=b.col)
        return join_chain(cls, items, nid=b.nid)
    kids = _CHILD_FIELDS[cls]
    return replace(b, **{name: normalize(getattr(b, name)) for name in kids}) if kids else b


# =========================================================================
# Pretty printing
# =========================================================================

def _escape(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_literal(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return _escape(v)
    return str(v)


def pretty_print_expr(e: Expr, parent_level: int = 0, right: bool = False) -> str:
    """``e`` with the fewest parentheses that reparse to it; the left spine
    of a ``Binary`` chain is walked in a loop, so long sums print."""
    if isinstance(e, Lit):
        return render_literal(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.function}( {', '.join(pretty_print_expr(a) for a in e.args)} )" \
            if e.args else f"{e.function}()"
    if isinstance(e, Unary):
        return "!" + pretty_print_expr(e.operand, _UNARY_LEVEL)
    if not isinstance(e, Binary):
        raise TypeError(f"not an expression node: {e!r}")
    spine = []
    while isinstance(e, Binary):
        spine.append(e)
        e = e.left
    text = pretty_print_expr(e)
    levels = [parent_level] + [PRECEDENCE[b.op] for b in spine]
    for i in range(len(spine) - 1, -1, -1):  # innermost operator first
        lvl, outer = levels[i + 1], levels[i]
        text = f"{text} {spine[i].op} {pretty_print_expr(spine[i].right, lvl, right=True)}"
        if lvl < outer or (lvl == outer and ((right and i == 0) or lvl == COMPARISON)):
            text = f"({text})"
    return text


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
        return ";\n".join(pretty_print(x, indent) for x in chain_items(b))
    if isinstance(b, Par):
        parts = []
        for x in chain_items(b):
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
