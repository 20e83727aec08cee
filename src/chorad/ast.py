"""Abstract syntax for choreography programs, adaptation rules, and expressions.

All nodes are frozen dataclasses.  Structural equality deliberately ignores
node ids and source positions (those fields carry ``compare=False``), so two
parses of the same text compare equal while each node still knows where it
came from for diagnostics.  ``==`` and ``hash`` walk a tree without
recursion, so trees of any depth compare; projection's process code is
built on the same base and compares the same way.

Node ids are paths of positions from the behaviour root, which the parser
gives each node as it builds it (see :class:`NodeId`), so an id is as deep
as the node is syntactically nested, however long the program.  Ids are
stable across reparses of identical source and seed the deterministic
names of the auxiliary operations inserted by projection, so every
participant of a deployment derives the same names independently.

One table, ``_COMPARED``, says what each compared field of a node class
holds: a child of the class's own family (expression, behaviour or process
code), a tuple of such children, an expression, a role or a plain value.
Equality, hashing, re-rooting, the one walker ``walk`` and projection's
codec all read it.  ``walk`` and ``chain_items`` work without recursion, so
long programs and wide blocks stay clear of the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Union

Value = Union[int, bool, str]
Role = str


@dataclass(frozen=True)
class NodeId:
    """Path of positions from the behaviour root, as the parser gives them.

    Item i of a ``;`` or ``|`` chain at ``base`` gets ``base.child(i)``,
    ``skip`` items counted, so a node's id follows its place in the source;
    a braced item that holds a chain of the same kind continues the count.
    A parsed chain is in normal form: its skips dropped, an item that is a
    chain of its own kind spliced in, the rest nested to the right with
    every interior Seq/Par node at ``base``, and a chain of skips alone one
    ``Skip`` at ``base``.  Other nodes number their children by field:
    If then=0 else=1, While body=0, Scope body=0; If, While and Scope stay
    when their bodies are ``Skip``, as a guard evaluation is an observable
    event and a scope with an empty body an adaptation point.  Paths in
    lexicographic order are in source pre-order.  ``str()`` renders the
    path digits joined by underscores, the exact form embedded in
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


class _Node:
    """Base of expressions, behaviours and process code: ``==`` and ``hash``
    read each class's compared fields from ``_COMPARED`` and walk a tree
    without recursion, so long chains compare.  Plain fields compare
    type-exactly, so ``x@a = true`` and ``x@a = 1`` differ."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]  # both trees in lockstep
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if type(x) is not type(y):
                return False
            for name, kind in _COMPARED[type(x)]:
                u, v = getattr(x, name), getattr(y, name)
                if kind >= 3:
                    stack.append((u, v))
                elif kind == 2:
                    if len(u) != len(v):
                        return False
                    stack += zip(u, v)
                elif type(u) is not type(v) or u != v \
                        or (type(u) is dict and _plain_key(u) != _plain_key(v)):
                    return False
        return True

    def __hash__(self) -> int:
        parts: list[object] = []  # every node's class and plain values, in pre-order
        stack: list[_Node] = [self]
        while stack:
            x = stack.pop()
            parts.append(type(x))
            for name, kind in _COMPARED[type(x)]:
                value = getattr(x, name)
                if kind < 2:
                    parts.append(_plain_key(value))
                elif kind == 2:
                    stack += value
                else:
                    stack.append(value)
        return hash(tuple(parts))


def _plain_key(value: object) -> object:
    """A plain field's value as compared and hashed: a boolean with its
    type, so ``true`` stays apart from ``1``, and a dict (a scope's
    ``props``) as its sorted items."""
    cls = type(value)
    if cls is bool:
        return (bool, value)
    if cls is dict:
        return tuple(sorted((k, _plain_key(v)) for k, v in value.items()))
    return value


#: Per node class, its compared fields in declaration order, each with what
#: it holds: a plain value (0), a role (1), a tuple of children (2), a child
#: (3) or an expression held by a behaviour or by process code (4).  A child
#: is a node of the class's own family.  ``==``, ``hash``, every walk and the
#: codec read this table; none of them sees ids or positions.
_COMPARED: dict[type, tuple[tuple[str, int], ...]] = {}


def _node(cls: type) -> type:
    """The decorator of every node class: a frozen dataclass that keeps
    ``_Node``'s ``==`` and hash, entered in ``_COMPARED``."""
    cls = dataclass(frozen=True, eq=False)(cls)
    family = cls.__mro__[-3].__name__  # the base right under _Node
    # the family's own entries come last, so an expression's operand is a child
    kinds = {"Role": 1, "Expr": 4, f"tuple[{family}, ...]": 2, family: 3}
    _COMPARED[cls] = tuple((f.name, kinds.get(f.type, 0)) for f in fields(cls) if f.compare)
    return cls


@_node
class Expr(_Node):
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@_node
class Lit(Expr):
    value: Value = 0


@_node
class Var(Expr):
    """A variable reference.

    In rule conditions the name may be namespaced (``N.key`` for scope
    properties, ``E.key`` for environment entries); program expressions only
    ever use bare names.
    """

    name: str = ""


@_node
class Unary(Expr):
    op: str = "!"
    operand: Expr = Lit(False)


@_node
class Binary(Expr):
    op: str = "+"
    left: Expr = Lit(0)
    right: Expr = Lit(0)


@_node
class Call(Expr):
    """Invocation of ``getInput`` or an included external function."""

    function: str = ""
    args: tuple[Expr, ...] = ()


#: Binary operators by precedence, loosest first; the parser and the printer
#: both read it.  Operators of level ``COMPARISON`` do not associate.
PRECEDENCE = {"or": 1, "and": 2, "==": 3, "!=": 3, "<": 3, ">": 3, "<=": 3, ">=": 3,
              "+": 4, "-": 4, "*": 5, "/": 5}
COMPARISON = 3
_UNARY_LEVEL = max(PRECEDENCE.values()) + 1


# =========================================================================
# Behaviours
# =========================================================================


@_node
class Behaviour(_Node):
    nid: NodeId = field(default=NodeId(), compare=False, kw_only=True)
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@_node
class Skip(Behaviour):
    pass


@_node
class Assign(Behaviour):
    var: str = ""
    role: Role = ""
    expr: Expr = Lit(0)


@_node
class Interaction(Behaviour):
    """``op: sender( expr ) -> receiver( var )``; sender and receiver differ."""

    op: str = ""
    sender: Role = ""
    expr: Expr = Lit(0)
    receiver: Role = ""
    var: str = ""


@_node
class Seq(Behaviour):
    first: Behaviour = Skip()
    second: Behaviour = Skip()


@_node
class Par(Behaviour):
    left: Behaviour = Skip()
    right: Behaviour = Skip()


@_node
class If(Behaviour):
    guard: Expr = Lit(True)
    evaluator: Role = ""
    then_branch: Behaviour = Skip()
    else_branch: Behaviour = Skip()


@_node
class While(Behaviour):
    guard: Expr = Lit(False)
    evaluator: Role = ""
    body: Behaviour = Skip()


@_node
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


def reroot_ids(b: Behaviour, prefix: tuple[int, ...]) -> Behaviour:
    """Prefix every node id in ``b`` with ``prefix``.

    Used when a rule body replaces a scope: re-rooting the body at the scope's
    id makes every role derive identical auxiliary names for it.  Chains come
    back nested to the right, each sharing its root's id, as the parser
    builds them.
    """
    cls = type(b)
    if cls is Seq or cls is Par:
        return join_chain(cls, [reroot_ids(x, prefix) for x in chain_items(b)],
                          nid=b.nid.prefixed(prefix))
    return replace(b, nid=b.nid.prefixed(prefix),
                   **{name: reroot_ids(getattr(b, name), prefix)
                      for name, kind in _COMPARED[cls] if kind == 3})


def walk(node: _Node, post_order: bool = False) -> list:
    """Every node of ``node``'s tree left to right, without recursion: each
    before its children, or with ``post_order`` after them (evaluation
    order).  A tree is one family: a behaviour's expressions are not in it."""
    # post-order is the reverse of a pre-order that takes children right to left
    out = []
    stack = [node]
    while stack:
        x = stack.pop()
        out.append(x)
        row = _COMPARED[type(x)]
        for name, kind in (row if post_order else reversed(row)):
            if kind == 3:
                stack.append(getattr(x, name))
            elif kind == 2:
                stack += getattr(x, name) if post_order else reversed(getattr(x, name))
    if post_order:
        out.reverse()
    return out


def find_calls(e: Expr) -> list[Call]:
    """Call nodes in evaluation order (post-order, left to right)."""
    return [x for x in walk(e, post_order=True) if type(x) is Call]


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
            for name, _ in reversed(_COMPARED[cls]):  # a chain node holds two children
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
        for name, kind in _COMPARED[type(x)]:
            if kind == 1:
                out.add(getattr(x, name))
    return out


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

    The output reparses to ``b``, ids aside, when ``b`` is in normal form,
    as every parsed tree is (see :class:`NodeId`): the printer flattens
    Seq/Par chains into ``;``/``|`` lists and the parser nests them to the
    right.
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
