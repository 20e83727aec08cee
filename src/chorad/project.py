"""Endpoint projection: from one global behaviour to per-role process code.

Each construct lowers to the local view of every role that takes part in it;
uninvolved roles get ``Nop``.  An assignment is a ``LocalAssign`` whatever
its expression holds: the runtime issues the calls in it, at any depth.  A
``;`` or ``|`` chain drops its ``Nop`` items and splices in items that are
chains of its own kind as it is built, so the code comes out flat with no
pass after it.  The coordination a global program takes for granted is made
explicit here:

* If/While evaluators broadcast the guard value to every role occurring in
  the branches/body; While followers acknowledge each iteration before the
  guard is re-evaluated.
* Scope coordinators ask the adaptation middleware for a replacement, then
  direct every involved role to run either the replacement or its projected
  default, and finally collect one completion notice per follower.
* The starter runs a readiness barrier before anything else, which doubles
  as the address-distribution step for deployments without fixed locations.

Auxiliary operation names are derived from node ids
(``"_aux_" + purpose + "_" + path``), so every role computes identical names
without negotiation — including for rule bodies, which are re-rooted at the
scope they replace.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import islice
from typing import Iterable, NamedTuple

from .ast import (
    Assign,
    Behaviour,
    Binary,
    Call,
    Expr,
    If,
    Interaction,
    Lit,
    NodeId,
    Par,
    Program,
    Scope,
    Seq,
    Skip,
    Unary,
    Value,
    Var,
    While,
    _COMPARED,
    _Node,
    _node,
    chain_items,
    find_calls,
    pretty_print,
    roles_of,
    walk,
)


class ProjectionError(Exception):
    pass


def aux_op(nid: NodeId, purpose: str) -> str:
    """Deterministic auxiliary operation name for a node.

    ``purpose`` is one of ``guard``, ``ack``, ``directive``, ``done``.
    """
    return f"_aux_{purpose}_{nid}"


# =========================================================================
# Process code
# =========================================================================


def _calls_of(name: str) -> cached_property:
    """A node's ``calls``: :func:`~chorad.ast.find_calls` of the expression
    in its field ``name``, as a tuple, found at the node's first evaluation
    and kept on the node.  It is not a field, so ``==``, ``hash`` and the
    codec never see it; a node without calls shares the one empty tuple."""
    return cached_property(lambda node: tuple(find_calls(getattr(node, name))))


#: Message kinds of the role-to-role protocol (see :mod:`chorad.runtime`)
#: that projected code sends: plain sends and guards, their
#: acknowledgements, scope directives and completion notices.
KIND_MSG = "msg"
KIND_ACK = "ack"
KIND_DIRECTIVE = "directive"
KIND_DONE = "done"

#: The built-in function that reads a role's input script.
INPUT_FUNCTION = "getInput"


class Footprint(NamedTuple):
    """What running some code of one role may touch, as resources named
    without the role: ``("var", name)`` for a store name,
    ``("seq", kind, op, peer)`` for a channel it sends on (its counter
    and the mailbox key of ``peer`` it fills, which are one resource),
    ``("recv", kind, op, peer)`` for a mailbox key it receives on,
    :data:`STORE` for the whole store (a write of any name reads it, a
    scope's match with a manager writes it), :data:`TIDS` for the role's
    next tid (a spawn), :data:`INPUT` for its input script,
    ``("call", fn)`` for a call of the service function ``fn`` and
    :data:`SERVICES` for the state that the service tables share with
    every role.  ``scoped``
    says that it enters a scope, whose replacement code, if a rule
    matches, is not known in advance."""

    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    scoped: bool = False


STORE = ("store",)
TIDS = ("tid",)
INPUT = ("input",)
SERVICES = ("services",)
EMPTY = Footprint()


def union(parts: Iterable[Footprint]) -> Footprint:
    """What running all of ``parts`` may touch."""
    reads: set = set()
    writes: set = set()
    scoped = False
    for f in parts:
        reads |= f.reads
        writes |= f.writes
        scoped = scoped or f.scoped
    return Footprint(frozenset(reads), frozenset(writes), scoped)


def expr_footprint(e: Expr, calls: tuple) -> Footprint:
    """The names ``e`` reads and the service functions it calls, and the
    input script if one of its ``calls`` reads it."""
    reads = {("var", x.name) for x in walk(e) if type(x) is Var}
    reads.update(("call", c.function) for c in calls if c.function != INPUT_FUNCTION)
    inputs = any(c.function == INPUT_FUNCTION for c in calls)
    return Footprint(frozenset(reads), frozenset((INPUT,)) if inputs else frozenset())


def sent(kind: str, op: str, peer: str, acked: bool) -> Footprint:
    """A send to ``peer``, and with ``acked`` the receipt of its ack."""
    writes = {("seq", kind, op, peer)}
    if acked:
        writes.add(("recv", KIND_ACK, op, peer))
    return Footprint(writes=frozenset(writes))


def received(kind: str, op: str, peer: str, acked: bool, var: str | None = None) -> Footprint:
    """A receipt from ``peer``, with ``acked`` its ack, and the store
    name ``var`` it is kept in, if any."""
    writes = {("recv", kind, op, peer)}
    if acked:
        writes.add(("seq", KIND_ACK, op, peer))
    if var is None:
        return Footprint(writes=frozenset(writes))
    writes.add(("var", var))
    return Footprint(frozenset((STORE,)), frozenset(writes))


def _footprint(node: "ProcessCode") -> Footprint:
    """``node.footprint``: filled in for every node under ``node`` that
    lacks one, children first and without recursion."""
    for x in walk(node, post_order=True):
        if "footprint" not in x.__dict__:
            x.__dict__["footprint"] = _own_footprint(x)
    return node.__dict__["footprint"]


def _children(p: "ProcessCode") -> list:
    out = []
    for name, kind in _COMPARED[type(p)]:
        if kind == 3:
            out.append(getattr(p, name))
        elif kind == 2:
            out += getattr(p, name)
    return out


def _own_footprint(p: "ProcessCode") -> Footprint:
    """What ``p`` may touch, with its children's footprints already known:
    one case per class, as :meth:`~chorad.runtime.RoleExecutor._run` runs
    it."""
    cls = type(p)
    parts = [x.__dict__["footprint"] for x in _children(p)]
    if cls is LocalAssign:
        parts += [expr_footprint(p.expr, p.calls),
                  Footprint(frozenset((STORE,)), frozenset((("var", p.var),)))]
    elif cls is SendTo:
        parts += [expr_footprint(p.expr, p.calls), sent(KIND_MSG, p.op, p.peer, True)]
    elif cls is RecvFrom:
        parts.append(received(KIND_MSG, p.op, p.peer, True, p.var))
    elif cls is ParP:
        parts.append(Footprint(writes=frozenset((TIDS,))))
    elif cls is IfLocal or cls is WhileLocal:
        parts.append(expr_footprint(p.guard, p.calls))
        parts += [sent(KIND_MSG, p.guard_op, peer, True) for peer in p.involved]
        if cls is WhileLocal:
            parts += [received(KIND_MSG, p.ack_op, peer, True) for peer in p.involved]
    elif cls is IfFollow or cls is WhileFollow:
        parts.append(received(KIND_MSG, p.guard_op, p.evaluator, True))
        if cls is WhileFollow:
            parts.append(sent(KIND_MSG, p.ack_op, p.evaluator, True))
    elif cls is ScopeCoord:
        parts += [sent(KIND_DIRECTIVE, p.directive_op, peer, False) for peer in p.involved]
        parts += [received(KIND_DONE, p.done_op, peer, False) for peer in p.involved]
        parts.append(Footprint(scoped=True))
    elif cls is ScopeFollow:
        parts += [received(KIND_DIRECTIVE, p.directive_op, p.coordinator, False),
                  sent(KIND_DONE, p.done_op, p.coordinator, False), Footprint(scoped=True)]
    return union(parts)


@_node
class ProcessCode(_Node):
    """Base of process code: ``==`` and ``hash`` are the AST's iterative ones.

    Every node has a ``footprint``: what running it may touch
    (:class:`Footprint`), found when first asked for and kept on the node
    like ``calls``.  Only ``explore`` asks."""

    footprint = cached_property(_footprint)


@_node
class Nop(ProcessCode):
    pass


@_node
class LocalAssign(ProcessCode):
    var: str
    expr: Expr
    calls = _calls_of("expr")


@_node
class SendTo(ProcessCode):
    op: str
    peer: str
    expr: Expr
    calls = _calls_of("expr")


@_node
class RecvFrom(ProcessCode):
    op: str
    peer: str
    var: str


@_node
class SeqP(ProcessCode):
    items: tuple[ProcessCode, ...]

    @cached_property
    def suffixes(self) -> tuple[Footprint, ...]:
        """Per position ``i``, the footprint of ``items[i:]``."""
        out = [EMPTY]
        for item in reversed(self.items):
            out.append(union((item.footprint, out[-1])))
        return tuple(reversed(out))


@_node
class ParP(ProcessCode):
    items: tuple[ProcessCode, ...]


@_node
class IfLocal(ProcessCode):
    guard: Expr
    involved: tuple[str, ...]
    guard_op: str
    then_p: ProcessCode
    else_p: ProcessCode
    calls = _calls_of("guard")


@_node
class IfFollow(ProcessCode):
    guard_op: str
    evaluator: str
    then_p: ProcessCode
    else_p: ProcessCode


@_node
class WhileLocal(ProcessCode):
    guard: Expr
    involved: tuple[str, ...]
    guard_op: str
    ack_op: str
    body: ProcessCode
    calls = _calls_of("guard")


@_node
class WhileFollow(ProcessCode):
    guard_op: str
    ack_op: str
    evaluator: str
    body: ProcessCode


@_node
class ScopeCoord(ProcessCode):
    scope_id: NodeId
    props: dict[str, Value]
    involved: tuple[str, ...]
    directive_op: str
    done_op: str
    default_p: ProcessCode


@_node
class ScopeFollow(ProcessCode):
    scope_id: NodeId
    coordinator: str
    directive_op: str
    done_op: str
    default_p: ProcessCode


@dataclass(frozen=True)
class ProjectedApp:
    per_role: dict[str, ProcessCode]
    starter: str
    locations: dict[str, str]
    includes: dict[str, tuple[str, str | None]]  # function -> (address, protocol)

    @property
    def roles(self) -> list[str]:
        return sorted(self.per_role)


# =========================================================================
# Projection
# =========================================================================


def _involved(b: If | While | Scope, memo: dict[int, tuple[str, ...]]) -> tuple[str, ...]:
    """The roles ``b`` coordinates: every role in it but its evaluator or
    coordinator.  ``memo`` (keyed by ``id``) holds them for every ``if``,
    ``while`` and ``scope`` in the subtree of the first one asked about, so
    a tree's nodes are visited once for all the roles it is projected onto."""
    if id(b) not in memo:
        _involved_below(b, memo)
    return memo[id(b)]


def _involved_below(body: Behaviour, out: dict[int, tuple[str, ...]]) -> None:
    """Enter into ``out`` what :func:`_involved` says of every ``if``,
    ``while`` and ``scope`` in ``body``, in one post-order pass that gives
    every node the roles of its subtree from those of its children."""
    below: dict[int, set[str]] = {}  # roles under a node whose parent is still to come
    for x in walk(body, post_order=True):
        roles: set[str] = set()
        for name, kind in _COMPARED[type(x)]:
            if kind == 1:
                roles.add(getattr(x, name))
            elif kind == 3:
                roles |= below.pop(id(getattr(x, name)))
            elif kind == 2:
                for child in getattr(x, name):
                    roles |= below.pop(id(child))
        below[id(x)] = roles
        if isinstance(x, (If, While, Scope)):
            lead = x.coordinator if isinstance(x, Scope) else x.evaluator
            out[id(x)] = tuple(sorted(roles - {lead}))


def _proj(b: Behaviour, role: str, memo: dict[int, tuple[str, ...]]) -> ProcessCode:
    if isinstance(b, Skip):
        return Nop()
    if isinstance(b, Assign):
        return LocalAssign(b.var, b.expr) if b.role == role else Nop()
    if isinstance(b, Interaction):
        if role == b.sender:
            return SendTo(b.op, b.receiver, b.expr)
        if role == b.receiver:
            return RecvFrom(b.op, b.sender, b.var)
        return Nop()
    if isinstance(b, (Seq, Par)):
        # chain-iterative: long programs are long `;` (or `|`) chains
        cls = SeqP if isinstance(b, Seq) else ParP
        items: list[ProcessCode] = []
        for x in chain_items(b):
            p = _proj(x, role, memo)
            if type(p) is cls:
                items += p.items
            elif type(p) is not Nop:
                items.append(p)
        if not items:
            return Nop()
        return cls(tuple(items)) if len(items) > 1 else items[0]
    if isinstance(b, If):
        involved = _involved(b, memo)
        op = aux_op(b.nid, "guard")
        if role == b.evaluator:
            return IfLocal(b.guard, involved, op, _proj(b.then_branch, role, memo),
                           _proj(b.else_branch, role, memo))
        if role in involved:
            return IfFollow(op, b.evaluator, _proj(b.then_branch, role, memo),
                            _proj(b.else_branch, role, memo))
        return Nop()
    if isinstance(b, While):
        involved = _involved(b, memo)
        g_op = aux_op(b.nid, "guard")
        a_op = aux_op(b.nid, "ack")
        if role == b.evaluator:
            return WhileLocal(b.guard, involved, g_op, a_op, _proj(b.body, role, memo))
        if role in involved:
            return WhileFollow(g_op, a_op, b.evaluator, _proj(b.body, role, memo))
        return Nop()
    if isinstance(b, Scope):
        involved = _involved(b, memo)
        d_op = aux_op(b.nid, "directive")
        f_op = aux_op(b.nid, "done")
        if role == b.coordinator:
            return ScopeCoord(b.nid, dict(b.props), involved, d_op, f_op,
                              _proj(b.body, role, memo))
        if role in involved:
            return ScopeFollow(b.nid, b.coordinator, d_op, f_op, _proj(b.body, role, memo))
        return Nop()
    raise TypeError(f"not a behaviour node: {b!r}")


def project(program: Program) -> ProjectedApp:
    """Project a validated program onto every role it mentions.

    The starter is always part of the deployment even when it never acts in
    the body: it anchors the readiness barrier.
    """
    roles = sorted(roles_of(program.body) | {program.preamble.starter})
    memo: dict[int, tuple[str, ...]] = {}
    per_role = {r: _proj(program.body, r, memo) for r in roles}
    includes: dict[str, tuple[str, str | None]] = {}
    for inc in program.includes:
        for fn in inc.functions:
            includes[fn] = (inc.address, inc.protocol)
    return ProjectedApp(
        per_role=per_role,
        starter=program.preamble.starter,
        locations=dict(program.preamble.locations),
        includes=includes,
    )


Target = Program | ProjectedApp


def _as_app(target: Target) -> ProjectedApp:
    """What every driver runs: an application, projected here if need be."""
    if isinstance(target, ProjectedApp):
        return target
    return project(target)


def project_rule_body(body: Behaviour, scope_id: NodeId, target_role: str,
                      coordinator: str | None = None) -> ProcessCode:
    """Project a replacement body for one participant of the scope it adapts.

    The body is projected at its own ids and the code re-rooted at the
    scope's node id (:func:`reroot_proc`), so coordinator and followers
    independently derive the same auxiliary names.  ``target_role`` must
    occur in the body or be the coordinator (who may end up with nothing to
    do when a rule moves all work to followers).
    """
    roles = roles_of(body)
    if target_role not in roles and target_role != coordinator:
        raise ProjectionError(
            f"role '{target_role}' does not occur in the replacement body"
        )
    return reroot_proc(_proj(body, target_role, {}), scope_id.path)


def compile_rule_body(body: Behaviour) -> dict[str, ProcessCode]:
    """The code of every role in a rule body, at the body's own ids; a
    role's share of a scope it replaces is ``reroot_proc(code, scope_path)``,
    and a role not in the body has nothing to do."""
    return {role: project_rule_body(body, NodeId(), role) for role in sorted(roles_of(body))}


#: Per process-code class, the fields derived from node ids: scope ids and
#: auxiliary operation names (user operations are in fields named ``op``).
_ID_FIELDS = {cls: tuple(f.name for f in fields(cls)
                         if f.type == "NodeId" or f.name.endswith("_op"))
              for cls in ProcessCode.__subclasses__()}


def reroot_proc(p: ProcessCode, prefix: tuple[int, ...]) -> ProcessCode:
    """``p`` with every node id in it prefixed by ``prefix``: the code of the
    same body projected after :func:`~chorad.ast.reroot_ids`.

    Scope ids gain the prefix, and so do the paths ending auxiliary names
    (``_aux_<purpose>_<path>``).  Unchanged subtrees are shared.
    """
    if not prefix:
        return p
    head = str(NodeId(prefix))

    def move(value):
        if isinstance(value, NodeId):
            return value.prefixed(prefix)
        purpose, _, path = value[len("_aux_"):].partition("_")
        return f"_aux_{purpose}_{head}_{path}" if path else f"_aux_{purpose}_{head}"

    def go(p: ProcessCode) -> ProcessCode:
        cls = type(p)
        changes = {name: move(getattr(p, name)) for name in _ID_FIELDS[cls]}
        for name, kind in _COMPARED[cls]:
            if kind == 3:
                changes[name] = go(getattr(p, name))
            elif kind == 2:
                items = tuple([go(x) for x in getattr(p, name)])
                if any(a is not b for a, b in zip(items, getattr(p, name))):
                    changes[name] = items
        return replace(p, **changes) if changes else p

    return go(p)


# =========================================================================
# Serialisation (compile output; JSON-safe plain data)
# =========================================================================


#: Wire tag of every node class: expressions carry theirs under ``"k"``,
#: process code under ``"t"``.
_TAGS: dict[type, str] = {
    Lit: "lit", Var: "var", Unary: "unary", Binary: "binary", Call: "call",
    Nop: "nop", LocalAssign: "assign", SendTo: "send",
    RecvFrom: "recv", SeqP: "seq", ParP: "par", IfLocal: "ifLocal",
    IfFollow: "ifFollow", WhileLocal: "whileLocal", WhileFollow: "whileFollow",
    ScopeCoord: "scopeCoord", ScopeFollow: "scopeFollow",
}

_TAG_KEY = {Expr: "k", ProcessCode: "t"}
_CLASSES = {base: {tag: cls for cls, tag in _TAGS.items() if issubclass(cls, base)}
            for base in _TAG_KEY}

#: Wire key of every field whose key is not its name.
_WIRE_KEYS = {"value": "v", "function": "fn", "guard_op": "guardOp",
              "ack_op": "ackOp", "then_p": "then", "else_p": "else",
              "scope_id": "scopeId", "directive_op": "directiveOp",
              "done_op": "doneOp", "default_p": "default"}


def expr_to_data(e: Expr) -> list:
    """``e`` as a flat list: its nodes in evaluation order, each without its
    operands (a tuple of operands ships as its length), so an expression of
    any shape is two levels deep on the wire."""
    out = []
    for x in walk(e, post_order=True):
        d = {"k": _TAGS[type(x)]}
        for name, key, many, _ in _LAYOUT[type(x)]:
            if many is None:
                d[key] = getattr(x, name)
            elif many:
                d[key] = len(getattr(x, name))
        out.append(d)
    return out


def expr_from_data(d) -> Expr:
    """The expression ``d`` encodes (see :func:`expr_to_data`), rebuilt
    with a stack."""
    if not isinstance(d, list):
        raise ValueError(f"an expression ships as a list of nodes, not a {type(d).__name__}")
    built: list[Expr] = []  # finished operands, the last one on top
    for node in d:
        cls = _class_of(node, Expr)
        layout = _LAYOUT[cls]
        n = sum(node[key] if many else 1 for _, key, many, _ in layout if many is not None)
        if not 0 <= n <= len(built):
            raise ValueError(f"a {node['k']!r} node takes {n} operands; {len(built)} precede it")
        operands = iter(built[len(built) - n:])
        del built[len(built) - n:]
        built.append(cls(*(decode(node[key]) if many is None
                           else tuple(islice(operands, node[key])) if many
                           else next(operands)
                           for _, key, many, decode in layout)))
    if len(built) != 1:
        raise ValueError(f"an expression ships as one tree, not {len(built)}")
    return built[0]


def proc_to_data(p: ProcessCode) -> dict:
    """``p`` as plain data, built top down with an explicit stack; its
    expressions ship flat."""
    root: dict = {}
    todo = [(p, root)]
    while todo:
        p, out = todo.pop()
        if not isinstance(p, ProcessCode) or type(p) not in _TAGS:
            raise TypeError(f"not a ProcessCode node: a {type(p).__name__}")
        out["t"] = _TAGS[type(p)]
        for name, key, _, _ in _LAYOUT[type(p)]:
            out[key] = _value_to_data(getattr(p, name), todo)
    return root


def _value_to_data(v, todo: list):
    """``v`` as plain data; process code becomes an empty dict queued on
    ``todo`` to be filled in."""
    if isinstance(v, ProcessCode):
        out: dict = {}
        todo.append((v, out))
        return out
    if isinstance(v, Expr):
        return expr_to_data(v)
    if isinstance(v, tuple):
        return [_value_to_data(x, todo) for x in v]
    if isinstance(v, NodeId):
        return str(v)
    return v


def proc_from_data(d) -> ProcessCode:
    """The process code ``d`` encodes, built bottom up with an explicit stack."""
    built: list = []  # finished nodes; a node's children end on top, first child topmost
    todo: list = [(d, None)]
    while todo:
        d, cls = todo.pop()
        if cls is None:  # first visit: queue the node again, after its children
            cls = _class_of(d, ProcessCode)
            todo.append((d, cls))
            for _, key, many, _ in _LAYOUT[cls]:
                if many is not None:
                    todo += [(x, None) for x in (d[key] if many else (d[key],))]
            continue
        args = []
        for _, key, many, decode in _LAYOUT[cls]:
            if many is None:
                args.append(decode(d[key]))
            elif many:
                args.append(tuple(built.pop() for _ in d[key]))
            else:
                args.append(built.pop())
        built.append(cls(*args))
    return built[0]


def _class_of(d, base: type) -> type:
    tag = d[_TAG_KEY[base]]
    cls = _CLASSES[base].get(tag)
    if cls is None:
        raise ValueError(f"unknown {base.__name__} tag {tag!r}")
    return cls


#: How a plain field's wire value is read back, by field name; the rest are
#: stored as is.
_DECODERS = {
    "involved": tuple,
    "scope_id": lambda s: NodeId(tuple(int(i) for i in s.split("_") if i)),
    "props": dict,
}

#: Per class: (field, wire key, holds children, decoder) for every compared
#: field, in declaration order (source positions are not shipped).  Holds
#: children is True for a tuple of children, False for one child and None
#: for any other field.
_LAYOUT = {
    cls: tuple((name, _WIRE_KEYS.get(name, name), {2: True, 3: False}.get(kind),
                expr_from_data if kind == 4 else _DECODERS.get(name, lambda v: v))
               for name, kind in _COMPARED[cls])
    for cls in _TAGS
}


def app_manifest(program: Program, app: ProjectedApp) -> dict:
    """Deployment manifest written by ``compile``: ``app``'s roles, starter,
    locations and includes, and each scope of ``program`` by its node id
    with its printed body; per-role code ships separately."""
    scopes = sorted((str(node.nid), node) for node in walk(program.body)
                    if isinstance(node, Scope))
    memo: dict[int, tuple[str, ...]] = {}
    return {
        "starter": app.starter,
        "roles": app.roles,
        "locations": dict(app.locations),
        "includes": {
            fn: {"address": addr, "protocol": proto}
            for fn, (addr, proto) in sorted(app.includes.items())
        },
        "scopes": {
            sid: {
                "coordinator": node.coordinator,
                "involved": list(_involved(node, memo)),
                "props": dict(node.props),
                "body": pretty_print(node.body),
            }
            for sid, node in scopes
        },
    }
