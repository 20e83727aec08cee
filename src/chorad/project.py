"""Endpoint projection: from one global behaviour to per-role process code.

Each construct lowers to the local view of every role that takes part in it;
uninvolved roles get ``Nop``, erased by a final normalisation pass.  The
coordination a global program takes for granted is made explicit here:

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

from dataclasses import dataclass, field

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
    pretty_print,
    reroot_ids,
    roles_of,
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


@dataclass(frozen=True)
class ProcessCode:
    pass


@dataclass(frozen=True)
class Nop(ProcessCode):
    pass


@dataclass(frozen=True)
class LocalAssign(ProcessCode):
    var: str
    expr: Expr


@dataclass(frozen=True)
class CallExternal(ProcessCode):
    """Assignment whose right-hand side is a call to an included function."""

    function: str
    args: tuple[Expr, ...]
    var: str


@dataclass(frozen=True)
class SendTo(ProcessCode):
    op: str
    peer: str
    expr: Expr


@dataclass(frozen=True)
class RecvFrom(ProcessCode):
    op: str
    peer: str
    var: str


@dataclass(frozen=True)
class SeqP(ProcessCode):
    items: tuple[ProcessCode, ...]


@dataclass(frozen=True)
class ParP(ProcessCode):
    items: tuple[ProcessCode, ...]


@dataclass(frozen=True)
class IfLocal(ProcessCode):
    guard: Expr
    involved: tuple[str, ...]
    guard_op: str
    then_p: ProcessCode
    else_p: ProcessCode


@dataclass(frozen=True)
class IfFollow(ProcessCode):
    guard_op: str
    evaluator: str
    then_p: ProcessCode
    else_p: ProcessCode


@dataclass(frozen=True)
class WhileLocal(ProcessCode):
    guard: Expr
    involved: tuple[str, ...]
    guard_op: str
    ack_op: str
    body: ProcessCode


@dataclass(frozen=True)
class WhileFollow(ProcessCode):
    guard_op: str
    ack_op: str
    evaluator: str
    body: ProcessCode


@dataclass(frozen=True)
class ScopeCoord(ProcessCode):
    scope_id: NodeId
    props: dict[str, Value]
    involved: tuple[str, ...]
    directive_op: str
    done_op: str
    default_p: ProcessCode


@dataclass(frozen=True)
class ScopeFollow(ProcessCode):
    scope_id: NodeId
    coordinator: str
    directive_op: str
    done_op: str
    default_p: ProcessCode


@dataclass(frozen=True)
class ScopeInfo:
    coordinator: str
    involved: tuple[str, ...]
    props: dict[str, Value]
    body_source: str


@dataclass(frozen=True)
class ProjectedApp:
    per_role: dict[str, ProcessCode]
    starter: str
    locations: dict[str, str]
    includes: dict[str, tuple[str, str | None]]  # function -> (address, protocol)
    scopes: dict[str, ScopeInfo] = field(default_factory=dict)

    @property
    def roles(self) -> list[str]:
        return sorted(self.per_role)


# =========================================================================
# Projection
# =========================================================================


def normalize_proc(p: ProcessCode) -> ProcessCode:
    """Erase Nops and flatten Seq/Par spines; branch bodies recurse."""
    if isinstance(p, (SeqP, ParP)):
        cls = type(p)
        items: list[ProcessCode] = []
        for item in p.items:
            item = normalize_proc(item)
            if isinstance(item, Nop):
                continue
            if isinstance(item, cls):
                items.extend(item.items)  # type: ignore[attr-defined]
            else:
                items.append(item)
        if not items:
            return Nop()
        if len(items) == 1:
            return items[0]
        return cls(tuple(items))
    if isinstance(p, IfLocal):
        return IfLocal(p.guard, p.involved, p.guard_op,
                       normalize_proc(p.then_p), normalize_proc(p.else_p))
    if isinstance(p, IfFollow):
        return IfFollow(p.guard_op, p.evaluator,
                        normalize_proc(p.then_p), normalize_proc(p.else_p))
    if isinstance(p, WhileLocal):
        return WhileLocal(p.guard, p.involved, p.guard_op, p.ack_op,
                          normalize_proc(p.body))
    if isinstance(p, WhileFollow):
        return WhileFollow(p.guard_op, p.ack_op, p.evaluator, normalize_proc(p.body))
    if isinstance(p, ScopeCoord):
        return ScopeCoord(p.scope_id, p.props, p.involved, p.directive_op,
                          p.done_op, normalize_proc(p.default_p))
    if isinstance(p, ScopeFollow):
        return ScopeFollow(p.scope_id, p.coordinator, p.directive_op, p.done_op,
                           normalize_proc(p.default_p))
    return p


def _proj(b: Behaviour, role: str) -> ProcessCode:
    if isinstance(b, Skip):
        return Nop()
    if isinstance(b, Assign):
        if b.role != role:
            return Nop()
        if isinstance(b.expr, Call) and b.expr.function != "getInput":
            return CallExternal(b.expr.function, b.expr.args, b.var)
        return LocalAssign(b.var, b.expr)
    if isinstance(b, Interaction):
        if role == b.sender:
            return SendTo(b.op, b.receiver, b.expr)
        if role == b.receiver:
            return RecvFrom(b.op, b.sender, b.var)
        return Nop()
    if isinstance(b, Seq):
        # spine-iterative: long programs are long Seq chains
        items: list[ProcessCode] = []
        node: Behaviour = b
        while isinstance(node, Seq):
            items.append(_proj(node.first, role))
            node = node.second
        items.append(_proj(node, role))
        return SeqP(tuple(items))
    if isinstance(b, Par):
        return ParP((_proj(b.left, role), _proj(b.right, role)))
    if isinstance(b, If):
        involved = tuple(sorted(
            (roles_of(b.then_branch) | roles_of(b.else_branch)) - {b.evaluator}
        ))
        op = aux_op(b.nid, "guard")
        if role == b.evaluator:
            return IfLocal(b.guard, involved, op,
                           _proj(b.then_branch, role), _proj(b.else_branch, role))
        if role in involved:
            return IfFollow(op, b.evaluator,
                            _proj(b.then_branch, role), _proj(b.else_branch, role))
        return Nop()
    if isinstance(b, While):
        involved = tuple(sorted(roles_of(b.body) - {b.evaluator}))
        g_op = aux_op(b.nid, "guard")
        a_op = aux_op(b.nid, "ack")
        if role == b.evaluator:
            return WhileLocal(b.guard, involved, g_op, a_op, _proj(b.body, role))
        if role in involved:
            return WhileFollow(g_op, a_op, b.evaluator, _proj(b.body, role))
        return Nop()
    if isinstance(b, Scope):
        involved = tuple(sorted(roles_of(b.body) - {b.coordinator}))
        d_op = aux_op(b.nid, "directive")
        f_op = aux_op(b.nid, "done")
        if role == b.coordinator:
            return ScopeCoord(b.nid, dict(b.props), involved, d_op, f_op,
                              _proj(b.body, role))
        if role in involved:
            return ScopeFollow(b.nid, b.coordinator, d_op, f_op, _proj(b.body, role))
        return Nop()
    raise TypeError(f"not a behaviour node: {b!r}")


def project(program: Program) -> ProjectedApp:
    """Project a validated program onto every role it mentions.

    The starter is always part of the deployment even when it never acts in
    the body: it anchors the readiness barrier.
    """
    roles = sorted(roles_of(program.body) | {program.preamble.starter})
    per_role = {r: normalize_proc(_proj(program.body, r)) for r in roles}
    includes: dict[str, tuple[str, str | None]] = {}
    for inc in program.includes:
        for fn in inc.functions:
            includes[fn] = (inc.address, inc.protocol)
    scopes: dict[str, ScopeInfo] = {}
    for node in _scopes_of(program.body):
        scopes[str(node.nid)] = ScopeInfo(
            coordinator=node.coordinator,
            involved=tuple(sorted(roles_of(node.body) - {node.coordinator})),
            props=dict(node.props),
            body_source=pretty_print(node.body),
        )
    return ProjectedApp(
        per_role=per_role,
        starter=program.preamble.starter,
        locations=dict(program.preamble.locations),
        includes=includes,
        scopes=scopes,
    )


Target = Program | ProjectedApp


def _as_app(target: Target) -> ProjectedApp:
    """What every driver runs: an application, projected here if need be."""
    if isinstance(target, ProjectedApp):
        return target
    return project(target)


def _scopes_of(b: Behaviour) -> list[Scope]:
    out: list[Scope] = []
    stack = [b]  # pre-order, children pushed in reverse for source order
    while stack:
        node = stack.pop()
        if isinstance(node, Scope):
            out.append(node)
            stack.append(node.body)
        elif isinstance(node, Seq):
            stack += (node.second, node.first)
        elif isinstance(node, Par):
            stack += (node.right, node.left)
        elif isinstance(node, If):
            stack += (node.else_branch, node.then_branch)
        elif isinstance(node, While):
            stack.append(node.body)
    return out


def project_rule_body(body: Behaviour, scope_id: NodeId, target_role: str,
                      coordinator: str | None = None) -> ProcessCode:
    """Project a replacement body for one participant of the scope it adapts.

    The body is re-rooted at the scope's node id first, so coordinator and
    followers independently derive the same auxiliary names.  ``target_role``
    must occur in the body or be the coordinator (who may end up with nothing
    to do when a rule moves all work to followers).
    """
    roles = roles_of(body)
    if target_role not in roles and target_role != coordinator:
        raise ProjectionError(
            f"role '{target_role}' does not occur in the replacement body"
        )
    rerooted = reroot_ids(body, scope_id.path)
    return normalize_proc(_proj(rerooted, target_role))


# =========================================================================
# Serialisation (compile output; JSON-safe plain data)
# =========================================================================


def expr_to_data(e: Expr):
    if isinstance(e, Lit):
        return {"k": "lit", "v": e.value}
    if isinstance(e, Var):
        return {"k": "var", "name": e.name}
    if isinstance(e, Unary):
        return {"k": "unary", "op": e.op, "operand": expr_to_data(e.operand)}
    if isinstance(e, Binary):
        return {"k": "binary", "op": e.op,
                "left": expr_to_data(e.left), "right": expr_to_data(e.right)}
    if isinstance(e, Call):
        return {"k": "call", "fn": e.function, "args": [expr_to_data(a) for a in e.args]}
    raise TypeError(f"not an expression node: {e!r}")


def expr_from_data(d) -> Expr:
    k = d["k"]
    if k == "lit":
        return Lit(d["v"])
    if k == "var":
        return Var(d["name"])
    if k == "unary":
        return Unary(d["op"], expr_from_data(d["operand"]))
    if k == "binary":
        return Binary(d["op"], expr_from_data(d["left"]), expr_from_data(d["right"]))
    if k == "call":
        return Call(d["fn"], tuple(expr_from_data(a) for a in d["args"]))
    raise ValueError(f"unknown expression tag {k!r}")


def proc_to_data(p: ProcessCode):
    if isinstance(p, Nop):
        return {"t": "nop"}
    if isinstance(p, LocalAssign):
        return {"t": "assign", "var": p.var, "expr": expr_to_data(p.expr)}
    if isinstance(p, CallExternal):
        return {"t": "call", "fn": p.function, "args": [expr_to_data(a) for a in p.args],
                "var": p.var}
    if isinstance(p, SendTo):
        return {"t": "send", "op": p.op, "peer": p.peer, "expr": expr_to_data(p.expr)}
    if isinstance(p, RecvFrom):
        return {"t": "recv", "op": p.op, "peer": p.peer, "var": p.var}
    if isinstance(p, SeqP):
        return {"t": "seq", "items": [proc_to_data(x) for x in p.items]}
    if isinstance(p, ParP):
        return {"t": "par", "items": [proc_to_data(x) for x in p.items]}
    if isinstance(p, IfLocal):
        return {"t": "ifLocal", "guard": expr_to_data(p.guard),
                "involved": list(p.involved), "guardOp": p.guard_op,
                "then": proc_to_data(p.then_p), "else": proc_to_data(p.else_p)}
    if isinstance(p, IfFollow):
        return {"t": "ifFollow", "guardOp": p.guard_op, "evaluator": p.evaluator,
                "then": proc_to_data(p.then_p), "else": proc_to_data(p.else_p)}
    if isinstance(p, WhileLocal):
        return {"t": "whileLocal", "guard": expr_to_data(p.guard),
                "involved": list(p.involved), "guardOp": p.guard_op,
                "ackOp": p.ack_op, "body": proc_to_data(p.body)}
    if isinstance(p, WhileFollow):
        return {"t": "whileFollow", "guardOp": p.guard_op, "ackOp": p.ack_op,
                "evaluator": p.evaluator, "body": proc_to_data(p.body)}
    if isinstance(p, ScopeCoord):
        return {"t": "scopeCoord", "scopeId": str(p.scope_id), "props": p.props,
                "involved": list(p.involved), "directiveOp": p.directive_op,
                "doneOp": p.done_op, "default": proc_to_data(p.default_p)}
    if isinstance(p, ScopeFollow):
        return {"t": "scopeFollow", "scopeId": str(p.scope_id),
                "coordinator": p.coordinator, "directiveOp": p.directive_op,
                "doneOp": p.done_op, "default": proc_to_data(p.default_p)}
    raise TypeError(f"not process code: {p!r}")


def _nid_from_str(s: str) -> NodeId:
    if not s:
        return NodeId()
    return NodeId(tuple(int(x) for x in s.split("_")))


def proc_from_data(d) -> ProcessCode:
    t = d["t"]
    if t == "nop":
        return Nop()
    if t == "assign":
        return LocalAssign(d["var"], expr_from_data(d["expr"]))
    if t == "call":
        return CallExternal(d["fn"], tuple(expr_from_data(a) for a in d["args"]), d["var"])
    if t == "send":
        return SendTo(d["op"], d["peer"], expr_from_data(d["expr"]))
    if t == "recv":
        return RecvFrom(d["op"], d["peer"], d["var"])
    if t == "seq":
        return SeqP(tuple(proc_from_data(x) for x in d["items"]))
    if t == "par":
        return ParP(tuple(proc_from_data(x) for x in d["items"]))
    if t == "ifLocal":
        return IfLocal(expr_from_data(d["guard"]), tuple(d["involved"]), d["guardOp"],
                       proc_from_data(d["then"]), proc_from_data(d["else"]))
    if t == "ifFollow":
        return IfFollow(d["guardOp"], d["evaluator"],
                        proc_from_data(d["then"]), proc_from_data(d["else"]))
    if t == "whileLocal":
        return WhileLocal(expr_from_data(d["guard"]), tuple(d["involved"]),
                          d["guardOp"], d["ackOp"], proc_from_data(d["body"]))
    if t == "whileFollow":
        return WhileFollow(d["guardOp"], d["ackOp"], d["evaluator"],
                           proc_from_data(d["body"]))
    if t == "scopeCoord":
        return ScopeCoord(_nid_from_str(d["scopeId"]), dict(d["props"]),
                          tuple(d["involved"]), d["directiveOp"], d["doneOp"],
                          proc_from_data(d["default"]))
    if t == "scopeFollow":
        return ScopeFollow(_nid_from_str(d["scopeId"]), d["coordinator"],
                           d["directiveOp"], d["doneOp"], proc_from_data(d["default"]))
    raise ValueError(f"unknown process tag {t!r}")


def app_manifest(app: ProjectedApp) -> dict:
    """Deployment manifest written by ``compile``; per-role code ships
    separately."""
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
                "coordinator": info.coordinator,
                "involved": list(info.involved),
                "props": dict(info.props),
                "body": info.body_source,
            }
            for sid, info in sorted(app.scopes.items())
        },
    }
