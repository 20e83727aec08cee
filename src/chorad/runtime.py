"""Role runtime: expression evaluation and the per-role execution engine.

A role's projected code runs as a tree of generator tasks.  Every ``yield``
is one schedulable step and names an effect the surrounding driver must
service:

    ("send", msg)              -> None      queue an outbound message
    ("recv", kind, op, frm)    -> Message   block until a matching message
    ("spawn", [gen, ...])      -> [tid]     start parallel branches
    ("join", [tid, ...])       -> None      block until the last spawn's branches finish
    ("local", verb, detail)    -> None      bookkeeping step (assignments)
    ("call", fn, [val, ...])   -> Value     external function / input request
    ("match", request)         -> dict      adaptation lookup for a scope

Every expression a task evaluates, an assignment's right-hand side
included, issues the calls in it as ``call`` effects, innermost first and
left to right; a call's arguments are read when it is issued, after the
calls nested in its arguments have returned.

The executor is a passive state machine: drivers decide which ready task to
advance (a seeded scheduler in simulation, one thread per role live) and
feed delivered messages in with :meth:`RoleExecutor.deliver`.  The executor
keeps the tids of its ready tasks in ascending order and updates them at
every state change, so :meth:`~RoleExecutor.ready_tids` costs the same
however many tasks wait.  ``call`` and ``match`` surface as an
:class:`ExtRequest`, which both drivers hand to one
:class:`~chorad.services.Router` and settle with
:meth:`~RoleExecutor.settle_ext`.  This keeps one semantics for both execution modes; only
scheduling and transport differ.

Message-for-message protocol, common to every driver:

* plain interactions are rendezvous: each ``kind="msg"`` send blocks until
  the receiver's ``kind="ack"`` echoing the sequence number arrives, and the
  receiver acknowledges as part of consuming the message;
* conditionals broadcast the guard value from the evaluator to every role
  occurring in a branch; loops do the same per iteration and additionally
  collect one iteration acknowledgement per involved role before the guard
  is re-evaluated;
* scopes let the coordinator consult the adaptation middleware, push one
  directive per follower (replace or keep the default), run its own share,
  and wait for one completion notice per follower — directives and
  completion notices are not themselves acknowledged.  A match reply
  carries the rule's code per role, compiled when the rule was published;
  each follower's directive carries only that follower's code, and every
  participant decodes its share and re-roots it at the scope's node id, so
  the runtime never parses or projects;
* before any of that, every non-starting role reports ready to the starter
  and waits for the go signal carrying the full role/address map.
"""

from __future__ import annotations

import bisect
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .ast import (
    Binary,
    Call,
    Expr,
    Lit,
    NodeId,
    Unary,
    Value,
    Var,
    walk,
)
from .project import (
    IfFollow,
    IfLocal,
    LocalAssign,
    Nop,
    ParP,
    ProcessCode,
    RecvFrom,
    ScopeCoord,
    ScopeFollow,
    SendTo,
    SeqP,
    WhileFollow,
    WhileLocal,
    proc_from_data,
    project_rule_body,  # not called here: perfbench's tracer wraps it in this module
    reroot_proc,
)

BARRIER_OP = "_aux_barrier"

INPUT_FUNCTION = "getInput"


class RoleError(Exception):
    """Runtime failure local to one role (unbound variable, bad operand...)."""

    def __init__(self, message: str, role: str | None = None):
        self.role = role
        super().__init__(message)


# =========================================================================
# Values and expressions
# =========================================================================


def render(v: Value) -> str:
    """Canonical text of a value; booleans render as the keywords."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _ints(a: Value, b: Value) -> bool:
    return (isinstance(a, int) and isinstance(b, int)
            and not isinstance(a, bool) and not isinstance(b, bool))


def _div(a: int, b: int) -> int:
    """Division truncating toward zero."""
    if b == 0:
        raise RoleError("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _equal(a: Value, b: Value) -> bool:
    return a == b if type(a) is type(b) else render(a) == render(b)


#: Per strict binary operator: what it computes from its two operand values,
#: and what those must be, if anything (a key of ``_OPERANDS``).
_SEMANTICS = {
    "+": (lambda a, b: a + b if _ints(a, b) else render(a) + render(b), None),
    "-": (operator.sub, "two integers"),
    "*": (operator.mul, "two integers"),
    "/": (_div, "two integers"),
    "==": (_equal, None),
    "!=": (lambda a, b: not _equal(a, b), None),
    "<": (operator.lt, "two integers or two strings"),
    "<=": (operator.le, "two integers or two strings"),
    ">": (operator.gt, "two integers or two strings"),
    ">=": (operator.ge, "two integers or two strings"),
}
_OPERANDS = {
    "two integers": _ints,
    "two integers or two strings":
        lambda a, b: _ints(a, b) or (isinstance(a, str) and isinstance(b, str)),
}
#: Short-circuit operators: the left value that decides without the right.
_DECIDES = {"and": False, "or": True}


def find_calls(e: Expr) -> list[Call]:
    """Call nodes in evaluation order (post-order, left to right)."""
    return [x for x in walk(e, post_order=True) if type(x) is Call]


def eval_expr(e: Expr, variables: dict[str, Value],
              resolved_calls: dict[int, Value] | None = None) -> Value:
    """Evaluate an expression over a role's variable store.

    Values are dynamically typed ints, booleans and strings.  ``+`` adds two
    ints and otherwise concatenates rendered text; equality across unlike
    types compares rendered text; ordering requires two ints or two strings.
    Reading an unbound variable is a hard error, not an empty default.

    Calls must have been pre-evaluated by the owning task (they may block);
    their results arrive through ``resolved_calls`` keyed by node identity.
    The left spine of a ``Binary`` chain is walked in a loop, so a long
    left-nested sum evaluates without recursion.
    """
    cls = type(e)
    if cls is Lit:
        return e.value
    if cls is Var:
        try:
            return variables[e.name]
        except KeyError:
            raise RoleError(f"variable '{e.name}' is not set") from None
    if cls is Call:
        if resolved_calls is None or id(e) not in resolved_calls:
            raise RoleError(f"call to '{e.function}' cannot be evaluated here")
        return resolved_calls[id(e)]
    if cls is Unary:
        value = eval_expr(e.operand, variables, resolved_calls)
        if not isinstance(value, bool):
            raise RoleError(f"'!' needs a boolean, got {render(value)!r}")
        return not value
    if cls is not Binary:
        raise TypeError(f"not an expression node: {e!r}")
    spine = []
    while type(e) is Binary:
        spine.append(e)
        e = e.left
    value = eval_expr(e, variables, resolved_calls)
    while spine:  # innermost operator first
        b = spine.pop()
        op = b.op
        if op in _DECIDES:
            if not isinstance(value, bool):
                raise RoleError(f"'{op}' needs booleans, got {render(value)!r}")
            if value is _DECIDES[op]:
                continue
            value = eval_expr(b.right, variables, resolved_calls)
            if not isinstance(value, bool):
                raise RoleError(f"'{op}' needs booleans, got {render(value)!r}")
            continue
        right = eval_expr(b.right, variables, resolved_calls)
        if op not in _SEMANTICS:
            raise RoleError(f"unknown operator '{op}'")
        fn, needs = _SEMANTICS[op]
        if needs and not _OPERANDS[needs](value, right):
            raise RoleError(f"'{op}' needs {needs}, got {render(value)!r} and {render(right)!r}")
        value = fn(value, right)
    return value


# =========================================================================
# Messages
# =========================================================================

# Role-to-role kinds; middleware conversations use their own kinds and are
# classified wholesale below.
KIND_MSG = "msg"
KIND_ACK = "ack"
KIND_READY = "ready"
KIND_START = "start"
KIND_DIRECTIVE = "directive"
KIND_DONE = "done"


@dataclass(frozen=True)
class Message:
    kind: str
    op: str
    frm: str
    to: str
    data: Any
    seq: int

    def to_dict(self) -> dict[str, Any]:
        """The wire form; the sender is spelled ``from``."""
        return {"kind": self.kind, "op": self.op, "from": self.frm,
                "to": self.to, "data": self.data, "seq": self.seq}

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "Message":
        return Message(kind=d["kind"], op=d.get("op", ""), frm=d["from"],
                       to=d["to"], data=d.get("data"), seq=d.get("seq", 0))


def classify_message(m: Message) -> str:
    """Accounting category for message tallies.

    ``ack`` covers both transport acknowledgements and per-iteration loop
    acknowledgements (they share one purpose: pacing the sender).
    """
    if m.kind == KIND_MSG:
        if m.op.startswith("_aux_guard_"):
            return "guard"
        if m.op.startswith("_aux_ack_"):
            return "ack"
        return "user"
    if m.kind == KIND_ACK:
        return "ack"
    if m.kind in (KIND_READY, KIND_START):
        return "barrier"
    if m.kind == KIND_DIRECTIVE:
        return "directive"
    if m.kind == KIND_DONE:
        return "done"
    return "middleware"


# =========================================================================
# Tasks
# =========================================================================

READY = "ready"
WAIT_RECV = "wait_recv"
WAIT_JOIN = "wait_join"
WAIT_EXT = "wait_ext"
FAILED = "failed"

MailKey = tuple[str, str, str]  # (kind, op, from-role)


@dataclass
class ExtRequest:
    """A blocking request the driver must answer (function call or
    adaptation lookup)."""

    tid: int
    kind: str  # "call" | "match"
    payload: Any


@dataclass(slots=True)
class StepOutcome:
    outbound: list[Message] = field(default_factory=list)
    ext: Optional[ExtRequest] = None
    # (tid, verb, *details); the simulator renders it as its trace line
    event: tuple = ()


class _Task:
    __slots__ = ("tid", "gen", "state", "resume_value", "resume_error",
                 "wait_key", "join_remaining", "parent")

    def __init__(self, tid: int, gen: Iterator):
        self.tid = tid
        self.gen = gen
        self.state = READY
        self.resume_value: Any = None
        self.resume_error: str | None = None
        self.wait_key: MailKey | None = None
        self.join_remaining = 0  # children this task's join still waits for
        self.parent: int | None = None


class RoleExecutor:
    """One role's state: variable store, mailbox, tasks, sequence counters.

    Thread-agnostic; callers serialise access themselves (the simulator is
    single-threaded, the live driver wraps each executor in a lock).
    """

    def __init__(self, role: str, code: ProcessCode, *, starter: str,
                 roles: list[str], address: str | None = None,
                 locations: dict[str, str] | None = None,
                 includes: dict[str, tuple[str, str | None]] | None = None):
        self.role = role
        self.code = code
        self.starter = starter
        self.roles = list(roles)
        self.address = address
        self.locations = dict(locations or {})
        self.includes = dict(includes or {})
        self.variables: dict[str, Value] = {}
        self.failure: str | None = None
        # live tasks in tid order; a task is dropped when it ends
        self._tasks: dict[int, _Task] = {}
        # tids of the READY tasks, ascending; kept as states change
        self._ready: list[int] = []
        self._next_tid = 0
        self._queues: dict[MailKey, deque[Message]] = {}
        self._waiters: dict[MailKey, deque[int]] = {}
        self._seq: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._add_task(self._main())

    def _add_task(self, gen: Iterator, parent: int | None = None) -> int:
        tid = self._next_tid
        self._next_tid += 1
        task = _Task(tid, gen)
        task.parent = parent
        self._tasks[tid] = task
        self._ready.append(tid)  # tids only grow, so this stays sorted
        return tid

    def ready_tids(self) -> list[int]:
        """The ready tids, ascending: the executor's own list, which the
        next state change updates in place."""
        return self._ready

    def _wake(self, task: _Task) -> None:
        task.state = READY
        bisect.insort(self._ready, task.tid)

    def _unready(self, tid: int) -> None:
        ready = self._ready
        del ready[bisect.bisect_left(ready, tid)]

    def finished(self) -> bool:
        return not self._tasks

    def waiting_keys(self) -> list[MailKey]:
        return [t.wait_key for t in self._tasks.values()
                if t.state == WAIT_RECV and t.wait_key]

    def pending_by_key(self) -> dict[MailKey, int]:
        return {k: len(q) for k, q in self._queues.items() if q}

    def snapshot(self) -> dict[str, Value]:
        return dict(self.variables)

    # -- message intake ----------------------------------------------------

    def deliver(self, msg: Message) -> None:
        key: MailKey = (msg.kind, msg.op, msg.frm)
        waiters = self._waiters.get(key)
        if waiters:
            task = self._tasks[waiters.popleft()]
            task.resume_value = msg
            task.wait_key = None
            self._wake(task)
        else:
            self._queues.setdefault(key, deque()).append(msg)

    # -- external completions ----------------------------------------------

    def settle_ext(self, tid: int, value: Any, error: str | None = None) -> None:
        """Resume a task waiting on a request: with ``value``, or, when
        ``error`` is set, by raising it as a :class:`RoleError`."""
        task = self._tasks[tid]
        if task.state != WAIT_EXT:
            raise RuntimeError(f"task {tid} is not waiting on a request")
        task.resume_value = value
        task.resume_error = error
        self._wake(task)

    # -- stepping ------------------------------------------------------------

    def step(self, tid: int) -> StepOutcome:
        """Advance one task by one yield; returns what the driver must do."""
        task = self._tasks[tid]
        if task.state != READY:
            raise RuntimeError(f"task {tid} is not ready ({task.state})")
        out = StepOutcome()
        value, task.resume_value = task.resume_value, None
        try:
            if task.resume_error is not None:
                err, task.resume_error = task.resume_error, None
                effect = task.gen.throw(RoleError(err, self.role))
            else:
                effect = task.gen.send(value)
        except StopIteration:
            out.event = (tid, "end")
            self._on_task_done(task)
            return out
        except RoleError as exc:
            task.state = FAILED
            self.failure = str(exc)
            out.event = (tid, "fail")
        except Exception as exc:  # defensive: a bug must not hang the app
            task.state = FAILED
            self.failure = f"{type(exc).__name__}: {exc}"
            out.event = (tid, "fail")
        else:
            verb = effect[0]
            if verb == "send":
                msg: Message = effect[1]
                out.outbound.append(msg)
                out.event = (tid, "send", msg.kind, msg.op, msg.to, msg.seq)
            elif verb == "recv":
                _, kind, op, frm = effect
                key: MailKey = (kind, op, frm)
                queue = self._queues.get(key)
                if queue:
                    task.resume_value = queue.popleft()
                    if not queue:
                        del self._queues[key]
                else:
                    task.state = WAIT_RECV
                    task.wait_key = key
                    self._waiters.setdefault(key, deque()).append(tid)
                out.event = (tid, "recv", kind, op, frm)
            elif verb == "spawn":
                gens = effect[1]
                tids = [self._add_task(g, parent=tid) for g in gens]
                task.resume_value = tids
                out.event = (tid, "spawn", len(tids))
            elif verb == "join":
                # the children of this task's last spawn; finished ones are gone
                remaining = sum(c in self._tasks for c in effect[1])
                if remaining:
                    task.state = WAIT_JOIN
                    task.join_remaining = remaining
                out.event = (tid, "join")
            elif verb == "local":
                out.event = (tid, "local", effect[1], effect[2])
            elif verb in ("call", "match"):
                task.state = WAIT_EXT
                out.ext = ExtRequest(tid=tid, kind=verb, payload=effect[1:])
                detail = effect[1] if verb == "call" else effect[1].get("scope", "")
                out.event = (tid, verb, detail)
            else:
                task.state = FAILED
                self.failure = f"unknown effect {verb!r}"
                out.event = (tid, "fail")
        if task.state != READY:  # it waits or failed
            self._unready(tid)
        return out

    def _on_task_done(self, task: _Task) -> None:
        """Reclaim ``task`` and wake its parent if this was the last child
        the parent's join waits for."""
        del self._tasks[task.tid]
        self._unready(task.tid)
        parent = self._tasks.get(task.parent)
        if parent is not None and parent.state == WAIT_JOIN:
            parent.join_remaining -= 1
            if not parent.join_remaining:
                self._wake(parent)

    # -- message construction ----------------------------------------------

    def _mk(self, kind: str, op: str, to: str, data: Any) -> Message:
        seq = self._seq.get(kind, 0) + 1
        self._seq[kind] = seq
        return Message(kind=kind, op=op, frm=self.role, to=to, data=data, seq=seq)

    # -- generator helpers ---------------------------------------------------

    def _eval(self, e: Expr):
        """Evaluate with any embedded calls resolved through yields, in
        :func:`find_calls` order."""
        calls = find_calls(e)
        if not calls:
            return eval_expr(e, self.variables)
        resolved: dict[int, Value] = {}
        for c in calls:
            args = [eval_expr(a, self.variables, resolved) for a in c.args]
            value = yield ("call", c.function, args)
            resolved[id(c)] = value
        return eval_expr(e, self.variables, resolved)

    def _send_user(self, op: str, to: str, value: Any):
        msg = self._mk(KIND_MSG, op, to, value)
        yield ("send", msg)
        ack = yield ("recv", KIND_ACK, op, to)
        if ack.data != msg.seq:
            raise RoleError(
                f"acknowledgement for '{op}' out of order "
                f"(sent {msg.seq}, acked {ack.data})",
                self.role,
            )

    def _recv_user(self, op: str, frm: str):
        msg = yield ("recv", KIND_MSG, op, frm)
        yield ("send", self._mk(KIND_ACK, op, frm, msg.seq))
        return msg.data

    def _eval_guard(self, e: Expr):
        value = yield from self._eval(e)
        if not isinstance(value, bool):
            raise RoleError(f"condition must be a boolean, got {render(value)!r}",
                            self.role)
        return value

    # -- the interpreter -----------------------------------------------------

    def _main(self):
        yield from self._barrier()
        yield from self._run(self.code)

    def _barrier(self):
        """Readiness barrier doubling as address distribution."""
        others = sorted(r for r in self.roles if r != self.starter)
        if self.role == self.starter:
            if self.address:
                self.locations.setdefault(self.role, self.address)
            for peer in others:
                msg = yield ("recv", KIND_READY, BARRIER_OP, peer)
                if isinstance(msg.data, str) and msg.data:
                    self.locations[peer] = msg.data
            for peer in others:
                yield ("send", self._mk(KIND_START, BARRIER_OP, peer,
                                        dict(self.locations)))
        else:
            yield ("send", self._mk(KIND_READY, BARRIER_OP, self.starter,
                                    self.address))
            msg = yield ("recv", KIND_START, BARRIER_OP, self.starter)
            if isinstance(msg.data, dict):
                self.locations.update(msg.data)

    def _run(self, p: ProcessCode):
        if isinstance(p, Nop):
            return
        if isinstance(p, LocalAssign):
            value = yield from self._eval(p.expr)
            self.variables[p.var] = value
            yield ("local", "assign", p.var)
            return
        if isinstance(p, SendTo):
            value = yield from self._eval(p.expr)
            yield from self._send_user(p.op, p.peer, value)
            return
        if isinstance(p, RecvFrom):
            data = yield from self._recv_user(p.op, p.peer)
            self.variables[p.var] = data
            return
        if isinstance(p, SeqP):
            for item in p.items:
                yield from self._run(item)
            return
        if isinstance(p, ParP):
            tids = yield ("spawn", [self._run(item) for item in p.items])
            yield ("join", tids)
            return
        if isinstance(p, IfLocal):
            value = yield from self._eval_guard(p.guard)
            for peer in p.involved:
                yield from self._send_user(p.guard_op, peer, value)
            yield from self._run(p.then_p if value else p.else_p)
            return
        if isinstance(p, IfFollow):
            value = yield from self._recv_user(p.guard_op, p.evaluator)
            if not isinstance(value, bool):
                raise RoleError("condition arrived as a non-boolean", self.role)
            yield from self._run(p.then_p if value else p.else_p)
            return
        if isinstance(p, WhileLocal):
            while True:
                value = yield from self._eval_guard(p.guard)
                for peer in p.involved:
                    yield from self._send_user(p.guard_op, peer, value)
                if not value:
                    return
                yield from self._run(p.body)
                for peer in p.involved:
                    yield from self._recv_user(p.ack_op, peer)
            return
        if isinstance(p, WhileFollow):
            while True:
                value = yield from self._recv_user(p.guard_op, p.evaluator)
                if not isinstance(value, bool):
                    raise RoleError("condition arrived as a non-boolean", self.role)
                if not value:
                    return
                yield from self._run(p.body)
                yield from self._send_user(p.ack_op, p.evaluator, True)
            return
        if isinstance(p, ScopeCoord):
            yield from self._run_scope_coord(p)
            return
        if isinstance(p, ScopeFollow):
            yield from self._run_scope_follow(p)
            return
        raise RoleError(f"cannot execute {type(p).__name__}", self.role)

    def _run_scope_coord(self, p: ScopeCoord):
        request = {
            "scope": str(p.scope_id),
            "coordinator": self.role,
            "involved": list(p.involved),
            "props": dict(p.props),
            "vars": self.snapshot(),
        }
        response = yield ("match", request)
        matched = bool(response.get("matched"))
        code = response.get("code") or {}
        includes = response.get("includes", [])
        for peer in p.involved:
            directive = ({"adapt": True, "code": code.get(peer), "includes": includes,
                          "rule": response.get("rule")} if matched else {"adapt": False})
            yield ("send", self._mk(KIND_DIRECTIVE, p.directive_op, peer, directive))
        if matched:
            self._absorb_includes(includes)
            yield from self._run(self._replacement_share(code.get(self.role), p.scope_id))
        else:
            yield from self._run(p.default_p)
        for peer in p.involved:
            yield ("recv", KIND_DONE, p.done_op, peer)

    def _run_scope_follow(self, p: ScopeFollow):
        msg = yield ("recv", KIND_DIRECTIVE, p.directive_op, p.coordinator)
        directive = msg.data if isinstance(msg.data, dict) else {}
        if directive.get("adapt"):
            self._absorb_includes(directive.get("includes", []))
            yield from self._run(self._replacement_share(directive.get("code"), p.scope_id))
        else:
            yield from self._run(p.default_p)
        yield ("send", self._mk(KIND_DONE, p.done_op, p.coordinator, True))

    def _replacement_share(self, data: Any, scope_id: NodeId) -> ProcessCode:
        """This role's share of a replacement: its code as the rule server
        compiled it (None for a role the body does not mention), re-rooted
        at the scope it replaces."""
        if data is None:
            return Nop()
        try:
            code = proc_from_data(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise RoleError(f"replacement code is malformed: {exc!r}", self.role) from exc
        return reroot_proc(code, scope_id.path)

    def _absorb_includes(self, entries) -> None:
        for entry in entries or ():
            try:
                fn, addr, proto = entry[0], entry[1], entry[2] if len(entry) > 2 else None
            except (TypeError, IndexError):
                continue
            self.includes[fn] = (addr, proto)
