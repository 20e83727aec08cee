"""Role runtime: expression evaluation and the per-role execution engine.

A role's projected code runs as tasks whose continuations are plain data:
a stack of frames, each a code node, a position in it and the values a
call stack would hold (see ``_Task``).  A step runs one task to its next
effect, which the surrounding driver must service:

    ("send", msg)              -> None      queue an outbound message
    ("recv", kind, op, frm)    -> Message   block until a matching message
    ("spawn", [code, ...])     -> [tid]     start parallel branches
    ("join", [tid, ...])       -> None      block until the last spawn's branches finish
    ("local", verb, detail)    -> None      bookkeeping step (assignments)
    ("call", fn, [val, ...])   -> Value     external function / input request
    ("match", request)         -> dict      adaptation lookup for a scope

The right-hand side is what the task resumes with at its next step.  Since
nothing of a task lives in the interpreter's own frames, an executor can
be copied (:meth:`RoleExecutor.fork`).

Every expression a task evaluates, an assignment's right-hand side
included, issues the calls in it as ``call`` effects, innermost first and
left to right; a call's arguments are read when it is issued, after the
calls nested in its arguments have returned.  The calls of an expression
are found once per code node, at its first evaluation, and kept on the
node (its ``calls``), so a loop's later iterations do not walk the
expression again.

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

* a role numbers its messages from 1 per channel ``(kind, op, to)``, and
  a channel's messages all reach one mailbox key of ``to``;
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
  participant re-roots its share at the scope's node id, so the runtime
  never parses or projects.  Within a process the code stays compiled
  objects; only a share that arrived over a socket is wire data, and only
  that is decoded;
* before any of that, every non-starting role reports ready to the starter
  and waits for the go signal carrying the full role/address map.
"""

from __future__ import annotations

import bisect
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from .ast import (
    Binary,
    Call,
    Expr,
    Lit,
    NodeId,
    Unary,
    Value,
    Var,
    find_calls,  # noqa: F401 (part of this module's interface)
)
from .project import (
    INPUT_FUNCTION,  # noqa: F401 (part of this module's interface)
    KIND_ACK,
    KIND_DIRECTIVE,
    KIND_DONE,
    KIND_MSG,
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

#: How many re-rooted replacements an executor keeps before it starts over.
_REROOT_MEMO_SIZE = 64


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

# Role-to-role kinds: those projected code sends (KIND_MSG, KIND_ACK,
# KIND_DIRECTIVE, KIND_DONE) come from projection, and the barrier's are
# here; middleware conversations use their own kinds and are classified
# wholesale below.
KIND_READY = "ready"
KIND_START = "start"


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """One message between roles, or between a role and the middleware.

    Immutable by convention: nothing sets a field of a message once it is
    made, so forked executors and worlds share their queued messages
    instead of copying them.  Not frozen, since most steps build one and a
    frozen dataclass sets each field through ``object.__setattr__``.
    """

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
    """One task: its continuation as a stack of frames, the top one last,
    and what it waits on.

    A frame is a list ``[node, pc, value, k]``: the code node it runs, its
    position in that node, and the locals a generator frame would hold (a
    guard value, a match reply, the index of the next peer).  The helper
    frames the nodes push are named by a string instead of a node: ``_EVAL``
    (an expression whose calls are under way, with the replies so far),
    ``_SEND`` (a sent message awaiting the ack that must echo its ``seq``),
    ``_RECV`` (a receive and its ack) and the two halves of the readiness
    barrier.  Replies and messages are never changed once made, so
    :meth:`copy` copies the frames one level deep.
    """

    __slots__ = ("tid", "frames", "state", "resume_value", "resume_error",
                 "wait_key", "join_remaining", "parent")

    def __init__(self, tid: int, frames: list[list], parent: int | None = None):
        self.tid = tid
        self.frames = frames
        self.state = READY
        self.resume_value: Any = None
        self.resume_error: str | None = None
        self.wait_key: MailKey | None = None
        self.join_remaining = 0  # children this task's join still waits for
        self.parent = parent

    def copy(self) -> "_Task":
        t = _Task(self.tid, [f.copy() for f in self.frames], self.parent)
        t.state, t.resume_value, t.resume_error = self.state, self.resume_value, self.resume_error
        t.wait_key, t.join_remaining = self.wait_key, self.join_remaining
        return t


# Helper frame names (see _Task)
_EVAL = "eval"
_SEND = "send"
_RECV = "recv"
_LEAD = "lead"      # the starter's half of the barrier
_FOLLOW = "follow"  # every other role's half


class RoleExecutor:
    """One role's state: variable store, mailbox, tasks, sequence counters.

    Thread-agnostic; callers serialise access themselves (the simulator is
    single-threaded, the live driver wraps each executor in a lock).  All of
    it is plain data, so :meth:`fork` copies it.
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
        self._seq: dict[tuple[str, str, str], int] = {}  # (kind, op, to) -> last seq
        # (id(code), scope path) -> (code, code re-rooted there); forks share it
        self._reroots: dict[tuple[int, tuple[int, ...]], tuple[ProcessCode, ProcessCode]] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the main task: the readiness barrier, then the role's code."""
        if self.role == self.starter:
            others = sorted(r for r in self.roles if r != self.starter)
            barrier = [_LEAD, 0, others, 0]
        else:
            barrier = [_FOLLOW, 0, None, 0]
        self._add_task([[self.code, 0, None, 0], barrier])

    def fork(self) -> "RoleExecutor":
        """A copy that shares no mutable state with this executor."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.roles = list(self.roles)
        new.locations = dict(self.locations)
        new.includes = dict(self.includes)
        new.variables = dict(self.variables)
        new._tasks = {tid: t.copy() for tid, t in self._tasks.items()}
        new._ready = list(self._ready)
        new._queues = {k: deque(q) for k, q in self._queues.items()}
        new._waiters = {k: deque(q) for k, q in self._waiters.items()}
        new._seq = dict(self._seq)
        return new

    def _add_task(self, frames: list[list], parent: int | None = None) -> int:
        tid = self._next_tid
        self._next_tid += 1
        self._tasks[tid] = _Task(tid, frames, parent)
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
        ``error`` is set, by failing it with a :class:`RoleError`."""
        task = self._tasks[tid]
        if task.state != WAIT_EXT:
            raise RuntimeError(f"task {tid} is not waiting on a request")
        task.resume_value = value
        task.resume_error = error
        self._wake(task)

    # -- stepping ------------------------------------------------------------

    def step(self, tid: int) -> StepOutcome:
        """Advance one task to its next effect; returns what the driver must do."""
        task = self._tasks[tid]
        if task.state != READY:
            raise RuntimeError(f"task {tid} is not ready ({task.state})")
        out = StepOutcome()
        value, task.resume_value = task.resume_value, None
        try:
            if task.resume_error is not None:
                err, task.resume_error = task.resume_error, None
                raise RoleError(err, self.role)
            effect = self._run(task.frames, value)
        except RoleError as exc:
            task.state = FAILED
            self.failure = str(exc)
            out.event = (tid, "fail")
        except Exception as exc:  # defensive: a bug must not hang the app
            task.state = FAILED
            self.failure = f"{type(exc).__name__}: {exc}"
            out.event = (tid, "fail")
        else:
            if effect is None:
                out.event = (tid, "end")
                self._on_task_done(task)
                return out
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
                tids = [self._add_task([[item, 0, None, 0]], parent=tid) for item in effect[1]]
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
            else:  # "call" or "match"
                task.state = WAIT_EXT
                out.ext = ExtRequest(tid=tid, kind=verb, payload=effect[1:])
                detail = effect[1] if verb == "call" else effect[1].get("scope", "")
                out.event = (tid, verb, detail)
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
        key = (kind, op, to)
        seq = self._seq[key] = self._seq.get(key, 0) + 1
        return Message(kind, op, self.role, to, data, seq)

    # -- the interpreter -----------------------------------------------------

    def _run(self, frames: list[list], value: Any) -> tuple | None:
        """Run the frames to their next effect and return it, or None once
        they are all done.  ``value`` is what the top frame resumes with:
        the reply to the effect it returned last, or what the frame above
        it returned.  One case per frame kind; within a case, ``pc`` says
        where the frame stands."""
        variables = self.variables
        while frames:
            f = frames[-1]
            p, pc = f[0], f[1]
            cls = type(p)
            if cls is str:
                if p is _SEND:  # [_SEND, pc, op, peer, seq]: sent, the ack to come
                    if pc == 1:
                        f[1] = 2
                        return ("recv", KIND_ACK, f[2], f[3])
                    frames.pop()
                    if value.data != f[4]:
                        raise RoleError(
                            f"acknowledgement for '{f[2]}' out of order "
                            f"(sent {f[4]}, acked {value.data})", self.role)
                    value = None
                elif p is _RECV:  # [_RECV, pc, op, peer, variable or None, data]
                    if pc == 1:  # the message came
                        f[1], f[5] = 2, value.data
                        return ("send", self._mk(KIND_ACK, f[2], f[3], value.seq))
                    frames.pop()
                    value = f[5]
                    if f[4] is not None:
                        variables[f[4]] = value
                elif p is _EVAL:  # [_EVAL, pc, expr, its calls, the replies so far]
                    calls = f[3]
                    if pc:
                        f[4] += (value,)
                    resolved = dict(zip(map(id, calls), f[4]))
                    if len(f[4]) < len(calls):
                        c = calls[len(f[4])]
                        f[1] = 1
                        return ("call", c.function,
                                [eval_expr(a, variables, resolved) for a in c.args])
                    frames.pop()
                    value = eval_expr(f[2], variables, resolved)
                elif p is _LEAD:  # [_LEAD, pc, other roles, k]
                    # pc 0: note the own address; 1: wait for the next peer's
                    # READY (k); 2: it came; 3: send the next peer START
                    others, k = f[2], f[3]
                    if pc == 0:
                        if self.address:
                            self.locations.setdefault(self.role, self.address)
                        pc = 1
                    elif pc == 2:
                        if isinstance(value.data, str) and value.data:
                            self.locations[others[k]] = value.data
                        pc, k = 1, k + 1
                    if pc == 1:
                        if k < len(others):
                            f[1], f[3] = 2, k
                            return ("recv", KIND_READY, BARRIER_OP, others[k])
                        f[1] = 3
                        k = 0
                    if k < len(others):
                        f[3] = k + 1
                        return ("send", self._mk(KIND_START, BARRIER_OP, others[k],
                                                 dict(self.locations)))
                    frames.pop()
                elif p is _FOLLOW:
                    if pc == 0:
                        f[1] = 1
                        return ("send", self._mk(KIND_READY, BARRIER_OP, self.starter,
                                                 self.address))
                    if pc == 1:
                        f[1] = 2
                        return ("recv", KIND_START, BARRIER_OP, self.starter)
                    frames.pop()
                    if isinstance(value.data, dict):
                        self.locations.update(value.data)
                else:
                    raise RoleError(f"cannot execute a {p!r} frame", self.role)
                continue
            if cls is SeqP:
                items = p.items
                if pc < len(items) - 1:
                    f[1] = pc + 1
                    frames.append([items[pc], 0, None, 0])
                elif items:  # the last item takes the sequence's place
                    frames[-1] = [items[-1], 0, None, 0]
                else:
                    frames.pop()
                continue
            if cls is LocalAssign or cls is SendTo:
                if pc == 0:
                    calls = p.calls
                    if calls:
                        f[1] = 1
                        frames.append([_EVAL, 0, p.expr, calls, ()])
                        continue
                    value = eval_expr(p.expr, variables)
                if cls is SendTo:
                    msg = self._mk(KIND_MSG, p.op, p.peer, value)
                    frames[-1] = [_SEND, 1, p.op, p.peer, msg.seq]
                    return ("send", msg)
                variables[p.var] = value
                frames.pop()
                return ("local", "assign", p.var)
            if cls is RecvFrom:
                frames[-1] = [_RECV, 1, p.op, p.peer, p.var, None]
                return ("recv", KIND_MSG, p.op, p.peer)
            if cls is IfLocal or cls is WhileLocal:
                # pc 0: evaluate the guard; 1: check it; 2: send it to the next
                # peer (k); 3: the body is done; 4: take the next peer's ack
                if pc == 0:
                    calls = p.calls
                    if calls:
                        f[1] = 1
                        frames.append([_EVAL, 0, p.guard, calls, ()])
                        continue
                    value = eval_expr(p.guard, variables)
                    pc = 1
                if pc == 1:
                    if not isinstance(value, bool):
                        raise RoleError(
                            f"condition must be a boolean, got {render(value)!r}", self.role)
                    f[1], f[2], f[3] = 2, value, 0
                    pc = 2
                involved, k = p.involved, f[3]
                if pc == 2:
                    if k < len(involved):
                        f[3] = k + 1
                        msg = self._mk(KIND_MSG, p.guard_op, involved[k], f[2])
                        frames.append([_SEND, 1, p.guard_op, involved[k], msg.seq])
                        return ("send", msg)
                    if cls is IfLocal:
                        frames[-1] = [p.then_p if f[2] else p.else_p, 0, None, 0]
                    elif f[2]:
                        f[1] = 3
                        frames.append([p.body, 0, None, 0])
                    else:
                        frames.pop()
                    continue
                if pc == 3:
                    f[1], f[3] = 4, 0
                    k = 0
                if k < len(involved):
                    f[3] = k + 1
                    frames.append([_RECV, 1, p.ack_op, involved[k], None, None])
                    return ("recv", KIND_MSG, p.ack_op, involved[k])
                f[1] = 0
                continue
            if cls is IfFollow or cls is WhileFollow:
                # pc 0: receive the guard; 1: check it; 2: the body is done
                if pc == 0:
                    f[1] = 1
                    frames.append([_RECV, 1, p.guard_op, p.evaluator, None, None])
                    return ("recv", KIND_MSG, p.guard_op, p.evaluator)
                if pc == 1:
                    if not isinstance(value, bool):
                        raise RoleError("condition arrived as a non-boolean", self.role)
                    if cls is IfFollow:
                        frames[-1] = [p.then_p if value else p.else_p, 0, None, 0]
                    elif value:
                        f[1] = 2
                        frames.append([p.body, 0, None, 0])
                    else:
                        frames.pop()
                    continue
                f[1] = 0
                msg = self._mk(KIND_MSG, p.ack_op, p.evaluator, True)
                frames.append([_SEND, 1, p.ack_op, p.evaluator, msg.seq])
                return ("send", msg)
            if cls is ScopeCoord:
                # pc 0: ask for a match; 1: the reply; 2: direct the next
                # peer (k); 3: the share is done; 4: take the next peer's notice
                involved, k = p.involved, f[3]
                if pc == 0:
                    f[1] = 1
                    return ("match", {
                        "scope": str(p.scope_id),
                        "coordinator": self.role,
                        "involved": list(involved),
                        "props": dict(p.props),
                        "vars": self.snapshot(),
                    })
                if pc == 1:
                    f[1], f[2], f[3] = 2, value, 0
                    pc, k = 2, 0
                if pc == 2:
                    response = f[2]
                    matched = bool(response.get("matched"))
                    code = response.get("code") or {}
                    includes = response.get("includes", [])
                    if k < len(involved):
                        f[3] = k + 1
                        directive = ({"adapt": True, "code": code.get(involved[k]),
                                      "includes": includes, "rule": response.get("rule")}
                                     if matched else {"adapt": False})
                        return ("send", self._mk(KIND_DIRECTIVE, p.directive_op,
                                                 involved[k], directive))
                    f[1], f[2] = 3, None  # the reply is spent
                    if matched:
                        self._absorb_includes(includes)
                        share = self._replacement_share(code.get(self.role), p.scope_id)
                    else:
                        share = p.default_p
                    frames.append([share, 0, None, 0])
                    continue
                if pc == 3:
                    f[1], f[3] = 4, 0
                    k = 0
                if k < len(involved):
                    f[3] = k + 1
                    return ("recv", KIND_DONE, p.done_op, involved[k])
                frames.pop()
                continue
            if cls is ScopeFollow:
                # pc 0: receive the directive; 1: run it; 2: the share is done
                if pc == 0:
                    f[1] = 1
                    return ("recv", KIND_DIRECTIVE, p.directive_op, p.coordinator)
                if pc == 1:
                    f[1] = 2
                    directive = value.data if isinstance(value.data, dict) else {}
                    if directive.get("adapt"):
                        self._absorb_includes(directive.get("includes", []))
                        share = self._replacement_share(directive.get("code"), p.scope_id)
                    else:
                        share = p.default_p
                    frames.append([share, 0, None, 0])
                    continue
                frames.pop()
                return ("send", self._mk(KIND_DONE, p.done_op, p.coordinator, True))
            if cls is ParP:
                # pc 0: spawn a task per branch; 1: join them; 2: all done
                if pc == 0:
                    f[1] = 1
                    return ("spawn", p.items)
                if pc == 1:
                    f[1] = 2
                    return ("join", value)
                frames.pop()
                continue
            if cls is Nop:
                frames.pop()
                continue
            raise RoleError(f"cannot execute {cls.__name__}", self.role)
        return None

    def _replacement_share(self, code: Any, scope_id: NodeId) -> ProcessCode:
        """This role's share of a replacement: its code as the rule server
        compiled it (None for a role the body does not mention), re-rooted
        at the scope it replaces.  Code that came over a socket is wire
        data and is decoded here.  The server's code objects are re-rooted
        once per scope path and kept in a memo that starts over when it
        holds ``_REROOT_MEMO_SIZE`` entries."""
        if code is None:
            return Nop()
        if not isinstance(code, ProcessCode):
            try:
                code = proc_from_data(code)
            except (KeyError, TypeError, ValueError) as exc:
                raise RoleError(f"replacement code is malformed: {exc!r}", self.role) from exc
            return reroot_proc(code, scope_id.path)
        key = id(code), scope_id.path
        hit = self._reroots.get(key)
        if hit is not None and hit[0] is code:
            return hit[1]
        share = reroot_proc(code, scope_id.path)
        if len(self._reroots) >= _REROOT_MEMO_SIZE:
            self._reroots.clear()
        self._reroots[key] = code, share
        return share

    def _absorb_includes(self, entries) -> None:
        for entry in entries or ():
            try:
                fn, addr, proto = entry[0], entry[1], entry[2] if len(entry) > 2 else None
            except (TypeError, IndexError):
                continue
            self.includes[fn] = (addr, proto)
