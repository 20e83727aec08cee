"""Deterministic simulation of a projected application.

One process hosts every role executor; a seeded scheduler picks which ready
task advances next, so a (program, config, seed) triple always produces the
identical run — same trace hash, same final stores, same message tallies.
The pick is ``randrange(count)`` over the ``count`` ready tasks, numbered
by role in the program's role order, then by tid within a role; each
executor keeps its ready tids, so a step costs the same however many tasks
are live.
Function calls and adaptation lookups go to the same
:class:`~chorad.services.Router` the live driver uses, given no transport:
they are answered in the step that issues them, from in-process tables and
managers only, which keeps them inside the deterministic order.

Besides single seeded runs, :func:`explore` searches every schedule of a
small application, depth first, with state matching and a partial-order
reduction; its docstring says how and why.  A world is plain data, its
service tables and adaptation manager included, so the search copies it
at each decision (:meth:`_World.fork`): no run re-executes a step another
run took, and each factory of the config runs once per search.

The simulator reports, never judges: callers decide whether a deadlock is a
bug or the expected outcome of a negative test.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

from .adapt import AdaptationManager
from .ast import Value, _Node
from .parser import ParseError
from .project import (EMPTY, INPUT, SERVICES, STORE, TIDS, Footprint, ParP, ProcessCode,
                      ProjectedApp, ScopeCoord, ScopeFollow, SeqP, Target, _as_app,
                      expr_footprint, received, sent, union)
from .runtime import (_EVAL, _LEAD, _RECV, _SEND, BARRIER_OP, INPUT_FUNCTION,
                      KIND_ACK, KIND_DONE, KIND_MSG, KIND_READY, KIND_START, READY,
                      WAIT_JOIN, WAIT_RECV, Message, RoleExecutor, StepOutcome, _Task,
                      classify_message)
from .services import FunctionTable, Router

log = logging.getLogger("chorad.sim")

TERMINATED = "terminated"
DEADLOCK = "deadlock"
STEP_LIMIT = "stepLimit"
ERROR = "error"


@dataclass(frozen=True)
class TimelineEvent:
    """Something the outside world does while the run is in flight.

    Fires immediately before the scheduler picks the task for step
    ``at_step`` (0-based count of completed steps).
    """

    at_step: int
    kind: str  # "publish" | "env"
    server: str = "s0"
    source: str = ""
    key: str = ""
    value: Value = 0


@dataclass
class SimConfig:
    seed: int = 0
    max_steps: int = 500_000
    inputs: dict[str, list[Value]] = field(default_factory=dict)
    services_factory: Callable[[], dict[str, FunctionTable]] | None = None
    manager_factory: Callable[[], AdaptationManager] | None = None
    timeline: list[TimelineEvent] = field(default_factory=list)
    collect_trace: bool = False
    hash_trace: bool = True  # exploration turns this off; it only needs outcomes


@dataclass
class SimReport:
    outcome: str
    steps: int
    final_states: dict[str, dict[str, Value]]
    message_counts: dict[str, int]
    trace_hash: str
    trace: list[str] | None
    applied_rules: list[tuple[str, str]]
    op_ledger: dict[str, dict[str, int]]
    leaks: list[str]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == TERMINATED and not self.leaks


class _World:
    """One run's mutable state, all of which :meth:`fork` copies.  Given a
    ``router``, it forks that router's tables and manager, calling no factory."""

    def __init__(self, app: ProjectedApp, config: SimConfig, router: Router | None = None):
        self.app = app
        self.config = config
        self.executors: dict[str, RoleExecutor] = {}
        roles = app.roles
        for role in roles:
            ex = RoleExecutor(role, app.per_role[role], starter=app.starter,
                              roles=roles, address=role,
                              includes=app.includes)
            ex.start()
            self.executors[role] = ex
        self.counts: Counter[str] = Counter()
        # each message category by (kind, op); forks share it
        self._categories: dict[tuple[str, str], str] = {}
        self.router = router.fork(self.counts) if router else Router(
            services=config.services_factory() if config.services_factory else None,
            manager=config.manager_factory() if config.manager_factory else None,
            inputs=config.inputs, counts=self.counts)
        self.applied_rules: list[tuple[str, str]] = []
        self.timeline = tuple(sorted(config.timeline, key=lambda e: e.at_step))
        self._timeline_pos = 0
        self.steps = 0
        self.op_ledger: dict[str, dict[str, int]] = {}
        self.trace: list[str] | None = [] if config.collect_trace else None
        self._hashing = config.hash_trace or config.collect_trace
        self._hash = hashlib.sha256()
        self.failure: str | None = None

    def fork(self) -> "_World":
        """A copy of this world that runs on alone: the two share no mutable
        state.  Executors, tallies and router positions are plain data and
        are copied, and the router forks the service tables and the
        manager, so the copy calls no factory and replays nothing."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.executors = {r: ex.fork() for r, ex in self.executors.items()}
        new.counts = Counter(self.counts)
        new.router = self.router.fork(new.counts)
        new.applied_rules = list(self.applied_rules)
        new.op_ledger = {op: dict(entry) for op, entry in self.op_ledger.items()}
        new.trace = None if self.trace is None else list(self.trace)
        new._hash = self._hash.copy()
        return new

    # -- bookkeeping ---------------------------------------------------------

    def _note(self, *fields: object) -> None:
        """Hash a trace line; only called with ``_hashing`` on."""
        line = ":".join(map(str, fields))
        self._hash.update(f"{line}\n".encode())
        if self.trace is not None:
            self.trace.append(line)

    def _count_message(self, msg: Message) -> None:
        key = (msg.kind, msg.op)
        category = self._categories.get(key)
        if category is None:
            category = self._categories[key] = classify_message(msg)
        self.counts[category] += 1
        if msg.kind == KIND_MSG:
            entry = self.op_ledger.setdefault(msg.op, {"sent": 0, "acked": 0})
            entry["sent"] += 1
        elif msg.kind == KIND_ACK:
            entry = self.op_ledger.setdefault(msg.op, {"sent": 0, "acked": 0})
            entry["acked"] += 1

    # -- timeline ------------------------------------------------------------

    def fire_due_events(self) -> None:
        manager = self.router.manager
        while (self._timeline_pos < len(self.timeline)
               and self.timeline[self._timeline_pos].at_step <= self.steps):
            ev = self.timeline[self._timeline_pos]
            self._timeline_pos += 1
            if ev.kind == "env":
                if manager is not None:
                    manager.env.set(ev.key, ev.value)
                fields: tuple = ("@env", f"{ev.key}={ev.value!r}")
            elif ev.kind != "publish":
                raise ValueError(f"unknown timeline event kind {ev.kind!r}")
            elif manager is None:
                log.warning("timeline publish ignored: no adaptation manager")
                continue
            else:
                handle = next((h for h in manager.servers() if h.server_id == ev.server), None)
                if handle is None:
                    raise ValueError(f"timeline publish: no server '{ev.server}' registered")
                try:
                    violations = handle.publish(ev.source)  # type: ignore[attr-defined]
                except ParseError as exc:
                    raise ValueError(f"timeline publish rejected: {exc}") from exc
                bad = [v for v in violations if v.severity == "error"]
                if bad:
                    raise ValueError(f"timeline publish rejected: {bad[0].message}")
                fields = ("@publish", ev.server)
            if self._hashing:
                self._note(*fields)

    # -- scheduling ----------------------------------------------------------

    def ready_entries(self) -> list[tuple[str, int]]:
        """Every ready task as ``(role, tid)``, in the scheduler's order."""
        return [(role, tid) for role in self.app.roles
                for tid in self.executors[role].ready_tids()]

    def advance(self, role: str, tid: int) -> StepOutcome:
        ex = self.executors[role]
        outcome = ex.step(tid)
        self.steps += 1
        if self._hashing:
            self._note(role, *outcome.event)
        for msg in outcome.outbound:
            self._count_message(msg)
            target = self.executors.get(msg.to)
            if target is None:
                self.failure = f"{role}: message addressed to unknown role '{msg.to}'"
                return outcome
            target.deliver(msg)
        ext = outcome.ext
        if ext is not None:
            reply, why = self.router.answer(ex, ext)
            if ext.kind == "match" and reply and reply.get("matched"):
                self.applied_rules.append((str(ext.payload[0].get("scope")), reply.get("rule")))
            ex.settle_ext(ext.tid, reply, why)
        if ex.failure and self.failure is None:
            self.failure = f"{role}: {ex.failure}"
        return outcome

    # -- verdicts ---------------------------------------------------------------

    def finish(self, outcome: str, error: str | None = None) -> SimReport:
        leaks: list[str] = []
        if outcome == TERMINATED:
            for role in self.app.roles:
                for key, n in sorted(self.executors[role].pending_by_key().items()):
                    leaks.append(f"{role}: {n} unconsumed {key[0]}/{key[1]} from {key[2]}")
            for op, entry in sorted(self.op_ledger.items()):
                if entry["sent"] != entry["acked"]:
                    leaks.append(
                        f"op '{op}': {entry['sent']} sent but {entry['acked']} acked")
        if outcome == DEADLOCK and error is None:
            stuck = []
            for role in self.app.roles:
                for key in self.executors[role].waiting_keys():
                    stuck.append(f"{role} waits on {key[0]}/{key[1]} from {key[2]}")
            error = "; ".join(stuck) or "no task is ready"
        return SimReport(
            outcome=outcome,
            steps=self.steps,
            final_states={r: self.executors[r].snapshot() for r in self.app.roles},
            message_counts=dict(self.counts),
            trace_hash=self._hash.hexdigest(),
            trace=self.trace,
            applied_rules=self.applied_rules,
            op_ledger=self.op_ledger,
            leaks=leaks,
            error=error,
        )


def _execute(world: _World, choose: Callable[[int], int]) -> SimReport:
    """Run ``world`` to completion; ``choose(count)`` picks the index of the
    next step among the ``count`` ready tasks in
    :meth:`_World.ready_entries` order."""
    app, max_steps = world.app, world.config.max_steps
    events = len(world.timeline)
    # each executor's own ready list, updated in place as the run goes
    ready = [(role, world.executors[role].ready_tids()) for role in app.roles]
    lists = [tids for _, tids in ready]
    while True:
        if world.failure:
            return world.finish(ERROR, world.failure)
        if world._timeline_pos < events:
            world.fire_due_events()
        count = sum(map(len, lists))
        if not count:
            if all(world.executors[r].finished() for r in app.roles):
                return world.finish(TERMINATED)
            return world.finish(DEADLOCK)
        if world.steps >= max_steps:
            return world.finish(STEP_LIMIT, "step budget exhausted")
        i = choose(count)
        for role, tids in ready:
            if i < len(tids):
                break
            i -= len(tids)
        world.advance(role, tids[i])


def simulate(target: Target, config: SimConfig | None = None) -> SimReport:
    """One seeded, reproducible run."""
    config = config or SimConfig()
    return _execute(_World(_as_app(target), config), _seeded_pick(config.seed))


def _seeded_pick(seed: int) -> Callable[[int], int]:
    """What ``random.Random(seed).randrange`` picks, call for call: the
    same rejection loop over ``getrandbits``, one Python frame a pick
    instead of two."""
    getrandbits = random.Random(seed).getrandbits

    def pick(count: int) -> int:
        k = count.bit_length()
        r = getrandbits(k)
        while r >= count:
            r = getrandbits(k)
        return r

    return pick


def _exact_with(key: Callable[[_Node], int] | None) -> Callable[[object], object]:
    """The function that turns a value into a hashable key keeping every
    distinction a step can see: ``true`` apart from ``1``, a list apart
    from a tuple, a dict's order and a message's every field.  Process
    code, which a match reply and a scope directive hold, is named by
    ``key`` (:meth:`_Codes.key`); without one it cannot be fingerprinted."""

    def exact(v: object) -> object:
        cls = type(v)
        if cls is str or cls is int or v is None:
            return v
        if cls is bool:
            return (bool, v)
        if cls is Message:
            return (Message, v.kind, v.op, v.frm, v.to, exact(v.data), v.seq)
        if cls is dict:
            return (dict, *[(k, exact(x)) for k, x in v.items()])
        if cls is list or cls is tuple:
            return (cls, *map(exact, v))
        if key is not None and isinstance(v, ProcessCode):
            return (ProcessCode, key(v))
        raise TypeError(f"cannot fingerprint a {cls.__name__}")

    return exact


_exact = _exact_with(None)


def _items(d: dict) -> tuple:
    """A dict no step reads in order, as its sorted exact items."""
    return tuple(sorted([(k, _exact(v)) for k, v in d.items()])) if d else ()


class _Codes:
    """A small int per code tree (process code or an expression), equal for
    equal trees and held for a whole exploration.  A node is looked up by
    identity; only a node not seen before is hashed by its structure, and
    every node looked up is kept, so no identity is reused."""

    def __init__(self) -> None:
        self._by_id: dict[int, int] = {}
        self._by_shape: dict[_Node, int] = {}
        self._held: list[_Node] = []
        self.exact = _exact_with(self.key)  # _exact, with code named by its key

    def key(self, node: _Node) -> int:
        k = self._by_id.get(id(node))
        if k is None:
            k = self._by_id[id(node)] = self._by_shape.setdefault(node, len(self._by_shape))
            self._held.append(node)
        return k


class _ReadLog(dict):
    """A copy of a role's store that notes each name a step reads and each
    name it writes: :meth:`_ExploringWorld._next_step` runs a step on one
    to learn its footprint, so no world's own store pays for the logging.
    ``dict(store)`` copies without noting reads: a scope's match, the one
    step that reads the whole store, has its own resource."""

    __slots__ = ("reads", "writes")

    def __init__(self, store: dict[str, Value]) -> None:
        super().__init__(store)
        self.reads: list[str] = []
        self.writes: list[str] = []

    def __getitem__(self, name: str) -> Value:
        self.reads.append(name)
        return dict.__getitem__(self, name)

    def __setitem__(self, name: str, value: Value) -> None:
        self.writes.append(name)
        dict.__setitem__(self, name, value)


#: What a step touches: ``(reads, writes)``, two sets of the resources of
#: its role (named as in :class:`~chorad.project.Footprint`), or None for a
#: step that conflicts with every step of its role.
_Footprint = tuple[set, set] | None

#: What a task may yet touch: ``(reads, writes, top)``, the first two as
#: in :class:`~chorad.project.Footprint`, and ``top`` for a task that may
#: run code not known yet (conflicting with every step of its role,
#: sending on every channel).
_Future = tuple[frozenset, frozenset, bool]


_STORE_ONLY = frozenset((STORE,))


def _conflict(a: _Footprint, b: _Footprint) -> bool:
    """Whether one step writes what the other touches; both are of one
    role, as :meth:`_ExploringWorld._edges` brings in tasks of other roles
    by :data:`~chorad.project.SERVICES` alone.  Two matches both "write"
    :data:`~chorad.project.STORE`, yet only read the store, so that alone
    is no conflict."""
    if a is None or b is None:
        return True
    if not (a[1].isdisjoint(b[0]) and b[1].isdisjoint(a[0])):
        return True
    if a[1].isdisjoint(b[1]):
        return False
    return STORE not in a[1] or bool(a[1] & b[1] - _STORE_ONLY)


def _frame_key(f: list) -> tuple:
    """What :func:`_frame_future` reads of the frame ``f``, with code
    trees by id."""
    p = f[0]
    if type(p) is not str:
        return (id(p), f[1])
    if p is _EVAL:
        return (p, id(f[2]))
    if p is _LEAD:
        return (p, tuple(f[2]))
    if p is _RECV:
        return (p, f[1], f[2], f[3], f[4])
    return (p, f[1], f[2], f[3])  # _SEND: its op and peer


def _frame_future(f: list, ex: RoleExecutor) -> Footprint:
    """What the frame ``f`` of one of ``ex``'s tasks may yet touch: its
    code from its position on, one case per frame kind of
    :meth:`~chorad.runtime.RoleExecutor._run`.  A loop counts whole; a
    ``|`` whose branches were spawned counts only its join, the branches
    being tasks of their own; a scope whose share was pushed counts only
    its completion notices, the share being a frame of its own."""
    p, pc = f[0], f[1]
    if type(p) is str:
        if p is _SEND:  # [_SEND, pc, op, peer, seq]
            return Footprint(writes=frozenset((("recv", KIND_ACK, f[2], f[3]),))) \
                if pc == 1 else EMPTY
        if p is _RECV:  # [_RECV, pc, op, peer, variable or None, data]: received
            kept = Footprint(frozenset((STORE,)), frozenset((("var", f[4]),))) \
                if f[4] is not None else EMPTY
            return union((sent(KIND_ACK, f[2], f[3], False), kept)) if pc == 1 else kept
        if p is _EVAL:  # [_EVAL, pc, expr, its calls, replies]
            return expr_footprint(f[2], f[3])
        if p is _LEAD:  # [_LEAD, pc, other roles, k]
            return union([received(KIND_READY, BARRIER_OP, peer, False) for peer in f[2]]
                         + [sent(KIND_START, BARRIER_OP, peer, False) for peer in f[2]])
        return union((sent(KIND_READY, BARRIER_OP, ex.starter, False),  # _FOLLOW
                      received(KIND_START, BARRIER_OP, ex.starter, False)))
    cls = type(p)
    if cls is SeqP:
        return p.suffixes[pc]
    if cls is ParP:
        return p.footprint if pc == 0 else EMPTY
    if cls is ScopeCoord and pc >= 3:
        return union([received(KIND_DONE, p.done_op, peer, False) for peer in p.involved])
    if cls is ScopeFollow and pc == 2:
        return sent(KIND_DONE, p.done_op, p.coordinator, False)
    return p.footprint


class _ExploringWorld(_World):
    """A run that can name its state exactly (:meth:`fingerprint`) and pick
    a persistent set of its ready tasks (:meth:`options`); :func:`explore`
    says what both hold."""

    def __init__(self, app: ProjectedApp, config: SimConfig, codes: _Codes,
                 router: Router | None = None):
        super().__init__(app, config, router)
        self.codes = codes
        # with a manager a match reads the whole store, and a scope's
        # replacement code is not known in advance
        self.matching = config.manager_factory is not None
        # the calls of the stateful service functions, which share SERVICES
        self._stateful = frozenset(("call", fn) for table in self.router.services.values()
                                   for fn in table.stateful)
        self._futures: dict[tuple, tuple] = {}  # see _future; forks share it

    def options(self) -> list[int]:
        """A persistent set, as indices into :meth:`ready_entries`.  With
        a ready task alone in its role that calls no stateful service, that
        is the task; otherwise it is the ready tasks of the smallest closure
        (:meth:`_closure`) that starts from one of them."""
        i = 0
        for role in self.app.roles:
            ex = self.executors[role]
            n = len(ex._ready)
            if n == 1 and len(ex._tasks) == 1 and not (
                    self._stateful and self._shares(role, next(iter(ex._tasks.values())))):
                return [i]  # no step of any role can touch what its own does
            i += n
        entries = best = self.ready_entries()
        edges: dict[tuple[str, int], tuple[str, list]] = {}
        for start in entries:
            chosen = self._closure(start, len(best), edges)
            if chosen is not None:
                best = chosen
                if len(best) == 1:
                    break
        chosen = set(best)
        return [i for i, e in enumerate(entries) if e in chosen]

    def _closure(self, start: tuple[str, int], limit: int, edges: dict) -> list | None:
        """The ready tasks of a set of tasks that holds ``start`` and is
        closed under the rules of :meth:`_edges`, or None once there are
        ``limit`` of them.  A task held up by a join on a child in the set
        does not count as in conflict with a step: it cannot pass the join
        before a step of the set runs, and the join itself commutes with
        every step."""
        members, todo, chosen = {start}, [start], [start]
        holding = set()  # the parents of members, as (role, tid)
        tasks = {role: ex._tasks for role, ex in self.executors.items()}
        while todo:
            entry = todo.pop()
            holding.add((entry[0], tasks[entry[0]][entry[1]].parent))
            rule, found = edges.get(entry) or edges.setdefault(entry, self._edges(*entry))
            if rule == WAIT_JOIN:
                if any(child in members for child in found):
                    continue
                found = found[:1]
            for other in found:
                if other in members:
                    continue
                task = tasks[other[0]][other[1]]
                if rule == READY and other in holding and (
                        task.state == WAIT_JOIN
                        or (type(task.frames[-1][0]) is ParP and task.frames[-1][1] == 1)):
                    continue
                members.add(other)
                todo.append(other)
                if task.state == READY:
                    chosen.append(other)
                    if len(chosen) >= limit:
                        return None
        return chosen

    def _edges(self, role: str, tid: int) -> tuple[str, list]:
        """The tasks a closure must take in with the task ``tid`` of
        ``role``, by the rule its state picks:

        * ready: every task of its role whose future (:meth:`_future`)
          conflicts with its next step (:meth:`_next_step`), and if that
          step writes :data:`~chorad.project.SERVICES`, every task of
          another role that may (:meth:`_shares`);
        * waiting to receive: every task whose future sends on the key it
          waits on;
        * waiting to join: its children, one of which is enough.
        """
        ex = self.executors[role]
        task = ex._tasks[tid]
        if task.state == READY:
            others = [(u.tid, self._future(role, u))
                      for u in ex._tasks.values() if u is not task]
            # the next step is run on copies only if the future of some
            # task conflicts with this one's, or this one's may be shared
            own = self._future(role, task)
            if not own[2]:
                others = [(u, f) for u, f in others if f[2] or _conflict(own, f)]
            found = []
            if others or own[2] or SERVICES in own[1]:
                step = self._next_step(role, task)
                others = [(u, f) for u, f in others if f[2] or _conflict(step, f)]
                if step is not None and SERVICES in step[1]:
                    found = [(r, u.tid) for r, x in self.executors.items() if r != role
                             for u in x._tasks.values() if self._shares(r, u)]
            return READY, [(role, u) for u, _ in others] + found
        if task.state == WAIT_RECV:
            kind, op, peer = task.wait_key
            sender = self.executors.get(peer)
            channel = ("seq", kind, op, role)
            found = []
            for u in (sender._tasks.values() if sender is not None else ()):
                future = self._future(peer, u)
                if future[2] or channel in future[1]:
                    found.append((peer, u.tid))
            return WAIT_RECV, found
        if task.state == WAIT_JOIN:
            return WAIT_JOIN, [(role, u.tid) for u in ex._tasks.values() if u.parent == tid]
        return task.state, []

    def _future(self, role: str, task: _Task) -> _Future:
        """What ``task`` may yet touch: the union, over its frames, of each
        frame's code from its position on (:func:`_frame_future`), which
        writes :data:`~chorad.project.SERVICES` if it calls a stateful
        service.  A task whose code enters a scope while a manager can
        replace it is ``top``.  Kept by where each frame stands, for every
        world of the search; the key holds the ids of code trees that the
        value keeps alive."""
        key = tuple(map(_frame_key, task.frames))
        hit = self._futures.get(key)
        if hit is None:
            ex = self.executors[role]
            fp = union([_frame_future(f, ex) for f in task.frames])
            writes = fp.writes if fp.reads.isdisjoint(self._stateful) else fp.writes | {SERVICES}
            hit = self._futures[key] = ((fp.reads, writes, fp.scoped and self.matching),
                                        [f[2] if f[0] is _EVAL else f[0] for f in task.frames])
        return hit[0]

    def _shares(self, role: str, task: _Task) -> bool:
        """Whether ``task`` may yet call a stateful service."""
        future = self._future(role, task)
        return future[2] or SERVICES in future[1]

    def _next_step(self, role: str, task: _Task) -> _Footprint:
        """The footprint of ``task``'s next step, found by running the step
        on copies of the task's frames and of the role's store, counters,
        locations and includes, which are all a step changes of its role
        besides its mailbox and tasks."""
        if task.resume_error is not None:
            return None
        ex = self.executors[role]
        saved = ex.variables, ex._seq, ex.locations, ex.includes
        store = _ReadLog(saved[0])
        ex.variables, ex._seq = store, dict(saved[1])
        ex.locations, ex.includes = dict(saved[2]), dict(saved[3])
        try:
            effect = ex._run([f.copy() for f in task.frames], task.resume_value)
        except Exception:  # the step fails, as RoleExecutor.step would see it
            return None
        finally:
            ex.variables, ex._seq, ex.locations, ex.includes = saved
        if effect is None:
            event: tuple = (task.tid, "end")
        elif effect[0] == "send":
            event = (task.tid, "send", effect[1].kind, effect[1].op, effect[1].to)
        elif effect[0] in ("recv", "call"):
            event = (task.tid, *effect)
        else:
            event = (task.tid, effect[0])
        return self._footprint(store, event)

    def _footprint(self, store: _ReadLog, event: tuple) -> _Footprint:
        """What the step with ``event`` touched, as :func:`explore` says."""
        verb = event[1]
        reads = {("var", name) for name in store.reads}
        writes = {("var", name) for name in store.writes}
        if writes:
            reads.add(STORE)
        if verb == "send":
            writes.add(("seq", *event[2:5]))
        elif verb == "recv":
            writes.add(("recv", *event[2:5]))
        elif verb == "spawn":
            writes.add(TIDS)
        elif verb == "call":
            if event[2] == INPUT_FUNCTION:
                writes.add(INPUT)
            elif ("call", event[2]) in self._stateful:
                writes.add(SERVICES)
        elif verb == "match":
            if self.matching:
                writes.add(STORE)
        return reads, writes

    def _frame(self, f: list) -> tuple:
        """A frame as exact data, each code tree in it as its key."""
        codes = self.codes
        if type(f[0]) is not str:  # a code node's frame: [node, pc, value, k]
            return (codes.key(f[0]), f[1], codes.exact(f[2]), f[3])
        if f[0] is _EVAL:  # [_EVAL, pc, expr, its calls, replies]
            return (f[0], f[1], codes.key(f[2]), _exact(f[4]))
        return tuple(map(_exact, f))

    def _role_state(self, role: str) -> tuple:
        ex, exact = self.executors[role], self.codes.exact
        tasks = tuple((t.tid, t.parent, t.state, exact(t.resume_value),
                       t.resume_error, t.wait_key, t.join_remaining,
                       tuple(map(self._frame, t.frames)))
                      for t in ex._tasks.values())
        mail = tuple((key, tuple(map(exact, q)))
                     for key, q in sorted(ex._queues.items()))
        waiters = tuple((key, tuple(q)) for key, q in sorted(ex._waiters.items()) if q)
        return (_items(ex.variables), tasks, mail, waiters, _items(ex._seq),
                ex._next_tid, _items(ex.includes), _items(ex.locations), ex.failure)

    def fingerprint(self) -> tuple:
        """The run's state, exactly: equal fingerprints continue alike."""
        return (self.steps, self._timeline_pos, _items(self.router._inputs_taken),
                tuple((address, _exact(table.state()))
                      for address, table in self.router.services.items()),
                *map(self._role_state, self.app.roles))


class _Abandon(Exception):
    """Ends a run at a state the search has already expanded."""


class _Restart(Exception):
    """A run of the reduced search failed, so steps of different roles no
    longer commute; carries the runs started so far."""

    def __init__(self, paths: int):
        super().__init__(paths)
        self.paths = paths


@dataclass
class ExplorationReport:
    paths: int  # runs started, those abandoned at a seen state included
    outcomes: dict[str, int]  # runs that ended, by outcome
    deadlocks: list[tuple[int, ...]]
    complete: bool
    finals: dict[str, int]
    leaky: int = 0  # runs that terminated with a leak

    @property
    def deadlock_free(self) -> bool:
        return self.complete and not self.deadlocks \
            and set(self.outcomes) <= {TERMINATED}

    @property
    def clean(self) -> bool:
        """Deadlock free, and no explored run leaked a message."""
        return self.deadlock_free and self.leaky == 0

    @property
    def deterministic(self) -> bool:
        """Every explored schedule reached the same final stores."""
        return len(self.finals) <= 1


def explore(target: Target, config: SimConfig | None = None, *,
            max_paths: int = 20_000) -> ExplorationReport:
    """Every final store, error and deadlock a (small) application can
    reach: a stateful depth-first search over its schedules, with
    partial-order reduction.

    A path is the sequence of indices picked into the ready list wherever
    more than one task was ready.  At each decision it expands, a run
    copies the world (:meth:`_World.fork`), queues the other choices with
    that copy, and takes the first; a queued choice starts a new run from
    a copy of the copy, so no step is taken twice.  Before expanding a
    decision a run looks the world's state up; a state already expanded
    abandons the run, since that state's other choices are already queued
    or done.  ``paths`` counts runs started, abandoned ones included, and
    so does ``max_paths``: runs beyond it leave ``complete`` False, and the
    verdict then only covers the explored portion.  ``leaky`` counts the
    runs that terminated with a leak, and ``clean`` asks for none.

    The reduction (Godefroid, *Partial-Order Methods for the Verification
    of Concurrent Systems*, 1996) keeps every final store, deadlock and
    terminal state.  At each state it expands a persistent set of ready
    tasks, built as a stubborn set (Valmari, "Stubborn sets for reduced
    state space generation", 1990): starting from one ready task, it
    takes in
    - with a ready task, every task of the same role whose future may
      conflict with the task's next step, and if that step calls a
      stateful service, every task of another role that may call one;
    - with a task waiting to receive, every task whose future sends on
      the key it waits on;
    - with a task waiting to join, one of its children;
    and of the closures from each ready task it keeps one with the fewest
    ready tasks.  The next step is the step itself, run on copies of the
    task and of its role's state.  A task's future is the union, over its
    frames, of the static footprint of the frame's code from its position
    on (:class:`~chorad.project.Footprint`): a loop counts whole, a ``|``
    whose branches were spawned counts its join only, and code that
    enters a scope while a manager can replace it may do anything.

    Why such a set is persistent: steps of different roles share only
    :data:`~chorad.project.SERVICES`, the state of the service tables,
    since each role has its own store, counters and tids, a mailbox key
    names its sender, so no two roles send on one key, and a send and a
    receive on one key reach the same state in either order.  So a task
    outside the set can only take steps that commute with every
    next step in the set: none of its future conflicts with one, and any
    task it spawns runs code of its future.  A waiting task in the set
    stays blocked until a step of the set runs: whatever can send on its
    key is in the set, and so is a child it joins.  A parent held at a
    join on a child in the set cannot pass the join before that, and the
    join and a child's end reach the same state in either order, so its
    later code does not count.  Hence no sequence of steps outside the set
    changes, enables or disables what the set's tasks do next.

    The next step's footprint holds the store names it reads and writes,
    the channel ``(kind, op, peer)`` it sent on, whose counter and the
    mailbox key of ``peer`` it fills are one resource, the key it received
    on, the role's next tid for a spawn, ``getInput``'s script position,
    and ``SERVICES`` for a call of a stateful service function, a
    ``scripted`` or buffer one (:attr:`~chorad.services.FunctionTable.stateful`),
    whatever its table: any two such calls conflict.  Any other service
    call replies from its arguments alone, so it touches only the names
    they read.  With a manager, a ``match`` reads the whole store: a store
    write reads :data:`~chorad.project.STORE` and a match writes it, and
    two matches do not conflict.  Two steps conflict when one writes what
    the other touches and they are of one role, or both write ``SERVICES``.

    Why persistent sets and state matching are the whole reduction: the
    fingerprint holds the step count, so every step leads to a new state
    and the state graph is acyclic.  On a finite acyclic graph, a search
    that expands a persistent set at every state it reaches keeps every
    deadlock and terminal state (Godefroid, 1996), with no proviso against
    cycles that ignore a task.  The persistent set is a function of the
    state, so expanding a state a second time would queue the same choices
    again; a state already expanded is therefore abandoned.

    The reduction applies only when the config has no ``timeline``, as
    events fire by step count.  A failing step ends the run, so
    it conflicts with every step, which footprints do not say; so when a
    run ends in ``error`` or ``stepLimit`` the search restarts without the
    reduction, and the runs before the restart count toward ``paths`` and
    ``max_paths``.  A reachable failure is still reached before the
    restart.  Take the system in which a failing step stops only its own
    task and raises a flag that no step reads: there it touches what its
    footprint says, the sets above stay persistent, and the reduction
    keeps every terminal state.  If a failure is reachable, so is a
    terminal state with the flag raised; the reduced search follows a path
    to one, and the run along that path ends in ``error`` at its first
    failing step.  A run cut by the step budget is covered alike, the cut
    being a failure of the step that reaches the budget.

    State matching needs the state exact, or a pruned run could hide a
    behaviour; it is tuples of values and small ints, never a hash.  Per
    live task: its tid, parent, state, pending resume value or error, wait
    key, join count and continuation, which is plain data: each frame's
    position and values, with each code tree in it as a small int that
    equal trees share for the whole exploration.  Per role: its store
    (sorted; ``true`` kept apart from ``1``), every field of every queued
    message, the waiter order, sequence counters, next tid, includes,
    locations and failure.  For the world: the step count and timeline
    position, which decide when events fire and the step budget cuts in,
    and keep the state graph acyclic; the inputs taken; and each
    in-process service table's state, its scripted replies left and its
    buffers (:meth:`~chorad.services.FunctionTable.state`), which stays
    bounded however long the run.  Rule managers change only through the
    timeline.  Task events keep their message ``seq``, which a later step
    compares with its ack.
    """
    config = replace(config or SimConfig(), hash_trace=False, collect_trace=False)
    app, codes = _as_app(target), _Codes()
    world = _ExploringWorld(app, config, codes)
    built = world.router.fork(None)  # the tables and manager as built, for a restart
    try:
        return _search(world, max_paths, reduce=not config.timeline)
    except _Restart as restart:
        return _search(_ExploringWorld(app, config, codes, built), max_paths,
                       reduce=False, paths=restart.paths)


def _search(world: _ExploringWorld, max_paths: int, *,
            reduce: bool, paths: int = 0) -> ExplorationReport:
    """:func:`explore`'s search from ``world``, with or without the
    reduction, after ``paths`` runs already spent.  Its stack holds, per
    queued choice, the copy of the world taken at the choice's decision;
    the last choice popped for a copy runs on the copy itself."""
    seen: set[tuple] = set()  # each state expanded
    outcomes: Counter[str] = Counter()
    finals: Counter[str] = Counter()
    deadlocks: list[tuple[int, ...]] = []
    leaky = 0
    # (the world at a decision, the path to it, the choice to take there,
    # whether no other entry holds that world); the first run starts from
    # ``world`` and has no choice to take up
    stack: list[tuple[_ExploringWorld, tuple[int, ...], int | None, bool]] = [
        (world, (), None, True)]
    complete = True
    while stack:
        if paths >= max_paths:
            complete = False
            break
        snapshot, path_there, taken, last = stack.pop()
        world = snapshot if last else snapshot.fork()
        path = list(path_there)

        def choose(count: int) -> int:
            nonlocal taken
            if taken is not None:  # the queued choice at the snapshot's decision
                path.append(taken)
                taken = None
                return path[-1]
            if count == 1:
                return 0
            options = world.options() if reduce else range(count)
            if len(options) > 1:
                state = world.fingerprint()
                if state in seen:
                    raise _Abandon
                seen.add(state)
                snap, there = world.fork(), tuple(path)
                # Deepest on top: the next run takes the deepest decision's next choice.
                stack.extend((snap, there, k, k == options[-1])
                             for k in reversed(options[1:]))
            path.append(options[0])
            return options[0]

        paths += 1
        try:
            report = _execute(world, choose)
        except _Abandon:
            continue
        if reduce and report.outcome in (ERROR, STEP_LIMIT):
            raise _Restart(paths)
        outcomes[report.outcome] += 1
        if report.outcome == DEADLOCK:
            deadlocks.append(tuple(path))
        leaky += bool(report.leaks)
        key = json.dumps(report.final_states, sort_keys=True, default=repr)
        finals[key] += 1
    return ExplorationReport(paths=paths, outcomes=dict(outcomes),
                             deadlocks=deadlocks, complete=complete,
                             finals=dict(finals), leaky=leaky)


@dataclass
class DeadlockSummary:
    seeds: int
    deadlocks: int
    leaky: int
    outcomes: dict[str, int]
    counterexample: list[str] | None  # trace of the first bad seed, if any

    @property
    def clean(self) -> bool:
        return self.deadlocks == 0 and self.leaky == 0 \
            and set(self.outcomes) <= {TERMINATED}


def explore_deadlocks(target: Target, seeds: int = 1000,
                      base: SimConfig | None = None) -> DeadlockSummary:
    """Sweep `seeds` distinct schedules, counting deadlocks and leaks.

    Any timeline (mid-run publications, env writes) and input scripts ride
    along on ``base``.  The first misbehaving seed is re-run with tracing
    on, so the summary carries a replayable counterexample.
    """
    base = base or SimConfig()
    app = _as_app(target)
    outcomes: Counter[str] = Counter()
    deadlocks = 0
    leaky = 0
    counterexample: list[str] | None = None
    for seed in range(seeds):
        report = simulate(app, replace(base, seed=seed, hash_trace=False))
        outcomes[report.outcome] += 1
        bad = report.outcome == DEADLOCK or bool(report.leaks)
        if report.outcome == DEADLOCK:
            deadlocks += 1
        if report.leaks:
            leaky += 1
        if bad and counterexample is None:
            replay = simulate(app, replace(base, seed=seed, collect_trace=True,
                                           hash_trace=False))
            counterexample = replay.trace
    return DeadlockSummary(seeds=seeds, deadlocks=deadlocks, leaky=leaky,
                           outcomes=dict(outcomes), counterexample=counterexample)
