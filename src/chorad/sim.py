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
reduction; its docstring says how and why.  A world is plain data, so the
search copies it at each decision (:meth:`_World.fork`) and no run
re-executes a step another run took.

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
from .project import ProjectedApp, Target, _as_app
from .runtime import (_EVAL, INPUT_FUNCTION, KIND_ACK, KIND_MSG, Message, RoleExecutor,
                      StepOutcome, classify_message)
from .services import FunctionTable, Router, handle_call_request

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
    """One run's mutable state, all of which :meth:`fork` copies."""

    def __init__(self, app: ProjectedApp, config: SimConfig):
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
        self._manager = config.manager_factory() if config.manager_factory else None
        # a fork's manager is built at first use, taking over this match log
        self._log_to_take: tuple | None = None
        self.counts: Counter[str] = Counter()
        # each message category by (kind, op); forks share it
        self._categories: dict[tuple[str, str], str] = {}
        self.router = Router(
            services=config.services_factory() if config.services_factory else None,
            manager=self._manager, inputs=config.inputs, counts=self.counts)
        # the in-process service calls so far, as (address, function, args)
        self.service_calls: list[tuple[str, str, tuple]] = []
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
        are copied.  Service tables and the manager are not, so the copy
        gets new ones from the config's factories: the tables at once, with
        the service calls of this run replayed on them; the manager at its
        first use (see :attr:`manager`), since most forks never match."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.executors = {r: ex.fork() for r, ex in self.executors.items()}
        new.counts = Counter(self.counts)
        if self.config.manager_factory is not None:
            new._manager = None
            new._log_to_take = (self._log_to_take if self._log_to_take is not None
                                else tuple(getattr(self._manager, "match_log", ())))
        services = None
        if self.config.services_factory is not None:
            services = self.config.services_factory()
            for address, fn, args in self.service_calls:
                handle_call_request(services[address],
                                    {"kind": "call", "fn": fn, "args": list(args)})
        new.router = self.router.fork(services=services, manager=new._manager,
                                      counts=new.counts)
        new.service_calls = list(self.service_calls)
        new.applied_rules = list(self.applied_rules)
        new.op_ledger = {op: dict(entry) for op, entry in self.op_ledger.items()}
        new.trace = None if self.trace is None else list(self.trace)
        new._hash = self._hash.copy()
        return new

    @property
    def manager(self) -> AdaptationManager | None:
        """The run's adaptation manager.  A fork builds its own at first
        use, from the config's factory: it replays on it this run's fired
        timeline events and hands it the match log it was forked with."""
        if self._log_to_take is not None:
            self._build_manager()
        return self._manager

    def _build_manager(self) -> None:
        manager = self._manager = self.config.manager_factory()
        for ev in self.timeline[:self._timeline_pos]:
            _apply(ev, manager)
        if hasattr(manager, "match_log"):
            manager.match_log.extend(self._log_to_take)
        self._log_to_take = None
        self.router.manager = manager

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
        while (self._timeline_pos < len(self.timeline)
               and self.timeline[self._timeline_pos].at_step <= self.steps):
            manager = self.manager  # a fork's is built before its first event fires
            ev = self.timeline[self._timeline_pos]
            self._timeline_pos += 1
            if ev.kind == "publish" and manager is None:
                log.warning("timeline publish ignored: no adaptation manager")
                continue
            fields = _apply(ev, manager)
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
            if ext.kind == "match" and self._log_to_take is not None:
                self._build_manager()
            reply, why = self.router.answer(ex, ext)
            if ext.kind == "match":
                if reply and reply.get("matched"):
                    self.applied_rules.append(
                        (str(ext.payload[0].get("scope")), reply.get("rule")))
            elif self.router.services:
                fn, args = ext.payload
                address = ex.includes.get(fn, ("",))[0]
                if fn != INPUT_FUNCTION and address in self.router.services:
                    self.service_calls.append((address, fn, tuple(args)))
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


def _apply(ev: TimelineEvent, manager: AdaptationManager | None) -> tuple:
    """Do what ``ev`` does to ``manager``; returns the trace line's fields."""
    if ev.kind == "env":
        if manager is not None:
            manager.env.set(ev.key, ev.value)
        return ("@env", f"{ev.key}={ev.value!r}")
    if ev.kind != "publish":
        raise ValueError(f"unknown timeline event kind {ev.kind!r}")
    for handle in manager.servers():
        if handle.server_id == ev.server:
            violations = handle.publish(ev.source)  # type: ignore[attr-defined]
            bad = [v for v in violations if v.severity == "error"]
            if bad:
                raise ValueError(f"timeline publish rejected: {bad[0].message}")
            return ("@publish", ev.server)
    raise ValueError(f"timeline publish: no server '{ev.server}' registered")


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


def _exact(v: object) -> object:
    """``v`` as a hashable key that keeps every distinction a step can see:
    ``true`` apart from ``1``, a list apart from a tuple, a dict's order and
    a message's every field."""
    cls = type(v)
    if cls is str or cls is int or v is None:
        return v
    if cls is bool:
        return (bool, v)
    if cls is Message:
        return (Message, v.kind, v.op, v.frm, v.to, _exact(v.data), v.seq)
    if cls is dict:
        return (dict, *[(k, _exact(x)) for k, x in v.items()])
    if cls is list or cls is tuple:
        return (cls, *map(_exact, v))
    raise TypeError(f"cannot fingerprint a {cls.__name__}")


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

    def key(self, node: _Node) -> int:
        k = self._by_id.get(id(node))
        if k is None:
            k = self._by_id[id(node)] = self._by_shape.setdefault(node, len(self._by_shape))
            self._held.append(node)
        return k


class _ReadLog(dict):
    """A role's store that notes each name a step reads, also through
    ``dict(store)``, and each name it writes; only the exploring world
    installs it, and only for the reduction."""

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

    def __iter__(self):  # sends ``dict(store)`` through ``__getitem__``
        return dict.__iter__(self)


#: What a step touches: ``(reads, writes)``, two sets of resources, or None
#: for a step that conflicts with every step.
_Footprint = tuple[set, set] | None


def _conflict(a: _Footprint, b: _Footprint) -> bool:
    """Whether one step writes what the other touches."""
    if a is None or b is None:
        return True
    return not (a[1].isdisjoint(b[1]) and a[1].isdisjoint(b[0])
                and b[1].isdisjoint(a[0]))


@dataclass(eq=False)
class _Decision:
    """A decision point as the choices queued there see it: its sleep set,
    and the choices taken there so far with their footprints."""

    sleep: dict[tuple[str, int], _Footprint]
    done: list[tuple[tuple[str, int], _Footprint]] = field(default_factory=list)


class _ExploringWorld(_World):
    """A run that can name its state exactly (:meth:`fingerprint`) and
    keeps the reduction's sleep set; :func:`explore` says what both hold.

    Only this world logs store reads and writes, and only for the
    reduction: :func:`simulate` and the live driver pay for none of it.
    :meth:`fork` copies the sleep set and the logging stores with the rest
    of the world.
    """

    def __init__(self, app: ProjectedApp, config: SimConfig, codes: _Codes,
                 reduce: bool):
        super().__init__(app, config)
        self.codes = codes
        self.reduce = reduce
        self.sleep: dict[tuple[str, int], _Footprint] = {}
        self.node: _Decision | None = None  # the decision the next step is a choice at
        self._log_stores()

    def fork(self) -> "_ExploringWorld":
        new = super().fork()
        new.sleep = dict(self.sleep)
        new._log_stores()
        return new

    def _log_stores(self) -> None:
        if self.reduce:
            for ex in self.executors.values():
                ex.variables = _ReadLog(ex.variables)

    def options(self) -> list[int]:
        """The awake ready tasks of one closed set of roles, as indices into
        :meth:`ready_entries`: a persistent set less the sleep set.

        Each role with ready tasks is closed under "has a task waiting to
        receive from"; the closed set with the fewest ready tasks wins."""
        roles = self.app.roles
        ready = {r: self.executors[r].ready_tids() for r in roles}
        waits = {r: {key[2] for key, q in self.executors[r]._waiters.items() if q}
                 for r in roles}
        chosen: set[str] = set()
        fewest = 0
        for role in roles:
            if not ready[role]:
                continue
            closed, todo = {role}, [role]
            while todo:
                for peer in waits.get(todo.pop(), ()):
                    if peer not in closed:
                        closed.add(peer)
                        todo.append(peer)
            n = sum(len(ready.get(r, ())) for r in closed)
            if not chosen or n < fewest:
                chosen, fewest = closed, n
        return [i for i, entry in enumerate(self.ready_entries())
                if entry[0] in chosen and entry not in self.sleep]

    def advance(self, role: str, tid: int) -> StepOutcome:
        if not self.reduce:
            return super().advance(role, tid)
        ex = self.executors[role]
        parent = ex._tasks[tid].parent
        store = ex.variables
        store.reads, store.writes = [], []
        outcome = super().advance(role, tid)
        if self.node is not None or self.sleep:
            self._update_sleep((role, tid), self._footprint(role, parent, store, outcome.event))
        return outcome

    @staticmethod
    def _footprint(role: str, parent: int | None, store: _ReadLog,
                   event: tuple) -> _Footprint:
        """What the step with ``event`` touched, as :func:`explore` says."""
        tid, verb = event[0], event[1]
        reads = {("var", role, name) for name in store.reads}
        writes = {("var", role, name) for name in store.writes}
        if verb == "send":
            writes.add(("seq", role, event[2]))
        elif verb == "recv":
            writes.add(("recv", role, *event[2:]))
        elif verb == "spawn":
            writes.update((("tid", role), ("kids", role, tid)))
        elif verb == "join":
            writes.add(("kids", role, tid))
        elif verb == "end":
            if parent is not None:
                reads.add(("kids", role, parent))
        elif verb == "call":
            if event[2] != INPUT_FUNCTION:
                return None
            writes.add(("input", role))
        return reads, writes

    def _update_sleep(self, entry: tuple[str, int], footprint: _Footprint) -> None:
        """Keep asleep what commutes with the step ``entry`` just took; at a
        decision, that is the node's sleep set and its earlier choices."""
        node, self.node = self.node, None
        sleep = self.sleep
        if node is not None:
            sleep = {**node.sleep, **dict(node.done)}
            node.done.append((entry, footprint))
        self.sleep = {e: f for e, f in sleep.items() if not _conflict(f, footprint)}

    def _frame(self, f: list) -> tuple:
        """A frame as exact data, each code tree in it as its key."""
        key = self.codes.key
        if type(f[0]) is not str:  # a code node's frame: [node, pc, value, k]
            return (key(f[0]), f[1], _exact(f[2]), f[3])
        if f[0] is _EVAL:  # [_EVAL, pc, expr, its calls, replies]
            return (f[0], f[1], key(f[2]), _exact(f[4]))
        return tuple(map(_exact, f))

    def _role_state(self, role: str) -> tuple:
        ex = self.executors[role]
        tasks = tuple((t.tid, t.parent, t.state, _exact(t.resume_value),
                       t.resume_error, t.wait_key, t.join_remaining,
                       tuple(map(self._frame, t.frames)))
                      for t in ex._tasks.values())
        mail = tuple((key, tuple(map(_exact, q)))
                     for key, q in sorted(ex._queues.items()))
        waiters = tuple((key, tuple(q)) for key, q in sorted(ex._waiters.items()) if q)
        return (_items(ex.variables), tasks, mail, waiters, _items(ex._seq),
                ex._next_tid, _items(ex.includes), _items(ex.locations), ex.failure)

    def fingerprint(self) -> tuple:
        """The run's state, exactly: equal fingerprints continue alike."""
        return (self.steps, self._timeline_pos, _items(self.router._inputs_taken),
                tuple((address, fn, _exact(args)) for address, fn, args in self.service_calls),
                *map(self._role_state, self.app.roles))


class _Abandon(Exception):
    """Ends a run at a state the search has already expanded, or whose
    persistent set is asleep."""


class _Restart(Exception):
    """A run of the reduced search failed, so steps of different roles no
    longer commute; carries the runs started so far."""

    def __init__(self, paths: int):
        super().__init__(paths)
        self.paths = paths


@dataclass
class ExplorationReport:
    paths: int  # runs started, those abandoned (seen state, all asleep) included
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
    terminal state.  It expands, at each state, only the ready tasks of one
    set of roles closed under "has a task waiting to receive from" (the
    closed set with the fewest ready tasks): tasks of different roles share
    no store, sequence counter or tid; a mailbox key names its sender, so
    no two roles send on one key; and a send and a receive on one key reach
    the same state in either order.  So a role outside the set can only
    queue messages no task in the set waits for, and cannot interfere
    before a step of the set runs.  On top, sleep sets skip orders that
    differ only by commuting steps.  A step's footprint holds the store
    names it reads and writes, the sequence counter of the kind it sent
    (which stands for the mailbox key it sent on), the key it received on,
    its spawn and join on its own children and its end on its parent's,
    and ``getInput``'s script position; any other ``call`` conflicts with
    every step, and ``match`` only reads a manager no step changes.  Two
    steps conflict when one writes what the other touches; ends of siblings
    do not.  After each choice, the choices already explored at that
    decision that commute with it go to sleep; a sleeping task is never
    chosen, and a run whose persistent set is all asleep ends without an
    outcome.  A state is abandoned only if it was expanded before with a
    sleep set that is a subset of the current one.

    The reduction applies only when the config has no ``timeline`` (events
    fire by step count) and no ``services_factory`` (a table's state is
    shared by every role that calls it).  Cross-role commutation assumes
    that no step fails, so when a run ends in ``error`` or ``stepLimit`` the
    search restarts without the reduction; the runs before the restart
    count toward ``paths`` and ``max_paths``.  If a failure or the step
    limit is reachable at all, the reduced search reaches one of them.

    State matching needs the state exact, or a pruned run could hide a
    behaviour; it is tuples of values and small ints, never a hash.  Per
    live task: its tid, parent, state, pending resume value or error, wait
    key, join count and continuation, which is plain data: each frame's
    position and values, with each code tree in it as a small int that
    equal trees share for the whole exploration.  Per role: its store
    (sorted; ``true`` kept apart from ``1``), every field of every queued
    message, the waiter order, sequence counters, next tid, includes,
    locations and failure.  For the world:
    the step count and timeline position, which decide when events fire
    and the step budget cuts in, and keep the state graph acyclic; the
    inputs taken; and the in-process service calls in order, since a
    table's position (a scripted reply list, a buffer) is hidden in it and
    follows from them.
    Rule managers change only through the timeline.  Task events keep
    their message ``seq``, which a later step compares with its ack.
    """
    config = replace(config or SimConfig(), hash_trace=False, collect_trace=False)
    app = _as_app(target)
    reduce = not config.timeline and config.services_factory is None
    try:
        return _search(app, config, max_paths, reduce=reduce)
    except _Restart as restart:
        return _search(app, config, max_paths, reduce=False, paths=restart.paths)


def _search(app: ProjectedApp, config: SimConfig, max_paths: int, *,
            reduce: bool, paths: int = 0) -> ExplorationReport:
    """:func:`explore`'s search, with or without the reduction, after
    ``paths`` runs already spent.  Its stack holds, per queued choice, the
    copy of the world taken at the choice's decision; the last choice
    popped for a copy runs on the copy itself."""
    # each state expanded, with the sleep sets it was expanded with
    seen: dict[tuple, list[frozenset]] = {}
    outcomes: Counter[str] = Counter()
    finals: Counter[str] = Counter()
    deadlocks: list[tuple[int, ...]] = []
    leaky = 0
    # (the world at a decision, the path to it, the choice to take there,
    # the decision, whether no other entry holds that world); the first run
    # starts from a new world and has no decision to take up
    stack: list[tuple[_ExploringWorld, tuple[int, ...], int | None, _Decision | None, bool]] = [
        (_ExploringWorld(app, config, _Codes(), reduce), (), None, None, True)]
    complete = True
    while stack:
        if paths >= max_paths:
            complete = False
            break
        snapshot, path_there, taken, node, last = stack.pop()
        world = snapshot if last else snapshot.fork()
        world.node = node
        path = list(path_there)

        def choose(count: int) -> int:
            nonlocal taken
            if taken is not None:  # the queued choice at the snapshot's decision
                path.append(taken)
                taken = None
                return path[-1]
            if reduce:
                options = world.options()
                if not options:
                    raise _Abandon
            elif count == 1:
                return 0
            else:
                options = range(count)
            if len(options) > 1:
                state = world.fingerprint()
                asleep = frozenset(world.sleep)
                expanded = seen.setdefault(state, [])
                if any(z <= asleep for z in expanded):
                    raise _Abandon
                expanded.append(asleep)
                world.node = here = _Decision(world.sleep)
                snap, there = world.fork(), tuple(path)
                # Deepest on top: the next run takes the deepest decision's next choice.
                stack.extend((snap, there, k, here, k == options[-1])
                             for k in reversed(options[1:]))
            if count > 1:
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
