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

Besides single seeded runs, the module can exhaustively explore the
schedules of small applications: a depth-first search that backtracks from
the choices it recorded (generators cannot be snapshotted, so every run
replays its prefix from the start) and abandons a run at a state it has
already expanded.  Matching states needs an exact fingerprint of the
world: each task's history as a hash-consed id, each role's store,
mailboxes and counters, and the world's step count, timeline position,
inputs taken and service calls; :func:`explore` says why each part is
there.  Only the exploring world records what the fingerprint needs.

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
from .ast import Value
from .project import ProjectedApp, Target, _as_app
from .runtime import (INPUT_FUNCTION, KIND_ACK, KIND_MSG, Message, RoleExecutor,
                      StepOutcome, classify_message)
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
    """One run's mutable state; built fresh for every (re)execution."""

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
        self.manager = config.manager_factory() if config.manager_factory else None
        self.counts: Counter[str] = Counter()
        self.router = Router(
            services=config.services_factory() if config.services_factory else None,
            manager=self.manager, inputs=config.inputs, counts=self.counts)
        self.applied_rules: list[tuple[str, str]] = []
        self.timeline = sorted(config.timeline, key=lambda e: e.at_step)
        self._timeline_pos = 0
        self.steps = 0
        self.op_ledger: dict[str, dict[str, int]] = {}
        self.trace: list[str] | None = [] if config.collect_trace else None
        self._hashing = config.hash_trace or config.collect_trace
        self._hash = hashlib.sha256()
        self.failure: str | None = None

    # -- bookkeeping ---------------------------------------------------------

    def _note(self, *fields: object) -> None:
        if not self._hashing:
            return
        line = ":".join(map(str, fields))
        self._hash.update(line.encode())
        self._hash.update(b"\n")
        if self.trace is not None:
            self.trace.append(line)

    def _count_message(self, msg: Message) -> None:
        self.counts[classify_message(msg)] += 1
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
            ev = self.timeline[self._timeline_pos]
            self._timeline_pos += 1
            if ev.kind == "publish":
                self._publish(ev)
            elif ev.kind == "env":
                if self.manager is not None:
                    self.manager.env.set(ev.key, ev.value)
                self._note("@env", f"{ev.key}={ev.value!r}")
            else:
                raise ValueError(f"unknown timeline event kind {ev.kind!r}")

    def _publish(self, ev: TimelineEvent) -> None:
        if self.manager is None:
            log.warning("timeline publish ignored: no adaptation manager")
            return
        for handle in self.manager.servers():
            if handle.server_id == ev.server:
                violations = handle.publish(ev.source)  # type: ignore[attr-defined]
                bad = [v for v in violations if v.severity == "error"]
                if bad:
                    raise ValueError(
                        f"timeline publish rejected: {bad[0].message}")
                self._note("@publish", ev.server)
                return
        raise ValueError(f"timeline publish: no server '{ev.server}' registered")

    # -- scheduling ----------------------------------------------------------

    def ready_entries(self) -> list[tuple[str, int]]:
        """Every ready task as ``(role, tid)``, in the scheduler's order."""
        return [(role, tid) for role in self.app.roles
                for tid in self.executors[role].ready_tids()]

    def advance(self, role: str, tid: int) -> StepOutcome:
        ex = self.executors[role]
        outcome = ex.step(tid)
        self.steps += 1
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
                self.applied_rules.append(
                    (str(ext.payload[0].get("scope")), reply.get("rule")))
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
    # each executor's own ready list, updated in place as the run goes
    ready = [(role, world.executors[role].ready_tids()) for role in app.roles]
    lists = [tids for _, tids in ready]
    while True:
        if world.failure:
            return world.finish(ERROR, world.failure)
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
    rng = random.Random(config.seed)
    return _execute(_World(_as_app(target), config), rng.randrange)


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


class _ReadLog(dict):
    """A role's store that notes each ``(name, value)`` a step reads, also
    through ``dict(store)``; only the exploring world installs it."""

    __slots__ = ("reads",)

    def __init__(self, store: dict[str, Value]) -> None:
        super().__init__(store)
        self.reads: list[tuple[str, object]] = []

    def __getitem__(self, name: str) -> Value:
        value = dict.__getitem__(self, name)
        self.reads.append((name, _exact(value)))
        return value

    def __iter__(self):  # sends ``dict(store)`` through ``__getitem__``
        return dict.__iter__(self)


class _ExploringWorld(_World):
    """A run that can name its state exactly: :meth:`fingerprint`.

    Each live task carries a task-state id, hash-consed through ``intern``,
    one dict per exploration: the id after a step is
    ``intern[(id before, record)]``, the record being the step's resume
    value or error, the ``(name, value)`` pairs it read from its role's
    store, and its event.  A branch of a ``|`` starts from its parent's id
    and its place in the block.  Stores log their reads, and in-process
    service calls are logged in order, only here: :func:`simulate` and
    the live driver pay for none of it.

    A run replays its queued prefix without logging; at the prefix's last
    decision, :meth:`log_from` takes up the ids that the earlier run which
    queued it had there, from :meth:`mark`.
    """

    def __init__(self, app: ProjectedApp, config: SimConfig,
                 intern: dict[object, int]):
        super().__init__(app, config)
        self.intern = intern
        self.task_ids: dict[str, dict[int, int]] | None = None  # None: not logging
        self.calls = 0  # id of the in-process service calls so far

    def _id(self, key: object) -> int:
        return self.intern.setdefault(key, len(self.intern))

    def mark(self) -> tuple:
        """The ids here, for :meth:`log_from` in a run that replays to here."""
        return {r: dict(ids) for r, ids in self.task_ids.items()}, self.calls

    def log_from(self, mark: tuple) -> None:
        ids, self.calls = mark
        self.task_ids = {r: dict(t) for r, t in ids.items()}
        for ex in self.executors.values():
            ex.variables = _ReadLog(ex.variables)

    def advance(self, role: str, tid: int) -> StepOutcome:
        if self.task_ids is None:
            return super().advance(role, tid)
        ex = self.executors[role]
        task = ex._tasks[tid]
        ids = self.task_ids[role]
        before = (ids.pop(tid), _exact(task.resume_value), task.resume_error)
        reads = ex.variables.reads = []
        outcome = super().advance(role, tid)
        event = outcome.event
        if event[1] == "end":
            return outcome
        new = ids[tid] = self._id((before, tuple(reads), event))
        if event[1] == "spawn":
            for place, child in enumerate(task.resume_value):
                ids[child] = self._id(("branch", new, place))
        ext = outcome.ext
        if ext is not None and ext.kind == "call" and ext.payload[0] != INPUT_FUNCTION:
            fn, args = ext.payload
            address = ex.includes.get(fn, ("",))[0]
            if address in self.router.services:
                self.calls = self._id((self.calls, address, fn, _exact(args),
                                       _exact(task.resume_value), task.resume_error))
        return outcome

    def _role_state(self, role: str) -> int:
        ex = self.executors[role]
        ids = self.task_ids[role]
        tasks = tuple((t.tid, t.parent, t.state, _exact(t.resume_value),
                       t.resume_error, t.wait_key, t.join_remaining, ids[t.tid])
                      for t in ex._tasks.values())
        mail = tuple((key, tuple(map(_exact, q)))
                     for key, q in sorted(ex._queues.items()))
        waiters = tuple((key, tuple(q)) for key, q in sorted(ex._waiters.items()) if q)
        return self._id((_items(ex.variables), tasks, mail, waiters,
                         _items(ex._seq), ex._next_tid, _items(ex.includes),
                         _items(ex.locations), ex.failure))

    def fingerprint(self) -> tuple:
        """The run's state, exactly: equal fingerprints continue alike."""
        return (self.steps, self._timeline_pos,
                _items(self.router._inputs_taken), self.calls,
                *map(self._role_state, self.app.roles))


class _Seen(Exception):
    """Abandons a run at a state the search has already expanded."""


@dataclass
class ExplorationReport:
    paths: int  # runs started, those abandoned at a seen state included
    outcomes: dict[str, int]  # runs that ended, by outcome
    deadlocks: list[tuple[int, ...]]
    complete: bool
    finals: dict[str, int]

    @property
    def deadlock_free(self) -> bool:
        return self.complete and not self.deadlocks \
            and set(self.outcomes) <= {TERMINATED}

    @property
    def deterministic(self) -> bool:
        """Every explored schedule reached the same final stores."""
        return len(self.finals) <= 1


def explore(target: Target, config: SimConfig | None = None, *,
            max_paths: int = 20_000) -> ExplorationReport:
    """Every final store, error and deadlock a (small) application can
    reach: a stateful depth-first search over its schedules.

    A path is the sequence of indices picked into the ready list at genuine
    decision points.  Each run follows a queued prefix, then takes choice 0
    and queues the other choices it passes.  At each decision point past
    the prefix it looks the world's state up; a state already expanded
    abandons the run, since that state's other choices are already queued
    or done.  So every reachable state is expanded once, and no final
    store, error or deadlock is lost.  ``paths`` counts runs started,
    abandoned ones included, and so does ``max_paths``: runs beyond it
    leave ``complete`` False, and the verdict then only covers the
    explored portion.

    The state must be exact, or a pruned run could hide a behaviour; it is
    tuples of values and small ints, never a hash.  Per live task: its tid,
    parent, state, pending resume value or error, wait key, join count and
    task-state id.  Equal ids mean equal generators, because a step is a
    deterministic function of its task's generator, its resume value and
    the store values it reads, all of which the id's records hold.  Per
    role: its store (sorted; ``true`` kept apart from ``1``), every field of
    every queued message, the waiter order, sequence counters, next tid,
    includes, locations and failure.  For the world: the step count and
    timeline position, which decide when events fire and the step budget
    cuts in; the inputs taken; and the in-process service calls in order,
    since a table's position (a scripted reply list, a buffer) is hidden
    in it.  Rule managers change only through the timeline.  Task events
    keep their message ``seq``, which a later step compares with its ack.
    """
    config = replace(config or SimConfig(), hash_trace=False)
    app = _as_app(target)
    intern: dict[object, int] = {}
    seen: set[tuple] = set()
    outcomes: Counter[str] = Counter()
    finals: Counter[str] = Counter()
    deadlocks: list[tuple[int, ...]] = []
    # (prefix, the ids at its last decision); every role's main task is id 0
    stack: list[tuple[tuple[int, ...], tuple]] = [((), ({r: {0: 0} for r in app.roles}, 0))]
    paths = 0
    complete = True
    while stack:
        if paths >= max_paths:
            complete = False
            break
        prefix, mark = stack.pop()
        path: list[int] = []
        widths: list[int] = []
        marks: list[tuple] = []  # the ids at each decision past the prefix
        world = _ExploringWorld(app, config, intern)
        if not prefix:
            world.log_from(mark)

        def choose(count: int) -> int:
            # Forced moves are not decision points; paths record only
            # genuine decisions, which keeps them short.
            if count == 1:
                return 0
            depth = len(path)
            if depth < len(prefix):
                if depth == len(prefix) - 1:
                    world.log_from(mark)
                path.append(prefix[depth])
            else:
                state = world.fingerprint()
                if state in seen:
                    raise _Seen
                seen.add(state)
                marks.append(world.mark())
                path.append(0)
            widths.append(count)
            return path[-1]

        paths += 1
        try:
            report = _execute(world, choose)
        except _Seen:
            pass
        else:
            outcomes[report.outcome] += 1
            if report.outcome == DEADLOCK:
                deadlocks.append(tuple(path))
            key = json.dumps(report.final_states, sort_keys=True, default=repr)
            finals[key] += 1
        # Deepest on top: the next path is the deepest decision's next choice.
        for depth in range(len(prefix), len(path)):
            m = marks[depth - len(prefix)]
            stack.extend(((*path[:depth], k), m) for k in range(widths[depth] - 1, 0, -1))
    return ExplorationReport(paths=paths, outcomes=dict(outcomes),
                             deadlocks=deadlocks, complete=complete,
                             finals=dict(finals))


def count_overhead(target: Target, config: SimConfig | None = None) -> dict[str, int]:
    """Message counts by category for one run — the adaptation-cost meter."""
    return dict(simulate(target, config).message_counts)


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
