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

Besides single seeded runs, the module can exhaustively enumerate schedules
for small applications: each path runs to completion once, then the search
backtracks from the choices it recorded (generators cannot be snapshotted,
so every path runs from the start; fine where exhaustion is feasible).

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
from .runtime import KIND_MSG, KIND_ACK, Message, RoleExecutor, classify_message
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

    def advance(self, role: str, tid: int) -> None:
        ex = self.executors[role]
        outcome = ex.step(tid)
        self.steps += 1
        self._note(role, *outcome.event)
        for msg in outcome.outbound:
            self._count_message(msg)
            target = self.executors.get(msg.to)
            if target is None:
                self.failure = f"{role}: message addressed to unknown role '{msg.to}'"
                return
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


def _execute(app: ProjectedApp, config: SimConfig, choose: Callable[[int], int],
             *, first_role: bool = False) -> SimReport:
    """Run to completion; ``choose(count)`` picks the index of the next step
    among the ``count`` ready tasks in :meth:`_World.ready_entries` order, or,
    with ``first_role``, among those of the first role that has any."""
    world = _World(app, config)
    # each executor's own ready list, updated in place as the run goes
    ready = [(role, world.executors[role].ready_tids()) for role in app.roles]
    while True:
        if world.failure:
            return world.finish(ERROR, world.failure)
        world.fire_due_events()
        count = sum(len(tids) for _, tids in ready)
        if not count:
            if all(world.executors[r].finished() for r in app.roles):
                return world.finish(TERMINATED)
            return world.finish(DEADLOCK)
        if world.steps >= config.max_steps:
            return world.finish(STEP_LIMIT, "step budget exhausted")
        if first_role:
            count = next(len(tids) for _, tids in ready if tids)
        i = choose(count)
        for role, tids in ready:
            if i < len(tids):
                break
            i -= len(tids)
        world.advance(role, tids[i])


def simulate(target: Target, config: SimConfig | None = None) -> SimReport:
    """One seeded, reproducible run."""
    config = config or SimConfig()
    app = _as_app(target)
    rng = random.Random(config.seed)
    return _execute(app, config, rng.randrange)


@dataclass
class ExplorationReport:
    paths: int
    outcomes: dict[str, int]
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
            max_paths: int = 20_000, reduce: bool = False) -> ExplorationReport:
    """Enumerate schedules of a (small) application, depth first.

    A path is the sequence of indices picked into the ready list at genuine
    decision points.  Each run follows a queued prefix, then takes choice 0
    to the end and queues the other choices it passed, so paths finish in
    lexicographic order.  Paths beyond ``max_paths`` leave ``complete``
    False; the verdict then only covers the explored portion.

    With ``reduce`` on, only the first ready role's tasks fan out: steps at
    different roles are taken to commute.  That under-approximates, since
    such steps can still race (on a shared service, or on a task another
    role's message wakes), and can miss final stores; the ``reduce`` xfail
    tests in ``tests/test_sim.py`` show two.  Full mode is the reference.
    """
    config = replace(config or SimConfig(), hash_trace=False)
    app = _as_app(target)
    outcomes: Counter[str] = Counter()
    finals: Counter[str] = Counter()
    deadlocks: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [()]
    paths = 0
    complete = True
    while stack:
        if paths >= max_paths:
            complete = False
            break
        prefix = stack.pop()
        path: list[int] = []
        widths: list[int] = []

        def choose(count: int) -> int:
            # Forced moves are not decision points; paths record only
            # genuine decisions, which keeps them short.
            if count == 1:
                return 0
            path.append(prefix[len(path)] if len(path) < len(prefix) else 0)
            widths.append(count)
            return path[-1]

        report = _execute(app, config, choose, first_role=reduce)
        paths += 1
        outcomes[report.outcome] += 1
        if report.outcome == DEADLOCK:
            deadlocks.append(tuple(path))
        key = json.dumps(report.final_states, sort_keys=True, default=repr)
        finals[key] += 1
        # Deepest on top: the next path is the deepest decision's next choice.
        for depth in range(len(prefix), len(path)):
            stack.extend((*path[:depth], k) for k in range(widths[depth] - 1, 0, -1))
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
