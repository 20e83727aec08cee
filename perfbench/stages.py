"""One timed, checked operation per pipeline stage.

Every call into chorad goes through a module attribute looked up at call
time (``sim.simulate``, not a name imported earlier), so the tracer's
wrappers see it.  Each ``*_op`` function runs one program through one stage
and returns an :class:`Op`: the seconds one call took, and the problems
found.  A problem is an exception, a stall or an output that disagrees with
the answer worked out in :mod:`programs`.

A short call is repeated until ``MIN_OP_S`` has passed and the mean is
kept, so timer noise does not swamp sub-millisecond operations.  Inputs a
call consumes (managers with published rules, service tables) are built
before each timed call.

Times are scaled to a reference host speed.  Shared hosts change speed by
tens of percent within seconds, and interpreted code slows with them.  So
each operation is bracketed by a fixed calibration that does not touch
chorad, and its time is multiplied by the calibration's reference time over
its mean time around the operation.  On a quiet host the scale is about
one, and the unit stays the second.  CPU-bound stages use a pure-Python
loop; ``run_all``, whose cost is one thread hand-off per message, uses two
threads passing a token, because hand-off latency drifts on its own.
"""

from __future__ import annotations

import gc
import importlib
import json
import random
import threading
import time
from dataclasses import dataclass, field

import programs as pg

adapt = importlib.import_module("chorad.adapt")
check = importlib.import_module("chorad.check")
live = importlib.import_module("chorad.live")
net = importlib.import_module("chorad.net")
parser = importlib.import_module("chorad.parser")
project = importlib.import_module("chorad.project")
services = importlib.import_module("chorad.services")
sim = importlib.import_module("chorad.sim")

STALL_S = 20.0   # a live role idle this long has stalled
MIN_OP_S = 0.02  # shorter calls are repeated and averaged
# Median times of the two calibrations on a 2-vCPU x86 container, Python 3.11.
REF_CALIBRATION_S = 0.0015
REF_HANDOFF_S = 0.0035


@dataclass
class Op:
    seconds: float = 0.0                          # one call, mean over repeats, scaled
    problems: list = field(default_factory=list)
    result: object = None                         # the first call's result


def calibration_loop() -> dict:
    d: dict = {}
    for i in range(4000):
        k = f"k{i % 97}"
        d[k] = d.get(k, 0) + i
        d[(i, k)] = [i]
    return d


def calibration_s() -> float:
    """Seconds the calibration loop takes now; the collector is off so the
    size of chorad's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def handoff_s(rounds: int = 200) -> float:
    """Seconds two threads take to pass a token back and forth ``rounds`` times."""
    cv, turn = threading.Condition(), [0]

    def peer():
        for _ in range(rounds):
            with cv:
                while turn[0] % 2 == 0:
                    cv.wait()
                turn[0] += 1
                cv.notify()

    thread = threading.Thread(target=peer)
    t0 = time.perf_counter()
    thread.start()
    for _ in range(rounds):
        with cv:
            turn[0] += 1
            cv.notify()
            while turn[0] % 2 == 1:
                cv.wait()
    thread.join()
    return time.perf_counter() - t0


def timed(prepare, call, judge, where: str, calibrate=calibration_s,
          reference: float = REF_CALIBRATION_S) -> Op:
    """Repeat ``call(prepare())`` until MIN_OP_S; ``judge`` checks the first
    result.  An exception ends the operation as a problem."""
    out, total, calls = Op(), 0.0, 0
    gc.collect()  # the previous operation's garbage is not this one's cost
    before = calibrate()
    try:
        while True:
            arg = prepare()
            t0 = time.perf_counter()
            result = call(arg)
            total += time.perf_counter() - t0
            calls += 1
            if calls == 1:
                out.result = result
                out.problems = judge(result)
            if total >= MIN_OP_S or out.problems:
                break
    except Exception as exc:  # any crash is a failed operation
        out.problems = [f"{where}: {type(exc).__name__}: {exc}"]
        out.result = None
        return out
    out.seconds = total / calls * reference / ((before + calibrate()) / 2)
    return out


def set_context(tracer, label: str) -> None:
    if tracer is not None:
        tracer.context = label


def label(stage: str, prog: pg.Prog) -> str:
    return f"{stage}:{prog.family}:{prog.size}"


def services_for(prog: pg.Prog) -> dict:
    if prog.services == "text":
        table = services.FunctionTable()
        table.register("charAt", lambda args: args[0][args[1]])
        table.shifter("shiftChar")
        return {pg.TEXT_ADDR: table}
    if prog.services == "next":
        return {pg.NEXT_ADDR: services.FunctionTable().scripted("next", pg.NEXT_SCRIPT)}
    return {}


def manager_for(prog: pg.Prog):
    """A manager whose one server holds the program's rules."""
    manager = adapt.AdaptationManager(adapt.Environment({"phase": "early"}))
    server = adapt.AdaptationServer("s0")
    if prog.rules and check.has_errors(server.publish(prog.rules)):
        raise ValueError(f"{prog.name}: rule set rejected")
    manager.register(server)
    return manager


def store_problems(prog: pg.Prog, stores: dict, how: str, roles=None) -> list[str]:
    """Where ``stores`` lacks a value the program's answer requires; only
    ``roles`` are judged when given."""
    out = []
    for role, want in prog.expected.items():
        if roles is not None and role not in roles:
            continue
        for var, value in want.items():
            got = stores.get(role, {}).get(var, "<unset>")
            if got != value:
                out.append(f"{how} {prog.name}: {role}.{var} = {got!r}, expected {value!r}")
    return out


# --------------------------------------------------------------------------
# compile
# --------------------------------------------------------------------------


def compile_op(prog: pg.Prog, tracer=None) -> Op:
    """``parse_program`` + ``check_program`` + ``project``; ``result`` is the app."""
    def call(_):
        program = parser.parse_program(prog.source)
        return check.check_program(program), project.project(program)

    def judge(result):
        flagged = check.has_errors(result[0])
        if flagged == (prog.verdict == "misbehaves"):
            return []
        return [f"check {prog.name}: errors reported = {flagged}"]

    set_context(tracer, label("compile", prog))
    op = timed(lambda: None, call, judge, f"compile {prog.name}")
    if op.result is not None:
        op.result = op.result[1]
    return op


def compile_all(progs) -> tuple[dict, list[str]]:
    """Untimed compile for set-up; returns apps and problems."""
    apps, problems = {}, []
    for prog in progs:
        op = compile_op(prog)
        problems += op.problems
        if op.result is not None:
            apps[prog.name] = op.result
    return apps, problems


# --------------------------------------------------------------------------
# sim
# --------------------------------------------------------------------------


def sim_config(prog: pg.Prog, seed: int, timeline_rules=()):
    """Seeded config.  A program with rules gets a manager holding them,
    built before the timer starts; ``timeline_rules`` are then published at
    seed-chosen steps, followed by one environment write."""
    manager = manager_for(prog) if prog.rules else None
    timeline = []
    if prog.rules and timeline_rules:
        rng = random.Random(f"timeline/{seed}/{prog.name}")
        steps = sorted(rng.sample(range(50, 2000), len(timeline_rules) + 1))
        timeline = [sim.TimelineEvent(at_step=s, kind="publish", server="s0", source=src)
                    for s, src in zip(steps, timeline_rules)]
        timeline.append(sim.TimelineEvent(at_step=steps[-1], kind="env", key="phase",
                                          value="late"))
    return sim.SimConfig(
        seed=seed,
        services_factory=(lambda: services_for(prog)) if prog.services else None,
        manager_factory=(lambda: manager) if manager is not None else None,
        timeline=timeline,
        hash_trace=False,
    )


def sim_op(prog: pg.Prog, app, seed: int, tracer=None, timeline_rules=()) -> Op:
    """One seeded ``simulate``; ``result`` is the report's final stores."""
    def judge(report):
        problems = store_problems(prog, report.final_states, "sim")
        if report.outcome != sim.TERMINATED or report.leaks:
            problems.append(f"sim {prog.name}: {report.outcome} {report.error or ''} "
                            f"{report.leaks[:2]}")
        rules = [rule for _scope, rule in report.applied_rules]
        if rules != prog.expected_rules:
            problems.append(f"sim {prog.name}: applied rules {rules[:3]}..., "
                            f"expected {prog.expected_rules[:3]}...")
        if prog.services == "next" and report.final_states not in pg.shared_service_finals():
            problems.append(f"sim {prog.name}: final stores are not a known answer")
        return problems

    set_context(tracer, label("sim", prog))
    op = timed(lambda: sim_config(prog, seed, timeline_rules),
               lambda config: sim.simulate(app, config), judge, f"sim {prog.name}")
    if op.result is not None:
        op.result = op.result.final_states
    return op


# --------------------------------------------------------------------------
# explore
# --------------------------------------------------------------------------


def verdict_problems(prog: pg.Prog, report, sim_stores) -> list[str]:
    """Compare an exploration report with the program's known answer.  An
    incomplete report is held to what its explored part must already show."""
    finals = [json.loads(key) for key in report.finals]
    clean = not report.deadlocks and set(report.outcomes) <= {sim.TERMINATED}
    where = f"explore {prog.name}"
    if prog.verdict == "misbehaves":
        if clean and len(finals) <= 1:
            return [f"{where}: negative control looked clean over {report.paths} paths"]
        return []
    if prog.verdict == "2-finals":
        known = pg.shared_service_finals()
        if any(f not in known for f in finals):
            return [f"{where}: a final store is not a known answer"]
        if report.complete and len(finals) != 2:
            return [f"{where}: {len(finals)} finals, expected 2"]
        return []
    problems = []
    if not clean:
        problems.append(f"{where}: outcomes {report.outcomes}, "
                        f"{len(report.deadlocks)} deadlocks")
    if len(finals) > 1:
        problems.append(f"{where}: {len(finals)} distinct finals")
    for f in finals:
        problems += store_problems(prog, f, "explore")
        if sim_stores is not None and f != sim_stores:
            problems.append(f"{where}: final stores differ from simulate's")
    return problems


def explore_op(prog: pg.Prog, app, budget: int, sim_stores=None, tracer=None) -> Op:
    """``explore`` in full mode; ``result`` is whether it reached a complete verdict."""
    config = sim.SimConfig(
        services_factory=(lambda: services_for(prog)) if prog.services else None,
        manager_factory=(lambda: manager_for(prog)) if prog.rules else None)
    set_context(tracer, label("explore", prog))
    op = timed(lambda: None, lambda _: sim.explore(app, config, max_paths=budget),
               lambda report: verdict_problems(prog, report, sim_stores),
               f"explore {prog.name}")
    if op.result is not None:
        op.result = op.result.complete
    return op


# --------------------------------------------------------------------------
# live: in-process and TCP
# --------------------------------------------------------------------------


def inproc_op(prog: pg.Prog, app, tracer=None) -> Op:
    """One ``run_all``; ``result`` is the final stores."""
    managers = []

    def prepare():
        managers.append(manager_for(prog) if prog.rules else None)
        return managers[-1], services_for(prog)

    def judge(report):
        problems = store_problems(prog, report.final_states, "run_all")
        if report.errors:
            problems.append(f"run_all {prog.name}: {report.errors}")
        if managers[0] is not None:
            rules = [rule for _scope, rule in managers[0].match_log if rule is not None]
            if rules != prog.expected_rules:
                problems.append(f"run_all {prog.name}: applied rules differ")
        return problems

    set_context(tracer, label("inproc", prog))
    op = timed(prepare, lambda arg: live.run_all(app, manager=arg[0], services=arg[1],
                                                 stall_timeout=STALL_S),
               judge, f"run_all {prog.name}", handoff_s, REF_HANDOFF_S)
    if op.result is not None:
        op.result = op.result.final_states
    return op


def wait_for_starter(port: int, timeout: float) -> None:
    """Poll the starter's ``ping`` until it answers."""
    address = f"socket://localhost:{port}"
    deadline = time.monotonic() + timeout
    while True:
        try:
            if net.request(address, {"kind": "ping"}, timeout=1.0).get("kind") == "pong":
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise TimeoutError(f"starter at {address} never answered ping")
        time.sleep(0.005)


def other_role(app) -> str:
    return next(r for r in app.roles if r != app.starter)


def tcp_run(prog: pg.Prog, app, starter: bool, port: int) -> dict:
    """One ``run_role`` call on loopback; returns the role's final store.
    The starter listens on ``port`` and holds the manager; its peer takes
    any free port."""
    if starter:
        manager = manager_for(prog) if prog.rules else None
        return live.run_role(app, app.starter, address=f"socket://localhost:{port}",
                             manager=manager, services=services_for(prog),
                             stall_timeout=STALL_S)
    return live.run_role(app, other_role(app), address="socket://localhost:0",
                         starter_address=f"socket://localhost:{port}",
                         services=services_for(prog), stall_timeout=STALL_S)
