#!/usr/bin/env python3
"""chorad benchmark: end-to-end costs in user units, per-layer costs traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a chorad checkout; it imports chorad from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A workload is split into parts, and every part runs in fresh interpreters
so that one live run's leftovers (threads, sockets, heap) never slow the
next:

* ``main``: compile, simulate and explore;
* ``inproc``: ``run_all``;
* ``tcp``: two processes, one ``run_role`` each, on loopback.

An untraced run runs only ``main``; a traced run runs every part, once
untraced and once traced.  Each part runs ``CHILDREN`` times.  A child
repeats rounds over its programs until its share of ``--seconds`` is
spent.  Each program's cost is the median of its timings over all rounds of
all children, which keeps bursts of a shared machine out of the figure; a
stage's metric is the sum of those medians divided by the units the
programs define.  ``setup_s`` is the median time from spawning a ``main``
child to the start of its first timed operation.

``--workload probes`` runs the robustness probes (inputs that fail at this
commit) and reports only ``failed_share``.  It is not one of the
benchmark's workloads because its operations are expected to fail.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
CHILDREN = 3          # children per part; setup_s is the median of their set-ups
RUN_LIMIT_S = 170.0   # the whole run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "compile_us_per_stmt": "us",
    "sim_us_per_interaction": "us",
    "explore_s": "s",
    "peak_rss_mb": "MB",
}

# metric -> (stage whose timings it sums, program attribute it divides by)
STAGE_METRICS = {
    "compile_us_per_stmt": ("compile", "stmts"),
    "sim_us_per_interaction": ("sim", "interactions"),
    "explore_s": ("explore", None),
}
# The live stages run only in the traced run; their costs are per-layer
# metrics, measured by its untraced half.
LIVE_METRICS = {
    "live.inproc_us_per_interaction": ("inproc", "interactions"),
    "net.tcp_us_per_interaction": ("tcp", "interactions"),
}


# ==========================================================================
# Child processes
# ==========================================================================


class Record:
    """What one child reports: set-up time, per-program timings, failures,
    the first round's final stores, and the tracer's totals."""

    def __init__(self, setup_s: float):
        self.data = {"setup_s": setup_s, "times": {}, "ops": 0, "failed": 0,
                     "problems": [], "stores": {}, "decided": {}}

    def op(self, stage: str, prog, op) -> None:
        self.data["ops"] += 1
        if op.problems:
            self.data["failed"] += 1
            self.data["problems"] += op.problems[:3]
            return
        self.data["times"].setdefault(stage, {}).setdefault(prog.name, []).append(op.seconds)

    def fail(self, problems) -> None:
        self.data["ops"] += len(problems)
        self.data["failed"] += len(problems)
        self.data["problems"] += problems


def setup_seconds(stages, t0: float) -> float:
    """Time since the child was spawned, scaled to the reference host speed
    like every CPU-bound timing (see ``stages``)."""
    elapsed = time.monotonic() - t0
    speed = statistics.median(stages.calibration_s() for _ in range(3))
    return elapsed * stages.REF_CALIBRATION_S / speed


class Budget:
    """Rounds until ``seconds`` have passed.  The first round always runs
    whole, so every program gets a timing; later ones stop mid-round."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds
        self.round = 0

    def rounds(self):
        while not self.spent():
            yield self.round
            self.round += 1

    def spent(self) -> bool:
        return self.round > 0 and time.monotonic() >= self.end


def set_up(stages, progs, args, ready=None) -> tuple[dict, Record]:
    """Compile what the child runs, then freeze the heap so that garbage
    collection during timed calls does not scan the benchmark's own data.
    Set-up ends when ``ready()`` returns."""
    apps, problems = stages.compile_all(list({p.name: p for p in progs}.values()))
    gc.collect()
    gc.freeze()
    if ready is not None:
        ready()
    rec = Record(setup_seconds(stages, args.t0))
    rec.fail(problems)
    return apps, rec


def main_child(stages, spec, args, tracer, _ports) -> dict:
    apps, rec = set_up(stages, spec.sim + spec.explore, args)
    sim_stores: dict = {}
    budget = Budget(args.budget)
    for n in budget.rounds():
        for prog in spec.compile:
            if budget.spent():
                break
            rec.op("compile", prog, stages.compile_op(prog, tracer))
        for prog in spec.sim:
            if prog.name in apps and not budget.spent():
                op = stages.sim_op(prog, apps[prog.name], args.seed, tracer,
                                   spec.timeline_rules)
                rec.op("sim", prog, op)
                if n == 0 and op.result is not None:
                    sim_stores[prog.name] = rec.data["stores"][prog.name] = op.result
        for prog in spec.explore:
            if prog.name in apps and not budget.spent():
                op = stages.explore_op(prog, apps[prog.name], spec.explore_budget,
                                       sim_stores.get(prog.name), tracer)
                rec.op("explore", prog, op)
                if n == 0 and op.result is not None:
                    rec.data["decided"][prog.name] = op.result
        stages.set_context(tracer, "between")
    return rec.data


def inproc_child(stages, spec, args, tracer, _ports) -> dict:
    apps, rec = set_up(stages, spec.inproc, args)
    budget = Budget(args.budget)
    for n in budget.rounds():
        for prog in spec.inproc:
            if prog.name in apps and not budget.spent():
                op = stages.inproc_op(prog, apps[prog.name], tracer)
                rec.op("inproc", prog, op)
                if n == 0 and op.result is not None:
                    rec.data["stores"][prog.name] = op.result
        stages.set_context(tracer, "between")
    return rec.data


def tcp_child(stages, spec, args, tracer, ports) -> dict:
    """The measuring side of a tcp pair: runs the non-starter role of each
    program once.  The timer starts once the starter answers ``ping``."""
    stages.set_context(tracer, "tcp-ready")
    apps, rec = set_up(stages, spec.tcp, args, lambda: stages.wait_for_starter(ports[0], 60.0))
    runs = 0
    for prog in [] if rec.data["failed"] else spec.tcp:
        app = apps[prog.name]
        role = stages.other_role(app)
        if runs:
            stages.set_context(tracer, "tcp-ready")
            stages.wait_for_starter(ports[runs], 60.0)
        stages.set_context(tracer, stages.label("tcp", prog))
        op = stages.Op()
        try:
            t0 = time.perf_counter()
            store = stages.tcp_run(prog, app, False, ports[runs])
            op.seconds = time.perf_counter() - t0
            op.problems = stages.store_problems(prog, {role: store}, "tcp", [role])
        except Exception as exc:  # a failed or stalled role
            op.problems = [f"run_role {prog.name}/{role}: {type(exc).__name__}: {exc}"]
        runs += 1
        rec.op("tcp", prog, op)
        if op.problems:
            break
        rec.data["stores"][prog.name] = {role: store}
    stages.set_context(tracer, "between")
    rec.data["runs"] = runs
    return rec.data


def tcp_starter_child(stages, spec, args, tracer, ports) -> None:
    """The other side of a tcp pair: runs the starter role on each port in
    turn and prints one JSON line per finished run, until it is stopped."""
    apps, problems = stages.compile_all(spec.tcp)
    for k, port in enumerate(ports):
        prog = spec.tcp[k % len(spec.tcp)]
        app = apps.get(prog.name)
        line = {"k": k, "prog": prog.name, "problems": list(problems)}
        if app is not None:
            line["role"] = app.starter
            stages.set_context(tracer, stages.label("tcp", prog))
            try:
                store = stages.tcp_run(prog, app, True, port)
                line["store"] = store
                line["problems"] = stages.store_problems(
                    prog, {app.starter: store}, "tcp", [app.starter])
            except Exception as exc:  # a failed or stalled role
                line["problems"] = [f"run_role {prog.name}/{app.starter}: "
                                    f"{type(exc).__name__}: {exc}"]
            stages.set_context(tracer, "between")
        finish(line, tracer, args)
        print(json.dumps(line), flush=True)


TCP_PROBE_RUNS = 12


def probe_child(stages, probe) -> dict:
    """Run one probe; any exception, stall or wrong store is its failure.
    A tcp probe runs both roles here, on threads, up to TCP_PROBE_RUNS times."""
    stage, prog = probe
    apps, problems = stages.compile_all([prog])
    if not problems and stage == "compile":
        problems = stages.sim_op(prog, apps[prog.name], 0).problems
    for _ in range(TCP_PROBE_RUNS if not problems and stage == "tcp" else 0):
        port, stores = free_ports(1)[0], {}

        def starter():
            try:
                stores["a"] = stages.tcp_run(prog, apps[prog.name], True, port)
            except Exception as exc:  # reported below as the probe's failure
                problems.append(f"run_role a: {type(exc).__name__}: {exc}")

        thread = threading.Thread(target=starter)
        thread.start()
        try:
            stages.wait_for_starter(port, 30.0)
            stores["b"] = stages.tcp_run(prog, apps[prog.name], False, port)
        except Exception as exc:
            problems.append(f"run_role b: {type(exc).__name__}: {exc}")
        thread.join()
        problems += stages.store_problems(prog, stores, "tcp")
        if problems:
            break
    return {"ops": 1, "failed": int(bool(problems)), "problems": problems[:3]}


def finish(result: dict, tracer, args) -> None:
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
        OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / "spans" / f"{args.workload}-{args.child}-{args.index}.jsonl")


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import stages
    import workloads
    from tracer import Tracer, install

    tracer = install(Tracer()) if args.trace else None
    ports = [int(p) for p in args.ports.split(",")] if args.ports else []
    if args.child == "probe":
        result = probe_child(stages, workloads.probes()[args.index])
    else:
        spec = workloads.WORKLOADS[args.workload](args.seed)
        run = {"main": main_child, "inproc": inproc_child, "tcp": tcp_child,
               "tcp-starter": tcp_starter_child}[args.child]
        result = run(stages, spec, args, tracer, ports)
        if result is None:
            return 0
    finish(result, tracer, args)
    print(json.dumps(result))
    return 0


# ==========================================================================
# Parent
# ==========================================================================


def failed_child(problem: str) -> dict:
    return {"setup_s": math.nan, "times": {}, "ops": 1, "failed": 1, "problems": [problem],
            "stores": {}, "decided": {}, "rss_mb": 0.0}


def parse_child(part: str, proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return failed_child(f"{part}: exited with {proc.returncode}: {tail}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return failed_child(f"{part}: unreadable result line")


def read_lines(stream, lines: list) -> None:
    for raw in stream:
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError:
            continue


def free_ports(count: int) -> list[int]:
    """Distinct loopback ports that were free a moment ago."""
    socks = []
    try:
        for _ in range(count):
            s = socket.socket()
            s.bind(("localhost", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class Runner:
    """Spawns the children of one benchmark run and collects their results."""

    def __init__(self, args, spec=None):
        self.args = args
        self.spec = spec
        self.start = time.monotonic()

    def command(self, part: str, budget: float, index: int, trace: bool, ports=()):
        a = self.args
        cmd = [sys.executable, str(HERE / "run.py"), "--child", part,
               "--workload", a.workload, "--seed", str(a.seed), "--budget", f"{budget:.3f}",
               "--trace", str(int(trace)), "--index", str(index)]
        if ports:
            cmd += ["--ports", ",".join(map(str, ports))]
        return cmd + ["--t0", repr(time.monotonic())]

    def spawn(self, part: str, budget: float, index: int, trace: bool, ports=()) -> dict:
        left = RUN_LIMIT_S - (time.monotonic() - self.start)
        try:
            proc = subprocess.run(self.command(part, budget, index, trace, ports),
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(5.0, min(left, budget + 90.0)))
        except subprocess.TimeoutExpired:
            return failed_child(f"{part}: stalled past its time limit")
        return parse_child(part, proc)

    def spawn_tcp(self, index: int, trace: bool) -> dict:
        """Start the starter, run the measuring side, then stop the starter
        once it has reported every run the measuring side made."""
        ports = free_ports(len(self.spec.tcp))
        starter = subprocess.Popen(self.command("tcp-starter", 0.0, index, trace, ports),
                                   stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                   text=True, cwd=ROOT)
        lines: list[dict] = []
        reader = threading.Thread(target=read_lines, args=(starter.stdout, lines))
        reader.start()
        try:
            result = self.spawn("tcp", 0.0, index, trace, ports)
            runs = result.get("runs", 0)
            deadline = time.monotonic() + 30.0
            while len(lines) < runs and starter.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            starter.terminate()
            try:
                starter.wait(5)
            except subprocess.TimeoutExpired:
                starter.kill()
                starter.wait()
            reader.join()
        done = lines[:runs]
        if len(done) < runs:
            result["ops"] += 1
            result["failed"] += 1
            result["problems"].append(f"tcp starter reported {len(done)} of {runs} runs")
        for line in done:
            result["ops"] += 1
            if line["problems"]:
                result["failed"] += 1
                result["problems"] += line["problems"]
            elif line["prog"] in result["stores"]:
                result["stores"][line["prog"]].setdefault(line["role"], line["store"])
        if done:
            result["rss_mb"] = max(result["rss_mb"], max(d["rss_mb"] for d in done))
            if "trace" in done[-1]:
                result["trace_starter"] = done[-1]["trace"]
        return result

    def run_parts(self, spec, seconds: float, trace: bool, live: bool) -> dict:
        """Every part's children, interleaved so drift hits all parts alike.
        Without ``live`` only the main part runs, on all of ``seconds``."""
        weights = spec.weights if live else {"main": 1.0}
        results: dict = {part: [] for part in weights}
        if live:
            results["tcp"] = []
        for index in range(CHILDREN):
            for part, weight in weights.items():
                results[part].append(self.spawn(part, seconds * weight / CHILDREN, index, trace))
            if live:
                results["tcp"].append(self.spawn_tcp(index, trace))
        return results


def cross_check(results: dict) -> tuple[int, list[str]]:
    """Live final stores must equal simulate's, program by program."""
    sim_stores: dict = {}
    for child in results.get("main", []):
        for name, stores in child["stores"].items():
            sim_stores.setdefault(name, stores)
    checks, problems = 0, []
    for part in ("inproc", "tcp"):
        for child in results.get(part, []):
            for name, stores in child["stores"].items():
                if name not in sim_stores:
                    continue  # judged by its closed-form answer alone
                for role, store in stores.items():
                    checks += 1
                    want = sim_stores[name].get(role)
                    if store != want:
                        problems.append(f"{part} {name}/{role}: final store {store} "
                                        f"differs from simulate's {want}")
    return checks, problems


def tally(results: dict) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, cross-checks included."""
    attempted, problems = cross_check(results)
    failed = len(problems)
    for children in results.values():
        for child in children:
            attempted += child["ops"]
            failed += child["failed"]
            problems = problems + child["problems"]
    return attempted, failed, problems


def stage_cost(results: dict, stage: str, progs: dict, unit: str | None) -> float:
    """Sum over programs of their median time, per unit (µs) or whole (s).
    A tcp run takes the mean instead: run_role returns either at once or
    after its server's 0.5 s shutdown poll, and the median of such a
    two-valued sample jumps between the two while the mean moves smoothly."""
    times: dict[str, list[float]] = {}
    for children in results.values():
        for child in children:
            for name, values in child["times"].get(stage, {}).items():
                times.setdefault(name, []).extend(values)
    centre = statistics.fmean if stage == "tcp" else statistics.median
    total = sum(centre(v) for v in times.values())
    if unit is None:
        return total
    units = sum(getattr(progs[name], unit) for name in times)
    return 1e6 * total / units if units else 0.0


def end_to_end(spec, results: dict) -> dict:
    progs = spec.programs()
    values = {name: stage_cost(results, stage, progs, unit)
              for name, (stage, unit) in STAGE_METRICS.items()}
    values["setup_s"] = statistics.median(
        [c["setup_s"] for c in results["main"] if not math.isnan(c["setup_s"])] or [0.0])
    values["peak_rss_mb"] = max(c["rss_mb"] for cs in results.values() for c in cs)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def describe(results: dict) -> None:
    """Human-readable detail ahead of the result line."""
    for part, children in results.items():
        counts: dict[str, int] = {}
        for child in children:
            for stage, per in child["times"].items():
                counts[stage] = counts.get(stage, 0) + sum(len(v) for v in per.values())
        setups = ", ".join(f"{c['setup_s']:.3f}" for c in children)
        print(f"part {part}: set-up [{setups}] s; timed operations {counts}")
    decided = [d for child in results.get("main", []) for d in child["decided"].values()]
    if decided:
        print(f"explore: {sum(decided)} of {len(decided)} verdicts complete within the budget")


def run_probes(runner: Runner) -> dict:
    import workloads

    children = [runner.spawn("probe", 10.0, i, False) for i in range(len(workloads.probes()))]
    attempted = sum(c["ops"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for p in c["problems"]:
            print(f"probe: {p[:200]}", file=sys.stderr)
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"failed_share": {"value": failed / attempted, "unit": "ratio"}}}


def parent_main(args) -> int:
    if not (ROOT / "src" / "chorad" / "__init__.py").is_file():
        print(f"no chorad sources under {ROOT / 'src'}; run from a chorad checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    if args.workload == "probes":
        print(json.dumps(run_probes(Runner(args))))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(args, spec)
    if args.trace:
        # Untraced and traced children split the time; their difference is
        # the tracing overhead.
        plain = runner.run_parts(spec, args.seconds * 0.4, False, live=True)
        traced = runner.run_parts(spec, args.seconds * 0.6, True, live=True)
        attempted, failed, problems = (a + b for a, b in zip(tally(plain), tally(traced)))
        progs = spec.programs()
        stages = [stage for stage, _ in {**STAGE_METRICS, **LIVE_METRICS}.values()]
        base = sum(stage_cost(plain, stage, progs, None) for stage in stages)
        extra = sum(stage_cost(traced, stage, progs, None) for stage in stages) - base
        measured = {name: stage_cost(plain, stage, progs, unit)
                    for name, (stage, unit) in LIVE_METRICS.items()}
        measured["trace.overhead_s"] = extra
        measured["trace.overhead_share"] = extra / base
        metrics = layers.per_layer(spec, traced, ROOT / "src" / "chorad", measured)
    else:
        results = runner.run_parts(spec, args.seconds, False, live=False)
        attempted, failed, problems = tally(results)
        metrics = end_to_end(spec, results)
        describe(results)
    for problem in problems[:20]:
        print(f"problem: {problem[:300]}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    ap.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--ports", default="", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, default=0.0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
