#!/usr/bin/env python3
"""Write a ``BENCH_<n>.json`` snapshot of the benchmark at fixed seeds.

    python3 tools/bench_snapshot.py --out BENCH_10.json
    python3 tools/bench_snapshot.py --root ../parent --out parent.json

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``) in
the checkout ``--root`` on each of its workloads for its ``run_seconds``:
once per seed of ``SEEDS`` with ``--trace 0`` and once with ``--trace 1``,
one run at a time.  Seeds and run length are fixed so that any two
snapshots compare.  The snapshot holds, per workload, the median and the
runs of every end-to-end metric and the median of every per-layer metric
a traced run prints, plus ``src_lines``.  It also runs the tier-1 tests
of ``--root`` once (``python -m pytest`` with ``src`` on the path) and
records their wall time, their summary line and the ``TOP_DURATIONS``
slowest entries that ``--durations`` prints.
Standard library only; a run takes about 25 s untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103)
TOP_DURATIONS = 10
#: One entry of pytest's ``--durations`` report: seconds, phase, test id.
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*)$")


def run(root: Path, command: list[str], workload: str, seed: int, trace: int,
        seconds: int) -> dict:
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return result


def tier1(root: Path) -> dict:
    """One run of the tier-1 tests: wall time, summary and slowest entries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider", f"--durations={TOP_DURATIONS}"]
    started = time.perf_counter()
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - started
    lines = out.stdout.splitlines()
    durations = [{"s": float(m[1]), "phase": m[2], "test": m[3]}
                 for m in map(DURATION.match, lines) if m]
    summary = next((line.strip("= ") for line in reversed(lines) if line.strip()), "")
    print(f"tier-1: {summary} ({wall_s:.1f} s)", file=sys.stderr)
    return {"wall_s": round(wall_s, 1), "exit_code": out.returncode, "summary": summary,
            "durations": durations[:TOP_DURATIONS]}


def snapshot(root: Path) -> dict:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads: dict[str, dict] = {}
    for w in [spec["name"] for spec in bench["workloads"]]:
        plain = [run(root, bench["command"], w, s, 0, seconds) for s in SEEDS]
        traced = [run(root, bench["command"], w, s, 1, seconds) for s in SEEDS]
        end_to_end = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            end_to_end[m["name"]] = {"median": statistics.median(values), "runs": values,
                                     "unit": m["unit"]}
        per_layer = {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                     for name in traced[0]["metrics"] if name != "src_lines"}
        src_lines = traced[0]["metrics"]["src_lines"]["value"]
        workloads[w] = {
            "correct": all(r["correct"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    return {
        "command": bench["command"],
        "seeds": list(SEEDS),
        "seconds": seconds,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "src_lines": src_lines,
        "tier1": tier1(root),
        "workloads": workloads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="file to write")
    ap.add_argument("--root", default=str(ROOT), help="checkout to benchmark")
    ns = ap.parse_args()
    data = snapshot(Path(ns.root).resolve())
    Path(ns.out).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
