"""Per-layer metrics from the traced children's span totals.

Span and counter totals arrive keyed by context label
``stage:family:size`` (stage is compile, sim, explore, inproc or tcp).
Units come from the workload's own programs, never from chorad: the
statements of each compiled program and the interactions of each run.
Counts are given per operation (one program through one stage: a run,
an exploration, a tcp run), so they do not depend on how many operations
fit in the run.

Which end-to-end metric each should move, and on which workload:

* parser/check/project ``us_per_stmt`` and ``growth`` -> compile_us_per_stmt
  on compile-large; ``parser.calls``/``us_per_call`` (replacement bodies
  re-parsed at scope entry), ``project.rule_body_*`` -> sim_us_per_interaction
  on adapt-churn; ``check.rule_us`` -> setup_s on adapt-churn.
* ``runtime.steps``/``step_us``/``msgs_per_interaction`` ->
  sim_us_per_interaction and the live costs on loop-run;
  ``runtime.start_us`` -> explore_s.
* ``adapt.*`` -> sim_us_per_interaction and ``live.inproc_us_per_interaction``
  on adapt-churn (zero on loop-run).
* ``sim.us_per_step``/``growth``/``sched_self_us`` -> sim_us_per_interaction
  on loop-run; ``explore.*`` -> explore_s.
* ``live.*`` and ``net.*``: the live costs themselves
  (``live.inproc_us_per_interaction``, ``net.tcp_us_per_interaction``) and
  what moves them.  They are per-layer metrics because they do not hold
  still enough on a shared host for an end-to-end bound.
* ``services.*`` -> sim_us_per_interaction on compile-large (fork-join) and
  explore_s (shared-service program).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

PER_LAYER = {
    "parser.us_per_stmt": "us",
    "parser.growth": "ratio",
    "parser.calls": "count",
    "parser.us_per_call": "us",
    "check.us_per_stmt": "us",
    "check.growth": "ratio",
    "check.rule_us": "us",
    "project.us_per_stmt": "us",
    "project.growth": "ratio",
    "project.rule_body_calls": "count",
    "project.rule_body_us": "us",
    "runtime.steps": "count",
    "runtime.step_us": "us",
    "runtime.msgs_per_interaction": "ratio",
    "runtime.start_us": "us",
    "adapt.matches": "count",
    "adapt.rules": "count",
    "adapt.match_us_p50": "us",
    "adapt.match_us_p90": "us",
    "adapt.hit_ratio": "ratio",
    "adapt.publish_us": "us",
    "sim.us_per_step": "us",
    "sim.growth": "ratio",
    "sim.sched_self_us": "us",
    "explore.paths": "count",
    "explore.us_per_path": "us",
    "explore.decided_share": "ratio",
    "live.inproc_us_per_interaction": "us",
    "live.us_per_msg": "us",
    "live.role_threads": "count",
    "net.tcp_us_per_interaction": "us",
    "net.connections": "count",
    "net.bytes_per_msg": "B",
    "net.send_us": "us",
    "services.calls": "count",
    "services.call_us": "us",
    "src_lines": "lines",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Merged:
    """Span totals, counters and samples summed over traced children."""

    def __init__(self, results: dict):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, ctx) -> calls, incl, self
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.samples = defaultdict(list)
        for children in results.values():
            for child in children:
                for key in ("trace", "trace_starter"):
                    if key in child:
                        self._add(child[key])

    def _add(self, summary: dict) -> None:
        for name, ctx, calls, incl, self_s in summary["totals"]:
            row = self.spans[(name, ctx)]
            row[0] += calls
            row[1] += incl
            row[2] += self_s
        for name, ctx, value in summary["counts"]:
            if name == "adapt.rules":
                self.maxima[name] = max(self.maxima[name], value)
            else:
                self.counts[(name, ctx)] += value
        for name, values in summary["samples"].items():
            self.samples[name] += values

    def span(self, name: str, stages=None) -> tuple[float, float, float]:
        calls = incl = self_s = 0.0
        for (n, ctx), (c, i, s) in self.spans.items():
            if n == name and (stages is None or ctx.split(":")[0] in stages):
                calls, incl, self_s = calls + c, incl + i, self_s + s
        return calls, incl, self_s

    def count(self, name: str, stages=None) -> float:
        return sum(v for (n, ctx), v in self.counts.items()
                   if n == name and (stages is None or ctx.split(":")[0] in stages))

    def ops(self, stage: str) -> float:
        """Top-level operations of a stage: one per program it ran."""
        top = {"compile": "parser.parse_program", "sim": "sim.simulate",
               "explore": "sim.explore", "inproc": "live.run_all", "tcp": "live.run_role"}
        calls = self.span(top[stage], {stage})[0]
        return calls / 2 if stage == "tcp" else calls  # both roles call run_role

    def by_context(self, name: str, stage: str):
        """{(family, size): (calls, incl, self)} for one span in one stage."""
        out = {}
        for (n, ctx), row in self.spans.items():
            parts = ctx.split(":")
            if n == name and parts[0] == stage and len(parts) == 3:
                out[(parts[1], int(parts[2]))] = row
        return out


def _programs(spec) -> dict:
    """(family, size) -> program, over every stage of the workload."""
    return {(p.family, p.size): p for p in spec.programs().values()}


def _unit_cost(merged: Merged, name: str, stage: str, progs: dict, unit: str,
               counter: str | None = None):
    """Per-(family, size) microseconds per unit, and the overall figure."""
    per_size, total_t, total_u = {}, 0.0, 0.0
    for key, (calls, incl, _self) in merged.by_context(name, stage).items():
        prog = progs.get(key)
        if prog is None:
            continue
        if counter is not None:
            units = merged.counts.get((counter, f"{stage}:{key[0]}:{key[1]}"), 0.0)
        else:
            units = calls * getattr(prog, unit)
        if units:
            per_size[key] = 1e6 * incl / units
            total_t += incl
            total_u += units
    return per_size, 1e6 * _ratio(total_t, total_u)


def _growth(per_size: dict) -> float:
    """Largest over smallest unit cost, worst family with two sizes or more."""
    families = defaultdict(dict)
    for (family, size), cost in per_size.items():
        families[family][size] = cost
    ratios = [_ratio(costs[max(costs)], costs[min(costs)])
              for costs in families.values() if len(costs) > 1]
    return max(ratios, default=0.0)


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def src_lines(src: Path) -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in src.glob("*.py"))


def per_layer(spec, traced: dict, src: Path, measured: dict) -> dict:
    """Every per-layer metric from the traced children's results, plus the
    ``measured`` ones the caller worked out from the untraced children: the
    live stages' costs and the tracing overhead, which is the traced minus
    the untraced time of one round (one timing of every program in every
    stage)."""
    m = Merged(traced)
    progs = _programs(spec)
    v: dict[str, float] = {}

    for layer, fn in (("parser", "parser.parse_program"), ("check", "check.check_program"),
                      ("project", "project.project")):
        per_size, overall = _unit_cost(m, fn, "compile", progs, "stmts")
        v[f"{layer}.us_per_stmt"] = overall
        v[f"{layer}.growth"] = _growth(per_size)

    run_stages = {"sim", "inproc", "tcp"}
    runs = sum(m.ops(stage) for stage in run_stages)

    def per_run(span: str) -> float:
        return _ratio(m.span(span, run_stages)[0], runs)

    def mean_us(span: str, stages=None) -> float:
        calls, incl, _ = m.span(span, stages)
        return 1e6 * _ratio(incl, calls)

    v["parser.calls"] = per_run("parser.parse_behaviour")
    v["parser.us_per_call"] = mean_us("parser.parse_behaviour")
    v["check.rule_us"] = mean_us("check.check_rule")
    v["project.rule_body_calls"] = per_run("project.project_rule_body")
    v["project.rule_body_us"] = mean_us("project.project_rule_body")

    calls, _incl, self_s = m.span("runtime.step")
    v["runtime.steps"] = per_run("runtime.step")
    v["runtime.step_us"] = 1e6 * _ratio(self_s, calls)
    interactions = 0.0
    for stage, span in (("sim", "sim.simulate"), ("inproc", "live.run_all"),
                        ("tcp", "live.run_role")):
        for key, (c, _i, _s) in m.by_context(span, stage).items():
            if key in progs:
                n = c / 2 if stage == "tcp" else c  # both roles call run_role
                interactions += n * progs[key].interactions
    v["runtime.msgs_per_interaction"] = _ratio(m.count("runtime.msgs", run_stages),
                                               interactions)
    executors, init, _ = m.span("runtime.init")
    v["runtime.start_us"] = 1e6 * _ratio(init + m.span("runtime.start")[1], executors)

    calls, _incl, _ = m.span("adapt.handle_match")
    v["adapt.matches"] = per_run("adapt.handle_match")
    v["adapt.rules"] = m.maxima["adapt.rules"]
    matches = [1e6 * s for s in m.samples["adapt.handle_match"]]
    v["adapt.match_us_p50"] = _percentile(matches, 50)
    v["adapt.match_us_p90"] = _percentile(matches, 90)
    v["adapt.hit_ratio"] = _ratio(m.count("adapt.matched"), calls)
    v["adapt.publish_us"] = mean_us("adapt.publish")

    per_size, overall = _unit_cost(m, "sim.simulate", "sim", progs, "", counter="sim.steps")
    v["sim.us_per_step"] = overall
    v["sim.growth"] = _growth(per_size)
    _calls, _incl, self_s = m.span("sim.simulate", {"sim"})
    v["sim.sched_self_us"] = 1e6 * _ratio(self_s, m.count("sim.steps", {"sim"}))
    calls, incl, _ = m.span("sim.explore")
    paths = m.count("explore.paths")
    v["explore.paths"] = _ratio(paths, calls)
    v["explore.us_per_path"] = 1e6 * _ratio(incl, paths)
    v["explore.decided_share"] = _ratio(m.count("explore.decided"), calls)

    calls, incl, _ = m.span("live.run_all")
    v["live.us_per_msg"] = 1e6 * _ratio(incl, m.count("runtime.msgs", {"inproc"}))
    v["live.role_threads"] = _ratio(m.span("runtime.init", {"inproc"})[0], calls)

    sends = m.span("net.send_line", {"tcp"})[0]
    connections = sends + m.span("net.request", {"tcp"})[0]
    v["net.connections"] = _ratio(connections, m.ops("tcp"))
    v["net.bytes_per_msg"] = _ratio(m.count("net.bytes", {"tcp"}), connections)
    v["net.send_us"] = mean_us("net.send_line", {"tcp"})

    v["services.calls"] = per_run("services.call")
    v["services.call_us"] = mean_us("services.call")

    v["src_lines"] = float(src_lines(src))
    v.update(measured)
    return {name: {"value": v[name], "unit": unit} for name, unit in PER_LAYER.items()}
