"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that correct outputs pass, and that a wrong expected output, an
exception and a wrong verdict are each counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import programs as pg  # noqa: E402
import run  # noqa: E402
import stages  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def tiny_spec() -> workloads.Spec:
    seq, fork = pg.pipe_seq(3, 7), pg.fork_join(3, 7)
    boost = pg.pipe(4, 7, boosted=2)
    return workloads.Spec(compile=[seq, fork, boost], sim=[seq, fork, boost],
                          explore=[pg.pipe_seq(0, 7), pg.duplicated_notify()],
                          explore_budget=1000, inproc=[seq, fork, boost], tcp=[seq],
                          timeline_rules=pg.idle_rules(2, 7))


def compiled(progs) -> dict:
    apps, problems = stages.compile_all(progs)
    assert problems == []
    return apps


def wrong(prog: pg.Prog) -> pg.Prog:
    """The same program with one expected value off by one."""
    role, want = next((r, w) for r, w in prog.expected.items() if w)
    var, value = next(iter(want.items()))
    bad = value + 1 if isinstance(value, int) else value + "?"
    return dataclasses.replace(prog, expected={**prog.expected, role: {**want, var: bad}})


def test_correct_outputs_pass_every_stage():
    spec = tiny_spec()
    apps = compiled(spec.compile + spec.explore)
    stores = {}
    for prog in spec.sim:
        op = stages.sim_op(prog, apps[prog.name], 7, timeline_rules=spec.timeline_rules)
        assert op.problems == [] and op.seconds > 0
        stores[prog.name] = op.result
    decided = []
    for prog in spec.explore:
        op = stages.explore_op(prog, apps[prog.name], spec.explore_budget,
                               stores.get(prog.name))
        assert op.problems == []
        decided.append(op.result)
    assert decided == [True, False]
    for prog in spec.inproc:
        op = stages.inproc_op(prog, apps[prog.name])
        assert op.problems == [] and op.result == stores[prog.name]


def test_wrong_expected_output_counts_as_a_failure():
    spec = tiny_spec()
    apps = compiled(spec.compile)
    for prog in spec.sim:
        assert stages.sim_op(wrong(prog), apps[prog.name], 7).problems
    assert stages.inproc_op(wrong(spec.sim[0]), apps[spec.sim[0].name]).problems
    rules = dataclasses.replace(spec.sim[2], expected_rules=["s0/r2", "s0/r1"])
    assert stages.sim_op(rules, apps[rules.name], 7).problems
    record = run.Record(0.0)
    record.op("sim", spec.sim[0], stages.sim_op(wrong(spec.sim[0]), apps[spec.sim[0].name], 7))
    record.op("sim", spec.sim[0], stages.sim_op(spec.sim[0], apps[spec.sim[0].name], 7))
    assert (record.data["ops"], record.data["failed"]) == (2, 1)


def test_exceptions_and_wrong_verdicts_count_as_failures():
    broken = dataclasses.replace(pg.pipe_seq(2, 7), name="broken", source="aioc {")
    apps, problems = stages.compile_all([broken])
    assert apps == {} and len(problems) == 1 and "ParseError" in problems[0]
    clean = pg.pipe_seq(0, 7)
    apps = compiled([clean])
    mislabelled = dataclasses.replace(clean, verdict="misbehaves")
    assert stages.explore_op(mislabelled, apps[clean.name], 300).problems


def test_live_stores_that_differ_from_simulate_are_counted():
    stores = {"pipe-seq-3": {"a": {"x": 4}, "b": {"result": 4}}}
    results = {
        "main": [{"stores": stores, "ops": 1, "failed": 0, "problems": []}],
        "inproc": [{"stores": {"pipe-seq-3": {"a": {"x": 4}, "b": {"result": 5}}},
                    "ops": 1, "failed": 0, "problems": []}],
    }
    attempted, failed, problems = run.tally(results)
    assert (attempted, failed) == (4, 1) and "differs from simulate" in problems[0]


def test_tcp_pair_on_loopback():
    prog = pg.ping(2, 7)
    apps = compiled([prog])
    port = run.free_ports(1)[0]
    got = {}
    starter = threading.Thread(target=lambda: got.setdefault(
        "a", stages.tcp_run(prog, apps[prog.name], True, port)))
    starter.start()
    stages.wait_for_starter(port, 10.0)
    got["b"] = stages.tcp_run(prog, apps[prog.name], False, port)
    starter.join(30)
    assert not starter.is_alive()
    assert stages.store_problems(prog, got, "tcp") == []


def test_tracer_wraps_entry_points_where_they_are_looked_up():
    import chorad.live
    import chorad.runtime

    tracer = install(Tracer())
    try:
        assert hasattr(chorad.runtime.project_rule_body, "__wrapped__")
        assert hasattr(chorad.live.send_line, "__wrapped__")
        spec = tiny_spec()
        apps = {}
        for prog in spec.compile:
            apps[prog.name] = stages.compile_op(prog, tracer).result
        for prog in spec.sim:
            assert stages.sim_op(prog, apps[prog.name], 7, tracer).problems == []
    finally:
        tracer.uninstall()
    assert not hasattr(chorad.runtime.project_rule_body, "__wrapped__")
    names = {name for name, _ctx in tracer.totals}
    assert {"parser.parse_program", "parser.parse_behaviour", "project.project_rule_body",
            "runtime.step", "adapt.handle_match", "sim.simulate"} <= names
    ids = {span[0] for span in tracer.spans}
    assert all(parent in ids for _sid, parent, *_ in tracer.spans if parent is not None)
    result = {"trace": tracer.summary()}
    measured = {"live.inproc_us_per_interaction": 1.0, "net.tcp_us_per_interaction": 1.0,
                "trace.overhead_s": 0.1, "trace.overhead_share": 0.1}
    metrics = layers.per_layer(spec, {"main": [result]}, HERE.parent / "src" / "chorad", measured)
    assert set(metrics) == set(layers.PER_LAYER)
    # pipe-4 enters its scope 4 times per run; the other two programs never match
    assert 0 < metrics["adapt.matches"]["value"] < 4
    assert metrics["parser.us_per_stmt"]["value"] > 0
