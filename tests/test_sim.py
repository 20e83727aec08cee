"""Whole-application simulation: frozen corpus behaviour, determinism,
exploration, and mid-run adaptation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from chorad.adapt import AdaptationManager, AdaptationServer, Environment
from chorad import cli, sim
from chorad.check import check_program
from chorad.parser import MAX_NESTING, ParseError, parse_behaviour, parse_program
from chorad.project import project
from chorad.sim import (
    DEADLOCK,
    ERROR,
    SimConfig,
    TERMINATED,
    TimelineEvent,
    _World,
    count_overhead,
    explore,
    explore_deadlocks,
    simulate,
)
from chorad.services import FunctionTable
from chorad import corpus

import oracle


def _cfg(sc, adapted=None, *, manager=False, seed=0, **kw):
    if adapted:
        recipe = sc.adapted[adapted]
        inputs = dict(recipe.inputs) if recipe.inputs is not None \
            else dict(sc.inputs)
        mf = sc.manager_factory(*recipe.labels)
    else:
        inputs = dict(sc.inputs)
        mf = sc.manager_factory() if manager else None
    return SimConfig(seed=seed, inputs=inputs, services_factory=sc.services,
                     manager_factory=mf, **kw)


def _run(name, adapted=None, *, manager=False, seed=0, **kw):
    sc = corpus.scenario_by_name(name)
    return simulate(sc.app, _cfg(sc, adapted, manager=manager, seed=seed, **kw))


# ---------------------------------------------------------------------
# Frozen corpus runs
# ---------------------------------------------------------------------


def test_hello_world_defaults_to_english():
    r = _run("hello-world")
    assert r.ok
    assert r.steps == 15
    assert r.final_states["display"] == {"msg": "Hello World"}
    assert r.applied_rules == []


def test_hello_world_adapts_to_italian():
    r = _run("hello-world", "it")
    assert r.ok
    assert r.final_states["display"] == {"msg": "Ciao Mondo"}
    assert r.applied_rules == [("", "s0/r1")]


def test_hello_world_message_counts():
    r = _run("hello-world")
    assert r.message_counts == {"barrier": 2, "directive": 1, "user": 1,
                                "ack": 1, "done": 1}
    r = _run("hello-world", "it")
    # the adapted run adds exactly one match exchange
    assert r.message_counts["middleware"] == 2


def test_appointment_accepts_first_free_day():
    r = _run("appointment", manager=True)
    assert r.ok and r.steps == 80
    assert r.final_states["bob"] == {
        "end": True, "free_day": "2024-06-01", "_r": "y",
        "ticket": "TICKET-2024-06-01"}
    assert r.final_states["cinema"] == {
        "book_day": "2024-06-01", "ticket": "TICKET-2024-06-01"}
    assert r.final_states["alice"]["agreement"] == "y"


def test_appointment_retry_refuses_then_books():
    r = _run("appointment-retry", manager=True)
    assert r.ok and r.steps == 122
    # one more loop iteration than the accepting script
    assert r.final_states["bob"]["ticket"] == "TICKET-2024-06-01"
    assert r.message_counts["guard"] == 10


def test_appointment_free_week_rule_skips_the_availability_chat():
    r = _run("appointment", "free-week", manager=True)
    assert r.ok
    assert r.applied_rules == [("1_0_2", "s0/r1")]
    assert r.final_states["bob"]["ticket"] == "TICKET-2024-06-01"


def test_appointment_picnic_rule_changes_the_event():
    r = _run("appointment", "picnic", manager=True)
    assert r.ok
    assert r.applied_rules == [("1_0_3_0_0", "s0/r1")]
    assert r.final_states["alice"]["event"] == "picnic"


def test_pipe_counts_to_five():
    r = _run("pipe-5")
    assert r.ok and r.steps == 135
    assert r.final_states["a"] == {"i": 5, "x": 5}
    assert r.final_states["b"]["result"] == 5
    assert r.message_counts == {"barrier": 2, "user": 12, "ack": 28,
                                "guard": 6, "directive": 5, "done": 5}


def test_unrolled_pipe_matches_the_loop_form():
    r = _run("pipe-seq-4")
    assert r.ok
    assert r.final_states["a"]["x"] == 4
    assert r.final_states["b"]["result"] == 4


def test_pipe_boost_rules_add_two_twice():
    r = _run("pipe-5", "boost-2")
    assert r.ok
    assert r.final_states["a"]["x"] == 7
    assert [rid for _, rid in r.applied_rules] == ["s0/r1", "s0/r2"]


def test_fork_join_shifts_each_character():
    r = _run("fork-join")
    assert r.ok
    assert r.final_states["b"] == {"result": "bcdef"}
    # ten external calls, two wire messages each
    assert r.message_counts["middleware"] == 20


def test_fork_join_double_front_rules():
    r = _run("fork-join", "double-front")
    assert r.ok
    assert r.final_states["b"] == {"result": "cddef"}


def test_steps_grow_linearly_with_pipe_length():
    for n in (1, 2, 3, 7):
        r = _run(f"pipe-{n}")
        assert r.ok
        assert r.steps == 23 * n + 20, n


def test_a_thousand_branch_par_block_runs_without_recursion():
    n = 1000
    branches = "\n  | ".join(f"m{i}: a( {i} ) -> b( x{i} )" for i in range(n))
    program = parse_program(f"preamble {{ starter: a }}\naioc {{\n  {{ {branches} }}\n}}\n")
    assert check_program(program) == []
    r = simulate(project(program), SimConfig())
    assert r.outcome == TERMINATED
    assert r.final_states["b"] == {f"x{i}": i for i in range(n)}


def test_a_thousand_term_sum_simulates_without_recursion():
    terms = " + ".join(["1"] * 1000)
    program = parse_program(f"preamble {{ starter: a }}\naioc {{\n  x@a = {terms};\n"
                            f"  m: a( x ) -> b( y )\n}}\n")
    r = simulate(project(program), SimConfig())
    assert r.outcome == TERMINATED
    assert r.final_states["b"]["y"] == 1000


# Each builds a body nested ``d`` levels deep, with what role b ends up
# holding in x and the token that opens each level.
_NESTED = {
    "if": lambda d: (_wrap(d, "if ( 1 < 2 )@a {{ {} }} else {{ e: a( 2 ) -> b( x ) }}"), 1, "if"),
    "while": lambda d: ("".join(f"i{k}@a = 0; " for k in range(d)) + _wrap(
        d, "while ( i{k} < 1 )@a {{ i{k}@a = i{k} + 1; {} }}"), 1, "while"),
    "scope": lambda d: (_wrap(d, "scope @a {{ {} }} prop {{ N.k = {k} }}"), 1, "scope"),
    "brace": lambda d: (_wrap(d, "{{ {} }}"), 1, "{"),
    "paren": lambda d: ("v@a = " + _wrap(d, "1 + ({})", "1") + "; m: a( v ) -> b( x )",
                        d + 1, "("),
    "call": lambda d: ("v@a = " + _wrap(d, "inc( {} )", "1") + "; m: a( v ) -> b( x )",
                       d + 1, "("),
    "not": lambda d: (f"v@a = {'!' * d}true; m: a( v ) -> b( x )", d % 2 == 0, "!"),
    "mixed": lambda d: (_wrap(d, ("if ( 1 < 2 )@a {{ {} }}", "scope @b {{ {} }}",
                                  "{{ {} | z{k}@b = 1 }}")), 1, None),
}


def _wrap(d, form, inner="m: a( 1 ) -> b( x )"):
    forms = form if isinstance(form, tuple) else (form,)
    for k in range(d):
        inner = forms[k % len(forms)].format(inner, k=k)
    return inner


def _nested_source(kind, depth):
    body, x, opener = _NESTED[kind](depth)
    include = 'include inc from "socket://localhost:9"\n' if kind == "call" else ""
    return f"{include}preamble {{ starter: a }}\naioc {{\n{body}\n}}\n", x, opener


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_a_program_at_the_nesting_limit_runs_through_every_pass(kind, tmp_path):
    source, x, _ = _nested_source(kind, MAX_NESTING)
    program = parse_program(source)
    assert check_program(program) == []
    inc = FunctionTable().register("inc", lambda args: args[0] + 1)
    r = simulate(project(program),
                 SimConfig(services_factory=lambda: {"socket://localhost:9": inc}))
    assert r.outcome == TERMINATED, r.error
    assert r.final_states["b"]["x"] == x
    path = tmp_path / "deep.aioc"
    path.write_text(source)
    assert cli.main(["compile", str(path), "-o", str(tmp_path / "build")]) == 0


@pytest.mark.parametrize("kind", sorted(k for k in _NESTED if k != "mixed"))
def test_nesting_past_the_limit_is_a_syntax_error_at_the_opener(kind):
    source, _, opener = _nested_source(kind, MAX_NESTING + 1)
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    [d] = exc.value.diagnostics
    assert d.message == f"nesting deeper than {MAX_NESTING} levels"
    lines = source.split("\n")
    assert d.line == lines.index("aioc {") + 2  # the body's line
    body = lines[d.line - 1]
    assert body[d.col - 1:].startswith(opener)
    assert body[:d.col - 1].count(opener) == MAX_NESTING


def test_a_long_loop_over_a_par_block_keeps_a_few_tasks_per_role():
    program = parse_program(
        "preamble { starter: a }\naioc {\n  i@a = 0;\n  while ( i < 200 )@a {\n"
        "    i@a = i + 1;\n    { p: a( i ) -> b( x ) | q: a( i ) -> c( y ) }\n  }\n}\n")
    world = _World(project(program), SimConfig())
    most = 0
    while entries := world.ready_entries():
        world.advance(*entries[0])
        most = max(most, *(len(ex._tasks) for ex in world.executors.values()))
    assert world.failure is None
    assert all(ex.finished() for ex in world.executors.values())
    assert world.executors["a"]._next_tid == 401  # two branches per iteration
    assert most == 3  # a's main task and the two branches of one iteration


# ---------------------------------------------------------------------
# Corpus finals agree with the independent global-semantics oracle
# ---------------------------------------------------------------------


def _prune_private(stores):
    return {role: {k: v for k, v in vs.items() if not k.startswith("_")}
            for role, vs in stores.items()}


def test_oracle_agrees_on_assign_chain():
    sc = corpus.scenario_by_name("assign-chain")
    expected = oracle.run_global(sc.program)
    got = simulate(sc.app, SimConfig()).final_states
    assert got == expected


def test_oracle_agrees_on_cond_pair():
    sc = corpus.scenario_by_name("cond-pair")
    expected = oracle.run_global(sc.program)
    got = simulate(sc.app, SimConfig()).final_states
    assert got == expected


def test_oracle_agrees_on_pipe():
    sc = corpus.scenario_by_name("pipe-6")
    expected = oracle.run_global(sc.program)
    got = _prune_private(_run("pipe-6").final_states)
    assert got == _prune_private(expected)


def test_oracle_agrees_on_fork_join():
    sc = corpus.scenario_by_name("fork-join")
    functions = {
        "charAt": lambda s, i: s[i],
        "shiftChar": lambda c, k: oracle.shift_word(c, k),
    }
    expected = oracle.run_global(sc.program, functions=functions)
    got = _run("fork-join").final_states
    assert got == expected


def test_oracle_agrees_on_hello_world_adaptation():
    sc = corpus.scenario_by_name("hello-world")
    rule_body = parse_behaviour('greet: user( "Ciao Mondo" ) -> display( msg )')

    expected = oracle.run_global(sc.program,
                                 resolve_scope=lambda s: rule_body)
    got = _run("hello-world", "it").final_states
    # the oracle omits roles that never bound a variable
    assert {r: s for r, s in got.items() if s} == expected


def test_oracle_agrees_on_appointment():
    sc = corpus.scenario_by_name("appointment")
    days = ["2024-06-01"]
    functions = {
        "getFreeDay": lambda *a: days.pop(0),
        "getTicket": lambda day: "TICKET-" + day,
    }
    expected = oracle.run_global(sc.program, inputs=dict(sc.inputs),
                                 functions=functions)
    got = _run("appointment", manager=True).final_states
    assert _prune_private(got) == _prune_private(expected)


# ---------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------


def test_identical_configs_give_identical_trace_hashes():
    sc = corpus.scenario_by_name("appointment")
    hashes = {simulate(sc.app, _cfg(sc, manager=True, seed=11)).trace_hash
              for _ in range(10)}
    assert len(hashes) == 1


def test_hello_world_trace_is_pinned():
    r = _run("hello-world", collect_trace=True)
    assert r.trace == [
        "user:0:recv:ready:_aux_barrier:display",
        "display:0:send:ready:_aux_barrier:user:1",
        "display:0:recv:start:_aux_barrier:user",
        "user:0:send:start:_aux_barrier:display:1",
        "user:0:match:",
        "user:0:send:directive:_aux_directive_:display:1",
        "user:0:send:msg:greet:display:1",
        "user:0:recv:ack:greet:display",
        "display:0:recv:directive:_aux_directive_:user",
        "display:0:recv:msg:greet:user",
        "display:0:send:ack:greet:user:1",
        "user:0:recv:done:_aux_done_:display",
        "display:0:send:done:_aux_done_:user:1",
        "display:0:end",
        "user:0:end",
    ]
    assert r.trace_hash == _run("hello-world").trace_hash


@pytest.mark.parametrize("adapted, trace_hash", [
    (None, "4bd1d700a9a32f3687a26a61c1abfb624758d57725b4bf8c555dd0e874ca22b8"),
    ("free-week",
     "61ccf7d4f9184edac223ecd83f3acbdc6c72193d7b657a01b2e37595bccb94df"),
], ids=["plain", "free-week"])
def test_appointment_trace_hash_is_pinned(adapted, trace_hash):
    assert _run("appointment", adapted).trace_hash == trace_hash


def test_different_seeds_change_the_schedule_not_the_outcome():
    sc = corpus.scenario_by_name("pipe-4")
    reports = [simulate(sc.app, _cfg(sc, seed=s)) for s in range(12)]
    assert len({r.trace_hash for r in reports}) > 1
    assert len({str(r.final_states) for r in reports}) == 1
    assert all(r.ok for r in reports)


def test_conservation_every_send_is_acked():
    for name in ("pipe-5", "appointment", "fork-join", "hello-world"):
        r = _run(name, manager=(name == "appointment"))
        assert r.ok, name
        for op, row in r.op_ledger.items():
            assert row["sent"] == row["acked"], (name, op)


# ---------------------------------------------------------------------
# Input scripts
# ---------------------------------------------------------------------


def test_missing_input_script_fails_the_run():
    sc = corpus.scenario_by_name("appointment")
    cfg = _cfg(sc, manager=True)
    cfg.inputs["alice"] = []  # alice is asked but has no scripted answers
    r = simulate(sc.app, cfg)
    assert r.outcome == ERROR
    assert "input" in (r.error or "").lower()


# ---------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------


def test_exploration_exhausts_hello_world():
    sc = corpus.scenario_by_name("hello-world")
    r = explore(sc.app, _cfg(sc))
    assert r.complete and r.paths == 967
    assert r.outcomes == {TERMINATED: 967}
    assert r.deterministic and r.deadlock_free


def test_reduced_exploration_agrees_and_is_small():
    sc = corpus.scenario_by_name("hello-world")
    full = explore(sc.app, _cfg(sc))
    reduced = explore(sc.app, _cfg(sc), reduce=True)
    assert reduced.complete and reduced.paths == 1
    assert set(reduced.finals) <= set(full.finals)
    assert reduced.outcomes == {TERMINATED: 1}


@pytest.mark.parametrize("name, max_paths, paths, complete", [
    ("hello-world", 20_000, 967, True),
    ("duplicated-notify", 50, 50, False),
])
def test_exploration_runs_each_path_once(monkeypatch, name, max_paths,
                                         paths, complete):
    worlds = []

    class CountingWorld(_World):
        def __init__(self, *args):
            super().__init__(*args)
            worlds.append(self)

    monkeypatch.setattr(sim, "_World", CountingWorld)
    sc = corpus.scenario_by_name(name)
    r = explore(sc.app, _cfg(sc, max_steps=2000), max_paths=max_paths)
    assert (r.paths, r.complete) == (paths, complete)
    assert len(worlds) == r.paths


# Reduced mode treats steps at different roles as commuting.  These two
# checker-clean programs race anyway, and full mode reaches 2 final stores
# on each (ROADMAP item 3: a sound reduction in place of ``reduce``).
_SHARED_SERVICE = """
include next from "socket://localhost:9"
preamble { starter: a }
aioc {
  go: a( 1 ) -> b( w );
  { x@a = next( 0 ) | y@b = next( 0 ) };
  r: b( y ) -> a( q )
}
"""

_WOKEN_TASK = """
preamble { starter: a }
aioc {
  go: a( 1 ) -> b( w );
  { x@a = 1 | m: b( 2 ) -> a( x ) };
  r: a( x ) -> b( q )
}
"""


@pytest.mark.xfail(reason="ROADMAP item 3: reduce misses the race on a "
                          "shared service", strict=True)
def test_reduced_exploration_sees_both_orders_of_a_shared_service():
    config = SimConfig(services_factory=lambda: {
        "socket://localhost:9": FunctionTable().scripted("next", [10, 20])})
    r = explore(parse_program(_SHARED_SERVICE), config, reduce=True)
    assert len(r.finals) == 2


@pytest.mark.xfail(reason="ROADMAP item 3: reduce misses a task that another "
                          "role's message wakes", strict=True)
def test_reduced_exploration_sees_both_orders_of_a_woken_task():
    r = explore(parse_program(_WOKEN_TASK), reduce=True)
    assert len(r.finals) == 2


def test_exploration_finds_the_crossed_receive_deadlock():
    r = explore(corpus.deadlock_app(), SimConfig(max_steps=2000))
    assert r.complete
    assert r.outcomes == {DEADLOCK: r.paths}
    assert r.deadlocks and not r.deadlock_free


def test_exploration_sees_out_of_order_delivery_in_race():
    sc = corpus.scenario_by_name("duplicated-notify")
    r = explore(sc.program, SimConfig(max_steps=2000), max_paths=3000)
    assert len(r.finals) > 1  # deliveries swapped between schedules
    assert not r.deterministic


def test_exploration_flags_runtime_errors():
    sc = corpus.scenario_by_name("misread-reply")
    r = explore(sc.program, SimConfig(max_steps=2000,
                                      inputs=dict(sc.inputs)))
    assert ERROR in r.outcomes


def test_seeded_sweep_summary():
    sc = corpus.scenario_by_name("pipe-4")
    s = explore_deadlocks(sc.app, 40, _cfg(sc))
    assert s.clean
    assert s.outcomes == {TERMINATED: 40}
    assert s.counterexample is None


def test_seeded_sweep_collects_a_counterexample():
    s = explore_deadlocks(corpus.deadlock_app(), 3, SimConfig(max_steps=2000))
    assert s.deadlocks == 3
    assert s.counterexample  # a trace to replay


# ---------------------------------------------------------------------
# Mid-run timeline events
# ---------------------------------------------------------------------


def test_rule_published_mid_run_applies_to_later_scopes_only():
    sc = corpus.scenario_by_name("pipe-4")
    boost = corpus.pipe_boost_rules([3])
    late = TimelineEvent(at_step=60, kind="publish", server="s0", source=boost)
    cfg = _cfg(sc, manager=True, timeline=[late])
    r = simulate(sc.app, cfg)
    assert r.ok
    assert r.final_states["a"]["x"] == 5  # 4 increments, one of them boosted
    assert len(r.applied_rules) == 1


def _blank_env_manager(sc, *labels):
    # Unlike sc.manager_factory this starts from an empty environment, so
    # the rule can only match once a timeline event supplies the fact.
    def build():
        manager = AdaptationManager(Environment({}))
        server = AdaptationServer("s0")
        for label in labels:
            server.publish(sc.rules[label])
        manager.register(server)
        return manager

    return build


def test_env_event_flips_the_greeting():
    sc = corpus.scenario_by_name("hello-world")
    cfg = _cfg(sc, manager=True)
    # rule is published from the start but the language fact arrives mid-run
    cfg = replace(cfg, manager_factory=_blank_env_manager(sc, "italian"),
                  timeline=[TimelineEvent(at_step=0, kind="env",
                                          key="language", value="it")])
    r = simulate(sc.app, cfg)
    assert r.final_states["display"] == {"msg": "Ciao Mondo"}


def test_env_event_after_the_scope_is_too_late():
    sc = corpus.scenario_by_name("hello-world")
    cfg = _cfg(sc, manager=True)
    cfg = replace(cfg, manager_factory=_blank_env_manager(sc, "italian"),
                  timeline=[TimelineEvent(at_step=10_000, kind="env",
                                          key="language", value="it")])
    r = simulate(sc.app, cfg)
    assert r.final_states["display"] == {"msg": "Hello World"}


# ---------------------------------------------------------------------
# Overhead accounting
# ---------------------------------------------------------------------


def test_scopeless_programs_have_zero_scope_traffic():
    sc = corpus.scenario_by_name("ping-6")
    counts = count_overhead(sc.app, _cfg(sc))
    assert counts.get("directive", 0) == 0
    assert counts.get("done", 0) == 0
    assert counts.get("middleware", 0) == 0


def test_scope_traffic_is_constant_per_scope():
    sc10 = corpus.scenario_by_name("pipe-10")
    sc20 = corpus.scenario_by_name("pipe-20")
    c10 = count_overhead(sc10.app, _cfg(sc10, manager=True))
    c20 = count_overhead(sc20.app, _cfg(sc20, manager=True))
    assert c10["directive"] == 10 and c10["done"] == 10
    assert c10["middleware"] == 20  # one request/reply pair per scope
    for key in ("directive", "done", "middleware"):
        assert c20[key] == 2 * c10[key]


# ---------------------------------------------------------------------
# Validation guard
# ---------------------------------------------------------------------


def test_simulating_a_program_projects_it_first():
    prog = parse_program('preamble { starter: a } aioc { x@a = 1 }')
    r = simulate(prog, SimConfig())
    assert r.ok and r.final_states == {"a": {"x": 1}}
