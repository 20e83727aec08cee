"""Whole-application simulation: frozen corpus behaviour, determinism,
exploration, and mid-run adaptation."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

import chorad.ast
from chorad.adapt import AdaptationManager, AdaptationServer, Environment
from chorad.ast import Expr, Lit, find_calls, walk
from chorad import cli, sim
from chorad.check import check_program
from chorad.parser import MAX_NESTING, ParseError, parse_behaviour, parse_program
from chorad.project import (IfLocal, LocalAssign, ProjectedApp, SendTo, WhileLocal, _as_app,
                            proc_from_data, proc_to_data, project)
from chorad.runtime import KIND_DIRECTIVE, READY, Message, RoleExecutor
from chorad.sim import (
    DEADLOCK,
    ERROR,
    STEP_LIMIT,
    SimConfig,
    TERMINATED,
    TimelineEvent,
    _World,
    explore,
    explore_deadlocks,
    simulate,
)
from chorad.services import FunctionTable
from chorad import corpus

import oracle
import progen


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
    # a Binary of every precedence level nested into the right operand of the last
    "call-chain": lambda d: ("v@a = " + _wrap(d, "inc( false or 1 < 2 and 1 == 1 + 1 * {} )",
                                              "1") + "; m: a( v ) -> b( x )", 1, "("),
    # a | inside a ; at every level: the deepest process code per level
    "seq-par": lambda d: (_wrap(d, "if ( 1 < 2 )@a {{ z{k}@a = 1 | {} ; y{k}@a = 2 }}"), 1, "if"),
    "mixed": lambda d: (_wrap(d, ("if ( 1 < 2 )@a {{ {} }}", "scope @b {{ {} }}",
                                  "{{ {} | z{k}@b = 1 }}")), 1, None),
}


def _wrap(d, form, inner="m: a( 1 ) -> b( x )"):
    forms = form if isinstance(form, tuple) else (form,)
    for k in range(d):
        inner = forms[k % len(forms)].format(inner, k=k)
    return inner


def _paren_chain_source(depth):
    """``call-chain`` with parens for calls: it parses and compiles, but does
    not run, since ``*`` gets the ``or`` a level down."""
    body = "v@a = " + _wrap(depth, "false or 1 < 2 and 1 == 1 + 1 * ( {} )", "1")
    return f"preamble {{ starter: a }}\naioc {{\n{body}; m: a( v ) -> b( x )\n}}\n"


def _nested_source(kind, depth):
    body, x, opener = _NESTED[kind](depth)
    include = 'include inc from "socket://localhost:9"\n' if "inc(" in body else ""
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


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_code_at_the_nesting_limit_compares_without_recursion(kind):
    app = project(parse_program(_nested_source(kind, MAX_NESTING)[0]))
    for role, code in app.per_role.items():
        assert proc_from_data(proc_to_data(code)) == code, role


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


def _wide_par(k):
    """One ``|`` block of ``k`` interactions from a to b."""
    branches = "\n  | ".join(f"m{i}: a( {i} ) -> b( x{i} )" for i in range(k))
    return project(parse_program(f"preamble {{ starter: a }}\naioc {{\n  {{ {branches} }}\n}}\n"))


_WHILE_PAR = ("preamble { starter: a }\naioc {\n  i@a = 0;\n  while ( i < 20 )@a {\n"
              "    i@a = i + 1;\n    { p: a( i ) -> b( x ) | q: a( i ) -> c( y ) }\n  }\n}\n")


def _par_tree(depth, name="m"):
    """``|`` blocks nested ``depth`` deep, two branches each, every branch
    ending in an interaction after its own block."""
    step = f"{name}: a( 1 ) -> b( {name} )"
    if not depth:
        return step
    return (f"{{ {{ {_par_tree(depth - 1, name + '0')} | "
            f"{_par_tree(depth - 1, name + '1')} }}; {step} }}")


def _ready_list_cases():
    """(id, builder of the app and config to run)"""
    for sc in corpus.standard_scenarios():
        for adapted in [None, *sorted(sc.adapted)]:
            yield (f"{sc.name}-{adapted or 'plain'}",
                   lambda sc=sc, a=adapted: (sc.app, _cfg(sc, a, seed=3)))
    for seed in range(50):
        yield (f"progen-{seed}", lambda seed=seed: (
            project(progen.random_connected_program(seed)), SimConfig(seed=seed)))
    yield "while-par", lambda: (project(parse_program(_WHILE_PAR)), SimConfig())
    # a branch's join ends while its siblings' later tids are still ready
    yield "par-tree", lambda: (project(parse_program(
        f"preamble {{ starter: a }}\naioc {{\n  {_par_tree(4)}\n}}\n")), SimConfig())
    yield "par-2000", lambda: (_wide_par(2000), SimConfig())


@pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in _ready_list_cases()])
def test_every_executor_keeps_exactly_its_ready_tasks(build):
    """After every step, each executor's ready list is what a scan of its
    tasks finds; the seeded run ends as ``simulate``'s does."""
    app, config = build()
    world = _World(app, config)
    rng = random.Random(config.seed)
    while not world.failure:
        world.fire_due_events()
        entries = world.ready_entries()
        if not entries:
            break
        world.advance(*entries[rng.randrange(len(entries))])
        for ex in world.executors.values():
            assert ex.ready_tids() == [tid for tid, t in ex._tasks.items()
                                       if t.state == READY]
    assert all(ex.finished() for ex in world.executors.values())
    report = simulate(app, config)
    assert report.outcome == TERMINATED
    assert (world.steps, world._hash.hexdigest()) == (report.steps, report.trace_hash)


@pytest.mark.parametrize("k, steps, trace_hash", [
    (250, 1510, "648afaf4e915e7de51409f20a90ddac3aa3f99656962eb9f5c0f764a26c55082"),
    (2000, 12010, "912b21bef6347a338e7fce3e146251565bcf89ad3f3181c883af73e14d1b1c40"),
], ids=["250", "2000"])
def test_wide_par_block_trace_hash_is_pinned(k, steps, trace_hash):
    r = simulate(_wide_par(k), SimConfig(seed=1))
    assert r.outcome == TERMINATED
    assert (r.steps, r.trace_hash) == (steps, trace_hash)


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
    (None, "37062a0817a14134cf7aa5f6a5b3df909ce448af39eb64fed6cc7bebc2da8def"),
    ("free-week",
     "8bed5c3d3acafe76cf34cfd6cf33f3f67b37db26e37c0bdb7eb0544b803eea3a"),
], ids=["plain", "free-week"])
def test_appointment_trace_hash_is_pinned(adapted, trace_hash):
    assert _run("appointment", adapted).trace_hash == trace_hash


def test_messages_are_numbered_per_channel():
    """A role numbers its messages per (kind, op, peer): sends of one
    operation from parallel branches to two peers each carry number 1."""
    r = simulate(parse_program("""
        preamble { starter: a }
        aioc {
          { n: a( 1 ) -> b( x ) | n: a( 2 ) -> c( y ) }
        }
        """), SimConfig(collect_trace=True))
    assert r.outcome == TERMINATED
    sends = sorted(line.split(":", 2)[2] for line in r.trace if ":send:msg:" in line)
    assert sends == ["send:msg:n:b:1", "send:msg:n:c:1"]


def test_crossed_acks_on_one_channel_still_fail():
    # duplicated-notify sends notify twice from a to b in parallel: one
    # channel, so its numbers still tell crossed acks apart.
    reports = [_run("duplicated-notify", seed=s) for s in range(50)]
    assert {r.outcome for r in reports} == {TERMINATED, ERROR}
    assert all("acknowledgement for 'notify' out of order" in r.error
               for r in reports if r.outcome == ERROR)


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
    assert r.complete and r.paths == 1
    assert set(r.outcomes) == {TERMINATED}
    assert r.deterministic and r.deadlock_free


def _count_worlds(monkeypatch) -> list:
    """Every world ``explore`` builds, one per run."""
    worlds = []

    class CountingWorld(sim._ExploringWorld):
        def __init__(self, *args):
            super().__init__(*args)
            worlds.append(self)

    monkeypatch.setattr(sim, "_ExploringWorld", CountingWorld)
    return worlds


@pytest.mark.parametrize("name, max_paths, paths, complete", [
    ("hello-world", 20_000, 1, True),
    ("duplicated-notify", 50, 50, False),
])
def test_exploration_runs_each_path_once(monkeypatch, name, max_paths,
                                         paths, complete):
    """No step of a search is executed twice: a run forks the world at its
    decision and takes only the steps past it.  A step is named by the step
    before it in its world and the task it advances; a fork inherits the
    name of its world's last step, so a run that re-ran an earlier run's
    prefix from a new world would name a step a second time.  A search that
    restarts unreduced starts from a new world."""
    calls = []
    real_step = RoleExecutor.step

    def step(self, tid):
        calls.append(tid)
        return real_step(self, tid)

    named: list[dict[tuple, int]] = []  # per search
    real_search, real_advance = sim._search, _World.advance

    def search(*args, **kwargs):
        named.append({})
        return real_search(*args, **kwargs)

    def advance(self, role, tid):
        names = named[-1]
        key = (getattr(self, "last_step", None), role, tid)
        assert key not in names, "a step ran twice"
        self.last_step = names[key] = len(names)
        return real_advance(self, role, tid)

    past_fork: list[int] = []  # per run, the steps it took past its fork point
    real_execute = sim._execute

    def execute(world, choose):
        start = world.steps
        try:
            return real_execute(world, choose)
        finally:
            past_fork.append(world.steps - start)

    monkeypatch.setattr(RoleExecutor, "step", step)
    monkeypatch.setattr(sim, "_search", search)
    monkeypatch.setattr(_World, "advance", advance)
    monkeypatch.setattr(sim, "_execute", execute)
    sc = corpus.scenario_by_name(name)
    r = explore(sc.app, _cfg(sc, max_steps=2000), max_paths=max_paths)
    assert (r.paths, r.complete) == (paths, complete)
    assert len(past_fork) == r.paths
    assert len(calls) == sum(past_fork) == sum(map(len, named))


# Programs whose schedules race; a pruning that treated every two steps at
# different roles as commuting, or that matched states on less than the
# exact state, missed a final store on each.
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

# The branch that reads x twice can see it before and after x@a = 1.
_THREE_FINALS = """
preamble { starter: a }
aioc {
  x@a = 0;
  { x@a = 1 | if ( x == 1 )@a { y@a = 1; z@a = x + 10 } else { y@a = 1; z@a = x + 20 } }
}
"""


def _shared_service_config():
    return SimConfig(services_factory=lambda: {
        "socket://localhost:9": FunctionTable().scripted("next", [10, 20])})


def test_exploration_sees_both_orders_of_a_shared_service():
    r = explore(parse_program(_SHARED_SERVICE), _shared_service_config())
    assert r.complete and len(r.finals) == 2


# Two tasks of one role race on a scripted service.
_SHARED_SERVICE_IN_ONE_ROLE = """
include next from "socket://localhost:9"
preamble { starter: a }
aioc {
  { x@a = next( 0 ) | y@a = next( 0 ) }
}
"""

# a's scope calls the service only once a rule replaces its body, so a's
# task is the only one in its role and its code says nothing of the call.
_SHARED_SERVICE_IN_A_RULE = """
include next from "socket://localhost:9"
preamble { starter: a }
aioc {
  go: a( 1 ) -> b( w );
  { scope @a { x@a = 0 } | y@b = next( 0 ) }
}
"""


def _next_rule_manager():
    manager = AdaptationManager(Environment({}))
    server = AdaptationServer("s0")
    assert server.publish('rule { include next from "socket://localhost:9" '
                          'on { true } do { x@a = next( 0 ) } }') == []
    manager.register(server)
    return manager


@pytest.mark.parametrize("source, manager_factory, y_role", [
    (_SHARED_SERVICE_IN_ONE_ROLE, None, "a"),
    (_SHARED_SERVICE_IN_A_RULE, _next_rule_manager, "b"),
], ids=["one-role", "rule-body"])
def test_the_reduction_sees_both_orders_of_stateful_calls(source, manager_factory, y_role):
    """Calls of one scripted function conflict, in one role or in two,
    and also when one of them comes with a rule's code."""
    program = parse_program(source)
    config = replace(_shared_service_config(), manager_factory=manager_factory)
    r = explore(program, config)
    assert r.complete and set(r.outcomes) == {TERMINATED}
    assert {(s["a"]["x"], s[y_role]["y"]) for s in map(json.loads, r.finals)} \
        == {(10, 20), (20, 10)}
    ref = _unreduced(program, config)
    assert (set(r.finals), set(r.outcomes)) == (set(ref.finals), set(ref.outcomes))
    assert r.paths < ref.paths


# Two roles write one buffer in parallel, then a reads it.
_SHARED_BUFFER = """
include bufferSet, bufferGet from "socket://localhost:9"
preamble { starter: a }
aioc {
  go: a( 1 ) -> b( w );
  { s@a = bufferSet( "k", "A" ) | t@b = bufferSet( "k", "B" ) };
  r: b( t ) -> a( q );
  x@a = bufferGet( "k" )
}
"""


def test_exploration_tells_states_apart_by_their_buffers():
    """Both orders of the writes leave the stores alike; only the buffer
    tells them apart, so a search that matched states without it would
    lose one of the two finals."""
    config = SimConfig(services_factory=lambda: {"socket://localhost:9": FunctionTable().buffers()})
    r = explore(parse_program(_SHARED_BUFFER), config)
    assert r.complete and r.deadlock_free
    assert {json.loads(f)["a"]["x"] for f in r.finals} == {"A", "B"}


def test_exploration_sees_both_orders_of_a_woken_task():
    r = explore(parse_program(_WOKEN_TASK))
    assert r.complete and len(r.finals) == 2


def test_exploration_tells_tasks_apart_by_what_they_read():
    r = explore(parse_program(_THREE_FINALS))
    assert r.complete
    assert {json.loads(f)["a"]["z"] for f in r.finals} == {11, 20, 21}


# a fails while b's branch is mid-flight: three error finals
_FAIL_MID_BRANCH = """
preamble { starter: a }
aioc {
  go: a( 1 ) -> b( w );
  { x@a = 1 - "s" | y@b = 2; z@b = 3; m: b( 4 ) -> a( u ) }
}
"""

# more steps than a budget of 40: ends in stepLimit
_LONG_LOOP = """
preamble { starter: a }
aioc {
  x@a = 0;
  go: a( 1 ) -> b( w );
  while ( x < 100 )@a { x@a = x + 1 }
}
"""

# Each role races two writes in a `|` of its own.
_PAR_IN_EACH_ROLE = """
preamble { starter: a }
aioc {
  { x@a = 1 | x@a = 2 };
  r: a( x ) -> b( w );
  { y@b = w | w@b = 3 }
}
"""


# Each branch writes x its old value first, so some schedules agree on the
# store, the mailboxes and every counter but not on where the tasks stand.
_SAME_STORE = """
preamble { starter: a }
aioc {
  x@a = 0;
  w@a = 0;
  { { x@a = 0; x@a = 0; z@a = w } | { x@a = 0; w@a = 1 } }
}
"""


def test_the_fingerprint_reads_where_each_task_stands():
    app, codes = project(parse_program(_SAME_STORE)), sim._Codes()

    def reach(*branch_steps):
        world = sim._ExploringWorld(app, SimConfig(hash_trace=False), codes)
        while world.advance("a", 0).event[1] != "spawn":
            pass
        for tid in branch_steps:
            world.advance("a", tid)
        return world.fingerprint()

    # one task two steps on, or each task one step on: same store and counters
    assert reach(1, 1) != reach(1, 2)
    assert reach(1, 2) == reach(2, 1)
    # a tree decoded twice is one key; another tree is another
    code = app.per_role["a"]
    assert codes.key(proc_from_data(proc_to_data(code))) == codes.key(code)
    assert codes.key(code.items[-1]) != codes.key(code)


_SCOPED = """
preamble { starter: a }
aioc {
  scope @a { hi: a( 1 ) -> b( y ) } prop { N.k = "v" }
}
"""


def test_the_fingerprint_names_the_code_a_queued_directive_carries():
    app, codes = project(parse_program(_SCOPED)), sim._Codes()
    follow = app.per_role["b"]

    def queued(code):
        world = sim._ExploringWorld(app, SimConfig(hash_trace=False), codes)
        world.executors["b"].deliver(Message(KIND_DIRECTIVE, follow.directive_op, "a", "b",
                                             {"adapt": True, "code": code}, 0))
        return world.fingerprint()

    code = follow.default_p
    # equal code, even as another tree, fingerprints equal; other code does not
    assert queued(proc_from_data(proc_to_data(code))) == queued(code)
    assert queued(replace(code, var="z")) != queued(code)
    with pytest.raises(TypeError):
        queued(object())


def _differential_cases():
    hello = corpus.scenario_by_name("hello-world")
    misread = corpus.scenario_by_name("misread-reply")
    yield pytest.param(hello.app, _cfg(hello), id="hello-world")
    yield pytest.param(corpus.deadlock_app(), SimConfig(max_steps=2000), id="deadlock")
    yield pytest.param(misread.program, SimConfig(max_steps=2000, inputs=dict(misread.inputs)),
                       id="misread-reply")
    yield pytest.param(parse_program(_SHARED_SERVICE), _shared_service_config(),
                       id="shared-service")
    yield pytest.param(parse_program(_THREE_FINALS), SimConfig(), id="three-finals")
    yield pytest.param(parse_program(_FAIL_MID_BRANCH), SimConfig(), id="fail-mid-branch")
    yield pytest.param(parse_program(_LONG_LOOP), SimConfig(max_steps=40), id="loop-cut")
    yield pytest.param(hello.app, _cfg(hello, "it"), id="hello-world-adapted")
    # the seeds of range(0, 1000, 25) whose reference completes within 3 000 paths
    for seed in (150, 275, 450, 575, 600, 650, 675, 850, 925, 975):
        yield pytest.param(progen.random_connected_program(seed), SimConfig(),
                           id=f"progen-{seed}")


@pytest.mark.parametrize("target, config", list(_differential_cases()))
def test_exploration_agrees_with_the_unpruned_reference(target, config):
    ref = oracle.explore_all(target, config)
    assert ref.complete
    r = explore(target, config)
    assert r.complete
    assert set(r.finals) == set(ref.finals)
    assert set(r.outcomes) == set(ref.outcomes)
    assert bool(r.deadlocks) == bool(ref.deadlocks)


def _unreduced(target, config=None):
    """The search ``explore`` falls back to: state matching, no reduction."""
    config = replace(config or SimConfig(), hash_trace=False)
    world = sim._ExploringWorld(_as_app(target), config, sim._Codes())
    return sim._search(world, 50_000, reduce=False)


def test_reduced_exploration_agrees_with_the_unreduced_search():
    for seed in range(0, 1000, 10):
        program = progen.random_connected_program(seed)
        r, ref = explore(program, max_paths=50_000), _unreduced(program)
        assert r.complete and ref.complete, seed
        assert set(r.finals) == set(ref.finals), seed
        assert set(r.outcomes) == set(ref.outcomes), seed
        assert bool(r.deadlocks) == bool(ref.deadlocks), seed


# Each role sends x and receives into x, in branches of its own: whether
# b's x is 0 or 7 depends on whether a's send reads x before or after a's
# receive writes it.
_CROSSED_RACE = """
preamble { starter: a }
aioc {
  x@a = 0;
  go: a( 0 ) -> b( x );
  back: b( 0 ) -> a( w );
  { op1: a( x ) -> b( x ) | op2: b( 7 ) -> a( x ) }
}
"""


def test_a_task_waiting_in_the_persistent_set_brings_in_its_senders():
    # a's receiving task conflicts with its sending one, and only b's
    # send can wake it; without b's task in the set, b's x is only 0.
    program = parse_program(_CROSSED_RACE)
    r = explore(program)
    assert r.complete
    assert {json.loads(f)["b"]["x"] for f in r.finals} == {0, 7}
    assert set(r.finals) == set(_unreduced(program).finals)


def test_a_par_block_in_each_role_keeps_every_final():
    # The unpruned reference of this program runs past 20 000 paths.
    program = parse_program(_PAR_IN_EACH_ROLE)
    r = explore(program)
    assert r.complete and set(r.outcomes) == {TERMINATED}
    assert {(json.loads(f)["a"]["x"], json.loads(f)["b"]["y"]) for f in r.finals} \
        == {(1, 1), (1, 3), (2, 2), (2, 3)}
    assert set(r.finals) == set(_unreduced(program).finals)


def _spy_on_searches(monkeypatch) -> list[tuple[bool, int]]:
    """``(reduce, paths spent before it)`` of each search ``explore`` runs."""
    searches = []
    real = sim._search

    def spy(world, max_paths, *, reduce, paths=0):
        searches.append((reduce, paths))
        return real(world, max_paths, reduce=reduce, paths=paths)

    monkeypatch.setattr(sim, "_search", spy)
    return searches


def test_a_failed_reduced_run_restarts_the_search_without_reduction(monkeypatch):
    searches = _spy_on_searches(monkeypatch)
    r = explore(parse_program(_FAIL_MID_BRANCH))
    assert [reduce for reduce, _ in searches] == [True, False]
    assert 0 < searches[1][1] < r.paths
    assert r.complete and set(r.outcomes) == {ERROR} and len(r.finals) == 3
    # the restart starts from the tables and manager as built, calling no factory
    built = []
    again = explore(parse_program(_FAIL_MID_BRANCH), SimConfig(
        services_factory=lambda: built.append("services") or {"x": FunctionTable().adder()},
        manager_factory=lambda: built.append("manager") or AdaptationManager()))
    assert [reduce for reduce, _ in searches[2:]] == [True, False]
    assert (again.paths, again.outcomes, again.finals) == (r.paths, r.outcomes, r.finals)
    assert sorted(built) == ["manager", "services"]


@pytest.mark.parametrize("config, reduce", [
    (SimConfig(timeline=[TimelineEvent(at_step=1_000, kind="env", key="k", value=1)]), False),
    (_shared_service_config(), True),
], ids=["timeline", "services"])
def test_the_reduction_stays_off_with_a_timeline_or_services(monkeypatch, config, reduce):
    """A timeline turns the reduction off; a stateful service leaves it on."""
    searches = _spy_on_searches(monkeypatch)
    explore(parse_program(_SHARED_SERVICE), config)
    assert searches == [(reduce, 0)]


def test_the_reduction_stays_on_with_pure_services_only(monkeypatch):
    """``fork-join``'s tables are pure, so its exploration is reduced, and
    the calls of a run leave every table's state as it was."""
    searches = _spy_on_searches(monkeypatch)
    sc = corpus.scenario_by_name("fork-join")
    r = explore(sc.app, _cfg(sc))
    assert searches == [(True, 0)] and r.complete and r.paths == 1
    world = _World(sc.app, _cfg(sc))
    assert sim._execute(world, lambda n: 0).message_counts["middleware"] > 0
    assert all(t.state() == ((), ()) for t in world.router.services.values())


def test_exploration_keeps_no_trace(monkeypatch):
    worlds = _count_worlds(monkeypatch)
    explore(parse_program(_WOKEN_TASK), SimConfig(collect_trace=True))
    assert worlds and all(w.trace is None and not w._hashing for w in worlds)


def test_exploration_counts_the_runs_that_leak(monkeypatch):
    # Projected code answers every message it is sent before it ends, so the
    # leak is a stray message put in b's mailbox before the first step.
    real_init = sim._ExploringWorld.__init__

    def init(self, *args):
        real_init(self, *args)
        self.executors["b"].deliver(Message(kind="msg", op="stray", frm="a", to="b",
                                            data=0, seq=9))

    program = parse_program(_WOKEN_TASK)
    assert explore(program).clean
    monkeypatch.setattr(sim._ExploringWorld, "__init__", init)
    r = explore(program)
    assert r.complete and r.deadlock_free and len(r.finals) == 2
    assert r.leaky == r.outcomes[TERMINATED] > 0
    assert not r.clean


def _fork_cases():
    """(id, builder of the app and config to run), with every standard
    scenario's inputs, services and a manager, plain and adapted, and two
    with a rule published and an environment value set mid-run."""
    for sc in corpus.standard_scenarios():
        for label in (None, *sc.adapted):
            yield (f"{sc.name}-{label or 'plain'}",
                   lambda sc=sc, label=label: (sc.app, _cfg(sc, label, manager=True, seed=5)))
    for name, label, publish_at, (key, value, set_at) in [
            ("hello-world", "italian", 1, ("language", "it", 0)),
            ("pipe-5", "boost-2", 10, ("stage", 1, 5))]:
        sc = corpus.scenario_by_name(name)
        timeline = [TimelineEvent(at_step=publish_at, kind="publish", server="s0",
                                  source=sc.rules[label]),
                    TimelineEvent(at_step=set_at, kind="env", key=key, value=value)]
        yield (f"{name}-timeline", lambda sc=sc, timeline=timeline: (
            sc.app, _cfg(sc, manager=True, seed=5, timeline=timeline)))
    for seed in range(50):
        yield (f"progen-{seed}", lambda seed=seed: (
            project(progen.random_connected_program(seed)), SimConfig(seed=seed)))


def _observed(world):
    """What a step can change in a world, as plain data."""
    return (world.steps, world._timeline_pos, dict(world.counts), repr(world.op_ledger),
            list(world.applied_rules), world._hash.hexdigest(), world.failure,
            dict(world.router._inputs_taken),
            {address: table.state() for address, table in world.router.services.items()},
            {role: (dict(ex.variables.items()), {k: list(q) for k, q in ex._queues.items()},
                    {k: list(q) for k, q in ex._waiters.items()}, list(ex.ready_tids()),
                    dict(ex._seq), ex._next_tid, dict(ex.locations), dict(ex.includes),
                    {tid: (t.state, t.resume_value, t.wait_key, t.join_remaining,
                           repr(t.frames)) for tid, t in ex._tasks.items()})
             for role, ex in world.executors.items()})


def _match_log(world):
    manager = world.router.manager
    return None if manager is None else list(manager.match_log)


def _ending(report):
    return (report.outcome, report.error, report.steps, report.final_states,
            report.message_counts, report.op_ledger, report.leaks,
            report.applied_rules, report.trace_hash)


@pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in _fork_cases()])
def test_a_forked_world_runs_on_alone(build):
    """At each of a seeded run's first 20 decisions, a fork stepped to its
    end leaves the world it came from as it was, and ends as a new world
    stepped along the same choices does; the seeded run then ends as
    ``simulate``'s."""
    app, config = build()
    world = _World(app, config)
    rng = random.Random(config.seed)
    picks: list[int] = []
    forks = 0

    def choose(count: int) -> int:
        nonlocal forks
        if count > 1 and forks < 20:
            forks += 1
            before = _observed(world)
            fork, tail = world.fork(), []
            ended = sim._execute(fork, lambda n: tail.append(n - 1) or n - 1)
            assert _observed(world) == before
            replay, new = iter(picks + tail), _World(app, config)
            fresh = sim._execute(new, lambda n: next(replay))
            assert _ending(ended) == _ending(fresh)
            assert _match_log(fork) == _match_log(new)
        picks.append(rng.randrange(count))
        return picks[-1]

    report = sim._execute(world, choose)
    assert _ending(report) == _ending(simulate(app, config))


def _corpus_recipes():
    for sc in corpus.standard_scenarios():
        for label in (None, *sc.adapted):
            yield pytest.param(sc, label, id=f"{sc.name}-{label or 'plain'}")
    # Eight branches in one role that call pure services.  With its rules
    # the scopes may be replaced by code not known in advance, so every
    # branch conflicts with every other; that runs past 20 000 runs.
    yield pytest.param(corpus.scenario_by_name("fork-join-8"), None, id="fork-join-8-plain")


@pytest.mark.parametrize("sc, label", list(_corpus_recipes()))
def test_every_corpus_scenario_explores_to_a_clean_verdict(sc, label):
    r = explore(sc.app, _cfg(sc, label))
    assert r.complete and r.deadlock_free and r.deterministic, (r.paths, r.outcomes)


def test_exploration_finds_the_crossed_receive_deadlock():
    r = explore(corpus.deadlock_app(), SimConfig(max_steps=2000))
    assert r.complete
    assert set(r.outcomes) == {DEADLOCK}
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


def test_a_follower_fails_on_replacement_code_it_cannot_decode():
    class Garbled:
        def handle_match(self, request):
            return {"matched": True, "rule": "s0/r1", "code": {"display": {"t": "bogus"}}}

    sc = corpus.scenario_by_name("hello-world")
    r = simulate(sc.app, replace(_cfg(sc), manager_factory=Garbled))
    assert r.outcome == ERROR
    assert "display" in r.error and "replacement code is malformed" in r.error


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


@pytest.mark.parametrize("event, error", [
    (TimelineEvent(at_step=0, kind="teleport"), "unknown timeline event kind 'teleport'"),
    (TimelineEvent(at_step=0, kind="publish", server="s0",
                   source="rule { on { true } do { greeting@display = g( 1 ) } }"),
     "timeline publish rejected: function 'g' is not declared by any include"),
    (TimelineEvent(at_step=0, kind="publish", server="s9",
                   source="rule { on { true } do { skip } }"),
     "timeline publish: no server 's9' registered"),
    (TimelineEvent(at_step=0, kind="publish", server="s0", source="rule {"),
     "timeline publish rejected: <input>:1:7: syntax: expected 'on'"),
], ids=["unknown-kind", "rejected-rule", "unknown-server", "syntax-error"])
def test_a_bad_timeline_event_stops_the_simulation(event, error):
    sc = corpus.scenario_by_name("hello-world")
    with pytest.raises(ValueError) as info:
        simulate(sc.app, _cfg(sc, manager=True, timeline=[event]))
    assert str(info.value) == error


# ---------------------------------------------------------------------
# Verdicts no corpus run reaches
# ---------------------------------------------------------------------


def test_a_run_that_never_ends_stops_at_the_step_budget():
    prog = parse_program('preamble { starter: a } aioc { while ( true )@a { x@a = 1 } }')
    r = simulate(prog, SimConfig(max_steps=50))
    assert (r.outcome, r.steps, r.error) == (STEP_LIMIT, 50, "step budget exhausted")
    assert not r.ok


def test_a_message_nobody_receives_is_reported_as_a_leak():
    app = project(parse_program('preamble { starter: a } aioc { op: a( 1 ) -> b( x ) }'))
    world = _World(app, SimConfig())
    world.executors["b"].deliver(Message(kind="msg", op="stray", frm="a", to="b",
                                         data=0, seq=9))
    r = sim._execute(world, random.Random(0).randrange)
    assert r.outcome == TERMINATED and r.final_states["b"] == {"x": 1}
    assert r.leaks == ["b: 1 unconsumed msg/stray from a"]
    assert not r.ok


def test_a_message_to_a_role_outside_the_app_is_an_error():
    app = ProjectedApp(per_role={"a": SendTo(op="op", peer="z", expr=Lit(1))},
                       starter="a", locations={}, includes={})
    r = simulate(app)
    assert r.outcome == ERROR
    assert r.error == "a: message addressed to unknown role 'z'"


# ---------------------------------------------------------------------
# Overhead accounting
# ---------------------------------------------------------------------


def test_scopeless_programs_have_zero_scope_traffic():
    sc = corpus.scenario_by_name("ping-6")
    counts = simulate(sc.app, _cfg(sc)).message_counts
    assert counts.get("directive", 0) == 0
    assert counts.get("done", 0) == 0
    assert counts.get("middleware", 0) == 0


def test_scope_traffic_is_constant_per_scope():
    sc10 = corpus.scenario_by_name("pipe-10")
    sc20 = corpus.scenario_by_name("pipe-20")
    c10 = simulate(sc10.app, _cfg(sc10, manager=True)).message_counts
    c20 = simulate(sc20.app, _cfg(sc20, manager=True)).message_counts
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


# ---------------------------------------------------------------------
# Work a step does once: calls found per node, the manager built per fork
# ---------------------------------------------------------------------


_EVALUATING = (LocalAssign, SendTo, IfLocal, WhileLocal)


def _calls_cache_cases():
    for sc in corpus.standard_scenarios():
        for label in (None, *sc.adapted):
            yield pytest.param(lambda sc=sc, label=label: (sc.app, _cfg(sc, label)),
                               id=f"{sc.name}-{label or 'plain'}")
    for seed in range(50):
        yield pytest.param(lambda seed=seed: (
            project(progen.random_connected_program(seed)), SimConfig(seed=seed)),
            id=f"progen-{seed}")


@pytest.mark.parametrize("build", list(_calls_cache_cases()))
def test_each_nodes_kept_calls_are_the_calls_of_its_expression(build, monkeypatch):
    """After a run, every node that kept its calls, in each role's code and
    in each replacement share the run decoded, holds ``find_calls`` of its
    expression; and the code compares, hashes and encodes as before."""
    app, config = build()
    before = {role: (hash(code), json.dumps(proc_to_data(code)),
                     proc_from_data(proc_to_data(code)))
              for role, code in app.per_role.items()}
    shares = []
    decode = RoleExecutor._replacement_share

    def kept(self, data, scope_id):
        shares.append(decode(self, data, scope_id))
        return shares[-1]

    monkeypatch.setattr(RoleExecutor, "_replacement_share", kept)
    report = simulate(app, config)
    assert report.outcome == TERMINATED, report.error
    assert len(shares) >= len(report.applied_rules)
    cached = 0
    for root in [*app.per_role.values(), *shares]:
        for node in walk(root):
            if "calls" in vars(node):
                cached += 1
                expr = node.guard if type(node) in (IfLocal, WhileLocal) else node.expr
                assert node.calls == tuple(find_calls(expr)), node
    assert cached
    for role, code in app.per_role.items():
        digest, data, copy = before[role]
        assert code == copy and copy == code and hash(code) == digest
        assert json.dumps(proc_to_data(code)) == data


def test_a_run_walks_each_expression_once_not_once_per_step(monkeypatch):
    sc = corpus.scenario_by_name("ping-200")
    original = chorad.ast.walk
    walked = []

    def spy(node, post_order=False):
        walked.append(node)
        return original(node, post_order)

    for module in (chorad.ast, chorad.project, chorad.runtime, sim):
        if getattr(module, "walk", None) is original:
            monkeypatch.setattr(module, "walk", spy)
    report = simulate(sc.app, _cfg(sc))
    evaluating = [node for code in sc.app.per_role.values() for node in original(code)
                  if type(node) in _EVALUATING]
    assert report.ok and report.steps > 10 * len(evaluating)
    assert 0 < sum(isinstance(node, Expr) for node in walked) <= len(evaluating)


def test_the_seeded_pick_draws_what_randrange_draws():
    for seed in range(20):
        pick, rng = sim._seeded_pick(seed), random.Random(seed)
        for _ in range(3):
            for n in range(1, 71):
                assert pick(n) == rng.randrange(n), (seed, n)


@pytest.mark.parametrize("name, label, pins", [
    pytest.param("appointment", "free-week", (1, True, {TERMINATED: 1}, 1),
                 id="appointment-free-week"),
    pytest.param("fork-join", "double-front", (2444, True, {TERMINATED: 255}, 255),
                 id="fork-join-double-front"),
])
def test_exploration_builds_the_manager_and_tables_once(name, label, pins):
    """``explore`` builds its first world from the config's factories and
    forks every other world from it, so each factory runs once.  The
    report is the one it gave when forks rebuilt their manager."""
    sc = corpus.scenario_by_name(name)
    config = _cfg(sc, label)
    built = []

    def counted(kind, factory):
        return lambda: built.append(kind) or factory()

    r = explore(sc.app, replace(config,
                                manager_factory=counted("manager", config.manager_factory),
                                services_factory=counted("services", config.services_factory)))
    final = json.dumps(simulate(sc.app, config).final_states, sort_keys=True, default=repr)
    paths, complete, outcomes, runs = pins
    assert (r.paths, r.complete, r.outcomes, r.finals) == (paths, complete, outcomes,
                                                           {final: runs})
    assert sorted(built) == ["manager", "services"]


def _footprint_cases():
    for sc in corpus.standard_scenarios():
        for label in (None, *sc.adapted):
            yield pytest.param(lambda sc=sc, label=label: (sc.app, _cfg(sc, label)),
                               id=f"{sc.name}-{label or 'plain'}")
    yield pytest.param(lambda: (parse_program(_THREE_SENDS), SimConfig()), id="three-sends")
    yield pytest.param(lambda: (parse_program(_NESTED_PAR_SEED_7), SimConfig()),
                       id="nested-par-seed-7")
    yield pytest.param(lambda: [(progen.random_connected_program(seed), SimConfig())
                                for seed in range(200)], id="progen-0-199")


@pytest.mark.parametrize("build", list(_footprint_cases()))
def test_static_footprints_cover_the_steps_they_predict(monkeypatch, build):
    """Before every step ``explore`` takes, the acting task's future
    holds what the step touches and the channels it sends on, and the step
    run on copies touches exactly what the step does.  Each step here
    runs on a logging copy of its role's store, also where stateful
    services keep the reduction off."""
    real_advance = sim._ExploringWorld.advance
    steps = []

    def advance(self, role, tid):
        task = self.executors[role]._tasks[tid]
        reads, writes, top = self._future(role, task)
        predicted = self._next_step(role, task)
        ex = self.executors[role]
        store = ex.variables = sim._ReadLog(ex.variables)
        outcome = real_advance(self, role, tid)
        step = self._footprint(store, outcome.event)
        where = (role, outcome.event)
        if predicted is not None:
            assert step == predicted, where
        if not top:
            assert step[0] <= reads and step[1] <= writes, where
            assert {("seq", m.kind, m.op, m.to) for m in outcome.outbound} <= writes, where
        steps.append(top)
        return outcome

    monkeypatch.setattr(sim._ExploringWorld, "advance", advance)
    built = build()
    for app, config in built if isinstance(built, list) else [built]:
        r = explore(app, config)
        assert r.complete
    assert steps and not all(steps)


# Three sends from a to b in parallel branches, each on a channel of its
# own: a numbers its messages per (kind, op, peer), so each send and each
# ack takes number 1 whatever the order, and no two of them conflict.
_THREE_SENDS = """
preamble { starter: a }
aioc {
  { m1: a( 1 ) -> b( x ) | m2: a( 2 ) -> b( y ) | m3: a( 3 ) -> b( w ) }
}
"""


def test_the_reduction_expands_one_task_and_what_conflicts_with_it():
    # A persistent set of every ready task of a closed set of roles took
    # 7 052 runs here, and numbering messages per kind 36.
    r = explore(parse_program(_THREE_SENDS))
    assert r.complete and r.clean and r.deterministic
    assert r.paths == 1


# Nested `|` blocks: the smallest of 100 random such programs whose
# exploration ran past 20 000 runs when a persistent set was every ready
# task of a closed set of roles.
_NESTED_PAR_SEED_7 = """
preamble { starter: a }
aioc {
  { { op1: a( 5 ) -> b( v1 ) | { op2: a( "blue" ) -> b( v2 ); op3: b( "green" ) -> a( v3 )
      | v4@a = false; v5@a = v4 + "!" } } | op4: a( 0 ) -> b( v6 ) }
}
"""


def _explores_to_the_global_final(program):
    """``program`` explores completely to one final, the global run's."""
    r = explore(program)
    assert r.complete and r.deadlock_free and r.deterministic, r.paths
    [final] = [json.loads(f) for f in r.finals]
    assert {role: store for role, store in final.items() if store} \
        == {role: store for role, store in oracle.run_global(program).items() if store}
    return r


def test_a_nested_par_program_explores_completely():
    # The unreduced search runs past 50 000 runs on it.
    _explores_to_the_global_final(parse_program(_NESTED_PAR_SEED_7))


# The seeds whose unreduced search completes within 4 000 runs.  Of the
# 100, 60 complete within 50 000 and agree with the reduced search; the
# others here would add a minute to the suite.
_NESTED_PAR_REFERENCE_SEEDS = {
    4, 6, 11, 12, 15, 17, 20, 21, 22, 23, 24, 25, 26, 31, 35, 36, 38, 42, 49, 50,
    51, 54, 57, 59, 60, 63, 64, 65, 66, 70, 72, 75, 77, 80, 81, 84, 85, 87, 91, 94,
    95, 99}


@pytest.mark.parametrize("seed", range(100))
def test_nested_par_programs_explore_completely(seed):
    # Numbering messages per kind, seed 14 took 11 412 runs.
    program = progen.random_nested_par_program(seed)
    r = _explores_to_the_global_final(program)
    assert r.paths <= 20
    if seed in _NESTED_PAR_REFERENCE_SEEDS:
        ref = _unreduced(program)
        assert ref.complete and ref.paths <= 4_000
        assert set(r.finals) == set(ref.finals)
        assert set(r.outcomes) == set(ref.outcomes)
        assert bool(r.deadlocks) == bool(ref.deadlocks)


def test_each_state_is_expanded_at_most_once(monkeypatch):
    """A state is expanded where the search fingerprints a world and then
    forks it to queue the other choices; no fingerprint is expanded twice.
    With sleep sets on top of the persistent sets, a state was expanded
    again under a sleep set that was no subset of the first one's: twice
    on this program, 125 times on nested-`|` seed 14."""
    real_fingerprint, real_fork = sim._ExploringWorld.fingerprint, sim._ExploringWorld.fork
    last, expanded = [], []

    def fingerprint(self):
        last[:] = [self, real_fingerprint(self)]
        return last[1]

    def fork(self):
        if last and last[0] is self:
            expanded.append(last[1])
            last.clear()
        return real_fork(self)

    monkeypatch.setattr(sim._ExploringWorld, "fingerprint", fingerprint)
    monkeypatch.setattr(sim._ExploringWorld, "fork", fork)
    r = explore(progen.random_nested_par_program(56))
    assert r.complete and expanded
    assert len(expanded) - len(set(expanded)) == 0
