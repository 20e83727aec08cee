"""Rule storage, condition evaluation, and first-match selection."""

from __future__ import annotations

import sys
import threading

import pytest

from chorad.adapt import (
    AdaptationManager,
    AdaptationServer,
    Environment,
    evaluate_condition,
    rule_applies,
)
from chorad.ast import Lit
from chorad.net import decode_line, encode_line
from chorad.parser import ParseError, parse_rules
from chorad.project import LocalAssign, proc_from_data
from chorad.runtime import eval_expr


def _rule(text: str):
    [r] = parse_rules(text)
    return r


GREETING = _rule(
    'rule { on { N.flavour == "greeting" and E.language == "it" }'
    ' do { x@u = "Ciao" } }')


# ---------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------


def test_environment_set_get_unset_snapshot():
    env = Environment({"language": "en"})
    assert env.get("language") == "en"
    env.set("language", "it")
    env.set("retries", 3)
    assert env.snapshot() == {"language": "it", "retries": 3}
    env.unset("retries")
    assert env.get("retries") is None
    assert env.get("never") is None


def test_snapshot_is_a_copy():
    env = Environment()
    snap = env.snapshot()
    snap["x"] = 1
    assert env.get("x") is None


# ---------------------------------------------------------------------
# Condition evaluation is total
# ---------------------------------------------------------------------


def test_condition_true_on_matching_facts():
    assert evaluate_condition(
        GREETING, props={"flavour": "greeting"}, variables={},
        env={"language": "it"})


def test_condition_false_when_fact_is_absent():
    assert not evaluate_condition(GREETING, props={"flavour": "greeting"},
                                  variables={}, env={})
    assert not evaluate_condition(GREETING, props={}, variables={},
                                  env={"language": "it"})


def test_condition_false_on_type_errors_not_raised():
    r = _rule('rule { on { N.k < 5 } do { x@u = 1 } }')
    assert not evaluate_condition(r, props={"k": "three"}, variables={},
                                  env={})


def test_condition_requires_actual_boolean():
    r = _rule('rule { on { N.k + 1 } do { x@u = 1 } }')
    assert not evaluate_condition(r, props={"k": 1}, variables={}, env={})


def test_condition_sees_coordinator_variables():
    r = _rule('rule { on { attempt > 2 } do { x@u = 1 } }')
    assert evaluate_condition(r, props={}, variables={"attempt": 3}, env={})
    assert not evaluate_condition(r, props={}, variables={"attempt": 1},
                                  env={})


# ---------------------------------------------------------------------
# Role-subset applicability
# ---------------------------------------------------------------------


def test_rule_with_foreign_role_never_applies():
    text = 'rule { on { true } do { op: u( 1 ) -> stranger( x ) } }'
    request = {"coordinator": "u", "involved": ["d"], "props": {}, "vars": {}}
    assert not rule_applies(_rule(text), request, {})
    # a server skips it for the next rule that applies, as a linear scan does
    server = AdaptationServer()
    assert not server.publish(text + '\nrule { on { true } do { op: u( 1 ) -> d( x ) } }')
    for involved, want in ((["d"], "s0/r2"), (["d", "stranger"], "s0/r1")):
        asked = {**request, "involved": involved}
        assert _matched(server, asked, {}) == want == _linear(server, asked, {})


def test_rule_over_scope_participants_applies():
    r = _rule('rule { on { true } do { op: u( 1 ) -> d( x ) } }')
    request = {"coordinator": "u", "involved": ["d"], "props": {}, "vars": {}}
    assert rule_applies(r, request, {})


# ---------------------------------------------------------------------
# Server: publication order, batches, ids
# ---------------------------------------------------------------------


def test_publish_assigns_sequential_ids():
    server = AdaptationServer("s7")
    server.publish('rule { on { true } do { x@u = 1 } }')
    server.publish('rule { on { true } do { x@u = 2 } }')
    assert [rid for rid, _ in server.rules()] == ["s7/r1", "s7/r2"]


def test_first_published_applicable_rule_wins():
    server = AdaptationServer()
    server.publish('rule { on { N.k == 1 } do { x@u = "first" } }\n'
                   'rule { on { N.k == 1 } do { x@u = "second" } }')
    got = server.match({"coordinator": "u", "involved": [], "props": {"k": 1},
                        "vars": {}}, {})
    assert got["rule"] == "s0/r1"
    first = LocalAssign(var="x", expr=Lit("first"))
    assert got["code"]["u"] == first
    assert proc_from_data(decode_line(encode_line(got))["code"]["u"]) == first


def test_match_skips_inapplicable_then_picks_next():
    server = AdaptationServer()
    server.publish('rule { on { N.k == 9 } do { x@u = "nope" } }\n'
                   'rule { on { N.k == 1 } do { x@u = "yes" } }')
    got = server.match({"coordinator": "u", "involved": [], "props": {"k": 1},
                        "vars": {}}, {})
    assert got["rule"] == "s0/r2"


def test_no_applicable_rule_returns_none():
    server = AdaptationServer()
    server.publish('rule { on { false } do { x@u = 1 } }')
    assert server.match({"coordinator": "u", "involved": [], "props": {},
                         "vars": {}}, {}) is None


def test_bad_batch_is_rejected_whole():
    server = AdaptationServer()
    violations = server.publish(
        'rule { on { true } do { x@u = 1 } }\n'
        'rule { on { true } do { a@p = 1; b@q = 2 } }')  # disconnected body
    assert violations
    assert server.rules() == []


def test_publish_syntax_error_raises():
    server = AdaptationServer()
    with pytest.raises(ParseError):
        server.publish('rule { on { } do { x@u = 1 } }')
    assert server.rules() == []


def test_match_reports_rule_includes():
    server = AdaptationServer()
    server.publish('rule { include shiftChar from "socket://h:2"'
                   ' on { true } do { x@u = shiftChar( "a", 1 ) } }')
    got = server.match({"coordinator": "u", "involved": [], "props": {},
                        "vars": {}}, {})
    assert got["includes"] == [["shiftChar", "socket://h:2", None]]


# ---------------------------------------------------------------------
# Manager: registration order, env snapshot, failure skipping
# ---------------------------------------------------------------------


def _request():
    return {"scope": "1_0", "coordinator": "u", "involved": [], "props": {},
            "vars": {}}


def test_manager_queries_servers_in_registration_order():
    first, second = AdaptationServer("sA"), AdaptationServer("sB")
    first.publish('rule { on { true } do { x@u = "A" } }')
    second.publish('rule { on { true } do { x@u = "B" } }')
    mgr = AdaptationManager()
    mgr.register(first)
    mgr.register(second)
    assert mgr.handle_match(_request())["rule"] == "sA/r1"


def test_reregistration_moves_server_to_the_tail():
    first, second = AdaptationServer("sA"), AdaptationServer("sB")
    first.publish('rule { on { true } do { x@u = "A" } }')
    second.publish('rule { on { true } do { x@u = "B" } }')
    mgr = AdaptationManager()
    mgr.register(first)
    mgr.register(second)
    mgr.register(first)  # re-announce: now behind sB
    assert mgr.handle_match(_request())["rule"] == "sB/r1"


def test_manager_consults_its_environment():
    server = AdaptationServer()
    server.publish('rule { on { E.mode == "on" } do { x@u = 1 } }')
    mgr = AdaptationManager(Environment({"mode": "off"}))
    mgr.register(server)
    assert mgr.handle_match(_request())["matched"] is False
    mgr.env.set("mode", "on")
    assert mgr.handle_match(_request())["matched"] is True


def test_unreachable_server_is_skipped():
    class Flaky:
        server_id = "down"

        def match(self, request, env):
            raise ConnectionError("refused")

    healthy = AdaptationServer("up")
    healthy.publish('rule { on { true } do { x@u = 1 } }')
    mgr = AdaptationManager()
    mgr.register(Flaky())
    mgr.register(healthy)
    assert mgr.handle_match(_request())["rule"] == "up/r1"


def test_match_log_records_decisions():
    server = AdaptationServer()
    server.publish('rule { on { true } do { x@u = 1 } }')
    mgr = AdaptationManager()
    mgr.register(server)
    mgr.handle_match(_request())
    assert mgr.match_log
    scope, rule_id = mgr.match_log[-1]
    assert scope == "1_0" and rule_id == "s0/r1"


def _manager_view(mgr):
    """What a manager's user can see of it: each server's rules with their
    ids, the environment and the match log."""
    return ([(s.server_id, s.rules()) for s in mgr.servers()], mgr.env.snapshot(),
            list(mgr.match_log))


def test_a_forked_manager_runs_on_alone():
    """Publishing, writing the environment and matching on a fork leave
    the original as it was, and the other way round; each numbers the
    rules it admits from where the two parted."""
    server = AdaptationServer()
    server.publish('rule { on { E.mode == "on" } do { x@u = 1 } }')
    original = AdaptationManager(Environment({"mode": "off"}))
    original.register(server)
    original.handle_match(_request())
    for changed, kept in ((lambda m: m, lambda m: m.fork()),
                          (lambda m: m.fork(), lambda m: m)):
        base = original.fork()
        a, b = changed(base), kept(base)
        before = _manager_view(b)
        assert before == _manager_view(a)
        assert not a.servers()[0].publish('rule { on { true } do { x@u = 2 } }')
        a.env.set("mode", "on")
        assert a.handle_match(_request())["rule"] == "s0/r1"
        assert _manager_view(b) == before
        assert [rid for rid, _ in a.servers()[0].rules()] == ["s0/r1", "s0/r2"]
        assert a.match_log[-1] == ("1_0", "s0/r1") and b.match_log[-1] == ("1_0", None)
        # b numbers its next rule as if a had published nothing
        assert not b.servers()[0].publish('rule { on { true } do { x@u = 3 } }')
        assert [rid for rid, _ in b.servers()[0].rules()] == ["s0/r1", "s0/r2"]
        assert b.handle_match(_request())["rule"] == "s0/r2"
        assert a.servers()[0].rules()[1][1].body != b.servers()[0].rules()[1][1].body


def test_match_log_keeps_only_the_latest_decisions():
    from chorad.adapt import MATCH_LOG_SIZE

    server = AdaptationServer()
    server.publish('rule { on { N.k == 1 } do { x@u = 1 } }')
    mgr = AdaptationManager()
    mgr.register(server)
    for i in range(10_000):
        mgr.handle_match({**_request(), "scope": str(i), "props": {"k": i % 2}})
    assert MATCH_LOG_SIZE < 10_000
    assert len(mgr.match_log) == MATCH_LOG_SIZE
    assert mgr.match_log[-1] == ("9999", "s0/r1")
    assert mgr.match_log[-2] == ("9998", None)


def test_the_decision_count_goes_on_past_the_match_log():
    from chorad.adapt import MATCH_LOG_SIZE

    server = AdaptationServer()
    server.publish('rule { on { N.k == 1 } do { x@u = 1 } }')
    mgr = AdaptationManager()
    mgr.register(server)
    for i in range(5_000):
        mgr.handle_match({**_request(), "scope": str(i), "props": {"k": i % 2}})
    assert len(mgr.match_log) == MATCH_LOG_SIZE == 4096
    assert mgr.decisions == 5_000
    fork = mgr.fork()
    fork.handle_match(_request())
    assert (fork.decisions, mgr.decisions) == (5_001, 5_000)


# ---------------------------------------------------------------------
# Index: the first match is the one a linear scan finds
# ---------------------------------------------------------------------


def _linear(server, request, env):
    """The reference answer: every published rule in order."""
    return next((rid for rid, r in server.rules() if rule_applies(r, request, env)),
                None)


def _matched(server, request, env):
    got = server.match(request, env)
    return None if got is None else got["rule"]


def _req(vars=None, props=None, involved=()):
    return {"scope": "1", "coordinator": "u", "involved": list(involved),
            "props": props or {}, "vars": vars or {}}


MIXED_RULES = [
    "x == 1",
    '1 == x and N.k == "a"',
    'N.k == "a" and (E.m == true and x == "2")',
    'x == 1 or N.k == "b"',
    "x != 2",
    '!(N.k == "a")',
    "f == true",
    'E.m == "1"',
    'x > 1 and N.k == "b"',
    '"true" == f',
    "x == 3",
]


def test_index_agrees_with_a_linear_scan_on_random_requests():
    import random

    rng = random.Random(7)
    pools = {"x": [1, 2, 3, "1", "2", True], "f": [True, "true", False, 1],
             "k": ["a", "b"], "m": [True, "true", "1", 1]}
    bodies = ["r@u = 0", "op: u( 1 ) -> d( r )", "op: u( 1 ) -> stranger( r )"]

    def some(keys):
        return {k: rng.choice(pools[k]) for k in keys if rng.random() < 0.7}

    winners = set()
    for _ in range(40):  # rule sets in random orders, indexed and scanned mixed
        guards = rng.sample(MIXED_RULES, rng.randrange(1, len(MIXED_RULES) + 1))
        server = AdaptationServer()
        assert not server.publish("\n".join(
            f"rule {{ on {{ {g} }} do {{ {rng.choice(bodies)} }} }}" for g in guards))
        for _ in range(100):
            request = _req(vars=some(["x", "f"]), props=some(["k"]),
                           involved=rng.choice([(), ("d",)]))
            env = some(["m"])
            want = _linear(server, request, env)
            assert _matched(server, request, env) == want, (guards, request, env)
            if want is not None:
                winners.add(guards[int(want.rsplit("r", 1)[1]) - 1])
    assert winners == set(MIXED_RULES)


@pytest.mark.parametrize("condition, names, hit", [
    ("x == 1", {"x": "1"}, True),
    ("x == 1", {"x": 1}, True),
    ("x == 1", {"x": True}, False),
    ('x == "1"', {"x": 1}, True),
    ("f == true", {"f": "true"}, True),
    ("f == true", {"f": True}, True),
    ("f == true", {"f": 1}, False),
    ('true == f', {"f": "true"}, True),
    ("x == 1", {}, False),
    ("x == 1 and y == 2", {"x": 1}, False),
])
def test_indexed_guards_hit_across_types_and_miss_when_unset(condition, names, hit):
    server = AdaptationServer()
    server.publish(f"rule {{ on {{ {condition} }} do {{ r@u = 1 }} }}")
    request = _req(vars=names)
    assert (_matched(server, request, {}) == "s0/r1") is hit
    assert _linear(server, request, {}) == _matched(server, request, {})


@pytest.mark.parametrize("condition, key", [
    ("x == 1", ("x", "1")),
    ('"a" == N.k', ("N.k", "a")),
    ("y > 0 and (E.m == true and x == 2)", ("E.m", "true")),
    ("x == 1 or y == 2", None),
    ("x != 1", None),
    ("!(x == 1)", None),
    ("x == y", None),
    ("1 == 1", None),
])
def test_only_top_level_equalities_with_a_literal_are_indexed(condition, key):
    from chorad.adapt import index_key
    from chorad.parser import parse_expr

    assert index_key(parse_expr(condition, allow_namespaces=True)) == key


def test_two_servers_answer_in_registration_order_with_indexed_rules():
    first, second = AdaptationServer("sA"), AdaptationServer("sB")
    first.publish('rule { on { x == 2 } do { r@u = 1 } }')
    second.publish('rule { on { x != 0 } do { r@u = 2 } }\n'
                   'rule { on { x == 1 } do { r@u = 3 } }')
    mgr = AdaptationManager()
    mgr.register(first)
    mgr.register(second)
    ask = {"scope": "1", "coordinator": "u", "involved": [], "props": {}}
    assert mgr.handle_match({**ask, "vars": {"x": 2}})["rule"] == "sA/r1"
    assert mgr.handle_match({**ask, "vars": {"x": 1}})["rule"] == "sB/r1"
    assert mgr.handle_match({**ask, "vars": {"x": 0}})["matched"] is False
    mgr.register(first)  # now behind sB
    assert mgr.handle_match({**ask, "vars": {"x": 2}})["rule"] == "sB/r1"


def test_a_match_evaluates_only_the_rules_its_values_select(monkeypatch):
    import chorad.adapt as adapt

    server = AdaptationServer()
    server.publish("\n".join(f"rule {{ on {{ i == {-k} }} do {{ r@u = {k} }} }}"
                             for k in range(1, 1001)))
    server.publish("rule { on { i == 5 } do { r@u = 0 } }")
    evaluated = []

    def counting(expr, names, *rest):
        evaluated.append(expr)
        return eval_expr(expr, names, *rest)

    monkeypatch.setattr(adapt, "eval_expr", counting)
    got = server.match(_req(vars={"i": 5}), {})
    assert got["rule"] == "s0/r1001"
    assert len(evaluated) == 1


def test_publishing_compiles_the_whole_batch_before_admitting_any(monkeypatch):
    import chorad.adapt as adapt

    server = AdaptationServer()
    violations = server.publish(
        'rule { on { x == 1 } do { r@u = 1 } }\n'
        'rule { on { true } do { a@p = 1; b@q = 2 } }')  # disconnected body
    assert violations and server.rules() == []
    real, calls = adapt.compile_rule, []

    def fails_second(rule):
        calls.append(rule)
        if len(calls) == 2:
            raise RuntimeError("compiler bug")
        return real(rule)

    monkeypatch.setattr(adapt, "compile_rule", fails_second)
    with pytest.raises(RuntimeError):
        server.publish('rule { on { x == 1 } do { r@u = 1 } }\n'
                       'rule { on { x == 2 } do { r@u = 2 } }')
    assert server.rules() == []
    assert server.match(_req(vars={"x": 1}), {}) is None
    monkeypatch.setattr(adapt, "compile_rule", real)
    assert not server.publish('rule { on { x == 1 } do { r@u = 1 } }')
    assert [rid for rid, _ in server.rules()] == ["s0/r1"]
    assert _matched(server, _req(vars={"x": 1}), {}) == "s0/r1"


def test_equal_bodies_compile_once_per_server(monkeypatch):
    import chorad.adapt as adapt
    from chorad.ast import pretty_print
    from chorad.corpus import pipe_boost_rules

    real, compiled = adapt.compile_rule, []

    def counting(rule):
        compiled.append(pretty_print(rule.body))
        return real(rule)

    def ask(i):
        return _req(vars={"i": i}, involved=("b",)) | {"coordinator": "a"}

    monkeypatch.setattr(adapt, "compile_rule", counting)
    server = AdaptationServer()
    assert not server.publish(pipe_boost_rules(range(1, 51)))
    assert len(compiled) == 1
    replies = [server.match(ask(k), {}) for k in range(1, 51)]
    assert [r["rule"] for r in replies] == [f"s0/r{k}" for k in range(1, 51)]
    assert all(r["code"] is replies[0]["code"] for r in replies)
    assert sorted(replies[0]["code"]) == ["a", "b"]
    # a later batch with the same body compiles nothing, on the server or a fork
    assert not server.publish(pipe_boost_rules(range(51, 61)))
    fork = server.fork()
    assert not fork.publish(pipe_boost_rules(range(61, 71)))
    assert len(compiled) == 1
    hit = fork.match(ask(65), {})
    assert hit["rule"] == "s0/r65" and hit["code"] is replies[0]["code"]
    # a batch with one new body compiles exactly that body
    assert not server.publish(pipe_boost_rules([71])
                              + '\nrule { on { i == 72 } do { y@b = 7 } }')
    assert compiled[1:] == ["y@b = 7"]
    # another server compiles its own
    assert not AdaptationServer().publish(pipe_boost_rules([1]))
    assert len(compiled) == 3


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_servers_share_a_sources_parse_and_check_but_compile_and_number_their_own(
        monkeypatch):
    import chorad.adapt as adapt

    monkeypatch.setattr(adapt, "_batches", {})
    calls = []
    for name in ("parse_rules", "check_rule", "compile_rule"):
        _counting(monkeypatch, adapt, name, calls)
    source = ('rule { on { x == 1 } do { r@u = 1 } }\n'
              'rule { on { x == 2 } do { step: a( 1 ) -> u( r ) } }')
    first, second = AdaptationServer(), AdaptationServer()
    assert not first.publish('rule { on { x == 0 } do { r@u = 0 } }')
    calls.clear()
    assert not first.publish(source)
    assert not second.publish(source)
    assert calls.count("parse_rules") == 1 and calls.count("check_rule") == 2
    assert calls.count("compile_rule") == 4  # each server compiles its own bodies
    assert [rid for rid, _ in first.rules()] == ["s0/r1", "s0/r2", "s0/r3"]
    assert [rid for rid, _ in second.rules()] == ["s0/r1", "s0/r2"]
    assert all(a is b for (_, a), (_, b) in zip(first.rules()[1:], second.rules()))
    assert _matched(first, _req(vars={"x": 2}, involved=("a",)), {}) == "s0/r3"
    assert _matched(second, _req(vars={"x": 2}, involved=("a",)), {}) == "s0/r2"
    assert second.match(_req(vars={"x": 1}), {})["code"]["u"] == \
        LocalAssign(var="r", expr=Lit(1))


def test_the_publication_memo_stays_bounded(monkeypatch):
    import chorad.adapt as adapt

    monkeypatch.setattr(adapt, "_batches", {})
    server, cap = AdaptationServer(), adapt._BATCH_MEMO_SIZE
    for k in range(cap + 10):
        assert not server.publish(f"rule {{ on {{ i == {k} }} do {{ x@u = {k} }} }}")
        assert 0 < len(adapt._batches) <= cap
    assert len(server.rules()) == cap + 10
    assert _matched(server, _req(vars={"i": cap + 9}), {}) == f"s0/r{cap + 10}"


def test_a_source_that_does_not_parse_raises_on_every_publish_and_is_never_stored(
        monkeypatch):
    import chorad.adapt as adapt

    monkeypatch.setattr(adapt, "_batches", {})
    calls = []
    _counting(monkeypatch, adapt, "parse_rules", calls)
    servers = AdaptationServer(), AdaptationServer()
    for server in servers + servers:
        with pytest.raises(ParseError):
            server.publish('rule { on { x == } do { r@u = 1 } }')
    assert len(calls) == 4 and adapt._batches == {}
    assert all(server.rules() == [] for server in servers)


def test_a_rejected_batch_returns_equal_violations_as_a_new_list_each_time(monkeypatch):
    import chorad.adapt as adapt

    monkeypatch.setattr(adapt, "_batches", {})
    source = ('rule { on { x == 1 } do { r@u = 1 } }\n'
              'rule { on { true } do { a@p = 1; b@q = 2 } }')  # disconnected body
    server = AdaptationServer()
    first = server.publish(source)
    first.append("changed by a caller")
    again, other = server.publish(source), AdaptationServer().publish(source)
    assert again and again == other == first[:-1]
    assert again is not other
    assert server.publish(source) == again
    assert server.rules() == [] and server.match(_req(vars={"x": 1}), {}) is None


def test_matches_read_whole_batches_while_other_threads_publish():
    """``publish`` replaces the admitted rules whole, so a match that takes
    no lock never sees an index entry before its rule, and publishers lose
    no rule.  Batch (t, i) holds ``k == "t.i"`` and then ``k == "t.i" and
    true``; a match for it answers None or the first of the two."""
    server, errors, done = AdaptationServer(), [], threading.Event()
    threads_n, batches = 4, 80

    def publisher(t):
        for i in range(batches):
            key = f'"{t}.{i}"'
            assert not server.publish(f"rule {{ on {{ k == {key} }} do {{ x@u = 1 }} }}\n"
                                      f"rule {{ on {{ k == {key} and true }} do {{ x@u = 2 }} }}")

    def matcher(t):
        i = 0
        while not done.is_set():
            got = server.match(_req(vars={"k": f"{t}.{i % batches}"}), {})
            if got is not None and int(got["rule"].split("/r")[1]) % 2 != 1:
                errors.append(got["rule"])
            i += 1

    def guarded(fn, t):
        try:
            fn(t)
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        publishers = [threading.Thread(target=guarded, args=(publisher, t))
                      for t in range(threads_n)]
        matchers = [threading.Thread(target=guarded, args=(matcher, t))
                    for t in range(threads_n)]
        for th in matchers + publishers:
            th.start()
        for th in publishers:
            th.join(timeout=60)
        done.set()
        for th in matchers:
            th.join(timeout=10)
        assert not any(th.is_alive() for th in matchers + publishers)
    finally:
        done.set()
        sys.setswitchinterval(switch)
    assert errors == []
    ids = [rule_id for rule_id, _ in server.rules()]
    assert ids == [f"s0/r{n}" for n in range(1, 2 * threads_n * batches + 1)]


def test_a_match_reply_carries_each_roles_code():
    from chorad.project import SendTo, RecvFrom

    server = AdaptationServer()
    server.publish('rule { on { true } do { op: u( 1 ) -> d( r ) } }')
    got = server.match(_req(involved=("d",)), {})
    # the replacement ships once, as code: no printed body beside it
    assert sorted(got) == ["code", "includes", "matched", "rule"]
    assert sorted(got["code"]) == ["d", "u"]
    expected = {"u": SendTo(op="op", peer="d", expr=Lit(1)),
                "d": RecvFrom(op="op", peer="u", var="r")}
    wire = decode_line(encode_line(got))
    for role, code in expected.items():
        assert got["code"][role] == code
        assert proc_from_data(wire["code"][role]) == code


PUBLISHED_MID_RUN = """
preamble { starter: a }
aioc {
  i@a = 0;
  x@a = 0;
  while( i < 8 )@a {
    i@a = i + 1;
    scope @a {
      step: a( x ) -> b( y );
      back: b( y + 1 ) -> a( x )
    } prop { N.stage = "inc" }
  };
  final: a( x ) -> b( result )
}
"""


def _replacing(condition: str, add: int) -> str:
    return (f"rule {{ on {{ {condition} }} do {{ step: a( x ) -> b( y ); "
            f"back: b( y + {add} ) -> a( x ) }} }}")


def test_rules_published_mid_run_are_found_as_a_linear_scan_finds_them(monkeypatch):
    from chorad.parser import parse_program
    from chorad.project import project
    from chorad.sim import SimConfig, TimelineEvent, simulate

    real_match, answers = AdaptationServer.match, []

    def checked(self, request, env):
        got = real_match(self, request, env)
        want = _linear(self, request, env)
        answers.append((got and got["rule"], want))
        return got

    monkeypatch.setattr(AdaptationServer, "match", checked)

    def manager():
        server = AdaptationServer()
        server.publish(_replacing("i == 100", 1000) + "\n"
                       + _replacing('N.stage != "inc"', 1000))
        mgr = AdaptationManager()
        mgr.register(server)
        return mgr

    app = project(parse_program(PUBLISHED_MID_RUN))
    timeline = [
        TimelineEvent(at_step=40, kind="publish", server="s0",
                      source=_replacing('N.stage == "inc" and i == 6', 10)),
        TimelineEvent(at_step=45, kind="publish", server="s0",
                      source=_replacing("i > 6 or false", 100)),
    ]
    report = simulate(app, SimConfig(seed=3, manager_factory=manager, timeline=timeline))
    assert report.ok, report.error
    assert [rule for _scope, rule in report.applied_rules] == ["s0/r3", "s0/r4", "s0/r4"]
    assert report.final_states["b"]["result"] == 5 + 10 + 100 + 100
    assert len(answers) == 8 and all(got == want for got, want in answers)


def _mid_run_stores():
    from chorad.parser import parse_program
    from chorad.project import project
    from chorad.sim import SimConfig, simulate

    def manager():
        server = AdaptationServer()
        server.publish(_replacing("true", 3))
        mgr = AdaptationManager()
        mgr.register(server)
        return mgr

    report = simulate(project(parse_program(PUBLISHED_MID_RUN)),
                      SimConfig(seed=3, manager_factory=manager))
    assert report.ok, report.error
    assert len(report.applied_rules) == 8
    return report.final_states


def test_each_participant_re_roots_a_replacement_once_per_scope(monkeypatch):
    import chorad.runtime as runtime
    from chorad.project import Nop, reroot_proc

    real, calls = runtime.reroot_proc, []

    def counting(code, prefix):
        calls.append(prefix)
        return real(code, prefix)

    monkeypatch.setattr(runtime, "reroot_proc", counting)
    stores = _mid_run_stores()
    assert len(calls) == 2  # one per participant, not one per scope entry
    monkeypatch.setattr(runtime.RoleExecutor, "_replacement_share",
                        lambda self, code, scope_id: Nop() if code is None
                        else reroot_proc(code, scope_id.path))
    assert _mid_run_stores() == stores
    assert stores["b"]["result"] == 8 * 3


def test_the_re_root_memo_stays_bounded():
    import chorad.runtime as runtime
    from chorad.ast import NodeId
    from chorad.parser import parse_behaviour
    from chorad.project import Nop, compile_rule_body, reroot_proc

    executor = runtime.RoleExecutor("a", Nop(), starter="a", roles=["a"])
    scope = NodeId((2, 0))
    for i in range(1_000):
        code = compile_rule_body(parse_behaviour(f"scope @a {{ x@a = {i} }}"))["a"]
        share = executor._replacement_share(code, scope)
        assert share == reroot_proc(code, scope.path) != code
        assert executor._replacement_share(code, scope) is share
        assert len(executor._reroots) <= runtime._REROOT_MEMO_SIZE
    assert executor.fork()._reroots is executor._reroots
