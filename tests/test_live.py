"""Threaded and TCP execution: run_all, run_role, and the middleware
services behind the line protocol."""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from chorad import corpus
from chorad.live import (
    _LiveRole,
    run_all,
    run_role,
    serve_functions,
    serve_manager,
    serve_rule_server,
)
from chorad.net import NetError, request
from chorad.parser import parse_program
from chorad.project import project
from chorad.runtime import RoleExecutor
from chorad.services import FunctionTable, Router
from chorad.sim import ERROR, SimConfig, simulate


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("localhost", 0))
        return s.getsockname()[1]


# ---------------------------------------------------------------------
# All roles in one process
# ---------------------------------------------------------------------


def test_run_all_hello_world_defaults():
    sc = corpus.scenario_by_name("hello-world")
    report = run_all(sc.app)
    assert report.ok
    assert report.final_states["display"] == {"msg": "Hello World"}


def test_run_all_adapts_with_inprocess_manager():
    sc = corpus.scenario_by_name("hello-world")
    report = run_all(sc.app, manager=sc.manager_factory("italian")())
    assert report.ok
    assert report.final_states["display"] == {"msg": "Ciao Mondo"}


def _assert_run_all_matches_simulate(name, adapted=None):
    sc = corpus.scenario_by_name(name)
    inputs, manager_factory = dict(sc.inputs), None
    if adapted:
        recipe = sc.adapted[adapted]
        if recipe.inputs is not None:
            inputs = dict(recipe.inputs)
        manager_factory = sc.manager_factory(*recipe.labels)
    simulated = simulate(sc.app, SimConfig(inputs=inputs,
                                           services_factory=sc.services,
                                           manager_factory=manager_factory))
    live = run_all(sc.app, inputs=inputs,
                   services=sc.services() if sc.services else None,
                   manager=manager_factory() if manager_factory else None)
    assert simulated.ok and live.ok
    assert live.final_states == simulated.final_states


def test_run_all_matches_the_simulator_on_appointment():
    _assert_run_all_matches_simulate("appointment")


def _corpus_runs():
    """Every standard scenario, plain and under each adapted recipe, except
    the plain appointment run tested above."""
    for sc in corpus.standard_scenarios():
        if sc.name != "appointment":
            yield pytest.param(sc.name, None, id=sc.name)
        for label in sc.adapted:
            yield pytest.param(sc.name, label, id=f"{sc.name}-{label}")


@pytest.mark.parametrize("name, adapted", list(_corpus_runs()))
def test_run_all_matches_the_simulator(name, adapted):
    _assert_run_all_matches_simulate(name, adapted)


ONE_CALL = """
include f from "socket://localhost:9"

preamble { starter: a }

aioc {
  x@a = CALL;
  hi: a( x ) -> b( y )
}
"""


def _one_call(call: str):
    return parse_program(ONE_CALL.replace("CALL", call))


def _simulated_error(table: FunctionTable) -> str:
    report = simulate(_one_call("f( 1 )"), SimConfig(
        services_factory=lambda: {"socket://localhost:9": table}))
    assert report.outcome == ERROR
    role, _, error = (report.error or "").partition(": ")
    return error if role == "a" else ""


def _live_error(table: FunctionTable) -> str:
    report = run_all(_one_call("f( 1 )"),
                     services={"socket://localhost:9": table}, stall_timeout=2)
    return report.errors.get("a", "")


def _buggy(args):
    raise ValueError("bug in service")


@pytest.mark.parametrize("driver", [_simulated_error, _live_error],
                         ids=["simulate", "run_all"])
@pytest.mark.parametrize("fn, message", [
    (_buggy, "ValueError: bug in service"),
    (lambda args: None, "'f' produced a non-value"),
], ids=["raises", "non-value"])
def test_a_failing_inprocess_service_fails_the_calling_role(driver, fn, message):
    assert message in driver(FunctionTable().register("f", fn))


def test_a_failing_input_prompt_fails_the_asking_role():
    def closed_console(role, args):
        raise EOFError("stdin closed")

    report = run_all(_one_call('getInput( "x?" )'), input_fn=closed_console,
                     stall_timeout=2)
    assert "EOFError: stdin closed" in report.errors["a"]


def test_run_all_reports_role_failures():
    sc = corpus.scenario_by_name("appointment")
    report = run_all(sc.app, inputs={"alice": []}, services=sc.services(),
                     stall_timeout=2)
    assert not report.ok
    assert "input" in report.errors["alice"]


FAN_OUT = """
include f from "socket://localhost:9"

preamble { starter: a }

aioc {
  x@a = f( 1 );
  { h1: a( x ) -> b( y ) | h2: a( x ) -> c( y ) | h3: a( x ) -> d( y )
  | h4: a( x ) -> e( y ) }
}
"""


def test_a_failed_role_stops_its_peers_at_once():
    # the peers wait on a; a stall timeout of 60 s would only report stalls
    program = parse_program(FAN_OUT)
    services = {"socket://localhost:9": FunctionTable().register("f", _buggy)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # stopped peers must not name each other
    try:
        reports = [run_all(program, services=services, stall_timeout=60)
                   for _ in range(10)]
    finally:
        sys.setswitchinterval(interval)
    for report in reports:
        assert "ValueError: bug in service" in report.errors["a"]
        assert {role: report.errors[role] for role in "bcde"} == \
            dict.fromkeys("bcde", "stopped: role 'a' failed")


def test_stopping_a_finished_role_leaves_it_without_error():
    app = project(parse_program("preamble { starter: a }\naioc {\n  x@a = 1\n}\n"))
    ex = RoleExecutor("a", app.per_role["a"], starter="a", roles=app.roles)
    ex.start()
    live = _LiveRole(ex, send=lambda msg: None, router=Router(), stall_timeout=2)
    live.run()
    live.stop("stopped: role 'b' failed")
    assert live.error is None and ex.snapshot() == {"x": 1}


def test_unreachable_manager_falls_back_to_defaults():
    sc = corpus.scenario_by_name("hello-world")
    # nothing listens on port 1; the scope must still run its default body
    report = run_all(sc.app, manager="socket://localhost:1")
    assert report.ok
    assert report.final_states["display"] == {"msg": "Hello World"}


# ---------------------------------------------------------------------
# One role per TCP listener
# ---------------------------------------------------------------------

PAIR = """
preamble { starter: a }

aioc {
  hi: a( "ping" ) -> b( x );
  back: b( x + "!" ) -> a( y )
}
"""


def test_run_role_pair_over_tcp():
    program = parse_program(PAIR)
    port_a = _free_port()
    addr_a = f"socket://localhost:{port_a}"
    stores: dict[str, dict] = {}

    def host_starter():
        stores["a"] = run_role(program, "a", address=addr_a, stall_timeout=20)

    t = threading.Thread(target=host_starter, daemon=True)
    t.start()
    for _ in range(100):  # wait for the starter's listener
        try:
            assert request(addr_a, {"kind": "ping"})["kind"] == "pong"
            break
        except NetError:
            threading.Event().wait(0.05)
    else:
        pytest.fail("starter never came up")

    stores["b"] = run_role(program, "b",
                           address=f"socket://localhost:{_free_port()}",
                           starter_address=addr_a, stall_timeout=20)
    t.join(timeout=20)
    assert not t.is_alive()
    assert stores["a"] == {"y": "ping!"}
    assert stores["b"] == {"x": "ping"}


def test_run_role_rejects_unknown_role():
    program = parse_program(PAIR)
    with pytest.raises(ValueError, match="role 'z'"):
        run_role(program, "z", address="socket://localhost:0")


# ---------------------------------------------------------------------
# Middleware over the wire
# ---------------------------------------------------------------------


def test_serve_functions_round_trip():
    server = serve_functions("socket://localhost:0", FunctionTable().adder())
    try:
        ok = request(server.address, {"kind": "call", "fn": "add", "args": [2, 3]})
        assert ok == {"kind": "result", "value": 5}
        bad = request(server.address, {"kind": "call", "fn": "nope", "args": []})
        assert bad["kind"] == "error"
    finally:
        server.shutdown()
        server.server_close()


def test_rule_server_publishes_and_matches_over_the_wire():
    sc = corpus.scenario_by_name("hello-world")
    server, _rules = serve_rule_server("socket://localhost:0")
    try:
        reply = request(server.address,
                        {"kind": "publish", "rules": sc.rules["italian"]})
        assert reply["kind"] == "published" and reply["rules"] == 1

        bad = request(server.address, {"kind": "publish", "rules": "rule {"})
        assert bad["kind"] == "error" and bad["diagnostics"]

        req = {"props": {"flavour": "greeting"}, "vars": {},
               "involved": ["user", "display"], "coordinator": "user"}
        hit = request(server.address, {"kind": "matchReq", "request": req,
                                       "env": {"language": "it"}})
        assert hit["matched"] and hit["rule"] == "s0/r1"
        miss = request(server.address, {"kind": "matchReq", "request": req,
                                        "env": {}})
        assert not miss["matched"]
    finally:
        server.shutdown()
        server.server_close()


def test_manager_env_over_the_wire():
    server, manager = serve_manager("socket://localhost:0")
    try:
        assert request(server.address, {"kind": "envGet", "key": "language"}) \
            == {"kind": "envValue", "key": "language", "value": None}
        assert request(server.address,
                       {"kind": "envSet", "key": "language", "value": "it"}) \
            == {"kind": "envOk"}
        assert manager.env.get("language") == "it"
        snap = request(server.address, {"kind": "envSnapshot"})
        assert snap == {"kind": "envState", "values": {"language": "it"}}
    finally:
        server.shutdown()
        server.server_close()


def test_hello_world_against_networked_middleware():
    """Manager and rule server in separate listeners, roles in threads."""
    sc = corpus.scenario_by_name("hello-world")
    mgr_srv, _manager = serve_manager("socket://localhost:0",
                                      env={"language": "it"})
    rule_srv, _rules = serve_rule_server("socket://localhost:0",
                                         manager_address=mgr_srv.address)
    try:
        reply = request(rule_srv.address,
                        {"kind": "publish", "rules": sc.rules["italian"]})
        assert reply["kind"] == "published"
        report = run_all(sc.app, manager=mgr_srv.address)
        assert report.ok
        assert report.final_states["display"] == {"msg": "Ciao Mondo"}
    finally:
        for srv in (mgr_srv, rule_srv):
            srv.shutdown()
            srv.server_close()
