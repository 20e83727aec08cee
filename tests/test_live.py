"""Threaded and TCP execution: run_all, run_role, and the middleware
services behind the line protocol."""

from __future__ import annotations

import json
import socket
import sys
import threading

import pytest

from chorad import corpus, live
from chorad.live import (
    _LiveRole,
    run_all,
    run_role,
    serve_functions,
    serve_manager,
    serve_rule_server,
)
from chorad.net import NetError, decode_line, encode_line, request, send_line, start_server
from chorad.parser import parse_program
from chorad.project import project
from chorad.runtime import BARRIER_OP, KIND_DIRECTIVE, KIND_READY, Message, RoleExecutor
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


def test_an_inprocess_adapted_run_decodes_no_code(monkeypatch):
    """Match replies and directives hold compiled code inside one process,
    so neither the simulator nor run_all decodes a replacement."""
    from chorad import runtime

    decoded = []
    real = runtime.proc_from_data
    monkeypatch.setattr(runtime, "proc_from_data",
                        lambda d: decoded.append(d) or real(d))
    sc = corpus.scenario_by_name("pipe-100")
    factory = sc.manager_factory("boost-half")  # iterations 1..50
    simulated = simulate(sc.app, SimConfig(manager_factory=factory))
    assert simulated.ok and len(simulated.applied_rules) == 50
    assert simulated.final_states["a"]["x"] == 150
    assert decoded == []
    live_report = run_all(sc.app, manager=factory())
    assert live_report.ok
    assert live_report.final_states == simulated.final_states
    assert decoded == []


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


def test_process_code_goes_onto_the_wire_as_its_data():
    """encode_line writes process code exactly as proc_to_data spells it,
    and still refuses any other value JSON cannot hold."""
    from chorad.adapt import AdaptationServer
    from chorad.project import proc_to_data

    server = AdaptationServer()
    assert not server.publish(SUM_RULE)
    reply = server.match({"coordinator": "a", "involved": ["b"],
                          "props": {"kind": "sum"}, "vars": {}}, {})
    as_data = {role: proc_to_data(code) for role, code in reply["code"].items()}
    assert encode_line({"kind": "matchResp", **reply}) == \
        encode_line({"kind": "matchResp", **reply, "code": as_data})
    directive = Message(KIND_DIRECTIVE, "_aux_directive_", "a", "b",
                        {"adapt": True, "code": reply["code"]["b"]}, 1)
    shipped = Message(KIND_DIRECTIVE, "_aux_directive_", "a", "b",
                      {"adapt": True, "code": as_data["b"]}, 1)
    assert encode_line(directive.to_dict()) == encode_line(shipped.to_dict())
    for value in (object(), {1, 2}, reply["code"]["b"].items[-1].expr):
        with pytest.raises(TypeError):
            encode_line({"code": value})


SUM_SCOPE = """
preamble { starter: a }

aioc {
  x@a = 1;
  scope @a {
    step: a( x ) -> b( y );
    s@b = y
  } prop { N.kind = "sum" };
  back: b( s ) -> a( z )
}
"""

#: A replacement whose code holds a thousand-term sum.
SUM_RULE = ('rule { on { N.kind == "sum" } do { step: a( x ) -> b( y ); s@b = y + '
            + " + ".join(str(k) for k in range(1, 1001)) + " } }")


def test_code_too_deep_for_json_adapts_over_tcp():
    """The match reply and b's directive carry a 1 000-term sum, a thousand
    levels deep as a tree and one flat list on the wire."""
    from chorad.adapt import AdaptationManager, AdaptationServer

    program = parse_program(SUM_SCOPE)

    def manager():
        server = AdaptationServer()
        assert not server.publish(SUM_RULE)
        mgr = AdaptationManager()
        mgr.register(server)
        return mgr

    simulated = simulate(project(program), SimConfig(manager_factory=manager))
    assert simulated.ok and simulated.applied_rules == [("1", "s0/r1")]
    total = 1 + 1000 * 1001 // 2
    assert simulated.final_states == {"a": {"x": 1, "z": total},
                                      "b": {"y": 1, "s": total}}

    mgr_srv, remote = serve_manager("socket://localhost:0")
    remote.register(manager().servers()[0])
    port_a = _free_port()
    addr_a = f"socket://localhost:{port_a}"
    stores: dict[str, dict] = {}

    def host_starter():
        stores["a"] = run_role(program, "a", address=addr_a, manager=mgr_srv.address,
                               stall_timeout=20)

    t = threading.Thread(target=host_starter, daemon=True)
    t.start()
    try:
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
    finally:
        mgr_srv.shutdown()
        mgr_srv.server_close()
    assert not t.is_alive()
    assert stores == simulated.final_states
    assert list(remote.match_log) == [("1", "s0/r1")]


def test_a_message_that_arrives_as_the_listener_opens_is_kept(monkeypatch):
    """A peer may deliver the moment ``run_role``'s listener is up, before
    the role has started."""
    program = parse_program("preamble { starter: a }\naioc {\n  x@b = 1\n}\n")
    heard_by_b: list[dict] = []
    peer_b = start_server("socket://localhost:0", heard_by_b.append)
    real_start_server = live.start_server

    def start_and_hear_from_b(address, handler):
        handled = threading.Event()

        def on_wire(obj):
            try:
                return handler(obj)
            finally:
                handled.set()

        server = real_start_server(address, on_wire)
        send_line(server.address, Message(KIND_READY, BARRIER_OP, "b", "a",
                                          peer_b.address, 0).to_dict())
        assert handled.wait(5)
        return server

    monkeypatch.setattr(live, "start_server", start_and_hear_from_b)
    try:
        assert run_role(program, "a", address="socket://localhost:0", stall_timeout=5) == {}
        for _ in range(100):  # sends are fire-and-forget
            if heard_by_b:
                break
            threading.Event().wait(0.05)
    finally:
        peer_b.shutdown()
        peer_b.server_close()
    assert [m["kind"] for m in heard_by_b] == ["start"]


def _raw_server(reply: bytes) -> tuple[socket.socket, str]:
    """A listener that answers every line with ``reply``, verbatim."""
    listener = socket.create_server(("localhost", 0))

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # closed
                return
            with conn, conn.makefile("rb") as reader:
                for _line in reader:
                    conn.sendall(reply)

    threading.Thread(target=serve, daemon=True).start()
    return listener, f"socket://localhost:{listener.getsockname()[1]}"


@pytest.mark.parametrize("reply, problem", [
    (b'{"kind":"result","value":"\xff"}\n', "sent a non-JSON reply"),
    (b"[1]\n", "sent a reply that is not a JSON object"),
], ids=["not-utf8", "not-an-object"])
def test_an_undecodable_service_reply_fails_the_calling_role_at_once(reply, problem):
    listener, address = _raw_server(reply)
    try:
        with pytest.raises(NetError, match=problem):
            request(address, {"kind": "call", "fn": "f", "args": [1]})
        program = parse_program(ONE_CALL.replace("socket://localhost:9", address)
                                .replace("CALL", "f( 1 )"))
        report = run_all(program, stall_timeout=20)
    finally:
        listener.close()
    assert f"{address} {problem}" in report.errors["a"]
    assert report.errors["b"] == "stopped: role 'a' failed"


def test_a_line_server_answers_unreadable_lines_and_keeps_serving():
    deep = b"[" * 3000 + b"]" * 3000
    with pytest.raises(json.JSONDecodeError):
        decode_line(deep)
    server = serve_functions("socket://localhost:0", FunctionTable().adder())
    try:
        with socket.create_connection(server.server_address[:2], timeout=5) as conn, \
                conn.makefile("rb") as reader:
            for line in (b'{"kind":"\xff"}', deep):
                conn.sendall(line + b"\n")
                assert json.loads(reader.readline()) == {"kind": "error", "message": "bad json"}
            conn.sendall(encode_line({"kind": "call", "fn": "add", "args": [2, 3]}))
            assert json.loads(reader.readline()) == {"kind": "result", "value": 5}
    finally:
        server.shutdown()
        server.server_close()
