"""The argparse front end, driven in-process through main()."""

from __future__ import annotations

import json
import threading

import pytest

from chorad import corpus
from chorad.cli import MANAGER_ENV_VAR, main
from chorad.live import serve_manager, serve_rule_server
from chorad.net import decode_line, encode_line
from chorad.parser import parse_program
from chorad.project import app_manifest, proc_to_data, project

BROKEN = """\
preamble { starter: a }

aioc {
  x@a = 1;
  y@b = 2;
  z@c = 3
}
"""

INPUT_DOUBLER = """\
preamble { starter: a }

aioc {
  n@a = getInput( "how many?" );
  m@a = n * 2
}
"""


@pytest.fixture()
def hello_file(tmp_path):
    f = tmp_path / "hello.aioc"
    f.write_text(corpus.scenario_by_name("hello-world").source)
    return f


# ---------------------------------------------------------------------
# check / compile
# ---------------------------------------------------------------------


def test_check_accepts_a_good_file(hello_file, capsys):
    assert main(["check", str(hello_file)]) == 0
    assert capsys.readouterr().out == ""


def test_check_reports_the_break_with_position(tmp_path, capsys):
    f = tmp_path / "prog.aioc"
    f.write_text(BROKEN)
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{f}:5:3: sequence: role 'b' starts this statement but takes"
        " no part in how the preceding one ends (line 4)",
    ]


def test_check_can_echo_the_normalized_program(hello_file, capsys):
    assert main(["check", str(hello_file), "--print-normalized"]) == 0
    out = capsys.readouterr().out
    assert "aioc {" in out and '"Hello World"' in out


def test_check_rejects_unparseable_source(tmp_path, capsys):
    f = tmp_path / "prog.aioc"
    f.write_text("aioc {")
    assert main(["check", str(f)]) == 1
    assert "syntax" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check"], ["compile"], ["run", "--no-prompt"], ["sim"],
    ["server", "--at", "socket://localhost:0", "--rules"],
    ["publish", "--server", "socket://localhost:9"],
])
def test_a_source_that_is_not_utf8_is_an_error_not_a_traceback(argv, tmp_path, capsys):
    f = tmp_path / "latin1.aioc"
    f.write_bytes('preamble { starter: a } aioc { x@a = "café" }'.encode("latin-1"))
    assert main(argv + [str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {f}: ") and "utf-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["rule {", "rule { on { true } do { x@a = f( 1 ) } }"])
def test_a_rule_server_whose_rules_fail_neither_serves_nor_registers(text, tmp_path, capsys):
    bad = tmp_path / "bad.rules"
    bad.write_text(text)
    mgr_srv, manager = serve_manager("socket://localhost:0")
    serving = {t.name for t in threading.enumerate()}
    try:
        assert main(["server", "--at", "socket://localhost:0", "--manager",
                     mgr_srv.address, "--rules", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"{bad}:1:")
        assert manager.servers() == []
        assert {t.name for t in threading.enumerate()} <= serving
    finally:
        mgr_srv.shutdown()
        mgr_srv.server_close()


def test_a_leading_byte_order_mark_is_not_part_of_the_source(tmp_path, capsys):
    sc = corpus.scenario_by_name("hello-world")
    prog = tmp_path / "bom.aioc"
    prog.write_text("\ufeff" + sc.source, encoding="utf-8")
    assert main(["check", str(prog)]) == 0
    assert capsys.readouterr().err == ""
    rules = tmp_path / "bom.rules"
    rules.write_text("\ufeff" + sc.rules["italian"], encoding="utf-8")
    server, served = serve_rule_server("socket://localhost:0")
    try:
        assert main(["publish", "--server", server.address, str(rules)]) == 0
        assert len(served.rules()) == 1
    finally:
        server.shutdown()
        server.server_close()


def test_compile_writes_manifest_and_role_files(hello_file, tmp_path, capsys):
    out = tmp_path / "build"
    assert main(["compile", str(hello_file), "-o", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["starter"] == "user"
    assert sorted(manifest["roles"]) == ["display", "user"]
    for role in manifest["roles"]:
        data = json.loads((out / f"role_{role}.json").read_text())
        assert data["role"] == role and data["code"]
    assert "2 role files" in capsys.readouterr().out


def test_compile_writes_code_too_deep_for_json_in_one_line(tmp_path, capsys):
    # a sum a thousand levels deep in the syntax tree, one flat list in the file
    terms = " + ".join(f"r{i}" for i in range(1000))
    source = ("preamble { starter: a }\naioc {\n"
              + "".join(f"  r{i}@a = {i};\n" for i in range(1000))
              + f"  out@a = {terms};\n  show: a( out ) -> b( result )\n}}\n")
    f = tmp_path / "sum.aioc"
    f.write_text(source)
    out = tmp_path / "build"
    assert main(["compile", str(f), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"wrote {out}/manifest.json and 2 role files\n"
    program = parse_program(source)
    app = project(program)
    expected = {"manifest.json": app_manifest(program, app)}
    for role, code in app.per_role.items():
        expected[f"role_{role}.json"] = {"role": role, "code": proc_to_data(code)}
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, data in expected.items():
        # compared as the lines the wire would carry
        written = decode_line((out / name).read_text())
        assert encode_line(written) == encode_line(data), name


@pytest.mark.parametrize("kind", ["paren-chain", "call-chain", "seq-par"])
def test_compile_writes_the_deepest_code_the_parser_accepts_as_json_indents_it(
        kind, tmp_path, capsys):
    from chorad.parser import MAX_NESTING
    from test_sim import _nested_source, _paren_chain_source

    source = _paren_chain_source(MAX_NESTING) if kind == "paren-chain" \
        else _nested_source(kind, MAX_NESTING)[0]
    f = tmp_path / "deep.aioc"
    f.write_text(source)
    out = tmp_path / "build"
    assert main(["compile", str(f), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    program = parse_program(source)
    app = project(program)
    expected = {"manifest.json": app_manifest(program, app)}
    for role, code in app.per_role.items():
        expected[f"role_{role}.json"] = {"role": role, "code": proc_to_data(code)}
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, data in expected.items():
        assert (out / name).read_text() == json.dumps(data, indent=2) + "\n", name


# ---------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------


def _sim_json(capsys, *args):
    rc = main(["sim", *args])
    payload = json.loads(capsys.readouterr().out)
    return rc, payload


def test_sim_scenario_payload(capsys):
    rc, payload = _sim_json(capsys, "--scenario", "hello-world")
    assert rc == 0
    assert payload["outcome"] == "terminated"
    assert payload["finalStates"]["display"] == {"msg": "Hello World"}
    assert payload["messageCounts"]["user"] == 1
    assert payload["appliedRules"] == []
    assert payload["leaks"] == []
    assert len(payload["traceHash"]) == 64


def test_sim_adapted_scenario(capsys):
    rc, payload = _sim_json(capsys, "--scenario", "hello-world",
                            "--adapted", "it")
    assert rc == 0
    assert payload["finalStates"]["display"] == {"msg": "Ciao Mondo"}
    assert payload["appliedRules"] == [["", "s0/r1"]]


def test_sim_unknown_scenario_or_run(tmp_path, capsys):
    assert main(["sim", "--scenario", "no-such"]) == 2
    assert "no-such" in capsys.readouterr().err
    assert main(["sim", "--scenario", "hello-world", "--adapted", "fr"]) == 2
    assert "has: it" in capsys.readouterr().err
    f = tmp_path / "doubler.aioc"
    f.write_text(INPUT_DOUBLER)
    assert main(["sim", str(f), "--adapted", "it"]) == 2
    assert "--adapted needs --scenario" in capsys.readouterr().err
    assert main(["sim", str(f), "--scenario", "hello-world"]) == 2
    assert "give either a FILE or --scenario NAME" in capsys.readouterr().err


def test_sim_input_overrides_the_scenario_script(capsys):
    # Without the override alice answers true; with it she declines, and
    # bob's one scripted free day then runs out at the next round.
    rc, payload = _sim_json(capsys, "--scenario", "appointment",
                            "--input", 'alice=[false,"n"]')
    assert rc == 1
    assert payload["finalStates"]["alice"]["is_free"] is False
    assert payload["error"] == "bob: 'getFreeDay' has no scripted replies left"


def test_sim_file_with_scripted_inputs(tmp_path, capsys):
    f = tmp_path / "doubler.aioc"
    f.write_text(INPUT_DOUBLER)
    rc, payload = _sim_json(capsys, str(f), "--input", "a=[5]")
    assert rc == 0
    assert payload["finalStates"]["a"] == {"n": 5, "m": 10}


def test_sim_needs_a_file_or_scenario(capsys):
    assert main(["sim"]) == 2
    assert "FILE or --scenario" in capsys.readouterr().err


# ---------------------------------------------------------------------
# run
# ---------------------------------------------------------------------


def test_run_all_roles_from_a_file(hello_file, capsys, monkeypatch):
    monkeypatch.delenv(MANAGER_ENV_VAR, raising=False)
    assert main(["run", str(hello_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["display"] == {"msg": "Hello World"}


def test_run_role_needs_an_address(hello_file, capsys):
    assert main(["run", str(hello_file), "--role", "user"]) == 2
    assert "--at" in capsys.readouterr().err


# ---------------------------------------------------------------------
# middleware commands
# ---------------------------------------------------------------------


def test_env_round_trip_against_a_live_manager(capsys, monkeypatch):
    server, _manager = serve_manager("socket://localhost:0")
    monkeypatch.setenv(MANAGER_ENV_VAR, server.address)
    try:
        assert main(["env", "set", "language", "it"]) == 0
        assert capsys.readouterr().out == ""  # set prints nothing
        assert main(["env", "get", "language"]) == 0
        assert json.loads(capsys.readouterr().out) == "it"
        assert main(["env", "snapshot"]) == 0
        assert json.loads(capsys.readouterr().out) == {"language": "it"}
    finally:
        server.shutdown()
        server.server_close()


def test_env_without_a_manager_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv(MANAGER_ENV_VAR, raising=False)
    assert main(["env", "get", "language"]) == 2
    assert MANAGER_ENV_VAR in capsys.readouterr().err


def test_publish_to_a_live_rule_server(tmp_path, capsys):
    sc = corpus.scenario_by_name("hello-world")
    server, rules = serve_rule_server("socket://localhost:0")
    good = tmp_path / "good.rules"
    good.write_text(sc.rules["italian"])
    bad = tmp_path / "bad.rules"
    bad.write_text("rule {")
    try:
        assert main(["publish", "--server", server.address, str(good)]) == 0
        assert "published 1 rule(s)" in capsys.readouterr().out
        assert len(rules.rules()) == 1
        assert main(["publish", "--server", server.address, str(bad)]) == 1
        assert "syntax" in capsys.readouterr().err
    finally:
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------


def test_corpus_list_names_every_scenario(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    for s in corpus.standard_scenarios():
        assert s.name in out


def test_corpus_show_prints_the_source(capsys):
    assert main(["corpus", "show", "hello-world"]) == 0
    out = capsys.readouterr().out
    assert "Hello World" in out and "Ciao Mondo" in out


def test_corpus_check_is_green(capsys):
    assert main(["corpus", "check"]) == 0
    assert "ok: corpus check" in capsys.readouterr().out
