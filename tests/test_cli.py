"""The argparse front end, driven in-process through main()."""

from __future__ import annotations

import json

import pytest

from chorad import corpus
from chorad.cli import MANAGER_ENV_VAR, main
from chorad.live import serve_manager, serve_rule_server

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


def test_compile_reports_code_too_deep_for_json_in_one_line(tmp_path, capsys):
    # a long sum nests one level per term, past the JSON encoder's recursion
    terms = " + ".join(f"r{i}" for i in range(1000))
    f = tmp_path / "sum.aioc"
    f.write_text("preamble { starter: a }\naioc {\n"
                 + "".join(f"  r{i}@a = {i};\n" for i in range(1000))
                 + f"  out@a = {terms};\n  show: a( out ) -> b( result )\n}}\n")
    out = tmp_path / "build"
    assert main(["compile", str(f), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the compiled code nests too deep to write as JSON\n"
    assert captured.out == ""
    assert not out.exists()  # nothing is written when one file cannot be


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


def test_sim_unknown_scenario_or_run(capsys):
    assert main(["sim", "--scenario", "no-such"]) == 2
    assert "no-such" in capsys.readouterr().err
    assert main(["sim", "--scenario", "hello-world", "--adapted", "fr"]) == 2
    assert "has: it" in capsys.readouterr().err


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
