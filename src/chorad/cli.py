"""Command line front end.

Exit codes: 0 success, 1 the program/rules/run failed a check or died,
2 usage or I/O trouble.  Diagnostics print as ``file:line:col: kind:
message`` so editors can jump to them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from .adapt import AdaptationManager, AdaptationServer
from .ast import Value, pretty_print_program
from .check import check_program, has_errors
from .parser import ParseError, parse_program
from .project import app_manifest, proc_to_data, project
from .live import (
    run_all,
    run_role,
    serve_functions,
    serve_manager,
    serve_rule_server,
)
from .net import NetError, request
from .services import FunctionTable
from .sim import SimConfig, simulate

MANAGER_ENV_VAR = "CHORAD_MANAGER"


def _parse_value(text: str) -> Value:
    """JSON where it parses, raw string where it doesn't."""
    try:
        v = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(v, (int, bool, str)) and not isinstance(v, float):
        return v
    return text


def _split_kv(text: str, what: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise SystemExit(f"error: {what} needs KEY=VALUE, got {text!r}")
    return key, value


def _read_source(path: str) -> str:
    """The text of a source file, a leading byte order mark dropped; exit 2
    if it cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _load_program(path: str):
    source = _read_source(path)
    try:
        return parse_program(source)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(d.render(path), file=sys.stderr)
        raise SystemExit(1)


def _checked_program(path: str):
    program = _load_program(path)
    violations = check_program(program)
    for v in violations:
        print(v.render(path), file=sys.stderr)
    if has_errors(violations):
        raise SystemExit(1)
    return program


def _inputs_from_args(pairs: list[str] | None) -> dict[str, list[Value]]:
    out: dict[str, list[Value]] = {}
    for pair in pairs or []:
        role, raw = _split_kv(pair, "--input")
        try:
            values = json.loads(raw)
        except json.JSONDecodeError:
            raise SystemExit(f"error: --input {role} needs a JSON list")
        if not isinstance(values, list):
            raise SystemExit(f"error: --input {role} needs a JSON list")
        out[role] = [v if isinstance(v, (int, bool, str)) else str(v)
                     for v in values]
    return out


def _manager_ref(arg: str | None) -> str | None:
    return arg or os.environ.get(MANAGER_ENV_VAR) or None


def _console_input(role: str, args: list[Value]) -> Value:
    prompt = str(args[0]) if args else "input"
    return _parse_value(input(f"[{role}] {prompt} "))


# -------------------------------------------------------------------------
# Commands
# -------------------------------------------------------------------------


def cmd_check(ns: argparse.Namespace) -> int:
    program = _load_program(ns.file)
    violations = check_program(program)
    for v in violations:
        print(v.render(ns.file))
    if has_errors(violations):
        return 1
    if ns.print_normalized:
        print(pretty_print_program(program), end="")
    return 0


def cmd_compile(ns: argparse.Namespace) -> int:
    program = _checked_program(ns.file)
    app = project(program)
    files = {"manifest.json": app_manifest(program, app)}
    for role, code in app.per_role.items():
        files[f"role_{role}.json"] = {"role": role, "code": proc_to_data(code)}
    out_dir = Path(ns.out or (Path(ns.file).stem + ".build"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out_dir / name).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_dir}/manifest.json and {len(app.per_role)} role files")
    return 0


def cmd_run(ns: argparse.Namespace) -> int:
    program = _checked_program(ns.file)
    manager = _manager_ref(ns.manager)
    inputs = _inputs_from_args(ns.input)
    input_fn = None if ns.no_prompt else _console_input
    if ns.role:
        if not ns.at:
            print("error: --role needs --at ADDRESS", file=sys.stderr)
            return 2
        try:
            variables = run_role(program, ns.role, address=ns.at,
                                 starter_address=ns.starter_at,
                                 manager=manager, inputs=inputs,
                                 input_fn=input_fn, timeout=ns.timeout)
        except (RuntimeError, ValueError, NetError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({ns.role: variables}, indent=2, sort_keys=True))
        return 0
    report = run_all(program, inputs=inputs, manager=manager,
                     input_fn=input_fn, timeout=ns.timeout)
    print(json.dumps(report.final_states, indent=2, sort_keys=True))
    if not report.ok:
        for role, err in sorted(report.errors.items()):
            print(f"error: {role}: {err}", file=sys.stderr)
        return 1
    return 0


def cmd_sim(ns: argparse.Namespace) -> int:
    inputs: dict[str, list[Value]] = {}
    services_factory = manager_factory = None
    if bool(ns.file) == bool(ns.scenario):
        print("error: give either a FILE or --scenario NAME", file=sys.stderr)
        return 2
    if ns.scenario:
        try:
            scenario = corpus_mod.scenario_by_name(ns.scenario)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        target = scenario.app
        inputs = dict(scenario.inputs)
        services_factory = scenario.services
        if ns.adapted:
            if ns.adapted not in scenario.adapted:
                print(f"error: scenario has no adapted run '{ns.adapted}' "
                      f"(has: {', '.join(sorted(scenario.adapted)) or 'none'})",
                      file=sys.stderr)
                return 2
            recipe = scenario.adapted[ns.adapted]
            manager_factory = scenario.manager_factory(*recipe.labels)
            if recipe.inputs is not None:
                inputs = dict(recipe.inputs)
    elif ns.adapted:
        print("error: --adapted needs --scenario", file=sys.stderr)
        return 2
    else:
        target = _checked_program(ns.file)
    inputs.update(_inputs_from_args(ns.input))
    config = SimConfig(seed=ns.seed, max_steps=ns.steps, inputs=inputs,
                       services_factory=services_factory,
                       manager_factory=manager_factory,
                       collect_trace=ns.trace)
    started = time.perf_counter()
    report = simulate(target, config)
    elapsed = time.perf_counter() - started
    payload = {
        "outcome": report.outcome,
        "steps": report.steps,
        "seconds": round(elapsed, 3),
        "messageCounts": report.message_counts,
        "traceHash": report.trace_hash,
        "finalStates": report.final_states,
        "appliedRules": report.applied_rules,
        "leaks": report.leaks,
    }
    if report.error:
        payload["error"] = report.error
    if ns.trace:
        payload["trace"] = report.trace
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if report.ok else 1


def cmd_manager(ns: argparse.Namespace) -> int:
    env = {}
    for pair in ns.env or []:
        key, raw = _split_kv(pair, "--env")
        env[key] = _parse_value(raw)
    server, _manager = serve_manager(ns.at, env)
    print(f"manager listening at {server.address}")
    return _serve_until_interrupt(server)


def cmd_server(ns: argparse.Namespace) -> int:
    manager = _manager_ref(ns.manager)
    rules = AdaptationServer(ns.id)
    if ns.rules:  # published before the server binds or registers
        try:
            violations = rules.publish(_read_source(ns.rules))
        except ParseError as exc:
            violations = exc.diagnostics
        for v in violations:
            print(v.render(ns.rules), file=sys.stderr)
        if has_errors(violations):
            return 1
    try:
        server, _ = serve_rule_server(ns.at, manager_address=manager, rules=rules)
    except NetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"rule server '{ns.id}' listening at {server.address}")
    return _serve_until_interrupt(server)


def cmd_env(ns: argparse.Namespace) -> int:
    manager = _manager_ref(ns.manager)
    if not manager:
        print(f"error: give --manager or set {MANAGER_ENV_VAR}", file=sys.stderr)
        return 2
    try:
        if ns.action == "set":
            reply = request(manager, {"kind": "envSet", "key": ns.key,
                                      "value": _parse_value(ns.value)})
            ok = reply.get("kind") == "envOk"
        elif ns.action == "get":
            reply = request(manager, {"kind": "envGet", "key": ns.key})
            ok = reply.get("kind") == "envValue"
            if ok:
                print(json.dumps(reply.get("value")))
        else:
            reply = request(manager, {"kind": "envSnapshot"})
            ok = reply.get("kind") == "envState"
            if ok:
                print(json.dumps(reply.get("values", {}), indent=2,
                                 sort_keys=True))
    except NetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not ok:
        print(f"error: {reply.get('message', 'unexpected reply')}",
              file=sys.stderr)
        return 1
    return 0


def cmd_publish(ns: argparse.Namespace) -> int:
    source = sys.stdin.read() if ns.file == "-" else _read_source(ns.file)
    try:
        reply = request(ns.server, {"kind": "publish", "rules": source})
    except NetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if reply.get("kind") == "published":
        for w in reply.get("warnings", []):
            print(w, file=sys.stderr)
        print(f"published {reply.get('rules', 0)} rule(s)")
        return 0
    for d in reply.get("diagnostics", []):
        print(d, file=sys.stderr)
    if reply.get("message"):
        print(f"error: {reply['message']}", file=sys.stderr)
    return 1


def cmd_functions(ns: argparse.Namespace) -> int:
    table = FunctionTable()
    for pair in ns.fixed or []:
        name, raw = _split_kv(pair, "--fixed")
        table.fixed(name, _parse_value(raw))
    for pair in ns.scripted or []:
        name, raw = _split_kv(pair, "--scripted")
        try:
            values = json.loads(raw)
        except json.JSONDecodeError:
            print(f"error: --scripted {name} needs a JSON list", file=sys.stderr)
            return 2
        table.scripted(name, values)
    for name in ns.shift or []:
        table.shifter(name)
    for pair in ns.prefix or []:
        name, text = _split_kv(pair, "--prefix")
        table.prefixer(name, text)
    for name in ns.add or []:
        table.adder(name)
    if ns.buffers:
        table.buffers()
    if ns.timers:
        table.timers()
    server = serve_functions(ns.at, table)
    names = ", ".join(table.names()) or "(none)"
    print(f"functions [{names}] listening at {server.address}")
    return _serve_until_interrupt(server)


def cmd_corpus(ns: argparse.Namespace) -> int:
    scenarios = corpus_mod.standard_scenarios()
    if ns.action == "list":
        width = max(len(s.name) for s in scenarios)
        for s in scenarios:
            print(f"{s.name:<{width}}  {s.notes}")
        return 0
    if ns.action == "show":
        try:
            s = corpus_mod.scenario_by_name(ns.name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(s.source, end="")
        for label, rules in sorted(s.rules.items()):
            print(f"\n// rules: {label}\n{rules}", end="")
        return 0
    # action == "check": every bundled program must pass, negatives must not.
    failures = 0
    for s in scenarios:
        violations = check_program(s.program)
        bad = has_errors(violations)
        if bad != (not s.connected):
            failures += 1
            print(f"{s.name}: unexpected {'failure' if bad else 'pass'}")
            for v in violations:
                print("  " + v.render(s.name))
    for s in (corpus_mod.disconnected_swap(), corpus_mod.duplicated_notify()):
        violations = check_program(s.program)
        if not has_errors(violations):
            failures += 1
            print(f"{s.name}: expected a violation, found none")
    print(f"{'ok' if not failures else 'FAILED'}: corpus check")
    return 1 if failures else 0


def _serve_until_interrupt(server) -> int:
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        server.shutdown()
        server.server_close()


# -------------------------------------------------------------------------
# Parser
# -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorad",
        description="check, project, run and adapt choreographies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and verify a program")
    p.add_argument("file")
    p.add_argument("--print-normalized", action="store_true",
                   help="echo the normalised program on success")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compile", help="project a program to per-role code")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="output directory")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="run all roles locally, or one over TCP")
    p.add_argument("file")
    p.add_argument("--role", help="host only this role")
    p.add_argument("--at", help="listen address for --role")
    p.add_argument("--starter-at", help="starter's address (non-starting roles)")
    p.add_argument("--manager", help=f"adaptation manager address "
                                     f"(default ${MANAGER_ENV_VAR})")
    p.add_argument("--input", action="append", metavar="ROLE=JSONLIST",
                   help="scripted answers for a role's input requests")
    p.add_argument("--no-prompt", action="store_true",
                   help="fail instead of prompting when scripts run dry")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="seconds to wait on services and peers (default 5)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sim", help="deterministic in-process simulation")
    p.add_argument("file", nargs="?")
    p.add_argument("--scenario", help="run a bundled scenario instead of a file")
    p.add_argument("--adapted", help="use the scenario's named adapted run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=500_000,
                   help="step budget before giving up")
    p.add_argument("--input", action="append", metavar="ROLE=JSONLIST")
    p.add_argument("--trace", action="store_true", help="include the full trace")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("manager", help="serve the adaptation manager")
    p.add_argument("--at", required=True, help="listen address")
    p.add_argument("--env", action="append", metavar="KEY=VALUE",
                   help="preset environment entries")
    p.set_defaults(fn=cmd_manager)

    p = sub.add_parser("server", help="serve a rule server")
    p.add_argument("--at", required=True, help="listen address")
    p.add_argument("--id", default="s0", help="server id used in rule names")
    p.add_argument("--manager", help="register with this manager")
    p.add_argument("--rules", help="rule file to publish at startup")
    p.set_defaults(fn=cmd_server)

    p = sub.add_parser("env", help="read or write the shared environment")
    p.add_argument("--manager", help=f"manager address (default ${MANAGER_ENV_VAR})")
    env_sub = p.add_subparsers(dest="action", required=True)
    q = env_sub.add_parser("set")
    q.add_argument("key")
    q.add_argument("value")
    q = env_sub.add_parser("get")
    q.add_argument("key")
    env_sub.add_parser("snapshot")
    p.set_defaults(fn=cmd_env)

    p = sub.add_parser("publish", help="send rules to a rule server")
    p.add_argument("--server", required=True, help="rule server address")
    p.add_argument("file", help="rule file, or - for stdin")
    p.set_defaults(fn=cmd_publish)

    p = sub.add_parser("functions", help="serve a table of functions")
    p.add_argument("--at", required=True, help="listen address")
    p.add_argument("--fixed", action="append", metavar="NAME=JSON")
    p.add_argument("--scripted", action="append", metavar="NAME=JSONLIST")
    p.add_argument("--shift", action="append", metavar="NAME")
    p.add_argument("--prefix", action="append", metavar="NAME=TEXT")
    p.add_argument("--add", action="append", metavar="NAME")
    p.add_argument("--buffers", action="store_true")
    p.add_argument("--timers", action="store_true")
    p.set_defaults(fn=cmd_functions)

    p = sub.add_parser("corpus", help="bundled scenarios")
    corpus_sub = p.add_subparsers(dest="action", required=True)
    corpus_sub.add_parser("list")
    q = corpus_sub.add_parser("show")
    q.add_argument("name")
    corpus_sub.add_parser("check")
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        code = ns.fn(ns)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except KeyboardInterrupt:
        code = 130
    return code


if __name__ == "__main__":
    sys.exit(main())
