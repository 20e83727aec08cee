"""Endpoint projection: shapes, auxiliary names, and the compile codec."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json

import pytest

from chorad import ast
from chorad.ast import Call, NodeId, Lit
from chorad.check import check_program
from chorad.parser import parse_behaviour, parse_expr, parse_program, parse_rules
from chorad.project import (
    IfFollow,
    IfLocal,
    LocalAssign,
    Nop,
    ParP,
    ProcessCode,
    ProjectionError,
    RecvFrom,
    ScopeCoord,
    ScopeFollow,
    SendTo,
    SeqP,
    WhileFollow,
    WhileLocal,
    app_manifest,
    aux_op,
    expr_from_data,
    expr_to_data,
    proc_from_data,
    proc_to_data,
    project,
    project_rule_body,
)
from chorad.runtime import eval_expr, find_calls
from chorad import corpus

import progen


def _app(text: str):
    return project(parse_program(text))


# ---------------------------------------------------------------------
# Basic shapes
# ---------------------------------------------------------------------


def test_interaction_splits_into_send_and_recv():
    app = _app('preamble { starter: a } aioc { op: a( 1 ) -> b( x ) }')
    assert app.per_role["a"] == SendTo(op="op", peer="b", expr=Lit(1))
    assert app.per_role["b"] == RecvFrom(op="op", peer="a", var="x")


def test_assignment_is_local_to_its_role():
    app = _app('preamble { starter: a } aioc { x@b = 1;\nop: b( x ) -> a( y ) }')
    assert isinstance(app.per_role["b"], SeqP)
    assert app.per_role["b"].items[0] == LocalAssign(var="x", expr=Lit(1))


def test_external_call_projects_to_call_node():
    # an assignment of a call is an assignment whose expression is the call
    app = _app('include f from "socket://h:1"\n'
               'preamble { starter: a } aioc { x@a = f( 1, 2 ) }')
    assert app.per_role["a"] == LocalAssign(var="x", expr=Call("f", (Lit(1), Lit(2))))


def test_get_input_stays_an_expression_call():
    app = _app('preamble { starter: a } aioc { x@a = getInput( "q" ) }')
    assert app.per_role["a"] == LocalAssign(var="x", expr=Call("getInput", (Lit("q"),)))


def test_uninvolved_role_gets_nop_for_foreign_statements():
    app = _app('preamble { starter: c } aioc {\n'
               'x@c = 0;\nop: a( 1 ) -> b( y );\nop2: c( x ) -> a( z ) }')
    code = app.per_role["c"]
    assert isinstance(code, SeqP)
    assert len(code.items) == 2  # the a->b interaction vanished


def test_starter_without_statements_still_deployed():
    app = _app('preamble { starter: z } aioc { x@a = 1 }')
    assert app.per_role["z"] == Nop()
    assert app.starter == "z"


# ---------------------------------------------------------------------
# Guarded constructs
# ---------------------------------------------------------------------


def test_if_evaluator_and_follower_split():
    app = _app('preamble { starter: a } aioc {\n'
               'x@a = 1;\n'
               'if ( x < 2 )@a {\n  op: a( x ) -> b( y )\n} else {\n  skip\n}\n'
               '}')
    local = app.per_role["a"].items[1]
    assert isinstance(local, IfLocal)
    assert local.involved == ("b",)
    follow = app.per_role["b"]
    assert isinstance(follow, IfFollow)
    assert follow.evaluator == "a"
    assert follow.guard_op == local.guard_op
    assert follow.guard_op.startswith("_aux_guard_")


def test_while_ops_pair_guard_and_ack():
    sc = corpus.scenario_by_name("pipe-3")
    app = project(sc.program)
    a = app.per_role["a"]
    loop = next(p for p in a.items if isinstance(p, WhileLocal))
    b_loop = next(p for p in app.per_role["b"].items
                  if isinstance(p, WhileFollow))
    assert loop.guard_op == b_loop.guard_op
    assert loop.ack_op == b_loop.ack_op
    assert loop.guard_op.startswith("_aux_guard_")
    assert loop.ack_op.startswith("_aux_ack_")


def test_guard_only_reaches_involved_roles():
    app = _app('preamble { starter: a } aioc {\n'
               'x@a = 1;\n'
               'op0: a( x ) -> c( w );\n'
               'if ( x < 2 )@a {\n  op: a( x ) -> b( y )\n} else {\n  skip\n}\n'
               '}')
    local = next(p for p in app.per_role["a"].items if isinstance(p, IfLocal))
    assert local.involved == ("b",)
    # c is not inside the if, so it must not wait for a guard
    assert all(not isinstance(p, IfFollow) for p in
               (app.per_role["c"].items if isinstance(app.per_role["c"], SeqP)
                else [app.per_role["c"]]))


def test_projection_visits_each_node_a_bounded_number_of_times(monkeypatch):
    # Asking each if for the roles of its own subtree visits a node once per
    # enclosing if: 10 401 visits for this program, against 201 nodes.
    inner = "m: a( 1 ) -> b( x )"
    for k in range(100):
        inner = f"if ( 1 < 2 )@a {{ {inner} }} else {{ e{k}: a( 2 ) -> b( x ) }}"
    program = parse_program(f"preamble {{ starter: a }}\naioc {{\n{inner}\n}}\n")
    nodes = len(ast.walk(program.body))
    visits = []
    real = ast.walk

    def counting(node, post_order=False):
        out = real(node, post_order)
        visits.append(len(out))
        return out

    monkeypatch.setattr(ast, "walk", counting)
    # the package exports the function ``project`` under the module's name
    monkeypatch.setattr(importlib.import_module("chorad.project"), "walk", counting)
    app = project(program)
    assert app.per_role["a"].involved == ("b",)
    assert sum(visits) <= 3 * nodes


# ---------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------


def test_scope_aux_names_derive_from_node_path():
    sc = corpus.scenario_by_name("hello-world")
    app = project(sc.program)
    [(sid, info)] = list(app_manifest(sc.program, app)["scopes"].items())
    coord = app.per_role[info["coordinator"]]
    node = coord if isinstance(coord, ScopeCoord) else next(
        p for p in coord.items if isinstance(p, ScopeCoord))
    assert node.directive_op == f"_aux_directive_{sid}"
    assert node.done_op == f"_aux_done_{sid}"
    assert str(node.scope_id) == sid


def test_scope_follower_mirrors_coordinator_ops():
    sc = corpus.scenario_by_name("hello-world")
    app = project(sc.program)
    [(sid, info)] = list(app_manifest(sc.program, app)["scopes"].items())
    assert info["involved"]
    for r in info["involved"]:
        code = app.per_role[r]
        node = code if isinstance(code, ScopeFollow) else next(
            p for p in code.items if isinstance(p, ScopeFollow))
        assert node.coordinator == info["coordinator"]
        assert node.directive_op == f"_aux_directive_{sid}"


def test_scope_info_carries_props_and_body_source():
    sc = corpus.scenario_by_name("hello-world")
    [info] = list(app_manifest(sc.program, project(sc.program))["scopes"].values())
    assert info["props"] == {"flavour": "greeting"}
    assert "Hello World" in info["body"]


def test_aux_op_format():
    assert aux_op(NodeId((1, 0, 2)), "guard") == "_aux_guard_1_0_2"
    assert aux_op(NodeId(()), "done") == "_aux_done_"


# ---------------------------------------------------------------------
# Projection is deterministic and total over the corpus
# ---------------------------------------------------------------------


def test_projection_is_deterministic():
    for sc in corpus.standard_scenarios():
        assert project(sc.program).per_role == project(sc.program).per_role


def test_every_corpus_role_projects():
    for sc in corpus.standard_scenarios():
        app = project(sc.program)
        assert set(app.per_role) >= {sc.program.preamble.starter}


def test_projection_drops_nops_and_flattens_chains():
    app = _app('preamble { starter: c } aioc { { x@a = 1 | y@b = 2 }; z@b = 3 }')
    assert app.per_role["a"] == LocalAssign(var="x", expr=Lit(1))
    assert app.per_role["b"] == SeqP(items=(LocalAssign(var="y", expr=Lit(2)),
                                            LocalAssign(var="z", expr=Lit(3))))
    assert app.per_role["c"] == Nop()
    # a `|` that keeps one item inside a `;` collapses to that item
    app = _app('preamble { starter: a } aioc { x@a = 1; { y@a = 2 | z@b = 3 }; w@a = 4 }')
    assert app.per_role["a"] == SeqP(items=tuple(
        LocalAssign(var=v, expr=Lit(i)) for v, i in (("x", 1), ("y", 2), ("w", 4))))


def test_projection_splices_a_chain_of_its_own_kind_into_a_chain():
    # on `a` the `|` keeps one item, itself a `;` chain: its items join the outer `;`
    app = _app('preamble { starter: a } aioc '
               '{ x@a = 1; { { y@a = 2; v@a = 5 } | z@b = 3 }; w@a = 4 }')
    assert app.per_role["a"] == SeqP(items=tuple(
        LocalAssign(var=v, expr=Lit(i)) for v, i in (("x", 1), ("y", 2), ("v", 5), ("w", 4))))


# ---------------------------------------------------------------------
# Rule-body projection
# ---------------------------------------------------------------------


def test_rule_body_rerooted_at_scope_for_shared_aux_names():
    body = parse_behaviour(
        'if ( 1 < 2 )@u {\n  greet: u( "x" ) -> d( m )\n} else {\n  skip\n}')
    sid = NodeId((3, 1))
    at_u = project_rule_body(body, sid, "u")
    at_d = project_rule_body(body, sid, "d")
    assert isinstance(at_u, IfLocal) and isinstance(at_d, IfFollow)
    assert at_u.guard_op == at_d.guard_op
    assert at_u.guard_op.startswith("_aux_guard_3_1")


def test_rule_body_for_absent_role_is_an_error():
    body = parse_behaviour('x@u = 1')
    with pytest.raises(ProjectionError):
        project_rule_body(body, NodeId((0,)), "stranger")


def test_rule_body_for_idle_coordinator_is_nop():
    body = parse_behaviour('x@u = 1')
    out = project_rule_body(body, NodeId((0,)), "boss", coordinator="boss")
    assert out == Nop()


#: Rule bodies with every id-bearing construct, a leading `skip` (dropped
#: by the parser, so printed text and parse ids differ) and a root `if`
#: (root id: its auxiliary names end in the scope's path alone).
_SHAPED_RULES = """
rule { on { true } do {
  if ( n < 2 )@u { greet: u( n ) -> d( m ) } else { k@d = 1 }
} }
rule { on { true } do {
  skip;
  while ( n < 3 )@u {
    n@u = n + 1;
    scope @u { step: u( n ) -> d( m ) } prop { N.stage = "inner" };
    { a: u( 1 ) -> d( p ) | b@d = 2 }
  };
  if ( m == 1 )@d { back: d( m ) -> u( q ) }
} }
rule { on { true } do { scope @d { x@d = 1; z: d( x ) -> u( w ) } } }
"""


def _scope_paths(program) -> list[tuple[int, ...]]:
    return sorted(x.nid.path for x in ast.walk(program.body) if isinstance(x, ast.Scope))


def _adapted_corpus_rules():
    for sc in corpus.standard_scenarios():
        labels = {label for run in sc.adapted.values() for label in run.labels}
        for label in sorted(labels):
            for i, rule in enumerate(parse_rules(sc.rules[label])):
                yield pytest.param(rule, _scope_paths(sc.program), id=f"{sc.name}-{label}-{i}")
    for i, rule in enumerate(parse_rules(_SHAPED_RULES)):
        yield pytest.param(rule, [], id=f"shaped-{i}")


@pytest.mark.parametrize("rule, scopes", list(_adapted_corpus_rules()))
def test_compiled_rule_code_rerooted_equals_projecting_the_rerooted_body(rule, scopes):
    """What a participant runs now (the server's code, re-rooted) against
    what it ran when it parsed the shipped text and projected it itself."""
    from chorad.adapt import compile_rule
    from chorad.project import _proj, reroot_proc

    compiled = compile_rule(rule)
    body = parse_behaviour(ast.pretty_print(rule.body))  # what used to be shipped
    paths = {(), (0,), (1, 0, 3, 0, 0, 2)}
    paths |= set(scopes)
    assert set(compiled) == ast.roles_of(body)
    for path in sorted(paths):
        for role in sorted(ast.roles_of(body) | {"coordinator-only"}):
            old = _proj(ast.reroot_ids(body, path), role, {})
            new = reroot_proc(compiled[role], path) if role in compiled else Nop()
            assert new == old, (path, role)
            if role in compiled:
                assert new == project_rule_body(body, NodeId(path), role)


# ---------------------------------------------------------------------
# Node ids and auxiliary names
# ---------------------------------------------------------------------


_SOURCES = ["corpus"] + [f"progen-{seed}" for seed in range(50)]


def _programs(source: str) -> list:
    """(name, program) pairs: the standard corpus, or one progen seed."""
    if source == "corpus":
        return [(sc.name, sc.program) for sc in corpus.standard_scenarios()]
    return [(source, progen.random_connected_program(int(source.split("-")[1])))]


def _aux_ops(code: ProcessCode) -> list[str]:
    """Every auxiliary operation name in ``code``."""
    out, stack = [], [code]
    while stack:
        p = stack.pop()
        for f in dataclasses.fields(p):
            v = getattr(p, f.name)
            if f.name.endswith("_op"):
                out.append(v)
            elif isinstance(v, ProcessCode):
                stack.append(v)
            elif f.type == "tuple[ProcessCode, ...]":
                stack += v
    return out


def _scope_chain(n: int) -> str:
    blocks = "\n".join(
        f"  scope @a {{ step: a( x ) -> b( y ); back: b( y + 1 ) -> a( x ) }}"
        f" prop {{ N.stage = {k} }};" for k in range(1, n + 1))
    return (f"preamble {{ starter: a }}\naioc {{\n  x@a = 0;\n{blocks}\n"
            f"  final: a( x ) -> b( r )\n}}\n")


def test_ids_and_aux_names_do_not_grow_with_chain_length():
    depth, longest = {}, {}
    for n in (10, 200, 2000):
        program = parse_program(_scope_chain(n))
        depth[n] = max(len(x.nid.path) for x in ast.walk(program.body))
        app = project(program)
        longest[n] = max((op for code in app.per_role.values() for op in _aux_ops(code)),
                         key=len)
    # a scope's statements sit at (k, 0, i) however long the chain
    assert depth[10] == depth[200] == depth[2000] == 3
    # only the digits of the scope's position grow: _aux_directive_2000
    for n in (200, 2000):
        assert longest[n].count("_") == longest[10].count("_")
        assert len(longest[n]) - len(longest[10]) == len(str(n)) - len(str(10))


_AUX_PURPOSES = {ast.If: ("guard",), ast.While: ("guard", "ack"),
                 ast.Scope: ("directive", "done")}


def test_every_guarded_node_has_its_own_aux_names():
    for source in _SOURCES:
        for name, program in _programs(source):
            names = [aux_op(x.nid, purpose) for x in ast.walk(program.body)
                     for purpose in _AUX_PURPOSES.get(type(x), ())]
            assert len(names) == len(set(names)), name


# ---------------------------------------------------------------------
# Codec (compile output)
# ---------------------------------------------------------------------


@pytest.mark.parametrize("source", _SOURCES)
def test_proc_codec_round_trips_the_corpus(source):
    for name, program in _programs(source):
        app = project(program)
        for role, code in app.per_role.items():
            data = proc_to_data(code)
            assert proc_from_data(data) == code, (name, role)


def test_a_thousand_term_sum_checks_and_round_trips_without_recursion():
    n = 1000
    terms = " + ".join(["f( 0 )"] + [str(i) for i in range(1, n)])
    program = parse_program(f"preamble {{ starter: a }}\naioc {{\n  x@a = {terms};\n"
                            f"  show: a( x ) -> b( y )\n}}\n")
    # the undeclared call is the innermost operand of the left-nested sum
    assert [v.message for v in check_program(program)] == [
        "function 'f' is not declared by any include"]
    app = project(program)
    for role, code in app.per_role.items():
        assert proc_from_data(proc_to_data(code)) == code, role
    [assign, _] = proc_to_data(app.per_role["a"])["items"]
    # the whole sum is one flat list on the wire, the call and its operand first
    assert [x["k"] for x in assign["expr"]] == ["lit", "call"] + ["lit", "binary"] * (n - 1)
    assert _depth(assign) == 3


def _depth(data) -> int:
    """Levels of dicts and lists nested in ``data``; a scalar has none."""
    deepest, todo = 0, [(data, 0)]
    while todo:
        x, depth = todo.pop()
        if isinstance(x, (dict, list)):
            deepest = max(deepest, depth + 1)
            todo += [(y, depth + 1) for y in (x.values() if isinstance(x, dict) else x)]
    return deepest


def _chain_program(ops: list[str], term) -> ast.Program:
    text = term(0) + "".join(f" {op} {term(i)}" for i, op in enumerate(ops, 1))
    return parse_program(f"preamble {{ starter: a }}\naioc {{\n  v@a = {text};\n"
                         f"  m: a( v ) -> b( x )\n}}\n")


def test_compiled_code_nests_within_a_bound_and_round_trips_through_json():
    """Every file ``chorad compile`` writes nests at most ``5 * MAX_NESTING +
    9`` levels, so the stdlib ``json`` module reads and writes it.

    The bound follows from the encoding.  An expression is a flat list of
    nodes: two levels, three in a call's argument list, whatever its shape.
    Process code nests only where the source does, and the parser refuses
    source nested past ``MAX_NESTING``.  From one nested construct to the
    next there are at most five levels: the construct's node, then a ``;``
    node and its list, then a ``|`` node and its list (a brace adds no node
    of its own).  The file and the top level's ``;`` and ``|`` add five, and
    the innermost statement with a call's arguments adds four."""
    from chorad.parser import MAX_NESTING
    from test_sim import _NESTED, _nested_source, _paren_chain_source

    programs = [sc.program for sc in corpus.standard_scenarios()]
    programs += [progen.random_connected_program(seed) for seed in range(50)]
    programs += [parse_program(_nested_source(kind, MAX_NESTING)[0]) for kind in _NESTED]
    programs += [parse_program(_paren_chain_source(MAX_NESTING)),
                 _chain_program(["+"] * 999, lambda i: f"r{i}"),
                 _chain_program(["and"] * 999, lambda i: f"{i} == {i}"),
                 _chain_program(["+", "-"] * 499 + ["+"], lambda i: f"r{i}")]
    deepest = 0
    for program in programs:
        app = project(program)
        files = [app_manifest(program, app)]
        files += [{"role": r, "code": proc_to_data(c)} for r, c in app.per_role.items()]
        for data in files:
            deepest = max(deepest, _depth(data))
            assert json.loads(json.dumps(data, indent=2)) == data
            if "code" in data:
                assert proc_from_data(data["code"]) == app.per_role[data["role"]]
    # seq-par, the deepest shape per level, comes within a few levels of it
    assert 5 * MAX_NESTING <= deepest <= 5 * MAX_NESTING + 9


@pytest.mark.parametrize("op, term, value", [
    ("+", str, sum(range(1000))),
    ("and", lambda i: f"{i} == {i}", True),
])
def test_thousand_term_chains_print_evaluate_and_walk_without_recursion(op, term, value):
    calls_at = (0, 250, 500, 999)
    text = f" {op} ".join(f"f( {i} )" if i in calls_at else term(i) for i in range(1000))
    e = parse_expr(text)
    assert ast.pretty_print_expr(e) == text
    assert expr_to_data(parse_expr(ast.pretty_print_expr(e))) == expr_to_data(e)
    calls = find_calls(e)
    assert [c.args[0].value for c in calls] == list(calls_at)
    resolved = {id(c): (c.args[0].value if op == "+" else True) for c in calls}
    assert eval_expr(e, {}, resolved) == value
    if op == "and":  # stops at the first false operand, however long the chain
        # the later calls stay unresolved: evaluating them would raise
        assert eval_expr(e, {}, {id(calls[0]): True, id(calls[1]): False}) is False


def test_manifest_lists_roles_and_scopes():
    sc = corpus.scenario_by_name("appointment")
    app = project(sc.program)
    m = app_manifest(sc.program, app)
    assert sorted(m["roles"]) == app.roles
    assert m["starter"] == app.starter
    assert sorted(tuple(int(i) for i in sid.split("_") if i) for sid in m["scopes"]) \
        == _scope_paths(sc.program)


_PINNED_SOURCE = """include f from "socket://localhost:9"
preamble { starter: a }
aioc {
  n@a = 2;
  while( n > 0 )@a {
    go: a( n ) -> b( m );
    n@a = n - 1
  };
  if( !( n > 0 ) )@a {
    scope @a {
      { ok: a( true ) -> b( z ) | x@a = f( n, "s" ) }
    } prop { N.kind = "pin" }
  }
}
"""

_N = {"k": "var", "name": "n"}

_PINNED_CODE = {
    "a": {"t": "seq", "items": [
        {"t": "assign", "var": "n", "expr": [{"k": "lit", "v": 2}]},
        {"t": "whileLocal",
         "guard": [_N, {"k": "lit", "v": 0}, {"k": "binary", "op": ">"}],
         "involved": ["b"], "guardOp": "_aux_guard_1", "ackOp": "_aux_ack_1",
         "body": {"t": "seq", "items": [
             {"t": "send", "op": "go", "peer": "b", "expr": [_N]},
             {"t": "assign", "var": "n",
              "expr": [_N, {"k": "lit", "v": 1}, {"k": "binary", "op": "-"}]}]}},
        {"t": "ifLocal",
         "guard": [_N, {"k": "lit", "v": 0}, {"k": "binary", "op": ">"},
                   {"k": "unary", "op": "!"}],
         "involved": ["b"], "guardOp": "_aux_guard_2",
         "then": {"t": "scopeCoord", "scopeId": "2_0", "props": {"kind": "pin"},
                  "involved": ["b"], "directiveOp": "_aux_directive_2_0",
                  "doneOp": "_aux_done_2_0",
                  "default": {"t": "par", "items": [
                      {"t": "send", "op": "ok", "peer": "b",
                       "expr": [{"k": "lit", "v": True}]},
                      {"t": "assign", "var": "x",
                       "expr": [_N, {"k": "lit", "v": "s"},
                                {"k": "call", "fn": "f", "args": 2}]}]}},
         "else": {"t": "nop"}}]},
    "b": {"t": "seq", "items": [
        {"t": "whileFollow", "guardOp": "_aux_guard_1", "ackOp": "_aux_ack_1",
         "evaluator": "a",
         "body": {"t": "recv", "op": "go", "peer": "a", "var": "m"}},
        {"t": "ifFollow", "guardOp": "_aux_guard_2", "evaluator": "a",
         "then": {"t": "scopeFollow", "scopeId": "2_0", "coordinator": "a",
                  "directiveOp": "_aux_directive_2_0",
                  "doneOp": "_aux_done_2_0",
                  "default": {"t": "recv", "op": "ok", "peer": "a", "var": "z"}},
         "else": {"t": "nop"}}]},
}


def test_compile_format_is_pinned():
    # json.dumps keeps key order, so this pins the bytes `chorad compile` writes
    app = _app(_PINNED_SOURCE)
    assert sorted(app.per_role) == ["a", "b"]
    for role, code in app.per_role.items():
        assert json.dumps(proc_to_data(code)) == json.dumps(_PINNED_CODE[role]), role
        assert proc_from_data(_PINNED_CODE[role]) == code, role


#: sha256 over every file ``chorad compile`` writes for the corpus and progen 0–49.
_COMPILE_DIGEST = "74cf185aeed615a5326c69720425694e229587af179aee96771b6b040e684f36"


def test_whole_compile_output_is_pinned(tmp_path):
    from chorad import cli

    sources = [(sc.name, sc.source) for sc in corpus.standard_scenarios()]
    sources += [(f"progen-{seed}", progen.random_connected_source(seed)) for seed in range(50)]
    digest = hashlib.sha256()
    for name, source in sources:
        path = tmp_path / f"{name}.aioc"
        path.write_text(source, encoding="utf-8")
        out = tmp_path / f"{name}.build"
        assert cli.main(["compile", str(path), "-o", str(out)]) == 0, name
        for f in sorted(out.iterdir()):
            digest.update(f"{name}/{f.name}\0".encode() + f.read_bytes())
    assert digest.hexdigest() == _COMPILE_DIGEST


def _concrete_subclasses(base):
    out = []
    for cls in base.__subclasses__():
        out += [cls] + _concrete_subclasses(cls)
    return out


# one sample value per declared field type of the node classes
_SAMPLES = {
    "Expr": Lit(1), "ProcessCode": Nop(), "NodeId": NodeId((1, 2)),
    "tuple[Expr, ...]": (Lit(2), Lit("s")), "tuple[ProcessCode, ...]": (Nop(), Nop()),
    "tuple[str, ...]": ("r",), "dict[str, Value]": {"k": 1, "t": True},
    "str": "s", "Value": 3,
}


@pytest.mark.parametrize(
    "cls", _concrete_subclasses(ast.Expr) + _concrete_subclasses(ProcessCode),
    ids=lambda cls: cls.__name__)
def test_every_node_class_has_a_wire_tag(cls):
    node = cls(*(_SAMPLES[f.type] for f in dataclasses.fields(cls) if f.compare))
    to_data, from_data, key = (expr_to_data, expr_from_data, "k") \
        if isinstance(node, ast.Expr) else (proc_to_data, proc_from_data, "t")
    data = to_data(node)
    # an expression ships as a list of its nodes, operands first
    assert isinstance((data[-1] if isinstance(node, ast.Expr) else data)[key], str)
    assert from_data(json.loads(json.dumps(data))) == node


@pytest.mark.parametrize("data", [
    {"k": "lit", "v": 1},  # not a list
    [],
    [{"k": "lit", "v": 1}, {"k": "lit", "v": 2}],  # two trees
    [{"k": "lit", "v": 1}, {"k": "binary", "op": "+"}],  # an operand short
    [{"k": "call", "fn": "f", "args": 2}],
], ids=["dict", "empty", "two-trees", "binary-short", "call-short"])
def test_expression_lists_that_are_not_one_tree_are_rejected(data):
    with pytest.raises(ValueError):
        expr_from_data(data)


def test_unknown_wire_tags_are_rejected():
    with pytest.raises(ValueError):
        proc_from_data({"t": "teleport"})
    with pytest.raises(ValueError):
        expr_from_data([{"k": "teleport"}])
