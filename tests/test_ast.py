"""AST construction, normal form, ids, and printer/parser round trips."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorad.ast import (
    Assign,
    Behaviour,
    Binary,
    Call,
    Expr,
    If,
    Interaction,
    Lit,
    NodeId,
    Par,
    Scope,
    Seq,
    Skip,
    Unary,
    Var,
    While,
    chain_items,
    pretty_print,
    pretty_print_expr,
    pretty_print_program,
    render_literal,
    reroot_ids,
    roles_of,
    walk,
)
from chorad.parser import parse_behaviour, parse_expr, parse_program, parse_rules
from chorad.project import ProcessCode, project

import progen
from chorad import corpus


# ---------------------------------------------------------------------
# NodeId
# ---------------------------------------------------------------------


def test_node_id_renders_underscored_path():
    assert str(NodeId((1, 0, 2))) == "1_0_2"
    assert str(NodeId()) == ""


def test_node_id_child_and_prefix():
    root = NodeId()
    assert root.child(3).path == (3,)
    assert NodeId((2,)).prefixed((1, 1)).path == (1, 1, 2)


def test_assign_ids_unique_outside_rebuilt_spines():
    # The interior nodes of a Seq/Par chain share the chain's id; every
    # other node — in particular
    # the If/While/Scope nodes whose ids feed auxiliary operation names —
    # must have a path of its own.
    sc = corpus.scenario_by_name("appointment")
    prog = parse_program(sc.source)

    seen = []

    def walk(b):
        if not isinstance(b, (Seq, Par)):
            seen.append(b.nid.path)
        for name in ("first", "second", "left", "right", "then_branch",
                     "else_branch", "body"):
            child = getattr(b, name, None)
            if child is not None:
                walk(child)

    walk(prog.body)
    assert len(seen) == len(set(seen))


def test_reroot_ids_prefixes_every_node():
    body = parse_behaviour('x@a = 1;\nop: a( x ) -> b( y )')
    rooted = reroot_ids(body, (7, 0))
    assert rooted.nid.path[:2] == (7, 0)
    assert rooted.first.nid.path == (7, 0, 0)
    assert rooted.second.nid.path == (7, 0, 1)


# ---------------------------------------------------------------------
# Structural equality and roles
# ---------------------------------------------------------------------


def test_equality_ignores_positions_and_ids():
    a = Assign(var="x", role="a", expr=Lit(1), line=3, col=9, nid=NodeId((1,)))
    b = Assign(var="x", role="a", expr=Lit(1))
    assert a == b


def test_equality_and_hash_walk_long_chains_without_recursion():
    total = " + ".join(str(i) for i in range(1, 1001))
    a, b = parse_expr(total), parse_expr(total)
    assert a == b and hash(a) == hash(b)
    assert a != parse_expr(total.replace(" 500 ", " 501 "))
    seq = ";\n".join(f"x{i}@a = {i}" for i in range(1000))
    p, q = parse_behaviour(seq), parse_behaviour(seq)
    assert p == q and hash(p) == hash(q)
    assert p != parse_behaviour(seq.replace("= 999", "= 998"))


def test_equality_compares_classes_values_and_operands():
    assert Lit(1) != Var("x") and Lit(1) != 1
    assert Call("f", (Lit(1),)) != Call("f", (Lit(1), Lit(2)))
    assert Call("f", (Lit(1), Var("y"))) == Call("f", (Lit(1), Var("y")), line=4)
    assert Scope("a", Skip(), {"k": 1}) != Scope("a", Skip(), {"k": 2})
    assert If(Lit(True), "a", Skip(), Skip()) != If(Lit(True), "b", Skip(), Skip())


def test_equality_and_hash_keep_true_apart_from_1():
    assert parse_behaviour("x@a = true") != parse_behaviour("x@a = 1")
    assert hash(parse_behaviour("x@a = true")) != hash(parse_behaviour("x@a = 1"))
    assert Scope("a", Skip(), {"k": True}) != Scope("a", Skip(), {"k": 1})
    assert hash(Scope("a", Skip(), {"k": True})) != hash(Scope("a", Skip(), {"k": 1}))


def test_trees_holding_a_scope_hash_by_their_props():
    source = ("preamble { starter: a }\n"
              "aioc { scope @a { x@a = 1; op: a( x ) -> b( y ) } prop { N.t = 1, N.u = 2 } }")
    body = parse_program(source).body
    assert hash(body) == hash(parse_program(source).body)
    assert hash(Scope("a", Skip(), {"t": 1, "u": 2})) \
        == hash(Scope("a", Skip(), {"u": 2, "t": 1}))
    code = project(parse_program(source)).per_role
    assert hash(code["a"]) == hash(project(parse_program(source)).per_role["a"])
    rule = parse_rules("rule { on { N.t == 1 } do { scope @a { x@a = 2 } } }")[0]
    assert hash(rule) == hash(parse_rules(
        "rule { on { N.t == 1 } do { scope @a { x@a = 2 } } }")[0])


def test_roles_of_collects_every_mention():
    body = parse_behaviour(
        'if ( ok )@a {\n'
        '  op: b( 1 ) -> c( v )\n'
        '} else {\n'
        '  scope @d { w@e = 2 } prop { N.t = 1 }\n'
        '}'
    )
    assert roles_of(body) == {"a", "b", "c", "d", "e"}


# ---------------------------------------------------------------------
# Walking
# ---------------------------------------------------------------------


def _reference_walk(node, family: type, post_order: bool) -> list:
    """``walk``'s order, recursively: a node's children are the nodes of
    ``family`` in its compared fields, tuples flattened, in field order."""
    children = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if f.compare:
            children += [x for x in (value if isinstance(value, tuple) else (value,))
                         if isinstance(x, family)]
    out = [] if post_order else [node]
    for child in children:
        out += _reference_walk(child, family, post_order)
    return out + [node] if post_order else out


def _trees(program):
    """Every tree of ``program`` with its family: the body, each expression
    in it, and each role's projected code."""
    yield program.body, Behaviour
    for node in walk(program.body):
        for f in dataclasses.fields(node):
            if isinstance(getattr(node, f.name), Expr):
                yield getattr(node, f.name), Expr
    for code in project(program).per_role.values():
        yield code, ProcessCode


def test_walk_visits_every_family_in_the_order_of_a_recursive_walk():
    programs = [sc.program for sc in corpus.standard_scenarios()]
    programs += [progen.random_connected_program(seed) for seed in range(50)]
    seen = set()
    for program in programs:
        for tree, family in _trees(program):
            for post_order in (False, True):
                got = [id(x) for x in walk(tree, post_order=post_order)]
                assert got == [id(x) for x in _reference_walk(tree, family, post_order)]
            seen.update(type(x).__name__ for x in walk(tree))
    # every field kind was walked: operand tuples, branch tuples, single children
    assert {"Call", "SeqP", "ParP", "IfLocal", "WhileFollow", "Scope"} <= seen


# ---------------------------------------------------------------------
# Normal form, as the parser leaves it
# ---------------------------------------------------------------------


def test_parse_drops_skip_units_but_counts_them_in_ids():
    b = parse_behaviour("skip; { x@a = 1; skip }")
    assert b == Assign(var="x", role="a", expr=Lit(1))
    assert b.nid.path == (1,)  # a braced `;` chain joins the `;` chain around it


def test_parse_right_associates_seq():
    s1 = Assign(var="x", role="a", expr=Lit(1))
    s2 = Assign(var="y", role="a", expr=Lit(2))
    s3 = Assign(var="z", role="a", expr=Lit(3))
    assert parse_behaviour("{ { x@a = 1; y@a = 2 }; z@a = 3 }") == Seq(s1, Seq(s2, s3))


def test_parse_keeps_guarded_constructs_with_empty_bodies():
    w = parse_behaviour("while ( go )@a { skip }")
    assert isinstance(w, While) and w.body == Skip()
    sc = parse_behaviour("scope @a { skip; skip } prop { N.t = 1 }")
    assert isinstance(sc, Scope) and sc.body == Skip() and sc.props == {"t": 1}


def test_parse_of_an_all_skip_par_collapses():
    assert parse_behaviour("{ skip | skip }") == Skip()


@pytest.mark.parametrize("text, kind, rest", [
    ("{ skip; { y@a = 2 | z@b = 3 } } | w@c = 4", Par, "right"),
    ("{ skip | { y@a = 2; z@b = 3 } }; w@c = 4", Seq, "second"),
])
def test_a_chain_item_that_collapses_to_its_own_kind_is_spliced_in(text, kind, rest):
    b = parse_behaviour(text)
    # y, z and w in one chain nested to the right, numbered as in the source
    assert type(b) is kind and type(getattr(b, rest)) is kind
    assert [str(x.nid) for x in chain_items(b)] == ["0_1_0", "0_1_1", "1"]
    assert parse_behaviour(pretty_print(b)) == b


# ---------------------------------------------------------------------
# Literals and expression printing
# ---------------------------------------------------------------------


def test_render_literal_forms():
    assert render_literal(True) == "true"
    assert render_literal(False) == "false"
    assert render_literal(12) == "12"
    assert render_literal('say "hi"') == '"say \\"hi\\""'


def test_pretty_expr_minimal_parens():
    e = Binary("*", Binary("+", Var("a"), Var("b")), Var("c"))
    assert pretty_print_expr(e) == "(a + b) * c"
    e = Binary("+", Var("a"), Binary("*", Var("b"), Var("c")))
    assert pretty_print_expr(e) == "a + b * c"
    # subtraction is left associative: the right operand keeps its parens
    e = Binary("-", Var("a"), Binary("-", Var("b"), Var("c")))
    assert pretty_print_expr(e) == "a - (b - c)"


# ---------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------

_literals = st.one_of(
    st.integers(min_value=0, max_value=99).map(Lit),
    st.booleans().map(Lit),
    st.sampled_from(["red", "green", "it's \"fine\""]).map(Lit),
)
_vars = st.sampled_from(["x", "y", "total"]).map(Var)
_atoms = st.one_of(_literals, _vars)


def _exprs(children):
    ops = st.sampled_from(sorted(["or", "and", "==", "!=", "<", ">", "<=",
                                  ">=", "+", "-", "*", "/"]))
    return st.one_of(
        st.builds(Unary, st.just("!"), children),
        st.builds(Binary, ops, children, children),
        st.builds(Call, st.just("f"), st.lists(children, max_size=2).map(tuple)),
    )


expr_trees = st.recursive(_atoms, _exprs, max_leaves=12)


@given(expr_trees)
@settings(max_examples=200)
def test_expr_print_parse_round_trip(e):
    assert parse_expr(pretty_print_expr(e)) == e


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_program_print_parse_round_trip(seed):
    src = progen.random_program_source(seed)
    prog = parse_program(src)
    again = parse_program(pretty_print_program(prog))
    assert again.body == prog.body
    assert again.preamble == prog.preamble


def test_corpus_programs_round_trip():
    for sc in corpus.standard_scenarios():
        prog = parse_program(sc.source)
        again = parse_program(pretty_print_program(prog))
        assert again.body == prog.body, sc.name
        assert again.includes == prog.includes, sc.name


def test_pretty_print_reparses_to_normal_form():
    b = parse_behaviour("x@a = 1;\ny@a = 2;\nz@a = 3")
    assert parse_behaviour(pretty_print(b)) == b


def test_interaction_pretty_shape():
    b = parse_behaviour('hello: a( "hi" ) -> b( msg )')
    assert pretty_print(b) == 'hello: a( "hi" ) -> b( msg )'
