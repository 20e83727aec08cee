"""Connectedness checking: event signatures, golden violations, hygiene."""

from __future__ import annotations

import pytest

from chorad import check
from chorad.ast import Assign, Behaviour, Interaction, Par, walk
from chorad.check import (
    check_connectedness,
    check_program,
    check_rule,
    has_errors,
    trans_final,
    trans_initial,
    validate_program,
)
from chorad.parser import parse_behaviour, parse_program, parse_rules
from chorad import corpus

import progen


def _initials(text: str) -> set[tuple[str, ...]]:
    return {s.roles for s in trans_initial(parse_behaviour(text))}


def _finals(text: str) -> set[tuple[str, ...]]:
    return {s.roles for s in trans_final(parse_behaviour(text))}


# ---------------------------------------------------------------------
# Event signatures
# ---------------------------------------------------------------------


def test_interaction_signature_orders_sender_first():
    assert _initials('op: b( 1 ) -> a( x )') == {("b", "a")}
    assert _finals('op: b( 1 ) -> a( x )') == {("b", "a")}


def test_seq_initials_come_from_first_real_statement():
    assert _initials('skip;\nx@c = 1;\ny@a = 2') == {("c",)}
    assert _finals('x@c = 1;\nskip') == {("c",)}


def test_par_unions_both_branches():
    assert _initials('{ x@a = 1 | op: b( 2 ) -> c( v ) }') == {("a",), ("b", "c")}
    assert _finals('{ x@a = 1 | op: b( 2 ) -> c( v ) }') == {("a",), ("b", "c")}


def test_if_starts_at_evaluator_and_empty_branch_ends_there():
    text = 'if ( 1 < 2 )@a {\n  op: a( 1 ) -> b( x )\n} else {\n  skip\n}'
    assert _initials(text) == {("a",)}
    # the then branch ends with the interaction; the empty else branch ends
    # with the guard evaluation itself
    assert _finals(text) == {("a", "b"), ("a",)}


def test_while_ends_at_evaluator():
    text = 'while ( 1 < 2 )@a {\n  op: a( 1 ) -> b( x )\n}'
    assert _initials(text) == {("a",)}
    assert _finals(text) == {("a",)}


def test_scope_starts_at_coordinator_and_ends_with_its_body():
    text = 'scope @a {\n  op: b( 1 ) -> c( x )\n} prop { N.t = 1 }'
    assert _initials(text) == {("a",)}
    assert _finals(text) == {("b", "c")}


def test_empty_scope_ends_at_coordinator():
    assert _finals('scope @a { skip } prop { N.t = 1 }') == {("a",)}


# ---------------------------------------------------------------------
# Sequence condition
# ---------------------------------------------------------------------


def test_connected_sequence_passes():
    vs = check_connectedness(parse_behaviour(
        'op1: a( 1 ) -> b( x );\nop2: b( x ) -> c( y )'))
    assert vs == []


def test_initiator_must_appear_in_previous_finals():
    vs = check_connectedness(parse_behaviour(
        'x@a = 1;\nop: b( 2 ) -> a( y )'))
    assert len(vs) == 1
    v = vs[0]
    assert v.kind == "sequence" and v.severity == "error"
    assert "role 'b' starts this statement" in v.message


def test_receiver_may_start_the_next_statement():
    vs = check_connectedness(parse_behaviour(
        'op1: a( 1 ) -> b( x );\nop2: b( x ) -> a( y )'))
    assert vs == []


def test_cascade_reports_once_per_implicated_pair():
    # the b/c statements are both adrift of x@a, but the second report would
    # just restate the first break
    vs = check_connectedness(parse_behaviour('x@a = 1;\ny@b = 2;\nz@c = 3'))
    assert len(vs) == 1


def test_cascade_suppression_reaches_into_flagged_statements():
    # the scope is adrift of x@a; the statement after it is adrift of the
    # scope's final event, but only because the scope itself was flagged
    vs = check_connectedness(parse_behaviour(
        'x@a = 1;\nscope @b { y@b = 2 } prop { N.k = 1 };\nn: c( 3 ) -> a( w )'))
    assert [v.kind for v in vs] == ["sequence"]


def test_independent_breaks_each_get_a_report():
    vs = check_connectedness(parse_behaviour(
        'x@a = 1;\ny@b = 2;\nm@a = 3;\nn@c = 4'))
    assert [v.kind for v in vs] == ["sequence", "sequence"]


def test_if_branch_finals_feed_the_sequence_check():
    # whichever branch ran, role b took part in its last event, so b may
    # start the next statement
    vs = check_connectedness(parse_behaviour(
        'if ( 1 < 2 )@a {\n'
        '  op1: a( 1 ) -> b( x )\n'
        '} else {\n'
        '  op2: a( 2 ) -> b( x )\n'
        '};\n'
        'op3: b( x ) -> a( y )'))
    assert vs == []


def test_branch_participant_may_continue_even_with_empty_else():
    # b hears the guard broadcast either way, so it may start the next
    # statement even though the else path never messages it
    vs = check_connectedness(parse_behaviour(
        'if ( 1 < 2 )@a {\n'
        '  op1: a( 1 ) -> b( x )\n'
        '} else {\n'
        '  skip\n'
        '};\n'
        'op3: b( 1 ) -> a( y )'))
    assert vs == []


def test_outsider_after_if_is_flagged():
    vs = check_connectedness(parse_behaviour(
        'if ( 1 < 2 )@a {\n'
        '  op1: a( 1 ) -> b( x )\n'
        '} else {\n'
        '  skip\n'
        '};\n'
        'op3: c( 1 ) -> a( y )'))
    assert len(vs) == 1 and vs[0].kind == "sequence"


def _assign_nid(body, var):
    return next(x.nid for x in walk(body) if isinstance(x, Assign) and x.var == var)


def test_tied_final_events_of_a_block_name_the_first_branch():
    # both branches end at a: one final event, the one in the first branch
    body = parse_behaviour('{\n  x@a = 1\n|\n  y@a = 2\n};\nz@b = 3')
    [v] = check_connectedness(body)
    assert v.nodes[0] == _assign_nid(body, "x")
    assert v.message.endswith("(line 2)")


def test_tied_final_events_of_an_if_name_the_then_branch():
    body = parse_behaviour(
        'if ( 1 < 2 )@a {\n'
        '  x@a = 1\n'
        '} else {\n'
        '  y@a = 2\n'
        '};\n'
        'op: b( 1 ) -> a( z )')
    [v] = check_connectedness(body)
    assert v.nodes[0] == _assign_nid(body, "x")
    assert v.message.endswith("(line 2)")


# ---------------------------------------------------------------------
# Parallel condition
# ---------------------------------------------------------------------


def test_same_op_same_pair_in_both_branches_is_flagged():
    vs = check_connectedness(parse_behaviour(
        '{ notify: a( 1 ) -> b( x ) | notify: a( 2 ) -> b( y ) }'))
    assert len(vs) == 1
    v = vs[0]
    assert v.kind == "parallel"
    assert "notify" in v.message and "both parallel branches" in v.message


def test_same_op_different_receiver_is_fine():
    vs = check_connectedness(parse_behaviour(
        '{ notify: a( 1 ) -> b( x ) | notify: a( 2 ) -> c( y ) }'))
    assert vs == []


def test_parallel_check_sees_into_scopes():
    vs = check_connectedness(parse_behaviour(
        '{ scope @a { ping: a( 1 ) -> b( x ) } prop { N.t = 1 }'
        ' | ping: a( 2 ) -> b( y ) }'))
    assert len(vs) == 1 and vs[0].kind == "parallel"


def _par_violations_per_node(b):
    """Reference for the chain check: every Par node on its own compares the
    first occurrences of interaction keys in its two branches."""
    def keys(x):
        out = {}
        for y in walk(x):
            if isinstance(y, Interaction):
                out.setdefault((y.op, y.sender, y.receiver), y)
        return out
    found = []
    for node in walk(b):
        if isinstance(node, Par):
            left, right = keys(node.left), keys(node.right)
            found += [(left[k].nid, right[k].nid, right[k].line)
                      for k in sorted(left.keys() & right.keys())]
    return found


def test_par_chain_check_matches_the_per_node_definition():
    # `op` recurs in branches 1, 3 and 7; branch 2 holds a sequence break,
    # whose report falls between the two parallel ones in source order
    branches = [f"m{i}: a( {i} ) -> b( v{i} )" for i in range(9)]
    for i in (1, 3, 7):
        branches[i] = f"op: a( {i} ) -> b( v{i} )"
    branches[2] = "{ s1: a( 1 ) -> b( w ); s2: c( 1 ) -> d( u ) }"
    body = parse_behaviour("{ " + "\n| ".join(branches) + " }")
    vs = check_connectedness(body)
    assert [v.kind for v in vs] == ["parallel", "sequence", "parallel"]
    parallel = [(v.nodes[0], v.nodes[1], v.line) for v in vs if v.kind == "parallel"]
    assert parallel == _par_violations_per_node(body)
    assert [(a.path, b.path) for a, b, _ in parallel] == [((1,), (3,)), ((3,), (7,))]


# ---------------------------------------------------------------------
# Golden corpus verdicts
# ---------------------------------------------------------------------


def test_standard_corpus_is_clean():
    for sc in corpus.standard_scenarios():
        vs = check_program(sc.program)
        assert not has_errors(vs), (sc.name, [v.message for v in vs])


def test_disconnected_swap_has_exactly_one_sequence_violation():
    sc = corpus.scenario_by_name("disconnected-swap")
    vs = [v for v in check_program(sc.program) if v.severity == "error"]
    assert len(vs) == 1
    assert vs[0].kind == "sequence"


def test_duplicated_notify_has_exactly_one_parallel_violation():
    sc = corpus.scenario_by_name("duplicated-notify")
    vs = [v for v in check_program(sc.program) if v.severity == "error"]
    assert len(vs) == 1
    assert vs[0].kind == "parallel"


def test_violation_render_is_location_first():
    sc = corpus.scenario_by_name("disconnected-swap")
    v = [v for v in check_program(sc.program) if v.severity == "error"][0]
    assert v.render("x.aioc").startswith(f"x.aioc:{v.line}:{v.col}: sequence:")


# ---------------------------------------------------------------------
# Hygiene checks
# ---------------------------------------------------------------------


def test_undeclared_function_is_an_error():
    prog = parse_program('preamble { starter: a } aioc { x@a = mystery( 1 ) }')
    vs = validate_program(prog)
    assert any(v.kind == "name" and "mystery" in v.message for v in vs)


def test_get_input_needs_no_include():
    prog = parse_program('preamble { starter: a } aioc { x@a = getInput( "q" ) }')
    assert not has_errors(validate_program(prog))


def test_duplicate_include_function_is_an_error():
    prog = parse_program(
        'include f from "socket://h:1"\n'
        'include f from "socket://h:2"\n'
        'preamble { starter: a } aioc { x@a = f( 1 ) }')
    vs = validate_program(prog)
    assert any("more than one include" in v.message for v in vs)


def test_unknown_protocol_is_only_a_warning():
    prog = parse_program(
        'include f from "socket://h:1" with carrier_pigeon\n'
        'preamble { starter: a } aioc { x@a = f( 1 ) }')
    vs = validate_program(prog)
    assert any(v.severity == "warning" and "protocol" in v.message for v in vs)
    assert not has_errors(vs)


def test_unassigned_guard_variable_warns():
    prog = parse_program(
        'preamble { starter: a } aioc { while ( go )@a { x@a = 1 } }')
    vs = validate_program(prog)
    assert any(v.severity == "warning" and "'go'" in v.message for v in vs)


def test_starter_must_occur_or_have_a_location():
    prog = parse_program('preamble { starter: z } aioc { x@a = 1 }')
    assert any(v.kind == "role" for v in validate_program(prog))


# ---------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------


def test_rule_body_connectedness_is_checked():
    [rule] = parse_rules('rule { on { true } do { x@a = 1; y@b = 2 } }')
    vs = check_rule(rule)
    assert any(v.kind == "sequence" for v in vs)


def test_rule_condition_rejects_unknown_namespace():
    [rule] = parse_rules('rule { on { Q.size == 1 } do { x@a = 1 } }')
    vs = check_rule(rule)
    assert any("unknown namespace 'Q.'" in v.message for v in vs)


def test_rule_condition_rejects_calls():
    [rule] = parse_rules('rule { on { now() == 1 } do { x@a = 1 } }')
    vs = check_rule(rule)
    assert any("cannot call functions" in v.message for v in vs)


def test_rule_body_calls_need_rule_includes():
    [rule] = parse_rules('rule { on { true } do { x@a = lift( 1 ) } }')
    assert any(v.kind == "name" for v in check_rule(rule))
    [rule] = parse_rules(
        'rule { include lift from "socket://h:9" on { true }'
        ' do { x@a = lift( 1 ) } }')
    assert check_rule(rule) == []


# ---------------------------------------------------------------------
# Generator/checker agreement
# ---------------------------------------------------------------------


def test_generator_and_checker_mostly_agree():
    # The generator builds connected programs by construction; the checker
    # must accept nearly all of them, and anything it rejects must be for a
    # connectedness reason, not a hygiene one.
    accepted = 0
    for seed in range(200):
        prog = parse_program(progen.random_program_source(seed))
        errors = [v for v in check_program(prog) if v.severity == "error"]
        if not errors:
            accepted += 1
        else:
            assert {v.kind for v in errors} <= {"sequence", "parallel"}, errors
    assert accepted >= 170


def test_connected_sampler_always_passes_the_checker():
    for seed in range(40):
        prog = progen.random_connected_program(seed)
        assert not has_errors(check_program(prog))


def test_deep_sequential_programs_stay_within_the_stack():
    # parse (numbering into normal form) + checking at depth ~1200
    sc = corpus.scenario_by_name("pipe-seq-1200")
    assert check_program(sc.program) == []


def test_a_block_free_check_walks_the_body_once(monkeypatch):
    # one walk feeds both conditions and every hygiene check; only the
    # parallel condition walks again, once per branch of a `|` block
    walked = []

    def spy(node, *args, **kwargs):
        if isinstance(node, Behaviour):
            walked.append(node)
        return walk(node, *args, **kwargs)

    monkeypatch.setattr(check, "walk", spy)
    prog = corpus.pipe_unrolled(20).program
    assert check_program(prog) == []
    assert len(walked) == 1 and walked[0] is prog.body
    walked.clear()
    [rule] = parse_rules(corpus.pipe_boost_rules((1,)))
    assert check_rule(rule) == []
    assert len(walked) == 1 and walked[0] is rule.body
