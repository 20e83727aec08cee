"""Expression semantics, message encoding, and classification."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from chorad import sim
from chorad.ast import PRECEDENCE, Binary, Lit, Unary, Var
from chorad.parser import parse_expr
from chorad.runtime import (
    Message,
    RoleError,
    classify_message,
    eval_expr,
    find_calls,
    render,
)


def ev(text: str, **variables):
    return eval_expr(parse_expr(text), variables)


# ---------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------


def test_render_shows_values_the_way_users_wrote_them():
    assert render(True) == "true"
    assert render(False) == "false"
    assert render(7) == "7"
    assert render("hi") == "hi"


# ---------------------------------------------------------------------
# Arithmetic and concatenation
# ---------------------------------------------------------------------


def test_plus_adds_integers():
    assert ev("1 + 2") == 3


def test_plus_concatenates_anything_else():
    assert ev('"x = " + 4') == "x = 4"
    assert ev('1 + "!"') == "1!"
    assert ev("x + y", x=True, y=2) == "true2"


def test_division_truncates_toward_zero():
    assert ev("7 / 2") == 3
    assert ev("0 - 7", ) == -7
    assert eval_expr(parse_expr("x / 2"), {"x": -7}) == -3  # not floor(-3.5)


def test_division_by_zero_is_a_role_error():
    with pytest.raises(RoleError, match="division by zero"):
        ev("1 / 0")


def test_arithmetic_requires_integers():
    with pytest.raises(RoleError):
        ev('"a" * 2')
    with pytest.raises(RoleError):
        ev('true - 1')


# ---------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------


def test_equality_of_same_type_is_plain():
    assert ev("1 == 1") is True
    assert ev('"a" != "b"') is True


def test_equality_across_types_compares_rendered_text():
    assert ev('1 == "1"') is True
    assert ev('true == "true"') is True
    assert ev('0 == false') is False  # "0" vs "false"


def test_ordering_needs_matching_types():
    assert ev("2 < 10") is True
    assert ev('"abc" <= "abd"') is True
    with pytest.raises(RoleError):
        ev('1 < "2"')


# ---------------------------------------------------------------------
# Boolean operators
# ---------------------------------------------------------------------


def test_and_or_are_strictly_boolean():
    assert ev("true and false") is False
    assert ev("false or true") is True
    with pytest.raises(RoleError):
        ev("1 and true")
    with pytest.raises(RoleError):
        ev("false or 0")


def test_short_circuit_skips_the_right_operand():
    # `missing` is unbound; short-circuiting means it is never read
    assert ev("false and missing") is False
    assert ev("true or missing") is True
    with pytest.raises(RoleError):
        ev("true and missing")


def test_not_requires_boolean():
    assert ev("!false") is True
    with pytest.raises(RoleError):
        ev("!1")


# ---------------------------------------------------------------------
# Variables and calls
# ---------------------------------------------------------------------


def test_unbound_variable_is_a_hard_error():
    with pytest.raises(RoleError, match="'ghost' is not set"):
        ev("ghost + 1")


def test_calls_need_preresolution():
    e = parse_expr("f( 1 )")
    with pytest.raises(RoleError, match="cannot be evaluated here"):
        eval_expr(e, {})
    [call] = find_calls(e)
    assert eval_expr(e, {}, {id(call): 41}) == 41


def test_find_calls_is_post_order():
    e = parse_expr("outer( inner( 1 ), 2 )")
    calls = find_calls(e)
    assert [c.function for c in calls] == ["inner", "outer"]


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_truncating_division_matches_int_cast(a, b):
    if b == 0:
        return
    assert ev("a / b", a=a, b=b) == int(a / b)


def test_find_calls_follows_evaluation_order_through_operators():
    e = parse_expr("a( b( 1 ) + !c( 2 ) ) * d( 3 ) - e()")
    assert [c.function for c in find_calls(e)] == ["b", "c", "a", "d", "e"]


# ---------------------------------------------------------------------
# Agreement with the independent global-semantics oracle
# ---------------------------------------------------------------------

_STORE = {"n": 7, "z": 0, "neg": -3, "s": "ab", "t": True, "f": False}

_call_free = st.recursive(
    st.one_of(
        st.integers(-5, 5).map(Lit),
        st.booleans().map(Lit),
        st.sampled_from(["", "ab", "7", "true"]).map(Lit),
        st.sampled_from(sorted(_STORE)).map(Var),
    ),
    lambda kids: st.one_of(
        st.builds(Unary, st.just("!"), kids),
        st.builds(Binary, st.sampled_from(sorted(PRECEDENCE)), kids, kids),
    ),
    max_leaves=10,
)


@given(_call_free)
@settings(max_examples=400)
def test_eval_expr_agrees_with_the_oracle(e):
    try:
        value = eval_expr(e, dict(_STORE))
    except RoleError:
        return  # the oracle leaves ill-typed operands undefined
    run = oracle.GlobalRun()
    run.stores["a"] = dict(_STORE)
    expected = run.eval(e, "a")
    assert (type(value), value) == (type(expected), expected)


# ---------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------


def test_message_wire_round_trip():
    m = Message(kind="msg", op="greet", frm="user", to="display",
                data="Hello World", seq=3)
    assert Message.from_dict(json.loads(json.dumps(m.to_dict()))) == m


def test_message_compares_hashes_and_prints_by_its_fields():
    by_name = Message(kind="msg", op="o", frm="a", to="b", data=[1, "x"], seq=4)
    by_position = Message("msg", "o", "a", "b", [1, "x"], 4)
    assert by_name == by_position and not by_name != by_position
    assert by_name != Message("msg", "o", "a", "b", [1, "x"], 5)
    assert by_name != ("msg", "o", "a", "b", [1, "x"], 4)
    assert repr(by_name) == ("Message(kind='msg', op='o', frm='a', to='b', "
                             "data=[1, 'x'], seq=4)")
    ack = Message("ack", "o", "b", "a", 4, 1)
    assert hash(ack) == hash(Message(kind="ack", op="o", frm="b", to="a", data=4, seq=1))
    assert len({ack, Message("ack", "o", "b", "a", 4, 1), by_name.seq}) == 2
    with pytest.raises(TypeError):
        hash(by_name)  # a list payload is unhashable, as in a tuple


def test_message_from_dict_fills_in_the_optional_fields():
    m = Message.from_dict({"kind": "ready", "from": "b", "to": "a"})
    assert m == Message("ready", "", "b", "a", None, 0)
    assert Message.from_dict(m.to_dict()) == m


def test_a_message_fingerprints_as_every_field():
    m = Message("msg", "o", "a", "b", [1, True], 4)
    assert sim._exact(m) == (Message, "msg", "o", "a", "b", (list, 1, (bool, True)), 4)


def test_wire_format_uses_from_not_frm():
    m = Message(kind="msg", op="o", frm="a", to="b", data=1, seq=0)
    assert m.to_dict()["from"] == "a" and "frm" not in m.to_dict()


def _m(kind, op):
    return Message(kind=kind, op=op, frm="a", to="b", data=None, seq=0)


def test_classification_table():
    assert classify_message(_m("msg", "book")) == "user"
    assert classify_message(_m("msg", "_aux_guard_1_0")) == "guard"
    assert classify_message(_m("msg", "_aux_ack_1_0")) == "ack"
    assert classify_message(_m("ack", "book")) == "ack"
    assert classify_message(_m("ready", "_aux_barrier")) == "barrier"
    assert classify_message(_m("start", "_aux_barrier")) == "barrier"
    assert classify_message(_m("directive", "_aux_directive_2")) == "directive"
    assert classify_message(_m("done", "_aux_done_2")) == "done"
    assert classify_message(_m("matchReq", "")) == "middleware"
    assert classify_message(_m("call", "")) == "middleware"
