"""Function tables, the call request/response protocol, and the router."""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorad.runtime import ExtRequest
from chorad.services import (
    FunctionTable,
    Router,
    ServiceError,
    TIMER_NAMES,
    handle_call_request,
    shift_text,
)


def test_shift_text_wraps_the_alphabet():
    assert shift_text("abcde", 1) == "bcdef"
    assert shift_text("xyz", 3) == "abc"
    assert shift_text("Zebra!", 1) == "Afcsb!"
    assert shift_text("abc", 0) == "abc"


def test_fixed_and_scripted():
    t = FunctionTable().fixed("answer", 42).scripted("next", ["a", "b"])
    assert t.call("answer", []) == 42
    assert t.call("answer", []) == 42
    assert t.call("next", []) == "a"
    assert t.call("next", []) == "b"
    with pytest.raises(ServiceError, match="no scripted replies left"):
        t.call("next", [])


def test_shifter_validates_argument_shapes():
    t = FunctionTable().shifter("shiftChar")
    assert t.call("shiftChar", ["m", 2]) == "o"
    with pytest.raises(ServiceError):
        t.call("shiftChar", ["m"])
    with pytest.raises(ServiceError):
        t.call("shiftChar", [1, 2])
    with pytest.raises(ServiceError):
        t.call("shiftChar", ["m", True])  # a bool is not an offset


def test_successor_steps():
    t = FunctionTable().successors()
    assert t.call("getNext", ["a"]) == "b"
    assert t.call("getNext", ["z"]) == "a"
    assert t.call("getDoubleNext", ["y"]) == "a"
    with pytest.raises(ServiceError, match="single character"):
        t.call("getNext", ["ab"])


@given(st.sampled_from("abcdefghijklmnopqrstuvwxyz"))
def test_twenty_six_successor_steps_are_the_identity(ch):
    t = FunctionTable().successors()
    out = ch
    for _ in range(26):
        out = t.call("getNext", [out])
    assert out == ch
    assert shift_text(ch, 26) == ch


def test_char_buffer_read_your_write():
    t = FunctionTable().char_buffer()
    assert t.call("setNthChar", [0, "z"]) == "z"
    assert t.call("getNthChar", [0]) == "z"
    with pytest.raises(ServiceError, match="no character at index 3"):
        t.call("getNthChar", [3])
    with pytest.raises(ServiceError, match="needs an index"):
        t.call("getNthChar", [True])


def test_prefixer_renders_its_argument():
    t = FunctionTable().prefixer("ticket", "TICKET-")
    assert t.call("ticket", ["2024-06-01"]) == "TICKET-2024-06-01"
    assert t.call("ticket", [7]) == "TICKET-7"


def test_adder_rejects_booleans():
    t = FunctionTable().adder()
    assert t.call("add", [2, 3]) == 5
    with pytest.raises(ServiceError):
        t.call("add", [True, 3])


def test_buffers_are_shared_within_a_table():
    t = FunctionTable().buffers()
    assert t.call("bufferGet", ["inbox"]) == ""
    assert t.call("bufferSet", ["inbox", "hello"]) == "hello"
    assert t.call("bufferGet", ["inbox"]) == "hello"


def test_timers_answer_to_every_spelling():
    t = FunctionTable().timers()
    for name in TIMER_NAMES:
        assert t.call(name, []) == 0
    assert set(TIMER_NAMES) <= set(t.names())


def test_unknown_function_is_a_service_error():
    with pytest.raises(ServiceError, match="no function named 'nope'"):
        FunctionTable().call("nope", [])


def test_names_are_sorted():
    t = FunctionTable().fixed("z", 1).fixed("a", 2)
    assert t.names() == ["a", "z"]


# ---------------------------------------------------------------------
# Protocol envelope
# ---------------------------------------------------------------------


def test_call_request_round_trip():
    t = FunctionTable().adder()
    got = handle_call_request(t, {"kind": "call", "fn": "add", "args": [1, 2]})
    assert got == {"kind": "result", "value": 3}


def test_call_request_errors_are_data():
    t = FunctionTable()
    got = handle_call_request(t, {"kind": "call", "fn": "ghost", "args": []})
    assert got["kind"] == "error" and "ghost" in got["message"]
    got = handle_call_request(t, {"kind": "ping"})
    assert got["kind"] == "error"
    got = handle_call_request(t, {"kind": "call", "fn": 3, "args": []})
    assert got["kind"] == "error"


def test_service_bugs_surface_as_protocol_errors():
    t = FunctionTable().register("boom", lambda args: 1 // 0)
    got = handle_call_request(t, {"kind": "call", "fn": "boom", "args": []})
    assert got["kind"] == "error" and "ZeroDivisionError" in got["message"]


def test_non_value_results_are_rejected():
    t = FunctionTable().register("listy", lambda args: [1, 2])
    got = handle_call_request(t, {"kind": "call", "fn": "listy", "args": []})
    assert got["kind"] == "error" and "non-value" in got["message"]


# ---------------------------------------------------------------------
# Router shared by role threads
# ---------------------------------------------------------------------


def test_router_loses_no_input_under_threads():
    threads_n, rounds = 8, 200
    total = threads_n * rounds
    router = Router(services={"addr": FunctionTable().fixed("f", 1)},
                    inputs={"r": list(range(total))})
    ex = SimpleNamespace(role="r", includes={"f": ("addr", None)})
    read: list[list] = [[] for _ in range(threads_n)]

    def work(out: list) -> None:
        for _ in range(rounds):
            out.append(router.answer(ex, ExtRequest(0, "call", ("getInput", []))))
            router.answer(ex, ExtRequest(0, "call", ("f", [])))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in read]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    answers = sorted(value for out in read for value, error in out)
    assert answers == list(range(total))
    assert router.answer(ex, ExtRequest(0, "call", ("getInput", []))) \
        == (None, "no input left for role 'r'")
