"""Grammar coverage, operator precedence, and diagnostic shape."""

from __future__ import annotations

import hashlib
from dataclasses import fields
from functools import lru_cache

import pytest

from chorad.ast import (
    Assign,
    Binary,
    Call,
    Expr,
    If,
    Interaction,
    Lit,
    Par,
    Scope,
    Seq,
    Skip,
    Unary,
    Var,
    While,
    chain_items,
    pretty_print,
    pretty_print_program,
    walk,
)
from chorad.parser import (
    MAX_NESTING,
    Diagnostic,
    ParseError,
    _Parser,
    parse_behaviour,
    parse_expr,
    parse_program,
    parse_rules,
)
from chorad import corpus

import progen


def _err(text: str, parse=parse_program) -> Diagnostic:
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert len(exc.value.diagnostics) == 1
    return exc.value.diagnostics[0]


# ---------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------


def test_minimal_program():
    prog = parse_program('preamble { starter: a } aioc { x@a = 1 }')
    assert prog.preamble.starter == "a"
    assert prog.includes == ()
    assert prog.body.var == "x"


def test_includes_and_locations():
    prog = parse_program(
        'include getTicket, getFreeDay from "socket://localhost:8001"\n'
        'preamble {\n'
        '  starter: bob\n'
        '  location@bob = "socket://localhost:7001"\n'
        '}\n'
        'aioc { x@bob = getTicket( "d" ) }'
    )
    inc = prog.includes[0]
    assert inc.functions == ("getTicket", "getFreeDay")
    assert inc.address == "socket://localhost:8001"
    assert prog.preamble.locations == {"bob": "socket://localhost:7001"}


def test_comments_are_ignored():
    prog = parse_program(
        '// leading note\n'
        'preamble { starter: a } // trailing\n'
        'aioc {\n'
        '  x@a = 1 // inline\n'
        '}\n'
    )
    assert prog.body.var == "x"


def test_missing_starter_is_an_error():
    d = _err('preamble { } aioc { x@a = 1 }')
    assert "starter" in d.message


def test_duplicate_starter_is_an_error():
    d = _err('preamble { starter: a starter: b } aioc { x@a = 1 }')
    assert "duplicate starter" in d.message


def test_trailing_garbage_is_an_error():
    d = _err('preamble { starter: a } aioc { x@a = 1 } extra')
    assert "unexpected input" in d.message


# ---------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------


def test_statement_forms():
    b = parse_behaviour(
        'x@a = 1;\n'
        'ping: a( x ) -> b( y );\n'
        'if ( y > 0 )@b { skip } else { skip };\n'
        'while ( x < 2 )@a { x@a = x + 1 };\n'
        '{ l@a = 1 | r@b = 2 };\n'
        'scope @a { x@a = 9 } prop { N.stage = "inc" }'
    )
    kinds = []
    node = b
    while isinstance(node, Seq):
        kinds.append(type(node.first).__name__)
        node = node.second
    kinds.append(type(node).__name__)
    assert kinds == ["Assign", "Interaction", "If", "While", "Par", "Scope"]


def test_par_chain_right_nests():
    b = parse_behaviour('{ x@a = 1 | y@b = 2 | z@c = 3 }')
    assert isinstance(b, Par)
    assert isinstance(b.right, Par)
    assert b.right.right.var == "z"


def test_scope_props_collect_literals():
    b = parse_behaviour(
        'scope @u { x@u = 1 } prop { N.flavour = "greeting", N.k = 3 }')
    assert isinstance(b, Scope)
    assert b.props == {"flavour": "greeting", "k": 3}


def test_scope_prop_requires_namespace():
    d = _err('scope @u { x@u = 1 } prop { flavour = 1 }', parse_behaviour)
    assert "'N.' namespace" in d.message


def test_duplicate_scope_prop_rejected():
    d = _err('scope @u { x@u = 1 } prop { N.k = 1, N.k = 2 }', parse_behaviour)
    assert "duplicate property 'N.k'" in d.message


def test_self_interaction_rejected():
    d = _err('op: a( 1 ) -> a( x )', parse_behaviour)
    assert "identical sender and receiver" in d.message


def test_reserved_operation_prefix_rejected():
    d = _err('_aux_guard_1: a( 1 ) -> b( x )', parse_behaviour)
    assert "reserved" in d.message


def test_diagnostic_render_format():
    d = _err('preamble { starter: a } aioc { op: a( 1 ) -> a( x ) }')
    rendered = d.render("prog.aioc")
    assert rendered.startswith(f"prog.aioc:{d.line}:{d.col}: ")
    assert ": syntax: " in rendered


# ---------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------


def test_precedence_ladder():
    e = parse_expr('1 + 2 * 3')
    assert e == Binary("+", Lit(1), Binary("*", Lit(2), Lit(3)))
    e = parse_expr('a or b and c')
    assert e == Binary("or", Var("a"), Binary("and", Var("b"), Var("c")))
    e = parse_expr('!done and x < 2')
    assert e == Binary("and", Unary("!", Var("done")),
                       Binary("<", Var("x"), Lit(2)))


def test_left_associativity_of_additive():
    assert parse_expr('a - b - c') == Binary("-", Binary("-", Var("a"),
                                                         Var("b")), Var("c"))


def test_string_escapes():
    e = parse_expr(r'"say \"hi\" \\ now"')
    assert e == Lit('say "hi" \\ now')


def test_call_expression():
    e = parse_expr('getTicket( day, 2 )')
    assert e == Call("getTicket", (Var("day"), Lit(2)))
    assert parse_expr('now()') == Call("now", ())


def test_booleans_and_comparison():
    assert parse_expr('true == false') == Binary("==", Lit(True), Lit(False))


def test_comparisons_do_not_chain():
    d = _err('1 < 2 < 3', parse_expr)
    assert "unexpected input" in d.message


# ---------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------


def test_parse_rules_with_condition_and_include():
    rules = parse_rules(
        'rule {\n'
        '  include shiftChar from "socket://localhost:8002"\n'
        '  on { N.index == 0 and E.mode == "fast" }\n'
        '  do { r0@a = shiftChar( c0, 2 ) }\n'
        '}\n'
        'rule {\n'
        '  on { true }\n'
        '  do { skip }\n'
        '}\n'
    )
    assert len(rules) == 2
    first = rules[0]
    assert first.includes[0].functions == ("shiftChar",)
    assert first.condition == Binary(
        "and",
        Binary("==", Var("N.index"), Lit(0)),
        Binary("==", Var("E.mode"), Lit("fast")),
    )
    assert first.body.var == "r0"


def test_rule_condition_namespaces_only_in_rules():
    # N./E. names are rule-condition vocabulary, not program vocabulary.
    d = _err('x@a = N.index', parse_behaviour)
    assert d.severity == "error"


# ---------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------


def test_whole_corpus_parses():
    for sc in corpus.standard_scenarios():
        prog = parse_program(sc.source)
        assert prog.preamble.starter
        for label, text in sc.rules.items():
            assert parse_rules(text), (sc.name, label)


def test_parse_error_str_mentions_position():
    with pytest.raises(ParseError) as exc:
        parse_program('preamble { starter: a } aioc { x@ }')
    assert "<input>:" in str(exc.value)


# ---------------------------------------------------------------------
# Pinned front-end output
# ---------------------------------------------------------------------

# Node positions carry ``compare=False``, so ``==`` cannot see a shifted
# line or column; these digests pin every position and every printed form.


def _scope_chain(n: int) -> str:
    blocks = []
    for i in range(n):
        note = f"  // block {i}\n" if i % 7 == 0 else ""
        blocks.append(f"{note}  scope @a {{\n    x@a = x + {i};\n"
                      f"    s{i}: a( x ) -> b( y{i} )\n  }} prop {{ N.k = {i} }}")
    return ("preamble { starter: a }\naioc {\n  x@a = 0;\n"
            + ";\n".join(blocks) + "\n}\n")


def _fork_join(n: int) -> str:
    branches = "\n  |\n".join(f"    f{i}: a( {i} ) -> b( v{i} )" for i in range(n))
    return ('preamble { starter: a }\naioc {\n  {\n' + branches
            + '\n  };\n  done: b( "ok" ) -> a( r )\n}\n')


def _long_sum(n: int) -> str:
    terms = " + ".join(str(i) for i in range(1, n + 1))
    return f"preamble {{ starter: a }}\naioc {{\n  x@a = {terms}\n}}\n"


def _pin_behaviour(h, b) -> None:
    for node in walk(b):
        h.update(f"{type(node).__name__} {node.nid} {node.line} {node.col}\n".encode())
        for f in fields(node):
            value = getattr(node, f.name)
            if isinstance(value, Expr):
                for e in walk(value):
                    h.update(f"  {type(e).__name__} {e.line} {e.col}\n".encode())


def _front_end_digest(sources: list[str], rule_files: list[str]) -> str:
    h = hashlib.sha256()
    for text in sources:
        prog = parse_program(text)
        for inc in prog.includes:
            h.update(f"include {inc.line} {inc.col}\n".encode())
        _pin_behaviour(h, prog.body)
        h.update(pretty_print_program(prog).encode())
    for text in rule_files:
        for rule in parse_rules(text):
            h.update(f"rule {rule.line} {rule.col}\n".encode())
            for e in walk(rule.condition):
                h.update(f"  {type(e).__name__} {e.line} {e.col}\n".encode())
            _pin_behaviour(h, rule.body)
            h.update(pretty_print(rule.body).encode())
    return h.hexdigest()


def test_front_end_output_is_pinned():
    scenarios = corpus.standard_scenarios()
    assert _front_end_digest(
        [sc.source for sc in scenarios],
        [text for sc in scenarios for text in sc.rules.values()],
    ) == "aef5591c7122ad6f71e578b9716f1a4d02391b6b5b20503a53d60d9708e0cd49"
    assert _front_end_digest(
        [progen.random_program_source(seed) for seed in range(50)], []
    ) == "0265a34bab5deba69ebd3653aa0e494cfa1fedfdb5a14395bf6a552e916f5b73"
    assert _front_end_digest(
        [_scope_chain(1000), _fork_join(400), _long_sum(1000)], []
    ) == "07d1c090a9997bb75658a2dccaac38a8ba2ec86d6b6787f5d34a69a2dc58117d"
    chain = parse_program(_scope_chain(1000))
    assert parse_program(pretty_print_program(chain)) == chain


# Every small body built from three leaves, braces, ``;``, ``|``, trailing
# ``;`` and the guarded statements: a leaf or a wrapper costs one, so size 4
# reaches chains of four leaves, blocks nested three deep and every mix of
# skips and spliced chains in between.
_LEAVES = ("skip", "x@a = 1", "{}")
_WRAPPERS = ("{{ {} }}", "if(true)@a {{ {} }}", "while(true)@a {{ {} }}", "scope @a {{ {} }}")


@lru_cache(None)
def _chains(size: int) -> tuple[str, ...]:
    """Chains of the given size, ``;`` and ``|`` in every mix."""
    out = []
    for first in range(1, size + 1):
        for head in _units(first):
            if first == size:
                out.append(head)
                continue
            for rest in _chains(size - first):
                out += [f"{head}; {rest}", f"{head} | {rest}"]
    return tuple(out)


@lru_cache(None)
def _units(size: int) -> tuple[str, ...]:
    if size == 1:
        return _LEAVES
    inner = _chains(size - 1)
    out = [w.format(b + end) for w in _WRAPPERS for b in inner for end in ("", ";")]
    for k in range(1, size - 1):
        out += [f"if(true)@a {{ {b} }} else {{ {c} }}"
                for b in _chains(k) for c in _chains(size - 1 - k)]
    return tuple(out)


def test_numbering_of_small_chain_shapes_is_pinned():
    h = hashlib.sha256()
    for size in range(1, 5):
        for text in _chains(size):
            b = parse_behaviour(text)
            _pin_behaviour(h, b)
            h.update(pretty_print(b).encode())
            if size < 4:  # the same numbering under a program and a rule
                prog = parse_program(f"preamble {{ starter: a }}\naioc {{\n  {text}\n}}")
                _pin_behaviour(h, prog.body)
                (rule,) = parse_rules(f"rule {{ on {{ true }} do {{ {text} }} }}")
                _pin_behaviour(h, rule.body)
    assert len(_chains(4)) == 14712
    assert h.hexdigest() == "17774656c82193fe309dc9cba6d303c1b748506e8063143b279cacf971ac4b1d"


@pytest.mark.parametrize("text, expected", [
    ("a@a = 1; { b@a = 2; c@a = 3 }",
     [("Seq", ""), ("Assign", "0"), ("Seq", ""), ("Assign", "1"), ("Assign", "2")]),
    ("a@a = 1; { b@a = 2; c@a = 3 } | d@b = 4",
     [("Seq", ""), ("Assign", "0"), ("Par", "1"), ("Seq", "1_0"),
      ("Assign", "1_0_0"), ("Assign", "1_0_1"), ("Assign", "1_1")]),
    ("if(true)@a { x@a=1 }; skip; { skip; y@a = 2 }",
     [("Seq", ""), ("If", "0"), ("Assign", "0_0"), ("Skip", "0_1"), ("Assign", "3")]),
])
def test_explicit_ids_of_chain_items(text, expected):
    assert [(type(x).__name__, str(x.nid)) for x in walk(parse_behaviour(text))] == expected


@pytest.mark.parametrize("tail", ["", "; y@b = 0"])
def test_the_lookahead_walks_a_deep_wide_chain_once(tail, monkeypatch):
    """A ``|`` chain of width 200 in 100 braces costs lookups in proportion
    to width plus depth, not to their product."""
    calls = 0
    sep_after = _Parser.sep_after

    def counted(self, i):
        nonlocal calls
        calls += 1
        return sep_after(self, i)

    monkeypatch.setattr(_Parser, "sep_after", counted)
    width = 200
    chain = " | ".join(f"x{k}@a = {k}" for k in range(width)) + tail
    b = parse_behaviour("{ " * MAX_NESTING + chain + " }" * MAX_NESTING)
    assert len(chain_items(b)) == (2 if tail else width)
    assert calls <= 2 * (width + MAX_NESTING) + 10


@pytest.mark.parametrize("parse, text, expected", [
    (parse_behaviour, 'x@a = "abc', ("unterminated string literal", 1, 7)),
    (parse_behaviour, 'x@a = "abc\\\n" + 1', ("unterminated string literal", 1, 7)),
    (parse_behaviour, 'x@a = "\\q"', ("unknown escape '\\q' in string", 1, 7)),
    (parse_behaviour, 'x@a = "\\\\q\\"\\z"', ("unknown escape '\\z' in string", 1, 7)),
    (parse_behaviour, 'x@a = "\\q', ("unterminated string literal", 1, 7)),
    (parse_program, 'preamble { starter: a }\naioc { x@a = ; y@a = "\\q" }',
     ("unknown escape '\\q' in string", 2, 22)),
    (parse_program, 'preamble { starter: a }\naioc {\n  x@a = "two\nline" # }',
     ("unexpected character '#'", 4, 7)),
    (parse_program, 'preamble { starter: a }\r\naioc {\r\n  x@a = ;\r\n}\r\n',
     ("expected an expression, found ';'", 3, 9)),
    (parse_behaviour, 'x@a = // note', ("expected an expression, found end of input", 1, 14)),
    (parse_program, '', ("expected 'preamble'", 1, 1)),
    (parse_expr, '', ("expected an expression, found end of input", 1, 1)),
    (parse_expr, '  \n\t ', ("expected an expression, found end of input", 2, 3)),
    (parse_behaviour, 'x@a = é', ("unexpected character 'é'", 1, 7)),
    (parse_behaviour, 'x@a = bé', ("unexpected character 'é'", 1, 8)),
    (parse_behaviour, 'x@a = 1 é "\\q"', ("unexpected character 'é'", 1, 9)),
    (parse_expr, '1 < 2 < 3', ("unexpected input after expression: '<'", 1, 7)),
])
def test_first_diagnostic_is_pinned(parse, text, expected):
    d = _err(text, parse)
    assert (d.message, d.line, d.col) == expected


def test_empty_and_unicode_inputs_that_parse():
    assert parse_rules('') == []
    assert parse_rules('// nothing here') == []
    assert parse_behaviour('') == Skip()
    assert parse_behaviour('x@a = ٣') == Assign("x", "a", Lit(3))
