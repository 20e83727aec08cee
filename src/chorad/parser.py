"""Parser for choreography programs, adaptation rule files, and expressions.

The grammar is LL(2): statements starting with an identifier are
disambiguated by the following token (``@`` begins an assignment, ``:`` an
interaction).  ``;`` binds looser than ``|``, so ``a; b | c`` sequences ``a``
before the parallel composition; braces group explicitly.  Each parsed body
then goes through :func:`chorad.ast.assign_ids` alone, which numbers its
nodes and brings it to normal form in one rebuild.  The parser does not
number as it goes: a statement's id depends on tokens after it (``b`` in
``a@a = 1; { b@a = 2; c@a = 3 }`` is ``1``, but ``1_0_0`` once ``| d@b = 4``
follows), which would take lookahead over whole blocks.

The scanner builds no object per token.  One ``findall`` splits the input
into ``(skipped, token)`` pairs, whitespace and comments being skipped, and
the parser reads three parallel arrays made from them at C level: token
texts, start offsets and kinds.  Ints are converted and strings unescaped
when the parser consumes them, and a line and column are worked out from an
offset, by bisection over the newline offsets, only when a node or a
diagnostic is built.

Failures raise :class:`ParseError` carrying a list of :class:`Diagnostic`
values with one-based line/column positions.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import getitem, itemgetter
from string import ascii_letters

from .ast import (
    Assign,
    Behaviour,
    COMPARISON,
    PRECEDENCE,
    Binary,
    Call,
    Expr,
    If,
    Include,
    Interaction,
    Lit,
    Par,
    Preamble,
    Program,
    Rule,
    Scope,
    Seq,
    Skip,
    Unary,
    Value,
    Var,
    While,
    assign_ids,
    join_chain,
)

AUX_PREFIX = "_aux_"

#: The deepest nesting of braced blocks, ``if``/``while``/``scope``
#: statements, parentheses, calls and ``!`` that a program may have; deeper
#: input is a syntax error rather than a crash of some later pass.
MAX_NESTING = 100

#: Statements that open a nesting level, and the method that parses each.
_NESTED = {"{": "braced", "if": "if_stmt", "while": "while_stmt", "scope": "scope_stmt"}

_TIGHTEST = max(PRECEDENCE.values())

#: One scan step: the skipped text before a token, then the token.  The
#: empty alternative matches only where no token starts: at the end of input
#: or at a bad character, so the first empty token is where scanning stops.
_SCAN_RE = re.compile(
    r"""
    ((?:\s+|//[^\n]*)*)
    ( "(?:\\["\\]|[^"\\])*"
    | \d+
    | [A-Za-z_][A-Za-z0-9_]*
    | ==|!=|<=|>=|->|[{}()\[\];|@=:,.<>+\-*/!]
    | )
    """,
    re.VERBOSE,
)

#: A terminated string whatever its escapes, and the longest start of a
#: string whose escapes are valid: together they tell a bad escape from an
#: unterminated string where the scan stopped at a quote.
_LOOSE_STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"')
_VALID_PREFIX_RE = re.compile(r'"(?:\\["\\]|[^"\\])*')
_ESCAPE_RE = re.compile(r'\\(["\\])')
_NEWLINE_RE = re.compile("\n")

#: Token kind by first character; any other token the scanner accepts is an
#: int, which starts with a digit of any script.
_KIND_OF = {"": "eof", '"': "string", **dict.fromkeys(ascii_letters + "_", "ident"),
            **dict.fromkeys("{}()[];|@=:,.<>+-*/!", "op")}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: int
    col: int
    kind: str = "syntax"

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.kind}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.render() for d in diagnostics))


class _Abort(Exception):
    """Internal: stop parsing after recording a diagnostic."""


def _scan_error(text: str, at: int) -> str:
    """What is wrong at offset ``at``, where the scan stopped short of the end."""
    if text[at] != '"':
        return f"unexpected character {text[at]!r}"
    if not _LOOSE_STRING_RE.match(text, at):
        return "unterminated string literal"
    bad = _VALID_PREFIX_RE.match(text, at).end() + 1
    return f"unknown escape '\\{text[bad]}' in string"


class _Parser:
    def __init__(self, text: str, diags: list[Diagnostic]):
        self.diags = diags
        self.pos = 0
        self.depth = 0  # constructs open around the current token
        pairs = _SCAN_RE.findall(text)
        self.texts = list(map(itemgetter(1), pairs))
        # running ends of skipped parts and tokens; a token starts where its
        # skipped part ends
        self.starts = list(accumulate(map(len, chain.from_iterable(pairs))))[::2]
        self.newlines = list(map(re.Match.start, _NEWLINE_RE.finditer(text)))
        self.end = self.texts.index("")  # the eof token, unless a bad character
        if self.starts[self.end] < len(text):
            raise self.error(_scan_error(text, self.starts[self.end]), self.end)
        # one more eof, so that peek(1) at the end stays in range
        self.texts.append("")
        self.starts.append(len(text))
        firsts = map(getitem, self.texts, repeat(slice(0, 1)))
        self.kinds = list(map(_KIND_OF.get, firsts, repeat("int")))

    # ---- token plumbing ------------------------------------------------

    def peek(self, ahead: int = 0) -> str:
        """Text of a coming token; only the end of input has empty text."""
        return self.texts[self.pos + ahead]

    def kind(self, ahead: int = 0) -> str:
        return self.kinds[self.pos + ahead]

    def next(self) -> int:
        """Consume the current token and return its index."""
        i = self.pos
        if i < self.end:
            self.pos = i + 1
        return i

    def where(self, i: int) -> dict[str, int]:
        """``line`` and ``col`` of token ``i``, one-based, from its offset."""
        offset = self.starts[i]
        line = bisect_left(self.newlines, offset)
        col = offset - self.newlines[line - 1] if line else offset + 1
        return {"line": line + 1, "col": col}

    def value(self, i: int) -> Value:
        """The value of int or string token ``i``."""
        text = self.texts[i]
        if self.kinds[i] == "int":
            return int(text)
        return _ESCAPE_RE.sub(r"\1", text[1:-1])

    def found(self) -> str:
        t = self.peek()
        return repr(t) if t else "end of input"

    def error(self, message: str, at: int | None = None) -> _Abort:
        where = self.where(self.pos if at is None else at)
        self.diags.append(Diagnostic("error", message, **where))
        return _Abort()

    def expect_op(self, op: str) -> int:
        if self.texts[self.pos] == op:
            return self.next()
        raise self.error(f"expected '{op}', found {self.found()}")

    def expect_ident(self, what: str = "identifier") -> str:
        if self.kinds[self.pos] == "ident":
            return self.texts[self.next()]
        raise self.error(f"expected {what}, found {self.found()}")

    def expect_string(self, what: str) -> str:
        if self.kinds[self.pos] == "string":
            return self.value(self.next())
        raise self.error(f"expected a quoted {what}")

    def enter(self, at: int) -> None:
        """Open one level of nesting at token ``at`` (closed by ``depth -= 1``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", at)

    def at_keyword(self, word: str) -> bool:
        return self.texts[self.pos] == word

    def expect_keyword(self, word: str) -> int:
        if self.texts[self.pos] != word:
            raise self.error(f"expected '{word}'")
        return self.next()

    # ---- programs ------------------------------------------------------

    def program(self) -> Program:
        includes = []
        while self.at_keyword("include"):
            includes.append(self.include())
        preamble = self.preamble()
        self.expect_keyword("aioc")
        body = self.braced()
        if self.peek():
            raise self.error(f"unexpected input after program: {self.peek()!r}")
        return Program(tuple(includes), preamble, assign_ids(body))

    def include(self) -> Include:
        start = self.expect_keyword("include")
        names = [self.expect_ident("function name")]
        while self.peek() == ",":
            self.next()
            names.append(self.expect_ident("function name"))
        self.expect_keyword("from")
        address = self.expect_string("service address")
        protocol = None
        if self.at_keyword("with"):
            self.next()
            protocol = self.expect_ident("protocol name")
        return Include(tuple(names), address, protocol, **self.where(start))

    def preamble(self) -> Preamble:
        self.expect_keyword("preamble")
        self.expect_op("{")
        starter: str | None = None
        locations: dict[str, str] = {}
        while self.peek() != "}":
            if self.at_keyword("starter"):
                at = self.next()
                self.expect_op(":")
                name = self.expect_ident("starter role")
                if starter is not None:
                    raise self.error("duplicate starter declaration", at)
                starter = name
            elif self.at_keyword("location"):
                self.next()
                self.expect_op("@")
                role = self.expect_ident("role name")
                self.expect_op("=")
                at = self.pos
                address = self.expect_string("location address")
                if role in locations:
                    raise self.error(f"duplicate location for role '{role}'", at)
                locations[role] = address
            else:
                raise self.error("expected 'starter' or 'location' entry")
        self.expect_op("}")
        if starter is None:
            raise self.error("preamble must declare a starter role")
        return Preamble(starter, locations)

    # ---- behaviours ----------------------------------------------------

    def braced(self) -> Behaviour:
        """Behaviour inside braces; empty (or comment-only) blocks mean skip."""
        self.expect_op("{")
        body = Skip(**self.where(self.pos)) if self.peek() == "}" else self.seq_chain()
        self.expect_op("}")
        return body

    def seq_chain(self) -> Behaviour:
        # iterative on purpose: long programs are sequential programs
        items = [self.par_chain()]
        while self.peek() == ";":
            self.next()
            # tolerate a trailing ';' before the closing brace
            if self.peek() == "}":
                break
            items.append(self.par_chain())
        return join_chain(Seq, items)

    def par_chain(self) -> Behaviour:
        # iterative too: a `|` block may have many branches
        items = [self.unit()]
        while self.peek() == "|":
            self.next()
            items.append(self.unit())
        return join_chain(Par, items)

    def unit(self) -> Behaviour:
        t = self.peek()
        if t in _NESTED:
            self.enter(self.pos)
            b = getattr(self, _NESTED[t])()
            self.depth -= 1
            return b
        if self.kind() != "ident":
            raise self.error(f"expected a statement, found {self.found()}")
        if t == "skip":
            return Skip(**self.where(self.next()))
        nxt = self.peek(1)
        if nxt == "@":
            return self.assign_stmt()
        if nxt == ":":
            return self.interaction_stmt()
        raise self.error(f"expected '@' or ':' after '{t}'", self.pos + 1)

    def assign_stmt(self) -> Assign:
        at = self.next()
        self.expect_op("@")
        role = self.expect_ident("role name")
        self.expect_op("=")
        return Assign(self.texts[at], role, self.expr(), **self.where(at))

    def interaction_stmt(self) -> Interaction:
        at = self.next()
        op = self.texts[at]
        if op.startswith(AUX_PREFIX):
            raise self.error(f"operation names starting with '{AUX_PREFIX}' are reserved", at)
        self.expect_op(":")
        sender = self.expect_ident("sender role")
        self.expect_op("(")
        expr = self.expr()
        self.expect_op(")")
        self.expect_op("->")
        receiver_at = self.pos
        receiver = self.expect_ident("receiver role")
        self.expect_op("(")
        var = self.expect_ident("target variable")
        self.expect_op(")")
        if sender == receiver:
            raise self.error(
                f"interaction '{op}' has identical sender and receiver '{sender}'",
                receiver_at,
            )
        return Interaction(op, sender, expr, receiver, var, **self.where(at))

    def guarded(self, keyword: str) -> tuple[Expr, str, Behaviour]:
        self.expect_keyword(keyword)
        self.expect_op("(")
        guard = self.expr()
        self.expect_op(")")
        self.expect_op("@")
        role = self.expect_ident("evaluator role")
        return guard, role, self.braced()

    def if_stmt(self) -> If:
        at = self.pos
        guard, role, then_b = self.guarded("if")
        else_b: Behaviour = Skip(**self.where(at))
        if self.at_keyword("else"):
            self.next()
            else_b = self.braced()
        return If(guard, role, then_b, else_b, **self.where(at))

    def while_stmt(self) -> While:
        at = self.pos
        guard, role, body = self.guarded("while")
        return While(guard, role, body, **self.where(at))

    def scope_stmt(self) -> Scope:
        at = self.expect_keyword("scope")
        self.expect_op("@")
        role = self.expect_ident("coordinator role")
        body = self.braced()
        props: dict[str, Value] = {}
        if self.at_keyword("prop"):
            self.next()
            self.expect_op("{")
            while True:
                ns_at = self.pos
                if self.expect_ident("property name") != "N":
                    raise self.error("scope properties live in the 'N.' namespace", ns_at)
                self.expect_op(".")
                key = self.expect_ident("property key")
                self.expect_op("=")
                value = self.literal()
                if key in props:
                    raise self.error(f"duplicate property 'N.{key}'", ns_at)
                props[key] = value
                if self.peek() == ",":
                    self.next()
                    continue
                break
            self.expect_op("}")
        return Scope(role, body, props, **self.where(at))

    def literal(self) -> Value:
        t, kind = self.peek(), self.kind()
        if kind == "string" or kind == "int":
            return self.value(self.next())
        if t == "-" and self.kind(1) == "int":
            self.next()
            return -self.value(self.next())  # type: ignore[operator]
        if t == "true" or t == "false":
            self.next()
            return t == "true"
        raise self.error("expected a literal value")

    # ---- expressions ---------------------------------------------------

    def expr(self, ns: bool = False, min_level: int = 1) -> Expr:
        """Precedence climbing over ``PRECEDENCE``: operators of one level
        associate to the left, except comparisons, which do not chain."""
        left = self.unary_expr(ns)
        max_level = _TIGHTEST
        while True:
            op = self.peek()
            level = PRECEDENCE.get(op, 0)
            if not min_level <= level <= max_level:
                return left
            self.next()
            right = self.expr(ns, level + 1)
            left = Binary(op, left, right, line=left.line, col=left.col)
            max_level = level - 1 if level == COMPARISON else level

    def unary_expr(self, ns: bool) -> Expr:
        bangs = []
        while self.peek() == "!":
            bangs.append(self.next())
            self.enter(bangs[-1])
        e = self.primary(ns)
        for at in reversed(bangs):
            e = Unary("!", e, **self.where(at))
        self.depth -= len(bangs)
        return e

    def primary(self, ns: bool) -> Expr:
        at = self.pos
        t, kind = self.texts[at], self.kinds[at]
        if kind == "string" or kind == "int":
            self.next()
            return Lit(self.value(at), **self.where(at))
        if t == "-" and self.kind(1) == "int":
            self.next()
            return Lit(-self.value(self.next()), **self.where(at))  # type: ignore[operator]
        if t == "(":
            self.enter(at)
            self.next()
            inner = self.expr(ns)
            self.expect_op(")")
            self.depth -= 1
            return inner
        if kind == "ident":
            self.next()
            if t == "true" or t == "false":
                return Lit(t == "true", **self.where(at))
            nxt = self.peek()
            if nxt == ".":
                if not ns:
                    raise self.error("namespaced references are only allowed in rule conditions")
                self.next()
                key = self.expect_ident("namespaced key")
                return Var(f"{t}.{key}", **self.where(at))
            if nxt == "(":
                self.enter(self.pos)
                self.next()
                args: list[Expr] = []
                if self.peek() != ")":
                    args.append(self.expr(ns))
                    while self.peek() == ",":
                        self.next()
                        args.append(self.expr(ns))
                self.expect_op(")")
                self.depth -= 1
                return Call(t, tuple(args), **self.where(at))
            return Var(t, **self.where(at))
        raise self.error(f"expected an expression, found {self.found()}")

    # ---- rules -----------------------------------------------------------

    def rules(self) -> list[Rule]:
        out = []
        while self.peek():
            out.append(self.rule())
        return out

    def rule(self) -> Rule:
        at = self.expect_keyword("rule")
        self.expect_op("{")
        includes = []
        while self.at_keyword("include"):
            includes.append(self.include())
        self.expect_keyword("on")
        self.expect_op("{")
        condition = self.expr(ns=True)
        self.expect_op("}")
        self.expect_keyword("do")
        body = self.braced()
        self.expect_op("}")
        return Rule(tuple(includes), condition, assign_ids(body), **self.where(at))


def _run(text: str, entry):
    diags: list[Diagnostic] = []
    try:
        return entry(_Parser(text, diags))
    except _Abort:
        raise ParseError(diags) from None


def parse_program(text: str) -> Program:
    """Parse a full program; the body comes back numbered and in normal form
    (see :func:`chorad.ast.assign_ids`)."""
    return _run(text, _Parser.program)


def parse_rules(text: str) -> list[Rule]:
    """Parse a rule file: zero or more ``rule { ... }`` entries."""
    return _run(text, _Parser.rules)


def parse_behaviour(text: str) -> Behaviour:
    """Parse a bare behaviour (used for rule bodies shipped over the wire)."""

    def entry(p: _Parser) -> Behaviour:
        b = p.seq_chain() if p.peek() else Skip()
        if p.peek():
            raise p.error(f"unexpected input after behaviour: {p.peek()!r}")
        return assign_ids(b)

    return _run(text, entry)


def parse_expr(text: str, allow_namespaces: bool = False) -> Expr:
    """Parse a standalone expression (namespaces opt-in for rule conditions)."""

    def entry(p: _Parser) -> Expr:
        e = p.expr(allow_namespaces)
        if p.peek():
            raise p.error(f"unexpected input after expression: {p.peek()!r}")
        return e

    return _run(text, entry)
