"""Parser for choreography programs, adaptation rule files, and expressions.

The grammar is LL(2): statements starting with an identifier are
disambiguated by the following token (``@`` begins an assignment, ``:`` an
interaction).  ``;`` binds looser than ``|``, so ``a; b | c`` sequences ``a``
before the parallel composition; braces group explicitly.  Both separators
rebuild right-associated chains, which is the normal form produced by
:func:`chorad.ast.normalize`.

Failures raise :class:`ParseError` carrying a list of :class:`Diagnostic`
values with one-based line/column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    normalize,
)

AUX_PREFIX = "_aux_"

#: The deepest nesting of braced blocks, ``if``/``while``/``scope``
#: statements, parentheses, calls and ``!`` that a program may have; deeper
#: input is a syntax error rather than a crash of some later pass.
MAX_NESTING = 100

#: Statements that open a nesting level, and the method that parses each.
_NESTED = {"{": "braced", "if": "if_stmt", "while": "while_stmt", "scope": "scope_stmt"}

_TIGHTEST = max(PRECEDENCE.values())

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|!=|<=|>=|->|[{}()\[\];|@=:,.<>+\-*/!])
    """,
    re.VERBOSE,
)


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "string" | "int" | "ident" | "op" | "eof"
    text: str
    value: Value | None
    line: int
    col: int


class _Abort(Exception):
    """Internal: stop parsing after recording a diagnostic."""


def _unescape(raw: str, line: int, col: int, diags: list[Diagnostic]) -> str:
    body = raw[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            nxt = body[i + 1]
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
            diags.append(Diagnostic("error", f"unknown escape '\\{nxt}' in string", line, col))
            raise _Abort()
        out.append(c)
        i += 1
    return "".join(out)


def _tokenize(text: str, diags: list[Diagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            ch = text[pos]
            msg = "unterminated string literal" if ch == '"' else f"unexpected character {ch!r}"
            diags.append(Diagnostic("error", msg, line, col))
            raise _Abort()
        col = m.start() - line_start + 1
        kind = m.lastgroup
        raw = m.group()
        if kind == "string":
            tokens.append(_Token("string", raw, _unescape(raw, line, col, diags), line, col))
        elif kind == "int":
            tokens.append(_Token("int", raw, int(raw), line, col))
        elif kind == "ident":
            tokens.append(_Token("ident", raw, None, line, col))
        elif kind == "op":
            tokens.append(_Token("op", raw, None, line, col))
        # ws and comments are skipped, but still advance line accounting
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + raw.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", None, line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], diags: list[Diagnostic]):
        self.diags = diags
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # constructs open around the current token

    # ---- token plumbing ------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, message: str, tok: _Token | None = None) -> _Abort:
        tok = tok or self.peek()
        self.diags.append(Diagnostic("error", message, tok.line, tok.col))
        return _Abort()

    def expect_op(self, op: str) -> _Token:
        t = self.peek()
        if t.kind == "op" and t.text == op:
            return self.next()
        raise self.error(f"expected '{op}', found {t.text!r}" if t.kind != "eof" else f"expected '{op}', found end of input")

    def expect_ident(self, what: str = "identifier") -> _Token:
        t = self.peek()
        if t.kind == "ident":
            return self.next()
        raise self.error(f"expected {what}, found {t.text!r}" if t.kind != "eof" else f"expected {what}, found end of input")

    def enter(self, tok: _Token) -> None:
        """Open one level of nesting at ``tok`` (closed by ``depth -= 1``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", tok)

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def expect_keyword(self, word: str) -> _Token:
        if not self.at_keyword(word):
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
        t = self.peek()
        if t.kind != "eof":
            raise self.error(f"unexpected input after program: {t.text!r}")
        return Program(tuple(includes), preamble, normalize(assign_ids(body)))

    def include(self) -> Include:
        start = self.expect_keyword("include")
        names = [self.expect_ident("function name").text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_ident("function name").text)
        self.expect_keyword("from")
        addr = self.peek()
        if addr.kind != "string":
            raise self.error("expected a quoted service address")
        self.next()
        protocol = None
        if self.at_keyword("with"):
            self.next()
            protocol = self.expect_ident("protocol name").text
        return Include(tuple(names), str(addr.value), protocol, line=start.line, col=start.col)

    def preamble(self) -> Preamble:
        self.expect_keyword("preamble")
        self.expect_op("{")
        starter: str | None = None
        locations: dict[str, str] = {}
        while not (self.peek().kind == "op" and self.peek().text == "}"):
            if self.at_keyword("starter"):
                tok = self.next()
                self.expect_op(":")
                name = self.expect_ident("starter role").text
                if starter is not None:
                    raise self.error("duplicate starter declaration", tok)
                starter = name
            elif self.at_keyword("location"):
                self.next()
                self.expect_op("@")
                role = self.expect_ident("role name").text
                self.expect_op("=")
                addr = self.peek()
                if addr.kind != "string":
                    raise self.error("expected a quoted location address")
                self.next()
                if role in locations:
                    raise self.error(f"duplicate location for role '{role}'", addr)
                locations[role] = str(addr.value)
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
        t = self.peek()
        body = Skip(line=t.line, col=t.col) if t.kind == "op" and t.text == "}" \
            else self.seq_chain()
        self.expect_op("}")
        return body

    def seq_chain(self) -> Behaviour:
        # iterative on purpose: long programs are sequential programs
        items = [self.par_chain()]
        while self.peek().text == ";":
            self.next()
            nxt = self.peek()
            # tolerate a trailing ';' before the closing brace
            if nxt.kind == "op" and nxt.text == "}":
                break
            items.append(self.par_chain())
        return join_chain(Seq, items)

    def par_chain(self) -> Behaviour:
        # iterative too: a `|` block may have many branches
        items = [self.unit()]
        while self.peek().text == "|":
            self.next()
            items.append(self.unit())
        return join_chain(Par, items)

    def unit(self) -> Behaviour:
        t = self.peek()
        if t.text in _NESTED:
            self.enter(t)
            b = getattr(self, _NESTED[t.text])()
            self.depth -= 1
            return b
        if t.kind != "ident":
            raise self.error(f"expected a statement, found {t.text!r}" if t.kind != "eof" else "expected a statement, found end of input")
        if t.text == "skip":
            self.next()
            return Skip(line=t.line, col=t.col)
        nxt = self.peek(1)
        if nxt.kind == "op" and nxt.text == "@":
            return self.assign_stmt()
        if nxt.kind == "op" and nxt.text == ":":
            return self.interaction_stmt()
        raise self.error(f"expected '@' or ':' after '{t.text}'", nxt)

    def assign_stmt(self) -> Assign:
        var = self.next()
        self.expect_op("@")
        role = self.expect_ident("role name").text
        self.expect_op("=")
        expr = self.expr()
        return Assign(var.text, role, expr, line=var.line, col=var.col)

    def interaction_stmt(self) -> Interaction:
        op = self.next()
        if op.text.startswith(AUX_PREFIX):
            raise self.error(f"operation names starting with '{AUX_PREFIX}' are reserved", op)
        self.expect_op(":")
        sender = self.expect_ident("sender role")
        self.expect_op("(")
        expr = self.expr()
        self.expect_op(")")
        self.expect_op("->")
        receiver = self.expect_ident("receiver role")
        self.expect_op("(")
        var = self.expect_ident("target variable").text
        self.expect_op(")")
        if sender.text == receiver.text:
            raise self.error(
                f"interaction '{op.text}' has identical sender and receiver '{sender.text}'",
                receiver,
            )
        return Interaction(op.text, sender.text, expr, receiver.text, var,
                           line=op.line, col=op.col)

    def guarded(self, keyword: str) -> tuple[Expr, str, Behaviour]:
        self.expect_keyword(keyword)
        self.expect_op("(")
        guard = self.expr()
        self.expect_op(")")
        self.expect_op("@")
        role = self.expect_ident("evaluator role").text
        return guard, role, self.braced()

    def if_stmt(self) -> If:
        t = self.peek()
        guard, role, then_b = self.guarded("if")
        else_b: Behaviour = Skip(line=t.line, col=t.col)
        if self.at_keyword("else"):
            self.next()
            else_b = self.braced()
        return If(guard, role, then_b, else_b, line=t.line, col=t.col)

    def while_stmt(self) -> While:
        t = self.peek()
        guard, role, body = self.guarded("while")
        return While(guard, role, body, line=t.line, col=t.col)

    def scope_stmt(self) -> Scope:
        t = self.expect_keyword("scope")
        self.expect_op("@")
        role = self.expect_ident("coordinator role").text
        body = self.braced()
        props: dict[str, Value] = {}
        if self.at_keyword("prop"):
            self.next()
            self.expect_op("{")
            while True:
                ns = self.expect_ident("property name")
                if ns.text != "N":
                    raise self.error("scope properties live in the 'N.' namespace", ns)
                self.expect_op(".")
                key = self.expect_ident("property key").text
                self.expect_op("=")
                value = self.literal()
                if key in props:
                    raise self.error(f"duplicate property 'N.{key}'", ns)
                props[key] = value
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect_op("}")
        return Scope(role, body, props, line=t.line, col=t.col)

    def literal(self) -> Value:
        t = self.peek()
        if t.kind == "string":
            self.next()
            return t.value  # type: ignore[return-value]
        if t.kind == "int":
            self.next()
            return t.value  # type: ignore[return-value]
        if t.kind == "op" and t.text == "-" and self.peek(1).kind == "int":
            self.next()
            return -self.next().value  # type: ignore[operator]
        if t.kind == "ident" and t.text in ("true", "false"):
            self.next()
            return t.text == "true"
        raise self.error("expected a literal value")

    # ---- expressions ---------------------------------------------------

    def expr(self, ns: bool = False, min_level: int = 1) -> Expr:
        """Precedence climbing over ``PRECEDENCE``: operators of one level
        associate to the left, except comparisons, which do not chain."""
        left = self.unary_expr(ns)
        max_level = _TIGHTEST
        while True:
            t = self.peek()
            level = PRECEDENCE.get(t.text, 0)
            if not min_level <= level <= max_level:
                return left
            self.next()
            right = self.expr(ns, level + 1)
            left = Binary(t.text, left, right, line=left.line, col=left.col)
            max_level = level - 1 if level == COMPARISON else level

    def unary_expr(self, ns: bool) -> Expr:
        bangs = []
        while self.peek().kind == "op" and self.peek().text == "!":
            bangs.append(self.next())
            self.enter(bangs[-1])
        e = self.primary(ns)
        for t in reversed(bangs):
            e = Unary("!", e, line=t.line, col=t.col)
        self.depth -= len(bangs)
        return e

    def primary(self, ns: bool) -> Expr:
        t = self.peek()
        if t.kind == "string" or t.kind == "int":
            self.next()
            return Lit(t.value, line=t.line, col=t.col)  # type: ignore[arg-type]
        if t.kind == "op" and t.text == "-" and self.peek(1).kind == "int":
            self.next()
            n = self.next()
            return Lit(-n.value, line=t.line, col=t.col)  # type: ignore[operator]
        if t.kind == "op" and t.text == "(":
            self.enter(t)
            self.next()
            inner = self.expr(ns)
            self.expect_op(")")
            self.depth -= 1
            return inner
        if t.kind == "ident":
            if t.text in ("true", "false"):
                self.next()
                return Lit(t.text == "true", line=t.line, col=t.col)
            name = self.next()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == ".":
                if not ns:
                    raise self.error(
                        "namespaced references are only allowed in rule conditions", nxt
                    )
                self.next()
                key = self.expect_ident("namespaced key").text
                return Var(f"{name.text}.{key}", line=t.line, col=t.col)
            if nxt.kind == "op" and nxt.text == "(":
                self.enter(nxt)
                self.next()
                args: list[Expr] = []
                if not (self.peek().kind == "op" and self.peek().text == ")"):
                    args.append(self.expr(ns))
                    while self.peek().text == ",":
                        self.next()
                        args.append(self.expr(ns))
                self.expect_op(")")
                self.depth -= 1
                return Call(name.text, tuple(args), line=t.line, col=t.col)
            return Var(name.text, line=t.line, col=t.col)
        raise self.error(f"expected an expression, found {t.text!r}" if t.kind != "eof" else "expected an expression, found end of input")

    # ---- rules -----------------------------------------------------------

    def rules(self) -> list[Rule]:
        out = []
        while self.peek().kind != "eof":
            out.append(self.rule())
        return out

    def rule(self) -> Rule:
        t = self.expect_keyword("rule")
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
        return Rule(tuple(includes), condition, normalize(assign_ids(body)),
                    line=t.line, col=t.col)


def _run(text: str, entry):
    diags: list[Diagnostic] = []
    try:
        parser = _Parser(_tokenize(text, diags), diags)
        return entry(parser)
    except _Abort:
        raise ParseError(diags) from None


def parse_program(text: str) -> Program:
    """Parse a full program; the body comes back id-assigned and normalised."""
    return _run(text, _Parser.program)


def parse_rules(text: str) -> list[Rule]:
    """Parse a rule file: zero or more ``rule { ... }`` entries."""
    return _run(text, _Parser.rules)


def parse_behaviour(text: str) -> Behaviour:
    """Parse a bare behaviour (used for rule bodies shipped over the wire)."""

    def entry(p: _Parser) -> Behaviour:
        b = p.seq_chain() if p.peek().kind != "eof" else Skip()
        t = p.peek()
        if t.kind != "eof":
            raise p.error(f"unexpected input after behaviour: {t.text!r}")
        return normalize(assign_ids(b))

    return _run(text, entry)


def parse_expr(text: str, allow_namespaces: bool = False) -> Expr:
    """Parse a standalone expression (namespaces opt-in for rule conditions)."""

    def entry(p: _Parser) -> Expr:
        e = p.expr(allow_namespaces)
        t = p.peek()
        if t.kind != "eof":
            raise p.error(f"unexpected input after expression: {t.text!r}")
        return e

    return _run(text, entry)
