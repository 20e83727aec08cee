"""Parser for choreography programs, adaptation rule files, and expressions.

The grammar is LL(2): statements starting with an identifier are
disambiguated by the following token (``@`` begins an assignment, ``:`` an
interaction).  ``;`` binds looser than ``|``, so ``a; b | c`` sequences ``a``
before the parallel composition; braces group explicitly.

Behaviour nodes are built once, numbered and in normal form (see
:class:`chorad.ast.NodeId`).  A chain item's id depends on tokens after it:
``b`` in ``a@a = 1; { b@a = 2; c@a = 3 }`` is ``1``, the block's chain
continuing the outer one, but ``1_0_0`` once ``| d@b = 4`` follows the
block.  So the parser looks ahead through a table of the ``{``, ``}``,
``;`` and ``|`` tokens, each ``{`` with where it closes: the first ``;``,
``|`` or ``}`` after a token at its brace depth is a bisection and a jump
per nested block away.  Expressions hold none of these tokens, so a lookup
or two tells whether a block holds a ``;`` chain, a ``|`` chain or one
statement (an answer kept per block, so blocks in blocks are looked through
once), and whether a ``|`` follows an item of a ``;`` chain.  A chain drops
its skips and splices its own kind as it collects its items.

The scanner builds no object per token.  One ``findall`` splits the input
into ``(skipped, token)`` pairs, whitespace and comments being skipped, and
the parser reads token texts and start offsets made from them at C level.
A token's kind is read off its text when asked for (``str.isidentifier``,
``str.isdecimal``, a leading quote), ints are converted and strings
unescaped when consumed, and a line and column are worked out from an
offset, by bisection over the newline offsets, only when a node or a
diagnostic is built.

Failures raise :class:`ParseError` carrying a list of :class:`Diagnostic`
values with one-based line/column positions.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import add, itemgetter, sub

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
    NodeId,
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
    chain_items,
    join_chain,
)

AUX_PREFIX = "_aux_"

#: The deepest nesting of braced blocks, ``if``/``while``/``scope``
#: statements, parentheses, calls and ``!`` that a program may have; deeper
#: input is a syntax error rather than a crash of some later pass.
MAX_NESTING = 100

#: Statements that open a nesting level, and the method that parses each.
_NESTED = {"{": "block", "if": "if_stmt", "while": "while_stmt", "scope": "scope_stmt"}

_TIGHTEST = max(PRECEDENCE.values())

_STRUCTURE = frozenset("{};|")  # the tokens of the lookahead table

#: One scan step: the skipped text before a token, then the token.  The
#: empty alternative matches only where no token starts: at the end of input
#: or at a bad character, so the first empty token is where scanning stops.
_SCAN_RE = re.compile(
    r"""
    (\s*(?://[^\n]*\s*)*)
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
        texts = self.texts = list(map(itemgetter(1), pairs))
        # a token starts its length before the running end of the pairs
        lengths = list(map(len, texts))
        ends = accumulate(map(add, map(len, map(itemgetter(0), pairs)), lengths))
        self.starts = list(map(sub, ends, lengths))
        self.newlines = list(map(re.Match.start, _NEWLINE_RE.finditer(text)))
        self.end = texts.index("")  # the eof token, unless a bad character
        if self.starts[self.end] < len(text):
            raise self.error(_scan_error(text, self.starts[self.end]), self.end)
        # one more eof, so that peek(1) at the end stays in range
        texts.append("")
        self.starts.append(len(text))
        # the lookahead table: the indices of the `{ } ; |` tokens, one more
        # at the end of input, and where each `{` is closed (at the end if not)
        self.marks = list(compress(count(), map(_STRUCTURE.__contains__, texts)))
        self.marks.append(self.end)
        self.close = [len(self.marks) - 2] * len(self.marks)
        opened = []
        for k, t in enumerate(self.marks):
            if texts[t] == "{":
                opened.append(k)
            elif texts[t] == "}" and opened:
                self.close[opened.pop()] = k
        self.kinds: dict[int, type | None] = {}  # chain_kind's answers

    # ---- token plumbing ------------------------------------------------

    def peek(self, ahead: int = 0) -> str:
        """Text of a coming token; only the end of input has empty text."""
        return self.texts[self.pos + ahead]

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
        return _ESCAPE_RE.sub(r"\1", text[1:-1]) if text[0] == '"' else int(text)

    def found(self) -> str:
        t = self.peek()
        return repr(t) if t else "end of input"

    def error(self, message: str, at: int | None = None) -> _Abort:
        where = self.where(self.pos if at is None else at)
        self.diags.append(Diagnostic("error", message, **where))
        return _Abort()

    def expect_op(self, op: str) -> int:
        i = self.pos
        if self.texts[i] == op:  # not the end of input: op is not empty
            self.pos = i + 1
            return i
        raise self.error(f"expected '{op}', found {self.found()}")

    def expect_ident(self, what: str = "identifier") -> str:
        t = self.texts[self.pos]
        if t.isidentifier():
            self.pos += 1
            return t
        raise self.error(f"expected {what}, found {self.found()}")

    def expect_string(self, what: str) -> str:
        if self.peek().startswith('"'):
            return self.value(self.next())
        raise self.error(f"expected a quoted {what}")

    def enter(self, at: int) -> None:
        """Open one level of nesting at token ``at`` (closed by ``depth -= 1``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", at)

    def expect_keyword(self, word: str) -> int:
        if self.texts[self.pos] != word:
            raise self.error(f"expected '{word}'")
        return self.next()

    # ---- programs ------------------------------------------------------

    def program(self) -> Program:
        includes = []
        while self.peek() == "include":
            includes.append(self.include())
        preamble = self.preamble()
        self.expect_keyword("aioc")
        return Program(tuple(includes), preamble, self.block(NodeId()))

    def include(self) -> Include:
        start = self.expect_keyword("include")
        names = [self.expect_ident("function name")]
        while self.peek() == ",":
            self.next()
            names.append(self.expect_ident("function name"))
        self.expect_keyword("from")
        address = self.expect_string("service address")
        protocol = None
        if self.peek() == "with":
            self.next()
            protocol = self.expect_ident("protocol name")
        return Include(tuple(names), address, protocol, **self.where(start))

    def preamble(self) -> Preamble:
        self.expect_keyword("preamble")
        self.expect_op("{")
        starter: str | None = None
        locations: dict[str, str] = {}
        while self.peek() != "}":
            if self.peek() == "starter":
                at = self.next()
                self.expect_op(":")
                name = self.expect_ident("starter role")
                if starter is not None:
                    raise self.error("duplicate starter declaration", at)
                starter = name
            elif self.peek() == "location":
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

    def sep_after(self, i: int) -> int:
        """The first ``;``, ``|`` or ``}`` at or after token ``i`` and at its
        brace depth; the end of input if there is none."""
        k = bisect_left(self.marks, i)
        while self.texts[self.marks[k]] == "{":
            k = self.close[k] + 1
        return self.marks[k]

    def chain_kind(self, i: int) -> type | None:
        """What the block content at token ``i`` is: a ``;`` chain (a ``;``
        that is not trailing follows its first ``|`` chain), a ``|`` chain,
        or ``None``, one statement; a statement that is a block is what its
        content is, and is remembered as such, so that no block is looked
        through twice.  Blocks deeper than the limit do not parse anyway."""
        if i in self.kinds:
            return self.kinds[i]
        texts = self.texts
        kind = None
        for j in range(i, i + MAX_NESTING + 1):
            s = first = self.sep_after(j)
            while texts[s] == "|":
                s = self.sep_after(s + 1)
            if texts[s] == ";" and texts[s + 1] != "}":
                kind = Seq
            elif texts[first] == "|":
                kind = Par
            if kind or texts[j] != "{":
                break
        self.kinds.update(dict.fromkeys(range(i, j + 1), kind))
        return kind

    def block(self, base: NodeId) -> Behaviour:
        """Behaviour inside braces; empty (or comment-only) blocks mean skip."""
        self.expect_op("{")
        empty = self.peek() == "}"
        body = Skip(nid=base, **self.where(self.pos)) if empty else self.content(base)
        self.expect_op("}")
        return body

    def content(self, base: NodeId) -> Behaviour:
        """The statement or chain here, numbered at ``base``, and a trailing
        ``;`` after it (``chain_kind`` saw the ``}`` that follows)."""
        cls = self.chain_kind(self.pos)
        body = self.joined(cls, base) if cls else self.unit(base)
        if self.peek() == ";":
            self.next()
        return body

    def joined(self, cls: type, base: NodeId) -> Behaviour:
        """The ``;`` or ``|`` chain here at ``base``, in normal form (see
        :class:`chorad.ast.NodeId`)."""
        at = self.pos
        items: list[Behaviour] = []
        self.chain(cls, base, items, 0)
        if items:
            return join_chain(cls, items, base)
        while self.texts[at] == "{":  # skips alone: the first is a `skip` or a `{}`
            at += 1
        return Skip(nid=base, **self.where(at))

    def chain(self, cls: type, base: NodeId, out: list[Behaviour], n: int) -> int:
        """Parse the items of a ``;`` or ``|`` chain at ``base``, item n on
        numbered ``base.child(n)``, and return the next free n.  ``out``
        gets them in normal form: skips dropped, an item that is a ``cls``
        chain spliced in, and the items of a braced ``cls`` chain numbered
        in place.  Iterative, as programs are long ``;`` chains and ``|``
        blocks wide; a nesting level takes at most six frames, so
        ``MAX_NESTING`` levels fit the default recursion limit."""
        texts = self.texts
        sep = ";" if cls is Seq else "|"
        while True:
            if cls is Seq and texts[self.sep_after(self.pos)] == "|":
                x = self.joined(Par, base.child(n))
            elif texts[self.pos] == "{" and self.chain_kind(self.pos + 1) is cls:
                self.enter(self.next())
                n = self.chain(cls, base, out, n) - 1
                self.expect_op("}")
                self.depth -= 1
                x = None
            else:
                x = self.unit(base.child(n))
            n += 1
            if type(x) is cls:
                out += chain_items(x)
            elif x is not None and type(x) is not Skip:
                out.append(x)
            if texts[self.pos] == ";" and texts[self.pos + 1] == "}":
                self.next()  # tolerate a trailing ';' before the closing brace
                return n
            if texts[self.pos] != sep:
                return n
            self.next()

    def unit(self, base: NodeId) -> Behaviour:
        t = self.peek()
        if t in _NESTED:
            self.enter(self.pos)
            b = getattr(self, _NESTED[t])(base)
            self.depth -= 1
            return b
        if not t.isidentifier():
            raise self.error(f"expected a statement, found {self.found()}")
        if t == "skip":
            return Skip(nid=base, **self.where(self.next()))
        nxt = self.peek(1)
        if nxt == "@":
            return self.assign_stmt(base)
        if nxt == ":":
            return self.interaction_stmt(base)
        raise self.error(f"expected '@' or ':' after '{t}'", self.pos + 1)

    def assign_stmt(self, base: NodeId) -> Assign:
        at = self.next()
        self.expect_op("@")
        role = self.expect_ident("role name")
        self.expect_op("=")
        return Assign(self.texts[at], role, self.expr(), nid=base, **self.where(at))

    def interaction_stmt(self, base: NodeId) -> Interaction:
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
        return Interaction(op, sender, expr, receiver, var, nid=base, **self.where(at))

    def guarded(self, keyword: str) -> tuple[Expr, str]:
        self.expect_keyword(keyword)
        self.expect_op("(")
        guard = self.expr()
        self.expect_op(")")
        self.expect_op("@")
        return guard, self.expect_ident("evaluator role")

    def if_stmt(self, base: NodeId) -> If:
        at = self.pos
        guard, role = self.guarded("if")
        then_b = self.block(base.child(0))
        if self.peek() == "else":
            self.next()
            else_b = self.block(base.child(1))
        else:
            else_b = Skip(nid=base.child(1), **self.where(at))
        return If(guard, role, then_b, else_b, nid=base, **self.where(at))

    def while_stmt(self, base: NodeId) -> While:
        at = self.pos
        guard, role = self.guarded("while")
        return While(guard, role, self.block(base.child(0)), nid=base, **self.where(at))

    def scope_stmt(self, base: NodeId) -> Scope:
        at = self.expect_keyword("scope")
        self.expect_op("@")
        role = self.expect_ident("coordinator role")
        body = self.block(base.child(0))
        props: dict[str, Value] = {}
        if self.peek() == "prop":
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
        return Scope(role, body, props, nid=base, **self.where(at))

    def literal(self) -> Value:
        t = self.peek()
        if t.startswith('"') or t.isdecimal():
            return self.value(self.next())
        if t == "-" and self.peek(1).isdecimal():
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
        if self.texts[self.pos] != "!":
            return self.primary(ns)
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
        t = self.texts[at]
        if t.startswith('"') or t.isdecimal() or t == "true" or t == "false" \
                or (t == "-" and self.peek(1).isdecimal()):
            return Lit(self.literal(), **self.where(at))
        if t == "(":
            self.enter(at)
            self.next()
            inner = self.expr(ns)
            self.expect_op(")")
            self.depth -= 1
            return inner
        if t.isidentifier():
            self.next()
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
        while self.peek() == "include":
            includes.append(self.include())
        self.expect_keyword("on")
        self.expect_op("{")
        condition = self.expr(ns=True)
        self.expect_op("}")
        self.expect_keyword("do")
        body = self.block(NodeId())
        self.expect_op("}")
        return Rule(tuple(includes), condition, body, **self.where(at))


def _run(text: str, entry, what: str):
    """``entry`` applied to a parser of ``text``, which it must read to the end."""
    diags: list[Diagnostic] = []
    try:
        p = _Parser(text, diags)
        out = entry(p)
        if p.peek():
            raise p.error(f"unexpected input after {what}: {p.peek()!r}")
        return out
    except _Abort:
        raise ParseError(diags) from None


def parse_program(text: str) -> Program:
    """Parse a full program; the body comes back numbered and in normal form
    (see :class:`chorad.ast.NodeId`)."""
    return _run(text, _Parser.program, "program")


def parse_rules(text: str) -> list[Rule]:
    """Parse a rule file: zero or more ``rule { ... }`` entries."""
    return _run(text, _Parser.rules, "rules")


def parse_behaviour(text: str) -> Behaviour:
    """Parse a bare behaviour (used for rule bodies shipped over the wire)."""
    return _run(text, lambda p: p.content(NodeId()) if p.peek() else Skip(), "behaviour")


def parse_expr(text: str, allow_namespaces: bool = False) -> Expr:
    """Parse a standalone expression (namespaces opt-in for rule conditions)."""
    return _run(text, lambda p: p.expr(allow_namespaces), "expression")
