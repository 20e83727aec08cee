"""Adaptation middleware: environment store, rule servers, and the manager.

A rule server holds adaptation rules in publication order.  The manager
keeps a registry of servers in registration order and answers one question
from scope coordinators: "does any rule want to replace this scope right
now?".  The first applicable rule wins — first server registered, then
first rule published on it — so precedence is fully determined by operator
actions, never by racing.

A rule is applicable to a scope when

* every role its body mentions already takes part in the scope (the roles
  involved plus the coordinator); a replacement may use fewer roles but
  never new ones, and
* its condition evaluates to true over the scope's properties (``N.key``),
  the shared environment (``E.key``) and the coordinator's variables.

Condition evaluation is total: an unset name, a type error, or a non-boolean
result simply means "not applicable".  Operators publish rules against a
running system; a typo must never take the system down.

A scope entry costs about the same however many rules are published:

* publishing checks a batch, compiles every rule's body to per-role process
  code at the body's own node ids, and only then admits the batch, so a bad
  rule leaves the server and its rule numbering untouched; a source text is
  parsed, checked and its bodies printed once per process, in a bounded memo
  that every server reads, while compiling stays per server: bodies with
  equal printed text compile once per server, and an admitted rule carries
  its body's role set;
* each rule is indexed on one top-level conjunct ``name == literal`` of its
  condition, keyed by the name and the literal's rendered text (``==``
  compares rendered text across unlike types); rules without one go on a
  scan list.  A request looks up the rules its own values select, merges
  them with the scan list in publication order and evaluates each in full,
  building its name store once; the index only prunes, so the first match
  is the one a linear scan finds;
* a match reply carries the replacement once, as the rule's compiled code
  per role (``"code"``, :class:`~chorad.project.ProcessCode` objects),
  compiled at publication and shared by every reply; every participant
  re-roots its own share at the scope it replaces
  (:func:`~chorad.project.reroot_proc`) once per scope, in a bounded memo.
  A reply stays code inside the process: it becomes wire data, in the codec
  ``chorad compile`` writes, only when :func:`~chorad.net.encode_line`
  sends it.  Participants parse nothing.

The index is a discrimination network in the manner of Rete (Forgy, 1982),
kept to equality tests.

Environments, servers and managers fork as data, so a run can be copied
whole: a server's fork shares its admitted rules, one immutable value, and
a manager's fork copies the environment and the match log.
"""

from __future__ import annotations

import heapq
import logging
import threading
from collections import deque
from typing import Any, Protocol

from .ast import Binary, Expr, Lit, Rule, Value, Var, pretty_print, roles_of
from .check import Violation, check_rule, has_errors
from .parser import parse_behaviour, parse_rules
from .project import ProcessCode, compile_rule_body
from .runtime import RoleError, eval_expr, render

log = logging.getLogger("chorad.adapt")

#: How many of its latest decisions a manager keeps in ``match_log``.
MATCH_LOG_SIZE = 4096

#: How many distinct bodies a server's compile memo holds before it starts over.
_BODY_MEMO_SIZE = 1024

#: How many distinct sources the publication memo holds before it starts over.
_BATCH_MEMO_SIZE = 256

# source text -> (its rules, their check violations, each body's printed
# text), shared by every server in the process; rules and violations are
# frozen, and the memo takes no lock, as a lost or doubled entry costs only
# a parse.  A source that does not parse is never stored.
_batches: dict[str, tuple[tuple[Rule, ...], tuple[Violation, ...], tuple[str, ...]]] = {}


class Environment:
    """Shared key/value store consulted by rule conditions (``E.key``)."""

    def __init__(self, initial: dict[str, Value] | None = None):
        self._data: dict[str, Value] = dict(initial or {})
        self._lock = threading.Lock()

    def set(self, key: str, value: Value) -> None:
        with self._lock:
            self._data[key] = value

    def get(self, key: str) -> Value | None:
        with self._lock:
            return self._data.get(key)

    def unset(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def snapshot(self) -> dict[str, Value]:
        with self._lock:
            return dict(self._data)

    def fork(self) -> "Environment":
        """A copy that runs on alone."""
        return Environment(self.snapshot())


def _names(props: dict[str, Value], variables: dict[str, Value],
           env: dict[str, Value]) -> dict[str, Value]:
    """The names a rule condition reads: the coordinator's variables, the
    scope's properties as ``N.key`` and the environment as ``E.key``."""
    names: dict[str, Value] = dict(variables)
    for k, v in props.items():
        names[f"N.{k}"] = v
    for k, v in env.items():
        names[f"E.{k}"] = v
    return names


def _holds(condition: Expr, names: dict[str, Value]) -> bool:
    try:
        result = eval_expr(condition, names)
    except RoleError:
        return False
    return result is True


def evaluate_condition(rule: Rule, *, props: dict[str, Value],
                       variables: dict[str, Value],
                       env: dict[str, Value]) -> bool:
    """Decide whether a rule's condition holds for one scope request."""
    return _holds(rule.condition, _names(props, variables, env))


def _request_names(request: dict[str, Any], env: dict[str, Value]) -> dict[str, Value]:
    return _names(request.get("props") or {}, request.get("vars") or {}, env)


def _scope_roles(request: dict[str, Any]) -> set[str]:
    return set(request.get("involved", ())) | {request.get("coordinator")}


def rule_applies(rule: Rule, request: dict[str, Any],
                 env: dict[str, Value]) -> bool:
    return frozenset(roles_of(rule.body)) <= _scope_roles(request) and \
        _holds(rule.condition, _request_names(request, env))


def compile_rule(rule: Rule) -> dict[str, ProcessCode]:
    """The code of every role in the rule's body, at the body's own ids.

    The body is compiled from its printed text, the canonical form whose
    node ids name the auxiliary operations each participant derives.
    """
    return compile_rule_body(parse_behaviour(pretty_print(rule.body)))


def index_key(condition: Expr) -> tuple[str, str] | None:
    """``(name, render(literal))`` of the first top-level ``and`` conjunct
    of the form ``name == literal`` (either way round), or None.

    A condition holds only if each such conjunct does, and ``==`` holds
    exactly when both sides render to the same text (across unlike types
    it compares rendered text, so ``x == 1`` holds for ``x = "1"``).
    """
    todo = [condition]
    while todo:  # conjuncts left to right, however the `and`s nest
        e = todo.pop()
        if type(e) is not Binary:
            continue
        if e.op == "and":
            todo += (e.right, e.left)
        elif e.op == "==":
            for name, lit in ((e.left, e.right), (e.right, e.left)):
                if type(name) is Var and type(lit) is Lit:
                    return name.name, render(lit.value)
    return None


class AdaptationServer:
    """Holds published rules and answers match requests against them.

    A source text is parsed, checked and printed once per process (a memo
    all servers share); each server compiles the printed bodies itself.
    Each rule is compiled at publication and indexed on the name and the
    rendered literal of one ``name == literal`` conjunct of its condition;
    rules without one are kept on a scan list.  A request evaluates only the
    rules its own values select plus the scan list, in publication order.
    Each rule's match reply is built at publication too, and holds its
    compiled code itself, not a wire encoding of it: one code dict per
    printed body, kept in a memo that forks share, and whose keys are the
    role set the admitted rule carries.
    :meth:`publish` replaces the admitted rules whole, so readers need no lock.
    """

    def __init__(self, server_id: str = "s0"):
        self.server_id = server_id
        # (rules, index, scan): (rule id, rule, match reply, body roles) in
        # publication order; name -> rendered literal -> positions in rules,
        # ascending; positions of the rules without an index key
        self._admitted: tuple[tuple, dict, tuple] = ((), {}, ())
        # printed body -> (its code per role, those roles); forks share it and
        # take no lock for it, as a lost or doubled entry costs only a compile
        self._bodies: dict[str, tuple[dict[str, ProcessCode], frozenset[str]]] = {}
        self._lock = threading.Lock()

    def publish(self, source: str):
        """Parse, check and compile a batch of rules, then admit it; the
        batch is all-or-nothing.

        Parsing, checking and printing the bodies happen once per source
        text in the process; compiling the printed bodies happens once per
        server, and rule ids are this server's own.
        Returns a new list of the check violations (empty when the batch was
        admitted; warnings alone do not block).  Syntax problems raise
        ``ParseError`` on every publication of the source.
        """
        batch = _batches.get(source)
        if batch is None:
            rules = tuple(parse_rules(source))
            batch = (rules, tuple(v for r in rules for v in check_rule(r)),
                     tuple(pretty_print(r.body) for r in rules))
            if len(_batches) >= _BATCH_MEMO_SIZE:
                _batches.clear()
            _batches[source] = batch
        rules, violations, texts = batch
        if has_errors(violations):
            return list(violations)
        bodies, compiled = self._bodies, []
        for r, text in zip(rules, texts):
            entry = bodies.get(text)
            if entry is None:
                code = compile_rule(r)
                entry = code, frozenset(code)
                if len(bodies) >= _BODY_MEMO_SIZE:
                    bodies.clear()
                bodies[text] = entry
            compiled.append((r, *entry))
        with self._lock:
            admitted, index, scan = self._admitted
            index = {name: dict(by_text) for name, by_text in index.items()}
            for r, code, roles in compiled:
                pos, key = len(admitted), index_key(r.condition)
                if key is None:
                    scan += (pos,)
                else:
                    by_text = index.setdefault(key[0], {})
                    by_text[key[1]] = by_text.get(key[1], ()) + (pos,)
                rule_id = f"{self.server_id}/r{pos + 1}"
                admitted += ((rule_id, r, {"matched": True, "rule": rule_id, "code": code,
                                           "includes": [[fn, inc.address, inc.protocol]
                                                        for inc in r.includes
                                                        for fn in inc.functions]},
                              roles),)
            self._admitted = admitted, index, scan
        return list(violations)

    def rules(self) -> list[tuple[str, Rule]]:
        return [(rule_id, rule) for rule_id, rule, *_ in self._admitted[0]]

    def fork(self) -> "AdaptationServer":
        """A server that holds these rules and runs on alone."""
        new = AdaptationServer(self.server_id)
        new._admitted, new._bodies = self._admitted, self._bodies
        return new

    def match(self, request: dict[str, Any],
              env: dict[str, Value]) -> dict[str, Any] | None:
        """The reply of the first applicable rule in publication order, or
        None.  Replies are shared: read them, never change them."""
        names = _request_names(request, env)
        allowed = _scope_roles(request)
        rules, index, scan = self._admitted
        candidates = [scan] + [
            hits for name, by_text in index.items() if name in names
            and (hits := by_text.get(render(names[name])))]
        for pos in heapq.merge(*candidates):
            _, rule, reply, roles = rules[pos]
            if roles <= allowed and _holds(rule.condition, names):
                return reply
        return None


class ServerHandle(Protocol):
    """What the manager needs from a registered server, local or remote."""

    server_id: str

    def match(self, request: dict[str, Any],
              env: dict[str, Value]) -> dict[str, Any] | None: ...


class AdaptationManager:
    """Registry of rule servers plus the co-hosted environment.

    Scope coordinators talk to the manager only; the manager consults the
    registered servers in registration order and relays the first match.
    Registering an id again moves that server to the back of the order.
    An unreachable server is skipped with a warning — adaptation degrades
    to the remaining servers rather than wedging running scopes.
    ``match_log`` holds the last ``MATCH_LOG_SIZE`` decisions as
    ``(scope, rule id or None)``, so a long-lived manager stays bounded;
    ``decisions`` counts all of them.
    """

    def __init__(self, env: Environment | None = None):
        self.env = env or Environment()
        self._servers: list[ServerHandle] = []
        self._lock = threading.Lock()
        self.match_log: deque[tuple[str, str | None]] = deque(maxlen=MATCH_LOG_SIZE)
        self.decisions = 0

    def fork(self) -> "AdaptationManager":
        """A manager with a fork of each server (a handle that cannot fork,
        such as a remote server, is shared) and copies of the environment
        and the match log with its count."""
        new = AdaptationManager(self.env.fork())
        with self._lock:
            new._servers = [s.fork() if hasattr(s, "fork") else s for s in self._servers]
            new.match_log = self.match_log.copy()
            new.decisions = self.decisions
        return new

    def register(self, handle: ServerHandle) -> None:
        with self._lock:
            self._servers = [s for s in self._servers
                             if s.server_id != handle.server_id]
            self._servers.append(handle)

    def servers(self) -> list[ServerHandle]:
        with self._lock:
            return list(self._servers)

    def handle_match(self, request: dict[str, Any]) -> dict[str, Any]:
        snapshot, response = self.env.snapshot(), None
        for handle in self.servers():
            try:
                response = handle.match(request, snapshot)
            except (OSError, ConnectionError, TimeoutError) as exc:
                log.warning("rule server %s unreachable, skipping: %s",
                            handle.server_id, exc)
                continue
            if response is not None:
                break
        with self._lock:
            self.match_log.append((str(request.get("scope")),
                                   response.get("rule") if response else None))
            self.decisions += 1
        return response or {"matched": False}
