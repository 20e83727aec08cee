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
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Protocol

from .ast import Rule, Value, pretty_print
from .check import check_rule, has_errors
from .parser import parse_rules
from .runtime import RoleError, eval_expr

log = logging.getLogger("chorad.adapt")


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


def evaluate_condition(rule: Rule, *, props: dict[str, Value],
                       variables: dict[str, Value],
                       env: dict[str, Value]) -> bool:
    """Decide whether a rule's condition holds for one scope request."""
    names: dict[str, Value] = dict(variables)
    for k, v in props.items():
        names[f"N.{k}"] = v
    for k, v in env.items():
        names[f"E.{k}"] = v
    try:
        result = eval_expr(rule.condition, names)
    except RoleError:
        return False
    return result is True


def rule_applies(rule: Rule, request: dict[str, Any],
                 env: dict[str, Value]) -> bool:
    allowed = set(request.get("involved", ())) | {request.get("coordinator")}
    if not rule.roles <= allowed:
        return False
    return evaluate_condition(
        rule,
        props=request.get("props") or {},
        variables=request.get("vars") or {},
        env=env,
    )


class AdaptationServer:
    """Holds published rules and answers match requests against them."""

    def __init__(self, server_id: str = "s0"):
        self.server_id = server_id
        self._rules: list[tuple[str, Rule]] = []
        self._published = 0
        self._lock = threading.Lock()

    def publish(self, source: str):
        """Parse and admit a batch of rules; the batch is all-or-nothing.

        Returns the check violations (empty when the batch was admitted;
        warnings alone do not block).  Syntax problems raise ``ParseError``.
        """
        rules = parse_rules(source)
        violations = []
        for r in rules:
            violations.extend(check_rule(r))
        if has_errors(violations):
            return violations
        with self._lock:
            for r in rules:
                self._published += 1
                self._rules.append((f"{self.server_id}/r{self._published}", r))
        return violations

    def rules(self) -> list[tuple[str, Rule]]:
        with self._lock:
            return list(self._rules)

    def match(self, request: dict[str, Any],
              env: dict[str, Value]) -> dict[str, Any] | None:
        """First applicable rule in publication order, or None."""
        for rule_id, rule in self.rules():
            if rule_applies(rule, request, env):
                return {
                    "matched": True,
                    "rule": rule_id,
                    "body": pretty_print(rule.body),
                    "includes": [
                        [fn, inc.address, inc.protocol]
                        for inc in rule.includes
                        for fn in inc.functions
                    ],
                }
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
    """

    def __init__(self, env: Environment | None = None):
        self.env = env or Environment()
        self._servers: list[ServerHandle] = []
        self._lock = threading.Lock()
        self.match_log: list[tuple[str, str | None]] = []

    def register(self, handle: ServerHandle) -> None:
        with self._lock:
            self._servers = [s for s in self._servers
                             if s.server_id != handle.server_id]
            self._servers.append(handle)

    def servers(self) -> list[ServerHandle]:
        with self._lock:
            return list(self._servers)

    def handle_match(self, request: dict[str, Any]) -> dict[str, Any]:
        snapshot = self.env.snapshot()
        for handle in self.servers():
            try:
                response = handle.match(request, snapshot)
            except (OSError, ConnectionError, TimeoutError) as exc:
                log.warning("rule server %s unreachable, skipping: %s",
                            handle.server_id, exc)
                continue
            if response is not None:
                with self._lock:
                    self.match_log.append(
                        (str(request.get("scope")), response.get("rule")))
                return response
        with self._lock:
            self.match_log.append((str(request.get("scope")), None))
        return {"matched": False}
