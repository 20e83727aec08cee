"""Live execution: role threads, TCP deployments, middleware processes.

The same :class:`~chorad.runtime.RoleExecutor` that powers the simulator
runs here under real concurrency.  Each role is a thread that advances its
executor whenever a task is ready and sleeps on a condition variable
otherwise; message deliveries wake it.  Sends, external calls and
adaptation lookups all happen outside the executor lock, so a slow peer or
service never blocks intake.  Calls and lookups go to the
:class:`~chorad.services.Router` the simulator uses, handed ``net.request``
as its transport.

Two deployment shapes:

* :func:`run_all` hosts every role of an application in one process with an
  in-memory transport — same code paths, no sockets to clean up.  Services
  and the manager may be in-process objects or remote addresses.
* :func:`run_role` hosts one role behind a TCP listener.  Non-starting
  roles need only the starter's address; everyone learns the full
  role/address map from the readiness barrier.

The middleware halves live here too: :func:`serve_manager`,
:func:`serve_rule_server` and :func:`serve_functions` wrap the in-process
objects behind the line protocol, and the ``Remote*`` classes are the
matching client stubs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .adapt import AdaptationManager, AdaptationServer, Environment
from .ast import Value
from .net import (
    DEFAULT_TIMEOUT,
    JsonLineServer,
    NetError,
    request,
    send_line,
    start_server,
)
from .project import Target, _as_app
from .runtime import Message, RoleExecutor
from .services import (
    FunctionTable,
    ManagerRef,
    Router,
    handle_call_request,
)


# =========================================================================
# One live role
# =========================================================================


class _LiveRole:
    """Drives one executor on the calling thread; wakes on deliveries."""

    def __init__(self, executor: RoleExecutor, *,
                 send: Callable[[Message], None], router: Router,
                 stall_timeout: float):
        self.executor = executor
        self._send = send
        self._router = router
        self.stall_timeout = stall_timeout
        self.cv = threading.Condition()
        self.error: str | None = None
        self.stopped = False  # by stop(), not by a failure of its own

    def deliver(self, msg: Message) -> None:
        with self.cv:
            self.executor.deliver(msg)
            self.cv.notify_all()

    def stop(self, reason: str) -> None:
        """Make :meth:`run` return; ``reason`` is the error of a role that
        has neither failed nor finished."""
        with self.cv:
            self.stopped = True
            if self.error is None and not (self.executor.failure or self.executor.finished()):
                self.error = reason
            self.cv.notify_all()

    def run(self) -> None:
        ex = self.executor
        while True:
            with self.cv:
                while True:
                    if self.stopped or ex.failure or ex.finished():
                        break
                    ready = ex.ready_tids()
                    if ready:
                        break
                    if not self.cv.wait(self.stall_timeout):
                        self.error = "stalled: no progress and nothing arrived"
                        return
                if self.stopped or ex.failure or ex.finished():
                    if ex.failure and self.error is None:
                        self.error = ex.failure
                    return
                outcome = ex.step(ready[0])
            # Everything below happens outside the lock: peers may deliver
            # to us while we send, call out, or wait on the middleware.
            try:
                for msg in outcome.outbound:
                    self._send(msg)
                if outcome.ext is not None:
                    reply, error = self._router.answer(ex, outcome.ext)
                    with self.cv:
                        ex.settle_ext(outcome.ext.tid, reply, error)
                        self.cv.notify_all()
            except NetError as exc:
                with self.cv:
                    self.error = self.error or str(exc)
                return


# =========================================================================
# All roles in one process
# =========================================================================


@dataclass
class LiveReport:
    final_states: dict[str, dict[str, Value]]
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors


def run_all(target: Target, *,
            inputs: dict[str, list[Value]] | None = None,
            services: dict[str, FunctionTable] | None = None,
            manager: ManagerRef = None,
            input_fn: Callable[[str, list[Value]], Value] | None = None,
            timeout: float = DEFAULT_TIMEOUT,
            stall_timeout: float = 30.0) -> LiveReport:
    """Run every role of the application as a thread in this process."""
    app = _as_app(target)
    table: dict[str, _LiveRole] = {}

    def send(msg: Message) -> None:
        peer = table.get(msg.to)
        if peer is None:
            raise NetError(f"no role '{msg.to}' in this deployment")
        peer.deliver(msg)

    router = Router(services=services, manager=manager, inputs=inputs,
                    input_fn=input_fn, request=partial(request, timeout=timeout))
    for role in app.roles:
        ex = RoleExecutor(role, app.per_role[role], starter=app.starter,
                          roles=app.roles, address=role, includes=app.includes)
        ex.start()
        table[role] = _LiveRole(ex, send=send, router=router,
                                stall_timeout=stall_timeout)

    def run(role: str, live: _LiveRole) -> None:
        live.run()
        if live.error and not live.stopped:
            # the peers would only wait for this role until they stall
            for peer in table.values():
                peer.stop(f"stopped: role '{role}' failed")

    threads = {
        role: threading.Thread(target=run, args=(role, live), name=f"role-{role}", daemon=True)
        for role, live in table.items()
    }
    for t in threads.values():
        t.start()
    errors: dict[str, str] = {}
    for role, t in threads.items():
        t.join(timeout=stall_timeout * 2)
        if t.is_alive():
            table[role].stop("did not finish in time")
            errors[role] = "did not finish in time"
    for role, live in table.items():
        if live.error and role not in errors:
            errors[role] = live.error
    return LiveReport(
        final_states={r: table[r].executor.snapshot() for r in app.roles},
        errors=errors,
    )


# =========================================================================
# One role over TCP
# =========================================================================


def run_role(target: Target, role: str, *,
             address: str,
             starter_address: str | None = None,
             manager: ManagerRef = None,
             services: dict[str, FunctionTable] | None = None,
             inputs: dict[str, list[Value]] | None = None,
             input_fn: Callable[[str, list[Value]], Value] | None = None,
             timeout: float = DEFAULT_TIMEOUT,
             stall_timeout: float = 60.0) -> dict[str, Value]:
    """Host one role behind a TCP listener; blocks until it finishes.

    Returns the role's final variable store; raises ``RuntimeError`` when
    the role fails or stalls.
    """
    app = _as_app(target)
    if role not in app.per_role:
        raise ValueError(f"role '{role}' is not part of this program")
    ex = RoleExecutor(role, app.per_role[role], starter=app.starter,
                      roles=app.roles, includes=app.includes,
                      locations=dict(app.locations))
    if starter_address:
        ex.locations[app.starter] = starter_address

    def send(msg: Message) -> None:
        peer = ex.locations.get(msg.to)
        if peer is None:
            raise NetError(f"no known address for role '{msg.to}'")
        send_line(peer, msg.to_dict(), timeout=timeout)

    router = Router(services=services, manager=manager, inputs=inputs,
                    input_fn=input_fn, request=partial(request, timeout=timeout))
    # ready before the listener opens: a peer's message may arrive at once
    live = _LiveRole(ex, send=send, router=router, stall_timeout=stall_timeout)

    def on_wire(obj: dict) -> dict | None:
        if obj.get("kind") == "ping":
            return {"kind": "pong", "role": role}
        live.deliver(Message.from_dict(obj))
        return None

    server = start_server(address, on_wire)
    with live.cv:
        ex.address = server.address
        ex.start()
    try:
        live.run()
    finally:
        server.shutdown()
        server.server_close()
    if live.error:
        raise RuntimeError(f"role '{role}' failed: {live.error}")
    return ex.snapshot()


# =========================================================================
# Middleware processes
# =========================================================================


class RemoteRuleServer:
    """Manager-side stub for a rule server reached over TCP."""

    def __init__(self, server_id: str, address: str,
                 timeout: float = DEFAULT_TIMEOUT):
        self.server_id = server_id
        self.address = address
        self.timeout = timeout

    def match(self, req: dict, env: dict) -> dict | None:
        reply = request(self.address,
                        {"kind": "matchReq", "request": req, "env": env},
                        timeout=self.timeout)
        if reply.get("kind") == "matchResp" and reply.get("matched"):
            return reply
        return None


def make_manager_handler(manager: AdaptationManager) -> Callable[[dict], dict]:
    def handler(obj: dict) -> dict:
        kind = obj.get("kind")
        if kind == "matchReq":
            result = manager.handle_match(obj.get("request") or {})
            return {"kind": "matchResp", **result}
        if kind == "register":
            addr = obj.get("address", "")
            sid = obj.get("server") or addr
            manager.register(RemoteRuleServer(sid, addr))
            return {"kind": "registered", "server": sid}
        if kind == "envSet":
            manager.env.set(obj["key"], obj["value"])
            return {"kind": "envOk"}
        if kind == "envGet":
            key = obj["key"]
            return {"kind": "envValue", "key": key, "value": manager.env.get(key)}
        if kind == "envSnapshot":
            return {"kind": "envState", "values": manager.env.snapshot()}
        if kind == "ping":
            return {"kind": "pong", "role": "manager"}
        return {"kind": "error", "message": f"unknown request kind {kind!r}"}

    return handler


def make_rule_server_handler(server: AdaptationServer) -> Callable[[dict], dict]:
    def handler(obj: dict) -> dict:
        kind = obj.get("kind")
        if kind == "publish":
            from .parser import ParseError

            before = len(server.rules())
            try:
                violations = server.publish(obj.get("rules", ""))
            except ParseError as exc:
                return {"kind": "error",
                        "diagnostics": [d.render() for d in exc.diagnostics]}
            errors = [v.render() for v in violations if v.severity == "error"]
            warnings = [v.render() for v in violations if v.severity != "error"]
            if errors:
                return {"kind": "error", "diagnostics": errors}
            return {"kind": "published",
                    "rules": len(server.rules()) - before,
                    "warnings": warnings}
        if kind == "matchReq":
            result = server.match(obj.get("request") or {}, obj.get("env") or {})
            return {"kind": "matchResp", **(result or {"matched": False})}
        if kind == "ping":
            return {"kind": "pong", "role": "server"}
        return {"kind": "error", "message": f"unknown request kind {kind!r}"}

    return handler


def serve_manager(address: str,
                  env: dict[str, Value] | None = None
                  ) -> tuple[JsonLineServer, AdaptationManager]:
    manager = AdaptationManager(Environment(env or {}))
    server = start_server(address, make_manager_handler(manager))
    return server, manager


def serve_rule_server(address: str, server_id: str = "s0",
                      manager_address: str | None = None,
                      rules: AdaptationServer | None = None,
                      ) -> tuple[JsonLineServer, AdaptationServer]:
    """Serve ``rules``, a new empty server named ``server_id`` if not
    given, and register it with the manager at ``manager_address``."""
    if rules is None:
        rules = AdaptationServer(server_id)
    server = start_server(address, make_rule_server_handler(rules))
    if manager_address:
        request(manager_address,
                {"kind": "register", "server": rules.server_id,
                 "address": server.address})
    return server, rules


def serve_functions(address: str, table: FunctionTable) -> JsonLineServer:
    return start_server(address, lambda obj: handle_call_request(table, obj))
