"""External function services and the router that answers role requests.

Programs call functions that live outside any role (``include ... from``).
A :class:`FunctionTable` is one service's worth of named behaviours; the
same table backs in-process simulation and the TCP service command, so a
scenario exercised in the simulator talks to byte-identical behaviours when
deployed live.

The behaviours are deliberately small and composable: fixed values, scripted
reply sequences, integer addition, string prefixing, alphabet shifting,
named text buffers and constant timers.  The bundled scenarios use scripted
replies, prefixing, shifting and a function of their own; ``chorad
functions`` serves any of them.

A :class:`Router` answers the ``call`` and ``match`` requests a
:class:`~chorad.runtime.RoleExecutor` yields.  Both drivers use it; they
differ only in the transport they hand it (none in the simulator, so runs
stay hermetic, ``net.request`` live).
"""

from __future__ import annotations

import logging
import threading
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from .ast import Value
from .runtime import INPUT_FUNCTION, ExtRequest, RoleExecutor, render

if TYPE_CHECKING:
    from .adapt import AdaptationManager

log = logging.getLogger("chorad.services")

Transport = Callable[[str, dict], dict]
ManagerRef = Union["AdaptationManager", str, None]


class ServiceError(Exception):
    pass


def shift_text(text: str, offset: int) -> str:
    """Shift letters through the alphabet, wrapping; other chars pass through."""
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(chr((ord(ch) - ord("a") + offset) % 26 + ord("a")))
        elif "A" <= ch <= "Z":
            out.append(chr((ord(ch) - ord("A") + offset) % 26 + ord("A")))
        else:
            out.append(ch)
    return "".join(out)


TIMER_NAMES = ("startTimer", "endTimer", "stopTimer", "start", "end")


class FunctionTable:
    """Named behaviours plus their state as plain data: the scripted replies
    left and the named buffers.  A behaviour is called with the table it is
    called on, so a :meth:`fork` answers from its own copy of the state.

    No behaviour keeps state of its own: a reply depends on its arguments
    and the table's scripts and buffers only.  The behaviours that read or
    write those, the scripted and buffer ones, are :attr:`stateful`.
    """

    def __init__(self) -> None:
        self._functions: dict[str, Callable[..., Value]] = {}
        self.stateful: set[str] = set()  # the names that read or write the state
        self._scripts: dict[str, tuple[Value, ...]] = {}
        self._buffers: dict[str, str] = {}
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------------

    def register(self, name: str, fn: Callable[[list[Value]], Value]) -> "FunctionTable":
        """Serve ``fn(args)`` as ``name``.  Its reply must depend on ``args``
        alone: ``fn`` keeps no state of its own, since a fork copies only
        the table's, and ``explore`` lets calls to it run in any order."""
        return self._serve(name, lambda table, args: fn(args), False)

    def _serve(self, name: str, fn: Callable[..., Value], stateful: bool) -> "FunctionTable":
        self._functions[name] = fn
        if stateful:
            self.stateful.add(name)
        else:
            self.stateful.discard(name)
        return self

    def fixed(self, name: str, value: Value) -> "FunctionTable":
        return self.register(name, lambda args: value)

    def scripted(self, name: str, values: Sequence[Value]) -> "FunctionTable":
        self._scripts[name] = tuple(values)

        def fn(table: FunctionTable, args: list[Value]) -> Value:
            with table._lock:
                left = table._scripts[name]
                if not left:
                    raise ServiceError(f"'{name}' has no scripted replies left")
                table._scripts[name] = left[1:]
                return left[0]

        return self._serve(name, fn, True)

    def shifter(self, name: str = "shift") -> "FunctionTable":
        def fn(args: list[Value]) -> Value:
            if len(args) != 2 or not isinstance(args[0], str) \
                    or not isinstance(args[1], int) or isinstance(args[1], bool):
                raise ServiceError(f"'{name}' needs (text, offset)")
            return shift_text(args[0], args[1])

        return self.register(name, fn)

    def prefixer(self, name: str, prefix: str) -> "FunctionTable":
        def fn(args: list[Value]) -> Value:
            if len(args) != 1:
                raise ServiceError(f"'{name}' needs one argument")
            return prefix + render(args[0])

        return self.register(name, fn)

    def adder(self, name: str = "add") -> "FunctionTable":
        def fn(args: list[Value]) -> Value:
            if len(args) != 2 or not all(
                    isinstance(a, int) and not isinstance(a, bool) for a in args):
                raise ServiceError(f"'{name}' needs two integers")
            return args[0] + args[1]

        return self.register(name, fn)

    def buffers(self, get_name: str = "bufferGet",
                set_name: str = "bufferSet") -> "FunctionTable":
        def get_fn(table: FunctionTable, args: list[Value]) -> Value:
            if len(args) != 1:
                raise ServiceError(f"'{get_name}' needs a buffer name")
            with table._lock:
                return table._buffers.get(render(args[0]), "")

        def set_fn(table: FunctionTable, args: list[Value]) -> Value:
            if len(args) != 2:
                raise ServiceError(f"'{set_name}' needs (name, text)")
            value = render(args[1])
            with table._lock:
                table._buffers[render(args[0])] = value
            return value

        self._serve(get_name, get_fn, True)
        return self._serve(set_name, set_fn, True)

    def timers(self) -> "FunctionTable":
        # Measurement hooks from the performance scenarios; they carry no
        # semantics here, so every spelling reports a constant.
        for name in TIMER_NAMES:
            self.register(name, lambda args: 0)
        return self

    def fork(self) -> "FunctionTable":
        """A table with these behaviours and a copy of this one's state."""
        new = FunctionTable()
        new._functions, new.stateful = dict(self._functions), set(self.stateful)
        with self._lock:
            new._scripts, new._buffers = dict(self._scripts), dict(self._buffers)
        return new

    def state(self) -> tuple:
        """The scripted replies left and the buffers, as sorted items."""
        with self._lock:
            return tuple(sorted(self._scripts.items())), tuple(sorted(self._buffers.items()))

    # -- use ---------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._functions)

    def call(self, name: str, args: list[Value]) -> Value:
        try:
            fn = self._functions[name]
        except KeyError:
            raise ServiceError(f"no function named '{name}' here") from None
        return fn(self, list(args))


def handle_call_request(table: FunctionTable, request: dict) -> dict:
    """One request/response exchange of the function-service protocol."""
    if request.get("kind") != "call":
        return {"kind": "error", "message": "expected a call request"}
    fn = request.get("fn")
    args = request.get("args", [])
    if not isinstance(fn, str) or not isinstance(args, list):
        return {"kind": "error", "message": "malformed call request"}
    try:
        value = table.call(fn, args)
    except ServiceError as exc:
        return {"kind": "error", "message": str(exc)}
    except Exception as exc:  # service bugs must surface as protocol errors
        return {"kind": "error", "message": f"{type(exc).__name__}: {exc}"}
    if not isinstance(value, (int, bool, str)):
        return {"kind": "error", "message": f"'{fn}' produced a non-value"}
    return {"kind": "result", "value": value}


def _offline(address: str, obj: dict) -> dict:
    raise OSError(f"no service at '{address}'")


class Router:
    """Answers one run's function calls, input requests and scope matches.

    ``getInput`` reads the role's scripted inputs, then ``input_fn``.  Other
    functions resolve through the calling executor's own ``includes``: to an
    in-process table in ``services``, else through ``request`` to a remote
    service.  Matches go to an in-process manager, or through ``request``
    to a manager address.  The default transport reaches nothing, which
    keeps a simulation inside the process.  Local and remote calls share
    one envelope, :func:`handle_call_request`, so a failing service fails
    the calling task with the same message everywhere.

    Given ``counts``, tallies there the middleware messages it exchanges: a
    request and a reply per service call or match.
    """

    def __init__(self, *, services: dict[str, FunctionTable] | None = None,
                 manager: ManagerRef = None,
                 inputs: dict[str, list[Value]] | None = None,
                 input_fn: Callable[[str, list[Value]], Value] | None = None,
                 request: Transport = _offline,
                 counts: Counter[str] | None = None):
        self.services = services or {}
        self.manager = manager
        self.inputs = inputs or {}
        self.input_fn = input_fn
        self.request = request
        self.counts = counts
        self._inputs_taken: dict[str, int] = {}
        self._warned = False
        self._lock = threading.Lock()

    def fork(self, counts: Counter[str] | None) -> "Router":
        """A router for a copy of the run that tallies into ``counts``: it
        keeps this one's input script positions and forks its tables and
        its manager (an address, or a manager that cannot fork, is shared)."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.services = {address: t.fork() for address, t in self.services.items()}
        if hasattr(self.manager, "fork"):
            new.manager = self.manager.fork()
        new.counts = counts
        new._inputs_taken = dict(self._inputs_taken)
        new._lock = threading.Lock()
        return new

    def answer(self, ex: RoleExecutor, ext: ExtRequest) -> tuple[Any, str | None]:
        """``(reply, None)``, or ``(None, why)`` when the request fails; the
        pair is what :meth:`RoleExecutor.settle_ext` takes."""
        try:
            if ext.kind == "call":
                fn, args = ext.payload
                return self._call(ex, fn, list(args)), None
            return self._match(ext.payload[0]), None
        except ServiceError as exc:
            return None, str(exc)

    def _call(self, ex: RoleExecutor, fn: str, args: list[Value]) -> Value:
        if fn == INPUT_FUNCTION:
            return self._input(ex.role, args)
        try:
            address, _proto = ex.includes[fn]
        except KeyError:
            raise ServiceError(f"function '{fn}' is not included") from None
        call = {"kind": "call", "fn": fn, "args": args}
        table = self.services.get(address)
        if table is not None:
            reply = handle_call_request(table, call)
        else:
            try:
                reply = self.request(address, call)
            except OSError as exc:
                raise ServiceError(str(exc)) from None
        self._tally()
        if reply.get("kind") != "result":
            raise ServiceError(str(reply.get("message", f"'{fn}' failed")))
        value = reply.get("value")
        if not isinstance(value, (int, bool, str)):
            raise ServiceError(f"'{fn}' produced a non-value")
        return value

    def _input(self, role: str, args: list[Value]) -> Value:
        with self._lock:
            script = self.inputs.get(role, ())
            taken = self._inputs_taken.get(role, 0)
            if taken < len(script):
                self._inputs_taken[role] = taken + 1
                return script[taken]
        if self.input_fn is None:
            raise ServiceError(f"no input left for role '{role}'")
        try:
            return self.input_fn(role, args)
        except Exception as exc:  # e.g. a closed console: fail the asking task
            raise ServiceError(f"{type(exc).__name__}: {exc}") from exc

    def _match(self, request: dict) -> dict:
        manager = self.manager
        if manager is None:
            self._warn_once(logging.INFO,
                            "no adaptation manager; scopes run their defaults")
            return {"matched": False}
        if isinstance(manager, str):
            try:
                response = self.request(
                    manager, {"kind": "matchReq", "request": request})
            except OSError as exc:
                self._warn_once(logging.WARNING, "adaptation manager "
                                f"unreachable, running defaults: {exc}")
                return {"matched": False}
            if response.get("kind") != "matchResp":
                response = {"matched": False}
        else:
            response = manager.handle_match(request)
        self._tally()
        return response

    def _tally(self) -> None:
        if self.counts is not None:
            self.counts["middleware"] += 2  # request and reply

    def _warn_once(self, level: int, message: str) -> None:
        if not self._warned:
            self._warned = True
            log.log(level, message)
