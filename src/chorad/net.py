"""Line-oriented JSON over TCP.

Every process in a deployment — roles, the adaptation manager, rule
servers, function services — speaks the same trivial wire format: one JSON
object per line, UTF-8, newline-terminated.  Fire-and-forget senders close
after writing; request/response callers read exactly one line back.

Addresses are written ``socket://host:port`` (the bare ``host:port`` is
accepted too).

Process code stays :class:`~chorad.project.ProcessCode` objects inside a
process, in match replies and scope directives alike; :func:`encode_line`
is the one place where it becomes wire data (``proc_to_data``, the codec
``chorad compile`` writes), so only a line that goes onto a socket pays
for the encoding.

Shipped process code nests no deeper than the parser's nesting limit
allows (each expression ships as a flat list of its nodes), so every line
is within what :mod:`json` encodes and decodes.  A line from outside that
nests deeper, or is not UTF-8, is rejected like any other bad JSON.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any, Callable

from .project import proc_to_data

DEFAULT_TIMEOUT = 5.0

Handler = Callable[[dict], dict | None]


class NetError(OSError):
    """Transport failure; an OSError so callers can treat local and remote
    unreachability alike."""


def encode_line(obj: Any) -> bytes:
    """``obj`` as one compact JSON line, each process code in it as the
    data :func:`~chorad.project.proc_to_data` makes of it; any other value
    JSON cannot hold raises ``TypeError``."""
    return (json.dumps(obj, separators=(",", ":"), default=proc_to_data) + "\n").encode()


def decode_line(line: str | bytes) -> Any:
    """The JSON value on one line; bad JSON, a line nested too deep for
    :mod:`json` and bytes that are not UTF-8 raise ``json.JSONDecodeError``."""
    try:
        return json.loads(line)
    except (RecursionError, UnicodeDecodeError) as exc:
        raise json.JSONDecodeError(f"unreadable line: {exc}", "", 0) from None


def parse_address(address: str) -> tuple[str, int]:
    text = address.strip()
    if text.startswith("socket://"):
        text = text[len("socket://"):]
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise NetError(f"address needs host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise NetError(f"bad port in address {address!r}") from None


def format_address(host: str, port: int) -> str:
    return f"socket://{host}:{port}"


class JsonLineServer(socketserver.ThreadingTCPServer):
    """Serves a handler function; one JSON object per line, reply optional."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: str, handler: Handler):
        self.handler = handler
        host, port = parse_address(address)
        super().__init__((host, port), _LineRequestHandler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return format_address(host, port)


class _LineRequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: JsonLineServer = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                obj = decode_line(line)
            except json.JSONDecodeError:
                self._reply({"kind": "error", "message": "bad json"})
                continue
            try:
                response = server.handler(obj)
            except Exception as exc:  # handler bugs become protocol errors
                response = {"kind": "error",
                            "message": f"{type(exc).__name__}: {exc}"}
            if response is not None:
                self._reply(response)

    def _reply(self, obj: dict) -> None:
        try:
            self.wfile.write(encode_line(obj))
            self.wfile.flush()
        except OSError:
            pass


def start_server(address: str, handler: Handler) -> JsonLineServer:
    """Bind and serve in a daemon thread; returns the running server.

    Use port 0 to let the OS pick; read the bound address back off the
    returned server.
    """
    server = JsonLineServer(address, handler)
    thread = threading.Thread(target=server.serve_forever,
                              name=f"serve-{server.address}", daemon=True)
    thread.start()
    return server


def send_line(address: str, obj: dict, timeout: float = DEFAULT_TIMEOUT) -> None:
    host, port = parse_address(address)
    data = encode_line(obj)
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.sendall(data)
    except OSError as exc:
        raise NetError(f"cannot reach {address}: {exc}") from exc


def request(address: str, obj: dict,
            timeout: float = DEFAULT_TIMEOUT) -> dict[str, Any]:
    host, port = parse_address(address)
    data = encode_line(obj)
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.sendall(data)
            with conn.makefile("rb") as reader:
                line = reader.readline()
    except OSError as exc:
        raise NetError(f"cannot reach {address}: {exc}") from exc
    if not line:
        raise NetError(f"{address} closed the connection without replying")
    try:
        reply = decode_line(line)
    except json.JSONDecodeError as exc:
        raise NetError(f"{address} sent a non-JSON reply") from exc
    if not isinstance(reply, dict):
        raise NetError(f"{address} sent a reply that is not a JSON object")
    return reply
