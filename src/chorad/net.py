"""Line-oriented JSON over TCP.

Every process in a deployment — roles, the adaptation manager, rule
servers, function services — speaks the same trivial wire format: one JSON
object per line, UTF-8, newline-terminated.  Fire-and-forget senders close
after writing; request/response callers read exactly one line back.

Addresses are written ``socket://host:port`` (the bare ``host:port`` is
accepted too).

Shipped process code nests as deep as its expressions (a 1 000-term sum is
1 000 levels), deeper than :mod:`json` encodes or decodes before it hits
the recursion limit; such lines go through an iterative codec that writes
and reads the same text.  :func:`encode_text` writes the indented form
too, for the files ``chorad compile`` writes.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
from typing import Any, Callable

DEFAULT_TIMEOUT = 5.0

Handler = Callable[[dict], dict | None]


class NetError(OSError):
    """Transport failure; an OSError so callers can treat local and remote
    unreachability alike."""


def encode_line(obj: Any) -> bytes:
    """``obj`` as one compact JSON line."""
    return (encode_text(obj) + "\n").encode()


def encode_text(obj: Any, indent: int | None = None) -> str:
    """``json.dumps(obj, indent=indent)``, compact when ``indent`` is None,
    at any depth."""
    try:
        if indent is None:
            return json.dumps(obj, separators=(",", ":"))
        return json.dumps(obj, indent=indent)
    except RecursionError:
        return _dumps_deep(obj, indent)


def decode_line(line: str | bytes) -> Any:
    """The JSON value on one line; bad JSON raises ``json.JSONDecodeError``."""
    try:
        return json.loads(line)
    except RecursionError:
        return _loads_deep(line.decode() if isinstance(line, bytes) else line)


class _Text(str):
    """Output text, as opposed to a string value still to be encoded."""


def _dumps_deep(obj: Any, indent: int | None = None) -> str:
    """``json.dumps(obj, indent=indent)`` without recursion; when ``indent``
    is None, ``json.dumps(obj, separators=(",", ":"))``."""
    colon = ":" if indent is None else ": "
    out: list[str] = []
    todo: list = [(obj, 0)]  # (value or output text, nesting depth)
    while todo:
        x, depth = todo.pop()
        if type(x) is _Text:
            out.append(x)
        elif isinstance(x, (dict, list, tuple)):
            is_dict = isinstance(x, dict)
            opener, closer = "{}" if is_dict else "[]"
            if not x:
                out.append(opener + closer)
                continue
            if indent is None:
                first, end = "", ""
            else:  # each item on its own line, one level in
                first = "\n" + " " * (indent * (depth + 1))
                end = "\n" + " " * (indent * depth)
            parts: list = []
            for k, v in x.items() if is_dict else enumerate(x):
                head = "," + first if parts else first
                if is_dict:  # keys as json.dumps writes them: always strings
                    head += json.dumps(k if isinstance(k, str) else json.dumps(k)) + colon
                parts += ((_Text(head), depth), (v, depth + 1))
            todo += [(_Text(end + closer), depth), *reversed(parts), (_Text(opener), depth)]
        else:
            out.append(json.dumps(x))
    return "".join(out)


_SPACE = re.compile(r"[ \t\n\r]*")
_NUMBER = re.compile(r"(-?(?:0|[1-9]\d*))(\.\d+)?([eE][-+]?\d+)?")
_LITERALS = {"true": True, "false": False, "null": None,
             "NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}


def _loads_deep(s: str) -> Any:
    """``json.loads(s)`` without recursion."""
    skip = _SPACE.match
    open_: list = []  # containers still open, innermost last
    keys: list[str] = []  # for each open dict, the key its next value goes under

    def key_at(i: int) -> int:
        if s[i:i + 1] != '"':
            raise json.JSONDecodeError("expecting a property name", s, i)
        k, i = json.decoder.scanstring(s, i + 1)
        i = skip(s, i).end()
        if s[i:i + 1] != ":":
            raise json.JSONDecodeError("expecting ':'", s, i)
        keys.append(k)
        return skip(s, i + 1).end()

    i = skip(s, 0).end()
    while True:
        ch = s[i:i + 1]
        if ch in ("{", "["):  # open a container, or read an empty one
            i = skip(s, i + 1).end()
            close = "}" if ch == "{" else "]"
            if s[i:i + 1] == close:
                value, i = ({} if ch == "{" else []), i + 1
            else:
                open_.append({} if ch == "{" else [])
                if ch == "{":
                    i = key_at(i)
                continue
        elif ch == '"':
            value, i = json.decoder.scanstring(s, i + 1)
        elif (m := _NUMBER.match(s, i)) is not None:
            whole, frac, exp = m.groups()
            value = float(whole + (frac or "") + (exp or "")) if frac or exp else int(whole)
            i = m.end()
        else:
            word = next((w for w in _LITERALS if s.startswith(w, i)), None)
            if word is None:
                raise json.JSONDecodeError("expecting a value", s, i)
            value, i = _LITERALS[word], i + len(word)
        while True:  # file the value, closing every container it completes
            i = skip(s, i).end()
            if not open_:
                if i != len(s):
                    raise json.JSONDecodeError("extra data", s, i)
                return value
            top = open_[-1]
            if type(top) is list:
                top.append(value)
            else:
                top[keys.pop()] = value
            ch = s[i:i + 1]
            if ch == ",":
                i = skip(s, i + 1).end()
                if type(top) is dict:
                    i = key_at(i)
                break
            if ch != ("]" if type(top) is list else "}"):
                raise json.JSONDecodeError("expecting ',' or a closing bracket", s, i)
            value, i = open_.pop(), i + 1


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
            with conn.makefile("r", encoding="utf-8") as reader:
                line = reader.readline()
    except OSError as exc:
        raise NetError(f"cannot reach {address}: {exc}") from exc
    if not line:
        raise NetError(f"{address} closed the connection without replying")
    try:
        return decode_line(line)
    except json.JSONDecodeError as exc:
        raise NetError(f"{address} sent a non-JSON reply") from exc
