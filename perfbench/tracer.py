"""Spans around chorad's public entry points, recorded from outside chorad.

:func:`install` replaces each entry point with a wrapper wherever it is
looked up: every loaded ``chorad`` module that holds the original function
gets the wrapper, so ``chorad.runtime.project_rule_body`` and
``chorad.live.send_line`` are traced as well as their home modules.
Methods are wrapped on their class.

Each span has a name, start, end, parent (the innermost open span on the
same thread) and the benchmark's current context label.  Self time is the
span's duration minus its direct children's.  Totals are kept online, so
memory does not grow with the run; the first ``SPAN_CAP`` spans are also
kept whole and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict

SPAN_CAP = 20_000


class Tracer:
    def __init__(self) -> None:
        self.context = "setup"
        self.spans: list[tuple] = []
        # (name, context) -> [calls, inclusive s, self s]
        self.totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        # (counter, context) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[(name, self.context)] += value

    def wrap(self, name: str, fn, after=None, sample: bool = False):
        """Wrapper recording one span per call; ``after(args, result)``
        adds counts at the same boundary."""
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]  # id, time covered by children
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                ctx = tracer.context
                with tracer._lock:
                    row = tracer.totals[(name, ctx)]
                    row[0] += 1
                    row[1] += dur
                    row[2] += dur - frame[1]
                    if sample:
                        tracer.samples[name].append(dur)
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((sid, parent, name, t0, t1, ctx))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module: str, attr: str, name: str, after=None,
                       sample: bool = False) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, original, after, sample)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "chorad" or mod_name.startswith("chorad."):
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch_method(self, module: str, cls: str, attr: str, name: str,
                     after=None, sample: bool = False) -> None:
        klass = getattr(importlib.import_module(module), cls)
        original = klass.__dict__[attr]
        self._patched.append((klass, attr, original))
        setattr(klass, attr, self.wrap(name, original, after, sample))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Totals in a JSON-friendly form, for merging across processes."""
        return {
            "totals": [[n, c, *v] for (n, c), v in self.totals.items()],
            "counts": [[n, c, v] for (n, c), v in self.counts.items()],
            "samples": dict(self.samples),
        }

    def dump(self, path) -> None:
        """Write the kept spans, one JSON array per line:
        ``[id, parent, name, start_s, end_s, context]``."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def _wire_bytes(obj) -> int:
    return len(json.dumps(obj, separators=(",", ":")).encode()) + 1


def install(tracer: Tracer) -> Tracer:
    """Wrap the entry points of every chorad module on ``tracer``."""
    importlib.import_module("chorad")

    def on_step(args, kwargs, outcome):
        tracer.count("runtime.msgs", len(outcome.outbound))

    def on_match(args, kwargs, response):
        tracer.count("adapt.matched", 1 if response.get("matched") else 0)

    def on_publish(args, kwargs, violations):
        server = args[0]
        with tracer._lock:
            key = ("adapt.rules", tracer.context)
            tracer.counts[key] = max(tracer.counts[key], len(server.rules()))

    def on_simulate(args, kwargs, report):
        tracer.count("sim.steps", report.steps)

    def on_explore(args, kwargs, report):
        tracer.count("explore.paths", report.paths)
        tracer.count("explore.decided", 1 if report.complete else 0)

    def on_send(args, kwargs, result):
        obj = args[1] if len(args) > 1 else kwargs["obj"]
        tracer.count("net.bytes", _wire_bytes(obj))

    tracer.patch_function("chorad.parser", "parse_program", "parser.parse_program")
    tracer.patch_function("chorad.parser", "parse_behaviour", "parser.parse_behaviour")
    tracer.patch_function("chorad.parser", "parse_rules", "parser.parse_rules")
    tracer.patch_function("chorad.check", "check_program", "check.check_program")
    tracer.patch_function("chorad.check", "check_rule", "check.check_rule")
    tracer.patch_function("chorad.project", "project", "project.project")
    tracer.patch_function("chorad.project", "project_rule_body", "project.project_rule_body")
    tracer.patch_method("chorad.runtime", "RoleExecutor", "__init__", "runtime.init")
    tracer.patch_method("chorad.runtime", "RoleExecutor", "start", "runtime.start")
    tracer.patch_method("chorad.runtime", "RoleExecutor", "step", "runtime.step", on_step)
    tracer.patch_method("chorad.adapt", "AdaptationManager", "handle_match",
                        "adapt.handle_match", on_match, sample=True)
    tracer.patch_method("chorad.adapt", "AdaptationServer", "publish", "adapt.publish",
                        on_publish)
    tracer.patch_function("chorad.sim", "simulate", "sim.simulate", on_simulate)
    tracer.patch_function("chorad.sim", "explore", "sim.explore", on_explore)
    tracer.patch_function("chorad.live", "run_all", "live.run_all")
    tracer.patch_function("chorad.live", "run_role", "live.run_role")
    tracer.patch_function("chorad.net", "send_line", "net.send_line", on_send)
    tracer.patch_function("chorad.net", "request", "net.request", on_send)
    tracer.patch_method("chorad.services", "FunctionTable", "call", "services.call")
    return tracer
