"""Independent reference interpreter used to derive expected values.

Runs the *global* behaviour directly — one walk over the tree, one variable
store per role, no projection, no messages, no scheduler.  Parallel branches
execute left-to-right, which is a legal linearisation for computing final
stores because branches of a checked program do not race on operations.

Deliberately written from the language semantics alone so that agreement
with the real runtime means something.

Also the reference for ``sim.explore``: :func:`explore_all` runs every
schedule to its end, with no state matching.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from typing import Callable, Optional

from chorad import sim
from chorad.ast import (
    Assign,
    Behaviour,
    Binary,
    Call,
    If,
    Interaction,
    Lit,
    Par,
    Scope,
    Seq,
    Skip,
    Unary,
    Var,
    While,
)
from chorad.project import _as_app


class OracleError(Exception):
    pass


def shift_word(text, offset):
    out = ""
    for ch in text:
        if ch.islower():
            out += chr((ord(ch) - 97 + offset) % 26 + 97)
        elif ch.isupper():
            out += chr((ord(ch) - 65 + offset) % 26 + 65)
        else:
            out += ch
    return out


def as_text(v):
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


class GlobalRun:
    def __init__(self, *, inputs=None, functions: Optional[dict] = None,
                 resolve_scope: Optional[Callable[[Scope], Optional[Behaviour]]] = None):
        self.stores: dict[str, dict] = {}
        self.inputs = {r: list(v) for r, v in (inputs or {}).items()}
        self.functions = functions or {}
        self.resolve_scope = resolve_scope

    def store(self, role):
        return self.stores.setdefault(role, {})

    # expression evaluation against one role's store -----------------------

    def eval(self, e, role):
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Var):
            store = self.store(role)
            if e.name not in store:
                raise OracleError(f"{role} reads unset {e.name}")
            return store[e.name]
        if isinstance(e, Unary):
            v = self.eval(e.operand, role)
            if not isinstance(v, bool):
                raise OracleError("! on non-bool")
            return not v
        if isinstance(e, Call):
            args = [self.eval(a, role) for a in e.args]
            if e.function == "getInput":
                q = self.inputs.get(role)
                if not q:
                    raise OracleError(f"{role} out of inputs")
                return q.pop(0)
            fn = self.functions.get(e.function)
            if fn is None:
                raise OracleError(f"no function {e.function}")
            return fn(*args)
        if isinstance(e, Binary):
            if e.op == "and":
                return self.eval(e.left, role) and self.eval(e.right, role)
            if e.op == "or":
                return self.eval(e.left, role) or self.eval(e.right, role)
            l, r = self.eval(e.left, role), self.eval(e.right, role)
            ints = (lambda x: isinstance(x, int) and not isinstance(x, bool))
            if e.op == "+":
                if ints(l) and ints(r):
                    return l + r
                return as_text(l) + as_text(r)
            if e.op == "-":
                return l - r
            if e.op == "*":
                return l * r
            if e.op == "/":
                q = abs(l) // abs(r)
                return -q if (l < 0) != (r < 0) else q
            if e.op == "==":
                return l == r if type(l) is type(r) else as_text(l) == as_text(r)
            if e.op == "!=":
                return not (l == r if type(l) is type(r) else as_text(l) == as_text(r))
            if e.op == "<":
                return l < r
            if e.op == "<=":
                return l <= r
            if e.op == ">":
                return l > r
            if e.op == ">=":
                return l >= r
        raise OracleError(f"cannot evaluate {e!r}")

    # behaviour -------------------------------------------------------------

    def run(self, b):
        if isinstance(b, Skip):
            return
        if isinstance(b, Assign):
            self.store(b.role)[b.var] = self.eval(b.expr, b.role)
            return
        if isinstance(b, Interaction):
            self.store(b.receiver)[b.var] = self.eval(b.expr, b.sender)
            return
        if isinstance(b, Seq):
            self.run(b.first)
            self.run(b.second)
            return
        if isinstance(b, Par):
            self.run(b.left)
            self.run(b.right)
            return
        if isinstance(b, If):
            if self.eval(b.guard, b.evaluator) is True:
                self.run(b.then_branch)
            else:
                self.run(b.else_branch)
            return
        if isinstance(b, While):
            while self.eval(b.guard, b.evaluator) is True:
                self.run(b.body)
            return
        if isinstance(b, Scope):
            replacement = self.resolve_scope(b) if self.resolve_scope else None
            self.run(replacement if replacement is not None else b.body)
            return
        raise OracleError(f"cannot run {b!r}")


def run_global(program, *, inputs=None, functions=None, resolve_scope=None):
    """Final per-role stores of a program under the reference semantics."""
    run = GlobalRun(inputs=inputs, functions=functions,
                    resolve_scope=resolve_scope)
    run.run(program.body)
    return run.stores


def explore_all(target, config=None, *, max_paths=20_000):
    """Reference exploration: every schedule run to its end, nothing pruned.

    The stateless depth-first loop over ``sim._execute`` that ``sim.explore``
    refines; each path follows a queued prefix, then takes choice 0 and
    queues the choices it passes.  Exponential, so for small programs only.
    """
    config = replace(config or sim.SimConfig(), hash_trace=False)
    app = _as_app(target)
    outcomes, finals, deadlocks = Counter(), Counter(), []
    stack, paths = [()], 0
    while stack and paths < max_paths:
        prefix = stack.pop()
        path, widths = [], []

        def choose(count):
            if count == 1:
                return 0
            path.append(prefix[len(path)] if len(path) < len(prefix) else 0)
            widths.append(count)
            return path[-1]

        report = sim._execute(sim._World(app, config), choose)
        paths += 1
        outcomes[report.outcome] += 1
        if report.outcome == sim.DEADLOCK:
            deadlocks.append(tuple(path))
        finals[json.dumps(report.final_states, sort_keys=True, default=repr)] += 1
        for depth in range(len(prefix), len(path)):
            stack.extend((*path[:depth], k) for k in range(widths[depth] - 1, 0, -1))
    return sim.ExplorationReport(paths=paths, outcomes=dict(outcomes),
                                 deadlocks=deadlocks, complete=not stack,
                                 finals=dict(finals))
