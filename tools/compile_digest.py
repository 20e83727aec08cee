#!/usr/bin/env python3
"""Print one sha256 over what the compiler makes of a fixed set of inputs.

    python3 tools/compile_digest.py
    python3 tools/compile_digest.py --root ../parent

The inputs are every standard scenario's program, each of its rule files'
bodies, and the programs of ``tests/progen.py``: seeds 0-49 of
``random_program_source`` and of ``random_nested_par_source``.  A program
contributes its ``app_manifest`` and the ``proc_to_data`` of every role's
code, as ``chorad compile`` writes them; a rule body contributes the
``proc_to_data`` of every role's code from ``compile_rule_body``.  Each
input's name goes into the hash before its data, and a projection error
goes in as its message.  Node ids name every auxiliary operation and scope,
so two checkouts that number or project any node differently print
different digests.  ``--root`` runs the ``src`` and ``tests`` of another
checkout.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def inputs(corpus, progen):
    """``(name, kind, text)`` for every input, in a fixed order; ``kind`` is
    ``"program"`` or ``"rules"``."""
    for sc in corpus.standard_scenarios():
        yield sc.name, "program", sc.source
        for label, text in sc.rules.items():
            yield f"{sc.name}/{label}", "rules", text
    for seed in range(50):
        yield f"progen-{seed}", "program", progen.random_program_source(seed)
    for seed in range(50):
        yield f"nested-par-{seed}", "program", progen.random_nested_par_source(seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout whose src and tests to run (default: this one)")
    ns = parser.parse_args(argv)
    sys.path[:0] = [str(ns.root / "src"), str(ns.root / "tests")]
    import progen
    from chorad import corpus
    from chorad.parser import parse_program, parse_rules
    from chorad.project import (ProjectionError, app_manifest, compile_rule_body, project,
                                proc_to_data)

    total = hashlib.sha256()
    for name, kind, text in inputs(corpus, progen):
        try:
            if kind == "program":
                program = parse_program(text)
                app = project(program)
                data = {"manifest": app_manifest(program, app),
                        "code": {r: proc_to_data(c) for r, c in app.per_role.items()}}
            else:
                data = [{r: proc_to_data(c) for r, c in compile_rule_body(rule.body).items()}
                        for rule in parse_rules(text)]
        except ProjectionError as exc:
            data = {"error": str(exc)}
        total.update(f"{name}\n{json.dumps(data, sort_keys=True)}\n".encode())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
