#!/usr/bin/env python3
"""Write what ``explore`` says of 1 121 inputs, one JSON line per input.

    python3 tools/explore_verdicts.py > change.jsonl
    python3 tools/explore_verdicts.py --root ../parent > parent.jsonl
    diff parent.jsonl change.jsonl

The inputs are every corpus scenario, plain and with each adapted run,
``fork-join-8``, the negative scenarios (``disconnected-swap``,
``duplicated-notify``, ``misread-reply``) and ``deadlock_app``, then the
programs of ``tests/progen.py``: connected seeds 0-999 and nested-``|``
seeds 0-99.  Each line holds the input's name, ``paths``, ``complete``, the
sorted finals, the sorted outcome kinds and whether a deadlock was found;
nothing in it depends on timing, so two checkouts' lines diff cleanly.
``--root`` runs the ``src`` and ``tests`` of another checkout.  Standard
library only; the total wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def inputs(corpus, progen, SimConfig):
    """``(name, target, config)`` for every input, in a fixed order."""
    for sc in corpus.standard_scenarios():
        yield sc.name, sc.app, SimConfig(inputs=dict(sc.inputs), services_factory=sc.services)
        for label, recipe in sc.adapted.items():
            given = sc.inputs if recipe.inputs is None else recipe.inputs
            yield f"{sc.name}-{label}", sc.app, SimConfig(
                inputs=dict(given), services_factory=sc.services,
                manager_factory=sc.manager_factory(*recipe.labels))
    sc = corpus.scenario_by_name("fork-join-8")
    yield sc.name, sc.app, SimConfig(inputs=dict(sc.inputs), services_factory=sc.services)
    for name in ("disconnected-swap", "duplicated-notify", "misread-reply"):
        sc = corpus.scenario_by_name(name)
        yield name, sc.program, SimConfig(max_steps=2000, inputs=dict(sc.inputs),
                                          services_factory=sc.services)
    yield "deadlock-app", corpus.deadlock_app(), SimConfig(max_steps=2000)
    for seed in range(1000):
        yield f"progen-{seed}", progen.random_connected_program(seed), SimConfig()
    for seed in range(100):
        yield f"nested-par-{seed}", progen.random_nested_par_program(seed), SimConfig()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout whose src and tests to run (default: this one)")
    ns = parser.parse_args(argv)
    sys.path[:0] = [str(ns.root / "src"), str(ns.root / "tests")]
    import progen
    from chorad import corpus
    from chorad.sim import SimConfig, explore

    started = time.perf_counter()
    for name, target, config in inputs(corpus, progen, SimConfig):
        r = explore(target, config)
        print(json.dumps({"name": name, "paths": r.paths, "complete": r.complete,
                          "finals": sorted(r.finals), "outcomes": sorted(r.outcomes),
                          "deadlock": bool(r.deadlocks)}), flush=True)
    print(f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
