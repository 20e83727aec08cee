"""The four workloads: which programs each stage runs, and why.

Every workload runs the whole user pipeline on its own programs, so every
end-to-end metric exists on every workload:

* compile: ``parse_program`` + ``check_program`` + ``project``;
* sim: one seeded ``simulate`` per program;
* explore: ``explore`` (full mode) with the workload's fixed path budget;
* inproc: ``run_all`` (two-role programs only: the machine has two cores);
* tcp: two ``run_role`` processes on loopback, one per role.

The workloads differ in which stage dominates, and so in which layers an
optimisation has to touch to move them.  Sizes were picked so that one
round of the dominant stage takes a few seconds on a 2-core x86 container
(Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import programs as pg


@dataclass
class Spec:
    compile: list          # programs parsed, checked and projected
    sim: list              # programs simulated once per round
    explore: list          # programs explored to a verdict
    explore_budget: int
    inproc: list           # programs run with run_all
    tcp: list              # programs run with two run_role processes
    # Shares of --seconds for the timed parts of a traced run; tcp makes one
    # run per child.  An untraced run gives all of it to the main part.
    weights: dict = field(default_factory=lambda: {"main": 0.45, "inproc": 0.2})
    timeline_rules: list = field(default_factory=list)  # idle rules published mid-sim

    def programs(self) -> dict:
        """Every program of the workload by name."""
        every = self.compile + self.sim + self.explore + self.inproc + self.tcp
        return {p.name: p for p in every}


WHY = {
    "compile-large": "long ; chains of scopes and wide | blocks: parse, check and project "
                     "cost grows with program size and NodeId depth; runs are short",
    "loop-run": "tiny programs with long runs and no rules: the executor, sim scheduler, "
                "threads and TCP dominate; adaptation stays idle",
    "adapt-churn": "the pipe loop with N/2 rules and mid-run rule writes: rule matching, "
                   "replacement re-parse and re-projection at every scope entry",
    "explore-verdicts": "full exploration of small generated programs and two controls at "
                        "a fixed path budget: per-path set-up and prefix replay dominate",
}


def compile_large(seed: int) -> Spec:
    seqs = [pg.pipe_seq(n, seed) for n in (100, 300, 1000)]
    forks = [pg.fork_join(n, seed) for n in (25, 100, 400)]
    return Spec(compile=seqs + forks, sim=seqs + forks,
                explore=[pg.pipe_seq(1, seed)], explore_budget=500,
                inproc=[seqs[1]],
                tcp=[seqs[1]],
                weights={"main": 0.45, "inproc": 0.2})


def loop_run(seed: int) -> Spec:
    runs = [pg.ping(200, seed), pg.ping(500, seed), pg.pipe(400, seed),
            pg.while_par(50, seed), pg.while_par(200, seed)]
    return Spec(compile=runs, sim=runs,
                explore=[pg.ping(1, seed)], explore_budget=200,
                inproc=[runs[1], runs[2]], tcp=[pg.ping(400, seed)],
                weights={"main": 0.3, "inproc": 0.35})


def adapt_churn(seed: int) -> Spec:
    big = pg.pipe(500, seed, boosted=250)
    # run_role with a manager stalls now and then (see probes), so the tcp
    # stage runs the same loop without one.
    return Spec(compile=[big], sim=[big],
                explore=[pg.pipe(1, seed, boosted=1)], explore_budget=200,
                inproc=[big], tcp=[pg.pipe(300, seed)],
                weights={"main": 0.35, "inproc": 0.3},
                timeline_rules=pg.idle_rules(20, seed))


def explore_verdicts(seed: int) -> Spec:
    gen = [pg.generated(i, seed) for i in range(8)]
    controls = [pg.duplicated_notify(), pg.shared_service(seed)]
    # Generated programs end within milliseconds, and run_role then waits
    # out its server's 0.5 s poll in some runs and not in others; over tcp
    # that coin flip would be all the metric measured.  A loop amortises it.
    return Spec(compile=gen + controls, sim=gen,
                explore=gen + controls, explore_budget=700,
                inproc=[p for p in gen if p.roles == 2], tcp=[pg.ping(300, seed)],
                weights={"main": 0.5, "inproc": 0.15})


WORKLOADS = {
    "compile-large": compile_large,
    "loop-run": loop_run,
    "adapt-churn": adapt_churn,
    "explore-verdicts": explore_verdicts,
}


def probes() -> list:
    """Inputs that fail at this commit: (stage, program).  The first two
    crash the parser with ``RecursionError``; the third is ``run_role``
    with an adaptation manager, which stalls in some runs."""
    idle = "\n".join(pg.idle_rules(50, 0))
    return [("compile", pg.fork_join(1000, 0)), ("compile", pg.nested_ifs(200)),
            ("tcp", replace(pg.pipe(50, 0), rules=idle))]
