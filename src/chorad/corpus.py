"""Bundled scenarios: programs, input scripts, services and rule sets.

These are the worked examples the test suite and the ``chorad corpus``
command share.  Each scenario packages everything one run needs — program
source, per-role input scripts, a factory for the function services it
calls, optional adaptation rules keyed by label, and environment values the
rules react to.  Services come from factories because scripted behaviours
are consumed as they answer; every run gets a fresh set.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .adapt import AdaptationManager, AdaptationServer, Environment
from .ast import Program, Value, render_literal
from .parser import parse_program
from .project import ProjectedApp, RecvFrom, SendTo, SeqP, project
from .services import FunctionTable

ServicesFactory = Callable[[], dict[str, FunctionTable]]

CALENDAR_ADDR = "socket://localhost:8001"
TEXT_ADDR = "socket://localhost:8002"


@dataclass(frozen=True)
class AdaptedRun:
    """Recipe for running a scenario with some of its rules active.

    ``inputs`` overrides the scenario's default scripts when adaptation
    changes what gets asked (a skipped question is an unconsumed answer).
    """

    labels: tuple[str, ...]
    inputs: dict[str, list[Value]] | None = None


@dataclass
class Scenario:
    name: str
    source: str
    inputs: dict[str, list[Value]] = field(default_factory=dict)
    services: ServicesFactory | None = None
    rules: dict[str, str] = field(default_factory=dict)
    env: dict[str, Value] = field(default_factory=dict)
    adapted: dict[str, AdaptedRun] = field(default_factory=dict)
    notes: str = ""
    connected: bool = True

    @cached_property
    def program(self) -> Program:
        return parse_program(self.source)

    @cached_property
    def app(self) -> ProjectedApp:
        return project(self.program)

    def manager_factory(self, *labels: str,
                        server_id: str = "s0") -> Callable[[], AdaptationManager]:
        """Factory for a manager preloaded with the named rule sets (in the
        given order) and this scenario's environment values."""
        sources = [self.rules[label] for label in labels]
        env_values = dict(self.env)

        def build() -> AdaptationManager:
            manager = AdaptationManager(Environment(env_values))
            server = AdaptationServer(server_id)
            for src in sources:
                bad = [v for v in server.publish(src) if v.severity == "error"]
                if bad:
                    raise ValueError(f"corpus rule set rejected: {bad[0].message}")
            manager.register(server)
            return manager

        return build


def _dedent(text: str) -> str:
    return textwrap.dedent(text).strip() + "\n"


# -------------------------------------------------------------------------
# Greeting: one interaction under an adaptable scope.
# -------------------------------------------------------------------------


def hello_world() -> Scenario:
    source = _dedent(
        """
        preamble {
          starter: user
        }

        aioc {
          scope @user {
            greet: user( "Hello World" ) -> display( msg )
          } prop { N.flavour = "greeting" }
        }
        """
    )
    italian = _dedent(
        """
        rule {
          on { N.flavour == "greeting" and E.language == "it" }
          do {
            greet: user( "Ciao Mondo" ) -> display( msg )
          }
        }
        """
    )
    # Same condition as `italian`; only publication order decides between them.
    italian_alt = _dedent(
        """
        rule {
          on { N.flavour == "greeting" and E.language == "it" }
          do {
            greet: user( "Salve Mondo" ) -> display( msg )
          }
        }
        """
    )
    return Scenario(
        name="hello-world",
        source=source,
        rules={"italian": italian, "italian-alt": italian_alt},
        env={"language": "it"},
        adapted={"it": AdaptedRun(("italian",))},
        notes="smallest adaptable program: one greeting behind one scope",
    )


# -------------------------------------------------------------------------
# Appointment: retry loop, nested conditionals, two adaptable scopes,
# three roles and two external services.
# -------------------------------------------------------------------------


def appointment(*, days: list[str] | None = None,
                alice_answers: list[Value] | None = None) -> Scenario:
    source = _dedent(
        """
        include getFreeDay, getTicket from "socket://localhost:8001"

        preamble {
          starter: bob
        }

        aioc {
          end@bob = false;
          while ( !end )@bob {
            free_day@bob = getFreeDay( "bob" );
            propose: bob( free_day ) -> alice( bob_free_day );
            scope @alice {
              is_free@alice = getInput( "Available on " + bob_free_day + "?" )
            } prop { N.asking = "availability" };
            if ( is_free )@alice {
              scope @alice {
                event@alice = "cinema"
              } prop { N.choosing = "event" };
              agreement@alice = getInput( "Join for " + event + " on " + bob_free_day + "?" )
            } else {
              agreement@alice = "n"
            };
            if ( agreement == "y" )@alice {
              book: alice( bob_free_day ) -> cinema( book_day );
              ticket@cinema = getTicket( book_day );
              notify: cinema( ticket ) -> alice( ticket )
            };
            accept: alice( agreement ) -> bob( _r );
            end@bob = ( _r == "y" );
            if ( _r == "y" )@bob {
              fwd_req: bob( "send ticket" ) -> alice( _q );
              fwd: alice( ticket ) -> bob( ticket )
            }
          }
        }
        """
    )
    free_week = _dedent(
        """
        rule {
          on { N.asking == "availability" and E.free_week == true }
          do {
            is_free@alice = true
          }
        }
        """
    )
    picnic = _dedent(
        """
        rule {
          on { N.choosing == "event" and E.weather == "sun" }
          do {
            event@alice = "picnic"
          }
        }
        """
    )
    days = days if days is not None else ["2024-06-01"]
    answers = alice_answers if alice_answers is not None else [True, "y"]

    def services() -> dict[str, FunctionTable]:
        table = FunctionTable()
        table.scripted("getFreeDay", list(days))
        table.prefixer("getTicket", "TICKET-")
        return {CALENDAR_ADDR: table}

    return Scenario(
        name="appointment",
        source=source,
        inputs={"alice": list(answers)},
        services=services,
        rules={"free-week": free_week, "picnic": picnic},
        env={"free_week": True, "weather": "sun"},
        adapted={
            # With availability answered by the rule, alice is only asked
            # whether she joins.
            "free-week": AdaptedRun(("free-week",), inputs={"alice": ["y"]}),
            "picnic": AdaptedRun(("picnic",), inputs={"alice": list(answers)}),
        },
        notes="retry loop with availability and event-choice scopes",
    )


def appointment_retry() -> Scenario:
    s = appointment(days=["2024-06-05", "2024-06-01"],
                    alice_answers=[True, "n", True, "y"])
    s.name = "appointment-retry"
    s.notes = "first proposal refused, second accepted"
    s.adapted = {
        "free-week": AdaptedRun(("free-week",), inputs={"alice": ["n", "y"]}),
        "picnic": AdaptedRun(("picnic",),
                             inputs={"alice": [True, "n", True, "y"]}),
    }
    return s


# -------------------------------------------------------------------------
# Pipe: counter pushed through an adaptable increment stage n times.
# -------------------------------------------------------------------------


def pipe(n: int) -> Scenario:
    source = _dedent(
        f"""
        preamble {{
          starter: a
        }}

        aioc {{
          x@a = 0;
          i@a = 0;
          send0: a( x ) -> b( y );
          while ( i < {n} )@a {{
            i@a = i + 1;
            scope @a {{
              step: a( "go" ) -> b( _g );
              y@b = y + 1;
              back: b( y ) -> a( x )
            }} prop {{ N.stage = "inc" }}
          }};
          final: a( x ) -> b( result )
        }}
        """
    )
    rules = {
        "boost-2": pipe_boost_rules((1, 2)),
        "boost-half": pipe_boost_rules(range(1, n // 2 + 1)),
    }
    return Scenario(
        name=f"pipe-{n}",
        source=source,
        rules=rules,
        adapted={"boost-2": AdaptedRun(("boost-2",))},
        notes="two-role increment pipeline; rules double chosen iterations",
    )


def pipe_boost_rules(iterations) -> str:
    """One rule per listed iteration, doubling that iteration's increment."""
    chunks = []
    for k in iterations:
        chunks.append(_dedent(
            f"""
            rule {{
              on {{ i == {k} }}
              do {{
                step: a( "go" ) -> b( _g );
                y@b = y + 2;
                back: b( y ) -> a( x )
              }}
            }}
            """
        ))
    return "\n".join(chunks)


def pipe_unrolled(n: int) -> Scenario:
    """The pipeline written out as ``n`` textual scopes instead of a loop.

    Same behaviour as :func:`pipe`, but the program grows with ``n`` — this
    is the family the checker's scaling is measured on.
    """
    blocks = "\n".join(
        f"  scope @a {{ step: a( x ) -> b( _y );"
        f" back: b( _y + 1 ) -> a( x ) }} prop {{ N.stage = {k} }};"
        for k in range(1, n + 1))
    source = (
        "preamble {\n  starter: a\n}\n\n"
        "aioc {\n  x@a = 0;\n"
        f"{blocks}\n"
        "  final: a( x ) -> b( result )\n}\n"
    )
    return Scenario(
        name=f"pipe-seq-{n}",
        source=source,
        notes="unrolled increment pipeline; program size grows with n",
    )


def ping(n: int) -> Scenario:
    """Scope-free two-role exchange; the control for overhead counting."""
    source = _dedent(
        f"""
        preamble {{
          starter: a
        }}

        aioc {{
          i@a = 0;
          while ( i < {n} )@a {{
            i@a = i + 1;
            there: a( i ) -> b( j );
            back_again: b( j ) -> a( _x )
          }}
        }}
        """
    )
    return Scenario(name=f"ping-{n}", source=source,
                    notes="no scopes, hence zero adaptation traffic")


# -------------------------------------------------------------------------
# Fork/join: five characters shifted in parallel scopes, then reassembled.
# -------------------------------------------------------------------------


def fork_join(text: str = "abcde") -> Scenario:
    if not text:
        raise ValueError("fork_join wants at least one character")
    n = len(text)
    picks = "\n".join(f"  c{i}@a = charAt( text, {i} );" for i in range(n))
    branches = " |\n".join(
        f"    scope @a {{ r{i}@a = shiftChar( c{i}, 1 ) }} "
        f"prop {{ N.index = {i} }}" for i in range(n))
    joined = " + ".join(f"r{i}" for i in range(n))
    source = (
        f'include charAt, shiftChar from "socket://localhost:8002"\n'
        f"\n"
        f"preamble {{\n"
        f"  starter: a\n"
        f"}}\n"
        f"\n"
        f"aioc {{\n"
        f"  text@a = {render_literal(text)};\n"
        f"{picks}\n"
        f"  {{\n{branches}\n  }};\n"
        f"  out@a = {joined};\n"
        f"  show: a( out ) -> b( result )\n"
        f"}}\n"
    )
    double_front = "\n".join([
        _dedent(
            """
            rule {
              include shiftChar from "socket://localhost:8002"
              on { N.index == 0 }
              do { r0@a = shiftChar( c0, 2 ) }
            }
            """
        ),
        _dedent(
            """
            rule {
              include shiftChar from "socket://localhost:8002"
              on { N.index == 1 }
              do { r1@a = shiftChar( c1, 2 ) }
            }
            """
        ),
    ])

    def services() -> dict[str, FunctionTable]:
        table = FunctionTable()

        def char_at(args):
            s, i = args
            return s[i]

        table.register("charAt", char_at)
        table.shifter("shiftChar")
        return {TEXT_ADDR: table}

    return Scenario(
        name="fork-join" if text == "abcde" else f"fork-join-{n}",
        source=source,
        services=services,
        rules={"double-front": double_front},
        adapted={"double-front": AdaptedRun(("double-front",))},
        notes=f"{n} parallel shift scopes reassembled in order",
    )


def alphabet_text(n: int) -> str:
    """Deterministic n-character sample text: a, b, c, ... cycling."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    return "".join(letters[i % 26] for i in range(n))


# -------------------------------------------------------------------------
# Small single-construct programs (parser and projection food).
# -------------------------------------------------------------------------


def assign_chain() -> Scenario:
    return Scenario(
        name="assign-chain",
        source=_dedent(
            """
            preamble { starter: a }
            aioc {
              x@a = 1;
              y@a = x + 2;
              send: a( y ) -> b( z )
            }
            """
        ),
    )


def cond_pair() -> Scenario:
    return Scenario(
        name="cond-pair",
        source=_dedent(
            """
            preamble { starter: a }
            aioc {
              flip: a( true ) -> b( go );
              if ( go )@b {
                yes: b( "taken" ) -> a( seen )
              } else {
                no: b( "dropped" ) -> a( seen )
              }
            }
            """
        ),
    )


def countdown(n: int = 3) -> Scenario:
    return Scenario(
        name=f"countdown-{n}",
        source=_dedent(
            f"""
            preamble {{ starter: a }}
            aioc {{
              k@a = {n};
              while ( k > 0 )@a {{
                tick: a( k ) -> b( seen );
                k@a = k - 1
              }};
              done_msg: a( "done" ) -> b( last )
            }}
            """
        ),
    )


# -------------------------------------------------------------------------
# Negative entries.
# -------------------------------------------------------------------------


def disconnected_swap() -> Scenario:
    """Second interaction starts at a role the first one never touched."""
    return Scenario(
        name="disconnected-swap",
        source=_dedent(
            """
            preamble { starter: a }
            aioc {
              first: a( "x" ) -> b( m );
              second: c( "y" ) -> d( n )
            }
            """
        ),
        connected=False,
    )


def duplicated_notify() -> Scenario:
    """The same interaction appears in both parallel branches."""
    return Scenario(
        name="duplicated-notify",
        source=_dedent(
            """
            preamble { starter: a }
            aioc {
              { notify: a( 1 ) -> b( x ) | notify: a( 2 ) -> b( y ) }
            }
            """
        ),
        connected=False,
    )


def misread_reply() -> Scenario:
    """Connected, but the reply reads a variable that was never written.

    The role-level fault a dynamic sweep must catch: b receives into
    ``got`` and answers from ``msg``.
    """
    return Scenario(
        name="misread-reply",
        source=_dedent(
            """
            preamble { starter: a }
            aioc {
              m: a( "hi" ) -> b( got );
              echo: b( msg ) -> a( back )
            }
            """
        ),
    )


def deadlock_app() -> ProjectedApp:
    """Hand-built crossed receives; no connected program projects to this."""
    return ProjectedApp(
        per_role={
            "a": SeqP((RecvFrom("left", "b", "x"), SendTo("right", "b", _lit("A")))),
            "b": SeqP((RecvFrom("right", "a", "y"), SendTo("left", "a", _lit("B")))),
        },
        starter="a",
        locations={},
        includes={},
    )


def _lit(v: Value):
    from .ast import Lit

    return Lit(v)


# -------------------------------------------------------------------------
# Registry.
# -------------------------------------------------------------------------


def standard_scenarios() -> list[Scenario]:
    """The named set used by the command line and the sweep tests."""
    return [
        hello_world(),
        appointment(),
        appointment_retry(),
        pipe(5),
        ping(4),
        fork_join(),
        assign_chain(),
        cond_pair(),
        countdown(3),
    ]


def scenario_by_name(name: str) -> Scenario:
    for s in standard_scenarios() + [disconnected_swap(), duplicated_notify(),
                                     misread_reply()]:
        if s.name == name:
            return s
    # parameterised names: pipe-N, pipe-seq-N, ping-N, countdown-N, fork-join-N
    for prefix, builder in (("pipe-seq-", pipe_unrolled), ("pipe-", pipe),
                            ("ping-", ping), ("countdown-", countdown),
                            ("fork-join-", lambda n: fork_join(alphabet_text(n)))):
        if name.startswith(prefix):
            try:
                return builder(int(name[len(prefix):]))
            except ValueError:
                break
    raise KeyError(f"no scenario named '{name}'")
