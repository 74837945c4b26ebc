"""The benchmark's workloads: fixed lists of library calls and their checks.

Every workload is a list of operations.  One pass runs each operation once,
in order, in one thread; a run repeats whole passes.  An operation is one
library call, or one key-rate curve (``evolve`` plus ``two_way_net_rate``
over ``curve_grid()``).  Analytic inputs are fixed; Monte Carlo seeds derive
from the workload seed, and every pass repeats the same seeded calls.

The package is reached through module attributes at call time
(``convergence.find_threshold``, not a name bound at import), so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

# Headline two-way thresholds (paper): five B rounds on six-state, five B
# plus six P rounds on the BB84 worst case, and B,P,... alternation.
PAPER_THRESHOLDS = (
    ("BBBBB", "sixstate", 1e-4),
    ("BBBBBPPPPPP", "bb84_worst", 1e-4),
    ("alt:200", "sixstate", 1e-4),
    ("alt:200", "bb84_worst", 1e-4),
    ("BBBBBPPPPPP", "bb84_worst", 1e-6),
)
RATE_SCHEMES = ("shor_preskill", "inamori_bb84", "inamori_sixstate")
RATE_TOL = 1e-6  # rate_threshold's default tolerance
CURVES = (
    ("BBBBB", "sixstate"),
    ("BBBBBPPPPPP", "bb84_worst"),
    ("alt:200", "sixstate"),
)
CURVE_POINTS = 300
CURVE_TOL = 1e-4  # points this close to the oracle threshold are not checked

OPTIMIZE = (("sixstate", 13), ("bb84_worst", 13))
HEADLINE = {"sixstate": "BBBBB", "bb84_worst": "BBBBBPPPPPP"}
OPT_TOL = 1e-4  # optimize_sequence's default tolerance

MC_N = 10**6
ATTACKS = ("bb84", "sixstate")
SIMULATIONS = (
    ("BBBBBPPPPPP", "bb84_worst", 0.15),
    ("BBBBB", "sixstate", 0.20),
)

# Strings whose oracle threshold is cached: headline strings, the
# optimizer's winners at this commit, and the cold CLI commands' answers.
THRESHOLD_STRINGS = (
    ("BBBBB", "sixstate"),
    ("BBBBBPPPPPP", "bb84_worst"),
    ("BBBBBB", "sixstate"),
    ("BBBPBBBPPPPPP", "bb84_worst"),
    ("BBBB", "sixstate"),
)

# Operations that fail their check at every run, from faults in the
# package (see CHANGES.md).  Any other failure makes the run incorrect.
KNOWN_FAILURES = frozenset({
    "threshold bb84_worst BBBBBPPPPPP tol=1e-06",
    "optimize bb84_worst max_len=13",
})

# Cold CLI command timed as setup_s, one per workload.
CLI_COMMANDS = {
    "paper": ["threshold", "--family", "sixstate", "--sequence", "BBBBB"],
    "optimize": ["optimize", "--family", "sixstate", "--max-len", "4"],
    "montecarlo": ["attack", "--protocol", "bb84", "--n", "1000"],
}

def cli_argv(workload: str, seed: int) -> list[str]:
    argv = list(CLI_COMMANDS[workload])
    if workload == "montecarlo":
        argv += ["--seed", str(seed)]
    return argv


# Fixed tail percentile per workload: the highest whole percentile with at
# least ten operations beyond it at the workload's minimum operation count.
TAIL_PERCENTILE = {"paper": 98, "optimize": 75, "montecarlo": 95}


def min_ops(workload: str) -> int:
    """Operations a run must reach so that ten lie beyond the tail."""
    return round(10 / (1 - TAIL_PERCENTILE[workload] / 100))


def curve_grid() -> list[float]:
    return [0.3 * i / CURVE_POINTS for i in range(1, CURVE_POINTS + 1)]


def mc_seed(seed: int, index: int) -> int:
    """Seed of the index-th Monte Carlo call of a run."""
    return 1000 * seed + index


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the output is right


def _threshold(seq, family, tol):
    from twoway_qkd import convergence

    return convergence.find_threshold(seq, family, tol=tol).threshold_p


def _rate_threshold(scheme):
    from twoway_qkd import keyrates

    return keyrates.rate_threshold(getattr(keyrates, f"{scheme}_rate"))


def _attack(protocol, seed):
    from twoway_qkd import montecarlo

    return montecarlo.intercept_resend(protocol, MC_N, seed)


def _simulate(channel, seq, seed):
    from twoway_qkd import montecarlo

    return montecarlo.simulate_protocol2_bits(channel, seq, MC_N, seed)


def _curve(seq, family, grid):
    from twoway_qkd import convergence, keyrates

    out = []
    for p in grid:
        t = convergence.evolve(seq, convergence.channel_for_family(family, p))
        out.append(keyrates.two_way_net_rate(t).rate if t.converged else None)
    return out


def _optimize(family, max_len):
    from twoway_qkd import convergence

    seq, res = convergence.optimize_sequence(family, max_len)
    return str(seq), res.threshold_p


def paper(oracle, seed: int) -> list[Op]:
    from twoway_qkd import convergence

    ops = []
    for text, family, tol in PAPER_THRESHOLDS:
        ops.append(Op(
            f"threshold {family} {text} tol={tol:g}",
            partial(_threshold, convergence.parse_sequence(text), family, tol),
            partial(checks.threshold, expected=oracle.threshold(text, family), tol=tol),
        ))
    for scheme in RATE_SCHEMES:
        ops.append(Op(
            f"rate_threshold {scheme}",
            partial(_rate_threshold, scheme),
            partial(checks.threshold, expected=oracle.one_way_root(scheme), tol=RATE_TOL),
        ))
    grid = curve_grid()
    for text, family in CURVES:
        ops.append(Op(
            f"curve {family} {text}",
            partial(_curve, convergence.parse_sequence(text), family, grid),
            partial(checks.curve, grid=grid, expected=oracle.curve(text, family),
                    threshold=oracle.threshold(text, family), tol=CURVE_TOL),
        ))
    return ops


def optimize(oracle, seed: int) -> list[Op]:
    return [
        Op(
            f"optimize {family} max_len={max_len}",
            partial(_optimize, family, max_len),
            partial(_check_optimize, oracle, family, max_len),
        )
        for family, max_len in OPTIMIZE
    ]


def _check_optimize(oracle, family, max_len, result):
    winner, value = result
    headline = HEADLINE[family]
    floor = oracle.threshold(headline, family) if len(headline) <= max_len else None
    return checks.optimizer(winner, value, oracle.threshold(winner, family), floor, OPT_TOL)


def montecarlo(oracle, seed: int) -> list[Op]:
    from twoway_qkd import convergence

    ops = []
    for i, protocol in enumerate(ATTACKS):
        ops.append(Op(
            f"intercept_resend {protocol}",
            partial(_attack, protocol, mc_seed(seed, i)),
            partial(checks.attack, protocol=protocol),
        ))
    for i, (text, family, p) in enumerate(SIMULATIONS, start=len(ATTACKS)):
        ch = convergence.channel_for_family(family, p)
        ops.append(Op(
            f"simulate {family} {text} p={p}",
            partial(_simulate, ch, convergence.parse_sequence(text), mc_seed(seed, i)),
            partial(checks.simulation, expected=oracle.round_bit_rates(text, family, p)),
        ))
    return ops


WORKLOADS = {"paper": paper, "optimize": optimize, "montecarlo": montecarlo}


def check_cli(workload: str, oracle, payload: dict) -> "str | None":
    """Check the JSON report of the workload's cold CLI command."""
    if workload == "paper":
        return checks.threshold(payload["threshold"], oracle.threshold("BBBBB", "sixstate"),
                                tol=payload["tolerance"])
    if workload == "optimize":
        winner = payload["best_sequence"]
        return checks.optimizer(winner, payload["threshold"],
                                oracle.threshold(winner, "sixstate"), None, payload["tolerance"])
    return checks.attack_counts(payload["protocol"], payload["n"], payload["sifted"],
                                payload["errors"])
