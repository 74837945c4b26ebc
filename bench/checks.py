"""Correctness checks: each returns None when an output is right, else why not.

Analytic outputs are compared with the high-precision oracle; Monte Carlo
outputs with the statistical property the method must have.
"""

from __future__ import annotations

import math

Z = 5.0
# One-sided probability beyond Z standard deviations of a normal variable.
TAIL = 0.5 * math.erfc(Z / math.sqrt(2.0))
# Below this variance a binomial count is checked by its exact tails.
NORMAL_MIN_VARIANCE = 100.0

# Net key rates against the oracle: a relative tolerance, plus the absolute
# round-off of a double-precision CSS fraction scaled by the yield.
RATE_RTOL = 1e-9
CSS_ATOL = 1e-15

# Intercept-resend: (sift fraction, sifted error rate) an attack must give.
ATTACK_RATES = {"bb84": (1 / 2, 1 / 4), "sixstate": (1 / 3, 1 / 3)}


def threshold(value, expected, tol):
    """A threshold must lie within its requested tolerance of the oracle's."""
    if not isinstance(value, float) or not abs(value - expected) <= tol:
        return f"{value!r} lies {value - expected:+.3g} from the oracle's {expected!r} (tol {tol:g})"
    return None


def optimizer(winner, value, winner_expected, floor, tol):
    """The winner's threshold must match the oracle's for that string, and
    beat the oracle's headline threshold (``floor``) less ``tol``."""
    err = threshold(value, winner_expected, tol)
    if err:
        return f"winner {winner}: {err}"
    if floor is not None and value < floor - tol:
        return f"winner {winner} at {value!r} is below the headline threshold {floor!r}"
    return None


def curve(points, grid, expected, threshold, tol):
    """Each point's verdict and net rate must match the oracle's, except
    within ``tol`` of the oracle threshold."""
    if len(points) != len(grid):
        return f"{len(points)} points for a grid of {len(grid)}"
    bad = []
    for p, got, (ok, rate, cum_yield) in zip(grid, points, expected):
        if abs(p - threshold) <= tol:
            continue
        if (got is not None) != ok:
            bad.append(f"p={p:g}: converged={got is not None}, oracle {ok}")
        elif ok and not abs(got - rate) <= RATE_RTOL * abs(rate) + CSS_ATOL * cum_yield:
            bad.append(f"p={p:g}: rate {got!r}, oracle {rate!r}")
    if bad:
        return f"{len(bad)} bad points, first: {bad[0]}"
    return None


def _log_pmf(j, n, p):
    if p <= 0.0:
        return 0.0 if j == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if j == n else -math.inf
    return (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p))


def _tail(start, step, n, p):
    """Binomial probability of counts from ``start`` outward by ``step``;
    stops once the terms fall away from the mode and no longer matter."""
    total, j, mode = 0.0, start, (n + 1) * p
    while 0 <= j <= n:
        term = math.exp(_log_pmf(j, n, p))
        total += term
        if term <= 1e-18 * total and (j - mode) * step > 0:
            break
        j += step
    return total


def binomial(k, n, p):
    """Is a count of k in n trials within Z sigma of rate p?

    With variance of at least NORMAL_MIN_VARIANCE this is |k - np| <= Z
    sigma; below it, where the normal tail misstates rare counts, both exact
    binomial tails at k must hold at least TAIL.
    """
    var = n * p * (1.0 - p)
    if var >= NORMAL_MIN_VARIANCE:
        return abs(k - n * p) <= Z * math.sqrt(var)
    if k > n * p + 10 * Z * math.sqrt(var) + 100:
        return False
    return _tail(k, -1, n, p) >= TAIL and _tail(k, 1, n, p) >= TAIL


def attack_counts(protocol, n, sifted, errors):
    sift, rate = ATTACK_RATES[protocol]
    if not binomial(sifted, n, sift):
        return f"{protocol}: sift fraction {sifted / n!r} not within {Z:g} sigma of {sift:.6g}"
    if not binomial(errors, sifted, rate):
        return (f"{protocol}: error rate {errors / sifted!r} not within {Z:g} sigma of "
                f"{rate:.6g}")
    return None


def attack(report, protocol):
    """Intercept-resend must give sift fraction 1/2 (1/3) and sifted error
    rate 1/4 (1/3) for BB84 (six-state), each within Z sigma."""
    if report.protocol != protocol:
        return f"report is for {report.protocol}, expected {protocol}"
    return attack_counts(protocol, report.n, report.sifted, report.errors)


def simulation(report, expected):
    """Each round's disagreement rate must lie within Z sigma of the oracle's
    bit error rate after that round."""
    if len(report.rounds) != len(expected):
        return f"{len(report.rounds)} rounds reported, {len(expected)} expected"
    for r, rate in zip(report.rounds, expected):
        if not binomial(r.disagreements, r.n_kept, rate):
            return (f"round {r.index} ({r.kind.value}): {r.disagreements}/{r.n_kept} "
                    f"disagree, oracle rate {rate:.6g}")
    return None
