"""Self-tests of the benchmark's oracle and checkers.

Each checker must accept the oracle's own values and reject a deliberately
perturbed answer.  Run from the repository root::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import math
from decimal import Decimal
from types import SimpleNamespace

import pytest

import checks
import oracle
import workloads

ORACLE = oracle.Oracle.load()


def test_round_tables_conserve_probability():
    q = (Decimal("0.7"), Decimal("0.1"), Decimal("0.05"), Decimal("0.15"))
    with oracle._context():
        for kind in "BP":
            after, kept, _ = oracle.apply_round(kind, q)
            assert abs(sum(after) - 1) < Decimal("1e-90")
        # P discards nothing; B keeps the blocks whose bit flags agree.
        assert oracle.apply_round("P", q)[1] == 1
        assert oracle.apply_round("B", q)[1] == (q[0] + q[3]) ** 2 + (q[1] + q[2]) ** 2


def test_cache_matches_fresh_values():
    assert ORACLE.threshold("BBBBB", "sixstate") == float(oracle.threshold("BBBBB", "sixstate"))
    assert ORACLE.one_way_root("shor_preskill") == float(oracle.one_way_root("shor_preskill"))
    seq, family, p = workloads.SIMULATIONS[1]
    fresh = [float(b) for b in oracle.trajectory(seq, family, p).bit_rates]
    assert ORACLE.round_bit_rates(seq, family, p) == fresh


def test_threshold_independent_of_precision(monkeypatch):
    monkeypatch.setattr(oracle, "DIGITS", 60)
    assert abs(float(oracle.threshold("BBBBBPPPPPP", "bb84_worst"))
               - ORACLE.threshold("BBBBBPPPPPP", "bb84_worst")) < 1e-12


@pytest.mark.parametrize("seq,family", [("BBBBB", "sixstate"), ("alt:200", "bb84_worst")])
def test_threshold_check(seq, family):
    value = ORACLE.threshold(seq, family)
    assert checks.threshold(value, value, 1e-4) is None
    assert checks.threshold(value + 0.99e-4, value, 1e-4) is None
    assert checks.threshold(value + 1.01e-4, value, 1e-4) is not None
    assert checks.threshold(math.nan, value, 1e-4) is not None


def test_optimizer_check():
    floor = ORACLE.threshold("BBBBB", "sixstate")
    winner = ORACLE.threshold("BBBBBB", "sixstate")
    assert checks.optimizer("BBBBBB", winner, winner, floor, 1e-4) is None
    assert checks.optimizer("BBBBBB", winner + 2e-4, winner, floor, 1e-4) is not None
    low = ORACLE.threshold("BBBB", "sixstate")
    assert checks.optimizer("BBBB", low, low, floor, 1e-4) is not None
    assert checks.optimizer("BBBB", low, low, None, 1e-4) is None


def _oracle_points(expected):
    return [rate if ok else None for ok, rate, _ in expected]


@pytest.mark.parametrize("seq,family", workloads.CURVES)
def test_curve_check(seq, family):
    grid = workloads.curve_grid()
    expected = ORACLE.curve(seq, family)
    thr = ORACLE.threshold(seq, family)
    points = _oracle_points(expected)
    assert checks.curve(points, grid, expected, thr, workloads.CURVE_TOL) is None
    i = next(i for i, p in enumerate(grid) if p < thr - 0.02)
    perturbed = list(points)
    perturbed[i] *= 1 + 1e-6
    assert checks.curve(perturbed, grid, expected, thr, workloads.CURVE_TOL) is not None
    flipped = list(points)
    j = next(j for j, p in enumerate(grid) if p > thr + 0.01)
    flipped[j] = 1e-20
    assert checks.curve(flipped, grid, expected, thr, workloads.CURVE_TOL) is not None
    assert checks.curve(points[:-1], grid, expected, thr, workloads.CURVE_TOL) is not None


def test_binomial_check():
    n, p = 10**6, 0.25
    sigma = math.sqrt(n * p * (1 - p))
    assert checks.binomial(round(n * p), n, p)
    assert checks.binomial(round(n * p + 4.9 * sigma), n, p)
    assert not checks.binomial(round(n * p + 5.1 * sigma), n, p)
    # Rare counts: exact tails.  Mean 1.14: 5 events are plausible, 15 not.
    assert checks.binomial(5, 75_000, 1.52e-5)
    assert not checks.binomial(15, 75_000, 1.52e-5)
    assert checks.binomial(0, 29, 5.7e-22)
    assert not checks.binomial(1, 29, 5.7e-22)


@pytest.mark.parametrize("protocol", workloads.ATTACKS)
def test_attack_check(protocol):
    sift, rate = checks.ATTACK_RATES[protocol]
    n = workloads.MC_N
    sifted = round(n * sift)
    errors = round(sifted * rate)
    report = SimpleNamespace(protocol=protocol, n=n, sifted=sifted, errors=errors)
    assert checks.attack(report, protocol) is None
    off = 6 * math.sqrt(sifted * rate * (1 - rate))
    bad = SimpleNamespace(protocol=protocol, n=n, sifted=sifted, errors=round(errors + off))
    assert checks.attack(bad, protocol) is not None
    skewed = SimpleNamespace(protocol=protocol, n=n, sifted=round(sifted * 1.01), errors=errors)
    assert checks.attack(skewed, protocol) is not None


@pytest.mark.parametrize("seq,family,p", workloads.SIMULATIONS)
def test_simulation_check(seq, family, p):
    rates = ORACLE.round_bit_rates(seq, family, p)
    kept = [workloads.MC_N // 4] * len(rates)
    rounds = [SimpleNamespace(index=i + 1, kind=SimpleNamespace(value=k), n_kept=m,
                              disagreements=round(m * r))
              for i, (k, m, r) in enumerate(zip(seq, kept, rates))]
    assert checks.simulation(SimpleNamespace(rounds=rounds), rates) is None
    first = rounds[0]
    bad = SimpleNamespace(**{**vars(first), "disagreements": round(first.n_kept * rates[0] * 1.1)})
    assert checks.simulation(SimpleNamespace(rounds=[bad, *rounds[1:]]), rates) is not None
    assert checks.simulation(SimpleNamespace(rounds=rounds[:-1]), rates) is not None
