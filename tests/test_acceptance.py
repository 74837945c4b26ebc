"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from conftest import one_round, random_channels, worst_case_flags
from oracles import DeltaCoords, b_step_delta, enumerate_step_exact, p_step_delta, to_delta
from sampled_oracles import estimate_rates, flag_round, sample_flags
from twoway_qkd import (
    PauliChannelParams,
    StepKind,
    StepSequence,
    evolve,
    find_threshold,
    inamori_bb84_rate,
    inamori_sixstate_rate,
    intercept_resend,
    rate_threshold,
    shor_preskill_rate,
)
from twoway_qkd.steps import _RATE_FUNCS

# Strict inequalities of the worst-case argument are checked with this
# absolute floor: once an error rate reaches the 1/2 fixed point, doubles
# quantize (1 - 2 pz) to 0 while delta keeps a tiny positive residue.
ROUNDOFF_FLOOR = -1e-12


def _report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS: {detail}")


def test_criterion_01_sixstate_two_way_threshold():
    start = time.perf_counter()
    result = find_threshold(StepSequence.fixed("BBBBB"), "sixstate", tol=1e-4)
    elapsed = time.perf_counter() - start
    assert 0.2635 <= result.threshold_p <= 0.270
    assert elapsed < 1.0
    _report("criterion 1", f"five-B six-state threshold {result.threshold_p:.6f} in {elapsed:.3f}s")


def test_criterion_02_bb84_two_way_threshold():
    start = time.perf_counter()
    result = find_threshold(StepSequence.fixed("BBBBBPPPPPP"), "bb84_worst", tol=1e-4)
    elapsed = time.perf_counter() - start
    assert 0.1885 <= result.threshold_p <= 0.195
    assert elapsed < 1.0
    _report("criterion 2", f"5B+6P BB84 threshold {result.threshold_p:.6f} in {elapsed:.3f}s")


def test_criterion_03_alternating_policy_thresholds():
    six = find_threshold(StepSequence.alternating(200), "sixstate", tol=1e-4)
    bb84 = find_threshold(StepSequence.alternating(200), "bb84_worst", tol=1e-4)
    assert six.threshold_p >= 0.2355
    assert bb84.threshold_p >= 0.1785
    _report(
        "criterion 3",
        f"alternating thresholds six-state {six.threshold_p:.6f}, BB84 {bb84.threshold_p:.6f}",
    )


def test_criterion_04_shor_preskill_threshold():
    root = rate_threshold(shor_preskill_rate)
    assert abs(root - 0.1100) <= 0.0005
    _report("criterion 4", f"1 - 2h(p) root at {root:.6f}")


def test_criterion_05_inamori_thresholds():
    six = rate_threshold(inamori_sixstate_rate)
    bb84 = rate_threshold(inamori_bb84_rate)
    shor = rate_threshold(shor_preskill_rate)
    assert abs(six - 0.126) <= 0.001
    assert bb84 < shor
    _report("criterion 5", f"six-state root {six:.6f}; BB84 root {bb84:.6f} < {shor:.6f}")


def test_criterion_06_intercept_resend_baselines():
    start = time.perf_counter()
    bb84 = intercept_resend("bb84", 1_000_000, seed=0)
    t_bb84 = time.perf_counter() - start
    start = time.perf_counter()
    six = intercept_resend("sixstate", 1_000_000, seed=0)
    t_six = time.perf_counter() - start
    assert abs(bb84.error_rate - 0.25) <= 0.005
    assert abs(six.error_rate - 1.0 / 3.0) <= 0.005
    assert t_bb84 < 5.0 and t_six < 5.0
    _report(
        "criterion 6",
        f"intercept-resend BB84 {bb84.error_rate:.6f} ({t_bb84:.2f}s), "
        f"six-state {six.error_rate:.6f} ({t_six:.2f}s)",
    )


def test_criterion_07_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for c in random_channels(1000, seed=2025):
        for kind in StepKind:
            closed = one_round(kind, c)
            params, survival, yield_factor = enumerate_step_exact(kind, c)
            worst = max(
                worst,
                abs(closed.params.qx - params.qx),
                abs(closed.params.qy - params.qy),
                abs(closed.params.qz - params.qz),
                abs(closed.survival_prob - survival),
                abs(closed.cumulative_yield - yield_factor),
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-15
    assert elapsed < 1.0
    _report("criterion 7", f"closed form vs enumeration, max |diff| {worst:.2e} in {elapsed:.2f}s")


def test_criterion_08_mc_vs_analytic_steps():
    start = time.perf_counter()
    worst_sigmas = 0.0
    for i, c in enumerate(random_channels(20, seed=42, scale=0.9)):
        for kind in (StepKind.B, StepKind.P):
            out = flag_round(sample_flags(c, 1_000_000, seed=1000 + i), kind)
            analytic = _RATE_FUNCS[kind](c.qx, c.qy, c.qz)
            est = estimate_rates(out)
            for q_hat, q_true in zip((est.qx_hat, est.qy_hat, est.qz_hat), analytic):
                sigma = max(math.sqrt(q_true * (1 - q_true) / est.n), 1e-12)
                dev = abs(q_hat - q_true) / sigma
                worst_sigmas = max(worst_sigmas, dev)
                assert dev <= 5.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        "criterion 8",
        f"flag-level B/P on 20 channels at n=1e6, worst {worst_sigmas:.2f} sigma in {elapsed:.1f}s",
    )


def test_criterion_09_worst_case_property_suite():
    sequences = (StepSequence.fixed("BBBBBPPPPPP"), StepSequence.alternating(200))
    checked = 0
    for p in (0.05, 0.10, 0.15, 0.185, 0.20, 0.24):
        for seq in sequences:
            flags = worst_case_flags(seq, p, grid_size=11)
            assert not flags[0] or all(flags)
            checked += 1
    _report("criterion 9", f"a=0 worst-case implication held in all {checked} scans")


def test_criterion_10_delta_claim_suite():
    rng = np.random.default_rng(314159)
    starts = 0
    for p in np.linspace(0.25 / 100, 0.25 * 99 / 100, 50):
        for delta0 in (-p, -0.5 * p, 0.0, 0.5 * p, p):
            starts += 1
            assert 1.0 - 2.0 * p - 2.0 * delta0 > 0.0
            start = DeltaCoords(p, p, delta0).to_channel()
            for _ in range(10):
                kinds = "B" + "".join("B" if rng.random() < 0.5 else "P" for _ in range(49))
                for qx, qy, qz, _ in evolve(StepSequence.fixed(kinds), start).rounds:
                    d = to_delta(PauliChannelParams(qx, qy, qz))
                    assert d.delta >= ROUNDOFF_FLOOR
                    assert 1.0 - 2.0 * d.pz - 2.0 * d.delta > ROUNDOFF_FLOOR
    _report(
        "criterion 10",
        f"delta >= 0 and 1 - 2pz - 2delta > 0 held for {starts} starts x 10 strings x 50 rounds",
    )


def test_criterion_11_commutation_and_roundtrip_invariants():
    worst_comm = 0.0
    worst_rt = 0.0
    for c in random_channels(10_000, seed=77):
        d = to_delta(c)
        back = d.to_channel()
        worst_rt = max(
            worst_rt,
            abs(back.qx - c.qx),
            abs(back.qy - c.qy),
            abs(back.qz - c.qz),
            abs(to_delta(back).pz - d.pz),
            abs(to_delta(back).px - d.px),
            abs(to_delta(back).delta - d.delta),
        )
        for delta_map, kind in ((b_step_delta, StepKind.B), (p_step_delta, StepKind.P)):
            via_delta = delta_map(d)
            via_channel = to_delta(PauliChannelParams(*_RATE_FUNCS[kind](c.qx, c.qy, c.qz)[:3]))
            worst_comm = max(
                worst_comm,
                abs(via_delta.pz - via_channel.pz),
                abs(via_delta.px - via_channel.px),
                abs(via_delta.delta - via_channel.delta),
            )
    assert worst_rt <= 1e-15
    assert worst_comm <= 1e-12
    _report(
        "criterion 11",
        f"round trips max {worst_rt:.2e} (tol 1e-15); commutation max {worst_comm:.2e} (tol 1e-12)",
    )
