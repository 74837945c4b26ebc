"""Distillation-step maps against the enumeration, delta-coordinate and bias oracles."""

import math
from itertools import permutations

import numpy as np
import pytest

from conftest import one_round, random_channels
from oracles import (
    BIAS_MAPS,
    MAX_CLAMPED_MAPS,
    DeltaCoords,
    b_step_delta,
    biases,
    enumerate_step_exact,
    p_step_delta,
    rates_in_delta,
    to_delta,
    xz_mirror,
)
from twoway_qkd import PauliChannelParams, StepKind, bb84_family
from twoway_qkd.steps import _RATE_FUNCS


def rates(kind, c):
    """The package's map for ``kind`` applied to ``c``: (qx', qy', qz', ps)."""
    return _RATE_FUNCS[kind](c.qx, c.qy, c.qz)


class TestBStep:
    def test_noiseless_fixed_point(self):
        out = one_round(StepKind.B, PauliChannelParams(0, 0, 0))
        assert out.params == PauliChannelParams(0, 0, 0)
        assert out.survival_prob == 1.0
        assert out.cumulative_yield == 0.5

    def test_no_y_example(self):
        # 16-configuration enumeration: qx' = 0.01/0.82, qz' = 0.16/0.82
        out = one_round(StepKind.B, PauliChannelParams(0.10, 0.0, 0.10))
        assert out.params.qx == pytest.approx(0.01 / 0.82, abs=1e-15)
        assert out.params.qy == 0.0
        assert out.params.qz == pytest.approx(0.16 / 0.82, abs=1e-15)
        assert out.survival_prob == pytest.approx(0.82, abs=1e-15)
        assert out.cumulative_yield == pytest.approx(0.41, abs=1e-15)

    def test_half_bit_rate_is_fixed_point(self):
        out = one_round(StepKind.B, PauliChannelParams(0.5, 0.0, 0.0))
        assert out.params.qx == pytest.approx(0.5, abs=1e-15)
        assert out.survival_prob == pytest.approx(0.5, abs=1e-15)


class TestPStep:
    def test_noiseless_fixed_point(self):
        out = one_round(StepKind.P, PauliChannelParams(0, 0, 0))
        assert out.params == PauliChannelParams(0, 0, 0)
        assert out.survival_prob == 1.0
        assert out.cumulative_yield == pytest.approx(1 / 3, abs=0)

    def test_pure_phase_suppression(self):
        # majority vote: z' = 3 z^2 (1 - z) + z^3 = 0.028 at z = 0.1
        qx, qy, qz, _ = rates(StepKind.P, PauliChannelParams(0.0, 0.0, 0.1))
        assert qx == 0.0
        assert qy == 0.0
        assert qz == pytest.approx(0.028, abs=1e-15)

    def test_bit_errors_grow_threefold(self):
        # parity of three: x' = 3 qi^2 qx + qx^3 = 0.244 at qx = 0.1
        qx, qy, qz, _ = rates(StepKind.P, PauliChannelParams(0.1, 0.0, 0.0))
        assert qx == pytest.approx(0.244, abs=1e-15)
        assert qy == 0.0
        assert qz == 0.0


class TestBxStep:
    def test_noiseless_fixed_point(self):
        out = one_round(StepKind.BX, PauliChannelParams(0, 0, 0))
        assert out.params == PauliChannelParams(0, 0, 0)

    def test_mirror_of_b_step_example(self):
        qx, _, qz, _ = rates(StepKind.BX, PauliChannelParams(0.10, 0.0, 0.10))
        assert qz == pytest.approx(0.01 / 0.82, abs=1e-15)
        assert qx == pytest.approx(0.16 / 0.82, abs=1e-15)

    def test_conjugation_identity(self):
        # bx = swap_xz . b . swap_xz, bit for bit, round-off and -0.0 inputs included
        mirrored_b = xz_mirror(_RATE_FUNCS[StepKind.B])
        for q in [(c.qx, c.qy, c.qz) for c in random_channels(3000, seed=33)] + _roundoff_inputs():
            assert repr(_RATE_FUNCS[StepKind.BX](*q)) == repr(mirrored_b(*q)), q


class TestDeltaMaps:
    def test_b_identity(self):
        d = b_step_delta(DeltaCoords(0, 0, 0))
        assert (d.pz, d.px, d.delta) == (0.0, 0.0, 0.0)

    def test_b_half_pz_fixed_point(self):
        d = b_step_delta(DeltaCoords(0.5, 0.1, 0.0))
        assert d.pz == pytest.approx(0.5, abs=1e-15)

    def test_b_matches_qxyz_map_on_family(self):
        d = b_step_delta(to_delta(bb84_family(0.20, 0.0)))
        ref = to_delta(one_round(StepKind.B, bb84_family(0.20, 0.0)).params)
        assert d.pz == pytest.approx(ref.pz, abs=1e-12)
        assert d.px == pytest.approx(ref.px, abs=1e-12)
        assert d.delta == pytest.approx(ref.delta, abs=1e-12)

    def test_p_identity(self):
        d = p_step_delta(DeltaCoords(0, 0, 0))
        assert (d.pz, d.px, d.delta) == (0.0, 0.0, 0.0)

    def test_p_half_px_fixed_point(self):
        d = p_step_delta(DeltaCoords(0.3, 0.5, 0.0))
        assert d.px == pytest.approx(0.5, abs=1e-15)

    def test_coordinate_commutation_sampled(self):
        for c in random_channels(2000, seed=22):
            d = to_delta(c)
            for delta_map, kind in ((b_step_delta, StepKind.B), (p_step_delta, StepKind.P)):
                via_delta = delta_map(d)
                via_channel = to_delta(PauliChannelParams(*rates(kind, c)[:3]))
                assert abs(via_delta.pz - via_channel.pz) <= 1e-12
                assert abs(via_delta.px - via_channel.px) <= 1e-12
                assert abs(via_delta.delta - via_channel.delta) <= 1e-12


class TestBiasRecursion:
    @pytest.mark.parametrize("kind", list(StepKind))
    def test_four_chained_rounds(self, kind):
        for c in random_channels(3000, seed=11):
            q = (c.qx, c.qy, c.qz)
            lam = biases(*q)
            for _ in range(4):
                q = _RATE_FUNCS[kind](*q)[:3]
                lam = BIAS_MAPS[kind](*lam)
                assert max(abs(a - b) for a, b in zip(lam, biases(*q))) <= 1e-14, (kind, c)


class TestEnumerationOracle:
    def test_identity_channel(self):
        for kind in StepKind:
            params, survival, _ = enumerate_step_exact(kind, PauliChannelParams(0, 0, 0))
            assert params == PauliChannelParams(0, 0, 0)
            assert survival == 1.0

    def test_b_step_equality_on_example(self):
        c = PauliChannelParams(0.10, 0.0, 0.10)
        qx, _, qz, ps = rates(StepKind.B, c)
        params, survival, _ = enumerate_step_exact(StepKind.B, c)
        assert abs(qx - params.qx) <= 1e-15
        assert abs(qz - params.qz) <= 1e-15
        assert abs(ps - survival) <= 1e-15

    def test_p_step_polynomials_reproduced(self):
        # term-by-term friendly input: only the 3 qi^2 qx and qx^3 terms fire
        c = PauliChannelParams(0.1, 0.0, 0.0)
        params, _, _ = enumerate_step_exact(StepKind.P, c)
        assert params.qx == pytest.approx(3 * 0.9**2 * 0.1 + 0.1**3, abs=1e-15)
        assert params.qy == 0.0
        assert params.qz == 0.0

    def test_equality_all_kinds_sampled(self):
        for c in random_channels(1000, seed=23):
            for kind in StepKind:
                a = one_round(kind, c)
                params, survival, yield_factor = enumerate_step_exact(kind, c)
                assert abs(a.params.qx - params.qx) <= 1e-15
                assert abs(a.params.qy - params.qy) <= 1e-15
                assert abs(a.params.qz - params.qz) <= 1e-15
                assert abs(a.survival_prob - survival) <= 1e-15
                assert abs(a.cumulative_yield - yield_factor) <= 1e-15


# Every channel with rates in multiples of 1/2: the simplex edges where pz
# and px each take the values 0, 1/2 and 1.
EDGE_CHANNELS = [
    PauliChannelParams(qx, qy, qz)
    for qx in (0.0, 0.5, 1.0) for qy in (0.0, 0.5, 1.0) for qz in (0.0, 0.5, 1.0)
    if qx + qy + qz <= 1.0
]


class TestSimplexPreservation:
    def test_outputs_stay_valid_on_sampled_inputs(self):
        # PauliChannelParams construction re-validates the invariants; a B
        # (Bx) round keeps ps = pz^2 + (1 - pz)^2 >= 1/2 (px for Bx) of its pairs
        for c in random_channels(10_000, seed=24) + EDGE_CHANNELS:
            for kind in StepKind:
                out = one_round(kind, c)
                total = out.params.qx + out.params.qy + out.params.qz
                assert total <= 1.0 + 1e-12
                assert 0.5 <= out.survival_prob <= 1.0
                assert 0.0 < out.cumulative_yield <= 0.5


class TestYieldBounds:
    def test_b_yield_at_most_half(self):
        for c in random_channels(500, seed=25):
            assert one_round(StepKind.B, c).cumulative_yield <= 0.5
            assert one_round(StepKind.BX, c).cumulative_yield <= 0.5

    def test_p_yield_is_exactly_one_third(self):
        for c in random_channels(100, seed=26):
            assert one_round(StepKind.P, c).cumulative_yield == 1.0 / 3.0


class TestMonotonicity:
    """Finite-difference check: delta' and px' non-decreasing in delta and px

    in the regime pz, px < 1/2, delta >= 0, 1 - 2 pz - 2 delta > 0, for the
    package's maps read in (pz, px, delta) coordinates.
    """

    @staticmethod
    def _sample_points(n, seed):
        rng = np.random.default_rng(seed)
        points = []
        while len(points) < n:
            pz = rng.uniform(0.0, 0.49)
            px = rng.uniform(0.0, 0.49)
            hi = min(px, (1.0 - 2.0 * pz) / 2.0 - 1e-6)
            if hi <= 0:
                continue
            delta = rng.uniform(0.0, hi)
            try:
                DeltaCoords(pz, px, delta)
            except ValueError:
                continue
            points.append((pz, px, delta))
        return points

    def test_b_step_monotone_in_delta_and_px(self):
        eps = 1e-7
        for pz, px, delta in self._sample_points(400, seed=27):
            _, px1, d1 = rates_in_delta(StepKind.B, pz, px, delta)
            if delta + eps <= min(px, (1.0 - 2.0 * pz) / 2.0):
                _, px2, d2 = rates_in_delta(StepKind.B, pz, px, delta + eps)
                assert d2 >= d1 - 1e-12
                assert px2 >= px1 - 1e-12
            if px + eps < 0.5 and delta <= px:
                _, px3, d3 = rates_in_delta(StepKind.B, pz, px + eps, delta)
                assert d3 >= d1 - 1e-12
                assert px3 >= px1 - 1e-12

    def test_p_step_monotone_in_delta_and_px(self):
        eps = 1e-7
        for pz, px, delta in self._sample_points(400, seed=28):
            _, px1, d1 = rates_in_delta(StepKind.P, pz, px, delta)
            if delta + eps <= min(px, (1.0 - 2.0 * pz) / 2.0):
                _, px2, d2 = rates_in_delta(StepKind.P, pz, px, delta + eps)
                assert d2 >= d1 - 1e-12
                assert px2 >= px1 - 1e-12
            if px + eps < 0.5 and delta <= px:
                _, px3, d3 = rates_in_delta(StepKind.P, pz, px + eps, delta)
                assert d3 >= d1 - 1e-12
                assert px3 >= px1 - 1e-12


class TestWorstCaseClaim:
    """Scan form of the a = 0 worst-case argument's two inequalities."""

    def test_delta_nonnegative_after_first_b_and_preserved(self):
        rng = np.random.default_rng(29)
        for p in np.linspace(0.01, 0.24, 12):
            for delta0 in (-p, -0.5 * p, 0.0, 0.5 * p, p):
                pz, px, delta = rates_in_delta(StepKind.B, p, p, delta0)
                assert delta >= -1e-12
                for _ in range(30):
                    kind = StepKind.B if rng.random() < 0.5 else StepKind.P
                    pz, px, delta = rates_in_delta(kind, pz, px, delta)
                    assert delta >= -1e-12

    def test_margin_condition_preserved_from_family_starts(self):
        rng = np.random.default_rng(30)
        for p in np.linspace(0.01, 0.24, 12):
            for delta0 in (-p, 0.0, p):
                pz, px, delta = p, p, delta0
                assert 1.0 - 2.0 * pz - 2.0 * delta > 0.0
                pz, px, delta = rates_in_delta(StepKind.B, pz, px, delta)
                for _ in range(30):
                    assert 1.0 - 2.0 * pz - 2.0 * delta > -1e-12
                    kind = StepKind.B if rng.random() < 0.5 else StepKind.P
                    pz, px, delta = rates_in_delta(kind, pz, px, delta)


def _roundoff_inputs() -> list[tuple[float, float, float]]:
    """Rates whose qi = 1 - qx - qy - qz is below zero by round-off, and -0.0 inputs.

    Each triple comes in every order, so each map's qi terms meet a
    positive partner; (1e-9, 1e-30, ...) makes P's qx term negative.
    """
    bases = [(c.qx, c.qy) for c in random_channels(60, seed=32)] + [(1e-9, 1e-30), (0.25, 0.0)]
    triples = []
    for qx, qy in bases:
        qz = 1.0 - qx - qy
        for _ in range(3):
            qz = math.nextafter(qz, 2.0)
            triples.append((qx, qy, qz))
    triples += [(-0.0, 0.1, 0.2), (-0.0, -0.0, 0.3), (-0.0, -0.0, -0.0), (-0.0, 0.5, 0.5)]
    return sorted({t for triple in triples for t in permutations(triple)})


def _extreme_inputs() -> list[tuple[float, float, float]]:
    """Rates at 1e-300, 1e-160 and the least subnormal, and rates whose qi is within one ulp of 0.

    Products of such rates underflow, or lose bits as subnormals, so each
    product's rounding order shows in the output.  Each triple comes in every order.
    """
    tiny = [5e-324, 1e-300, 1e-160]
    rates = [0.0, *tiny, 0.1, 0.3, 0.5]
    triples = [(a, b, c) for a in rates for b in rates for c in rates if a + b + c <= 1.0]
    # qz at 1 - qx - qy and one ulp either side, so qi = 1 - qx - qy - qz is 0 or one ulp off it
    for qx in [*tiny, 0.1, 0.5]:
        for qy in [*tiny, 0.3, 0.5]:
            qz = 1.0 - qx - qy
            triples += [(qx, qy, math.nextafter(qz, -1.0)), (qx, qy, qz), (qx, qy, math.nextafter(qz, 2.0))]
    return sorted({t for triple in triples for t in permutations(triple)})


class TestBranchClamps:
    """The maps' branch clamps return exactly what ``max(0.0, ...)`` did."""

    GRID = [(i / 8, j / 8, k / 8) for i in range(9) for j in range(9 - i) for k in range(9 - i - j)]

    @staticmethod
    def assert_same(points):
        for kind, reference in MAX_CLAMPED_MAPS.items():
            for q in points:
                assert repr(_RATE_FUNCS[kind](*q)) == repr(reference(*q)), (kind, q)

    def test_eighths_grid(self):
        self.assert_same(self.GRID)

    def test_dirichlet_samples(self):
        self.assert_same([(c.qx, c.qy, c.qz) for c in random_channels(3000, seed=33)])

    def test_roundoff_inputs(self):
        self.assert_same(_roundoff_inputs())

    def test_extreme_inputs(self):
        self.assert_same(_extreme_inputs())

    def test_roundoff_inputs_fire_every_clamp(self):
        # all inputs positive and an output of 0.0: only a clamp produces that
        for kind, step in _RATE_FUNCS.items():
            fired = [
                q for q in _roundoff_inputs()
                if min(q) > 0.0 and 1.0 - sum(q) < 0.0 and 0.0 in step(*q)[:3]
            ]
            assert fired, kind
