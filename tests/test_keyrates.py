"""Entropy utilities, rate formulas, thresholds, and the bounds table."""

import math

import numpy as np
import pytest

from twoway_qkd import (
    KeyRateReport,
    NumericalError,
    PauliChannelParams,
    StepSequence,
    binary_entropy,
    bounds_table,
    css_key_fraction,
    evolve,
    inamori_bb84_rate,
    inamori_sixstate_rate,
    rate_threshold,
    shor_preskill_rate,
    sixstate_channel,
    two_way_net_rate,
)
from twoway_qkd import cli
from twoway_qkd.keyrates import one_minus_binary_entropy


class TestBinaryEntropy:
    def test_endpoints_by_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_value_near_one_way_threshold(self):
        # direct evaluation; 1 - 2 h crosses zero just above p = 0.11
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-15)

    def test_keeps_linear_term_for_tiny_x(self):
        # h(x) = x log2(1/x) + x/ln 2 + O(x^2); 1 - x rounds to 1 here
        x = 1e-20
        expected = x * math.log2(1.0 / x) + x / math.log(2.0)
        assert binary_entropy(x) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_concavity_by_second_differences(self):
        xs = np.linspace(0.01, 0.99, 197)
        h = [binary_entropy(x) for x in xs]
        for i in range(1, len(xs) - 1):
            assert h[i + 1] - 2 * h[i] + h[i - 1] <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            binary_entropy(-0.01)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            binary_entropy(1.01)

    def test_roundoff_excursion_clamped(self):
        assert binary_entropy(-1e-13) == 0.0


class TestOneMinusBinaryEntropy:
    def test_agrees_with_direct_subtraction_in_interior(self):
        rng = np.random.default_rng(5)
        for x in rng.uniform(0.01, 0.99, 5000):
            assert one_minus_binary_entropy(x) == pytest.approx(
                1.0 - binary_entropy(x), abs=1e-15
            )

    def test_resolves_quadratic_behaviour_at_the_peak(self):
        # 1 - h(1/2 - u) ~ 2 u^2 / ln 2; direct subtraction returns noise here
        for u in (1e-6, 1e-8, 1e-10):
            expected = 2.0 * u * u / math.log(2.0)
            assert one_minus_binary_entropy(0.5 - u) == pytest.approx(expected, rel=1e-5)

    def test_exact_zero_at_half(self):
        assert one_minus_binary_entropy(0.5) == 0.0


class TestShorPreskill:
    def test_noiseless_rate_is_one(self):
        assert shor_preskill_rate(0.0).rate == 1.0

    def test_zero_crossing_near_eleven_percent(self):
        assert abs(shor_preskill_rate(0.110).rate) < 1e-3

    def test_value_at_five_percent(self):
        assert shor_preskill_rate(0.05).rate == pytest.approx(0.4272060857680875, abs=1e-15)

    def test_identical_to_symmetric_css_fraction(self):
        for p in np.linspace(0.0, 0.5, 51):
            assert shor_preskill_rate(p).rate == css_key_fraction(p, p)

    def test_components_reproduce_rate(self):
        r = shor_preskill_rate(0.08)
        rebuilt = 1.0 - r.components["error_correction"] - r.components["privacy_amplification"]
        assert r.rate == pytest.approx(rebuilt, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            shor_preskill_rate(0.6)


class TestInamoriRates:
    def test_bb84_noiseless(self):
        assert inamori_bb84_rate(0.0).rate == 1.0

    def test_bb84_sign_bracket(self):
        assert inamori_bb84_rate(0.06).rate > 0.0
        assert inamori_bb84_rate(0.10).rate < 0.0

    def test_bb84_components_reproduce_rate(self):
        r = inamori_bb84_rate(0.07)
        c = r.components
        rebuilt = c["reconciled_fraction"] * (1.0 - c["pa_fraction"]) - c["sacrificed_fraction"]
        assert r.rate == pytest.approx(rebuilt, abs=1e-12)

    def test_sixstate_noiseless(self):
        assert inamori_sixstate_rate(0.0).rate == 1.0

    def test_sixstate_sign_bracket(self):
        assert inamori_sixstate_rate(0.05).rate > 0.0
        assert inamori_sixstate_rate(0.20).rate < 0.0

    def test_rates_strictly_decreasing_below_threshold(self):
        for fn, upper in ((inamori_bb84_rate, 0.147), (inamori_sixstate_rate, 0.176)):
            ps = np.linspace(0.0, upper, 60)
            vals = [fn(p).rate for p in ps]
            for a, b in zip(vals, vals[1:]):
                assert b < a

    def test_sixstate_pa_fraction_never_exceeds_bb84(self):
        # post-selected phase error rate is halved for the six-state scheme
        for p in np.linspace(0.0, 1.0 / 3.0, 50):
            assert (
                inamori_sixstate_rate(p).components["pa_fraction"]
                <= inamori_bb84_rate(p).components["pa_fraction"] + 1e-15
            )

    def test_domains(self):
        with pytest.raises(ValueError):
            inamori_bb84_rate(0.5)
        with pytest.raises(ValueError):
            inamori_sixstate_rate(2.0 / 3.0)


class TestRateThreshold:
    def test_shor_preskill_root(self):
        root = rate_threshold(shor_preskill_rate)
        assert root == pytest.approx(0.1100, abs=0.0005)
        # bisection postcondition at the stated tolerance
        assert shor_preskill_rate(root - 2e-6).rate > 0.0
        assert shor_preskill_rate(root + 2e-6).rate < 0.0

    def test_inamori_sixstate_root(self):
        root = rate_threshold(inamori_sixstate_rate)
        assert root == pytest.approx(0.126, abs=0.001)

    def test_inamori_bb84_root_bracket_and_ordering(self):
        bb84 = rate_threshold(inamori_bb84_rate)
        assert 0.09 < bb84 < 0.10
        assert bb84 < rate_threshold(shor_preskill_rate)
        assert rate_threshold(inamori_sixstate_rate) > bb84

    def test_accepts_plain_float_functions(self):
        # any function of p that returns a report, here with a linear rate
        root = rate_threshold(lambda p: KeyRateReport("linear", p, 0.2 - p))
        assert root == pytest.approx(0.2, abs=1e-5)

    def test_no_sign_change_is_an_error(self):
        with pytest.raises(NumericalError, match="sign change"):
            rate_threshold(lambda p: KeyRateReport("linear", p, 1.0 + p))
        with pytest.raises(NumericalError, match="positive"):
            rate_threshold(lambda p: KeyRateReport("negative", p, -1.0))


class TestTwoWayNetRate:
    def test_noiseless_five_b(self):
        t = evolve(StepSequence.fixed("BBBBB"), PauliChannelParams(0, 0, 0))
        r = two_way_net_rate(t)
        assert r.rate == 0.03125
        assert r.components["cumulative_yield"] == 0.03125
        assert r.components["css_rate"] == 1.0

    def test_noiseless_five_b_six_p(self):
        t = evolve(StepSequence.fixed("BBBBBPPPPPP"), PauliChannelParams(0, 0, 0))
        assert two_way_net_rate(t).rate == pytest.approx((0.5**5) * (1 / 3) ** 6, rel=1e-12)

    def test_noisy_rate_positive_but_below_yield(self):
        t = evolve(StepSequence.fixed("BBBBB"), sixstate_channel(0.20))
        r = two_way_net_rate(t)
        assert 0.0 < r.rate < 0.03125

    @pytest.mark.parametrize(
        "seq, note",
        [
            (StepSequence.fixed("BBBBB"), "diverged: CSS stage not viable"),
            (StepSequence.alternating(200), "diverged: no CSS viability within 200 rounds"),
        ],
        ids=["BBBBB", "alt:200"],
    )
    def test_diverged_trajectory_is_reported(self, seq, note):
        t = evolve(seq, sixstate_channel(0.30))
        assert not t.converged
        r = two_way_net_rate(t)
        assert r.rate is None
        assert r.components == {}
        assert r.p == t.initial.pz == 0.30
        assert r.note == note


class TestBoundsTable:
    def test_reference_constants(self):
        assert bounds_table() == {
            "bb84": {
                "one_way": {"upper": 0.146, "lower": 0.110},
                "two_way": {"upper": 0.25, "lower": 0.189},
            },
            "sixstate": {
                "one_way": {"upper": 1.0 / 6.0, "lower": 0.127},
                "two_way": {"upper": 1.0 / 3.0, "lower": 0.264},
            },
        }

    def test_two_way_bounds_dominate_one_way(self):
        b = bounds_table()
        for pb in (b["bb84"], b["sixstate"]):
            assert pb["two_way"]["upper"] > pb["one_way"]["upper"]
            assert pb["two_way"]["lower"] > pb["one_way"]["lower"]

    def test_table_is_a_new_dict_on_each_call(self):
        b = bounds_table()
        b["bb84"]["two_way"]["upper"] = 0.0
        assert bounds_table()["bb84"]["two_way"]["upper"] == 0.25

    def test_text_rendering_mentions_both_schemes(self, capsys):
        assert cli.run(["bounds", "--format", "table"]) == 0
        text = capsys.readouterr().out
        assert "BB84" in text
        assert "Six-state" in text
        assert "0.2640" in text
