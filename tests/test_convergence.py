"""Sequence evolution, CSS viability, threshold search, and scans."""

import pytest

from conftest import random_channels
from twoway_qkd import (
    PauliChannelParams,
    ProtocolClassError,
    StepKind,
    StepSequence,
    bb84_family,
    css_key_fraction,
    evolve,
    find_threshold,
    optimize_sequence,
    parse_sequence,
    sixstate_channel,
    worst_case_scan,
)
from twoway_qkd.convergence import _converges, _is_monotone, channel_for_family


class TestCssKeyFraction:
    def test_perfect_rates(self):
        assert css_key_fraction(0.0, 0.0) == 1.0

    def test_half_rate_kills_the_code(self):
        assert css_key_fraction(0.5, 0.0) <= 0.0
        assert css_key_fraction(0.5, 0.3) <= 0.0

    def test_symmetric_five_percent(self):
        assert css_key_fraction(0.05, 0.05) == pytest.approx(0.4272060857680875, abs=1e-15)

    def test_symmetric_in_arguments(self):
        assert css_key_fraction(0.03, 0.21) == pytest.approx(
            css_key_fraction(0.21, 0.03), abs=1e-15
        )


class TestSequenceParsing:
    def test_fixed_string(self):
        seq = parse_sequence("BBBBBPPPPPP")
        assert seq.policy == "fixed"
        assert len(seq.steps) == 11
        assert str(seq) == "BBBBBPPPPPP"

    def test_bx_token(self):
        seq = parse_sequence("BBxP")
        assert seq.steps == (StepKind.B, StepKind.BX, StepKind.P)
        assert str(seq) == "BBxP"

    def test_alternating_spec(self):
        seq = parse_sequence("alt:200")
        assert seq.policy == "alternating_until_css"
        assert seq.max_rounds == 200
        assert str(seq) == "alt:200"

    def test_malformed_token_names_offender(self):
        with pytest.raises(ValueError, match="'Q'"):
            parse_sequence("BBQ")

    def test_malformed_alternation_count(self):
        with pytest.raises(ValueError, match="alt:N"):
            parse_sequence("alt:many")

    def test_empty_fixed_sequence_rejected(self):
        with pytest.raises(ValueError):
            parse_sequence("")
        with pytest.raises(ValueError, match="non-empty"):
            StepSequence(steps=(), policy="fixed")

    def test_alternation_kind_schedule(self):
        seq = StepSequence.alternating(4)
        assert [seq.kind_at(i) for i in (1, 2, 3, 4)] == [
            StepKind.B,
            StepKind.P,
            StepKind.B,
            StepKind.P,
        ]


class TestEvolve:
    def test_paper_sixstate_point_converges(self):
        t = evolve(StepSequence.fixed("BBBBB"), sixstate_channel(0.26))
        assert t.converged

    def test_paper_bb84_point_converges(self):
        t = evolve(StepSequence.fixed("BBBBBPPPPPP"), bb84_family(0.188, 0.0))
        assert t.converged

    def test_noiseless_any_sequence(self):
        t = evolve(StepSequence.fixed("BPBP"), PauliChannelParams(0, 0, 0))
        assert t.converged
        assert t.css_rate == 1.0
        assert t.cumulative_yield == pytest.approx((0.5**2) * (1 / 3) ** 2, rel=1e-12)

    def test_full_record_bookkeeping(self):
        t = evolve(StepSequence.fixed("BP"), bb84_family(0.1, 0.0))
        assert [r.step_index for r in t.records] == [1, 2]
        assert [r.kind for r in t.records] == [StepKind.B, StepKind.P]
        # yields: ps/2 for B then 1/3 for P
        b_yield = t.records[0].survival_prob / 2
        assert t.records[0].cumulative_yield == pytest.approx(b_yield, abs=1e-15)
        assert t.records[1].cumulative_yield == pytest.approx(b_yield / 3, abs=1e-15)

    def test_cumulative_yield_strictly_decreasing(self):
        t = evolve(StepSequence.fixed("BBBPP"), sixstate_channel(0.1))
        yields = [r.cumulative_yield for r in t.records]
        assert all(b < a for a, b in zip(yields, yields[1:]))
        assert yields[-1] <= (0.5**3) * (1 / 3) ** 2 + 1e-15

    def test_yield_product_recomputation(self):
        t = evolve(StepSequence.fixed("BBPBP"), sixstate_channel(0.15))
        product = 1.0
        for r in t.records:
            product *= r.survival_prob / 2 if r.kind is not StepKind.P else 1 / 3
        assert t.cumulative_yield == pytest.approx(product, abs=1e-15)

    def test_alternating_stops_at_first_viability(self):
        t = evolve(StepSequence.alternating(200), sixstate_channel(0.20))
        assert t.converged
        assert len(t.records) < 200
        if t.records:
            before_last = (
                PauliChannelParams(0.1, 0.1, 0.1)
                if not t.records[:-1]
                else t.records[-2].params
            )
            assert css_key_fraction(before_last.pz, before_last.px) <= t.sequence.css_margin

    def test_alternating_zero_rounds_is_bare_css(self):
        for p in (0.02, 0.05, 0.11, 0.2):
            c = sixstate_channel(p)
            t = evolve(StepSequence.alternating(0), c)
            assert t.converged == (css_key_fraction(c.pz, c.px) > t.sequence.css_margin)
            assert t.records == ()
            assert t.cumulative_yield == 1.0

    def test_viable_input_needs_no_rounds(self):
        t = evolve(StepSequence.alternating(200), sixstate_channel(0.05))
        assert t.converged
        assert t.records == ()

    def test_bx_rejected_in_prepare_and_measure(self):
        seq = StepSequence.fixed("BBxB")
        with pytest.raises(ProtocolClassError):
            evolve(seq, sixstate_channel(0.05), prepare_and_measure=True)
        # allowed when the trajectory is not flagged prepare-and-measure
        assert evolve(seq, sixstate_channel(0.05), prepare_and_measure=False) is not None

    def test_converged_iff_css_above_margin(self):
        for p in (0.05, 0.2, 0.25, 0.3):
            t = evolve(StepSequence.fixed("BBB"), sixstate_channel(p))
            assert t.converged == (t.css_rate > t.sequence.css_margin)


class TestConvergesFastPath:
    def test_matches_evolve_verdict(self):
        sequences = [
            StepSequence.fixed("BBBBB"),
            StepSequence.fixed("BBBBBPPPPPP"),
            StepSequence.fixed("BPBPBP"),
            StepSequence.alternating(100),
        ]
        for c in random_channels(300, seed=31, scale=0.7):
            for seq in sequences:
                assert _converges(seq, c) == evolve(seq, c).converged


class TestFindThreshold:
    def test_bisection_postcondition_sixstate(self):
        seq = StepSequence.fixed("BBBBB")
        r = find_threshold(seq, "sixstate", tol=1e-4)
        assert evolve(seq, sixstate_channel(r.threshold_p - 1e-4)).converged
        assert not evolve(seq, sixstate_channel(r.threshold_p + 1e-4)).converged
        lo, hi = r.bracket
        assert lo < r.threshold_p <= hi
        assert hi - lo <= 1e-4

    def test_bisection_postcondition_bb84(self):
        seq = StepSequence.fixed("BBBBBPPPPPP")
        r = find_threshold(seq, "bb84_worst", tol=1e-4)
        assert evolve(seq, bb84_family(r.threshold_p - 1e-4, 0.0)).converged
        assert not evolve(seq, bb84_family(r.threshold_p + 1e-4, 0.0)).converged

    def test_stable_under_tolerance_refinement(self):
        seq = StepSequence.fixed("BBBBB")
        coarse = find_threshold(seq, "sixstate", tol=1e-4).threshold_p
        fine = find_threshold(seq, "sixstate", tol=1e-6).threshold_p
        assert abs(coarse - fine) <= 1e-4

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            find_threshold(StepSequence.fixed("B"), "qkd", tol=1e-4)

    def test_upper_bracket_validated(self):
        with pytest.raises(ValueError, match="upper"):
            find_threshold(StepSequence.fixed("B"), "sixstate", tol=1e-4, upper=0.5)

    def test_too_small_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            find_threshold(StepSequence.fixed("B"), "sixstate", tol=1e-9)

    def test_zero_threshold_when_nothing_converges(self):
        # a near-unit margin is unreachable: 1 - h(f1) - h(f2) < 1 off p = 0
        seq = StepSequence.fixed("B", css_margin=0.999999)
        r = find_threshold(seq, "sixstate", tol=1e-4)
        assert r.threshold_p == 0.0
        assert r.diagnostic is not None

    def test_monotone_prefix_helper(self):
        assert _is_monotone([True, True, False, False])
        assert _is_monotone([False, False])
        assert _is_monotone([True, True])
        assert not _is_monotone([True, False, True])
        assert not _is_monotone([False, True])


class TestOptimizeSequence:
    def test_single_step_b_beats_p(self):
        seq, res = optimize_sequence("sixstate", 1, tol=1e-3)
        assert str(seq) == "B"
        single_p = find_threshold(StepSequence.fixed("P"), "sixstate", tol=1e-3)
        assert res.threshold_p > single_p.threshold_p

    def test_sixstate_search_contains_five_b(self):
        seq, res = optimize_sequence("sixstate", 8, tol=1e-3)
        assert res.threshold_p >= 0.264 - 1e-3

    def test_bb84_search_contains_the_published_sequence(self):
        seq, res = optimize_sequence("bb84_worst", 12, tol=1e-3)
        assert res.threshold_p >= 0.189 - 1e-3

    def test_max_len_validation(self):
        with pytest.raises(ValueError, match="max_len"):
            optimize_sequence("sixstate", 17)
        with pytest.raises(ValueError, match="max_len"):
            optimize_sequence("sixstate", 0)


class TestWorstCaseScan:
    def test_below_threshold_all_converge(self):
        s = worst_case_scan(StepSequence.fixed("BBBBBPPPPPP"), 0.185, 21)
        assert s.converged_at_zero
        assert all(s.converged)
        assert s.implication_holds
        assert not s.vacuous
        assert len(s.a_values) == 21
        assert s.a_values[0] == 0.0
        assert s.a_values[-1] == pytest.approx(0.185)

    def test_above_threshold_is_vacuous(self):
        s = worst_case_scan(StepSequence.fixed("BBBBBPPPPPP"), 0.21, 11)
        assert not s.converged_at_zero
        assert s.vacuous
        assert s.implication_holds

    def test_quarter_precondition(self):
        with pytest.raises(ValueError, match="1/4"):
            worst_case_scan(StepSequence.fixed("BBBBB"), 0.25, 11)
        with pytest.raises(ValueError, match="1/4"):
            worst_case_scan(StepSequence.fixed("BBBBB"), 0.30, 11)

    def test_sequence_must_start_with_b(self):
        with pytest.raises(ValueError, match="starting with B"):
            worst_case_scan(StepSequence.fixed("PB"), 0.1, 5)

    def test_epp_only_steps_rejected(self):
        with pytest.raises(ProtocolClassError):
            worst_case_scan(StepSequence.fixed("BBx"), 0.1, 5)

    def test_alternating_policy_is_accepted(self):
        s = worst_case_scan(StepSequence.alternating(200), 0.15, 5)
        assert s.implication_holds


def test_channel_for_family():
    assert channel_for_family("bb84_worst", 0.2) == bb84_family(0.2, 0.0)
    assert channel_for_family("sixstate", 0.2) == sixstate_channel(0.2)
    with pytest.raises(ValueError):
        channel_for_family("other", 0.2)
