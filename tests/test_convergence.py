"""Sequence evolution, CSS viability, threshold search, and scans."""

import math
import random
import re
from fractions import Fraction

import pytest

from conftest import CountingBuilds, CountingMaps, random_channels, raw_rates, worst_case_flags
from twoway_qkd import (
    PauliChannelParams,
    ProtocolClassError,
    StepKind,
    StepSequence,
    bb84_family,
    convergence,
    css_key_fraction,
    evolve,
    find_threshold,
    optimize_sequence,
    parse_sequence,
    simulate_protocol2_bits,
    sixstate_channel,
)
from twoway_qkd.convergence import (
    BRACKET_UPPER,
    FAMILIES,
    MAX_ROUNDS,
    _converges,
    _css_viable,
    _family_rates,
    channel_for_family,
)
from twoway_qkd.keyrates import NumericalError

#: The 8 points at which find_threshold spot-checks monotonicity.
SPOT_POINTS = [BRACKET_UPPER * i / 9.0 for i in range(1, 9)]

#: The headline threshold searches: (sequence, family, tol).
PAPER_THRESHOLDS = [
    ("BBBBB", "sixstate", 1e-4),
    ("BBBBBPPPPPP", "bb84_worst", 1e-4),
    ("alt:200", "sixstate", 1e-4),
    ("alt:200", "bb84_worst", 1e-4),
    ("BBBBBPPPPPP", "bb84_worst", 1e-6),
]


def fake_verdicts(monkeypatch, converges_at):
    """Answer every ``_converges`` call with ``converges_at(p)``, p the bit error rate qx + qy."""
    monkeypatch.setattr(convergence, "_converges", lambda seq, q: converges_at(q[0] + q[1]))


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


class TestCssViable:
    """The log-free rejection bound never changes a CSS verdict."""

    MARGINS = (0.0, 1e-30, 0.1)

    @staticmethod
    def rate_pairs():
        rng = random.Random(34)
        pairs = [(rng.random(), rng.random()) for _ in range(4000)]
        dyadic = [0.0, 0.5, 1.0] + [2.0**-k for k in range(1, 60)]
        dyadic += [0.5 + sign * 2.0**-k for k in range(2, 54) for sign in (1.0, -1.0)]
        pairs += [(f1, f2) for f1 in dyadic for f2 in dyadic]
        # near 1/2 exactly or one ulp off it; far at 0, the least subnormal,
        # 2**-60 or just below 1, in both argument orders
        nears = [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
        fars = [0.0, 5e-324, 2.0**-60] + [1.0 - 2.0**-k for k in range(2, 54)]
        edge = [(near, far) for near in nears for far in fars]
        return pairs + edge + [(far, near) for near, far in edge]

    @pytest.mark.parametrize("margin", MARGINS)
    def test_matches_the_key_fraction(self, monkeypatch, margin):
        passed_on = 0

        def counted(f1, f2):
            nonlocal passed_on
            passed_on += 1
            return css_key_fraction(f1, f2)

        monkeypatch.setattr(convergence, "css_key_fraction", counted)
        pairs = self.rate_pairs()
        for f1, f2 in pairs:
            # qy = 0 makes qx + qy and qy + qz exactly f1 and f2
            assert _css_viable(f1, 0.0, f2, margin) == (css_key_fraction(f1, f2) > margin), (f1, f2)
        assert len(pairs) - passed_on > 1000  # the bound decides a good share without a log

    @pytest.mark.parametrize("margin", MARGINS)
    @pytest.mark.parametrize(
        "rates", [(float("nan"), 0.0, 0.1), (0.1, 0.0, float("nan")), (0.1, float("nan"), 0.1)]
    )
    def test_nan_raises_as_the_key_fraction_does(self, rates, margin):
        qx, qy, qz = rates
        with pytest.raises(ValueError) as expected:
            css_key_fraction(qx + qy, qy + qz)
        with pytest.raises(ValueError) as raised:
            _css_viable(qx, qy, qz, margin)
        assert str(raised.value) == str(expected.value)


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
        assert seq.steps == tuple(StepKind(k) for k in "BP" * 100)  # it holds its rounds
        assert parse_sequence("alt:0").steps == ()

    def test_malformed_token_names_offender(self):
        with pytest.raises(ValueError, match="'Q'"):
            parse_sequence("BBQ")

    # int() alone would read the last four as 5, 5, 10 and 3
    @pytest.mark.parametrize("text", ["alt:many", "alt: 5", "alt:+5", "alt:1_0", "alt:\u0663"])
    def test_malformed_alternation_count(self, text):
        with pytest.raises(ValueError, match="alt:N"):
            parse_sequence(text)

    def test_alternation_count_is_bounded(self):
        assert MAX_ROUNDS == 10_000
        assert parse_sequence("alt:10000").max_rounds == MAX_ROUNDS
        with pytest.raises(ValueError, match="max_rounds"):
            parse_sequence("alt:10001")
        with pytest.raises(ValueError, match="max_rounds"):
            parse_sequence("alt:-1")

    def test_fixed_length_is_bounded(self):
        assert len(parse_sequence("BP" * 5_000).steps) == MAX_ROUNDS
        with pytest.raises(ValueError, match="at most 10000 rounds, got 10001"):
            parse_sequence("B" * 10_001)

    def test_over_long_string_refused_before_tokenizing(self, monkeypatch):
        def fail(text):
            raise AssertionError("tokenized an over-long string")

        monkeypatch.setattr(convergence, "_tokenize", fail)
        with pytest.raises(ValueError, match="at most 10000 rounds, got 2000000$"):
            StepSequence.fixed("B" * 2_000_000)
        with pytest.raises(ValueError, match="got 10001$"):
            StepSequence.fixed("Bx" * 10_001)

    @pytest.mark.parametrize("text", ["BBBBB", "alt:200"])
    @pytest.mark.parametrize("margin", [float("nan"), float("inf")])
    def test_non_finite_margin_rejected(self, text, margin):
        with pytest.raises(ValueError, match="css_margin"):
            parse_sequence(text, css_margin=margin)

    def test_empty_fixed_sequence_rejected(self):
        with pytest.raises(ValueError):
            parse_sequence("")
        with pytest.raises(ValueError, match="non-empty"):
            StepSequence(steps=(), policy="fixed")

    def test_alternation_kind_schedule(self):
        # six-state p = 0.3 lies above the alternation's threshold
        t = evolve(StepSequence.alternating(4), sixstate_channel(0.3))
        assert [r["kind"] for r in t.to_rows()] == ["B", "P", "B", "P"]


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
        rows = t.to_rows()
        assert [r["step_index"] for r in rows] == [1, 2]
        assert [r["kind"] for r in rows] == ["B", "P"]
        # yields: ps/2 for B then 1/3 for P
        b_yield = rows[0]["ps"] / 2
        assert rows[0]["yield"] == pytest.approx(b_yield, abs=1e-15)
        assert rows[1]["yield"] == pytest.approx(b_yield / 3, abs=1e-15)

    def test_cumulative_yield_strictly_decreasing(self):
        t = evolve(StepSequence.fixed("BBBPP"), sixstate_channel(0.1))
        yields = [r["yield"] for r in t.to_rows()]
        assert all(b < a for a, b in zip(yields, yields[1:]))
        assert yields[-1] <= (0.5**3) * (1 / 3) ** 2 + 1e-15

    def test_yield_product_recomputation(self):
        t = evolve(StepSequence.fixed("BBPBP"), sixstate_channel(0.15))
        product = 1.0
        for r in t.to_rows():
            product *= r["ps"] / 2 if r["kind"] != "P" else 1 / 3
        assert t.cumulative_yield == pytest.approx(product, abs=1e-15)

    def test_alternating_stops_at_first_viability(self):
        t = evolve(StepSequence.alternating(200), sixstate_channel(0.20))
        assert t.converged
        assert len(t.rounds) < 200
        if t.rounds:
            before_last = (
                PauliChannelParams(0.1, 0.1, 0.1)
                if not t.rounds[:-1]
                else PauliChannelParams(*t.rounds[-2][:3])
            )
            assert css_key_fraction(before_last.pz, before_last.px) <= t.sequence.css_margin

    def test_alternating_zero_rounds_is_bare_css(self):
        for p in (0.02, 0.05, 0.11, 0.2):
            c = sixstate_channel(p)
            t = evolve(StepSequence.alternating(0), c)
            assert t.converged == (css_key_fraction(c.pz, c.px) > t.sequence.css_margin)
            assert t.rounds == ()
            assert t.cumulative_yield == 1.0

    def test_viable_input_needs_no_rounds(self):
        t = evolve(StepSequence.alternating(200), sixstate_channel(0.05))
        assert t.converged
        assert t.rounds == ()

    def test_bx_rejected_in_prepare_and_measure(self):
        seq = StepSequence.fixed("BBxB")
        with pytest.raises(ProtocolClassError):
            simulate_protocol2_bits(sixstate_channel(0.05), seq, 100, seed=0)
        # the rule belongs to the bit-level run: evolve runs every step kind
        assert len(evolve(seq, sixstate_channel(0.05)).rounds) == 3

    def test_cycled_alternation_holds_every_round(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        t = evolve(StepSequence.alternating(200), sixstate_channel(0.28))
        assert not t.converged
        assert maps.calls < 40
        assert len(t.rounds) == 200
        # rounds past the computed ones are copies of the last two
        assert all(t.rounds[k] is t.rounds[k - 2] for k in range(maps.calls, 200))
        qx, qy, qz, _ = t.rounds[-1]
        assert (t.final_bit_rate, t.final_phase_rate) == (qx + qy, qy + qz)

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
                assert _converges(seq, raw_rates(c)) == evolve(seq, c).converged

    @pytest.mark.parametrize("text", [
        "BBBBB",
        "BBBBBPPPPPP",
        pytest.param("BBBPBBBPPPPPP", marks=pytest.mark.xfail(strict=True, reason=(
            "defect B, ROADMAP item 1: rounding noise flips the verdict 82 times on this "
            "grid, False at 0.18515 and True up to 0.19595"))),
    ])
    def test_verdict_does_not_rise_with_p(self, text):
        seq = parse_sequence(text)
        grid = [0.185 + 5e-5 * i for i in range(220)]  # 0.185 to 0.19595
        verdicts = [_converges(seq, _family_rates("bb84_worst", p)) for p in grid]
        assert verdicts == sorted(verdicts, reverse=True)


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

    def test_too_small_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            find_threshold(StepSequence.fixed("B"), "sixstate", tol=1e-9)

    @pytest.mark.parametrize(
        "tol, upper",
        [(float("nan"), BRACKET_UPPER), (0.4, BRACKET_UPPER), (BRACKET_UPPER, BRACKET_UPPER),
         (float("inf"), BRACKET_UPPER)],
    )
    def test_tolerance_must_lie_below_the_bracket(self, tol, upper):
        with pytest.raises(ValueError, match=rf"tol must lie in \[1e-6, {upper}\)"):
            find_threshold(StepSequence.fixed("B"), "sixstate", tol=tol)

    def test_zero_threshold_when_nothing_converges(self):
        # a near-unit margin is unreachable: 1 - h(f1) - h(f2) < 1 off p = 0
        seq = StepSequence.fixed("B", css_margin=0.999999)
        r = find_threshold(seq, "sixstate", tol=1e-4)
        assert r.threshold_p == 0.0
        assert r.diagnostic is not None

    @pytest.mark.parametrize(
        "flags",
        [
            [True, False, True, False, False, False, False, False],
            [False, True, True, True, True, True, True, True],
            [True, True, True, True, True, True, False, True],
        ],
    )
    @pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
    def test_non_monotone_spot_check_raises(self, monkeypatch, family, flags):
        # only the spot points have a verdict: nothing runs before the check raises
        fake_verdicts(monkeypatch, lambda p: flags[SPOT_POINTS.index(p)])
        with pytest.raises(NumericalError, match=re.escape(f"spot check gave {flags}")):
            find_threshold(StepSequence.fixed("B"), family, tol=1e-4)

    @pytest.mark.parametrize(
        "root, threshold, diagnostic",
        [
            (1.0, BRACKET_UPPER, "converges at the bracket upper limit"),  # all True
            (0.0, 0.0, "no convergence even at p = 0.0001"),  # all False
            (0.2, pytest.approx(0.2, abs=1e-4), None),  # True, then False
        ],
        ids=["all-true", "all-false", "true-then-false"],
    )
    def test_monotone_spot_check_passes(self, monkeypatch, root, threshold, diagnostic):
        fake_verdicts(monkeypatch, lambda p: p < root)
        r = find_threshold(StepSequence.fixed("B"), "sixstate", tol=1e-4)
        assert r.threshold_p == threshold
        assert r.diagnostic == diagnostic


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

    @pytest.mark.xfail(strict=True, reason=(
        "defect B, ROADMAP item 1: the false BBPBBBBBBPPPPP converges up to the bracket's top"))
    def test_sixstate_max_len_14_threshold_lies_below_the_bracket_top(self):
        seq, res = optimize_sequence("sixstate", 14)
        assert res.threshold_p < BRACKET_UPPER

    def test_max_len_validation(self):
        with pytest.raises(ValueError, match="max_len"):
            optimize_sequence("sixstate", 17)
        with pytest.raises(ValueError, match="max_len"):
            optimize_sequence("sixstate", 0)


class TestWorstCaseScan:
    def test_below_threshold_all_converge(self):
        flags = worst_case_flags(StepSequence.fixed("BBBBBPPPPPP"), 0.185, 21)
        assert len(flags) == 21
        assert all(flags)

    def test_above_threshold_is_vacuous(self):
        flags = worst_case_flags(StepSequence.fixed("BBBBBPPPPPP"), 0.21, 11)
        assert not flags[0]

    def test_alternating_policy_is_accepted(self):
        flags = worst_case_flags(StepSequence.alternating(200), 0.15, 5)
        assert not flags[0] or all(flags)

    def test_a_zero_is_the_worst_case_of_long_b_runs_in_closed_form(self):
        """B x k converges for large k iff max(|lx + ly|, |lx - ly|)**2 > 1 - lz**2 (ROADMAP
        item 3). On (p - a, a, p - a), lz = lx = 1 - 2p and lx + ly = 2 - 6p + 4a, which for
        p < 1/4 exceeds |lx - ly| = |2p - 4a| <= 2p; so the left side grows with a and the
        right side does not. Exact arithmetic, on p = 1/80 ... 19/80 (1/5 included) and
        a = 0, p/10, ..., p."""
        for p in (Fraction(i, 80) for i in range(1, 20)):
            excess = []  # max(...)**2 - (1 - lz**2), in order of a
            for a in (p * j / 10 for j in range(11)):
                qx, qy, qz = p - a, a, p - a
                lz, lx, ly = 1 - 2 * (qx + qy), 1 - 2 * (qy + qz), 1 - 2 * (qx + qz)
                assert lz == lx == 1 - 2 * p and lx + ly == 2 - 6 * p + 4 * a
                excess.append(max(abs(lx + ly), abs(lx - ly)) ** 2 - (1 - lz**2))
            assert excess == sorted(excess), p
            assert (excess[0] > 0) == (p < Fraction(1, 5)), p  # the limit 1/5 at a = 0


class TestFamilyRates:
    """The searches' raw rates are those of the family's channel, bit for bit."""

    @staticmethod
    def assert_channel_rates(family, p):
        # the channel package's own builders, not channel_for_family, which reads _family_rates
        c = bb84_family(p, 0.0) if family == "bb84_worst" else sixstate_channel(p)
        # repr tells apart floats that compare equal, such as 0.0 and -0.0
        assert repr(_family_rates(family, p)) == repr((c.qx, c.qy, c.qz)), (family, p)

    @pytest.mark.parametrize("text, family, tol", PAPER_THRESHOLDS)
    def test_every_point_of_a_search(self, monkeypatch, text, family, tol):
        searched = []

        def recording(fam, p, rates_at=_family_rates):
            searched.append((fam, p))
            return rates_at(fam, p)

        monkeypatch.setattr(convergence, "_family_rates", recording)
        find_threshold(parse_sequence(text), family, tol)
        assert len(searched) > 20  # 8 spot points, 2 bracket ends, the bisection midpoints
        for fam, p in searched:
            self.assert_channel_rates(fam, p)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_random_points(self, family):
        rng = random.Random(1)
        for _ in range(10_000):
            self.assert_channel_rates(family, BRACKET_UPPER * (1.0 - rng.random()))  # (0, 1/3]

    @pytest.mark.parametrize("text, family, tol", PAPER_THRESHOLDS)
    def test_search_builds_no_channel(self, monkeypatch, text, family, tol):
        builds = CountingBuilds(monkeypatch, PauliChannelParams)
        find_threshold(parse_sequence(text), family, tol)
        assert builds.built == 0

    def test_unknown_family_error_unchanged(self, monkeypatch):
        verdicts = []
        monkeypatch.setattr(convergence, "_converges", lambda seq, q: verdicts.append(q))
        message = "unknown family 'qkd'; expected one of ('bb84_worst', 'sixstate')"
        for call in (
            lambda: channel_for_family("qkd", 0.2),
            lambda: find_threshold(StepSequence.fixed("B"), "qkd", tol=1e-4),
            lambda: optimize_sequence("qkd", 3),
        ):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message
        assert verdicts == []


def test_channel_for_family():
    assert channel_for_family("bb84_worst", 0.2) == bb84_family(0.2, 0.0)
    assert channel_for_family("sixstate", 0.2) == sixstate_channel(0.2)
    with pytest.raises(ValueError):
        channel_for_family("other", 0.2)


@pytest.mark.parametrize("family, top, beyond", [("bb84_worst", 0.5, 0.6), ("sixstate", 2 / 3, 0.7)])
def test_channel_for_family_range(family, top, beyond):
    """The channel is validated on the ranges of bb84_family and sixstate_channel."""
    for p in (-0.1, math.nan, math.inf, beyond):
        with pytest.raises(ValueError):
            channel_for_family(family, p)
    assert channel_for_family(family, top).pz == top
    assert channel_for_family(family, 0.0) == PauliChannelParams(0.0, 0.0, 0.0)
