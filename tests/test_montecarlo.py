"""Monte Carlo layer: flag ensembles, bit-level protocol runs, attacks."""

import hashlib
import logging
import math

import numpy as np
import pytest

from conftest import CountingMaps, one_round, random_channels, traced_peak
from sampled_oracles import FlagEnsemble, estimate_rates, flag_round, sample_flags
from twoway_qkd import (
    PauliChannelParams,
    ProtocolClassError,
    StepKind,
    StepSequence,
    bb84_family,
    evolve,
    intercept_resend,
    parse_sequence,
    simulate_protocol2_bits,
    sixstate_channel,
)
from twoway_qkd.montecarlo import _CHUNK, _ByteSource, _fair_bits, _thirds


def assert_within_5_sigma(q_hat: float, q_true: float, n: int) -> None:
    sigma = max(math.sqrt(q_true * (1.0 - q_true) / n), 1e-12)
    assert abs(q_hat - q_true) <= 5.0 * sigma


class TestSampleFlags:
    def test_noiseless_channel_gives_no_flags(self):
        e = sample_flags(PauliChannelParams(0, 0, 0), 10_000, seed=0)
        assert not e.x.any()
        assert not e.z.any()

    def test_pure_y_channel_sets_both_flags(self):
        e = sample_flags(PauliChannelParams(0, 1, 0), 10_000, seed=0)
        assert e.x.all()
        assert e.z.all()

    def test_empirical_rates_track_channel(self):
        c = PauliChannelParams(0.1, 0.05, 0.08)
        e = sample_flags(c, 1_000_000, seed=1)
        est = estimate_rates(e)
        assert_within_5_sigma(est.qx_hat, 0.1, est.n)
        assert_within_5_sigma(est.qy_hat, 0.05, est.n)
        assert_within_5_sigma(est.qz_hat, 0.08, est.n)

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            sample_flags(PauliChannelParams(0, 0, 0), 0, seed=0)

    def test_determinism(self):
        c = PauliChannelParams(0.2, 0.1, 0.05)
        a = sample_flags(c, 5000, seed=7)
        b = sample_flags(c, 5000, seed=7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)
        other = sample_flags(c, 5000, seed=8)
        assert not (np.array_equal(a.x, other.x) and np.array_equal(a.z, other.z))


class TestEstimateRates:
    def test_all_identity(self):
        e = sample_flags(PauliChannelParams(0, 0, 0), 100, seed=0)
        est = estimate_rates(e)
        assert (est.qx_hat, est.qy_hat, est.qz_hat) == (0.0, 0.0, 0.0)

    def test_all_y(self):
        est = estimate_rates(sample_flags(PauliChannelParams(0, 1, 0), 100, seed=0))
        assert est.qy_hat == 1.0
        assert est.stderr[1] == 0.0

    def test_stderr_formula(self):
        est = estimate_rates(sample_flags(PauliChannelParams(0.2, 0.1, 0.05), 4096, seed=3))
        for q, se in zip((est.qx_hat, est.qy_hat, est.qz_hat), est.stderr):
            assert se == pytest.approx(math.sqrt(q * (1 - q) / est.n), abs=1e-15)

    def test_empty_ensemble_rejected(self):
        empty = FlagEnsemble(
            np.array([], dtype=np.uint8),
            np.array([], dtype=np.uint8),
            seed=0,
        )
        with pytest.raises(ValueError, match="empty"):
            estimate_rates(empty)


class TestFlagSteps:
    def test_b_step_matches_closed_form(self):
        c = PauliChannelParams(0.10, 0.0, 0.10)
        out = flag_round(sample_flags(c, 1_000_000, seed=11), StepKind.B)
        analytic = one_round(StepKind.B, c).params
        est = estimate_rates(out)
        assert_within_5_sigma(est.qx_hat, analytic.qx, est.n)
        assert_within_5_sigma(est.qy_hat, analytic.qy, est.n)
        assert_within_5_sigma(est.qz_hat, analytic.qz, est.n)
        # survivor fraction ~ ps/2 = 0.41
        assert abs(len(out) / 1_000_000 - 0.41) < 0.005

    def test_b_step_noiseless_keeps_half(self):
        out = flag_round(sample_flags(PauliChannelParams(0, 0, 0), 10_001, seed=12), StepKind.B)
        assert len(out) == 5000
        assert not out.x.any()
        assert not out.z.any()

    def test_b_step_pure_z_keeps_every_pair(self):
        # no bit-flip flags, so every parity check agrees: exactly n//2 kept
        n = 1_000_000
        out = flag_round(sample_flags(PauliChannelParams(0, 0, 0.3), n, seed=13), StepKind.B)
        assert len(out) == n // 2
        est = estimate_rates(out)
        assert_within_5_sigma(est.qz_hat, 0.42, est.n)

    def test_p_step_matches_closed_form(self):
        c = PauliChannelParams(0.0, 0.0, 0.1)
        out = flag_round(sample_flags(c, 1_000_000, seed=14), StepKind.P)
        est = estimate_rates(out)
        assert_within_5_sigma(est.qz_hat, 0.028, est.n)

    def test_p_step_noiseless_keeps_third(self):
        out = flag_round(sample_flags(PauliChannelParams(0, 0, 0), 9_999, seed=15), StepKind.P)
        assert len(out) == 3333
        assert not out.x.any()

    def test_p_step_bit_error_growth(self):
        out = flag_round(sample_flags(PauliChannelParams(0.1, 0, 0), 1_000_000, seed=16), StepKind.P)
        est = estimate_rates(out)
        assert_within_5_sigma(est.qx_hat, 0.244, est.n)

    def test_bx_step_mirrors_b_step(self):
        c = PauliChannelParams(0.10, 0.0, 0.10)
        out = flag_round(sample_flags(c, 500_000, seed=17), StepKind.BX)
        analytic = one_round(StepKind.BX, c).params
        est = estimate_rates(out)
        assert_within_5_sigma(est.qx_hat, analytic.qx, est.n)
        assert_within_5_sigma(est.qz_hat, analytic.qz, est.n)

    def test_steps_deterministic_under_seed(self):
        c = PauliChannelParams(0.1, 0.05, 0.08)
        a = flag_round(sample_flags(c, 10_000, seed=18), StepKind.B)
        b = flag_round(sample_flags(c, 10_000, seed=18), StepKind.B)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_flags_pinned_after_b_p_bx(self):
        # Digest of the flags after each of a B, a P and a Bx round: the
        # random blocks of a seed are fixed for good.
        e = sample_flags(PauliChannelParams(0.1, 0.05, 0.08), 10_000, seed=21)
        digest = hashlib.sha256()
        for kind in (StepKind.B, StepKind.P, StepKind.BX):
            e = flag_round(e, kind)
            digest.update(e.x.tobytes())
            digest.update(e.z.tobytes())
        assert (len(e), e.round_index) == (526, 3)
        assert digest.hexdigest() == (
            "18edd6472ed7207c1bad74f3c049f4695f351aa4b1b6c90d0cf3043744c4ed57"
        )

    def test_round_index_advances(self):
        e = sample_flags(PauliChannelParams(0.05, 0.02, 0.02), 10_000, seed=19)
        e2 = flag_round(e, StepKind.B)
        assert e2.round_index == 1
        e3 = flag_round(e2, StepKind.P)
        assert e3.round_index == 2

    def test_population_too_small_rejected(self):
        e = sample_flags(PauliChannelParams(0, 0, 0), 2, seed=0)
        with pytest.raises(ValueError, match="at least 3"):
            flag_round(e, StepKind.P)
        one = FlagEnsemble(
            np.zeros(1, dtype=np.uint8),
            np.zeros(1, dtype=np.uint8),
            seed=0,
        )
        with pytest.raises(ValueError, match="at least 2"):
            flag_round(one, StepKind.B)

    def test_b_round_without_survivors_warns(self, caplog):
        e = FlagEnsemble(np.array([0, 1], np.uint8), np.zeros(2, np.uint8), seed=0)
        with caplog.at_level(logging.WARNING, logger="sampled_oracles"):
            out = flag_round(e, StepKind.B)
        assert len(out) == 0
        assert caplog.messages == ["B round left no survivors (n=2)"]


class TestProtocol2Bits:
    def test_noiseless_run(self):
        rep = simulate_protocol2_bits(bb84_family(0, 0), StepSequence.fixed("BP"), 999, seed=0)
        assert [r.n_kept for r in rep.rounds] == [499, 166]
        assert all(r.disagreements == 0 for r in rep.rounds)

    def test_rounds_track_bit_rate_recursion(self):
        rep = simulate_protocol2_bits(
            bb84_family(0.15, 0.0), StepSequence.fixed("BB"), 1_000_000, seed=0
        )
        assert len(rep.rounds) == 2
        for r in rep.rounds:
            assert abs(r.rate_hat - r.rate_pred) <= 5.0 * r.stderr

    def test_only_bit_error_rate_is_observable(self):
        # (0, 0.15, 0) and (0.15, 0, 0.15) share pz = 0.15: identical statistics
        a = simulate_protocol2_bits(
            bb84_family(0.15, 0.15), StepSequence.fixed("BP"), 50_000, seed=3
        )
        b = simulate_protocol2_bits(
            bb84_family(0.15, 0.0), StepSequence.fixed("BP"), 50_000, seed=3
        )
        assert [(r.n_kept, r.disagreements) for r in a.rounds] == [
            (r.n_kept, r.disagreements) for r in b.rounds
        ]

    def test_exhausted_population_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="twoway_qkd.montecarlo"):
            rep = simulate_protocol2_bits(bb84_family(0.1, 0.0), parse_sequence("BB"), 1, 0)
        assert rep.rounds == ()
        assert caplog.messages == ["population exhausted before round 1"]

    def test_bx_rejected(self):
        with pytest.raises(ProtocolClassError):
            simulate_protocol2_bits(
                bb84_family(0.1, 0.0), StepSequence.fixed("BBx"), 100, seed=0
            )

    def test_bx_rejected_before_any_round_runs(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        message = "step Bx is EPP-only and cannot appear in a prepare-and-measure sequence"
        with pytest.raises(ProtocolClassError) as info:
            simulate_protocol2_bits(sixstate_channel(0.05), StepSequence.fixed("BBx"), 100, 0)
        assert str(info.value) == message
        assert maps.calls == 0

    def test_alternating_realizes_analytic_schedule(self):
        seq, channel = StepSequence.alternating(50), sixstate_channel(0.2)
        rep = simulate_protocol2_bits(channel, seq, 100_000, seed=0)
        assert [r.kind for r in rep.rounds] == list(seq.steps[: len(rep.rounds)])
        assert len(rep.rounds) == len(evolve(seq, channel).rounds)

    def test_flag_and_bit_level_agree_on_survival(self):
        # both layers must match the analytic B-step keep statistics
        c = bb84_family(0.12, 0.0)
        n = 400_000
        ps = one_round(StepKind.B, c).survival_prob
        flags = flag_round(sample_flags(c, n, seed=5), StepKind.B)
        rep = simulate_protocol2_bits(c, StepSequence.fixed("B"), n, seed=5)
        sigma = math.sqrt(0.5 * ps * (1 - 0.5 * ps) / n)
        assert abs(len(flags) / n - 0.5 * ps) <= 5 * sigma
        assert abs(rep.rounds[0].n_kept / n - 0.5 * ps) <= 5 * sigma


# sizes of a draw made before the one checked: it leaves 3, 1 or 0 bytes of a
# 32-bit half-word unread, in the low or the upper half of a 64-bit word
FIRST = [1, 3, 4, 5, 8]


class TestFairBits:
    """A fair bit is the top bit of a random byte: the values of
    ``integers(0, 2, n, dtype=np.uint8)``, so every report keeps its bytes."""

    @pytest.mark.parametrize("n", [*range(1, 10), _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5])
    def test_matches_integers(self, seed, n):
        check_against_integers(_fair_bits, 2, seed, n)

    @pytest.mark.parametrize("first", FIRST)
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, _CHUNK - 4, _CHUNK, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5])
    def test_after_a_first_draw(self, seed, n, first):
        check_against_integers(_fair_bits, 2, seed, n, first)


def check_against_integers(draw, high, seed, n, first=0):
    """One byte source gives, draw by draw, the values of the same uint8
    ``integers`` calls on ``default_rng(seed)``: a first ``draw`` of
    ``first`` values if ``first``, then ``draw(src, n)``, the values of
    ``integers(0, high, n)``, then a 5-value fair-bit draw, which starts
    where the draw before it left the stream."""
    src, ref = _ByteSource(seed), np.random.default_rng(seed)
    calls = ([(draw, high, first)] if first else []) + [(draw, high, n), (_fair_bits, 2, 5)]
    for f, h, size in calls:
        values = f(src, size)
        assert values.dtype == np.uint8
        assert np.array_equal(values, ref.integers(0, h, size, dtype=np.uint8))


def stream_bytes(seed, count):
    """The first ``count`` bytes of ``default_rng(seed)``'s uint8 draws: the
    raw 64-bit words' bytes in little-endian order."""
    words = np.random.PCG64(seed).random_raw(count // 8 + 1).astype("<u8").tobytes()
    return np.frombuffer(words, np.uint8)[:count]


class TestThirds:
    """A six-state basis is Lemire's bounded method on a random byte: the
    values of ``integers(0, 3, n, dtype=np.uint8)``, which redraws a zero
    byte, so every report keeps its bytes.  Seeds 574 and 704 put a zero
    byte just after and just before the first ``_CHUNK`` bytes of the
    stream, and seed 256 does so for the draw after a one-value first draw,
    which starts at the stream's second 32-bit half-word
    (:meth:`test_seeds_put_a_zero_byte_at_a_chunk_edge`)."""

    SIZES = [*range(1, 10), _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 574, 704])
    def test_matches_integers(self, seed, n):
        check_against_integers(_thirds, 3, seed, n)

    @pytest.mark.parametrize("first", FIRST)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 7, 256])
    def test_after_a_first_draw(self, seed, n, first):
        check_against_integers(_thirds, 3, seed, n, first)

    @pytest.mark.parametrize("seed, edge", [(574, _CHUNK), (704, _CHUNK - 1), (256, 4 + _CHUNK - 1)])
    def test_seeds_put_a_zero_byte_at_a_chunk_edge(self, seed, edge):
        assert stream_bytes(seed, _CHUNK + 4)[edge] == 0

    def test_large_n(self):
        for seed in range(3):
            check_against_integers(_thirds, 3, seed, 10**6 + 3)


class TestInterceptResend:
    def test_bb84_quarter(self):
        r = intercept_resend("bb84", 1_000_000, seed=0)
        assert abs(r.error_rate - 0.25) < 0.005
        assert_within_5_sigma(r.sift_fraction, 0.5, r.n)

    def test_sixstate_third(self):
        r = intercept_resend("sixstate", 1_000_000, seed=0)
        assert abs(r.error_rate - 1.0 / 3.0) < 0.005
        assert_within_5_sigma(r.sift_fraction, 1.0 / 3.0, r.n)

    def test_correct_basis_diagnostic_mode(self):
        r = intercept_resend("bb84", 100_000, seed=1, eve_matches_basis=True)
        assert r.errors == 0
        assert r.error_rate == 0.0

    def test_determinism(self):
        a = intercept_resend("sixstate", 100_000, seed=9)
        b = intercept_resend("sixstate", 100_000, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError, match="protocol"):
            intercept_resend("b92", 100, seed=0)
        with pytest.raises(ValueError, match="n >= 1"):
            intercept_resend("bb84", 0, seed=0)


class TestBinomialLaws:
    """Each count in a report follows its binomial law, given the count it
    was drawn from.  Over ``SEEDS`` runs, a count's z-scores must have mean 0
    within 4/sqrt(runs) and a spread (standard deviation) within [0.8, 1.2].
    One run's 5-sigma check cannot see a wrong spread: error bits that
    repeat a chunk of their draw keep every rate but widen every spread.

    A count is checked when its variance is at least 1 in every run; a law
    narrower than that cannot be standardized, and each test pins which
    counts are checked.  A P round keeps ``n_in // 3`` by construction."""

    SEEDS = range(200)
    N = 2 * _CHUNK + 3  # the error bits span three draw calls

    def check(self, counts) -> list[str]:
        """Checks the counts ``counts(seed)`` yields as ``(name, k, n, p)``
        and returns the names checked."""
        z: dict[str, list[float]] = {}
        for seed in self.SEEDS:
            for name, k, n, p in counts(seed):
                var = n * p * (1.0 - p)
                if var >= 1.0:
                    z.setdefault(name, []).append((k - n * p) / math.sqrt(var))
        checked = sorted(name for name, zs in z.items() if len(zs) == len(self.SEEDS))
        for name in checked:
            zs = np.array(z[name])
            assert abs(zs.mean()) <= 4.0 / math.sqrt(zs.size), (name, zs.mean())
            assert 0.8 <= zs.std() <= 1.2, (name, zs.std())
        return checked

    B_FIRST = ["round 1 disagreements", "round 1 kept", "round 2 disagreements", "round 2 kept",
               "round 3 kept"]

    @pytest.mark.parametrize(
        "channel, text, checked",
        [
            (bb84_family(0.15, 0.0), "BBBBBPPPPPP", B_FIRST),
            (sixstate_channel(0.2), "BBBBB", B_FIRST),
            (bb84_family(0.15, 0.0), "PB", ["round 1 disagreements", "round 2 disagreements",
                                            "round 2 kept"]),
        ],
        ids=["bb84-BBBBBPPPPPP", "sixstate-BBBBB", "bb84-PB"],
    )
    def test_simulation(self, channel, text, checked):
        seq = parse_sequence(text)

        def counts(seed):
            pz = channel.pz  # the bit error rate entering the round
            for r in simulate_protocol2_bits(channel, seq, self.N, seed).rounds:
                if r.kind is StepKind.B:  # a pair is kept iff its error bits agree
                    yield f"round {r.index} kept", r.n_kept, r.n_in // 2, pz**2 + (1.0 - pz) ** 2
                yield f"round {r.index} disagreements", r.disagreements, r.n_kept, r.rate_pred
                pz = r.rate_pred

        assert self.check(counts) == checked

    @pytest.mark.parametrize(
        "protocol, sift, rate", [("bb84", 1 / 2, 1 / 4), ("sixstate", 1 / 3, 1 / 3)], ids=["bb84", "sixstate"]
    )
    def test_attack(self, protocol, sift, rate):
        def counts(seed):
            r = intercept_resend(protocol, self.N, seed)
            yield "sifted", r.sifted, r.n, sift
            yield "errors", r.errors, r.sifted, rate

        assert self.check(counts) == ["errors", "sifted"]


class TestMemoryBudget:
    """Bytes held per sample.  Every population array is one byte a sample,
    so a temporary of n int64 or float64 values (a permutation, a whole
    basis or uniform draw) exceeds the budget wherever it is held.  The
    attack holds at most three such arrays at its peak (two bases and the
    next basis draw), beside per-chunk temporaries of ``_CHUNK`` bytes each:
    one raw-word array while bytes are drawn, and while a six-state basis
    draw compacts a chunk past its zero bytes, its boolean mask and the
    compacted copy.  ``eve_matches_basis`` draws no Eve basis and takes its
    own path, so both modes are held to the budget.  A B round compacts its
    survivors in place, holding one ``_CHUNK`` of pair indices at a time."""

    N = 10**6

    @pytest.mark.parametrize(
        "protocol, eve_matches_basis",
        [("bb84", False), ("sixstate", False), ("bb84", True), ("sixstate", True)],
        ids=["bb84", "sixstate", "bb84-eve_matches_basis", "sixstate-eve_matches_basis"],
    )
    def test_attack(self, protocol, eve_matches_basis):
        args = (protocol, self.N, 4, eve_matches_basis)
        assert traced_peak(lambda: intercept_resend(*args)) <= 4 * self.N

    @pytest.mark.parametrize("text", ["BBBBBPPPPPP", "PB"])
    def test_simulation(self, text):
        args = (bb84_family(0.15, 0.0), parse_sequence(text), self.N, 4)
        assert traced_peak(lambda: simulate_protocol2_bits(*args)) <= 3 * self.N


class TestFlagStepAgreementSampled:
    def test_twenty_random_channels(self):
        for i, c in enumerate(random_channels(20, seed=42, scale=0.9)):
            for kind in (StepKind.B, StepKind.P):
                out = flag_round(sample_flags(c, 200_000, seed=700 + i), kind)
                analytic = one_round(kind, c).params
                est = estimate_rates(out)
                assert_within_5_sigma(est.qx_hat, analytic.qx, est.n)
                assert_within_5_sigma(est.qy_hat, analytic.qy, est.n)
                assert_within_5_sigma(est.qz_hat, analytic.qz, est.n)
