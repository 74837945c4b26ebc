"""The level-sweep optimizer against a per-candidate reference search.

``optimize_sequence`` reads its prune verdicts from breadth-first levels of
probe states (``_probe_states``), grown by one round per length and rebuilt
for the rest of a length when the best threshold rises.
``reference_optimize`` probes every candidate from scratch and picks its
winner by the documented rule, written out on its own.
"""

import pytest
from conftest import CountingMaps

from twoway_qkd import StepKind, StepSequence, find_threshold, optimize_sequence
from twoway_qkd.convergence import (
    DEFAULT_CSS_MARGIN,
    _converges,
    _evolve_rounds,
    _net_rate_near_threshold,
    _probe_states,
    channel_for_family,
)
from twoway_qkd.keyrates import NumericalError


def reference_optimize(family, max_len, tol=1e-4, css_margin=DEFAULT_CSS_MARGIN):
    """Per-candidate search: every prune probe re-applies all the rounds.

    Same candidate order, prune and bisection as ``optimize_sequence``, with
    no state shared between candidates.  The winner is then picked by the
    documented rule: among the candidates within ``tol`` of the highest
    threshold, the highest net rate (within 1e-12), then the shortest
    sequence, then the earliest candidate.
    """
    candidates = [
        StepSequence.fixed(
            tuple(StepKind.P if (bits >> i) & 1 else StepKind.B for i in range(length)),
            css_margin=css_margin,
        )
        for length in range(1, max_len + 1)
        for bits in range(1 << length)
    ]
    best_threshold = None
    results = []
    for seq in candidates:
        res = None
        probe = None if best_threshold is None else max(best_threshold - 2.0 * tol, 0.0)
        if not probe or _converges(seq, channel_for_family(family, probe)):
            try:
                res = find_threshold(seq, family, tol)
            except NumericalError:
                pass
        results.append(res)
        if res is not None and (best_threshold is None or res.threshold_p > best_threshold):
            best_threshold = res.threshold_p

    near = [
        (index, seq, res, _net_rate_near_threshold(seq, family, res.threshold_p))
        for index, (seq, res) in enumerate(zip(candidates, results))
        if res is not None and res.threshold_p >= best_threshold - tol
    ]
    best_rate = max(rate for _, _, _, rate in near)
    _, seq, res, _ = min(
        (entry for entry in near if entry[3] >= best_rate - 1e-12),
        key=lambda entry: (len(entry[1].steps), entry[0]),
    )
    return seq, res


def summary(found):
    seq, res = found
    return str(seq), res.threshold_p, res.bracket, res.diagnostic


def as_sequence(length, bits):
    return StepSequence.fixed("".join("P" if (bits >> i) & 1 else "B" for i in range(length)))


@pytest.mark.parametrize("max_len", range(1, 11))
@pytest.mark.parametrize("tol", [1e-3, 1e-4])
@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_identical_to_reference(family, tol, max_len):
    assert summary(optimize_sequence(family, max_len, tol=tol)) == summary(
        reference_optimize(family, max_len, tol=tol)
    )


@pytest.mark.parametrize("max_len", range(1, 9))
@pytest.mark.parametrize("tol", [1e-2, 3e-2])
@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_identical_to_reference_at_coarse_tol(family, tol, max_len):
    # A wide tol makes a wide near-tie set, whose winner depends on measuring
    # "within tol" from the highest threshold, not from the leader so far.
    assert summary(optimize_sequence(family, max_len, tol=tol)) == summary(
        reference_optimize(family, max_len, tol=tol)
    )


def test_identical_to_reference_past_a_mid_length_rise():
    # The probe rises twice late in length 13 (bits 8008 and 8072), so the
    # rest of that length and all of length 14 use rebuilt levels.
    assert summary(optimize_sequence("bb84_worst", 14)) == summary(
        reference_optimize("bb84_worst", 14)
    )


def final_state(root, length, bits):
    rounds = []
    _evolve_rounds(as_sequence(length, bits), root, rounds)
    return rounds[-1][:3]


class TestProbeStates:
    @pytest.mark.parametrize("family,p", [("sixstate", 0.26), ("bb84_worst", 0.18)])
    def test_states_match_the_kernel(self, family, p):
        root = channel_for_family(family, p)
        for length in range(1, 7):
            expected = [final_state(root, length, bits) for bits in range(1 << length)]
            for first in range((1 << length) + 1):  # 2**length: past the last string
                states = _probe_states(root, length, first)
                assert len(states) == 3 * ((1 << length) - first)
                for bits in range(first, 1 << length):
                    at = 3 * (bits - first)
                    assert tuple(states[at : at + 3]) == expected[bits]

    @pytest.mark.parametrize("length", range(1, 7))
    def test_one_map_evaluation_per_tree_node(self, monkeypatch, length):
        maps = CountingMaps(monkeypatch)
        _probe_states(channel_for_family("sixstate", 0.2), length)
        assert maps.calls == (2 << length) - 2

    def test_p_half_is_built_from_the_shorter_tail(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        _probe_states(channel_for_family("sixstate", 0.2), 6, (1 << 6) - 1)
        assert maps.calls == 6  # PPPPPP alone: one map per round
