"""The prefix-cached optimizer against a per-candidate reference search."""

import pytest

from twoway_qkd import StepKind, StepSequence, find_threshold, optimize_sequence, steps
from twoway_qkd.convergence import (
    DEFAULT_CSS_MARGIN,
    _converges,
    _net_rate_near_threshold,
    _PrefixStates,
    channel_for_family,
)
from twoway_qkd.keyrates import NumericalError


def reference_optimize(family, max_len, tol=1e-4, css_margin=DEFAULT_CSS_MARGIN):
    """Per-candidate search: every prune probe re-applies all the rounds.

    Same candidate order, prune, bisection and tie-break as
    ``optimize_sequence``, with no state shared between candidates.
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

    best_seq = best_res = None
    best_rate = 0.0
    for seq, res in zip(candidates, results):
        if res is None:
            continue
        if best_res is None:
            best_seq, best_res = seq, res
            best_rate = _net_rate_near_threshold(seq, family, res.threshold_p)
            continue
        if res.threshold_p > best_res.threshold_p + tol:
            best_seq, best_res = seq, res
            best_rate = _net_rate_near_threshold(seq, family, res.threshold_p)
        elif res.threshold_p >= best_res.threshold_p - tol:
            rate = _net_rate_near_threshold(seq, family, res.threshold_p)
            if rate > best_rate + 1e-12 or (
                abs(rate - best_rate) <= 1e-12 and len(seq.steps) < len(best_seq.steps)
            ):
                best_seq, best_res, best_rate = seq, res, rate
    return best_seq, best_res


def summary(found):
    seq, res = found
    return str(seq), res.threshold_p, res.bracket, res.diagnostic


def all_strings(max_len):
    return [(n, bits) for n in range(1, max_len + 1) for bits in range(1 << n)]


def as_sequence(length, bits):
    return StepSequence.fixed("".join("P" if (bits >> i) & 1 else "B" for i in range(length)))


@pytest.mark.parametrize("max_len", range(1, 11))
@pytest.mark.parametrize("tol", [1e-3, 1e-4])
@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_identical_to_reference(family, tol, max_len):
    assert summary(optimize_sequence(family, max_len, tol=tol)) == summary(
        reference_optimize(family, max_len, tol=tol)
    )


def test_identical_to_reference_with_degenerate_rounds(monkeypatch):
    # B rounds raise once pz(1 - pz) > 0.15, i.e. pz > 0.184: at every
    # probe, strings whose P rounds push pz up hit a degenerate B round.
    monkeypatch.setattr(steps, "DEGENERATE_PS", 0.7)
    assert summary(optimize_sequence("bb84_worst", 8, tol=1e-3)) == summary(
        reference_optimize("bb84_worst", 8, tol=1e-3)
    )


class CountingMaps:
    """Wraps the B and P maps in ``steps._RATE_FUNCS`` to count calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for kind in (StepKind.B, StepKind.P):
            monkeypatch.setitem(steps._RATE_FUNCS, kind, self._wrap(steps._RATE_FUNCS[kind]))

    def _wrap(self, fn):
        def counted(*args):
            self.calls += 1
            return fn(*args)
        return counted


class TestPrefixStates:
    @pytest.mark.parametrize("family,p", [("sixstate", 0.26), ("bb84_worst", 0.18)])
    def test_verdicts_match_converges(self, family, p):
        root = channel_for_family(family, p)
        prefixes = _PrefixStates(root, 6)
        for n, bits in all_strings(6):
            assert prefixes.converges(n, bits, DEFAULT_CSS_MARGIN) == _converges(
                as_sequence(n, bits), root
            )

    def test_one_map_evaluation_per_tree_node(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        prefixes = _PrefixStates(channel_for_family("sixstate", 0.2), 5)
        for n, bits in all_strings(5):
            prefixes.converges(n, bits, DEFAULT_CSS_MARGIN)
        assert maps.calls == 2 + 4 + 8 + 16 + 32

    def test_deep_string_fills_its_prefixes(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        prefixes = _PrefixStates(channel_for_family("sixstate", 0.2), 5)
        prefixes.converges(5, 0b10110, DEFAULT_CSS_MARGIN)
        assert maps.calls == 5
        for n in range(1, 6):
            prefixes.converges(n, 0b10110 & ((1 << n) - 1), DEFAULT_CSS_MARGIN)
        assert maps.calls == 5

    def test_degenerate_round_diverges_with_its_extensions(self, monkeypatch):
        monkeypatch.setattr(steps, "DEGENERATE_PS", 0.7)
        maps = CountingMaps(monkeypatch)
        root = channel_for_family("sixstate", 0.3)  # pz = 0.3: a B round degenerates
        prefixes = _PrefixStates(root, 3)
        assert not prefixes.converges(1, 0b0, DEFAULT_CSS_MARGIN)
        assert maps.calls == 1
        for bits in range(4):  # B, then anything
            assert not prefixes.converges(3, bits << 1, DEFAULT_CSS_MARGIN)
        assert maps.calls == 1
