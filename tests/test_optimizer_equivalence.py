"""The level-sweep optimizer against a per-candidate reference search.

``optimize_sequence`` screens each length once, on one breadth-first level
of probe states (``_probe_states``) at the best threshold of the shorter
candidates, grown by one round from the level before while that root holds.
``reference_optimize`` probes every candidate from scratch at the same
threshold and picks its winner by the documented rule, written out on its
own.  With ``best_so_far=True`` it probes at the best threshold so far
instead, the rule the prune followed before it read one root per length.
"""

from array import array
from itertools import chain

import pytest
from conftest import CountingMaps, traced_peak

from twoway_qkd import StepKind, StepSequence, convergence, find_threshold, optimize_sequence
from twoway_qkd.convergence import (
    DEFAULT_CSS_MARGIN,
    _WIDTH,
    _converges,
    _evolve_rounds,
    _family_rates,
    _net_rate_near_threshold,
    _next_level,
    _probe_states,
    _screen,
    css_key_fraction,
)
from twoway_qkd.keyrates import NumericalError
from twoway_qkd.steps import _RATE_FUNCS


def reference_optimize(family, max_len, tol=1e-4, css_margin=DEFAULT_CSS_MARGIN, best_so_far=False):
    """Per-candidate search: every prune probe re-applies all the rounds.

    Same candidate order, prune and bisection as ``optimize_sequence``, with
    no state shared between candidates.  A candidate is probed 2*tol below
    the best threshold of the shorter candidates, or below the best one so
    far with ``best_so_far``.  The winner is then picked by the documented
    rule: among the candidates within ``tol`` of the highest threshold, the
    highest net rate (within 1e-12), then the shortest sequence, then the
    earliest candidate.
    """
    best_threshold = None
    results = []  # (seq, res) of every candidate, res None where not bisected
    for length in range(1, max_len + 1):
        shorter_best = best_threshold
        for bits in range(1 << length):
            seq = StepSequence.fixed(
                tuple(StepKind.P if (bits >> i) & 1 else StepKind.B for i in range(length)),
                css_margin=css_margin,
            )
            res = None
            anchor = best_threshold if best_so_far else shorter_best
            probe = None if anchor is None else max(anchor - 2.0 * tol, 0.0)
            if not probe or _converges(seq, _family_rates(family, probe)):
                try:
                    res = find_threshold(seq, family, tol)
                except NumericalError:
                    pass
            results.append((seq, res))
            if res is not None and (best_threshold is None or res.threshold_p > best_threshold):
                best_threshold = res.threshold_p

    near = [
        (index, seq, res, _net_rate_near_threshold(res))
        for index, (seq, res) in enumerate(results)
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


@pytest.mark.parametrize("max_len", range(1, 13))
@pytest.mark.parametrize("tol", [1e-3, 1e-4])
@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_identical_to_reference(family, tol, max_len):
    # Both probe rules agree here: a root at the running best prunes no
    # candidate that could come within tol of the highest threshold.
    found = summary(optimize_sequence(family, max_len, tol=tol))
    assert found == summary(reference_optimize(family, max_len, tol=tol))
    assert found == summary(reference_optimize(family, max_len, tol=tol, best_so_far=True))


@pytest.mark.parametrize("max_len", range(1, 9))
@pytest.mark.parametrize("tol", [1e-2, 3e-2])
@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_identical_to_reference_at_coarse_tol(family, tol, max_len):
    # A wide tol makes a wide near-tie set, whose winner depends on measuring
    # "within tol" from the highest threshold, not from the leader so far.
    assert summary(optimize_sequence(family, max_len, tol=tol)) == summary(
        reference_optimize(family, max_len, tol=tol)
    )


@pytest.mark.parametrize("family", ["bb84_worst", "sixstate"])
def test_identical_to_reference_past_a_mid_length_rise(family):
    # bb84_worst: the best threshold rises late in length 13 (at
    # BBBPBBPBPPPPP) and twice in length 14, so length 14 is screened on a
    # level built afresh.  sixstate: it rises late in length 14, at
    # BBPBBBBBBPPPPP.
    assert summary(optimize_sequence(family, 14)) == summary(reference_optimize(family, 14))


def test_the_probe_rules_part_at_bb84_max_len_13():
    # Defect B (ROADMAP item 1): the false BBBPBBBPPPPPP diverges at the
    # root of length 13 but converges at the running best's, so only the
    # best-so-far rule bisects it.
    found = optimize_sequence("bb84_worst", 13)
    assert summary(found) == summary(reference_optimize("bb84_worst", 13))
    assert str(found[0]) == "BBBBB"
    assert str(reference_optimize("bb84_worst", 13, best_so_far=True)[0]) == "BBBPBBBPPPPPP"


@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_bisects_the_candidates_the_reference_does(monkeypatch, family):
    # The best threshold rises at bits 0 of lengths 1-6 (sixstate) and 1-5
    # (bb84_worst), so each next length's level is built afresh.
    bisected = {"optimizer": [], "reference": []}

    def recorder(name, bisect=find_threshold):
        def recording(seq, fam, tol):
            bisected[name].append(str(seq))
            return bisect(seq, fam, tol)
        return recording

    monkeypatch.setattr(convergence, "find_threshold", recorder("optimizer"))
    monkeypatch.setitem(globals(), "find_threshold", recorder("reference"))
    optimize_sequence(family, 8)
    reference_optimize(family, 8)
    assert bisected["optimizer"] == bisected["reference"]


@pytest.mark.parametrize("family, max_len", [("sixstate", 7), ("bb84_worst", 6)])
def test_a_candidate_whose_bisection_fails_is_skipped(monkeypatch, family, max_len):
    # The failing candidate is the unpatched winner, so if its bisection set
    # the prune's reference, fewer later candidates would be bisected.
    bisected = {"unpatched": [], "optimizer": [], "reference": []}

    def recorder(name, bisect=find_threshold):
        def recording(seq, fam, tol):
            bisected[name].append(str(seq))
            if name != "unpatched" and str(seq) == winner:
                raise NumericalError("synthetic")
            return bisect(seq, fam, tol)
        return recording

    monkeypatch.setattr(convergence, "find_threshold", recorder("unpatched"))
    winner = str(optimize_sequence(family, max_len)[0])
    monkeypatch.setattr(convergence, "find_threshold", recorder("optimizer"))
    monkeypatch.setitem(globals(), "find_threshold", recorder("reference"))
    found = optimize_sequence(family, max_len)
    assert summary(found) == summary(reference_optimize(family, max_len))
    assert str(found[0]) != winner
    assert winner in bisected["optimizer"]
    assert bisected["optimizer"] == bisected["reference"]
    assert set(bisected["unpatched"]) < set(bisected["optimizer"])


def final_state(root, length, bits):
    rounds = []
    _evolve_rounds(as_sequence(length, bits), root, rounds)
    return rounds[-1]


def reference_next_level(shorter):
    """``_next_level`` built float by float: each map's tuples flattened into ``array.extend``."""
    out = array("d")
    states = memoryview(shorter)
    rates = states[0::_WIDTH], states[1::_WIDTH], states[2::_WIDTH]
    for kind in (StepKind.B, StepKind.P):
        out.extend(chain.from_iterable(map(_RATE_FUNCS[kind], *rates)))
    return out


class TestProbeStates:
    @pytest.mark.parametrize("family,p", [("sixstate", 0.26), ("bb84_worst", 0.18)])
    def test_states_match_the_kernel(self, family, p):
        root = _family_rates(family, p)
        for length in range(1, 7):
            states = _probe_states(root, length)
            assert len(states) == 4 << length
            for bits in range(1 << length):
                assert tuple(states[4 * bits : 4 * bits + 4]) == final_state(root, length, bits)

    @pytest.mark.parametrize(
        "family,p",
        [("sixstate", 0.2), ("sixstate", 0.27), ("bb84_worst", 0.15), ("bb84_worst", 0.19)],
    )
    def test_levels_across_chunks_match_the_reference(self, family, p):
        """Lengths 10-13 pack each kind's 512, 1,024, 2,048 and 4,096 states: one
        partial chunk, one whole chunk and several chunks, each to the byte."""
        root = _family_rates(family, p)
        level = _probe_states(root, 0)
        for length in range(1, 14):
            level = reference_next_level(level)
            if length >= 10:
                assert _probe_states(root, length).tobytes() == level.tobytes(), length

    def test_a_level_build_holds_little_beside_its_output(self):
        """A 2**15-state level peaks at most 1.25 times its own bytes: packed
        chunks are appended as they are made, never joined into one whole level."""
        shorter = _probe_states(_family_rates("sixstate", 0.2), 14)
        level_bytes = (_WIDTH << 15) * array("d").itemsize
        assert len(_next_level(shorter)) * array("d").itemsize == level_bytes
        assert traced_peak(lambda: _next_level(shorter)) <= 1.25 * level_bytes

    @pytest.mark.parametrize("length", range(1, 7))
    def test_one_map_evaluation_per_tree_node(self, monkeypatch, length):
        maps = CountingMaps(monkeypatch)
        _probe_states(_family_rates("sixstate", 0.2), length)
        assert maps.calls == (2 << length) - 2


class TestScreen:
    """The screen's verdicts are the key fraction's own, where the search screens.

    ``reference_optimize`` prunes through ``_css_viable`` as well, so the
    equivalence tests above cannot catch a wrong rejection bound.
    """

    @pytest.fixture(scope="class")
    def final_probe_roots(self):
        """Last root each family's max_len=13 search builds a level at, and its CSS evaluations."""
        roots, css_calls = {}, 0
        with pytest.MonkeyPatch.context() as patch:
            def counted(f1, f2):
                nonlocal css_calls
                css_calls += 1
                return css_key_fraction(f1, f2)

            patch.setattr(convergence, "css_key_fraction", counted)
            for family in ("sixstate", "bb84_worst"):
                def recording(root, length, build=_probe_states):
                    roots[family] = root
                    return build(root, length)

                patch.setattr(convergence, "_probe_states", recording)
                optimize_sequence(family, 13)
        return roots, css_calls

    def test_the_searches_rarely_need_a_log(self, final_probe_roots):
        _, css_calls = final_probe_roots
        assert css_calls < 1000

    @pytest.mark.parametrize("margin", [0.0, 1e-30, 0.1])
    @pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
    def test_verdicts_equal_the_key_fraction(self, final_probe_roots, family, margin):
        level = _probe_states(final_probe_roots[0][family], 0)
        for length in range(1, 14):
            level = _next_level(level)
            expected = [
                css_key_fraction(qx + qy, qy + qz) > margin
                for qx, qy, qz in zip(level[0::4], level[1::4], level[2::4])
            ]
            assert _screen(level, margin) == expected, length
