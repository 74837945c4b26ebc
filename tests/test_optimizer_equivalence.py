"""The level-sweep optimizer against a per-candidate reference search.

``optimize_sequence`` screens each length once, on one breadth-first level
of probe states (``_probe_states``) at the best threshold of the shorter
candidates, grown by one round from the level before while that root holds.
``reference_optimize`` probes every candidate from scratch at the same
threshold and picks its winner by the documented rule, written out on its
own.  With ``best_so_far=True`` it probes at the best threshold so far
instead, the rule the prune followed before it read one root per length.
A level leaves out every string with a clearly separable prefix, which the
reference does not: ``TestProbeStates`` holds the levels to the unpruned
``reference_next_level`` and ``TestSeparability`` checks the drop in exact
arithmetic.
"""

import random
from array import array
from fractions import Fraction
from itertools import chain, compress, starmap
from math import nan
from operator import not_

import pytest
from conftest import CountingMaps, random_channels, traced_peak
from oracles import enumerate_step_rational

from twoway_qkd import StepKind, StepSequence, convergence, find_threshold, optimize_sequence
from twoway_qkd.convergence import (
    BRACKET_UPPER,
    DEFAULT_CSS_MARGIN,
    _CHUNK,
    _WIDTH,
    _converges,
    _css_viable,
    _evolve_rounds,
    _family_rates,
    _net_rate_near_threshold,
    _next_level,
    _probe_states,
    _screen,
    _separable,
    css_key_fraction,
)
from twoway_qkd.keyrates import NumericalError, bounds_table
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
@pytest.mark.parametrize("tol", [1e-2, 3e-2, 0.15])
@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_identical_to_reference_at_coarse_tol(family, tol, max_len):
    # A wide tol makes a wide near-tie set, whose winner depends on measuring
    # "within tol" from the highest threshold, not from the leader so far.
    # At tol 0.15, best - 2*tol <= 0 at every length: no level is built and
    # every candidate is bisected.
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


def clearly_separable(qx, qy, qz, ps=None):
    """The prune's test from its definition: no Bell weight above 1/2 less a relative 1e-9."""
    return max(1.0 - qx - qy - qz, qx, qy, qz) <= 0.5 * (1.0 - 1e-9)


def has_separable_prefix(root, length, bits):
    """Whether ``root``, or the state after one of the string's rounds in the kernel, is."""
    rounds = []
    _evolve_rounds(as_sequence(length, bits), root, rounds)
    return any(starmap(clearly_separable, (root, *rounds)))


def reference_next_level(shorter):
    """``_next_level`` unpruned, float by float: each map's tuples flattened by ``array.extend``."""
    out = array("d")
    states = memoryview(shorter)
    rates = states[0::_WIDTH], states[1::_WIDTH], states[2::_WIDTH]
    for kind in (StepKind.B, StepKind.P):
        out.extend(chain.from_iterable(map(_RATE_FUNCS[kind], *rates)))
    return out


def reference_levels(root, max_length):
    """Full levels of lengths 0 to ``max_length`` from ``root``, a string at ``_WIDTH * bits``.

    Each comes with the bits of its strings that have no clearly separable
    prefix: a string's parent is its bits less the top one.
    """
    full = array("d", (*root, 1.0))
    cut = [clearly_separable(*root)]
    for length in range(max_length + 1):
        if length:
            full = reference_next_level(full)
            half = 1 << (length - 1)
            cut = [cut[bits % half] or clearly_separable(*full[_WIDTH * bits : _WIDTH * bits + 3])
                   for bits in range(1 << length)]
        yield full, array("q", compress(range(1 << length), map(not_, cut)))


def kept_states(full, kept):
    states = (full[_WIDTH * bits : _WIDTH * (bits + 1)] for bits in kept)
    return array("d", chain.from_iterable(states))


#: Bytes a level build holds at its peak beside its two output arrays, per
#: state of the one chunk in flight: the chunk's (qx, qy, qz, ps) tuples and
#: their list, flags and packed copies, and the arrays' spare capacity.
#: 251 and 248 measured on builds of 15,470 and 32,768 states (CPython 3.10
#: and 3.11, 64-bit).
CHUNK_STATE_BYTES = 320


class TestProbeStates:
    @pytest.mark.parametrize("family,p", [("sixstate", 0.26), ("bb84_worst", 0.18)])
    def test_states_match_the_kernel(self, family, p):
        """A string is kept exactly when no prefix along the kernel's rounds is
        clearly separable, and its state is the kernel's, in ascending bits."""
        root = _family_rates(family, p)
        for length in range(1, 9):
            states, bits = _probe_states(root, length)
            assert len(states) == _WIDTH * len(bits)
            assert list(bits) == sorted(set(bits))
            for i, b in enumerate(bits):
                assert tuple(states[_WIDTH * i : _WIDTH * (i + 1)]) == final_state(root, length, b)
                assert not has_separable_prefix(root, length, b)
            dropped = set(range(1 << length)).difference(bits)
            assert all(has_separable_prefix(root, length, b) for b in dropped)
        assert dropped  # the prune acts at these roots

    def test_a_separable_root_has_no_states(self):
        root = _family_rates("bb84_worst", 0.26)
        for length in (0, 1, 5):
            assert _probe_states(root, length) == (array("d"), array("q"))

    @pytest.mark.parametrize(
        "family,p",
        [("sixstate", 0.2), ("sixstate", 0.26), ("bb84_worst", 0.15), ("bb84_worst", 0.19)],
    )
    def test_levels_across_chunks_match_the_reference(self, family, p):
        """Lengths 10-13 are built from one partial chunk of states per kind up to
        two or three chunks, each to the byte of the pruned reference level."""
        root = _family_rates(family, p)
        for length, (full, kept) in enumerate(reference_levels(root, 13)):
            if length == 12:
                assert len(kept) > _CHUNK  # length 13 maps more than one chunk a kind
            if length >= 10:
                states, bits = _probe_states(root, length)
                assert states.tobytes() == kept_states(full, kept).tobytes(), length
                assert bits == kept, length

    def test_a_level_build_holds_little_beside_its_output(self):
        """Packed chunks are appended as they are made, never joined into one
        whole level: a build peaks at its output plus one chunk in flight."""
        for p in (0.05, 0.2):  # nothing pruned, and about half
            shorter, bits = _probe_states(_family_rates("sixstate", p), 14)
            states, kept = _next_level(shorter, bits, 15)
            assert len(kept) > 15 * _CHUNK
            output = len(states) * states.itemsize + len(kept) * kept.itemsize
            peak = traced_peak(lambda: _next_level(shorter, bits, 15))
            assert peak <= output + CHUNK_STATE_BYTES * _CHUNK, p

    @pytest.mark.parametrize("length", range(1, 7))
    def test_one_map_evaluation_per_tree_node(self, monkeypatch, length):
        """Each kept state of the shorter lengths has its B and P child mapped once."""
        root = _family_rates("sixstate", 0.2)
        kept = sum(len(_probe_states(root, shorter)[1]) for shorter in range(length))
        maps = CountingMaps(monkeypatch)
        _probe_states(root, length)
        assert maps.calls == 2 * kept
        assert length < 3 or maps.calls < (2 << length) - 2  # a subtree is dropped from length 2


@pytest.mark.parametrize("family,calls", [("sixstate", 4_972), ("bb84_worst", 10_188)])
def test_map_calls_of_a_max_len_13_search(monkeypatch, family, calls):
    """Levels and bisections together; growing every state of each level took 17,682 and 22,368."""
    maps = CountingMaps(monkeypatch)
    optimize_sequence(family, 13)
    assert maps.calls == calls


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
        """On every state of each full level, and on the pruned level the search screens."""
        levels = reference_levels(final_probe_roots[0][family], 13)
        next(levels)
        for length, (full, kept) in enumerate(levels, 1):
            for states in (full, kept_states(full, kept)):
                expected = [
                    css_key_fraction(qx + qy, qy + qz) > margin
                    for qx, qy, qz in zip(*(states[i::_WIDTH] for i in range(3)))
                ]
                assert _screen(states, margin) == expected, length


def separable_weights(rng, count):
    """``count`` random Bell weights (qI, qx, qy, qz) as fractions, none above 1/2.

    Half of them have one weight exactly 1/2, in turn at each place; a fifth of
    those split the other half between fewer than three weights.
    """
    states = []
    while len(states) < count:
        if len(states) % 2:
            parts = [rng.randint(0, 60) for _ in range(4)]
            if 2 * max(parts) > sum(parts):
                continue
            states.append(tuple(Fraction(w, sum(parts)) for w in parts))
        else:
            place = len(states) // 2 % 4
            parts = [rng.randint(1, 60) for _ in range(3)]
            if len(states) % 5 == 0:
                parts[rng.randrange(3)] = 0
            rest = [Fraction(w, 2 * sum(parts)) for w in parts]
            states.append((*rest[:place], Fraction(1, 2), *rest[place:]))
    return states


class TestSeparability:
    """The prune is exact: it drops only strings that no round can make converge.

    In double precision a descendant of a separable state can read as
    entangled, and even as CSS-viable, so the prune's soundness is checked
    in exact arithmetic, never against the kernel's verdicts.
    """

    def test_no_round_makes_a_separable_state_entangled(self):
        states = separable_weights(random.Random(36), 160)
        for q in states:
            for kind in StepKind:
                out = enumerate_step_rational(kind, q)
                assert sum(out) == 1 and max(out) <= Fraction(1, 2), (kind, q, out)
        for q in states[:20]:
            for first in StepKind:
                once = enumerate_step_rational(first, q)
                for kind in StepKind:
                    twice = enumerate_step_rational(kind, once)
                    assert max(twice) <= Fraction(1, 2), (first, kind, q)

    @pytest.mark.parametrize("margin", [0.0, 1e-30, 0.1])
    def test_no_clearly_separable_state_is_css_viable(self, margin):
        near = [  # boundary states moved toward the maximally mixed one, to 1/2 - 1.025e-6
            tuple((1.0 - 4.1e-6) * float(w) + 1.025e-6 for w in q)
            for q in separable_weights(random.Random(1), 200)[0::2]
        ]
        sampled = [(c.qi, c.qx, c.qy, c.qz) for c in random_channels(4000, seed=36)]
        states = [q for q in near + sampled if max(q) <= 0.5 - 1e-6]
        assert len(states) > 1000
        assert not any(_css_viable(qx, qy, qz, margin) for _, qx, qy, qz in states)

    def test_the_predicate_keeps_every_weight_above_its_guard(self):
        assert _separable(0.25, 0.25, 0.25) and _separable(0.5 * (1 - 1e-9), 0.5 * (1 - 1e-9), 0.0)
        for place in range(3):
            state = [0.5 * (1.0 - 1e-9) * 0.4] * 3
            state[place] = 0.5 * (1.0 - 0.9e-9)
            assert not _separable(*state)
        assert not _separable(0.25, 0.2 - 1e-6, 0.05)  # qI = 0.5 + 1e-6
        assert not _separable(nan, 0.0, 0.0)  # noise never drops a state
        for q in separable_weights(random.Random(2), 100):
            _, qx, qy, qz = map(float, q)
            assert _separable(qx, qy, qz, 1.0) == clearly_separable(qx, qy, qz)

    @pytest.mark.parametrize("family,scheme", [("bb84_worst", "bb84"), ("sixstate", "sixstate")])
    def test_the_two_way_ceilings_are_the_separability_boundary(self, family, scheme):
        """Each family turns separable at its literal two-way ceiling, 1/4 or 1/3."""
        ceiling = bounds_table()[scheme]["two_way"]["upper"]
        assert not _separable(*_family_rates(family, ceiling - 1e-6))
        assert _separable(*_family_rates(family, ceiling + 1e-6))
        assert bounds_table()["sixstate"]["two_way"]["upper"] == BRACKET_UPPER
