"""The single evolution kernel against the two full-length reference loops."""

import pytest
from conftest import CountingBuilds, CountingMaps, raw_rates

from twoway_qkd import (
    PauliChannelParams,
    evolve,
    parse_sequence,
    two_way_net_rate,
)
from twoway_qkd import convergence
from twoway_qkd.convergence import (
    ALTERNATING,
    _converges,
    _family_rates,
    channel_for_family,
    css_key_fraction,
    find_threshold,
)
from twoway_qkd.steps import _RATE_FUNCS, StepKind


def kind_at(seq, index):
    """Step kind of 1-based round ``index`` of ``seq``."""
    if seq.policy == ALTERNATING:
        return StepKind.B if index % 2 == 1 else StepKind.P
    return seq.steps[index - 1]


def observables(t):
    """Every observable of a trajectory, the derived ones read first."""
    return {
        "cumulative_yield": t.cumulative_yield,
        "final_bit_rate": t.final_bit_rate,
        "final_phase_rate": t.final_phase_rate,
        "css_rate": t.css_rate,
        "converged": t.converged,
        "diagnostic": t.diagnostic,
        "rounds": t.rounds,
        "to_rows": t.to_rows(),
    }


def assert_same_observables(t, expected):
    """Asserts that ``observables(t)`` has the reprs of ``expected``, the
    dict :func:`reference_evolve` returns.

    ``repr`` tells apart floats that compare equal, such as 0.0 and -0.0.
    The round-by-round observables are compared round by round, and a
    failure names the first differing round with both reprs, so a failing
    200-round run reports at once.
    """
    got = observables(t)
    assert list(got) == list(expected)
    for name in ("rounds", "to_rows"):  # first, so that a failure names its round
        value, want = got.pop(name), expected[name]
        assert (type(value), len(value)) == (type(want), len(want)), name
        for index, (a, b) in enumerate(zip(value, want), 1):
            if repr(a) != repr(b):
                pytest.fail(f"{name}, round {index}: {a!r} != {b!r}")
    for name, value in got.items():
        if repr(value) != repr(expected[name]):
            pytest.fail(f"{name}: {value!r} != {expected[name]!r}")


def reference_evolve(seq, c):
    """Recording loop that builds a channel after every round.

    Returns the observables of :func:`observables` by name.  Building each
    round's channel checks that its rates are finite and on the simplex.
    The yield factor of a round is ``0.5 * ps`` for B and Bx and ``1/3``
    for P.
    """
    margin = seq.css_margin
    rounds = []
    rows = []
    cur = c
    cum_yield = 1.0
    diagnostic = None

    def finish(converged):
        f1, f2 = cur.pz, cur.px
        return {
            "cumulative_yield": cum_yield,
            "final_bit_rate": f1,
            "final_phase_rate": f2,
            "css_rate": css_key_fraction(f1, f2),
            "converged": converged,
            "diagnostic": diagnostic,
            "rounds": tuple(rounds),
            "to_rows": rows,
        }

    if seq.policy == ALTERNATING:
        if css_key_fraction(cur.pz, cur.px) > margin:
            return finish(True)
        n_steps = seq.max_rounds
    else:
        n_steps = len(seq.steps)

    for index in range(1, n_steps + 1):
        kind = kind_at(seq, index)
        qx, qy, qz, ps = _RATE_FUNCS[kind](cur.qx, cur.qy, cur.qz)
        cur = PauliChannelParams(qx, qy, qz)
        cum_yield *= 1.0 / 3.0 if kind is StepKind.P else 0.5 * ps
        rounds.append((cur.qx, cur.qy, cur.qz, ps))
        rows.append(
            {
                "step_index": index,
                "kind": kind.value,
                "qx": cur.qx,
                "qy": cur.qy,
                "qz": cur.qz,
                "ps": ps,
                "yield": cum_yield,
            }
        )
        if seq.policy == ALTERNATING and css_key_fraction(cur.pz, cur.px) > margin:
            return finish(True)

    if seq.policy == ALTERNATING:
        diagnostic = f"no CSS viability within {seq.max_rounds} rounds"
        return finish(False)
    return finish(css_key_fraction(cur.pz, cur.px) > margin)


def reference_converges(seq, rates):
    """Record-free loop over the raw rates ``(qx, qy, qz)`` that runs every round."""
    margin = seq.css_margin
    qx, qy, qz = rates
    if seq.policy == ALTERNATING:
        if css_key_fraction(qx + qy, qy + qz) > margin:
            return True
        n_steps = seq.max_rounds
    else:
        n_steps = len(seq.steps)
    for index in range(1, n_steps + 1):
        qx, qy, qz, _ = _RATE_FUNCS[kind_at(seq, index)](qx, qy, qz)
        if seq.policy == ALTERNATING and css_key_fraction(qx + qy, qy + qz) > margin:
            return True
    if seq.policy == ALTERNATING:
        return False
    return css_key_fraction(qx + qy, qy + qz) > margin


SEQUENCES = [
    "alt:0", "alt:1", "alt:2", "alt:3", "alt:7", "alt:40", "alt:200",
    "BBBBB", "BBBBBPPPPPP", "BxBP",
]
P_GRID = [k / 100 for k in range(51)]
# Every channel with rates in multiples of 1/8, simplex edges included.
RAW_GRID = [
    PauliChannelParams(i / 8, j / 8, k / 8)
    for i in range(9) for j in range(9 - i) for k in range(9 - i - j)
]


def assert_identical(seq, channels):
    for c in channels:
        assert_same_observables(evolve(seq, c), reference_evolve(seq, c))
        assert _converges(seq, raw_rates(c)) == reference_converges(seq, raw_rates(c))


@pytest.mark.parametrize("text", SEQUENCES)
@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_identical_on_family_grid(family, text):
    assert_identical(parse_sequence(text), [channel_for_family(family, p) for p in P_GRID])


@pytest.mark.parametrize("text", SEQUENCES)
def test_identical_on_raw_channel_grid(text):
    assert_identical(parse_sequence(text), RAW_GRID)


@pytest.mark.parametrize("family", ["sixstate", "bb84_worst"])
def test_alternating_threshold_identical(monkeypatch, family):
    seq = parse_sequence("alt:200")
    found = find_threshold(seq, family)
    monkeypatch.setattr(convergence, "_converges", reference_converges)
    assert found == find_threshold(seq, family)


#: Points whose alt:200 run ends on a four-round cycle near (1/4, 1/4, 1/4):
#: no state equals the one two rounds before it.
PERIOD_FOUR = [
    ("sixstate", 0.268), ("sixstate", 0.274), ("sixstate", 0.299),
    ("bb84_worst", 0.282), ("bb84_worst", 0.298),
]


class TestCycleExit:
    """An alternating run stops computing once its state repeats."""

    @pytest.mark.parametrize("family, p", PERIOD_FOUR)
    def test_period_four_exit(self, monkeypatch, family, p):
        seq, c = parse_sequence("alt:200"), channel_for_family(family, p)
        expected = reference_evolve(seq, c)  # all 200 rounds computed
        maps = CountingMaps(monkeypatch)
        assert not _converges(seq, raw_rates(c))
        assert maps.calls < 30
        maps.calls = 0
        t = evolve(seq, c)
        assert maps.calls < 30
        assert_same_observables(t, expected)
        computed = maps.calls
        assert t.rounds[computed - 1][:3] != t.rounds[computed - 3][:3]
        assert all(t.rounds[k] is t.rounds[k - 4] for k in range(computed, 200))

    @pytest.mark.parametrize("text", [f"alt:{n}" for n in range(6)])
    @pytest.mark.parametrize("p", [0.298, 0.5], ids=["no-repeat", "repeat-at-round-3"])
    def test_short_alternations_that_diverge(self, text, p):
        # bb84_worst at p = 1/2 goes to (1/2, 0, 0) in round 1 and stays there
        seq, c = parse_sequence(text), channel_for_family("bb84_worst", p)
        t = evolve(seq, c)
        assert not t.converged and len(t.rounds) == seq.max_rounds
        assert_same_observables(t, reference_evolve(seq, c))
        assert not _converges(seq, raw_rates(c))

    def test_record_free_verdict(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        assert not _converges(parse_sequence("alt:200"), _family_rates("sixstate", 0.28))
        assert maps.calls < 40

    def test_trajectory_keeps_every_round(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        t = evolve(parse_sequence("alt:200"), channel_for_family("sixstate", 0.28))
        assert maps.calls < 40
        assert len(t.rounds) == 200
        assert [r["step_index"] for r in t.to_rows()] == list(range(1, 201))
        assert not t.converged
        assert t.diagnostic == "no CSS viability within 200 rounds"

    def test_repeated_rounds_copy_the_cycle(self):
        # BB84 at p = 0.2 reaches (0, 0, 1/2) at round 23, so the state
        # after round 25 repeats that after round 23.
        t = evolve(parse_sequence("alt:200"), channel_for_family("bb84_worst", 0.2))
        assert t.rounds[-1][:3] == (0.0, 0.0, 0.5)
        rows = t.to_rows()
        for r, prev in zip(rows[24:], rows[22:]):
            assert (r["kind"], r["qx"], r["qy"], r["qz"], r["ps"]) == (
                prev["kind"], prev["qx"], prev["qy"], prev["qz"], prev["ps"]
            )
            assert r["yield"] < prev["yield"]

    def test_fixed_strings_run_every_round(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        assert not _converges(parse_sequence("BP" * 100), _family_rates("sixstate", 0.28))
        assert maps.calls == 200

    @pytest.mark.parametrize("text", ["alt:3", "alt:200"])
    def test_periodic_from_the_start(self, monkeypatch, text):
        # six-state p = 1/2 is the channel (1/4, 1/4, 1/4), which B and P
        # both keep: round 3 starts from the starting state, so the run stops
        # after two rounds
        seq, c = parse_sequence(text), channel_for_family("sixstate", 0.5)
        expected = reference_evolve(seq, c)
        maps = CountingMaps(monkeypatch)
        assert not _converges(seq, raw_rates(c))
        assert maps.calls == 2
        maps.calls = 0
        assert_same_observables(evolve(seq, c), expected)
        assert maps.calls == 2

    @pytest.mark.parametrize("text, computed", [("alt:20", 20), ("alt:21", 21), ("alt:22", 21)])
    def test_cycle_that_shows_at_the_last_round(self, monkeypatch, text, computed):
        # six-state p = 0.28: the state after round 21 is the first to repeat
        # the one two rounds before it, so only alt:22 has a round to pad
        seq, c = parse_sequence(text), channel_for_family("sixstate", 0.28)
        expected, verdict = reference_evolve(seq, c), reference_converges(seq, raw_rates(c))
        maps = CountingMaps(monkeypatch)
        assert _converges(seq, raw_rates(c)) == verdict
        assert maps.calls == computed
        maps.calls = 0
        t = evolve(seq, c)
        assert maps.calls == computed
        assert_same_observables(t, expected)
        states = [r[:3] for r in t.rounds]
        assert [k for k in range(2, computed) if states[k] == states[k - 2]] == (
            [20] if computed == 21 else []
        )


class TestLazyRecords:
    """A trajectory keeps raw rounds and builds its rows on read.

    Verdicts, trajectories, their rows and net rates build no channel.
    """

    def test_diverged_alternation_builds_nothing(self, monkeypatch):
        seq, c = parse_sequence("alt:200"), channel_for_family("sixstate", 0.28)
        maps = CountingMaps(monkeypatch)
        builds = CountingBuilds(monkeypatch, PauliChannelParams)
        assert not _converges(seq, raw_rates(c))
        t = evolve(seq, c)
        assert not t.converged
        assert len(t.to_rows()) == 200
        assert two_way_net_rate(t).rate is None
        assert maps.calls == 2 * 21
        assert builds.built == 0

    def test_net_rate_builds_nothing(self, monkeypatch):
        seq, c = parse_sequence("BBBBB"), channel_for_family("sixstate", 0.2)
        builds = CountingBuilds(monkeypatch, PauliChannelParams)
        assert two_way_net_rate(evolve(seq, c)).rate > 0.0
        assert builds.built == 0

    def test_padded_records_repeat_their_channel(self, monkeypatch):
        maps = CountingMaps(monkeypatch)
        t = evolve(parse_sequence("alt:200"), channel_for_family("sixstate", 0.28))
        rows = t.to_rows()
        assert maps.calls == 21
        assert len(t.rounds) == len(rows) == 200
        assert all(t.rounds[k] == t.rounds[k - 2] for k in range(21, 200))
        assert all(
            (rows[k]["qx"], rows[k]["qy"], rows[k]["qz"], rows[k]["ps"])
            == (rows[k - 2]["qx"], rows[k - 2]["qy"], rows[k - 2]["qz"], rows[k - 2]["ps"])
            for k in range(21, 200)
        )
