"""The Monte Carlo functions against verbatim copies of their earlier forms.

``intercept_resend`` and ``simulate_protocol2_bits`` compute only what their
reports count: error bits relative to Alice instead of Alice's and Bob's
bits side by side.  ``reference_intercept_resend`` and
``reference_simulate_protocol2_bits`` are the bit-carrying forms they
replaced, kept here unchanged, and every report must match theirs exactly
for every ``(n, seed)``: same draws, same pairings, same counts.  The
references draw each population array in one call and pair by index
columns (``sampled_oracles._random_blocks``); the package draws ``_CHUNK``
values at a time and shuffles the error bits in place, so the sizes below
straddle the chunk boundaries.
"""

import math

import numpy as np
import pytest

from sampled_oracles import _random_blocks
from twoway_qkd import (
    PauliChannelParams,
    ProtocolClassError,
    bb84_family,
    parse_sequence,
    sixstate_channel,
)
from twoway_qkd.convergence import evolve
from twoway_qkd.montecarlo import (
    AttackReport,
    Protocol2Report,
    RoundReport,
    _CHUNK,
    _shuffled_blocks,
    _stream,
    intercept_resend,
    simulate_protocol2_bits,
)
from twoway_qkd.steps import StepKind, _BLOCK_SIZES


def reference_simulate_protocol2_bits(channel, seq, n, seed):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if any(kind is StepKind.BX for kind in seq.steps):
        raise ProtocolClassError(
            "step Bx is EPP-only and cannot appear in a prepare-and-measure sequence"
        )
    traj = evolve(seq, channel)
    rng = _stream(seed, 0)
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (rng.random(n) < channel.pz).astype(np.uint8)

    rounds = []
    for row in traj.to_rows():
        kind = StepKind(row["kind"])
        size = alice.size
        if size < _BLOCK_SIZES[kind]:
            break
        cols = _random_blocks(seed, row["step_index"], size, _BLOCK_SIZES[kind])
        if kind is StepKind.B:
            keep = (alice[cols[0]] ^ alice[cols[1]]) == (bob[cols[0]] ^ bob[cols[1]])
            alice = alice[cols[0]][keep]
            bob = bob[cols[0]][keep]
        else:  # P
            alice = alice[cols[0]] ^ alice[cols[1]] ^ alice[cols[2]]
            bob = bob[cols[0]] ^ bob[cols[1]] ^ bob[cols[2]]
        n_kept = int(alice.size)
        disagreements = int(np.count_nonzero(alice != bob))
        pred = PauliChannelParams(row["qx"], row["qy"], row["qz"]).pz
        rounds.append(
            RoundReport(
                index=row["step_index"],
                kind=kind,
                n_in=size,
                n_kept=n_kept,
                disagreements=disagreements,
                rate_hat=disagreements / n_kept if n_kept else 0.0,
                rate_pred=pred,
                stderr=math.sqrt(pred * (1.0 - pred) / n_kept) if n_kept else 0.0,
            )
        )
        if n_kept == 0:
            break
    return Protocol2Report(channel, seq, n, seed, tuple(rounds))


def reference_intercept_resend(protocol, n, seed, eve_matches_basis=False):
    if protocol not in ("bb84", "sixstate"):
        raise ValueError(f"unknown protocol {protocol!r}; expected bb84 or sixstate")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    n_bases = 2 if protocol == "bb84" else 3
    rng = _stream(seed, 0)
    alice_basis = rng.integers(0, n_bases, n)
    alice_bit = rng.integers(0, 2, n, dtype=np.uint8)
    if eve_matches_basis:
        eve_basis = alice_basis
    else:
        eve_basis = rng.integers(0, n_bases, n)
    eve_bit = np.where(
        eve_basis == alice_basis, alice_bit, rng.integers(0, 2, n, dtype=np.uint8)
    )
    bob_basis = rng.integers(0, n_bases, n)
    bob_bit = np.where(
        bob_basis == eve_basis, eve_bit, rng.integers(0, 2, n, dtype=np.uint8)
    )
    sifted_mask = bob_basis == alice_basis
    sifted = int(np.count_nonzero(sifted_mask))
    errors = int(np.count_nonzero(alice_bit[sifted_mask] != bob_bit[sifted_mask]))
    rate = errors / sifted if sifted else 0.0
    return AttackReport(
        protocol=protocol,
        n=n,
        seed=seed,
        sifted=sifted,
        sift_fraction=sifted / n,
        errors=errors,
        error_rate=rate,
        stderr=math.sqrt(rate * (1.0 - rate) / sifted) if sifted else 0.0,
    )


class _EveBitsComplemented:
    """A generator ``rng`` with Eve's random bits complemented.

    ``reference_intercept_resend`` draws three bit arrays, Alice's, Eve's and
    Bob's in that order.  This generator complements the second and passes
    every draw through otherwise unchanged, so every later draw is the same.
    """

    def __init__(self, rng):
        self._rng = rng
        self.bit_draws = 0

    def integers(self, low, high, size, dtype=np.int64):
        out = self._rng.integers(low, high, size, dtype=dtype)
        if dtype is np.uint8:
            self.bit_draws += 1
            if self.bit_draws == 2:
                out ^= 1
        return out


SEEDS = [0, 1, 2, 7, 12345]
CHUNK_SIZES = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 7, 20000, *CHUNK_SIZES])
@pytest.mark.parametrize("eve_matches_basis", [False, True])
@pytest.mark.parametrize("protocol", ["bb84", "sixstate"])
def test_attack_report_matches_reference(protocol, eve_matches_basis, n, seed):
    got = intercept_resend(protocol, n, seed, eve_matches_basis=eve_matches_basis)
    want = reference_intercept_resend(protocol, n, seed, eve_matches_basis=eve_matches_basis)
    assert got == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 7, 20000, *CHUNK_SIZES])
@pytest.mark.parametrize("eve_matches_basis", [False, True])
@pytest.mark.parametrize("protocol", ["bb84", "sixstate"])
def test_attack_report_ignores_eve_bits(protocol, eve_matches_basis, n, seed, monkeypatch):
    """Complementing Eve's random bits leaves the reference's report unchanged.

    Eve reads her own random bit only where her basis differs from Alice's;
    on a sifted position Bob's basis is Alice's, so it differs from Eve's and
    he reads his own random bit, never hers.  This is why the package draws
    Eve's bits only to keep the stream.
    """
    args = (protocol, n, seed, eve_matches_basis)
    want = reference_intercept_resend(*args)
    streams = []

    def complemented(seed, index, stream=_stream):
        streams.append(_EveBitsComplemented(stream(seed, index)))
        return streams[-1]

    monkeypatch.setitem(globals(), "_stream", complemented)
    got = reference_intercept_resend(*args)
    assert [s.bit_draws for s in streams] == [3]
    assert got == want


SIMULATIONS = {
    "bb84 BBBBBPPPPPP": (bb84_family(0.15, 0.0), "BBBBBPPPPPP"),
    "bb84 BBPP": (bb84_family(0.1, 0.02), "BBPP"),
    "sixstate BBBBB": (sixstate_channel(0.2), "BBBBB"),
    "sixstate PB": (sixstate_channel(0.05), "PB"),
    # converges after a few of its 50 rounds
    "sixstate alt:50": (sixstate_channel(0.2), "alt:50"),
    # diverges: its rounds past the repeated state are copies of the cycle
    "sixstate alt:40": (sixstate_channel(0.28), "alt:40"),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 5, 20000, *CHUNK_SIZES])
@pytest.mark.parametrize("case", sorted(SIMULATIONS))
def test_simulation_report_matches_reference(case, n, seed):
    channel, text = SIMULATIONS[case]
    seq = parse_sequence(text)
    got = simulate_protocol2_bits(channel, seq, n, seed)
    want = reference_simulate_protocol2_bits(channel, seq, n, seed)
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("size", [3, 4, 7, 1000, _CHUNK + 1])
@pytest.mark.parametrize("block", [2, 3])
def test_shuffled_blocks_match_index_columns(block, size):
    """The in-place shuffle's strided views hold the bits the index columns pick."""
    bits = (_stream(99, 0).random(size) < 0.4).astype(np.uint8)
    want = [bits[c] for c in _random_blocks(5, 3, size, block)]
    got = _shuffled_blocks(5, 3, bits.copy(), block)
    assert len(got) == block
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n", [0, 1, 20000])
@pytest.mark.parametrize("text", ["Bx", "BxBP", "BBx", "PPBx"])
def test_bx_rejected_like_reference(text, n):
    """A sequence holding Bx is refused by both forms, after the n check."""
    args = (sixstate_channel(0.05), parse_sequence(text), n, 3)
    with pytest.raises(ValueError) as got:
        simulate_protocol2_bits(*args)
    with pytest.raises(ValueError) as want:
        reference_simulate_protocol2_bits(*args)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert type(got.value) is (ValueError if n == 0 else ProtocolClassError)


def test_grid_reaches_both_early_exits():
    """The grid above hits a population-exhausted stop and a zero-survivor stop."""
    exhausted = zero_survivors = False
    for channel, text in SIMULATIONS.values():
        seq = parse_sequence(text)
        for n in (1, 2, 5):
            for seed in SEEDS:
                rounds = reference_simulate_protocol2_bits(channel, seq, n, seed).rounds
                if rounds and rounds[-1].n_kept == 0:
                    zero_survivors = True
                elif len(rounds) < len(evolve(seq, channel).rounds):
                    exhausted = True
    assert exhausted and zero_survivors
