"""The Monte Carlo functions against bit-carrying references.

``intercept_resend`` and ``simulate_protocol2_bits`` draw only what their
reports count: error bits relative to Alice instead of Alice's and Bob's
bits side by side.  ``reference_intercept_resend`` and
``reference_simulate_protocol2_bits`` run the full physical simulation with
the same draws from the package's generator, plus Alice's and Eve's random
bits from a second generator (:func:`bits_generator`) the package never
sees.  Every report must match theirs exactly for every ``(n, seed)``, and
must not change when those bits are complemented.  The references draw each
population array in one call, fair bits through ``integers(0, 2)``, form
blocks from index columns and select B-round survivors with boolean masks;
the package draws ``_CHUNK`` values at a time, fair bits as raw bytes,
takes strided views and compacts survivors chunk by chunk, so the sizes
below straddle the chunk boundaries.
"""

import math

import numpy as np
import pytest

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
    intercept_resend,
    simulate_protocol2_bits,
)
from twoway_qkd.steps import StepKind, _BLOCK_SIZES


def bits_generator(seed):
    """The generator of the bits the package does not draw."""
    return np.random.default_rng([seed, 1])


def adjacent_blocks(size, block):
    """Index columns of adjacent blocks: entry j of column i is ``block * j + i``."""
    m = size // block
    return [np.arange(i, block * m, block) for i in range(block)]


def reference_simulate_protocol2_bits(channel, seq, n, seed, bits=None):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if any(kind is StepKind.BX for kind in seq.steps):
        raise ProtocolClassError(
            "step Bx is EPP-only and cannot appear in a prepare-and-measure sequence"
        )
    traj = evolve(seq, channel)
    bits = bits_generator(seed) if bits is None else bits
    alice = bits.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (np.random.default_rng(seed).random(n) < channel.pz).astype(np.uint8)

    rounds = []
    for row in traj.to_rows():
        kind = StepKind(row["kind"])
        size = alice.size
        if size < _BLOCK_SIZES[kind]:
            break
        cols = adjacent_blocks(size, _BLOCK_SIZES[kind])
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


def reference_intercept_resend(protocol, n, seed, eve_matches_basis=False, bits=None):
    """Bob's random bit is drawn as whether it differs from Alice's bit, the
    one draw of the package that stands for a bit."""
    if protocol not in ("bb84", "sixstate"):
        raise ValueError(f"unknown protocol {protocol!r}; expected bb84 or sixstate")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    n_bases = 2 if protocol == "bb84" else 3
    rng = np.random.default_rng(seed)
    bits = bits_generator(seed) if bits is None else bits
    alice_basis = rng.integers(0, n_bases, n, dtype=np.uint8)
    alice_bit = bits.integers(0, 2, n, dtype=np.uint8)
    if eve_matches_basis:
        eve_basis = alice_basis
    else:
        eve_basis = rng.integers(0, n_bases, n, dtype=np.uint8)
    eve_bit = np.where(
        eve_basis == alice_basis, alice_bit, bits.integers(0, 2, n, dtype=np.uint8)
    )
    bob_basis = rng.integers(0, n_bases, n, dtype=np.uint8)
    bob_bit = np.where(
        bob_basis == eve_basis, eve_bit, alice_bit ^ rng.integers(0, 2, n, dtype=np.uint8)
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


class _Complemented:
    """:func:`bits_generator` with the bit draws numbered in ``draws`` (from
    1) complemented; every draw is made, so every later one is the same."""

    def __init__(self, seed, draws):
        self._rng = bits_generator(seed)
        self._draws = draws
        self.bit_draws = 0

    def integers(self, low, high, size, dtype):
        self.bit_draws += 1
        out = self._rng.integers(low, high, size, dtype=dtype)
        return out ^ 1 if self.bit_draws in self._draws else out


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
def test_attack_report_ignores_eve_bits(protocol, eve_matches_basis, n, seed):
    """Complementing Eve's random bits, or Alice's and Eve's, leaves the
    reference's report unchanged.

    Eve reads her own random bit only where her basis differs from Alice's;
    on a sifted position Bob's basis is Alice's, so it differs from Eve's and
    he reads his own random bit, never hers.  Complementing Alice's bits
    complements every bit Bob can read on a sifted position.  This is why the
    package draws neither.
    """
    args = (protocol, n, seed, eve_matches_basis)
    want = reference_intercept_resend(*args)
    for draws in ({2}, {1, 2}):
        bits = _Complemented(seed, draws)
        assert reference_intercept_resend(*args, bits=bits) == want
        assert bits.bit_draws == 2


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 5, 20000, *CHUNK_SIZES])
@pytest.mark.parametrize("case", sorted(SIMULATIONS))
def test_simulation_report_ignores_alice_bits(case, n, seed):
    """Complementing Alice's bits leaves the reference's report unchanged:
    it complements Bob's bits too, so no parity check or disagreement moves.
    This is why the package draws only the error bits."""
    channel, text = SIMULATIONS[case]
    args = (channel, parse_sequence(text), n, seed)
    bits = _Complemented(seed, {1})
    got = reference_simulate_protocol2_bits(*args, bits=bits)
    assert got.to_dict() == reference_simulate_protocol2_bits(*args).to_dict()
    assert bits.bit_draws == 1


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
