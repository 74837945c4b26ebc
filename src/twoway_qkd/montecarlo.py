"""Bit-level protocol runs and attack baselines.

Two layers:

* bit-level simulation of the prepare-and-measure protocol (announced
  parities, trio compression), which can only see bit errors; it carries
  only the Alice-xor-Bob error bits, and draws Alice's bits only to keep
  the seeded stream;
* intercept-resend attack baselines for BB84 and the six-state scheme,
  counted on error bits relative to Alice's.

Randomness uses numpy's PCG64 generator (period 2^128).  Streams are split
deterministically by seeding with ``[seed, stream_index]``: stream 0 draws
the initial population, stream k >= 1 draws the random blocks of round k.
Identical seeds give identical populations, pairings, and reports.

numpy is imported inside the functions that sample, so it loads on the first
Monte Carlo call; importing this module, as every analytic command does, does not.
"""

from __future__ import annotations

import math

from .channel import PauliChannelParams, _Record
from .convergence import StepSequence, evolve
from .steps import ProtocolClassError, StepKind, _BLOCK_SIZES


def _stream(seed: int, index: int) -> np.random.Generator:
    import numpy as np
    return np.random.default_rng([seed, index])


def _random_blocks(seed: int, index: int, size: int, block: int) -> list[np.ndarray]:
    """Random pairing (or trios) of ``size`` items, drawn from stream ``index``.

    Returns ``block`` index arrays of length ``size // block``: entry j of
    array i is member i of block j.  The ``size % block`` leftovers are
    dropped.
    """
    perm = _stream(seed, index).permutation(size)
    m = size // block
    return [perm[i : block * m : block] for i in range(block)]


class RoundReport(_Record):
    """Bit-level statistics of one protocol round."""

    def __init__(
        self, index: int, kind: StepKind, n_in: int, n_kept: int, disagreements: int,
        rate_hat: float, rate_pred: float, stderr: float,
    ) -> None:
        self.__dict__.update(
            index=index, kind=kind, n_in=n_in, n_kept=n_kept, disagreements=disagreements,
            rate_hat=rate_hat, rate_pred=rate_pred, stderr=stderr,
        )

    def to_dict(self) -> dict:
        return {
            "round": self.index,
            "kind": self.kind.value,
            "n_in": self.n_in,
            "n_kept": self.n_kept,
            "disagreements": self.disagreements,
            "rate_hat": self.rate_hat,
            "rate_pred": self.rate_pred,
            "stderr": self.stderr,
        }


class Protocol2Report(_Record):
    """Bit-level run of the advantage-distillation rounds."""

    def __init__(
        self, channel: PauliChannelParams, sequence: StepSequence, n: int, seed: int,
        rounds: tuple[RoundReport, ...],
    ) -> None:
        self.__dict__.update(channel=channel, sequence=sequence, n=n, seed=seed, rounds=rounds)

    def to_dict(self) -> dict:
        return {
            "channel": self.channel.to_dict(),
            "sequence": str(self.sequence),
            "n": self.n,
            "seed": self.seed,
            "rounds": [r.to_dict() for r in self.rounds],
        }


def simulate_protocol2_bits(
    channel: PauliChannelParams,
    seq: StepSequence,
    n: int,
    seed: int,
) -> Protocol2Report:
    """Simulate the announced-parity rounds on actual bit strings.

    Alice's random bits are corrupted at the channel's bit error rate
    (qx + qy; the phase components are invisible at bit level).  B rounds
    keep the first bit of each randomly formed pair iff the announced pair
    parities agree; P rounds replace each random trio by its parity.  The
    per-round disagreement rate is reported against the analytic recursion.
    A sequence holding the EPP-only step Bx is refused before any draw.

    Only the Alice-xor-Bob error bits are carried: a pair's parities agree
    iff its two error bits do, and a trio's parity error is the parity of
    its errors.  Alice's bits are drawn only to keep the seeded stream.
    """
    import numpy as np
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if StepKind.BX in seq.steps:
        raise ProtocolClassError(
            f"step {StepKind.BX} is EPP-only and cannot appear in a "
            "prepare-and-measure sequence"
        )
    traj = evolve(seq, channel)
    rng = _stream(seed, 0)
    rng.integers(0, 2, n, dtype=np.uint8)  # Alice's bits: keeps the flips' stream position
    err = (rng.random(n) < channel.pz).astype(np.uint8)

    rounds: list[RoundReport] = []
    for index, (kind, (qx, qy, _, _)) in enumerate(zip(seq.steps, traj.rounds), 1):
        size = err.size
        block = _BLOCK_SIZES[kind]
        if size < block:
            import logging
            logging.getLogger(__name__).warning("population exhausted before round %d", index)
            break
        e = [err[c] for c in _random_blocks(seed, index, size, block)]
        if kind is StepKind.B:
            err = np.compress(e[0] == e[1], e[0])
        else:  # P
            err = e[0] ^ e[1] ^ e[2]
        n_kept = int(err.size)
        disagreements = int(np.count_nonzero(err))
        pred = qx + qy
        rounds.append(
            RoundReport(
                index=index,
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


class AttackReport(_Record):
    """Sifted-key statistics under an intercept-resend attack."""

    def __init__(
        self, protocol: str, n: int, seed: int, sifted: int, sift_fraction: float, errors: int,
        error_rate: float, stderr: float,
    ) -> None:
        self.__dict__.update(
            protocol=protocol, n=n, seed=seed, sifted=sifted, sift_fraction=sift_fraction,
            errors=errors, error_rate=error_rate, stderr=stderr,
        )

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def intercept_resend(
    protocol: str,
    n: int,
    seed: int,
    eve_matches_basis: bool = False,
) -> AttackReport:
    """Simulate the intercept-resend attack and report the sifted error rate.

    States are (basis, bit) pairs with the measurement-collapse rule: same
    basis reads the bit faithfully, a different basis yields a uniformly
    random bit.  ``eve_matches_basis`` is a diagnostic mode in which Eve
    always measures in Alice's basis (no errors are introduced).  Only the
    error bits relative to Alice's are formed, not Eve's or Bob's bits.
    """
    import numpy as np
    if protocol not in ("bb84", "sixstate"):
        raise ValueError(f"unknown protocol {protocol!r}; expected bb84 or sixstate")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    n_bases = 2 if protocol == "bb84" else 3
    rng = _stream(seed, 0)
    # Bases are drawn as int64, which fixes the stream, and held as int8.
    alice_basis = rng.integers(0, n_bases, n).astype(np.int8)
    alice_bit = rng.integers(0, 2, n, dtype=np.uint8)
    if eve_matches_basis:
        eve_basis = alice_basis
    else:
        eve_basis = rng.integers(0, n_bases, n).astype(np.int8)
    # Error bits relative to Alice: Eve's random bit counts where her basis differs.
    err = rng.integers(0, 2, n, dtype=np.uint8)
    err ^= alice_bit
    err &= eve_basis != alice_basis
    bob_basis = rng.integers(0, n_bases, n).astype(np.int8)
    bob_reads_eve = bob_basis == eve_basis
    del eve_basis
    bob_err = rng.integers(0, 2, n, dtype=np.uint8)
    bob_err ^= alice_bit
    # Bob keeps Eve's error where his basis matches hers, else his own.
    err ^= bob_err
    err &= bob_reads_eve
    err ^= bob_err
    sifted_mask = bob_basis == alice_basis
    sifted = int(np.count_nonzero(sifted_mask))
    err &= sifted_mask
    errors = int(np.count_nonzero(err))
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
