"""Bit-level protocol runs and attack baselines.

Two layers:

* bit-level simulation of the prepare-and-measure protocol (announced
  parities, trio compression), which can only see bit errors; it draws and
  carries only the Alice-xor-Bob error bits;
* intercept-resend attack baselines for BB84 and the six-state scheme; a
  sifted error needs Eve in another basis than Alice's and Bob's own random
  bit unlike Alice's, so only the bases and that difference are drawn.

Randomness uses one numpy PCG64 generator per call, seeded with ``seed``,
and only what a report reads is drawn from it.  Identical seeds give
identical populations, blocks and reports.

Every population array holds one byte a sample.  The error bits come from
float64 uniforms drawn ``_CHUNK`` values at a time straight into such an
array, so no array of n float64 values is ever held.  A fair bit is the top
bit of a random byte from ``rng.bytes``: the value and stream use of
``rng.integers(0, 2, dtype=np.uint8)``, whose bounded method returns that
top bit.  A B round compacts its survivors into the front of the
population buffer ``_CHUNK`` pairs at a time, so no index array over the
whole round is held.

numpy is imported inside the functions that sample, so it loads on the first
Monte Carlo call; importing this module, as every analytic command does, does not.
"""

from __future__ import annotations

import math

from .channel import PauliChannelParams, _Record
from .convergence import StepSequence, evolve
from .steps import ProtocolClassError, StepKind, _BLOCK_SIZES

# Values per draw call.  A float64 takes one 64-bit word, and a multiple of 4
# fair bits takes whole 32-bit words, so a chunked draw consumes the stream
# exactly as one whole-array call does.
_CHUNK = 2**16


def _fair_bits(rng, n: int):
    """``rng.integers(0, 2, n, dtype=np.uint8)``, values and stream position."""
    import numpy as np
    out = np.empty(n, np.uint8)
    for start in range(0, n, _CHUNK):
        raw = np.frombuffer(rng.bytes(min(_CHUNK, n - start)), np.uint8)
        np.right_shift(raw, 7, out=out[start : start + _CHUNK])
    return out


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
    keep the first bit of each pair iff the announced pair parities agree;
    P rounds replace each trio by its parity.  The per-round disagreement
    rate is reported against the analytic recursion.  A sequence holding
    the EPP-only step Bx is refused before any draw.

    Only the Alice-xor-Bob error bits are drawn and carried: a pair's
    parities agree iff its two error bits do, and a trio's parity error is
    the parity of its errors.  Each round's blocks are adjacent items,
    ``(block * j, ..., block * j + block - 1)``, and the leftovers are
    dropped.  The error bits are i.i.d., and so are a B round's survivors
    and a P round's parities over disjoint blocks, so this fixed pairing
    gives every report the distribution of a random one.
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
    rng = np.random.default_rng(seed)
    err = np.empty(n, np.uint8)
    for start in range(0, n, _CHUNK):
        np.less(rng.random(min(_CHUNK, n - start)), channel.pz, out=err[start : start + _CHUNK])

    rounds: list[RoundReport] = []
    for index, (kind, (qx, qy, _, _)) in enumerate(zip(seq.steps, traj.rounds), 1):
        size = err.size
        block = _BLOCK_SIZES[kind]
        if size < block:
            import logging
            logging.getLogger(__name__).warning("population exhausted before round %d", index)
            break
        m = size // block
        e = [err[i : block * m : block] for i in range(block)]
        if kind is StepKind.B:
            kept = 0  # survivors so far, written over pairs already read
            for start in range(0, m, _CHUNK):
                first = e[0][start : start + _CHUNK]
                survivors = np.compress(first == e[1][start : start + _CHUNK], first)
                err[kept : kept + survivors.size] = survivors
                kept += survivors.size
            err = err[:kept]
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
    always measures in Alice's basis (no errors are introduced).

    On a sifted position Bob's basis is Alice's.  If Eve's is too, she
    resends Alice's bit and Bob reads it; otherwise Bob's basis differs from
    Eve's and he reads his own random bit.  So a sifted error is exactly Eve
    in another basis than Alice's and Bob's random bit unlike Alice's.  Only
    the bases and whether Bob's random bit differs from Alice's are drawn;
    no party's bit reaches the report, so none is drawn.
    """
    import numpy as np
    if protocol not in ("bb84", "sixstate"):
        raise ValueError(f"unknown protocol {protocol!r}; expected bb84 or sixstate")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    n_bases = 2 if protocol == "bb84" else 3
    rng = np.random.default_rng(seed)

    def bases() -> np.ndarray:
        # a range of 3 redraws a zero byte, so six-state bases stay with integers
        return _fair_bits(rng, n) if n_bases == 2 else rng.integers(0, 3, n, dtype=np.uint8)

    alice_basis = bases()
    eve_differs = 0  # whether Eve's basis is not Alice's
    if not eve_matches_basis:
        eve_differs = bases()
        np.not_equal(eve_differs, alice_basis, out=eve_differs)
    sifted_mask = np.equal(bases(), alice_basis, out=alice_basis)  # Bob's basis is Alice's
    err = _fair_bits(rng, n)  # whether Bob's random bit is not Alice's
    err &= eve_differs
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
