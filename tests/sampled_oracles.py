"""Flag-level Monte Carlo: a sampled oracle for the maps in ``twoway_qkd.steps``.

Ensembles of per-pair (bit-flip, phase-flip) error flags are pushed through
B, P or Bx rounds by :func:`flag_round`; their empirical rates must track
the closed-form maps.  It is the only sampled check of the phase and Y
rates, which the bit-level protocol run cannot see.

Random blocks come from seeded streams split by :func:`_stream`: stream 0
draws the initial ensemble and stream k >= 1 the blocks of round k, as index
columns from :func:`_random_blocks`, so identical seeds give identical
ensembles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from twoway_qkd import PauliChannelParams, StepKind
from twoway_qkd.steps import _BLOCK_SIZES

logger = logging.getLogger(__name__)


def _stream(seed: int, index: int) -> np.random.Generator:
    """PCG64 stream ``index`` of ``seed``."""
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


@dataclass
class FlagEnsemble:
    """Population of per-pair (x, z) error flags with its RNG bookkeeping.

    ``x``/``z`` are uint8 arrays (1 = error present); ``round_index``
    counts applied rounds and selects the next RNG stream.
    """

    x: np.ndarray
    z: np.ndarray
    seed: int
    round_index: int = 0

    def __len__(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class EmpiricalRates:
    """Frequency estimates of the X/Y/Z flag categories."""

    qx_hat: float
    qy_hat: float
    qz_hat: float
    n: int
    stderr: tuple[float, float, float]


def sample_flags(c: PauliChannelParams, n: int, seed: int) -> FlagEnsemble:
    """Draw n independent error-flag pairs from the channel distribution."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    u = _stream(seed, 0).random(n)
    # Categories by cumulative rate: [0,qx) X, [qx,qx+qy) Y, then Z, then I.
    x = u < c.qx + c.qy
    z = (u >= c.qx) & (u < c.qx + c.qy + c.qz)
    return FlagEnsemble(x.astype(np.uint8), z.astype(np.uint8), seed)


def estimate_rates(e: FlagEnsemble) -> EmpiricalRates:
    """Empirical X/Y/Z rates with per-component binomial standard errors."""
    n = len(e)
    if n == 0:
        raise ValueError("cannot estimate rates of an empty ensemble")
    x = e.x.astype(bool)
    z = e.z.astype(bool)
    qx = float(np.count_nonzero(x & ~z)) / n
    qy = float(np.count_nonzero(x & z)) / n
    qz = float(np.count_nonzero(~x & z)) / n
    se = tuple(math.sqrt(q * (1.0 - q) / n) for q in (qx, qy, qz))
    return EmpiricalRates(qx, qy, qz, n, se)


def flag_round(e: FlagEnsemble, kind: StepKind) -> FlagEnsemble:
    """Apply one ``kind`` round to a flag ensemble over random blocks.

    B keeps the first pair of each random pair iff the x flags agree, with
    flags ``(x1, z1 ^ z2)``; Bx is its phase-basis mirror; P keeps one member
    of each random trio with flags ``(x1 ^ x2 ^ x3, majority(z1, z2, z3))``.
    """
    block = _BLOCK_SIZES[kind]
    if len(e) < block:
        raise ValueError(f"need at least {block} flags for a {kind} round, got {len(e)}")
    cols = _random_blocks(e.seed, e.round_index + 1, len(e), block)
    x = [e.x[c] for c in cols]
    z = [e.z[c] for c in cols]
    if kind is StepKind.B:
        keep = x[0] == x[1]
        new_x = x[0][keep]
        new_z = (z[0] ^ z[1])[keep]
    elif kind is StepKind.BX:
        keep = z[0] == z[1]
        new_x = (x[0] ^ x[1])[keep]
        new_z = z[0][keep]
    else:  # P: parity of bit flags, majority of phase flags; nothing discarded
        new_x = x[0] ^ x[1] ^ x[2]
        new_z = ((z[0].astype(np.int16) + z[1] + z[2]) >= 2).astype(np.uint8)
    if new_x.size == 0:
        logger.warning("%s round left no survivors (n=%d)", kind, len(e))
    return FlagEnsemble(new_x, new_z, e.seed, e.round_index + 1)
