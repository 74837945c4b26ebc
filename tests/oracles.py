"""Independent oracles for the one-round maps in ``twoway_qkd.steps``.

Three references that share no formula with the package's maps:

* :func:`enumerate_step_exact` propagates every Pauli configuration on one
  block through a round's keep/discard/correct logic
  (:func:`enumerate_step_rational` does so in the arithmetic of its
  weights, exact on fractions);
* the (pz, px, delta) reparametrization, :class:`DeltaCoords`, with the B
  and P maps written in it.  The argument that a = 0 is the worst BB84
  channel (delta >= 0 and 1 - 2 pz - 2 delta > 0 are preserved) is carried
  out in these coordinates;
* the bias recursion, :data:`BIAS_MAPS`, which carries the biases
  (lambda_Z, lambda_X, lambda_Y) of :func:`biases` through each round.

The tests compare them with ``steps._RATE_FUNCS``, the maps the package
applies.  :data:`MAX_CLAMPED_MAPS` holds the package's formulas with their
earlier ``max(0.0, ...)`` clamps, the bit-for-bit reference for its branch
clamps; its Bx entry is the X<->Z mirror (:func:`xz_mirror`) of its B entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

from twoway_qkd import PauliChannelParams, StepKind
from twoway_qkd.channel import SIMPLEX_TOL
from twoway_qkd.steps import _RATE_FUNCS


@dataclass(frozen=True)
class DeltaCoords:
    """The (pz, px, delta) reparametrization of a Pauli channel.

    ``pz = qx + qy`` is the bit error rate, ``px = qy + qz`` the phase error
    rate and ``delta = qz - qy`` the signed split between the two
    unobservable components.  A valid instance always corresponds to a
    valid channel: the recovered rates ``qy = (px - delta)/2``,
    ``qz = (px + delta)/2``, ``qx = pz - qy`` and the implied ``qi`` must all
    be non-negative (within ``SIMPLEX_TOL``).
    """

    pz: float
    px: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("pz", "px", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if abs(self.delta) > self.px + SIMPLEX_TOL:
            raise ValueError(
                f"|delta| must be <= px, got delta={self.delta}, px={self.px}"
            )
        qy = 0.5 * (self.px - self.delta)
        qz = 0.5 * (self.px + self.delta)
        qx = self.pz - qy
        if qx < -SIMPLEX_TOL:
            raise ValueError(
                f"recovered qx = pz - (px - delta)/2 must be >= 0, got {qx}"
            )
        qi = 1.0 - self.pz - qz
        if qi < -SIMPLEX_TOL:
            raise ValueError(
                f"recovered qi = 1 - pz - (px + delta)/2 must be >= 0, got {qi}"
            )

    def to_channel(self) -> PauliChannelParams:
        """Invert the change of variables back to (qx, qy, qz)."""
        qy = 0.5 * (self.px - self.delta)
        qz = 0.5 * (self.px + self.delta)
        qx = self.pz - qy
        return PauliChannelParams(qx, qy, qz)


def to_delta(c: PauliChannelParams) -> DeltaCoords:
    """Change of variables to (pz, px, delta) coordinates."""
    return DeltaCoords(c.qx + c.qy, c.qy + c.qz, c.qz - c.qy)


def swap_xz(c: PauliChannelParams) -> PauliChannelParams:
    """Exchange the roles of bit and phase errors (X <-> Z conjugation)."""
    return PauliChannelParams(c.qz, c.qy, c.qx)


def _b_delta(pz: float, px: float, delta: float) -> tuple[float, float, float]:
    """Raw B-step map in (pz, px, delta) coordinates."""
    ps = 1.0 - 2.0 * pz + 2.0 * pz * pz
    return (
        pz * pz / ps,
        (px - px * px + delta * (1.0 - 2.0 * pz - delta)) / ps,
        (px * (1.0 - 2.0 * pz) + delta * (1.0 - 2.0 * px)) / ps,
    )


def _p_delta(pz: float, px: float, delta: float) -> tuple[float, float, float]:
    """Raw P-step map in (pz, px, delta) coordinates."""
    return (
        3.0 * pz * (1.0 - pz) ** 2 + pz**3,
        3.0 * px * px * (1.0 - px) + px**3,
        3.0 * delta * delta * (1.0 - 2.0 * pz - delta) + delta**3,
    )


def b_step_delta(d: DeltaCoords) -> DeltaCoords:
    """B-step map in (pz, px, delta) coordinates."""
    return DeltaCoords(*_b_delta(d.pz, d.px, d.delta))


def p_step_delta(d: DeltaCoords) -> DeltaCoords:
    """P-step map in (pz, px, delta) coordinates."""
    return DeltaCoords(*_p_delta(d.pz, d.px, d.delta))


def rates_in_delta(kind: StepKind, pz: float, px: float, delta: float) -> tuple[float, float, float]:
    """The package's map for ``kind`` (``_RATE_FUNCS``), read in (pz, px, delta)."""
    qy = 0.5 * (px - delta)
    qz = 0.5 * (px + delta)
    qx, qy, qz, _ = _RATE_FUNCS[kind](pz - qy, qy, qz)
    return qx + qy, qy + qz, qz - qy


def biases(qx: float, qy: float, qz: float) -> tuple[float, float, float]:
    """The biases (lambda_Z, lambda_X, lambda_Y): 1 - 2 x the error rate of Z, X and Y measurements.

    ``qx + qy`` flips Z (the bit error rate), ``qy + qz`` flips X (the phase
    error rate) and ``qx + qz`` flips Y.
    """
    return 1.0 - 2.0 * (qx + qy), 1.0 - 2.0 * (qy + qz), 1.0 - 2.0 * (qx + qz)


def _b_bias(lz: float, lx: float, ly: float) -> tuple[float, float, float]:
    """B-step map on the biases."""
    d = 1.0 + lz * lz
    return 2.0 * lz / d, (lx * lx + ly * ly) / d, 2.0 * lx * ly / d


def _p_bias(lz: float, lx: float, ly: float) -> tuple[float, float, float]:
    """P-step map on the biases."""
    return lz**3, 0.5 * lx * (3.0 - lx * lx), 0.5 * ly * (3.0 * lz * lz - ly * ly)


def _bx_bias(lz: float, lx: float, ly: float) -> tuple[float, float, float]:
    """Bx-step map on the biases: B with lambda_Z and lambda_X exchanged."""
    nlx, nlz, nly = _b_bias(lx, lz, ly)
    return nlz, nlx, nly


BIAS_MAPS = {StepKind.B: _b_bias, StepKind.P: _p_bias, StepKind.BX: _bx_bias}


# Flag categories in (x, z) form: identity, X, Y, Z.
_FLAGS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _kept_products(kind: StepKind, prob: dict) -> dict:
    """Probability product of every configuration on one block that a ``kind`` round keeps.

    ``prob`` maps each flag category to its weight; the products are listed
    under the flags of the pair the round keeps.  They are formed with ``*``
    alone, so exact weights give exact products.
    """
    kept: dict[tuple[int, int], list] = {f: [] for f in _FLAGS}
    if kind is StepKind.P:
        for f1 in _FLAGS:
            for f2 in _FLAGS:
                for f3 in _FLAGS:
                    x = f1[0] ^ f2[0] ^ f3[0]
                    z = 1 if f1[1] + f2[1] + f3[1] >= 2 else 0
                    kept[(x, z)].append(prob[f1] * prob[f2] * prob[f3])
    else:
        for f1 in _FLAGS:
            for f2 in _FLAGS:
                if kind is StepKind.B:
                    if f1[0] != f2[0]:
                        continue
                    out = (f1[0], f1[1] ^ f2[1])
                else:  # Bx
                    if f1[1] != f2[1]:
                        continue
                    out = (f1[0] ^ f2[0], f1[1])
                kept[out].append(prob[f1] * prob[f2])
    return kept


def enumerate_step_exact(
    kind: StepKind, c: PauliChannelParams
) -> tuple[PauliChannelParams, float, float]:
    """Exhaust all Pauli configurations on one block.

    Propagates per-pair error flags through the step's keep/discard/correct
    logic over all 16 (B/Bx) or 64 (P) configurations, accumulating category
    probabilities with exact summation.  Returns the channel after the
    round, the block survival probability and the kept fraction of the
    population; must reproduce the closed-form map to ~1e-15.
    """
    kept = _kept_products(kind, {(0, 0): c.qi, (1, 0): c.qx, (1, 1): c.qy, (0, 1): c.qz})
    total = fsum(p for bucket in kept.values() for p in bucket)
    survival = 1.0 if kind is StepKind.P else total
    yield_factor = 1.0 / 3.0 if kind is StepKind.P else 0.5 * total
    params = PauliChannelParams(
        fsum(kept[(1, 0)]) / total,
        fsum(kept[(1, 1)]) / total,
        fsum(kept[(0, 1)]) / total,
    )
    return params, survival, yield_factor


def enumerate_step_rational(kind: StepKind, q: tuple) -> tuple:
    """Bell weights (qI, qx, qy, qz) after a ``kind`` round, in the arithmetic of ``q``'s weights.

    The enumeration of :func:`enumerate_step_exact`, summed with ``sum``: on
    :class:`fractions.Fraction` weights every output weight is exact.
    """
    kept = _kept_products(kind, dict(zip(_FLAGS, q)))
    total = sum(p for bucket in kept.values() for p in bucket)
    return tuple(sum(kept[f]) / total for f in _FLAGS)


def _b_rates_max(qx: float, qy: float, qz: float) -> tuple[float, float, float, float]:
    """B map with ``max(0.0, ...)`` clamps."""
    pz = qx + qy
    ps = 1.0 - 2.0 * pz * (1.0 - pz)
    qi = 1.0 - qx - qy - qz
    return (
        max(0.0, (qx * qx + qy * qy) / ps),
        max(0.0, 2.0 * qx * qy / ps),
        max(0.0, 2.0 * qi * qz / ps),
        ps,
    )


def _p_rates_max(qx: float, qy: float, qz: float) -> tuple[float, float, float, float]:
    """P map with ``max(0.0, ...)`` clamps."""
    qi = 1.0 - qx - qy - qz
    nqx = 3.0 * qi * qi * (qx + qy) + 6.0 * qi * qx * qz + 3.0 * qx * qx * qy + qx**3
    nqy = 6.0 * qi * qy * qz + 3.0 * qx * (qy * qy + qz * qz) + 3.0 * qy * qz * qz + qy**3
    nqz = 3.0 * qi * (qy * qy + qz * qz) + 6.0 * qx * qy * qz + 3.0 * qy * qy * qz + qz**3
    return max(0.0, nqx), max(0.0, nqy), max(0.0, nqz), 1.0


def xz_mirror(step):
    """The X<->Z mirror of a raw map, as Bx is of B."""
    def mirrored(qx: float, qy: float, qz: float) -> tuple[float, float, float, float]:
        nqz, nqy, nqx, ps = step(qz, qy, qx)
        return nqx, nqy, nqz, ps
    return mirrored


MAX_CLAMPED_MAPS = {
    StepKind.B: _b_rates_max,
    StepKind.P: _p_rates_max,
    StepKind.BX: xz_mirror(_b_rates_max),
}
