"""One-round error-rate maps for the two-way distillation steps.

Three step kinds act on a population of shared pairs carrying independent
(bit-flip, phase-flip) error flags; I/X/Y/Z errors correspond to flags
(0,0)/(1,0)/(1,1)/(0,1):

* ``B``  -- parity-check round: pairs of pairs compare announced parities.
  A pair of pairs is discarded when the parities disagree; otherwise one
  member survives with flags ``(x1, z1 ^ z2)``.  Survival probability
  ``ps = pz^2 + (1 - pz)^2 >= 1/2`` for every pz, kept fraction ``ps / 2``.
* ``P``  -- phase-correction round from the three-block repetition code:
  each trio keeps one member with flags
  ``(x1 ^ x2 ^ x3, majority(z1, z2, z3))``.  Nothing is discarded, so the
  kept fraction is exactly 1/3.
* ``Bx`` -- the phase-basis mirror of ``B`` (keep iff ``z1 == z2``, flags
  ``(x1 ^ x2, z1)``).  It post-selects on the phase syndrome, which only an
  entanglement-based protocol can evaluate, so it is never legal inside a
  prepare-and-measure sequence: the bit-level run refuses it with
  :class:`ProtocolClassError`.

Each map takes raw rates (qx, qy, qz) and returns the rates after the
round with the block survival probability ``ps`` (1 for P); the kept
fraction of a round is ``ps / _BLOCK_SIZES[kind]``.  Each output rate is
clamped at 0 with a branch, ``v if v > 0.0 else 0.0``: a rate that round-off
drives below zero (mostly where qi = 1 - qx - qy - qz is tiny) comes out as
+0.0, and so do -0.0 and NaN.  ``_RATE_FUNCS`` keys the maps by
:class:`StepKind` and is the one way the package applies a round;
``_BLOCK_SIZES`` holds the block sizes.
The tests hold the independent oracles: an exhaustive enumeration of Pauli
configurations, and the recursion in (pz, px, delta) coordinates used by
the worst-case analysis (``tests/oracles.py``).
"""

from __future__ import annotations

import enum

class ProtocolClassError(ValueError):
    """An EPP-only step (Bx) was given to the bit-level prepare-and-measure run."""


class StepKind(str, enum.Enum):
    """Distillation round identifier; serializes as "B", "P" or "Bx"."""

    B = "B"
    P = "P"
    BX = "Bx"

    def __str__(self) -> str:
        return self.value


def _b_rates(qx: float, qy: float, qz: float) -> tuple[float, float, float, float]:
    """Raw B-step map on (qx, qy, qz); returns (qx', qy', qz', ps)."""
    pz = qx + qy
    ps = 1.0 - 2.0 * pz * (1.0 - pz)  # >= 1/2: the division is always safe
    qi = 1.0 - qx - qy - qz
    nqx = (qx * qx + qy * qy) / ps
    nqy = 2.0 * qx * qy / ps
    nqz = 2.0 * qi * qz / ps
    return (
        nqx if nqx > 0.0 else 0.0,
        nqy if nqy > 0.0 else 0.0,
        nqz if nqz > 0.0 else 0.0,
        ps,
    )


def _bx_rates(qx: float, qy: float, qz: float) -> tuple[float, float, float, float]:
    """Raw Bx-step map: the B step with the roles of X and Z exchanged."""
    nqz, nqy, nqx, ps = _b_rates(qz, qy, qx)
    return nqx, nqy, nqz, ps


def _p_rates(qx: float, qy: float, qz: float) -> tuple[float, float, float, float]:
    """Raw P-step map; survival is always 1."""
    qi = 1.0 - qx - qy - qz
    nqx = 3.0 * qi * qi * (qx + qy) + 6.0 * qi * qx * qz + 3.0 * qx * qx * qy + qx**3
    nqy = 6.0 * qi * qy * qz + 3.0 * qx * (qy * qy + qz * qz) + 3.0 * qy * qz * qz + qy**3
    nqz = 3.0 * qi * (qy * qy + qz * qz) + 6.0 * qx * qy * qz + 3.0 * qy * qy * qz + qz**3
    return (
        nqx if nqx > 0.0 else 0.0,
        nqy if nqy > 0.0 else 0.0,
        nqz if nqz > 0.0 else 0.0,
        1.0,
    )


_RATE_FUNCS = {StepKind.B: _b_rates, StepKind.P: _p_rates, StepKind.BX: _bx_rates}
_BLOCK_SIZES = {StepKind.B: 2, StepKind.P: 3, StepKind.BX: 2}
