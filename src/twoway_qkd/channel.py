"""Pauli channel parametrizations for QKD error-rate analysis.

The central object is an uncorrelated Pauli channel that acts independently
on each transmitted qubit: X with probability ``qx``, Y with ``qy``, Z with
``qz``, and identity with the remaining probability.  The raw rates are the
one state representation; the bit error rate ``pz = qx + qy``, the phase
error rate ``px = qy + qz`` and the signed split ``delta = qz - qy`` are
derived from them for reports.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

from math import isfinite

# Validation tolerance: violations beyond this are rejected, while smaller
# negative rates are clamped to zero.  It governs validation only; the step
# maps clamp their outputs at 0 (see ``steps``).
SIMPLEX_TOL = 1e-12


def _checked_rate(value: float, name: str) -> float:
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value <= 0.0:  # -0.0 and negative round-off both become +0.0
        if value < -SIMPLEX_TOL:
            raise ValueError(f"{name} must be >= 0, got {value}")
        return 0.0
    return float(value)


class _Record:
    """Base of the package's value types, read-only once built.

    A subclass's ``__init__`` stores its fields, in signature order, with
    ``self.__dict__.update``.  Equality, hashing and ``repr`` read them in
    that order, as a frozen dataclass's do; copies and unpickled instances
    get the instance dict without a call to ``__init__``.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PauliChannelParams(_Record):
    """Error rates of an uncorrelated Pauli channel.

    Invariants: each rate is non-negative and ``qx + qy + qz <= 1``; the
    identity rate ``qi = 1 - qx - qy - qz`` is derived, not stored.
    Negative round-off within ``SIMPLEX_TOL`` is clamped to zero, and every
    zero rate, -0.0 included, is stored as +0.0.
    """

    def __init__(self, qx: float, qy: float, qz: float) -> None:
        self.__dict__.update(
            qx=_checked_rate(qx, "qx"), qy=_checked_rate(qy, "qy"), qz=_checked_rate(qz, "qz")
        )
        self.__post_init__()

    def __post_init__(self) -> None:
        total = self.qx + self.qy + self.qz
        if total > 1.0 + SIMPLEX_TOL:
            raise ValueError(f"qx + qy + qz must be <= 1, got {total}")

    @property
    def qi(self) -> float:
        """Probability of no error."""
        return max(0.0, 1.0 - self.qx - self.qy - self.qz)

    @property
    def pz(self) -> float:
        """Bit error rate qx + qy (disagreement observable in the key basis)."""
        return self.qx + self.qy

    @property
    def px(self) -> float:
        """Phase error rate qy + qz."""
        return self.qy + self.qz

    def to_dict(self) -> dict[str, float]:
        return {
            "qx": self.qx,
            "qy": self.qy,
            "qz": self.qz,
            "pz": self.pz,
            "px": self.px,
            "delta": self.qz - self.qy,
        }


def bb84_family(p: float, a: float) -> PauliChannelParams:
    """One-parameter channel family consistent with a BB84 error estimate.

    BB84 statistics reveal only the bit and phase error rates, which are
    equal (= p) by the basis symmetry of the protocol; the Y-error rate
    ``a`` is a free parameter.  Returns the channel (p - a, a, p - a).
    """
    if not 0.0 <= p <= 0.5 + SIMPLEX_TOL:
        raise ValueError(f"need 0 <= p <= 1/2, got p={p}")
    if not 0.0 <= a <= p + SIMPLEX_TOL:
        raise ValueError(f"need 0 <= a <= p, got a={a}, p={p}")
    a = min(a, p)
    return PauliChannelParams(p - a, a, p - a)


def sixstate_channel(p: float) -> PauliChannelParams:
    """Depolarizing channel consistent with a six-state error estimate.

    Full tomographic symmetry pins qx = qy = qz = p/2, where p is the
    observed bit error rate; valid for p up to 2/3.
    """
    if not 0.0 <= p <= 2.0 / 3.0 + SIMPLEX_TOL:
        raise ValueError(f"need 0 <= p <= 2/3, got p={p}")
    return PauliChannelParams(0.5 * p, 0.5 * p, 0.5 * p)
