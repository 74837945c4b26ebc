"""Entropy utilities, secret-key-rate formulas, and reference bounds.

Rates are reported per sifted bit so that one-way schemes, pre-shared-key
reconciliation schemes, and two-way distillation pipelines are directly
comparable.  Negative rates are meaningful: they mark the regime where a
scheme consumes more secret material than it produces.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .channel import _Record

_LN2 = math.log(2.0)


class NumericalError(RuntimeError):
    """A numeric search failed (no sign change, broken bracket, ...)."""


def binary_entropy(x: float) -> float:
    """Shannon entropy h(x) = -x log2 x - (1-x) log2 (1-x).

    Endpoints are defined by continuity: h(0) = h(1) = 0.  Inputs outside
    [0, 1] by more than 1e-12 raise; smaller excursions are clamped.  The
    (1-x) term goes through log1p, so h keeps its x/ln 2 part for tiny x.
    """
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x}")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / _LN2)


def one_minus_binary_entropy(x: float) -> float:
    """1 - h(x), accurate even where h(x) is within round-off of 1.

    Near x = 1/2 the direct subtraction cancels catastrophically; there the
    identity 1 - h(1/2 - u) = [ln(1 - 4u^2)/2 + u (ln(1+2u) - ln(1-2u))]/ln 2
    is evaluated with log1p instead.  Iterated distillation maps park error
    rates within 1e-16 of 1/2, where this distinction decides convergence.
    """
    u = 0.5 - x
    if abs(u) >= 0.25:
        return 1.0 - binary_entropy(x)
    if not -1e-12 <= x <= 1.0 + 1e-12:  # only NaN reaches here with |u| < 0.25
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    return (
        0.5 * math.log1p(-4.0 * u * u) + u * (math.log1p(2.0 * u) - math.log1p(-2.0 * u))
    ) / _LN2


class KeyRateReport(_Record):
    """Net key rate of a post-processing scheme at bit error rate ``p``.

    ``components`` holds the named sub-terms the rate is assembled from;
    the reported rate is reproducible from them to 1e-12.  A diverged
    two-way run reports ``rate`` None and no components.
    """

    def __init__(
        self, scheme: str, p: float, rate: float | None,
        components: dict[str, float] | None = None, note: str = "",
    ) -> None:
        if components is None:
            components = {}
        self.__dict__.update(scheme=scheme, p=p, rate=rate, components=components, note=note)

    def to_dict(self) -> dict:
        return {**self.__dict__, "components": dict(self.components)}


def shor_preskill_rate(p: float) -> KeyRateReport:
    """One-way rate 1 - 2 h(p): h(p) for error correction, h(p) for privacy
    amplification.  Crosses zero near p = 11.0%."""
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"need 0 <= p <= 1/2, got p={p}")
    hp = binary_entropy(p)
    # (1 - h) - h: the same evaluation as the symmetric CSS key fraction,
    # so the two agree bit for bit.
    return KeyRateReport(
        scheme="shor_preskill",
        p=p or 0.0,  # -0.0 is stored as +0.0, as the channel rates are
        rate=one_minus_binary_entropy(p) - hp,
        components={"error_correction": hp, "privacy_amplification": hp},
        note="per sifted bit",
    )


def _inamori_rate(p: float, phase_divisor: float, scheme: str) -> KeyRateReport:
    """rate = (1-p) [1 - h(p/(phase_divisor (1-p)))] - h(p), with its components."""
    sacrificed = binary_entropy(p)
    reconciled = 1.0 - p
    pa_fraction = binary_entropy(p / (phase_divisor * (1.0 - p)))
    return KeyRateReport(
        scheme=scheme,
        p=p or 0.0,
        rate=reconciled * (1.0 - pa_fraction) - sacrificed,
        components={
            "sacrificed_fraction": sacrificed,
            "reconciled_fraction": reconciled,
            "pa_fraction": pa_fraction,
        },
        note="per sifted bit; rate = reconciled * (1 - pa) - sacrificed",
    )


def inamori_bb84_rate(p: float) -> KeyRateReport:
    """BB84 rate for the pre-shared-key reconciliation scheme.

    A fraction h(p) of pre-shared key pays for the encrypted syndrome,
    post-selecting agreeing bits keeps a fraction 1 - p, and the
    post-selected phase error rate p / (1 - p) sets the privacy
    amplification cost:  rate = (1-p) [1 - h(p/(1-p))] - h(p).
    """
    if not 0.0 <= p < 0.5:
        raise ValueError(f"need 0 <= p < 1/2, got p={p}")
    return _inamori_rate(p, 1.0, "inamori_bb84")


def inamori_sixstate_rate(p: float) -> KeyRateReport:
    """Six-state variant of the pre-shared-key reconciliation scheme.

    The extra measurement symmetry halves the post-selected phase error
    rate to p / (2 (1 - p)):  rate = (1-p) [1 - h(p/(2(1-p)))] - h(p).
    Positive up to roughly p = 12.6%.
    """
    if not 0.0 <= p < 2.0 / 3.0:
        raise ValueError(f"need 0 <= p < 2/3, got p={p}")
    return _inamori_rate(p, 2.0, "inamori_sixstate")


def _bisect(
    holds: Callable[[float], bool], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Halve [lo, hi], where ``holds(lo)`` and not ``holds(hi)``, to width ``tol``.

    Returns the final bracket.  At most 60 halvings run, so a ``tol``
    below the floats' resolution at the bracket still ends the loop.
    """
    for _ in range(60):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


_RATE_UPPER = 0.45
_RATE_TOL = 1e-6


def rate_threshold(rate_fn: Callable[[float], KeyRateReport]) -> float:
    """Largest tolerable bit error rate of a rate formula (root of rate = 0).

    Scans (0, _RATE_UPPER] for a sign change, then bisects to _RATE_TOL.
    Requires a positive rate at p = 0 and a non-positive one in range.
    """
    if rate_fn(0.0).rate <= 0.0:
        raise NumericalError("rate is not positive at p = 0")
    lo = 0.0
    hi = None
    for k in range(1, 65):
        p = _RATE_UPPER * k / 64.0
        if rate_fn(p).rate <= 0.0:
            hi = p
            break
        lo = p
    if hi is None:
        raise NumericalError(f"rate has no sign change on (0, {_RATE_UPPER}]")
    lo, hi = _bisect(lambda p: rate_fn(p).rate > 0.0, lo, hi, _RATE_TOL)
    return 0.5 * (lo + hi)


_TWO_WAY_NOTE = (
    "per sifted bit entering round 1; rate = cumulative_yield * "
    "max(css_rate, 0); test-bit sacrifice excluded"
)


def two_way_net_rate(t: "Trajectory") -> KeyRateReport:
    """Net key per sifted bit entering the first distillation round.

    Multiplies the trajectory's cumulative yield by the final CSS key
    fraction; the sacrifice of test bits is a finite-size effect and is
    excluded.  A diverged trajectory yields no key and is reported, not
    refused: rate None, no components, and a note naming why.
    """
    if not t.converged:
        note = f"diverged: {t.diagnostic or 'CSS stage not viable'}"
        return KeyRateReport("two_way_epp", t.initial.pz, None, note=note)
    cum_yield, css = t.cumulative_yield, t.css_rate  # each computed on read
    components = {"cumulative_yield": cum_yield, "css_rate": css}
    return KeyRateReport(
        "two_way_epp", t.initial.pz, cum_yield * max(css, 0.0), components, _TWO_WAY_NOTE
    )


def bounds_table() -> dict:
    """Known bit-error-rate bounds for BB84 and the six-state scheme.

    Upper bounds come from explicit attacks (approximate cloning for
    one-way post-processing, intercept-resend for two-way); lower bounds
    from protocols proved secure.  Keyed scheme, then post-processing,
    then ``upper``/``lower``; a new dict on each call.
    """
    return {
        "bb84": {
            "one_way": {"upper": 0.146, "lower": 0.110},
            "two_way": {"upper": 0.25, "lower": 0.189},
        },
        "sixstate": {
            "one_way": {"upper": 1.0 / 6.0, "lower": 0.127},
            "two_way": {"upper": 1.0 / 3.0, "lower": 0.264},
        },
    }
