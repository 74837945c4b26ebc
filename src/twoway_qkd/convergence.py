"""Step-sequence evolution, CSS termination, and threshold search.

A :class:`StepSequence` prescribes the two-way distillation schedule: either
a fixed string of B/P/Bx rounds or a B,P,B,P,... alternation that stops as
soon as a one-way asymmetric CSS stage becomes viable.  Viability is the
asymptotic existence condition 1 - h(f1) - h(f2) > css_margin, where f1/f2
are the residual bit/phase error rates.  Convergence of a sequence at a
given starting error rate is what the threshold searches bisect on.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import accumulate, compress, cycle, islice, repeat, starmap
from math import isfinite, prod
from operator import itemgetter, mul, not_, truediv
from struct import Struct

from .channel import PauliChannelParams, _Record
from .keyrates import NumericalError, _bisect, binary_entropy, one_minus_binary_entropy
from .keyrates import two_way_net_rate
from .steps import StepKind, _BLOCK_SIZES, _RATE_FUNCS

FIXED = "fixed"
ALTERNATING = "alternating_until_css"
FAMILIES = ("bb84_worst", "sixstate")

#: Upper limit of every threshold bracket: the six-state intercept-resend
#: ceiling, above which no two-way scheme can be secure.
BRACKET_UPPER = 1.0 / 3.0

#: Convergence demands css_rate strictly above this margin.  Near threshold
#: the surviving key fraction is genuinely tiny (1e-14 and below), so any
#: everyday-sized margin would misreport the threshold itself.  The default
#: is the resolution floor of the CSS fraction in double precision: when an
#: error rate sits within a few ulp of 1/2, 1 - h() quantizes to multiples
#: of ~8.9e-33, and apparent rates below this floor are indistinguishable
#: from round-off.  A zero-rate code never counts as convergent.
DEFAULT_CSS_MARGIN = 1e-30

DEFAULT_MAX_ROUNDS = 200

#: Most rounds a sequence holds, as ``max_rounds`` or as a fixed string: an
#: evolution keeps one tuple per round, so this bounds its memory.
MAX_ROUNDS = 10_000

_survival = itemgetter(3)  # ps of a round's (qx, qy, qz, ps)
_block_size = _BLOCK_SIZES.__getitem__
_WIDTH = 4  # floats per probe state, (qx, qy, qz, ps) as a step map returns it
_STATE = Struct(f"{_WIDTH}d")  # native doubles, as in array("d"): packing copies every bit
_CHUNK = 1024  # states a level build maps, filters and packs at a time
_HALF = 0.5 * (1.0 - 1e-9)  # largest weight of a clearly separable state


def css_key_fraction(f1: float, f2: float) -> float:
    """Key fraction 1 - h(f1) - h(f2) of an asymmetric CSS stage.

    Non-negative values mean a code correcting a bit-flip fraction f1 and a
    phase fraction f2 exists asymptotically; may be negative.  The rate
    nearer 1/2 is absorbed into a cancellation-free 1 - h() evaluation, so
    the sign is trustworthy even when one rate is within round-off of 1/2.
    """
    if abs(0.5 - f1) <= abs(0.5 - f2):
        near, far = f1, f2
    else:
        near, far = f2, f1
    return one_minus_binary_entropy(near) - binary_entropy(far)


def _css_viable(qx: float, qy: float, qz: float, margin: float) -> bool:
    """``css_key_fraction(qx + qy, qy + qz) > margin``, most states decided without a log.

    With near and far picked as :func:`css_key_fraction` picks them and
    u = 1/2 - near, Topsoe's h(x) >= 4x(1 - x) bounds the key fraction by
    4u**2 - 4 far (1 - far).  Both terms keep their relative precision, so
    a bound short of ``margin`` by a relative 1e-9 rejects only states
    whose fraction fails the margin too.  Every other state, NaN included,
    goes to :func:`css_key_fraction`; for rates in [0, 1], the only ones
    the kernel makes, the verdict is that of the fraction itself.
    """
    f1 = qx + qy
    f2 = qy + qz
    u1 = 0.5 - f1
    u2 = 0.5 - f2
    if abs(u1) <= abs(u2):
        u, far = u1, f2
    else:
        u, far = u2, f1
    if 4.0 * u * u < (4.0 * far * (1.0 - far) + margin) * (1.0 - 1e-9):
        return False
    return css_key_fraction(f1, f2) > margin


class StepSequence(_Record):
    """Ordered protocol descriptor: distillation rounds plus CSS stage.

    ``fixed`` policy applies ``steps`` in order and tests CSS viability at
    the end.  ``alternating_until_css`` sets ``steps`` to the ``max_rounds``
    rounds B, P, B, P, ... and tests viability before round 1 and after
    every round, stopping at the earliest success or after the last round.
    """

    def __init__(
        self, steps: tuple[StepKind, ...] = (), policy: str = FIXED,
        max_rounds: int = DEFAULT_MAX_ROUNDS, css_margin: float = DEFAULT_CSS_MARGIN,
    ) -> None:
        if policy not in (FIXED, ALTERNATING):
            raise ValueError(f"unknown policy {policy!r}")
        if not 0 <= max_rounds <= MAX_ROUNDS:
            raise ValueError(f"max_rounds must be in [0, {MAX_ROUNDS}], got {max_rounds}")
        if policy == ALTERNATING:
            steps = tuple(islice(cycle((StepKind.B, StepKind.P)), max_rounds))
        else:
            steps = tuple(StepKind(s) for s in steps)
            if not steps:
                raise ValueError("fixed policy requires a non-empty step list")
            _check_length(len(steps))
        if not (isfinite(css_margin) and css_margin >= 0.0):
            raise ValueError(f"css_margin must be finite and >= 0, got {css_margin}")
        self.__dict__.update(
            steps=steps, policy=policy, max_rounds=max_rounds, css_margin=css_margin
        )

    @classmethod
    def fixed(cls, steps, css_margin: float = DEFAULT_CSS_MARGIN) -> "StepSequence":
        """Build a fixed sequence from step kinds or a string like "BBBBBP"."""
        if isinstance(steps, str):
            _check_length(len(steps) - steps.count("Bx"))  # exact: a token is B, P or Bx
            steps = _tokenize(steps)
        return cls(steps=tuple(steps), policy=FIXED, css_margin=css_margin)

    @classmethod
    def alternating(
        cls,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        css_margin: float = DEFAULT_CSS_MARGIN,
    ) -> "StepSequence":
        return cls(policy=ALTERNATING, max_rounds=max_rounds, css_margin=css_margin)

    def __str__(self) -> str:
        if self.policy == ALTERNATING:
            return f"alt:{self.max_rounds}"
        return "".join(k.value for k in self.steps)


def _check_length(rounds: int) -> None:
    if rounds > MAX_ROUNDS:
        raise ValueError(f"a fixed sequence holds at most {MAX_ROUNDS} rounds, got {rounds}")


def _tokenize(text: str) -> list[StepKind]:
    kinds: list[StepKind] = []
    i = 0
    while i < len(text):
        token = "Bx" if text.startswith("Bx", i) else text[i]
        if token not in ("B", "P", "Bx"):
            raise ValueError(f"invalid step token {token!r} at position {i}")
        kinds.append(StepKind(token))
        i += len(token)
    if not kinds:
        raise ValueError("empty step string")
    return kinds


def parse_sequence(text: str, css_margin: float = DEFAULT_CSS_MARGIN) -> StepSequence:
    """Parse "BBBBBPPPPPP"-style strings or "alt:N" alternation specs."""
    if text.startswith("alt:"):
        digits = text[4:].removeprefix("-")
        try:  # ASCII digits only: int() alone also reads " 5", "+5", "1_0" and non-ASCII digits
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            rounds = int(text[4:])
        except ValueError:  # or more digits than int() converts
            raise ValueError(f"invalid alternation spec {text!r}; expected alt:N")
        return StepSequence.alternating(max_rounds=rounds, css_margin=css_margin)
    return StepSequence.fixed(text, css_margin=css_margin)


class Trajectory(_Record):
    """A sequence evolution: the raw rates of every round and its CSS verdict.

    ``rounds`` holds one ``(qx, qy, qz, ps)`` tuple per round of the
    sequence that ran.  A diverged alternating run that stopped at a
    repeated state holds all ``max_rounds`` rounds; at that exit the kernel
    pads them with copies of one period of the cycle, the last two or four
    computed.  These tuples are the trajectory's only per-round data: the
    final rates, the CSS rate and the rows of :meth:`to_rows` are all read
    from them, and no channel is built per round.  A round keeps
    ``ps / block size`` of its pairs; the rows' running yields and
    :attr:`cumulative_yield` multiply those fractions in round order.
    """

    def __init__(
        self, initial: PauliChannelParams, sequence: StepSequence,
        rounds: tuple[tuple[float, float, float, float], ...], converged: bool,
        diagnostic: str | None = None,
    ) -> None:
        self.__dict__.update(
            initial=initial, sequence=sequence, rounds=rounds, converged=converged,
            diagnostic=diagnostic,
        )

    @property
    def _kept_fractions(self) -> Iterator[float]:
        """Fraction of its pairs each round keeps: survival probability over block size."""
        return map(truediv, map(_survival, self.rounds), map(_block_size, self.sequence.steps))

    @property
    def _final_rates(self) -> tuple[float, float, float]:
        """Raw (qx, qy, qz) after the trajectory's last round."""
        if not self.rounds:
            c = self.initial
            return c.qx, c.qy, c.qz
        return self.rounds[-1][:3]

    @property
    def cumulative_yield(self) -> float:
        return prod(self._kept_fractions, start=1.0)

    @property
    def final_bit_rate(self) -> float:
        qx, qy, _ = self._final_rates
        return qx + qy

    @property
    def final_phase_rate(self) -> float:
        _, qy, qz = self._final_rates
        return qy + qz

    @property
    def css_rate(self) -> float:
        qx, qy, qz = self._final_rates
        return css_key_fraction(qx + qy, qy + qz)

    def to_rows(self) -> list[dict]:
        """Rows for CSV-style serialization, one per applied step."""
        rounds = zip(self.sequence.steps, self.rounds, accumulate(self._kept_fractions, mul))
        return [
            {
                "step_index": index,
                "kind": kind.value,
                "qx": qx,
                "qy": qy,
                "qz": qz,
                "ps": ps,
                "yield": cum_yield,
            }
            for index, (kind, (qx, qy, qz, ps), cum_yield) in enumerate(rounds, 1)
        ]


def _evolve_rounds(
    seq: StepSequence,
    rates: tuple[float, float, float],
    rounds: list[tuple[float, float, float, float]] | None = None,
) -> bool:
    """Evolution kernel of :func:`evolve` and :func:`_converges`.

    Applies ``seq``'s rounds to the raw rates ``(qx, qy, qz)``, plain floats
    with no channel built, with the maps in ``_RATE_FUNCS`` and returns the
    CSS verdict.  When ``rounds`` is a list, each round's
    ``(qx, qy, qz, ps)`` is appended to it.

    An alternating run stops early once the state after round i equals the
    state after round i - 2, or else that after round i - 4: both states
    have failed the CSS test, and the maps are deterministic and the step
    kinds alternate with period 2, so the rounds after i repeat the last two
    (or four) for good.  ``rounds`` is padded there, to every step, with copies of them.
    """
    margin = seq.css_margin
    qx, qy, qz = rates
    alternating = seq.policy == ALTERNATING
    if alternating:
        if _css_viable(qx, qy, qz, margin):
            return True
        s4 = s3 = s2 = s1 = None  # states after rounds i - 4, i - 3, i - 2 and i - 1
    maps = _RATE_FUNCS
    for kind in seq.steps:
        step = maps[kind](qx, qy, qz)
        qx, qy, qz, _ = step
        if rounds is not None:
            rounds.append(step)
        if alternating:
            state = (qx, qy, qz)
            if state == s2 or state == s4:
                if rounds is not None:
                    period = rounds[-2:] if state == s2 else rounds[-4:]
                    rounds += islice(cycle(period), len(seq.steps) - len(rounds))
                return False
            if _css_viable(qx, qy, qz, margin):
                return True
            s4, s3, s2, s1 = s3, s2, s1, state
    return not alternating and _css_viable(qx, qy, qz, margin)


def evolve(seq: StepSequence, c: PauliChannelParams) -> Trajectory:
    """Apply a step sequence to a channel and test CSS viability.

    An alternating run that never reaches CSS viability is non-converged
    with the diagnostic ``no CSS viability within N rounds`` and holds all
    N rounds; those past a repeated state are the kernel's copies (see :class:`Trajectory`).
    """
    rounds: list[tuple[float, float, float, float]] = []
    converged = _evolve_rounds(seq, (c.qx, c.qy, c.qz), rounds)
    diverged = seq.policy == ALTERNATING and not converged
    return Trajectory(
        initial=c,
        sequence=seq,
        rounds=tuple(rounds),
        converged=converged,
        diagnostic=f"no CSS viability within {seq.max_rounds} rounds" if diverged else None,
    )


def _converges(seq: StepSequence, rates: tuple[float, float, float]) -> bool:
    """``evolve(seq, c).converged`` from c's raw ``(qx, qy, qz)``, keeping no rounds.

    Every record-free verdict of the searches goes through this one call.
    """
    return _evolve_rounds(seq, rates)


def _family_rates(family: str, p: float) -> tuple[float, float, float]:
    """Raw ``(qx, qy, qz)`` of a one-parameter family at bit error rate ``p``.

    The one family dispatch: BB84's worst case (p, 0, p) or six-state's
    (p/2, p/2, p/2).  No channel is built and ``p`` is not validated.
    """
    if family == "bb84_worst":
        return p, 0.0, p
    if family == "sixstate":
        q = 0.5 * p
        return q, q, q
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def channel_for_family(family: str, p: float) -> PauliChannelParams:
    """Starting channel of a family at ``p``: :func:`_family_rates`, validated."""
    return PauliChannelParams(*_family_rates(family, p))


class ThresholdResult(_Record):
    """Largest tolerable bit error rate of a sequence over a channel family."""

    def __init__(
        self, threshold_p: float, bracket: tuple[float, float], sequence: StepSequence,
        family: str, diagnostic: str | None = None,
    ) -> None:
        self.__dict__.update(
            threshold_p=threshold_p, bracket=bracket, sequence=sequence, family=family,
            diagnostic=diagnostic,
        )

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "sequence": str(self.sequence),
            "threshold": self.threshold_p,
            "bracket": list(self.bracket),
            "diagnostic": self.diagnostic,
        }


def find_threshold(seq: StepSequence, family: str, tol: float = 1e-4) -> ThresholdResult:
    """Bisect for the largest bit error rate at which ``seq`` converges.

    Convergence is assumed monotone in p over the bracket; this is
    spot-checked at 8 sample points and a violation raises
    :class:`NumericalError`.  If the sequence fails even at p = tol, a
    zero-threshold result with a diagnostic is returned.  Each verdict is
    one :func:`_converges` call on the family's raw rates at p: no channel
    is built or validated inside the search.
    """
    if not 1e-6 <= tol < BRACKET_UPPER:
        raise ValueError(f"tol must lie in [1e-6, {BRACKET_UPPER}), got {tol}")

    def conv(p: float) -> bool:
        return _converges(seq, _family_rates(family, p))

    spot_flags = [conv(BRACKET_UPPER * i / 9.0) for i in range(1, 9)]
    if spot_flags != sorted(spot_flags, reverse=True):  # not all True before all False
        raise NumericalError(
            "convergence is not monotone in p over the search bracket; "
            f"spot check gave {spot_flags}"
        )
    if conv(BRACKET_UPPER):
        return ThresholdResult(
            BRACKET_UPPER,
            (BRACKET_UPPER - tol, BRACKET_UPPER),
            seq,
            family,
            diagnostic="converges at the bracket upper limit",
        )
    if not conv(tol):
        return ThresholdResult(
            0.0,
            (0.0, tol),
            seq,
            family,
            diagnostic=f"no convergence even at p = {tol}",
        )
    lo, hi = _bisect(conv, tol, BRACKET_UPPER, tol)
    return ThresholdResult(0.5 * (lo + hi), (lo, hi), seq, family)


def _net_rate_near_threshold(res: ThresholdResult) -> float:
    """Tie-breaking figure: net key rate of ``res``'s sequence 0.01 below its threshold."""
    p = max(res.threshold_p - 0.01, 0.0)
    return two_way_net_rate(evolve(res.sequence, channel_for_family(res.family, p))).rate or 0.0


def _separable(qx: float, qy: float, qz: float, ps: float = 1.0) -> bool:
    """Whether no Bell weight, qI = 1 - qx - qy - qz included, exceeds 1/2 less a relative 1e-9.

    Such a state is separable whatever the rounding: no B, P or Bx round (each two-way
    LOCC) makes it entangled, and 1 - h(f1) - h(f2) <= 1 - H(q) <= 0.  ``ps`` is
    ignored, so that a map's (qx, qy, qz, ps) unpacks into the call.
    """
    return 1.0 - qx - qy - qz <= _HALF and qx <= _HALF and qy <= _HALF and qz <= _HALF


def _next_level(shorter: array, bits: array, length: int) -> tuple[array, array]:
    """States one round on from ``shorter``, whose strings are ``bits``, and their strings' bits.

    B is applied to every state, then P: a B child keeps its parent's bits and a P child sets bit
    ``length - 1``, so the bits ascend.  A :func:`_separable` child is dropped with every string
    through it.  Map outputs are filtered and packed ``_CHUNK`` at a time, so memory stays flat.
    """
    out, out_bits = array("d"), array("q")
    states = memoryview(shorter)  # strided views: no column copies
    rates = [states[i::_WIDTH] for i in range(3)]  # qx, qy, qz
    for kind, bit in ((StepKind.B, 0), (StepKind.P, 1 << (length - 1))):
        children = map(_RATE_FUNCS[kind], *rates)  # maps looked up per call, so substitutes apply
        for start in range(0, len(bits), _CHUNK):
            chunk = list(islice(children, _CHUNK))
            entangled = list(map(not_, starmap(_separable, chunk)))
            out.frombytes(b"".join(starmap(_STATE.pack, compress(chunk, entangled))))
            out_bits.extend(map(bit.__or__, compress(bits[start : start + _CHUNK], entangled)))
    return out, out_bits


def _probe_states(root: tuple[float, float, float], length: int) -> tuple[array, array]:
    """Flat (qx, qy, qz, ps) of the length-``length`` B/P strings from ``root``, and their bits.

    ``root`` is the raw ``(qx, qy, qz)`` the strings start from.  A string is
    left out when ``root`` or the state after one of its rounds is :func:`_separable`.
    """
    entangled = not _separable(*root)  # ps = 1 below: no round yet
    level, bits = array("d", (*root, 1.0) * entangled), array("q", [0] * entangled)
    for n in range(1, length + 1):
        level, bits = _next_level(level, bits, n)
    return level, bits


def _screen(level: array, margin: float) -> list[bool]:
    """CSS verdict of each (qx, qy, qz, ps) state of ``level``, in one pass."""
    states = memoryview(level)  # strided views, as in _next_level
    return list(map(_css_viable, *(states[i::_WIDTH] for i in range(3)), repeat(margin)))


def optimize_sequence(
    family: str,
    max_len: int,
    tol: float = 1e-4,
    css_margin: float = DEFAULT_CSS_MARGIN,
) -> tuple[StepSequence, ThresholdResult]:
    """Exhaustive search over B/P strings up to ``max_len`` steps.

    Candidates run in order of length, then of bits (bit ``i`` set = P at
    round ``i + 1``).  The winner is chosen once, after the search: among
    the candidates whose threshold lies within ``tol`` of the highest one,
    take the highest net key rate 0.01 below threshold (rates within 1e-12
    count as equal), then the shorter sequence, then the earlier candidate.
    Candidates provably unable to come within ``tol`` of the highest
    threshold are pruned: those that already diverge 2*tol below the best
    threshold of the shorter candidates.  Candidates whose convergence
    cannot be certified monotone in double precision (long runs of one step
    kind park an error rate within one ulp of 1/2) are skipped.  The prune
    screens one breadth-first level of probe states per length in one pass
    (the maps' packed (qx, qy, qz, ps), grown from the level before or rebuilt
    when the root has risen), and the loop visits only the screened-in ones.
    A level holds no string whose probe state, or a prefix's, is
    :func:`_separable`: no round makes such a state entangled, so none converges.
    """
    if not 1 <= max_len <= 16:
        raise ValueError(f"max_len must be in [1, 16], got {max_len}")

    found = []  # result of every bisected candidate, in candidate order
    best_threshold = None  # highest threshold so far
    probe_root = level = level_bits = None  # raw rates of the level build, its states and bits
    for length in range(1, max_len + 1):
        candidates = range(1 << length)  # every candidate until there is a root
        if best_threshold is not None and best_threshold - 2.0 * tol > 0.0:
            root = _family_rates(family, best_threshold - 2.0 * tol)
            if root != probe_root:  # rebuilt up to the length before
                level, level_bits = _probe_states(root, length - 1)
            level, level_bits = _next_level(level, level_bits, length)
            probe_root = root
            candidates = compress(level_bits, _screen(level, css_margin))
        for bits in candidates:
            seq = StepSequence.fixed(
                tuple(StepKind.P if (bits >> i) & 1 else StepKind.B for i in range(length)),
                css_margin=css_margin,
            )
            try:
                res = find_threshold(seq, family, tol)
            except NumericalError:
                continue
            found.append(res)
            if best_threshold is None or res.threshold_p > best_threshold:
                best_threshold = res.threshold_p
    assert found
    near = [res for res in found if res.threshold_p >= best_threshold - tol]
    rates = [_net_rate_near_threshold(res) for res in near]
    top = max(rates)
    best = next(res for res, rate in zip(near, rates) if rate >= top - 1e-12)  # shortest: lengths ascend
    return best.sequence, best
