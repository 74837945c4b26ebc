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
from dataclasses import dataclass
from math import nan

from .channel import PauliChannelParams, bb84_family, sixstate_channel
from .keyrates import NumericalError, binary_entropy, one_minus_binary_entropy
from .steps import (
    DegenerateStepError,
    ProtocolClassError,
    StepKind,
    _RATE_FUNCS,
    apply_step,
)

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


@dataclass(frozen=True)
class StepSequence:
    """Ordered protocol descriptor: distillation rounds plus CSS stage.

    ``fixed`` policy applies ``steps`` in order and tests CSS viability at
    the end; ``alternating_until_css`` ignores ``steps``, alternates B and P
    rounds (B first) and tests viability before the first round and after
    every round, stopping at the first success or after ``max_rounds``
    rounds.
    """

    steps: tuple[StepKind, ...] = ()
    policy: str = FIXED
    max_rounds: int = DEFAULT_MAX_ROUNDS
    css_margin: float = DEFAULT_CSS_MARGIN

    def __post_init__(self) -> None:
        if self.policy not in (FIXED, ALTERNATING):
            raise ValueError(f"unknown policy {self.policy!r}")
        object.__setattr__(self, "steps", tuple(StepKind(s) for s in self.steps))
        if self.policy == FIXED and not self.steps:
            raise ValueError("fixed policy requires a non-empty step list")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.css_margin < 0.0:
            raise ValueError(f"css_margin must be >= 0, got {self.css_margin}")

    @classmethod
    def fixed(cls, steps, css_margin: float = DEFAULT_CSS_MARGIN) -> "StepSequence":
        """Build a fixed sequence from step kinds or a string like "BBBBBP"."""
        if isinstance(steps, str):
            steps = _tokenize(steps)
        return cls(steps=tuple(steps), policy=FIXED, css_margin=css_margin)

    @classmethod
    def alternating(
        cls,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        css_margin: float = DEFAULT_CSS_MARGIN,
    ) -> "StepSequence":
        return cls(policy=ALTERNATING, max_rounds=max_rounds, css_margin=css_margin)

    def kind_at(self, index: int) -> StepKind:
        """Step kind of 1-based round ``index`` under this policy."""
        if self.policy == ALTERNATING:
            return StepKind.B if index % 2 == 1 else StepKind.P
        return self.steps[index - 1]

    def __str__(self) -> str:
        if self.policy == ALTERNATING:
            return f"alt:{self.max_rounds}"
        return "".join(k.value for k in self.steps)


def _tokenize(text: str) -> list[StepKind]:
    kinds: list[StepKind] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "B":
            if i + 1 < len(text) and text[i + 1] == "x":
                kinds.append(StepKind.BX)
                i += 2
                continue
            kinds.append(StepKind.B)
        elif ch == "P":
            kinds.append(StepKind.P)
        else:
            raise ValueError(f"invalid step token {ch!r} at position {i}")
        i += 1
    if not kinds:
        raise ValueError("empty step string")
    return kinds


def parse_sequence(text: str, css_margin: float = DEFAULT_CSS_MARGIN) -> StepSequence:
    """Parse "BBBBBPPPPPP"-style strings or "alt:N" alternation specs."""
    if text.startswith("alt:"):
        try:
            rounds = int(text[4:])
        except ValueError:
            raise ValueError(f"invalid alternation spec {text!r}; expected alt:N")
        return StepSequence.alternating(max_rounds=rounds, css_margin=css_margin)
    return StepSequence.fixed(_tokenize(text), css_margin=css_margin)


@dataclass(frozen=True)
class TrajectoryRecord:
    step_index: int
    kind: StepKind
    params: PauliChannelParams
    survival_prob: float
    cumulative_yield: float


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of a sequence evolution plus its CSS verdict."""

    initial: PauliChannelParams
    sequence: StepSequence
    records: tuple[TrajectoryRecord, ...]
    final_bit_rate: float
    final_phase_rate: float
    css_rate: float
    converged: bool
    diagnostic: str | None = None

    @property
    def final_params(self) -> PauliChannelParams:
        return self.records[-1].params if self.records else self.initial

    @property
    def cumulative_yield(self) -> float:
        return self.records[-1].cumulative_yield if self.records else 1.0

    def to_rows(self) -> list[dict]:
        """Rows for CSV-style serialization, one per applied step."""
        return [
            {
                "step_index": r.step_index,
                "kind": r.kind.value,
                "qx": r.params.qx,
                "qy": r.params.qy,
                "qz": r.params.qz,
                "ps": r.survival_prob,
                "yield": r.cumulative_yield,
            }
            for r in self.records
        ]


def evolve(
    seq: StepSequence,
    c: PauliChannelParams,
    prepare_and_measure: bool = False,
) -> Trajectory:
    """Apply a step sequence to a channel and test CSS viability.

    With ``prepare_and_measure`` set, EPP-only steps (Bx) are rejected.  A
    degenerate round (survival ~ 0) terminates the trajectory as
    non-converged with a diagnostic rather than raising.
    """
    margin = seq.css_margin
    records: list[TrajectoryRecord] = []
    cur = c
    cum_yield = 1.0
    diagnostic = None

    def finish(converged: bool) -> Trajectory:
        f1, f2 = cur.pz, cur.px
        return Trajectory(
            initial=c,
            sequence=seq,
            records=tuple(records),
            final_bit_rate=f1,
            final_phase_rate=f2,
            css_rate=css_key_fraction(f1, f2),
            converged=converged,
            diagnostic=diagnostic,
        )

    if seq.policy == ALTERNATING:
        if css_key_fraction(cur.pz, cur.px) > margin:
            return finish(True)
        n_steps = seq.max_rounds
    else:
        n_steps = len(seq.steps)

    for index in range(1, n_steps + 1):
        kind = seq.kind_at(index)
        if prepare_and_measure and kind.epp_only:
            raise ProtocolClassError(
                f"step {kind} is EPP-only and cannot appear in a "
                "prepare-and-measure sequence"
            )
        try:
            outcome = apply_step(kind, cur)
        except DegenerateStepError as exc:
            diagnostic = f"degenerate step {index} ({kind}): {exc}"
            return finish(False)
        cur = outcome.params_after
        cum_yield *= outcome.yield_factor
        records.append(
            TrajectoryRecord(index, kind, cur, outcome.survival_prob, cum_yield)
        )
        if seq.policy == ALTERNATING and css_key_fraction(cur.pz, cur.px) > margin:
            return finish(True)

    if seq.policy == ALTERNATING:
        diagnostic = f"no CSS viability within {seq.max_rounds} rounds"
        return finish(False)
    return finish(css_key_fraction(cur.pz, cur.px) > margin)


def _converges(seq: StepSequence, c: PauliChannelParams) -> bool:
    """Record-free twin of ``evolve(...).converged`` for search loops."""
    margin = seq.css_margin
    qx, qy, qz = c.qx, c.qy, c.qz
    if seq.policy == ALTERNATING:
        if css_key_fraction(qx + qy, qy + qz) > margin:
            return True
        n_steps = seq.max_rounds
    else:
        n_steps = len(seq.steps)
    for index in range(1, n_steps + 1):
        rate_fn = _RATE_FUNCS[seq.kind_at(index)]
        try:
            qx, qy, qz, _ = rate_fn(qx, qy, qz)
        except DegenerateStepError:
            return False
        if seq.policy == ALTERNATING and css_key_fraction(qx + qy, qy + qz) > margin:
            return True
    if seq.policy == ALTERNATING:
        return False
    return css_key_fraction(qx + qy, qy + qz) > margin


def channel_for_family(family: str, p: float) -> PauliChannelParams:
    """Starting channel of a one-parameter family at bit error rate ``p``."""
    if family == "bb84_worst":
        return bb84_family(p, 0.0)
    if family == "sixstate":
        return sixstate_channel(p)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class ThresholdResult:
    """Largest tolerable bit error rate of a sequence over a channel family."""

    threshold_p: float
    bracket: tuple[float, float]
    sequence: StepSequence
    family: str
    diagnostic: str | None = None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "sequence": str(self.sequence),
            "threshold": self.threshold_p,
            "bracket": list(self.bracket),
            "diagnostic": self.diagnostic,
        }


def _is_monotone(flags: list[bool]) -> bool:
    """True when flags are a (possibly empty) True-prefix then False-suffix."""
    seen_false = False
    for f in flags:
        if f and seen_false:
            return False
        if not f:
            seen_false = True
    return True


def find_threshold(
    seq: StepSequence,
    family: str,
    tol: float = 1e-4,
    upper: float = BRACKET_UPPER,
) -> ThresholdResult:
    """Bisect for the largest bit error rate at which ``seq`` converges.

    Convergence is assumed monotone in p over the bracket; this is
    spot-checked at 8 sample points and a violation raises
    :class:`NumericalError`.  If the sequence fails even at p = tol, a
    zero-threshold result with a diagnostic is returned.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if tol < 1e-6:
        raise ValueError(f"tol must be >= 1e-6, got {tol}")
    if not 0.0 < upper <= BRACKET_UPPER:
        raise ValueError(f"upper must lie in (0, {BRACKET_UPPER}], got {upper}")

    def conv(p: float) -> bool:
        return _converges(seq, channel_for_family(family, p))

    spot_flags = [conv(upper * i / 9.0) for i in range(1, 9)]
    if not _is_monotone(spot_flags):
        raise NumericalError(
            "convergence is not monotone in p over the search bracket; "
            f"spot check gave {spot_flags}"
        )
    if conv(upper):
        return ThresholdResult(
            upper,
            (upper - tol, upper),
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
    lo, hi = tol, upper
    for _ in range(60):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if conv(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), (lo, hi), seq, family)


@dataclass(frozen=True)
class WorstCaseScan:
    """Convergence of one sequence across a BB84-family a-grid at fixed p."""

    sequence: StepSequence
    p: float
    a_values: tuple[float, ...]
    converged: tuple[bool, ...]
    converged_at_zero: bool
    implication_holds: bool
    vacuous: bool

    def to_dict(self) -> dict:
        return {
            "sequence": str(self.sequence),
            "p": self.p,
            "a_values": list(self.a_values),
            "converged": list(self.converged),
            "converged_at_zero": self.converged_at_zero,
            "implication_holds": self.implication_holds,
            "vacuous": self.vacuous,
        }


def worst_case_scan(seq: StepSequence, p: float, grid_size: int) -> WorstCaseScan:
    """Check that a = 0 (no Y errors) is the worst BB84-family member.

    Evaluates convergence for a on a uniform grid over [0, p] and reports
    whether convergence at a = 0 implies convergence everywhere.  Requires
    p < 1/4 and a sequence that starts with a B round (and contains no
    EPP-only steps), the hypotheses under which a = 0 is provably worst.
    """
    if not 0.0 <= p < 0.25:
        raise ValueError(f"worst-case scan requires 0 <= p < 1/4, got p={p}")
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    if seq.policy == ALTERNATING:
        if seq.max_rounds < 1:
            raise ValueError("alternating sequence must run at least one round")
    else:
        if any(k.epp_only for k in seq.steps):
            raise ProtocolClassError("worst-case scan covers B/P sequences only")
        if seq.steps[0] is not StepKind.B:
            raise ValueError("worst-case scan requires a sequence starting with B")
    a_values = tuple(p * i / (grid_size - 1) for i in range(grid_size))
    flags = tuple(_converges(seq, bb84_family(p, a)) for a in a_values)
    at_zero = flags[0]
    return WorstCaseScan(
        sequence=seq,
        p=p,
        a_values=a_values,
        converged=flags,
        converged_at_zero=at_zero,
        implication_holds=(not at_zero) or all(flags),
        vacuous=not at_zero,
    )


def _net_rate_near_threshold(seq: StepSequence, family: str, threshold: float) -> float:
    """Tie-breaking figure: net key rate 0.01 below the threshold."""
    p = max(threshold - 0.01, 0.0)
    t = evolve(seq, channel_for_family(family, p))
    if not t.converged:
        return 0.0
    return t.cumulative_yield * max(t.css_rate, 0.0)


class _PrefixStates:
    """Channel after every B/P prefix at one starting channel, filled lazily.

    B/P strings form a tree in which a string's parent is the string less
    its last round, so a node's state is one map applied to its parent's.
    Level ``n`` keeps the (qx, qy, qz) of every length-``n`` string, indexed
    by its bits (bit ``i`` set = P at round ``i + 1``), in one flat array:
    NaN marks a state not yet computed and qx = -1 a degenerate round on
    the path, which makes the node and all its extensions diverge.  The
    states and verdicts are those of :func:`_converges` on the same floats.
    """

    def __init__(self, root: PauliChannelParams, max_len: int):
        # Looked up per search, not at import, so maps substituted in
        # _RATE_FUNCS (by tests or a tracer) are the ones applied.
        self._maps = (_RATE_FUNCS[StepKind.B], _RATE_FUNCS[StepKind.P])
        self._root = (root.qx, root.qy, root.qz)
        self._levels = [array("d")] + [
            array("d", [nan]) * (3 << n) for n in range(1, max_len + 1)
        ]

    def converges(self, length: int, bits: int, margin: float) -> bool:
        levels = self._levels
        depth = length  # deepest prefix already cached
        while depth:
            level = levels[depth]
            i = 3 * (bits & ((1 << depth) - 1))
            qx = level[i]
            if qx == qx:  # not NaN: computed
                if qx < 0.0:
                    return False
                qy, qz = level[i + 1], level[i + 2]
                break
            depth -= 1
        else:
            qx, qy, qz = self._root
        for n in range(depth, length):
            level = levels[n + 1]
            i = 3 * (bits & ((2 << n) - 1))
            try:
                qx, qy, qz, _ = self._maps[(bits >> n) & 1](qx, qy, qz)
            except DegenerateStepError:
                level[i] = -1.0
                return False
            level[i], level[i + 1], level[i + 2] = qx, qy, qz
        return css_key_fraction(qx + qy, qy + qz) > margin


def optimize_sequence(
    family: str,
    max_len: int,
    tol: float = 1e-4,
    css_margin: float = DEFAULT_CSS_MARGIN,
) -> tuple[StepSequence, ThresholdResult]:
    """Exhaustive search over B/P strings up to ``max_len`` steps.

    Candidates run in order of length, then of bits (bit ``i`` set = P at
    round ``i + 1``).  Returns the sequence with the highest threshold; ties
    (within ``tol``) break toward the higher net key rate 0.01 below
    threshold, then toward the shorter sequence.  Candidates provably
    unable to beat the current best (they already diverge 2*tol below it)
    are pruned, and candidates whose convergence cannot be certified
    monotone in double precision (long runs of one step kind park an error
    rate within one ulp of 1/2) are skipped.  The prune reuses prefix
    states: each B/P tree node costs one map evaluation per prune probe,
    and the result is the same as probing every candidate from scratch.
    """
    if not 1 <= max_len <= 16:
        raise ValueError(f"max_len must be in [1, 16], got {max_len}")

    bisected: list[tuple[StepSequence, ThresholdResult]] = []
    best_threshold = None  # prune hint; conservative, never affects result
    prefixes = None  # prune verdicts at best_threshold - 2*tol
    for length in range(1, max_len + 1):
        for bits in range(1 << length):
            if prefixes is not None and not prefixes.converges(length, bits, css_margin):
                continue
            seq = StepSequence.fixed(
                tuple(StepKind.P if (bits >> i) & 1 else StepKind.B for i in range(length)),
                css_margin=css_margin,
            )
            try:
                res = find_threshold(seq, family, tol)
            except NumericalError:
                continue
            bisected.append((seq, res))
            if best_threshold is None or res.threshold_p > best_threshold:
                best_threshold = res.threshold_p
                probe = max(best_threshold - 2.0 * tol, 0.0)
                prefixes = (
                    _PrefixStates(channel_for_family(family, probe), max_len)
                    if probe > 0.0
                    else None
                )

    best_seq = None
    best_res = None
    best_rate = 0.0
    for seq, res in bisected:
        if best_res is None:
            best_seq, best_res = seq, res
            best_rate = _net_rate_near_threshold(seq, family, res.threshold_p)
            continue
        if res.threshold_p > best_res.threshold_p + tol:
            best_seq, best_res = seq, res
            best_rate = _net_rate_near_threshold(seq, family, res.threshold_p)
        elif res.threshold_p >= best_res.threshold_p - tol:
            rate = _net_rate_near_threshold(seq, family, res.threshold_p)
            if rate > best_rate + 1e-12 or (
                abs(rate - best_rate) <= 1e-12 and len(seq.steps) < len(best_seq.steps)
            ):
                best_seq, best_res, best_rate = seq, res, rate
    assert best_seq is not None and best_res is not None
    return best_seq, best_res
