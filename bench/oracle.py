"""High-precision oracle for the benchmark's correctness checks.

Shares no formula with ``twoway_qkd``.  The B and P rounds are derived here
by enumerating every Pauli configuration of a block and pushing its error
flags through the round's circuit (bilateral CNOTs, a measured parity,
syndrome decoding); the resulting maps are evaluated in stdlib ``decimal``
at ``DIGITS`` significant digits.  The CSS stage uses the package's
documented contract: a schedule converges when 1 - h(bit) - h(phase) exceeds
a margin of 1e-30, and ``alt:N`` alternates B, P, ... testing before the
first round and after each round, stopping at the first success.

The values the workloads need are cached in ``oracle_values.json``.
Recompute them with::

    python3 bench/oracle.py            # writes bench/oracle_values.json
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from decimal import Decimal, localcontext, MIN_EMIN, MAX_EMAX
from typing import NamedTuple

DIGITS = 100
MARGIN = Decimal("1e-30")
CACHE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_values.json")

# A pair's error is a (bit flip, phase flip) flag: I, X, Y, Z.
_FLAGS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _bcnot(control, target):
    """Bilateral CNOT: bit flips spread control -> target, phase flips back."""
    (xc, zc), (xt, zt) = control, target
    return (xc, zc ^ zt), (xt ^ xc, zt)


def _b_block(pairs):
    """B round on two pairs: XOR the first into the second, measure the
    second in the key basis, keep the first iff the parities agree."""
    kept, measured = _bcnot(pairs[0], pairs[1])
    return kept if measured[0] == 0 else None


def _p_block(pairs):
    """P round on three pairs: XOR the second and third into the first, which
    survives carrying their bit parity; the other two are measured in the
    phase basis and their syndromes decode the survivor's phase flip."""
    second, first = _bcnot(pairs[1], pairs[0])
    third, first = _bcnot(pairs[2], first)
    x, z = first
    if second[1] and third[1]:  # both syndromes point at the survivor
        z ^= 1
    return (x, z)


def _round_polynomial(block, size):
    """Enumerate all 4**size configurations of a block.

    Returns ``{outcome: Counter(monomial -> multiplicity)}``: the outcome is
    the survivor's flag (or None when the block is discarded) and a
    monomial is the exponents of (I, X, Y, Z) in the configuration's
    probability.
    """
    table: dict = {}
    for config in itertools.product(range(4), repeat=size):
        out = block([_FLAGS[i] for i in config])
        exps = tuple(config.count(i) for i in range(4))
        table.setdefault(out, Counter())[exps] += 1
    return table


_ROUNDS = {
    "B": (_round_polynomial(_b_block, 2), 2),
    "P": (_round_polynomial(_p_block, 3), 3),
}


def _eval(poly, q):
    total = Decimal(0)
    for exps, mult in poly.items():
        term = Decimal(mult)
        for qi, e in zip(q, exps):
            if e:
                term *= qi**e
        total += term
    return total


def apply_round(kind, q):
    """One round on category probabilities q = (I, X, Y, Z).

    Returns (q_after, block_survival, yield_factor).
    """
    table, size = _ROUNDS[kind]
    mass = {flag: _eval(poly, q) for flag, poly in table.items() if flag is not None}
    kept = sum(mass.values())
    q_after = tuple(mass.get(f, Decimal(0)) / kept for f in _FLAGS)
    return q_after, kept, kept / size if kind == "B" else Decimal(1) / size


def _context():
    return localcontext(prec=DIGITS, Emin=MIN_EMIN, Emax=MAX_EMAX)


def _h(x):
    """Binary entropy in bits."""
    if x <= 0 or x >= 1:
        return Decimal(0)
    return -(x * x.ln() + (1 - x) * (1 - x).ln()) / Decimal(2).ln()


def channel(family, p):
    """Category probabilities (I, X, Y, Z) of a one-parameter family."""
    p = Decimal(p)
    if family == "sixstate":
        return (1 - 3 * p / 2, p / 2, p / 2, p / 2)
    if family == "bb84_worst":
        return (1 - 2 * p, p, Decimal(0), p)
    raise ValueError(f"unknown family {family!r}")


def css_fraction(q):
    """1 - h(bit error rate) - h(phase error rate)."""
    _, qx, qy, qz = q
    return 1 - _h(qx + qy) - _h(qy + qz)


def _rounds(text):
    """Round kinds of a B/P string, or of ``alt:N``'s alternation."""
    if text.startswith("alt:"):
        return ["BP"[i % 2] for i in range(int(text[4:]))]
    if not text or set(text) - {"B", "P"}:
        raise ValueError(f"oracle covers B/P strings only, got {text!r}")
    return list(text)


class Trajectory(NamedTuple):
    converged: bool
    net_rate: Decimal  # cumulative yield times the CSS fraction; 0 unless converged
    cum_yield: Decimal
    bit_rates: list  # bit error rate after each applied round
    css: Decimal


def trajectory(text, family, p):
    """Evolve ``family`` at ``p`` through a schedule and test the CSS stage."""
    with _context():
        q = channel(family, p)
        alternating = text.startswith("alt:")
        cum = Decimal(1)
        bits = []
        css = css_fraction(q)
        if alternating and css > MARGIN:
            return Trajectory(True, css, cum, bits, css)
        for kind in _rounds(text):
            q, _, y = apply_round(kind, q)
            cum *= y
            bits.append(q[1] + q[2])
            css = css_fraction(q)
            if alternating and css > MARGIN:
                return Trajectory(True, cum * css, cum, bits, css)
        ok = (not alternating) and css > MARGIN
        return Trajectory(ok, cum * css if ok else Decimal(0), cum, bits, css)


def converges(text, family, p):
    return trajectory(text, family, p).converged


def _bisect(pred, lo, hi, width="1e-13"):
    """Largest x in [lo, hi] where pred holds; pred(lo) true, pred(hi) false."""
    with _context():
        lo, hi, width = Decimal(lo), Decimal(hi), Decimal(width)
        if not pred(lo) or pred(hi):
            raise ValueError(f"bad bracket [{lo}, {hi}]")
        while hi - lo > width:
            mid = (lo + hi) / 2
            if pred(mid):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def threshold(text, family):
    """Crossing point of a schedule's verdict on [0.01, 1/3]."""
    return _bisect(lambda p: converges(text, family, p), "0.01", Decimal(1) / 3)


def _one_way_rate(scheme, p):
    if scheme == "shor_preskill":
        return 1 - 2 * _h(p)
    phase = p / (1 - p) if scheme == "inamori_bb84" else p / (2 * (1 - p))
    return (1 - p) * (1 - _h(phase)) - _h(p)


def one_way_root(scheme):
    """Zero of a one-way key-rate formula, bisected in high precision."""
    return _bisect(lambda p: _one_way_rate(scheme, p) > 0, "0.01", "0.3")


def build():
    """Every value the workloads check against, as decimal strings."""
    import workloads as w

    out = {"digits": DIGITS, "thresholds": {}, "one_way_roots": {},
           "curves": {}, "round_bit_rates": {}}
    strings = set(w.THRESHOLD_STRINGS)
    for seq, family, _ in w.PAPER_THRESHOLDS:
        strings.add((seq, family))
    for seq, family in sorted(strings):
        out["thresholds"][f"{family}/{seq}"] = f"{threshold(seq, family):.20g}"
    for scheme in w.RATE_SCHEMES:
        out["one_way_roots"][scheme] = f"{one_way_root(scheme):.20g}"
    for seq, family in w.CURVES:
        points = []
        for p in w.curve_grid():
            t = trajectory(seq, family, p)
            points.append([t.converged, f"{t.net_rate:.25e}", f"{t.cum_yield:.25e}"])
        out["curves"][f"{family}/{seq}"] = points
    for seq, family, p in w.SIMULATIONS:
        bits = trajectory(seq, family, p).bit_rates
        out["round_bit_rates"][f"{family}/{seq}@{p}"] = [f"{b:.25e}" for b in bits]
    return out


class Oracle:
    """Cached oracle values, with a live fallback for uncached entries."""

    def __init__(self, values):
        self.v = values

    @classmethod
    def load(cls, path=CACHE):
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def threshold(self, seq, family):
        key = f"{family}/{seq}"
        if key not in self.v["thresholds"]:
            self.v["thresholds"][key] = f"{threshold(seq, family):.20g}"
        return float(self.v["thresholds"][key])

    def one_way_root(self, scheme):
        return float(self.v["one_way_roots"][scheme])

    def curve(self, seq, family):
        return [(ok, float(r), float(y)) for ok, r, y in self.v["curves"][f"{family}/{seq}"]]

    def round_bit_rates(self, seq, family, p):
        return [float(b) for b in self.v["round_bit_rates"][f"{family}/{seq}@{p}"]]


if __name__ == "__main__":
    values = build()
    with open(CACHE, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1)
        fh.write("\n")
    print(f"wrote {CACHE}")
