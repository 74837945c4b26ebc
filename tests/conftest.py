"""Shared sampling, counting, memory, single-round and worst-case helpers for the test suite."""

import tracemalloc
from collections import namedtuple

import numpy as np

from twoway_qkd import PauliChannelParams, StepKind, StepSequence, bb84_family, evolve, steps
from twoway_qkd.convergence import _converges


def raw_rates(c: PauliChannelParams) -> tuple[float, float, float]:
    """Raw ``(qx, qy, qz)`` of ``c``: the state the evolution kernel takes."""
    return c.qx, c.qy, c.qz


def random_channels(n: int, seed: int, scale: float = 1.0) -> list[PauliChannelParams]:
    """Seeded sample of channels uniform over the (qx, qy, qz, qi) simplex.

    ``scale`` < 1 shrinks the total error weight, keeping samples away from
    the simplex boundary.
    """
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet([1.0, 1.0, 1.0, 1.0], size=n) * scale
    return [PauliChannelParams(q[0], q[1], q[2]) for q in draws]


def traced_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs, above those traced before it.

    numpy reports its array buffers to tracemalloc, so this counts them.  A
    first, untraced call loads what loads lazily, such as ``numpy.random``.
    """
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class CountingMaps:
    """Wraps the B and P maps in ``steps._RATE_FUNCS`` to count calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for kind in (StepKind.B, StepKind.P):
            monkeypatch.setitem(steps._RATE_FUNCS, kind, self._wrap(steps._RATE_FUNCS[kind]))

    def _wrap(self, fn):
        def counted(*args):
            self.calls += 1
            return fn(*args)
        return counted


class CountingBuilds:
    """Wraps ``cls.__init__`` to count the instances built anywhere, in ``built``."""

    def __init__(self, monkeypatch, cls):
        self.built = 0
        init = cls.__init__

        def counted(obj, *args, **kwargs):
            self.built += 1
            init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)


Round = namedtuple("Round", "params survival_prob cumulative_yield")


def one_round(kind: StepKind, c: PauliChannelParams) -> Round:
    """A single ``kind`` round applied to ``c`` by the package.

    ``params`` is built from the round's raw rates, so it also checks that
    they lie on the simplex.
    """
    t = evolve(StepSequence.fixed([kind]), c)
    ((qx, qy, qz, ps),) = t.rounds
    return Round(PauliChannelParams(qx, qy, qz), ps, t.cumulative_yield)


def worst_case_flags(seq: StepSequence, p: float, grid_size: int) -> list[bool]:
    """Convergence of ``seq`` on the BB84 family at ``p``, for ``grid_size`` values of a.

    The values of a are spaced evenly over [0, p], a = 0 first.  a = 0 is the
    worst member, so ``not flags[0] or all(flags)`` holds, under the claim's
    hypotheses: p < 1/4, and ``seq`` a B/P string that starts with B.
    """
    assert p < 0.25 and seq.steps[:1] == (StepKind.B,) and StepKind.BX not in seq.steps
    channels = (bb84_family(p, p * i / (grid_size - 1)) for i in range(grid_size))
    return [_converges(seq, raw_rates(c)) for c in channels]
