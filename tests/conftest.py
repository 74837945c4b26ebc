"""Shared sampling, counting and single-round helpers for the test suite."""

import numpy as np

from twoway_qkd import PauliChannelParams, StepKind, StepSequence, convergence, evolve, steps


def random_channels(n: int, seed: int, scale: float = 1.0) -> list[PauliChannelParams]:
    """Seeded sample of channels uniform over the (qx, qy, qz, qi) simplex.

    ``scale`` < 1 shrinks the total error weight, keeping samples away from
    the simplex boundary.
    """
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet([1.0, 1.0, 1.0, 1.0], size=n) * scale
    return [PauliChannelParams(q[0], q[1], q[2]) for q in draws]


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
    """Wraps classes that ``convergence`` builds to count the instances made.

    ``built`` maps each wrapped class name to its count.
    """

    def __init__(self, monkeypatch, *names):
        self.built = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(convergence, name, self._wrap(name, getattr(convergence, name)))

    def _wrap(self, name, cls):
        def counted(*args, **kwargs):
            self.built[name] += 1
            return cls(*args, **kwargs)
        return counted


def one_round(kind: StepKind, c: PauliChannelParams):
    """The package's record of a single ``kind`` round applied to ``c``."""
    return evolve(StepSequence.fixed([kind]), c).records[0]
