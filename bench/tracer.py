"""Per-layer tracing from outside the package.

The traced run replaces the module and class attributes that the layers
call through with wrappers that time and count each call; the package
itself is not changed.  A wrapped function is swapped wherever a
``twoway_qkd`` module holds it, as an attribute or as a value of a
module-level dispatch dict, and every swap is undone on ``remove``.

Timed calls form a stack, so each call knows its parent and a call's self
time is its duration less that of its direct children.  Calls of kind
``SPAN`` are kept as spans (id, name, start, end, parent, operation) in
memory and written out at the end of the run; ``AGG`` calls (the hot inner
layers, hundreds of thousands per pass) are timed and attributed to their
parent but only aggregated; ``COUNT`` calls are counted, not timed.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter

SPAN, AGG, COUNT = "span", "agg", "count"

# (name, module, class or None, attribute, kind)
HOOKS = (
    ("channel.params", "twoway_qkd.channel", "PauliChannelParams", "__post_init__", COUNT),
    ("steps.map", "twoway_qkd.steps", None, "_b_rates", AGG),
    ("steps.map", "twoway_qkd.steps", None, "_p_rates", AGG),
    ("steps.map", "twoway_qkd.steps", None, "_bx_rates", AGG),
    ("convergence.css", "twoway_qkd.convergence", None, "css_key_fraction", AGG),
    ("convergence.verdict", "twoway_qkd.convergence", None, "_converges", AGG),
    ("convergence.candidate", "twoway_qkd.convergence", "StepSequence", "fixed", COUNT),
    ("convergence.evolve", "twoway_qkd.convergence", None, "evolve", SPAN),
    ("convergence.threshold", "twoway_qkd.convergence", None, "find_threshold", SPAN),
    ("convergence.optimize", "twoway_qkd.convergence", None, "optimize_sequence", SPAN),
    ("keyrates.rate_threshold", "twoway_qkd.keyrates", None, "rate_threshold", SPAN),
    ("keyrates.net_rate", "twoway_qkd.keyrates", None, "two_way_net_rate", AGG),
    ("montecarlo.simulate", "twoway_qkd.montecarlo", None, "simulate_protocol2_bits", SPAN),
    ("montecarlo.attack", "twoway_qkd.montecarlo", None, "intercept_resend", SPAN),
)


class Patches:
    """Attribute swaps on the loaded ``twoway_qkd`` modules, undone in reverse."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, cls, attr, make_wrapper) -> bool:
        """Swap ``make_wrapper(original)`` in for a hook point; False if absent."""
        mod = sys.modules.get(module)
        if mod is None:
            return False
        if cls is not None:
            owner = getattr(mod, cls, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            setattr(owner, attr, new)
            self._undo.append((setattr, owner, attr, raw))
            return True
        orig = getattr(mod, attr, None)
        if not callable(orig):
            return False
        new = make_wrapper(orig)
        for name, m in list(sys.modules.items()):
            if name != "twoway_qkd" and not name.startswith("twoway_qkd."):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)
                    self._undo.append((setattr, m, key, orig))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is orig:
                            val[k] = new
                            self._undo.append((dict.__setitem__, val, k, orig))
        return True

    def remove(self):
        while self._undo:
            fn, owner, key, orig = self._undo.pop()
            fn(owner, key, orig)


class Tracer:
    """Spans, per-name totals and parent-attributed counts of one run."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.totals = {}  # name -> [calls, total_ns, self_ns]
        self.by_parent = Counter()  # (name, parent name) -> calls
        self.missing = set()  # hook names with no hook point in the package
        self._stack = []  # [name, start_ns, child_ns, span_id, op_id]
        self._next_id = 0
        self._patches = Patches()

    def install(self):
        present = set()
        for name, module, cls, attr, kind in HOOKS:
            make = functools.partial(self._wrapper, name, kind)
            if self._patches.wrap(module, cls, attr, make):
                present.add(name)
            else:
                self.missing.add(name)
        self.missing -= present

    def remove(self):
        self._patches.remove()

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _wrapper(self, name, kind, fn):
        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.by_parent[name, self._parent()] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._enter(name, kind == SPAN)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return timed

    def _enter(self, name, keep):
        span_id = None
        if keep:
            self._next_id += 1
            span_id = self._next_id
        op_id = self._stack[-1][4] if self._stack else span_id
        self._stack.append([name, time.perf_counter_ns(), 0, span_id, op_id])

    def _exit(self):
        end = time.perf_counter_ns()
        name, start, child_ns, span_id, op_id = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        tot = self.totals.setdefault(name, [0, 0, 0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child_ns
        self.by_parent[name, parent[0] if parent else None] += 1
        if span_id is not None:
            parent_id = None
            for frame in reversed(self._stack):
                if frame[3] is not None:
                    parent_id = frame[3]
                    break
            self.spans.append((span_id, name, start, end, parent_id, op_id))

    def op(self, label, call):
        """Run one benchmark operation as the root span ``op:<label>``."""
        self._enter(f"op:{label}", True)
        try:
            return call()
        finally:
            self._exit()


def alloc_peaks(call):
    """Run ``call`` with tracemalloc on; return the peak bytes of each call
    to the Monte Carlo entry points (numpy reports its buffers to
    tracemalloc)."""
    peaks = []

    def make(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return measured

    patches = Patches()
    for attr in ("simulate_protocol2_bits", "intercept_resend"):
        patches.wrap("twoway_qkd.montecarlo", None, attr, make)
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
        patches.remove()
    return peaks
