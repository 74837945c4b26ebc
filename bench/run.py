#!/usr/bin/env python3
"""Benchmark of the twoway_qkd library, end to end and layer by layer.

Run from the repository root::

    python3 bench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Each workload runs in this one fresh process, single-threaded, as a closed
loop of in-process library calls (see ``workloads.py``).  A run first
launches the workload's cold CLI command several times (``setup_s``), then
repeats whole passes over the workload's operations until ``--seconds`` have
passed and enough operations were timed for the tail percentile.  Every
output is checked (``checks.py``) against the high-precision oracle or a
statistical property.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced passes and reports the per-layer metrics
(``tracer.py``), printing the tracing overhead on standard error.  Details
go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import oracle
import tracer as tracing
import workloads

# Single-threaded numpy; set before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_LAUNCHES = 11
HARD_LIMIT_S = 150.0  # stop passes here even if the tail lacks operations

# Reported timings are wall times scaled to a reference machine speed:
# raw * CALIBRATION_REF_S / c, where c is the time of the calibration loop
# measured next to the timed work.  The host's speed flips between states
# some 1.7x apart every few seconds; this loop, which allocates objects and
# calls functions much as the package does, slows down with it (see
# README.md).  CALIBRATION_REF_S is the loop's time on that 2-CPU host in
# its fast state.
CALIBRATION_REF_S = 0.0025


class _Point:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tracks the machine's speed."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(6000):
        p = _Point(i * 0.5, i + 1.0, 3.0)
        acc += math.log1p(p.a / (p.b + p.c))
        table[i & 1023] = (p, acc)
    return time.perf_counter() - t0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _launch(argv):
    """Wall time and finished process of a fresh interpreter run to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=60)
    return time.perf_counter() - t0, proc


def _timed_import(module):
    """In-process seconds to import ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    _, proc = _launch(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def _scale(raw, cal_before, cal_after):
    """A raw time at the reference speed, from the calibrations around it."""
    return raw * CALIBRATION_REF_S / (0.5 * (cal_before + cal_after))


def cold_cli(workload, seed, orac):
    """Raw and scaled wall times of the workload's cold CLI command, and its
    check."""
    argv = ["-m", "twoway_qkd.cli", *workloads.cli_argv(workload, seed)]
    walls, scaled, err = [], [], None
    cal = calibrate()
    for _ in range(SETUP_LAUNCHES):
        wall, proc = _launch(argv)
        cal_after = calibrate()
        walls.append(wall)
        scaled.append(_scale(wall, cal, cal_after))
        cal = cal_after
        if proc.returncode != 0:
            err = err or f"exited {proc.returncode}: {proc.stderr.strip()}"
        else:
            err = err or workloads.check_cli(workload, orac, json.loads(proc.stdout))
    return walls, scaled, err


def setup_layers():
    """Per-layer split of start-up: interpreter, numpy import, package import."""
    return {
        "setup.interpreter_s": statistics.median(
            _launch(["-c", "pass"])[0] for _ in range(SETUP_LAUNCHES)),
        "setup.numpy_import_s": statistics.median(
            _timed_import("numpy") for _ in range(SETUP_LAUNCHES)),
        "setup.package_import_s": statistics.median(
            _timed_import("twoway_qkd.cli") for _ in range(SETUP_LAUNCHES)),
    }


def warm_cli_ms(workload, seed):
    """Median in-process time of the cold CLI command, run while warm."""
    from twoway_qkd import cli

    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            cli.run(workloads.cli_argv(workload, seed))
            times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times[1:])


class Passes:
    """Timings and check outcomes of whole passes over a workload's ops.

    The calibration loop runs before every operation and after the last, so
    each operation's time is scaled by the calibrations on either side.
    """

    def __init__(self, ops):
        self.ops = ops
        self.passes = []  # (traced, op seconds, calibrations around them)
        self.attempted = 0
        self.failures = {}  # label -> (count, first message)

    def run_one(self, tracer=None):
        times, cals = [], [calibrate()]
        for op in self.ops:
            err = None
            t0 = time.perf_counter()
            try:
                out = tracer.op(op.label, op.call) if tracer else op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                err = f"raised {exc!r}"
            times.append(time.perf_counter() - t0)
            cals.append(calibrate())
            if err is None:
                try:
                    err = op.check(out)
                except Exception as exc:  # an output of the wrong shape
                    err = f"check raised {exc!r}"
            self.attempted += 1
            if err is not None:
                count, first = self.failures.get(op.label, (0, err))
                self.failures[op.label] = (count + 1, first)
        self.passes.append((tracer is not None, times, cals))

    def calibrations(self):
        return [c for _, _, cals in self.passes for c in cals]

    def pass_times(self, traced, scaled=False):
        out = []
        for tr, times, cals in self.passes:
            if tr == traced:
                out.append(sum(self._op_times(times, cals, scaled)))
        return out

    def op_times(self, scaled=False):
        """Every untraced operation's seconds, raw or at the reference speed."""
        return [t for tr, times, cals in self.passes if not tr
                for t in self._op_times(times, cals, scaled)]

    @staticmethod
    def _op_times(times, cals, scaled):
        if not scaled:
            return times
        return [_scale(t, cals[i], cals[i + 1]) for i, t in enumerate(times)]


def run(workload, seed, seconds, trace):
    orac = oracle.Oracle.load()
    setup_walls, setup_scaled, cli_err = cold_cli(workload, seed, orac)
    extra = {}
    if trace:
        extra.update(setup_layers())
        extra["cli.run_ms"] = warm_cli_ms(workload, seed)

    ops = workloads.WORKLOADS[workload](orac, seed)
    passes = Passes(ops)
    tr = tracing.Tracer() if trace else None
    start = time.perf_counter()
    deadline = start + seconds
    need = 0 if trace else workloads.min_ops(workload)  # the traced run reports no tail
    while True:
        passes.run_one()
        if tr is not None:
            tr.install()
            try:
                passes.run_one(tr)
            finally:
                tr.remove()
        now = time.perf_counter()
        if now >= deadline and passes.attempted >= need:
            break
        if now - start >= HARD_LIMIT_S:
            print(f"warning: stopped at {HARD_LIMIT_S:g} s with {passes.attempted} "
                  f"operations, fewer than {need}", file=sys.stderr)
            break

    known = workloads.KNOWN_FAILURES
    failed = sum(count for count, _ in passes.failures.values())
    correct = cli_err is None and all(label in known for label in passes.failures)
    for label, (count, msg) in sorted(passes.failures.items()):
        tag = "known failure" if label in known else "FAILED"
        print(f"{tag}: {label} ({count}x): {msg}", file=sys.stderr)
    if cli_err:
        print(f"FAILED: cold CLI output: {cli_err}", file=sys.stderr)

    calib_ms = 1e3 * statistics.median(passes.calibrations())
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes.passes),
        "calibration_ms": calib_ms,
        "setup_walls_s": setup_walls,
        "failures": {k: list(v) for k, v in passes.failures.items()},
    }
    if not trace:
        pass_s = passes.pass_times(False, scaled=True)
        op_s = passes.op_times(scaled=True)
        raw_ops = passes.op_times()
        tail = workloads.TAIL_PERCENTILE[workload]
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "pass_s": (statistics.median(pass_s), "s"),
            "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
            "op_tail_ms": (1e3 * percentile(op_s, tail), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        labels = [op.label for op in ops]
        per_op = {label: [] for label in labels}
        for label, t in zip(labels * len(op_s), op_s):
            per_op[label].append(t)
        details.update(op_count=len(op_s), tail_percentile=tail, raw={
            "setup_s": statistics.median(setup_walls),
            "pass_s": statistics.median(passes.pass_times(False)),
            "op_p50_ms": 1e3 * statistics.median(raw_ops),
            "op_tail_ms": 1e3 * percentile(raw_ops, tail),
        }, op_median_ms={k: 1e3 * statistics.median(v) for k, v in per_op.items()})
    else:
        traced = passes.pass_times(True)
        untraced = passes.pass_times(False)
        overhead = statistics.median(traced) - statistics.median(untraced)
        print(f"tracing overhead: {overhead:.4f} s per pass (traced {statistics.median(traced):.4f} s,"
              f" untraced {statistics.median(untraced):.4f} s)", file=sys.stderr)
        peaks = []
        if any(name.startswith("montecarlo.") for name in tr.totals):
            peaks = tracing.alloc_peaks(lambda: [op.call() for op in ops])
        extra["montecarlo.alloc_peak_mb"] = max(peaks) / 2**20 if peaks else 0.0
        extra["calib.loop_ms"] = calib_ms
        metrics = layer_metrics(tr, len(traced), extra)
        details.update(overhead_s=overhead, traced_pass_s=traced, untraced_pass_s=untraced,
                       missing_hooks=sorted(tr.missing), totals=tr.totals,
                       by_parent=[[k[0], k[1], v] for k, v in tr.by_parent.items()])
        write_out(f"trace-{workload}-s{seed}.json", {"spans": tr.spans, **details})
    result = {
        "correct": correct,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details["result"] = result
    write_out(f"result-{workload}-s{seed}-t{int(trace)}.json", details)
    return result


# name -> (unit, hook names it needs)
LAYER_METRICS = {
    "setup.interpreter_s": ("s", ()),
    "setup.numpy_import_s": ("s", ()),
    "setup.package_import_s": ("s", ()),
    "cli.run_ms": ("ms", ()),
    "channel.params_built": ("count", ("channel.params",)),
    "steps.map_evals": ("count", ("steps.map",)),
    "steps.map_ns": ("ns", ("steps.map",)),
    "convergence.verdicts": ("count", ("convergence.verdict",)),
    "convergence.verdict_us": ("us", ("convergence.verdict",)),
    "convergence.css_evals": ("count", ("convergence.css",)),
    "convergence.evolve_calls": ("count", ("convergence.evolve",)),
    "convergence.evolve_us": ("us", ("convergence.evolve",)),
    "convergence.thresholds": ("count", ("convergence.threshold",)),
    "convergence.threshold_ms": ("ms", ("convergence.threshold",)),
    "convergence.verdicts_per_threshold": ("count", ("convergence.verdict", "convergence.threshold")),
    "convergence.candidates": ("count", ("convergence.candidate", "convergence.optimize")),
    "convergence.bisected_ratio": ("ratio", ("convergence.candidate", "convergence.threshold",
                                             "convergence.optimize")),
    "convergence.optimize_self_s": ("s", ("convergence.optimize",)),
    "keyrates.rate_threshold_ms": ("ms", ("keyrates.rate_threshold",)),
    "keyrates.net_rate_us": ("us", ("keyrates.net_rate",)),
    "montecarlo.simulate_ms": ("ms", ("montecarlo.simulate",)),
    "montecarlo.attack_ms": ("ms", ("montecarlo.attack",)),
    "montecarlo.pairs_per_s": ("1/s", ("montecarlo.simulate",)),
    "montecarlo.alloc_peak_mb": ("MB", ("montecarlo.simulate", "montecarlo.attack")),
    "calib.loop_ms": ("ms", ()),
}


def layer_metrics(tr, passes, extra):
    """Per-layer metrics of the traced passes: counts per pass, times as the
    mean per call (0 where the workload makes no such call)."""
    def calls(name):
        return tr.totals.get(name, [0, 0, 0])[0]

    def mean(name, scale, index=1):
        n = calls(name)
        return tr.totals[name][index] / n * scale if n else 0.0

    def under(name, parent):
        return tr.by_parent[name, parent]

    def count(name):
        return sum(v for (n, _), v in tr.by_parent.items() if n == name)

    thresholds = calls("convergence.threshold")
    candidates = under("convergence.candidate", "convergence.optimize")
    simulate_s = tr.totals.get("montecarlo.simulate", [0, 0])[1] * 1e-9
    values = {
        **extra,
        "channel.params_built": count("channel.params") / passes,
        "steps.map_evals": calls("steps.map") / passes,
        "steps.map_ns": mean("steps.map", 1.0),
        "convergence.verdicts": calls("convergence.verdict") / passes,
        "convergence.verdict_us": mean("convergence.verdict", 1e-3),
        "convergence.css_evals": calls("convergence.css") / passes,
        "convergence.evolve_calls": calls("convergence.evolve") / passes,
        "convergence.evolve_us": mean("convergence.evolve", 1e-3),
        "convergence.thresholds": thresholds / passes,
        "convergence.threshold_ms": mean("convergence.threshold", 1e-6),
        "convergence.verdicts_per_threshold":
            under("convergence.verdict", "convergence.threshold") / thresholds if thresholds else 0.0,
        "convergence.candidates": candidates / passes,
        "convergence.bisected_ratio":
            under("convergence.threshold", "convergence.optimize") / candidates if candidates else 0.0,
        "convergence.optimize_self_s": mean("convergence.optimize", 1e-9, index=2),
        "keyrates.rate_threshold_ms": mean("keyrates.rate_threshold", 1e-6),
        "keyrates.net_rate_us": mean("keyrates.net_rate", 1e-3),
        "montecarlo.simulate_ms": mean("montecarlo.simulate", 1e-6),
        "montecarlo.attack_ms": mean("montecarlo.attack", 1e-6),
        "montecarlo.pairs_per_s":
            calls("montecarlo.simulate") * workloads.MC_N / simulate_s if simulate_s else 0.0,
    }
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        absent = any(n in tr.missing for n in needs)
        out[name] = (None if absent else values[name], unit)
    return out


def write_out(name, payload):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twoway_qkd", "__init__.py")):
        print(f"error: no twoway_qkd package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
