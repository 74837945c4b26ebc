"""Command-line front end: reproducible batch commands with JSON/CSV output.

Every subcommand is a thin adapter over one library operation; no numeric
logic lives here.  Reports are deterministic byte-for-byte given identical
arguments and seed.  JSON reports carry a top-level ``"schema": 1`` field
and floats are serialized at 9 significant digits.

Exit codes: 0 on success (a diverged trajectory is a valid finding),
1 on usage or validation errors and when the report or the ``--help`` text
cannot be written (to ``--output`` or to stdout), 2 on internal numeric failures.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import convergence, keyrates, montecarlo
from .channel import PauliChannelParams, bb84_family, sixstate_channel
from .keyrates import NumericalError

SCHEMA_VERSION = 1
FLOAT_DIGITS = 9

# A Monte Carlo run's memory grows linearly in --n; at this cap a launch peaked
# at 63 MB RSS for attack and 45 MB for simulate (README, "Command line").
_MAX_N = 10**7

# CSV columns of the per-round reports, one row per round
EVOLVE_COLUMNS = ("step_index", "kind", "qx", "qy", "qz", "ps", "yield")
SIMULATE_COLUMNS = (
    "round", "kind", "n_in", "n_kept", "disagreements", "rate_hat", "rate_pred", "stderr",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise ValueError(message)

    def print_help(self):  # -h/--help: argparse's own writer drops write errors
        _write(self.format_help())


def _write(text: str, output: str = "-") -> None:
    """Write ``text`` to the ``output`` path, or to stdout when it is ``-``."""
    to_file = output != "-"
    try:
        if to_file:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # an unwritable stdout is an output error too, not an internal one
        raise ValueError(f"{'--output' if to_file else 'stdout'}: {exc}")


def _blame(options: str, fn, *args, **kwargs):
    """Call ``fn``; a ``ValueError`` it raises is re-raised as ``<options>: <message>``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{options}: {exc}")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{FLOAT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _flatten(prefix: str, obj, out: list[tuple[str, object]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, obj))


def _emit(args, payload: dict, rows: str = "", columns: tuple[str, ...] = (),
          table: str | None = None) -> None:
    """Write the report: ``rows`` names the payload list that CSV writes under ``columns``."""
    report = _round_floats({"schema": SCHEMA_VERSION, "command": args.subcommand, **payload})
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        import csv
        buf = io.StringIO()
        if rows:  # a per-round report: its header even when no round ran
            writer = csv.DictWriter(buf, fieldnames=columns)
            writer.writeheader()
            writer.writerows(report[rows])
        else:
            flat: list[tuple[str, object]] = []
            _flatten("", report, flat)
            writer = csv.writer(buf)
            writer.writerow(["key", "value"])
            writer.writerows(flat)
        text = buf.getvalue()
    elif table is None:
        flat = []
        _flatten("", report, flat)
        width = max((len(k) for k, _ in flat), default=0)
        text = "\n".join(f"{k:<{width}}  {v}" for k, v in flat) + "\n"
    else:
        text = table
    _write(text, args.output)


def _sequence(args) -> convergence.StepSequence:
    return _blame("--sequence/--margin", convergence.parse_sequence, args.sequence,
                  css_margin=args.margin)


def _channel(args) -> PauliChannelParams:
    if args.p is None:
        raise ValueError("--p: required")
    if args.family != "bb84" and args.a != 0.0:
        raise ValueError(f"--a: applies to --family bb84 only, got {args.a}")
    if args.family == "bb84":
        return _blame("--p/--a", bb84_family, args.p, args.a)
    return _blame("--p/--a", sixstate_channel, args.p)


def _cmd_threshold(args) -> None:
    seq = _sequence(args)
    family = "bb84_worst" if args.family == "bb84" else args.family
    result = _blame("--tol/--family", convergence.find_threshold, seq, family, tol=args.tol)
    _emit(args, {"tolerance": args.tol, **result.to_dict()})


def _cmd_evolve(args) -> None:
    seq = _sequence(args)
    channel = _channel(args)
    traj = convergence.evolve(seq, channel)
    _emit(args, {
        "sequence": str(seq),
        "channel": channel.to_dict(),
        "records": traj.to_rows(),
        "final": {
            "bit_rate": traj.final_bit_rate,
            "phase_rate": traj.final_phase_rate,
            "css_rate": traj.css_rate,
            "converged": traj.converged,
            "cumulative_yield": traj.cumulative_yield,
            "net_rate": keyrates.two_way_net_rate(traj).rate,
            "diagnostic": traj.diagnostic,
        },
    }, "records", EVOLVE_COLUMNS)


_RATE_FNS = {
    "shor_preskill": keyrates.shor_preskill_rate,
    "inamori_bb84": keyrates.inamori_bb84_rate,
    "inamori_sixstate": keyrates.inamori_sixstate_rate,
}


def _cmd_keyrate(args) -> None:
    if args.scheme == "two_way":
        if args.find_threshold:
            raise ValueError("--find-threshold: applies to the one-way schemes only")
        if args.sequence is None:
            raise ValueError("--sequence: required for scheme two_way")
        args.family = args.family or "sixstate"
        if args.margin is None:
            args.margin = convergence.DEFAULT_CSS_MARGIN
        seq = _sequence(args)
        report = keyrates.two_way_net_rate(convergence.evolve(seq, _channel(args)))
        _emit(args, {"sequence": str(seq), **report.to_dict()})
        return
    two_way_only = {"--a": args.a or None, "--family": args.family,
                    "--sequence": args.sequence, "--margin": args.margin}
    for name, value in two_way_only.items():
        if value is not None:
            raise ValueError(f"{name}: applies to --scheme two_way only, got {value}")
    fn = _RATE_FNS[args.scheme]
    if args.find_threshold:
        if args.p is not None:
            raise ValueError(f"--p: not used with --find-threshold, got {args.p}")
        root = keyrates.rate_threshold(fn)
        _emit(args, {"scheme": args.scheme, "threshold": root})
        return
    if args.p is None:
        raise ValueError("--p: required unless --find-threshold is given")
    _emit(args, _blame("--p", fn, args.p).to_dict())


def _sample(args) -> tuple[int, int]:
    """``--n`` and ``--seed``, checked in that order."""
    if args.n < 1:
        raise ValueError(f"--n: must be a positive integer, got {args.n}")
    if args.n > _MAX_N:
        raise ValueError(f"--n: must be at most {_MAX_N}, got {args.n}")
    if args.seed < 0:
        raise ValueError(f"--seed: must be a non-negative integer, got {args.seed}")
    return args.n, args.seed


def _cmd_simulate(args) -> None:
    seq = _sequence(args)
    channel = _channel(args)
    report = montecarlo.simulate_protocol2_bits(channel, seq, *_sample(args))
    _emit(args, report.to_dict(), "rounds", SIMULATE_COLUMNS)


def _cmd_attack(args) -> None:
    report = montecarlo.intercept_resend(
        args.protocol, *_sample(args), eve_matches_basis=args.eve_matches_basis
    )
    _emit(args, report.to_dict())


def _cmd_optimize(args) -> None:
    family = "bb84_worst" if args.family == "bb84" else args.family
    best_seq, best = _blame("--tol/--max-len/--margin", convergence.optimize_sequence,
                            family, args.max_len, tol=args.tol, css_margin=args.margin)
    _emit(args, {
        "family": family,
        "max_len": args.max_len,
        "tolerance": args.tol,
        "best_sequence": str(best_seq),
        "threshold": best.threshold_p,
        "bracket": list(best.bracket),
    })


def _bounds_text(bounds: dict) -> str:
    blocks = []
    for key, title in (("bb84", "BB84"), ("sixstate", "Six-state scheme")):
        one, two = bounds[key]["one_way"], bounds[key]["two_way"]
        blocks.append(
            f"{title.center(38)}\n"
            f"{'':14}{'one-way':>10}{'two-way':>10}\n"
            f"{'Upper bound':14}{one['upper']:>10.4f}{two['upper']:>10.4f}\n"
            f"{'Lower bound':14}{one['lower']:>10.4f}{two['lower']:>10.4f}\n"
        )
    return "\n".join(blocks)


def _cmd_bounds(args) -> None:
    bounds = keyrates.bounds_table()
    _emit(args, bounds, table=_bounds_text(bounds))


_FAMILY = (("--family", dict(choices=["bb84", "sixstate"], required=True)),)
_SEQUENCE = (
    ("--sequence", dict(required=True, help='step string like "BBBBBPPPPPP" or "alt:200"')),
    ("--margin", dict(type=float, default=convergence.DEFAULT_CSS_MARGIN,
                      help="CSS viability margin")),
)
_CHANNEL = (
    *_FAMILY,
    ("--p", dict(type=float, required=True, help="bit error rate")),
    ("--a", dict(type=float, default=0.0, help="Y-error rate (bb84 family only)")),
)
_SAMPLE = (
    ("--n", dict(type=int, default=1_000_000, help="sample size")),
    ("--seed", dict(type=int, default=0, help="RNG seed")),
)

# name: (help, epilog, arguments after --format and --output); run by _cmd_<name>
_COMMANDS = {
    "threshold": ("bisect the tolerable bit error rate", None, (
        *_SEQUENCE, *_FAMILY,
        ("--tol", dict(type=float, default=1e-4, help="bisection tolerance")),
    )),
    "evolve": ("run a step sequence on a channel",
               f"CSV columns: {', '.join(EVOLVE_COLUMNS)} "
               "(post-step channel rates, survival probability, cumulative yield)",
               (*_SEQUENCE, *_CHANNEL)),
    "keyrate": ("net key rate of a post-processing scheme", None, (
        ("--scheme", dict(required=True, choices=[*_RATE_FNS, "two_way"])),
        ("--p", dict(type=float, default=None, help="bit error rate")),
        ("--a", dict(type=float, default=0.0, help="two_way, bb84 family only")),
        ("--family", dict(choices=["bb84", "sixstate"], default=None,
                          help="two_way only (default: sixstate)")),
        ("--sequence", dict(default=None, help="two_way only, required")),
        ("--margin", dict(type=float, default=None, help="two_way only: CSS viability margin")),
        ("--find-threshold", dict(action="store_true",
                                  help="report the scheme's zero-rate threshold instead")),
    )),
    "simulate": ("bit-level protocol simulation", f"CSV columns: {', '.join(SIMULATE_COLUMNS)}",
                 (*_SEQUENCE, *_CHANNEL, *_SAMPLE)),
    "attack": ("intercept-resend attack baseline", None, (
        *_SAMPLE,
        ("--protocol", dict(choices=["bb84", "sixstate"], required=True)),
        ("--eve-matches-basis", dict(action="store_true",
                                     help="diagnostic mode: Eve always measures in Alice's basis")),
    )),
    "optimize": ("search B/P sequences for the best threshold", None, (
        *_FAMILY,
        ("--max-len", dict(type=int, default=8)),
        ("--tol", dict(type=float, default=1e-4)),
        ("--margin", dict(type=float, default=convergence.DEFAULT_CSS_MARGIN)),
    )),
    "bounds": ("reference error-rate bounds table", None, ()),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: only the subcommand it names, its first token not starting
    with ``-`` (no top-level option takes a value), gets its arguments."""
    parser = _Parser(prog="twoway-qkd", description="Two-way QKD post-processing toolkit")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    named = next((token for token in argv if not token.startswith("-")), None)
    for name, (help_, epilog, arguments) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_, epilog=epilog)
        if name == named:
            sub.add_argument("--format", choices=["json", "csv", "table"], default="json")
            sub.add_argument("--output", default="-", help="output path (default: stdout)")
            for flag, kwargs in arguments:
                sub.add_argument(flag, **kwargs)
            sub.set_defaults(func=globals()[f"_cmd_{name}"])
    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        args.func(args)
    except ValueError as exc:  # usage, output, ProtocolClassError, validation
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:  # reported by run(); still-buffered text goes to devnull, not to exit 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
