"""Command-line front end: reproducible batch commands with JSON/CSV output.

Every subcommand is a thin adapter over one library operation; no numeric
logic lives here.  Reports are deterministic byte-for-byte given identical
arguments and seed.  JSON reports carry a top-level ``"schema": 1`` field
and floats are serialized at 9 significant digits.

Exit codes: 0 on success (a diverged trajectory is a valid finding),
1 on usage or validation errors, 2 on internal numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import convergence, keyrates, montecarlo
from .channel import PauliChannelParams, bb84_family, sixstate_channel
from .keyrates import NumericalError
from .steps import ProtocolClassError

SCHEMA_VERSION = 1
FLOAT_DIGITS = 9


class UsageError(ValueError):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


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


def _emit(args, payload: dict, rows: list[dict] | None = None, table: str | None = None) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    if args.format == "json":
        text = json.dumps(_round_floats(payload), indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        if rows:
            rows = [_round_floats(r) for r in rows]
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        else:
            flat: list[tuple[str, object]] = []
            _flatten("", _round_floats(payload), flat)
            writer = csv.writer(buf)
            writer.writerow(["key", "value"])
            writer.writerows(flat)
        text = buf.getvalue()
    else:  # table
        if table is None:
            flat = []
            _flatten("", _round_floats(payload), flat)
            width = max((len(k) for k, _ in flat), default=0)
            table = "\n".join(f"{k:<{width}}  {v}" for k, v in flat) + "\n"
        text = table
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sequence(args) -> convergence.StepSequence:
    try:
        return convergence.parse_sequence(args.sequence, css_margin=args.margin)
    except ValueError as exc:
        raise UsageError(f"--sequence: {exc}")


def _channel(args) -> PauliChannelParams:
    if args.p is None:
        raise UsageError("--p: required")
    try:
        if args.family == "bb84":
            return bb84_family(args.p, args.a)
        return sixstate_channel(args.p)
    except ValueError as exc:
        raise UsageError(f"--p/--a: {exc}")


def _cmd_threshold(args) -> None:
    seq = _sequence(args)
    family = "bb84_worst" if args.family == "bb84" else args.family
    try:
        result = convergence.find_threshold(seq, family, tol=args.tol)
    except ValueError as exc:
        raise UsageError(f"--tol/--family: {exc}")
    payload = {"command": "threshold", "tolerance": args.tol, **result.to_dict()}
    _emit(args, payload)


def _cmd_evolve(args) -> None:
    seq = _sequence(args)
    channel = _channel(args)
    traj = convergence.evolve(seq, channel)
    net_rate = None
    if traj.converged:
        net_rate = keyrates.two_way_net_rate(traj).rate
    payload = {
        "command": "evolve",
        "sequence": str(seq),
        "channel": channel.to_dict(),
        "records": traj.to_rows(),
        "final": {
            "bit_rate": traj.final_bit_rate,
            "phase_rate": traj.final_phase_rate,
            "css_rate": traj.css_rate,
            "converged": traj.converged,
            "cumulative_yield": traj.cumulative_yield,
            "net_rate": net_rate,
            "diagnostic": traj.diagnostic,
        },
    }
    _emit(args, payload, rows=traj.to_rows())


_RATE_FNS = {
    "shor_preskill": keyrates.shor_preskill_rate,
    "inamori_bb84": keyrates.inamori_bb84_rate,
    "inamori_sixstate": keyrates.inamori_sixstate_rate,
}


def _cmd_keyrate(args) -> None:
    if args.scheme == "two_way":
        if args.sequence is None:
            raise UsageError("--sequence: required for scheme two_way")
        seq = _sequence(args)
        channel = _channel(args)
        traj = convergence.evolve(seq, channel)
        if traj.converged:
            report = keyrates.two_way_net_rate(traj).to_dict()
        else:
            report = {
                "scheme": "two_way_epp",
                "p": channel.pz,
                "rate": None,
                "components": {},
                "note": f"diverged: {traj.diagnostic or 'CSS stage not viable'}",
            }
        payload = {"command": "keyrate", "sequence": str(seq), **report}
        _emit(args, payload)
        return
    fn = _RATE_FNS[args.scheme]
    if args.find_threshold:
        root = keyrates.rate_threshold(fn)
        payload = {"command": "keyrate", "scheme": args.scheme, "threshold": root}
        _emit(args, payload)
        return
    if args.p is None:
        raise UsageError("--p: required unless --find-threshold is given")
    try:
        report = fn(args.p)
    except ValueError as exc:
        raise UsageError(f"--p: {exc}")
    _emit(args, {"command": "keyrate", **report.to_dict()})


def _cmd_simulate(args) -> None:
    seq = _sequence(args)
    channel = _channel(args)
    report = montecarlo.simulate_protocol2_bits(channel, seq, args.n, args.seed)
    payload = {"command": "simulate", **report.to_dict()}
    _emit(args, payload, rows=[r.to_dict() for r in report.rounds])


def _cmd_attack(args) -> None:
    report = montecarlo.intercept_resend(
        args.protocol, args.n, args.seed, eve_matches_basis=args.eve_matches_basis
    )
    _emit(args, {"command": "attack", **report.to_dict()})


def _cmd_optimize(args) -> None:
    family = "bb84_worst" if args.family == "bb84" else args.family
    best_seq, best = convergence.optimize_sequence(
        family, args.max_len, tol=args.tol, css_margin=args.margin
    )
    payload = {
        "command": "optimize",
        "family": family,
        "max_len": args.max_len,
        "tolerance": args.tol,
        "best_sequence": str(best_seq),
        "threshold": best.threshold_p,
        "bracket": list(best.bracket),
    }
    _emit(args, payload)


def _cmd_bounds(args) -> None:
    table = keyrates.bounds_table()
    _emit(args, {"command": "bounds", **table.to_dict()}, table=table.as_text())


def _add_common(sub, *, seq=False, chan=False, mc=False):
    sub.add_argument("--format", choices=["json", "csv", "table"], default="json")
    sub.add_argument("--output", default="-", help="output path (default: stdout)")
    if seq:
        sub.add_argument("--sequence", required=True,
                         help='step string like "BBBBBPPPPPP" or "alt:200"')
        sub.add_argument("--margin", type=float, default=convergence.DEFAULT_CSS_MARGIN,
                         help="CSS viability margin")
    if chan:
        sub.add_argument("--family", choices=["bb84", "sixstate"], required=True)
        sub.add_argument("--p", type=float, required=True, help="bit error rate")
        sub.add_argument("--a", type=float, default=0.0,
                         help="Y-error rate (bb84 family only)")
    if mc:
        sub.add_argument("--n", type=int, default=1_000_000, help="sample size")
        sub.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twoway-qkd",
                     description="Two-way QKD post-processing toolkit")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("threshold", help="bisect the tolerable bit error rate")
    _add_common(p, seq=True)
    p.add_argument("--family", choices=["bb84", "sixstate"], required=True)
    p.add_argument("--tol", type=float, default=1e-4, help="bisection tolerance")
    p.set_defaults(func=_cmd_threshold)

    p = subs.add_parser(
        "evolve",
        help="run a step sequence on a channel",
        epilog="CSV columns: step_index, kind, qx, qy, qz, ps, yield "
        "(post-step channel rates, survival probability, cumulative yield)",
    )
    _add_common(p, seq=True, chan=True)
    p.set_defaults(func=_cmd_evolve)

    p = subs.add_parser("keyrate", help="net key rate of a post-processing scheme")
    p.add_argument("--scheme", required=True,
                   choices=[*_RATE_FNS.keys(), "two_way"])
    p.add_argument("--p", type=float, default=None, help="bit error rate")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--family", choices=["bb84", "sixstate"], default="sixstate")
    p.add_argument("--sequence", default=None)
    p.add_argument("--margin", type=float, default=convergence.DEFAULT_CSS_MARGIN)
    p.add_argument("--find-threshold", action="store_true",
                   help="report the scheme's zero-rate threshold instead")
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_keyrate)

    p = subs.add_parser(
        "simulate",
        help="bit-level protocol simulation",
        epilog="CSV columns: round, kind, n_in, n_kept, disagreements, "
        "rate_hat, rate_pred, stderr",
    )
    _add_common(p, seq=True, chan=True, mc=True)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("attack", help="intercept-resend attack baseline")
    _add_common(p, mc=True)
    p.add_argument("--protocol", choices=["bb84", "sixstate"], required=True)
    p.add_argument("--eve-matches-basis", action="store_true",
                   help="diagnostic mode: Eve always measures in Alice's basis")
    p.set_defaults(func=_cmd_attack)

    p = subs.add_parser("optimize", help="search B/P sequences for the best threshold")
    _add_common(p)
    p.add_argument("--family", choices=["bb84", "sixstate"], required=True)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--margin", type=float, default=convergence.DEFAULT_CSS_MARGIN)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("bounds", help="reference error-rate bounds table")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ProtocolClassError, ValueError) as exc:
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
    sys.exit(run())


if __name__ == "__main__":
    main()
