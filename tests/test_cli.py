"""CLI: subcommand dispatch, formats, exit codes, and determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from twoway_qkd import (
    StepSequence,
    find_threshold,
    intercept_resend,
    shor_preskill_rate,
)
from twoway_qkd.cli import build_parser, run

GOLDEN = Path(__file__).parent / "golden"


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the five analytic commands, which a fresh interpreter runs in the cold-path tests
ANALYTIC_COMMANDS = [
    ["threshold", "--family", "sixstate", "--sequence", "BB", "--tol", "1e-3"],
    ["evolve", "--family", "bb84", "--p", "0.1", "--sequence", "BBP"],
    ["keyrate", "--scheme", "shor_preskill", "--p", "0.05"],
    ["optimize", "--family", "sixstate", "--max-len", "4", "--tol", "1e-3"],
    ["bounds"],
]


def _cli_process(args, unbuffered=False, **kwargs):
    """Run a fresh interpreter on the package in ``src``; stderr is captured as text.

    ``PYTHONUNBUFFERED`` is dropped, so stdout is block-buffered as in a plain launch,
    unless ``unbuffered`` sets it.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], env={**env, "PYTHONPATH": src},
                          stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)


class TestThresholdCommand:
    def test_sixstate_five_b(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["threshold", "--family", "sixstate", "--sequence", "BBBBB", "--tol", "1e-4"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert 0.2635 <= report["threshold"] <= 0.270

    def test_matches_library_call(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["threshold", "--family", "bb84", "--sequence", "BBBBBPPPPPP", "--tol", "1e-4"],
        )
        report = json.loads(out)
        lib = find_threshold(StepSequence.fixed("BBBBBPPPPPP"), "bb84_worst", tol=1e-4)
        assert report["threshold"] == float(f"{lib.threshold_p:.9g}")
        assert report["family"] == "bb84_worst"

    def test_malformed_sequence_exits_1(self, capsys):
        code, _, err = run_capture(
            capsys, ["threshold", "--family", "sixstate", "--sequence", "BBQ"]
        )
        assert code == 1
        assert "--sequence" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "sixstate", "--sequence", "B", "--tol", "0.4"], "--tol/--family: tol must"),
            (["--family", "sixstate", "--sequence", "B", "--tol", "nan"], "--tol/--family: tol must"),
            (["--family", "bb84", "--sequence", "BBBBB", "--margin", "nan"],
             "--sequence/--margin: css_margin must"),
            (["--family", "bb84", "--sequence", "BBBBB", "--margin", "inf"],
             "--sequence/--margin: css_margin must"),
        ],
        ids=["tol-0.4", "tol-nan", "margin-nan", "margin-inf"],
    )
    def test_invalid_tolerance_or_margin_exits_1(self, capsys, argv, message):
        code, out, err = run_capture(capsys, ["threshold", *argv])
        assert code == 1
        assert out == ""
        assert message in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_capture(
            capsys,
            ["threshold", "--family", "sixstate", "--sequence", "B", "--frobnicate"],
        )
        assert code == 1


class TestEvolveCommand:
    def test_noiseless_bp_csv(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "evolve", "--family", "bb84", "--p", "0", "--a", "0",
                "--sequence", "BP", "--format", "csv",
            ],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert all(row["qx"] == "0.0" and row["qy"] == "0.0" and row["qz"] == "0.0" for row in rows)
        assert float(rows[-1]["yield"]) == pytest.approx(1 / 6, rel=1e-8)

    def test_csv_without_rounds_prints_the_header(self, capsys):
        # six-state p = 0.05 is CSS-viable before round 1
        code, out, _ = run_capture(
            capsys, "evolve --family sixstate --p 0.05 --sequence alt:200 --format csv".split()
        )
        assert code == 0
        assert out == "step_index,kind,qx,qy,qz,ps,yield\r\n"

    def test_json_report_includes_final_block(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["evolve", "--family", "sixstate", "--p", "0.2", "--sequence", "BBBBB"],
        )
        report = json.loads(out)
        assert report["final"]["converged"] is True
        assert report["final"]["net_rate"] > 0.0
        assert len(report["records"]) == 5

    def test_out_of_domain_p_exits_1(self, capsys):
        code, _, err = run_capture(
            capsys,
            ["evolve", "--family", "bb84", "--p", "0.9", "--sequence", "B"],
        )
        assert code == 1
        assert "--p" in err

    @pytest.mark.parametrize("family", ["sixstate", "bb84"])
    def test_negative_zero_p_reports_positive_zeros(self, capsys, family):
        code, out, _ = run_capture(
            capsys,
            ["evolve", "--family", family, "--p", "-0.0", "--sequence", "B"],
        )
        assert code == 0
        assert '"qx": 0.0' in out and "-0.0" not in out

    def test_oversized_alternation_exits_1(self, capsys):
        code, out, err = run_capture(
            capsys,
            ["evolve", "--family", "sixstate", "--p", "0.2", "--sequence", "alt:10001"],
        )
        assert code == 1
        assert out == ""
        assert "--sequence" in err and "max_rounds" in err

    def test_oversized_fixed_sequence_exits_1(self, capsys):
        code, out, err = run_capture(
            capsys,
            ["evolve", "--family", "sixstate", "--p", "0.3", "--sequence", "B" * 10_001],
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: --sequence/--margin: a fixed sequence holds at most 10000 rounds, "
            "got 10001\n"
        )

    def test_diverged_is_a_valid_finding(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["evolve", "--family", "sixstate", "--p", "0.30", "--sequence", "BBBBB"],
        )
        assert code == 0
        assert json.loads(out)["final"]["converged"] is False


class TestKeyrateCommand:
    def test_shor_preskill_value(self, capsys):
        code, out, _ = run_capture(
            capsys, ["keyrate", "--scheme", "shor_preskill", "--p", "0.05"]
        )
        report = json.loads(out)
        assert report["rate"] == float(f"{shor_preskill_rate(0.05).rate:.9g}")

    def test_find_threshold_flag(self, capsys):
        code, out, _ = run_capture(
            capsys, ["keyrate", "--scheme", "inamori_sixstate", "--find-threshold"]
        )
        assert code == 0
        assert json.loads(out)["threshold"] == pytest.approx(0.126, abs=0.001)

    def test_two_way_scheme(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "keyrate", "--scheme", "two_way", "--family", "sixstate",
                "--p", "0.1", "--sequence", "BBB",
            ],
        )
        report = json.loads(out)
        assert report["scheme"] == "two_way_epp"
        assert report["rate"] > 0.0

    def test_two_way_diverged_alternation(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "keyrate", "--scheme", "two_way", "--family", "sixstate",
                "--p", "0.3", "--sequence", "alt:200",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["sequence"] == "alt:200"
        assert (report["rate"], report["components"]) == (None, {})
        assert report["note"] == "diverged: no CSS viability within 200 rounds"

    def test_two_way_requires_sequence(self, capsys):
        code, _, err = run_capture(capsys, ["keyrate", "--scheme", "two_way", "--p", "0.1"])
        assert code == 1
        assert "--sequence" in err

    def test_missing_p_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["keyrate", "--scheme", "shor_preskill"])
        assert code == 1
        assert "--p" in err

    def test_two_way_missing_p_exits_1(self, capsys):
        code, out, err = run_capture(
            capsys, ["keyrate", "--scheme", "two_way", "--sequence", "BBB"]
        )
        assert code == 1
        assert out == ""
        assert err == "error: --p: required\n"

    @pytest.mark.parametrize("scheme", ["shor_preskill", "inamori_bb84", "inamori_sixstate"])
    def test_negative_zero_p_reports_positive_zero(self, capsys, scheme):
        code, out, _ = run_capture(capsys, ["keyrate", "--scheme", scheme, "--p", "-0.0"])
        assert code == 0
        assert '"p": 0.0' in out and "-0.0" not in out


class TestAttackCommand:
    def test_bb84_rate(self, capsys):
        code, out, _ = run_capture(
            capsys, ["attack", "--protocol", "bb84", "--n", "200000", "--seed", "0"]
        )
        report = json.loads(out)
        assert abs(report["error_rate"] - 0.25) < 0.01
        lib = intercept_resend("bb84", 200000, 0)
        assert report["errors"] == lib.errors

    def test_byte_identical_reruns(self, capsys):
        args = ["attack", "--protocol", "sixstate", "--n", "50000", "--seed", "3"]
        _, out1, _ = run_capture(capsys, args)
        _, out2, _ = run_capture(capsys, args)
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["attack", "--protocol", "bb84", "--n", "1000", "--seed", "0",
             "--format", "csv"],
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]

    MC_ARGV = [
        ["attack", "--protocol", "bb84", "--n", "10"],
        ["simulate", "--family", "bb84", "--p", "0.1", "--sequence", "BB", "--n", "10"],
    ]

    @pytest.mark.parametrize("argv", MC_ARGV, ids=["attack", "simulate"])
    def test_negative_seed_exits_1(self, capsys, argv):
        code, out, err = run_capture(capsys, [*argv, "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert "error: --seed: must be a non-negative integer" in err

    @pytest.mark.parametrize("argv", MC_ARGV, ids=["attack", "simulate"])
    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_non_positive_n_is_named(self, capsys, argv, n):
        code, out, err = run_capture(capsys, [*argv, "--n", n])
        assert code == 1
        assert out == ""
        assert f"error: --n: must be a positive integer, got {n}" in err

    @pytest.mark.parametrize("argv", MC_ARGV, ids=["attack", "simulate"])
    def test_oversized_n_is_named(self, capsys, argv):
        # rejected before any draw, so the oversized run never starts
        code, out, err = run_capture(capsys, [*argv, "--n", "10000001"])
        assert code == 1
        assert out == ""
        assert "error: --n: must be at most 10000000, got 10000001" in err


class TestOptimizeCommand:
    def test_small_search(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["optimize", "--family", "sixstate", "--max-len", "2", "--tol", "1e-3"],
        )
        report = json.loads(out)
        assert code == 0
        assert set(report["best_sequence"]) <= {"B", "P"}

    def test_winner_is_within_tol_of_the_highest_threshold(self, capsys):
        # BBB (0.248) and BBBBBB (0.267) lie within 0.03 of each other, and BBB
        # has the higher net rate; a winner 1.9 tol below the highest is wrong.
        code, out, _ = run_capture(
            capsys,
            ["optimize", "--family", "sixstate", "--max-len", "8", "--tol", "0.03"],
        )
        report = json.loads(out)
        assert code == 0
        assert (report["best_sequence"], report["threshold"]) == ("BBB", 0.248020833)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--tol", "0.4"], "--tol/--max-len/--margin: tol must"),
            (["--max-len", "17"], "--tol/--max-len/--margin: max_len must"),
            (["--max-len", "0"], "--tol/--max-len/--margin: max_len must"),
            (["--margin", "nan"], "--tol/--max-len/--margin: css_margin must"),
        ],
        ids=["tol-0.4", "max-len-17", "max-len-0", "margin-nan"],
    )
    def test_invalid_argument_is_named(self, capsys, argv, message):
        code, out, err = run_capture(capsys, ["optimize", "--family", "sixstate", *argv])
        assert code == 1
        assert out == ""
        assert message in err

    def test_threads_flag_is_a_usage_error(self, capsys):
        code, out, err = run_capture(
            capsys,
            ["optimize", "--family", "sixstate", "--max-len", "3", "--threads", "2"],
        )
        assert code == 1
        assert out == ""
        assert "--threads" in err


class TestBoundsCommand:
    def test_json(self, capsys):
        code, out, _ = run_capture(capsys, ["bounds"])
        report = json.loads(out)
        assert report["bb84"]["two_way"]["upper"] == 0.25
        assert report["sixstate"]["two_way"]["lower"] == 0.264

    def test_table(self, capsys):
        code, out, _ = run_capture(capsys, ["bounds", "--format", "table"])
        assert "BB84" in out
        assert "Six-state" in out


class TestSimulateCommand:
    def test_round_table(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "simulate", "--family", "bb84", "--p", "0.1", "--sequence", "BB",
                "--n", "20000", "--seed", "0", "--format", "csv",
            ],
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0]["kind"] == "B"

    def test_csv_without_rounds_prints_the_header(self, capsys):
        # one pair is too few for a B round, so no round runs
        code, out, _ = run_capture(
            capsys, "simulate --family sixstate --p 0.05 --sequence BB --n 1 --format csv".split()
        )
        assert code == 0
        assert out == "round,kind,n_in,n_kept,disagreements,rate_hat,rate_pred,stderr\r\n"

    def test_bx_exits_1(self, capsys):
        code, out, err = run_capture(
            capsys, "simulate --family bb84 --p 0.1 --sequence BxB --n 10".split()
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: step Bx is EPP-only and cannot appear in a prepare-and-measure sequence\n"
        )


class TestChannelArguments:
    CHANNEL_ARGV = {
        "evolve": ["evolve", "--sequence", "BB"],
        "simulate": ["simulate", "--sequence", "BB", "--n", "100"],
        "keyrate": ["keyrate", "--scheme", "two_way", "--sequence", "BB"],
    }

    @pytest.mark.parametrize("command", sorted(CHANNEL_ARGV))
    @pytest.mark.parametrize("a", ["0.1", "-0.1"])
    def test_a_outside_bb84_is_named(self, capsys, command, a):
        argv = [*self.CHANNEL_ARGV[command], "--family", "sixstate", "--p", "0.1", "--a", a]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"error: --a: applies to --family bb84 only, got {a}" in err

    @pytest.mark.parametrize("command", sorted(CHANNEL_ARGV))
    def test_zero_a_is_accepted(self, capsys, command):
        argv = [*self.CHANNEL_ARGV[command], "--family", "sixstate", "--p", "0.1", "--a", "0"]
        code, _, _ = run_capture(capsys, argv)
        assert code == 0

    @pytest.mark.parametrize("p", ["nan", "-0.1"])
    def test_bad_bb84_p_is_blamed_on_p(self, capsys, p):
        argv = ["evolve", "--family", "bb84", "--p", p, "--sequence", "B"]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"error: --p/--a: need 0 <= p <= 1/2, got p={p}" in err


class TestKeyrateArguments:
    ONE_WAY = ["keyrate", "--scheme", "inamori_bb84", "--p", "0.05"]

    @pytest.mark.parametrize("name, value, shown", [
        ("--a", "0.3", "0.3"),
        ("--family", "bb84", "bb84"),
        ("--sequence", "BB", "BB"),
        ("--margin", "0", "0.0"),
    ])
    def test_two_way_argument_on_one_way_scheme_is_named(self, capsys, name, value, shown):
        code, out, err = run_capture(capsys, [*self.ONE_WAY, name, value])
        assert code == 1
        assert out == ""
        assert f"error: {name}: applies to --scheme two_way only, got {shown}" in err

    def test_find_threshold_on_two_way_is_named(self, capsys):
        argv = ["keyrate", "--scheme", "two_way", "--sequence", "BB", "--p", "0.1",
                "--find-threshold"]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert "error: --find-threshold: applies to the one-way schemes only" in err

    def test_p_with_find_threshold_is_named(self, capsys):
        argv = ["keyrate", "--scheme", "shor_preskill", "--find-threshold", "--p", "0.1"]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert "error: --p: not used with --find-threshold, got 0.1" in err

    def test_zero_a_on_one_way_scheme_is_accepted(self, capsys):
        code, out, _ = run_capture(capsys, [*self.ONE_WAY, "--a", "0"])
        assert code == 0
        assert json.loads(out)["scheme"] == "inamori_bb84"

    def test_two_way_defaults_match_explicit_values(self, capsys):
        argv = ["keyrate", "--scheme", "two_way", "--sequence", "BBBBB", "--p", "0.1"]
        _, default, _ = run_capture(capsys, argv)
        _, explicit, _ = run_capture(
            capsys, [*argv, "--family", "sixstate", "--margin", "1e-30"])
        assert default == explicit


# Every usage error the CLI raises, and argparse's own: exit 1 and the whole stderr line.
USAGE_ERRORS = [
    ("no-subcommand", [], "the following arguments are required: subcommand"),
    ("bad-subcommand", ["frobnicate"],
     "argument subcommand: invalid choice: 'frobnicate' (choose from 'threshold', 'evolve', "
     "'keyrate', 'simulate', 'attack', 'optimize', 'bounds')"),
    ("bad-choice", ["threshold", "--family", "trine", "--sequence", "B"],
     "argument --family: invalid choice: 'trine' (choose from 'bb84', 'sixstate')"),
    ("bad-float", ["evolve", "--family", "bb84", "--p", "x", "--sequence", "B"],
     "argument --p: invalid float value: 'x'"),
    ("bad-int", ["attack", "--protocol", "bb84", "--n", "1.5"],
     "argument --n: invalid int value: '1.5'"),
    ("missing-option", ["threshold", "--family", "sixstate"],
     "the following arguments are required: --sequence"),
    ("unknown-option", ["optimize", "--family", "sixstate", "--threads", "2"],
     "unrecognized arguments: --threads 2"),
    ("output", ["bounds", "--output", "{tmp}/missing/report.json"],
     "--output: [Errno 2] No such file or directory: '{tmp}/missing/report.json'"),
    ("empty-output", ["bounds", "--output", ""],  # not stdout: that is "-"
     "--output: [Errno 2] No such file or directory: ''"),
    ("sequence", ["threshold", "--family", "sixstate", "--sequence", "X"],
     "--sequence/--margin: invalid step token 'X' at position 0"),
    ("alt-count", ["evolve", "--family", "sixstate", "--p", "0.05", "--sequence", "alt: 1_0"],
     "--sequence/--margin: invalid alternation spec 'alt: 1_0'; expected alt:N"),
    ("margin", ["threshold", "--family", "sixstate", "--sequence", "B", "--margin", "-1"],
     "--sequence/--margin: css_margin must be finite and >= 0, got -1.0"),
    ("threshold-tol", ["threshold", "--family", "sixstate", "--sequence", "B", "--tol", "0"],
     "--tol/--family: tol must lie in [1e-6, 0.3333333333333333), got 0.0"),
    ("two-way-p", ["keyrate", "--scheme", "two_way", "--sequence", "B"], "--p: required"),
    ("a-off-bb84",
     ["evolve", "--family", "sixstate", "--p", "0.1", "--a", "0.1", "--sequence", "B"],
     "--a: applies to --family bb84 only, got 0.1"),
    ("bb84-p", ["evolve", "--family", "bb84", "--p", "0.6", "--sequence", "B"],
     "--p/--a: need 0 <= p <= 1/2, got p=0.6"),
    ("sixstate-p", ["evolve", "--family", "sixstate", "--p", "-0.1", "--sequence", "B"],
     "--p/--a: need 0 <= p <= 2/3, got p=-0.1"),
    ("two-way-find-threshold", ["keyrate", "--scheme", "two_way", "--find-threshold"],
     "--find-threshold: applies to the one-way schemes only"),
    ("two-way-sequence", ["keyrate", "--scheme", "two_way", "--p", "0.1"],
     "--sequence: required for scheme two_way"),
    ("one-way-a", ["keyrate", "--scheme", "shor_preskill", "--p", "0.1", "--a", "0.01"],
     "--a: applies to --scheme two_way only, got 0.01"),
    ("one-way-family", ["keyrate", "--scheme", "shor_preskill", "--p", "0.1", "--family", "bb84"],
     "--family: applies to --scheme two_way only, got bb84"),
    ("one-way-sequence", ["keyrate", "--scheme", "shor_preskill", "--p", "0.1", "--sequence", "B"],
     "--sequence: applies to --scheme two_way only, got B"),
    ("one-way-margin", ["keyrate", "--scheme", "shor_preskill", "--p", "0.1", "--margin", "0.5"],
     "--margin: applies to --scheme two_way only, got 0.5"),
    ("find-threshold-p", ["keyrate", "--scheme", "inamori_bb84", "--find-threshold", "--p", "0.1"],
     "--p: not used with --find-threshold, got 0.1"),
    ("one-way-no-p", ["keyrate", "--scheme", "inamori_sixstate"],
     "--p: required unless --find-threshold is given"),
    ("one-way-p", ["keyrate", "--scheme", "shor_preskill", "--p", "1.5"],
     "--p: need 0 <= p <= 1/2, got p=1.5"),
    ("seed", ["attack", "--protocol", "bb84", "--seed", "-1"],
     "--seed: must be a non-negative integer, got -1"),
    ("n-zero", ["simulate", "--family", "bb84", "--p", "0.1", "--sequence", "B", "--n", "0"],
     "--n: must be a positive integer, got 0"),
    ("n-over", ["attack", "--protocol", "sixstate", "--n", "10000001"],
     "--n: must be at most 10000000, got 10000001"),
    ("max-len", ["optimize", "--family", "bb84", "--max-len", "0"],
     "--tol/--max-len/--margin: max_len must be in [1, 16], got 0"),
    ("optimize-tol", ["optimize", "--family", "bb84", "--tol", "-1"],
     "--tol/--max-len/--margin: tol must lie in [1e-6, 0.3333333333333333), got -1.0"),
    ("optimize-margin", ["optimize", "--family", "sixstate", "--max-len", "4", "--margin", "nan"],
     "--tol/--max-len/--margin: css_margin must be finite and >= 0, got nan"),
]


@pytest.mark.parametrize("argv, message", [row[1:] for row in USAGE_ERRORS],
                         ids=[row[0] for row in USAGE_ERRORS])
def test_usage_error_bytes(capsys, tmp_path, argv, message):
    code, out, err = run_capture(capsys, [a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert (code, out, err) == (1, "", f"error: {message.replace('{tmp}', str(tmp_path))}\n")


_CHOICES = ("(choose from 'threshold', 'evolve', 'keyrate', 'simulate', 'attack', 'optimize', "
            "'bounds')")

# argv shapes around the subcommand lookup: (argv, exit code, golden stdout or None, stderr)
ARGV_SHAPES = [
    ([], 1, None, "error: the following arguments are required: subcommand\n"),
    (["-h"], 0, "help_top", ""),
    (["--format", "json", "threshold"], 1, None,
     f"error: argument subcommand: invalid choice: 'json' {_CHOICES}\n"),
    (["thresh"], 1, None, f"error: argument subcommand: invalid choice: 'thresh' {_CHOICES}\n"),
    (["threshold", "-h"], 0, "help_threshold", ""),
    (["threshold"], 1, None,
     "error: the following arguments are required: --sequence, --family\n"),
    (["bounds", "--family", "bb84"], 1, None, "error: unrecognized arguments: --family bb84\n"),
]


class TestArgv:
    @pytest.mark.parametrize("argv, code, golden, err", ARGV_SHAPES,
                             ids=[" ".join(row[0]) or "empty" for row in ARGV_SHAPES])
    def test_bytes(self, capsys, monkeypatch, argv, code, golden, err):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            got = run(argv)
        except SystemExit as exc:  # --help exits through argparse
            got = exc.code
        out = (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8") if golden else ""
        assert (got, *capsys.readouterr()) == (code, out, err)

    def test_only_the_named_subcommand_gets_arguments(self):
        subs = build_parser(["bounds"])._subparsers._group_actions[0].choices
        flags = {name: [a.option_strings for a in sub._actions] for name, sub in subs.items()}
        assert flags.pop("bounds") == [["-h", "--help"], ["--format"], ["--output"]]
        assert flags == {name: [["-h", "--help"]] for name in
                         ("threshold", "evolve", "keyrate", "simulate", "attack", "optimize")}

    def test_run_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["twoway-qkd", "bounds"])
        assert run() == 0
        assert capsys.readouterr().out == (GOLDEN / "bounds.txt").read_text(encoding="utf-8")


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_capture(
            capsys, ["bounds", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["schema"] == 1

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_output_is_named(self, capsys, tmp_path, target):
        code, out, err = run_capture(capsys, ["bounds", "--output", str(tmp_path / target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: --output: ")

    def test_floats_serialized_at_nine_digits(self, capsys):
        _, out, _ = run_capture(
            capsys, ["keyrate", "--scheme", "shor_preskill", "--p", "0.05"]
        )
        assert "0.427206086" in out

    def test_numeric_failure_exits_2(self, capsys, monkeypatch):
        import twoway_qkd.cli as cli
        from twoway_qkd import NumericalError

        def boom(args):
            raise NumericalError("synthetic")

        monkeypatch.setattr(cli, "_cmd_bounds", boom)
        code = cli.run(["bounds"])
        captured = capsys.readouterr()
        assert code == 2
        assert "synthetic" in captured.err

    def test_non_monotone_threshold_exits_2(self, capsys, monkeypatch):
        from twoway_qkd import convergence

        # the first spot point (p = qx + qy = 1/27) diverges and every other p converges
        monkeypatch.setattr(convergence, "_converges", lambda seq, q: q[0] + q[1] > 0.04)
        code, out, err = run_capture(capsys, ["threshold", "--family", "bb84", "--sequence", "B"])
        assert code == 2
        assert out == ""
        assert err.startswith("numeric failure: convergence is not monotone in p")

    def test_internal_error_exits_2(self, capsys, monkeypatch):
        import twoway_qkd.cli as cli

        def boom():
            raise RuntimeError("synthetic")

        monkeypatch.setattr(cli.keyrates, "bounds_table", boom)
        code = cli.run(["bounds"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "internal error: synthetic\n"

    def test_analytic_commands_do_not_load_numpy(self):
        # conftest imports numpy, so the check needs a fresh interpreter.
        script = f"analytic = {ANALYTIC_COMMANDS!r}\n" + textwrap.dedent(
            """
            import contextlib, io, sys
            import twoway_qkd, twoway_qkd.cli as cli
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in analytic:
                    assert cli.run(argv) == 0, argv
                assert "numpy" not in sys.modules, "an analytic command loaded numpy"
                for name in ("dataclasses", "inspect", "logging", "csv"):
                    assert name not in sys.modules, f"an analytic command loaded {name}"
                assert cli.run(["evolve", "--family", "sixstate", "--p", "0.1",
                                "--sequence", "BP", "--format", "csv"]) == 0
                assert cli.run(["attack", "--protocol", "bb84", "--n", "100"]) == 0
            assert "numpy" in sys.modules
            """
        )
        proc = _cli_process(["-c", script], stdout=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr

    def test_analytic_commands_do_not_load_typing(self):
        # -S: on some hosts a site .pth file imports typing before the package does
        script = f"analytic = {ANALYTIC_COMMANDS!r}\n" + textwrap.dedent(
            """
            import contextlib, io, sys
            import twoway_qkd.cli as cli
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in analytic:
                    assert cli.run(argv) == 0, argv
            assert "typing" not in sys.modules, "an analytic command loaded typing"
            """
        )
        proc = _cli_process(["-S", "-c", script])
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("argv", [
        ["bounds"],
        ["evolve", "--family", "sixstate", "--p", "0.29", "--sequence", "alt:10000"],
    ], ids=["short", "long"])
    def test_closed_stdout_is_an_output_error(self, argv, fmt):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = _cli_process(["-m", "twoway_qkd.cli", *argv, "--format", fmt], stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "error: stdout: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_is_an_output_error(self):
        with open("/dev/full", "w") as full:
            proc = _cli_process(["-m", "twoway_qkd.cli", "bounds"], stdout=full)
        assert (proc.returncode, proc.stderr) == (
            1, "error: stdout: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["threshold", "--help"]], ids=["top", "threshold"])
    def test_help_to_a_closed_stdout_is_an_output_error(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _cli_process(["-m", "twoway_qkd.cli", *argv], unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "error: stdout: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["threshold", "--help"]], ids=["top", "threshold"])
    def test_help_to_a_full_stdout_is_an_output_error(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            proc = _cli_process(["-m", "twoway_qkd.cli", *argv], unbuffered, stdout=full)
        assert (proc.returncode, proc.stderr) == (
            1, "error: stdout: [Errno 28] No space left on device\n")

    def test_no_subcommand_exits_1(self, capsys):
        code, _, err = run_capture(capsys, [])
        assert code == 1


class TestDeterminismAcrossProcesses:
    """Fresh interpreters with different string-hash seeds print the same bytes."""

    @pytest.mark.parametrize("argv", [
        ["optimize", "--family", "bb84", "--max-len", "8"],
        ["evolve", "--family", "bb84", "--p", "0.2", "--sequence", "alt:200", "--format", "csv"],
        ["simulate", "--family", "sixstate", "--p", "0.2", "--sequence", "BBBBB", "--n", "20000",
         "--seed", "4"],
    ], ids=["optimize", "evolve", "simulate"])
    def test_stdout_bytes_do_not_depend_on_the_hash_seed(self, monkeypatch, argv):
        outs = []
        for seed in ("0", "1"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            proc = _cli_process(["-m", "twoway_qkd.cli", *argv], stdout=subprocess.PIPE)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] and outs[0] == outs[1]
