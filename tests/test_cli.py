"""CLI: subcommand dispatch, formats, exit codes, and determinism."""

import csv
import io
import json

import pytest

from twoway_qkd import (
    StepSequence,
    find_threshold,
    intercept_resend,
    shor_preskill_rate,
)
from twoway_qkd.cli import run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_two_way_requires_sequence(self, capsys):
        code, _, err = run_capture(capsys, ["keyrate", "--scheme", "two_way", "--p", "0.1"])
        assert code == 1
        assert "--sequence" in err

    def test_missing_p_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["keyrate", "--scheme", "shor_preskill"])
        assert code == 1
        assert "--p" in err


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


class TestOptimizeCommand:
    def test_small_search(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["optimize", "--family", "sixstate", "--max-len", "2", "--tol", "1e-3"],
        )
        report = json.loads(out)
        assert code == 0
        assert set(report["best_sequence"]) <= {"B", "P"}

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


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_capture(
            capsys, ["bounds", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["schema"] == 1

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

    def test_no_subcommand_exits_1(self, capsys):
        code, _, err = run_capture(capsys, [])
        assert code == 1
