"""Byte-for-byte CLI reports for fixed arguments and seeds.

Each file ``tests/golden/<name>.txt`` holds the stdout of ``twoway-qkd``
run with the arguments listed under ``<name>`` below, and each
``tests/golden/help_<name>.txt`` the ``--help`` text of one subcommand (``top``:
of the program) at 80 columns.  The reports are a contract: a refactor must
reproduce them exactly, and a deliberate change to any of them is a change to
the CLI output that needs its own note.
"""

from pathlib import Path

import pytest

from twoway_qkd import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "threshold_sixstate_BBBBB": "threshold --family sixstate --sequence BBBBB",
    "threshold_bb84_BBBBBPPPPPP": "threshold --family bb84 --sequence BBBBBPPPPPP",
    "threshold_sixstate_BBxBB": "threshold --family sixstate --sequence BBxBB",
    "threshold_sixstate_BBBBB_table":
        "threshold --family sixstate --sequence BBBBB --format table",
    "evolve_sixstate_alt200": "evolve --family sixstate --p 0.29 --sequence alt:200",
    "evolve_bb84_BBBBBPPPPPP_csv":
        "evolve --family bb84 --p 0.15 --a 0 --sequence BBBBBPPPPPP --format csv",
    "evolve_bb84_BBxPBP_csv": "evolve --family bb84 --p 0.15 --sequence BBxPBP --format csv",
    "evolve_bb84_alt200_csv": "evolve --family bb84 --p 0.2 --a 0 --sequence alt:200 --format csv",
    "keyrate_two_way": "keyrate --scheme two_way --family sixstate --p 0.1 --sequence BBBBB",
    "keyrate_two_way_diverged":
        "keyrate --scheme two_way --family sixstate --p 0.3 --sequence BBBBB",
    "keyrate_inamori_sixstate_threshold": "keyrate --scheme inamori_sixstate --find-threshold",
    "optimize_sixstate_8": "optimize --family sixstate --max-len 8",
    "optimize_bb84_4_csv": "optimize --family bb84 --max-len 4 --format csv",
    "simulate_bb84_BBPP": "simulate --family bb84 --p 0.15 --sequence BBPP --n 20000 --seed 3",
    "attack_sixstate": "attack --protocol sixstate --n 20000 --seed 5",
    "attack_bb84": "attack --protocol bb84 --n 20000 --seed 7",
    "attack_bb84_eve_matches_basis":
        "attack --protocol bb84 --n 20000 --seed 7 --eve-matches-basis",
    "simulate_sixstate_BBBBB_csv":
        "simulate --family sixstate --p 0.2 --sequence BBBBB --n 20000 --seed 4 --format csv",
    "bounds": "bounds",
    "bounds_csv": "bounds --format csv",
    "bounds_table": "bounds --format table",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_byte_identical(name, capsys):
    assert cli.run(COMMANDS[name].split()) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


HELP = ["top", "threshold", "evolve", "keyrate", "simulate", "attack", "optimize", "bounds"]


@pytest.mark.parametrize("name", HELP)
def test_help_text_is_byte_identical(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exit_:
        cli.run(["--help"] if name == "top" else [name, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"help_{name}.txt").read_bytes()
