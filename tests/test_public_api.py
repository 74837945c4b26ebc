"""The package's public surface: ``twoway_qkd.__all__`` and what it binds."""

import importlib
import inspect
import types

import pytest

import twoway_qkd
from twoway_qkd import StepKind, evolve

#: Names that left the package when their only callers were tests, or when
#: plain data replaced them, with the module that used to define each.
REMOVED = [
    ("BoundsTable", "keyrates"),
    ("ProtocolBounds", "keyrates"),
    ("RateBound", "keyrates"),
    ("WorstCaseScan", "convergence"),
    ("worst_case_scan", "convergence"),
    ("EmpiricalRates", "montecarlo"),
    ("FlagEnsemble", "montecarlo"),
    ("estimate_rates", "montecarlo"),
    ("flag_round", "montecarlo"),
    ("sample_flags", "montecarlo"),
]


def test_all_is_sorted_with_27_names():
    assert twoway_qkd.__all__ == sorted(twoway_qkd.__all__)
    assert len(twoway_qkd.__all__) == 27


def test_all_matches_the_bound_public_names():
    bound = {
        name
        for name, value in vars(twoway_qkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(twoway_qkd.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from twoway_qkd import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(twoway_qkd.__all__)


@pytest.mark.parametrize("name, module", REMOVED)
def test_removed_name_resolves_nowhere(name, module):
    assert not hasattr(twoway_qkd, name)
    assert not hasattr(importlib.import_module(f"twoway_qkd.{module}"), name)


def test_step_kind_has_no_block_size():
    assert not hasattr(StepKind.B, "block_size")


def test_step_kind_has_no_epp_only():
    assert not hasattr(StepKind.BX, "epp_only")


def test_evolve_takes_only_a_sequence_and_a_channel():
    assert list(inspect.signature(evolve).parameters) == ["seq", "c"]
