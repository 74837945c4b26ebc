"""The package's public surface: ``twoway_qkd.__all__`` and what it binds."""

import copy
import importlib
import inspect
import pickle
import types

import pytest

from conftest import CountingBuilds
import twoway_qkd
from twoway_qkd import (
    AttackReport,
    KeyRateReport,
    PauliChannelParams,
    Protocol2Report,
    StepKind,
    StepSequence,
    ThresholdResult,
    Trajectory,
    bb84_family,
    evolve,
)
from twoway_qkd.montecarlo import RoundReport

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


_CHANNEL = PauliChannelParams(0.1, 0.0, 0.25)
_SEQ = StepSequence.fixed("BPBx")
_SEQ_REPR = (
    "StepSequence(steps=(<StepKind.B: 'B'>, <StepKind.P: 'P'>, <StepKind.BX: 'Bx'>), "
    "policy='fixed', max_rounds=200, css_margin=1e-30)"
)
_ROUND = RoundReport(1, StepKind.B, 10, 5, 1, 0.2, 0.25, 0.125)
_ROUND_REPR = (
    "RoundReport(index=1, kind=<StepKind.B: 'B'>, n_in=10, n_kept=5, disagreements=1, "
    "rate_hat=0.2, rate_pred=0.25, stderr=0.125)"
)

#: (type, every field by keyword in order, one field changed, repr), pinned
#: from the frozen dataclasses these types were.
RECORDS = {
    "PauliChannelParams": (
        PauliChannelParams,
        dict(qx=0.1, qy=0.0, qz=0.25),
        dict(qy=0.05),
        "PauliChannelParams(qx=0.1, qy=0.0, qz=0.25)",
    ),
    "StepSequence": (
        StepSequence,
        dict(steps=_SEQ.steps, policy="fixed", max_rounds=200, css_margin=1e-30),
        dict(css_margin=1e-9),
        _SEQ_REPR,
    ),
    "StepSequence-alternating": (
        StepSequence,
        dict(steps=(), policy="alternating_until_css", max_rounds=4, css_margin=1e-30),
        dict(max_rounds=6),
        "StepSequence(steps=(<StepKind.B: 'B'>, <StepKind.P: 'P'>, <StepKind.B: 'B'>, "
        "<StepKind.P: 'P'>), policy='alternating_until_css', max_rounds=4, css_margin=1e-30)",
    ),
    "Trajectory": (
        Trajectory,
        dict(initial=_CHANNEL, sequence=_SEQ, rounds=((0.5, 0.0, 0.125, 0.75),),
             converged=True, diagnostic=None),
        dict(converged=False),
        f"Trajectory(initial=PauliChannelParams(qx=0.1, qy=0.0, qz=0.25), sequence={_SEQ_REPR}, "
        "rounds=((0.5, 0.0, 0.125, 0.75),), converged=True, diagnostic=None)",
    ),
    "ThresholdResult": (
        ThresholdResult,
        dict(threshold_p=0.25, bracket=(0.125, 0.375), sequence=_SEQ, family="sixstate",
             diagnostic=None),
        dict(diagnostic="x"),
        f"ThresholdResult(threshold_p=0.25, bracket=(0.125, 0.375), sequence={_SEQ_REPR}, "
        "family='sixstate', diagnostic=None)",
    ),
    "KeyRateReport": (
        KeyRateReport,
        dict(scheme="s", p=0.125, rate=0.5, components={"a": 0.25}, note="n"),
        dict(components={"a": 0.5}),
        "KeyRateReport(scheme='s', p=0.125, rate=0.5, components={'a': 0.25}, note='n')",
    ),
    "RoundReport": (
        RoundReport,
        dict(index=1, kind=StepKind.B, n_in=10, n_kept=5, disagreements=1, rate_hat=0.2,
             rate_pred=0.25, stderr=0.125),
        dict(kind=StepKind.P),
        _ROUND_REPR,
    ),
    "Protocol2Report": (
        Protocol2Report,
        dict(channel=_CHANNEL, sequence=_SEQ, n=10, seed=3, rounds=(_ROUND,)),
        dict(rounds=()),
        f"Protocol2Report(channel=PauliChannelParams(qx=0.1, qy=0.0, qz=0.25), "
        f"sequence={_SEQ_REPR}, n=10, seed=3, rounds=({_ROUND_REPR},))",
    ),
    "AttackReport": (
        AttackReport,
        dict(protocol="bb84", n=100, seed=1, sifted=50, sift_fraction=0.5, errors=12,
             error_rate=0.24, stderr=0.0625),
        dict(errors=13),
        "AttackReport(protocol='bb84', n=100, seed=1, sifted=50, sift_fraction=0.5, "
        "errors=12, error_rate=0.24, stderr=0.0625)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    """The value types' contract, as it stood when they were frozen dataclasses."""

    def test_repr(self, name):
        cls, fields, _, text = RECORDS[name]
        assert repr(cls(**fields)) == text

    def test_positional_and_keyword_construction_agree(self, name):
        cls, fields, _, text = RECORDS[name]
        assert cls(*fields.values()) == cls(**fields)
        assert repr(cls(*fields.values())) == text

    def test_equality(self, name):
        cls, fields, change, _ = RECORDS[name]
        a, b, other = cls(**fields), cls(**fields), cls(**{**fields, **change})
        assert a == b and not a != b
        assert a != other and not a == other
        assert a != tuple(fields.values())

    def test_hash(self, name):
        cls, fields, _, _ = RECORDS[name]
        if cls is KeyRateReport:  # its components are a dict
            with pytest.raises(TypeError):
                hash(cls(**fields))
        else:
            assert hash(cls(**fields)) == hash(cls(**fields))

    def test_fields_are_read_only(self, name):
        cls, fields, _, text = RECORDS[name]
        record = cls(**fields)
        for field in (*fields, "undeclared"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert repr(record) == text

    def test_copy_and_pickle_round_trip(self, name):
        cls, fields, _, text = RECORDS[name]
        record = cls(**fields)
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls
            assert clone == record
            assert repr(clone) == text


class TestRecordDefaults:
    def test_step_sequence(self):
        seq = StepSequence(("B",))
        assert (seq.policy, seq.max_rounds, seq.css_margin) == ("fixed", 200, 1e-30)

    @pytest.mark.parametrize("cls", [Trajectory, ThresholdResult])
    def test_diagnostic_defaults_to_none(self, cls):
        fields = dict(RECORDS[cls.__name__][1])
        del fields["diagnostic"]
        assert cls(**fields).diagnostic is None
        assert cls(*fields.values()) == cls(**fields, diagnostic=None)

    def test_key_rate_report_components_are_fresh(self):
        a, b = KeyRateReport("s", 0.1, None), KeyRateReport(scheme="s", p=0.1, rate=None)
        assert a == b
        assert (a.components, a.note) == ({}, "")
        assert a.components is not b.components

    def test_key_rate_report_to_dict_copies_components(self):
        report = KeyRateReport("s", 0.125, 0.5, {"a": 0.25}, "n")
        out = report.to_dict()
        assert out == {"scheme": "s", "p": 0.125, "rate": 0.5, "components": {"a": 0.25},
                       "note": "n"}
        assert out["components"] is not report.components

    def test_counting_builds_counts_each_construction(self, monkeypatch):
        builds = CountingBuilds(monkeypatch, PauliChannelParams)
        bb84_family(0.1, 0.0)
        PauliChannelParams(qx=0.0, qy=0.0, qz=0.0)
        assert builds.built == 2
