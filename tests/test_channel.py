"""Channel parametrizations: validation, families, and the delta-coordinate oracle."""

import math

import pytest

from conftest import random_channels
from oracles import DeltaCoords, swap_xz, to_delta
from twoway_qkd import PauliChannelParams, bb84_family, sixstate_channel


class TestPauliChannelParams:
    def test_noiseless_channel_is_valid(self):
        c = PauliChannelParams(0.0, 0.0, 0.0)
        assert (c.qx, c.qy, c.qz) == (0.0, 0.0, 0.0)
        assert c.qi == 1.0

    def test_simplex_violation_rejected(self):
        with pytest.raises(ValueError, match="<= 1"):
            PauliChannelParams(0.5, 0.5, 0.5)

    def test_bb84_threshold_point_is_valid(self):
        c = PauliChannelParams(0.189, 0.0, 0.189)
        assert c.pz == pytest.approx(0.189, abs=0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="qy"):
            PauliChannelParams(0.1, -0.01, 0.0)

    def test_roundoff_negative_clamped_to_zero(self):
        c = PauliChannelParams(0.1, -1e-17, 0.2)
        assert c.qy == 0.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PauliChannelParams(-0.0, -0.0, -0.0),
            lambda: sixstate_channel(-0.0),
            lambda: bb84_family(-0.0, 0.0),
        ],
        ids=["params", "sixstate", "bb84"],
    )
    def test_negative_zero_stored_as_positive_zero(self, make):
        c = make()
        assert repr(c.to_dict()) == repr(
            {"qx": 0.0, "qy": 0.0, "qz": 0.0, "pz": 0.0, "px": 0.0, "delta": 0.0}
        )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PauliChannelParams(float("nan"), 0.0, 0.0)


class TestToDelta:
    def test_identity_channel(self):
        d = to_delta(PauliChannelParams(0, 0, 0))
        assert (d.pz, d.px, d.delta) == (0.0, 0.0, 0.0)

    def test_printed_definition(self):
        d = to_delta(PauliChannelParams(0.07, 0.03, 0.07))
        assert d.pz == pytest.approx(0.10, abs=1e-15)
        assert d.px == pytest.approx(0.10, abs=1e-15)
        assert d.delta == pytest.approx(0.04, abs=1e-15)

    def test_bb84_family_maps_to_p_p_p_minus_2a(self):
        for p, a in [(0.2, 0.05), (0.3, 0.1), (0.25, 0.125), (0.189, 0.0)]:
            d = to_delta(bb84_family(p, a))
            assert d.pz == pytest.approx(p, abs=1e-15)
            assert d.px == pytest.approx(p, abs=1e-15)
            assert d.delta == pytest.approx(p - 2 * a, abs=1e-15)

    def test_sixstate_maps_to_p_p_zero_exactly(self):
        for p in [0.0, 0.1, 0.2, 0.264, 0.5]:
            d = to_delta(sixstate_channel(p))
            assert d.pz == p
            assert d.px == p
            assert d.delta == 0.0


class TestDeltaCoords:
    def test_identity(self):
        assert DeltaCoords(0, 0, 0).to_channel() == PauliChannelParams(0, 0, 0)

    def test_inverse_of_printed_definition(self):
        c = DeltaCoords(0.10, 0.10, 0.04).to_channel()
        assert c.qx == pytest.approx(0.07, abs=1e-15)
        assert c.qy == pytest.approx(0.03, abs=1e-15)
        assert c.qz == pytest.approx(0.07, abs=1e-15)

    def test_delta_equals_p_recovers_no_y_channel(self):
        # (p, p, p) in delta coordinates is the (p, 0, p) channel
        for p in [0.1, 0.189, 0.24]:
            c = DeltaCoords(p, p, p).to_channel()
            assert c.qx == pytest.approx(p, abs=1e-15)
            assert c.qy == 0.0
            assert c.qz == pytest.approx(p, abs=1e-15)

    def test_delta_larger_than_px_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            DeltaCoords(0.1, 0.05, 0.2)

    def test_negative_recovered_qx_rejected(self):
        with pytest.raises(ValueError, match="qx"):
            DeltaCoords(0.01, 0.5, 0.0)

    def test_negative_recovered_qi_rejected(self):
        with pytest.raises(ValueError, match="qi"):
            DeltaCoords(0.9, 0.9, 0.0)


class TestRoundTrips:
    def test_channel_roundtrip_on_sampled_simplex(self):
        for c in random_channels(2000, seed=101):
            back = to_delta(c).to_channel()
            assert abs(back.qx - c.qx) <= 1e-15
            assert abs(back.qy - c.qy) <= 1e-15
            assert abs(back.qz - c.qz) <= 1e-15

    def test_delta_roundtrip_on_sampled_simplex(self):
        for c in random_channels(2000, seed=102):
            d = to_delta(c)
            back = to_delta(d.to_channel())
            assert abs(back.pz - d.pz) <= 1e-15
            assert abs(back.px - d.px) <= 1e-15
            assert abs(back.delta - d.delta) <= 1e-15


class TestBB84Family:
    def test_worst_case_threshold_point(self):
        c = bb84_family(0.189, 0.0)
        assert (c.qx, c.qy, c.qz) == (0.189, 0.0, 0.189)

    def test_all_y_boundary(self):
        c = bb84_family(0.10, 0.10)
        assert c.qx == 0.0
        assert c.qy == 0.10
        assert c.qz == 0.0

    def test_noiseless(self):
        assert bb84_family(0.0, 0.0) == PauliChannelParams(0, 0, 0)

    def test_a_above_p_rejected(self):
        with pytest.raises(ValueError, match="a <= p"):
            bb84_family(0.1, 0.2)

    def test_p_above_half_rejected(self):
        with pytest.raises(ValueError, match="1/2"):
            bb84_family(0.6, 0.0)

    @pytest.mark.parametrize("p", [float("nan"), -0.1])
    def test_p_checked_before_a(self, p):
        with pytest.raises(ValueError, match="need 0 <= p <= 1/2"):
            bb84_family(p, 0.0)


class TestSixstateChannel:
    def test_threshold_point(self):
        c = sixstate_channel(0.264)
        assert (c.qx, c.qy, c.qz) == (0.132, 0.132, 0.132)

    def test_noiseless(self):
        assert sixstate_channel(0.0) == PauliChannelParams(0, 0, 0)

    def test_direct_substitution(self):
        assert sixstate_channel(0.2) == PauliChannelParams(0.1, 0.1, 0.1)

    def test_bit_error_rate_equals_p(self):
        for p in [0.05, 0.264, 0.5]:
            assert sixstate_channel(p).pz == p

    def test_p_above_two_thirds_rejected(self):
        with pytest.raises(ValueError, match="2/3"):
            sixstate_channel(0.7)


def test_swap_xz_is_involution():
    for c in random_channels(100, seed=103):
        assert swap_xz(swap_xz(c)) == c


def test_to_dict_carries_both_coordinate_systems():
    d = PauliChannelParams(0.07, 0.03, 0.07).to_dict()
    assert set(d) == {"qx", "qy", "qz", "pz", "px", "delta"}
    assert d["pz"] == pytest.approx(0.10)
    assert math.isclose(d["delta"], 0.04)
