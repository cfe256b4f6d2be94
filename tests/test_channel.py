"""Per-mode receive SNR at a terminal's distance from the cell center."""
import math

import pytest

from snr_reference import snr_mac, snr_mc
from uavcell import DeploymentVars, coverage_radius

POINT = DeploymentVars(100.0, math.pi / 10)


def test_snr_mc_frozen_values(params):
    rbar = coverage_radius(100.0, math.pi / 10)
    assert rbar == pytest.approx(32.49196962329063, rel=1e-14)
    assert snr_mc(0.0, params, POINT) == pytest.approx(26109.863271029542, rel=1e-12)
    assert snr_mc(rbar, params, POINT) == pytest.approx(23616.59318904935, rel=1e-12)


def test_snr_edge_equals_cos_squared_form(params):
    # at r = H tan(theta): alpha/(T^2 (H^2+r^2)) = alpha cos^2(T)/(T^2 H^2)
    rbar = coverage_radius(100.0, math.pi / 10)
    direct = snr_mc(rbar, params, POINT)
    via_cos = snr_mc(0.0, params, POINT) * math.cos(math.pi / 10)**2
    assert direct == pytest.approx(via_cos, rel=1e-12)


def test_snr_mac_altitude_invariance(params):
    # eta H^2 tan^2 / (T^2 (H^2 + r^2)) at r = s*rbar depends only on s
    s = 0.37
    for h in (50.0, 100.0, 400.0):
        point = DeploymentVars(h, math.pi / 10)
        r = s * coverage_radius(h, math.pi / 10)
        got = snr_mac(r, params, point)
        want = snr_mac(s * 32.49196962329063, params, POINT)
        assert got == pytest.approx(want, rel=1e-12)


def test_snr_rejects_outside_cell(params):
    rbar = coverage_radius(100.0, math.pi / 10)
    with pytest.raises(ValueError):
        snr_mc(rbar * 1.01, params, POINT)
    # a hair over the edge is numerical noise, not a caller bug
    assert snr_mc(rbar * (1 + 1e-13), params, POINT) > 0.0
