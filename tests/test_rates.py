"""Closed-form throughput expressions for the three multiuser modes.

The closed forms are checked against frozen spot values and, for the two
integral-derived expressions (broadcast and multiple access), against an
independent adaptive quadrature of the radial integrand.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from uavcell import (DeploymentVars, McMission, coverage_radius,
                     derived_constants, mission_time_mc, per_gt_rate, rate_value)
from conftest import make_params

LN2 = math.log(2.0)


def test_rate_frozen_values(params):
    p10 = (100.0, math.pi / 10)
    assert rate_value("mc", params, *p10) == pytest.approx(
        199.2356605492261, rel=1e-12)
    assert rate_value("bc", params, *p10) == pytest.approx(
        14.598757632445233, rel=1e-12)
    assert rate_value("mac", params, *p10) == pytest.approx(
        12.006856543308997, rel=1e-12)
    assert rate_value("bc", params, 500.0, 1.0) == pytest.approx(
        5.652222836138863, rel=1e-12)
    assert rate_value("mac", params, 500.0, 1.0) == pytest.approx(
        12.195583045832898, rel=1e-12)


def test_rate_value_rejects_unknown_mode(params):
    with pytest.raises(ValueError):
        rate_value("broadcast", params, 250.0, 0.7)


@pytest.mark.parametrize("mode", ["mc", "bc", "mac"])
def test_array_call_matches_scalar_calls_bit_for_bit(params, mode):
    hs = np.linspace(20.0, 2000.0, 9)
    ts = np.linspace(0.02, 1.55, 13)

    def scalar(h, t):
        value = rate_value(mode, params, h, t)
        assert type(value) is float
        return value

    along_theta = rate_value(mode, params, 130.0, ts)
    assert along_theta.shape == ts.shape
    assert along_theta.tolist() == [scalar(130.0, t) for t in ts.tolist()]
    along_h = rate_value(mode, params, hs, 0.6)
    assert along_h.shape == hs.shape  # mac too: altitude sets the shape
    assert along_h.tolist() == [scalar(h, 0.6) for h in hs.tolist()]
    mesh = rate_value(mode, params, hs[:, None], ts[None, :])
    assert mesh.shape == (len(hs), len(ts))
    assert mesh.tolist() == [[scalar(h, t) for t in ts.tolist()] for h in hs.tolist()]


@pytest.mark.parametrize("h, theta", [
    ([100.0, 0.0, 200.0], 0.5),
    ([100.0, -1.0], [0.5, 0.6]),
    ([100.0, math.nan], 0.5),
    (100.0, [0.5, 0.0, 0.7]),
    ([[100.0], [200.0]], [0.5, math.pi / 2]),
    (100.0, [math.nan, 0.5]),
    (100.0, [0.5, 1e-200]),  # in the domain, but the rate is not finite
])
def test_one_bad_element_raises(params, h, theta):
    for mode in ("mc", "bc", "mac"):
        with pytest.raises(ValueError):
            rate_value(mode, params, np.asarray(h), np.asarray(theta))


def _disk_average_rate(params, h, theta, snr_of_r):
    """(2/rbar^2) * int_0^rbar r log2(1+snr(r)) dr, the per-terminal mean."""
    rbar = h * math.tan(theta)
    val, err = quad(lambda r: r * math.log1p(snr_of_r(r)) / LN2, 0.0, rbar,
                    limit=200)
    assert err < 1e-9 * abs(val)
    return 2.0 * val / rbar**2


def test_bc_closed_form_matches_quadrature(params):
    alpha = derived_constants(params).alpha
    for h, theta in ((100.0, math.pi / 10), (500.0, 1.0), (60.0, 0.08)):
        oracle = _disk_average_rate(
            params, h, theta,
            lambda r: alpha / (theta**2 * (h**2 + r**2)))
        got = rate_value("bc", params, h, theta)
        assert got == pytest.approx(oracle, rel=1e-8)


def test_mac_closed_form_matches_quadrature(params):
    eta = derived_constants(params).eta
    for h, theta in ((100.0, math.pi / 10), (500.0, 1.0), (60.0, 0.08)):
        t2 = math.tan(theta)**2
        oracle = _disk_average_rate(
            params, h, theta,
            lambda r: eta * h**2 * t2 / (theta**2 * (h**2 + r**2)))
        got = rate_value("mac", params, h, theta)
        assert got == pytest.approx(oracle, rel=1e-8)


def test_mac_is_altitude_free(params):
    vals = [rate_value("mac", params, h, 0.9) for h in (1.0, 70.0, 5000.0)]
    assert np.ptp(vals) < 1e-12 * vals[0]


def test_mc_monotone_in_altitude(params):
    vals = [rate_value("mc", params, h, 0.5) for h in (50.0, 100.0, 200.0, 400.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bc_monotone_decreasing_in_altitude(params):
    vals = [rate_value("bc", params, h, 0.5) for h in (50.0, 100.0, 200.0, 400.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_mc_rate_is_density_times_area_times_edge_rate(params):
    # the multicast sum rate factorizes: everyone decodes the edge rate
    h, theta = 130.0, 0.6
    rbar = coverage_radius(h, theta)
    k_hex = params.density_per_m2 * 1.5 * math.sqrt(3.0) * rbar**2
    edge = per_gt_rate("mc", rbar, params, DeploymentVars.point(h, theta))
    assert rate_value("mc", params, h, theta) == pytest.approx(
        k_hex * float(edge), rel=1e-12)


def test_per_gt_rate_bandwidth_share(params):
    # bc terminals split the band K_s' ways; mc terminals use all of it.
    # rbar = 100 m here, so K_s' is the frozen 157.08
    point = DeploymentVars.point(100.0, math.pi / 4)
    r = 10.0
    k_disk = 157.0796326794896
    mc = float(per_gt_rate("mc", r, params, point))
    bc = float(per_gt_rate("bc", r, params, point))
    assert bc == pytest.approx(mc / k_disk, rel=1e-12)


def test_vanishing_power_kills_the_rate():
    starved = make_params(p_downlink_w=1e-300)
    assert rate_value("mc", starved, 100.0, 0.5) < 1e-250
    assert rate_value("bc", starved, 100.0, 0.5) < 1e-250


def test_mission_time_scales_with_terminals(params):
    point = DeploymentVars.point(100.0, math.pi / 10)
    area = 8.0e5
    base = mission_time_mc(params, point, McMission(1.0e8), area)
    forced = mission_time_mc(params, point,
                             McMission(1.0e8, total_gts=2 * params.density_per_m2 * area),
                             area)
    assert forced == pytest.approx(2 * base, rel=1e-12)
    assert base > 0.0


def test_mission_validation(params):
    with pytest.raises(ValueError):
        McMission(0.0)
    with pytest.raises(ValueError):
        McMission(1.0e8, total_gts=-5.0)
    with pytest.raises(ValueError):
        mission_time_mc(params, DeploymentVars.point(100.0, 0.5),
                        McMission(1.0e8), 0.0)
