"""Closed-form throughput expressions for the three multiuser modes.

The closed forms are checked against frozen spot values and against a
40-digit mpmath oracle over the whole model domain: the exact antiderivative
of the disk mean for broadcast and multiple access, the edge-rate product for
multicast, and, at a few points, adaptive quadrature of the raw radial
integrand.
"""
import math

import mpmath
import numpy as np
import pytest

from uavcell import DeploymentVars, cell_edge_rate_mc, coverage_radius, rate_value
from uavcell.rates import check_domain
from conftest import make_params


def test_rate_frozen_values(params):
    p10 = (100.0, math.pi / 10)
    assert rate_value("mc", params, *p10) == pytest.approx(
        199.2356605492261, rel=1e-12)
    assert rate_value("bc", params, *p10) == pytest.approx(
        14.598757632393932, rel=1e-12)
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


# H from 1 m to 1e7 m and theta from 1e-4 to pi/2 - 1e-3, dense near both ends
ORACLE_H = np.logspace(0.0, 7.0, 15)
ORACLE_THETA = np.concatenate([np.geomspace(1e-4, 1.0, 13),
                               np.linspace(1.2, math.pi / 2 - 1e-3, 6)])
QUAD_POINTS = ((100.0, math.pi / 10), (500.0, 1.0), (60.0, 0.08))


def _snr_scale(mode, params, h, theta):
    """(s, c) in mpmath, with SNR(r) = s / (1 + u) for u = (r/H)^2 in [0, c]."""
    h, theta = mpmath.mpf(h), mpmath.mpf(theta)
    c = mpmath.tan(theta)**2
    s = params.eta * c / theta**2 if mode == "mac" else params.alpha / (theta * h)**2
    return s, c


def _oracle(mode, params, h, theta):
    s, c = _snr_scale(mode, params, h, theta)
    if mode == "mc":
        # expected hexagon population times the rate at the edge, u = c
        k_hex = 1.5 * mpmath.sqrt(3) * params.density_per_m2 * mpmath.mpf(h)**2 * c
        return k_hex * mpmath.log1p(s / (1 + c)) / mpmath.log(2)

    def f(y):
        return (1 + y) * mpmath.log1p(y)
    # c times the disk mean of ln(1 + s/(1+u)), by its antiderivative
    return (f(s + c) - f(s) - f(c)) / (c * mpmath.log(2))


@pytest.mark.parametrize("rho", [1e-5, 5e-3, 1.0])
@pytest.mark.parametrize("mode", ["mc", "bc", "mac"])
def test_closed_forms_match_high_precision_oracle(mode, rho):
    params = make_params(rho=rho)
    got = rate_value(mode, params, ORACLE_H[:, None], ORACLE_THETA[None, :])
    with mpmath.workdps(40):
        for (i, j), value in np.ndenumerate(got):
            oracle = _oracle(mode, params, ORACLE_H[i], ORACLE_THETA[j])
            assert abs(value - oracle) <= 1e-12 * oracle, (ORACLE_H[i], ORACLE_THETA[j])


@pytest.mark.parametrize("mode", ["bc", "mac"])
@pytest.mark.parametrize("h, theta", QUAD_POINTS)
def test_disk_mean_matches_radial_quadrature(params, mode, h, theta):
    # independent of the (s, c) reduction: the raw integrand r log(1 + SNR(r))
    with mpmath.workdps(40):
        hm, tm = mpmath.mpf(h), mpmath.mpf(theta)
        rbar = hm * mpmath.tan(tm)
        power = params.alpha if mode == "bc" else params.eta * rbar**2
        integral = mpmath.quad(
            lambda r: r * mpmath.log1p(power / (tm**2 * (hm**2 + r**2))), [0, rbar])
        oracle = 2 * integral / (rbar**2 * mpmath.log(2))
    assert rate_value(mode, params, h, theta) == pytest.approx(float(oracle), rel=1e-12)


def test_bc_is_zero_when_the_snr_underflows():
    # alpha / (theta^2 H^2) underflows to 0 here; the rate is 0, not 0/0
    faint = make_params(p_downlink_w=1e-310)
    assert rate_value("bc", faint, 1e12, 1.5) == 0.0


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
    edge = cell_edge_rate_mc(params, DeploymentVars(h, theta))
    assert rate_value("mc", params, h, theta) == pytest.approx(
        k_hex * edge, rel=1e-12)


def test_vanishing_power_kills_the_rate():
    starved = make_params(p_downlink_w=1e-300)
    assert rate_value("mc", starved, 100.0, 0.5) < 1e-250
    assert rate_value("bc", starved, 100.0, 0.5) < 1e-250


# The rate guard on every input form an operating point can take. The first
# coordinate out of the domain is named, altitude before beamwidth; an empty
# array has no element to check; a rate that is not finite names its point.
_FORMS = {
    "float": float,
    "numpy scalar": np.float64,
    "0-d array": np.array,
    "1-element array": lambda v: np.array([v]),
    "empty array": lambda v: np.array([], dtype=float),
}
_SCALAR_FORMS = ("float", "numpy scalar", "0-d array")
_GUARD_POINTS = [(math.nan, 0.5), (0.0, 0.5), (-1.0, 0.5), (100.0, 0.0), (100.0, math.nan),
                 (100.0, math.pi / 2), (100.0, 0.5), (100.0, 1e-200)]


def _guard_error(h_form, t_form, h, theta):
    """The message the guard raises at this point, or None."""
    if h_form != "empty array" and not h > 0.0:
        return f"altitude must be > 0, got {h}"
    if t_form != "empty array" and not 0.0 < theta < math.pi / 2:
        return f"half-beamwidth must lie in (0, pi/2), got {theta}"
    return None


@pytest.mark.parametrize("h, theta", _GUARD_POINTS)
@pytest.mark.parametrize("t_form", _FORMS)
@pytest.mark.parametrize("h_form", _FORMS)
def test_rate_guard_on_every_input_form(params, h_form, t_form, h, theta):
    h_in, t_in = _FORMS[h_form](h), _FORMS[t_form](theta)
    shapes = (np.shape(h_in), np.shape(t_in))
    empty = "empty array" in (h_form, t_form)
    message = _guard_error(h_form, t_form, h, theta)
    if message is None:
        checked = check_domain(h_in, t_in)
        assert [type(x) for x in checked] == [np.ndarray, np.ndarray]
        assert [x.dtype for x in checked] == [np.float64, np.float64]
        assert tuple(x.shape for x in checked) == shapes
    else:
        with pytest.raises(ValueError) as exc:
            check_domain(h_in, t_in)
        assert str(exc.value) == message
    for mode in ("mc", "bc", "mac"):
        rate_message = message
        if message is None and theta == 1e-200 and not empty:
            rate_message = f"{mode} rate is not finite at altitude {h}, half-beamwidth {theta}"
        if rate_message is not None:
            with pytest.raises(ValueError) as exc:
                rate_value(mode, params, h_in, t_in)
            assert str(exc.value) == rate_message
            continue
        value = rate_value(mode, params, h_in, t_in)
        if h_form in _SCALAR_FORMS and t_form in _SCALAR_FORMS:
            assert type(value) is float and math.isfinite(value)
        else:
            assert type(value) is np.ndarray and value.dtype == np.float64
            assert value.shape == np.broadcast_shapes(*shapes)
            assert np.isfinite(value).all()
