"""Nested array scans for the beamwidth and the per-mode deployment
optimizers."""
import importlib
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import make_params
from uavcell import DeploymentVars, optimize, optimize_2d_grid, rate_value, search_1d
from uavcell.optimize import SCAN_POINTS


def quadratic(x):
    return -(x - 0.3)**2


def test_search_1d_quadratic_peak():
    x, fx, (xs, fs) = search_1d(quadratic, 0.0, 1.0, tol=1e-6)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-9)
    assert len(xs) == len(fs) > 0
    assert fx == fs.max()
    assert x == xs[fs == fx].min()


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_search_1d_lands_within_tol(tol):
    x, _, _ = search_1d(quadratic, 0.0, 1.0, tol=tol)
    assert abs(x - 0.3) <= tol


def test_search_1d_boundary_maximum():
    # every scan is np.linspace, whose endpoints are exactly the bracket's
    x, fx, _ = search_1d(np.sin, 0.0, 1.0)  # increasing on [0, 1]
    assert (x, fx) == (1.0, math.sin(1.0))
    x, _, _ = search_1d(np.cos, 0.0, 1.0)  # decreasing on [0, 1]
    assert x == 0.0


def test_search_1d_degenerate_interval():
    x, fx, (xs, fs) = search_1d(lambda x: 5.0, 2.0, 2.0)
    assert (x, fx) == (2.0, 5.0)
    assert (xs.tolist(), fs.tolist()) == ([2.0], [5.0])


def test_search_1d_ties_toward_smaller_x():
    x, _, _ = search_1d(np.zeros_like, 0.25, 1.0)
    assert x == 0.25
    x, fx, (xs, fs) = search_1d(lambda x: (x >= 0.3).astype(float), 0.0, 1.0)
    assert fx == 1.0
    assert x == xs[fs == 1.0].min()
    assert 0.3 <= x <= 0.3 + 1e-4


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-9])
def test_search_1d_scans_arrays_only(tol):
    calls = []

    def f(x):
        calls.append(x)
        return quadratic(x)

    search_1d(f, 0.0, 1.0, tol=tol)
    assert all(isinstance(x, np.ndarray) and x.shape == (SCAN_POINTS,) for x in calls)
    # each interior rescan shrinks the bracket by 256 / 2 = 128
    assert len(calls) == math.ceil(math.log(1.0 / tol, 128))


@pytest.mark.parametrize("tol", [1e-16, 1e-300])
def test_search_1d_stops_at_float_spacing(tol):
    calls = []

    def f(x):
        calls.append(x)
        assert len(calls) <= 20, "rescans no longer shrink the bracket"
        return quadratic(x)

    t0 = time.perf_counter()
    x, _, _ = search_1d(f, 0.0, 1.0, tol=tol)
    assert time.perf_counter() - t0 < 1.0
    assert x == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_search_1d_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        search_1d(quadratic, 0.0, 1.0, tol=tol)


def test_search_1d_survives_multimodal_wiggle():
    # coarse scan plus local refinement should land on the global peak
    f = lambda x: np.sin(5 * x) + 0.5 * x
    x, fx, _ = search_1d(f, 0.0, 3.0, tol=1e-6)
    brent = minimize_scalar(lambda x: -f(x), bounds=(2.0, 3.0), method="bounded",
                            options={"xatol": 1e-10})
    assert fx == pytest.approx(-brent.fun, rel=1e-9)


def test_optimize_mc_picks_max_altitude(params, box):
    res = optimize("mc", params, box)
    assert res.h_star_m == box.h_max_m
    assert res.method == "closed-rule"
    assert not res.h_indifferent
    assert res.objective_bps_hz == pytest.approx(
        rate_value("mc", params, res.h_star_m, res.theta_star_rad), rel=1e-12)


def test_optimize_bc_picks_min_altitude(params, box):
    res = optimize("bc", params, box)
    assert res.h_star_m == box.h_min_m
    # broadcast rate decays with both knobs over this box
    assert res.theta_star_rad == pytest.approx(box.theta_min_rad, abs=1e-3)


def test_optimize_mac_beamwidth(params, box):
    res = optimize("mac", params, box)
    assert res.h_indifferent
    assert res.h_star_m == box.h_min_m
    oracle = minimize_scalar(
        lambda t: -rate_value("mac", params, 100.0, t),
        bounds=(box.theta_min_rad, box.theta_max_rad), method="bounded",
        options={"xatol": 1e-10})
    assert res.theta_star_rad == pytest.approx(oracle.x, abs=2e-4)
    assert res.objective_bps_hz == pytest.approx(-oracle.fun, rel=1e-8)


# the high-SNR limit of the uplink optimum: with c = tan^2(theta), the mac
# rate tends to log2(eta) + [ln(tan^2(theta)/theta^2) - ((1+c) ln(1+c) - c)/c]
# / ln 2 as eta grows, and theta_inf is the root of the bracket's derivative
THETA_INF = 1.3238999372696646


def test_uplink_limit_is_the_high_snr_root():
    def bracket(t):
        c = mpmath.tan(t)**2
        return mpmath.log(c / t**2) - ((1 + c) * mpmath.log1p(c) - c) / c

    with mpmath.workdps(30):
        root = mpmath.findroot(lambda t: mpmath.diff(bracket, t), 1.32)
    assert float(root) == pytest.approx(THETA_INF, rel=1e-15)


def test_uplink_optimum_falls_toward_its_limit(box):
    # theta* falls with the density and ends within the search tolerance
    # of the limit (1.3238831 seen at rho = 1e6)
    tol = 1e-4
    densities = (1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 0.1, 1.0, 1e2, 1e4, 1e6)
    thetas = [optimize("mac", make_params(rho=rho), box, tol=tol).theta_star_rad
              for rho in densities]
    assert all(later <= earlier for earlier, later in zip(thetas, thetas[1:])), thetas
    assert abs(thetas[-1] - THETA_INF) <= tol


def test_optimizer_never_beats_its_own_trace(params, box):
    res = optimize("mac", params, box)
    hs, ts, vs = res.trace
    assert len(hs) == len(ts) == len(vs) == 2 * SCAN_POINTS
    assert (hs == res.h_star_m).all()
    assert res.objective_bps_hz == vs.max()
    assert res.theta_star_rad == ts[vs == vs.max()].min()


def test_optimize_corner_optimum_is_exact(params):
    # mc rises in beamwidth up to its peak near 1.4 rad. On [0.03, 0.45],
    # 0.03 + (0.45 - 0.03) is one ulp above 0.45: a grid that does not pin
    # its last point would report a theta outside the box
    box = DeploymentVars(altitude_m=50.0, half_beamwidth_rad=0.03, h_min_m=50.0,
                         h_max_m=100.0, theta_min_rad=0.03, theta_max_rad=0.45)
    res = optimize("mc", params, box)
    assert (res.h_star_m, res.theta_star_rad) == (100.0, 0.45)
    assert box.at(altitude_m=res.h_star_m, half_beamwidth_rad=res.theta_star_rad)


def test_grid_search_agrees_with_rules(params, box):
    for mode in ("mc", "bc"):
        rule = optimize(mode, params, box)
        grid = optimize_2d_grid(params, box, mode, n=32)
        h_step = (box.h_max_m - box.h_min_m) / 31
        t_step = (box.theta_max_rad - box.theta_min_rad) / 31
        assert abs(grid.h_star_m - rule.h_star_m) <= h_step + 1e-9
        assert abs(grid.theta_star_rad - rule.theta_star_rad) <= t_step + 1e-9
        assert grid.method == "grid"
        assert grid.objective_bps_hz <= rule.objective_bps_hz * (1 + 1e-12)


def test_grid_search_ties_toward_smaller_h_then_theta(params, box, monkeypatch):
    n = 8
    hs = np.linspace(box.h_min_m, box.h_max_m, n)
    ts = np.linspace(box.theta_min_rad, box.theta_max_rad, n)
    # mac does not depend on altitude, so every row of the grid ties
    assert optimize_2d_grid(params, box, "mac", n=n).h_star_m == box.h_min_m

    # a plateau of equal maxima at every h >= hs[2] and theta >= ts[3]
    def plateau(mode, params, h, theta):
        return ((h >= hs[2]) & (theta >= ts[3])).astype(float)

    monkeypatch.setattr(importlib.import_module("uavcell.optimize"), "rate_value", plateau)
    res = optimize_2d_grid(params, box, "bc", n=n)
    assert (res.h_star_m, res.theta_star_rad, res.objective_bps_hz) == (hs[2], ts[3], 1.0)
    trace_h, trace_t, _ = res.trace
    assert list(zip(trace_h, trace_t)) == [(h, t) for h in hs for t in ts]


def test_unknown_mode_rejected(params, box):
    with pytest.raises(ValueError):
        optimize("fdma", params, box)
