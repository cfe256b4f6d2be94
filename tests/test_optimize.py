"""Golden-section search and the per-mode deployment optimizers."""
import importlib

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from uavcell import optimize, optimize_2d_grid, rate_value, search_1d


def test_search_1d_quadratic_peak():
    x, fx, trace = search_1d(lambda x: -(x - 0.3)**2, 0.0, 1.0, tol=1e-6)
    assert x == pytest.approx(0.3, abs=1e-5)
    assert fx == pytest.approx(0.0, abs=1e-9)
    assert len(trace) > 0
    assert fx == max(v for _, v in trace)


def test_search_1d_boundary_maximum():
    x, fx, _ = search_1d(np.sin, 0.0, 1.0)  # increasing on [0, 1]
    assert x == pytest.approx(1.0, abs=1e-3)
    x, _, _ = search_1d(np.cos, 0.0, 1.0)  # decreasing on [0, 1]
    assert x == pytest.approx(0.0, abs=1e-3)


def test_search_1d_degenerate_interval():
    x, fx, trace = search_1d(lambda x: 5.0, 2.0, 2.0)
    assert (x, fx) == (2.0, 5.0)
    assert trace == [(2.0, 5.0)]


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


def test_optimizer_never_beats_its_own_trace(params, box):
    res = optimize("mac", params, box)
    assert res.objective_bps_hz == max(v for _, _, v in res.trace)


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
    assert [(h, t) for h, t, _ in res.trace] == [(h, t) for h in hs for t in ts]


def test_unknown_mode_rejected(params, box):
    with pytest.raises(ValueError):
        optimize("fdma", params, box)
