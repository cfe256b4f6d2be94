"""End-to-end acceptance gate.

Each test is one numbered criterion with its stated tolerance and runtime
budget; a one-line PASS/FAIL verdict per criterion is echoed in a summary
section after the run so the gate is readable from the log of a plain
pytest invocation.
"""
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.integrate import quad

from uavcell import (DeploymentVars, SimSpec, cli, optimize, plan_tour, rate_value,
                     simulate_rate)
import conftest
from grid_reference import optimize_2d_grid

LN2 = math.log(2.0)
SQRT3 = math.sqrt(3.0)

BASE_CFG = {
    "beta0": 1.42e-4,
    "bandwidth_hz": 1.0e7,
    "p_downlink_dbm": 10.0,
    "p_uplink_dbm": -10.0,
    "noise_psd_dbm_hz": -169.0,
    "density_per_m2": 0.005,
    "h_min_m": 50.0,
    "h_max_m": 500.0,
    "theta_min_rad": 0.05,
    "theta_max_rad": 1.5,
}


@contextmanager
def criterion(num, slug, budget_s):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, (
            f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s")
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(
            f"[acceptance] criterion {num:02d} {slug}: FAIL")
        raise
    conftest.ACCEPTANCE_LINES.append(
        f"[acceptance] criterion {num:02d} {slug}: PASS ({elapsed:.2f}s)")


def test_criterion_01_mac_optimum_beamwidth(tmp_path, capsys):
    """Uplink optimizer lands on the published 1.3195 rad for each density."""
    with criterion(1, "mac-optimum-beamwidth", 1.0):
        optima = []
        for rho in (0.001, 0.005, 0.01):
            path = tmp_path / f"rho_{rho}.json"
            path.write_text(json.dumps(dict(BASE_CFG, density_per_m2=rho)))
            code = cli.main(["--config", str(path), "--out", str(tmp_path),
                             "optimize", "--mode", "mac"])
            assert code == 0
            out = capsys.readouterr().out
            theta = float(next(l for l in out.splitlines()
                               if l.startswith("theta_star_rad=")).split("=")[1])
            assert abs(theta - 1.3195) <= 0.005, (rho, theta)
            optima.append(theta)
        assert max(optima) - min(optima) < 0.01


def test_criterion_02_multicast_nondecreasing_in_altitude(params):
    with criterion(2, "mc-nondecreasing-in-h", 5.0):
        hs = np.linspace(1.0, 1.0e4, 200)
        for theta in np.linspace(0.05, 1.5, 50):
            vals = rate_value("mc", params, hs, theta)
            assert np.diff(vals).min() >= -1e-12, theta


def test_criterion_03_broadcast_decreasing_in_altitude(params):
    with criterion(3, "bc-decreasing-in-h", 5.0):
        hs = np.linspace(1.0, 1.0e4, 200)
        for theta in np.linspace(0.05, 1.5, 50):
            vals = rate_value("bc", params, hs, theta)
            assert np.diff(vals).max() < 0.0, theta


def test_criterion_04_multiaccess_altitude_independent(params):
    with criterion(4, "mac-h-independence", 1.0):
        hs = np.linspace(1.0, 1.0e4, 100)
        for theta in np.linspace(0.05, 1.5, 50):
            vals = rate_value("mac", params, hs, theta)
            assert np.ptp(vals) / vals.mean() < 1e-12, theta


def test_criterion_05_closed_forms_match_quadrature(params):
    """bc/mac closed forms vs adaptive radial quadrature at random points."""
    with criterion(5, "quadrature-oracle", 30.0):
        rng = np.random.default_rng(2024)
        hs = rng.uniform(1.0, 1.0e4, 500)
        thetas = rng.uniform(0.05, 1.5, 500)
        for h, theta in zip(hs, thetas):
            rbar = h * math.tan(theta)
            t2 = math.tan(theta)**2

            def snr_bc(r):
                return params.alpha / (theta**2 * (h**2 + r**2))

            def snr_mac(r):
                return params.eta * h**2 * t2 / (theta**2 * (h**2 + r**2))

            for mode, snr in (("bc", snr_bc), ("mac", snr_mac)):
                val, _ = quad(lambda r: r * math.log1p(snr(r)) / LN2,
                              0.0, rbar, limit=200)
                oracle = 2.0 * val / rbar**2
                got = rate_value(mode, params, h, theta)
                assert abs(got - oracle) <= 1e-6 * abs(oracle), (mode, h, theta)


def test_criterion_06_monte_carlo_agreement(params):
    """Seeded fixed-count simulations reproduce the analytic curves to 3%."""
    with criterion(6, "monte-carlo-agreement", 60.0):
        points = ([(h, math.pi / 10) for h in (100.0, 300.0, 500.0)]
                  + [(500.0, t) for t in (0.2, 0.6, 1.0)])
        for mode, (h, theta) in itertools.product(("bc", "mac"), points):
            spec = SimSpec(mode=mode, realizations=100, seed=7, count_model="fixed")
            res = simulate_rate(params, DeploymentVars(h, theta), spec)
            assert res.relative_gap <= 0.03, (mode, h, theta, res.relative_gap)


def test_criterion_07_multicast_large_altitude_limit(params):
    with criterion(7, "mc-large-h-limit", 1.0):
        alpha = params.alpha
        rho = params.density_per_m2
        for theta in (0.2, 0.5, 1.0):
            limit = (1.5 * SQRT3 * rho * alpha * math.sin(theta)**2
                     / (theta**2 * LN2))
            got = rate_value("mc", params, 1.0e6, theta)
            assert abs(got - limit) / limit < 1e-3, theta


def test_criterion_08_multicast_beamwidth_curve_shape(params):
    """Unimodal in beamwidth; peak location never moves right as H grows.

    The grid spans the whole model range (0, pi/2): the peaks sit just
    under a right angle at these altitudes, so a grid clipped at the
    deployment cap would see only the rising flank and prove nothing.
    """
    with criterion(8, "mc-curve-shape", 2.0):
        thetas = np.linspace(0.02, 1.5707, 1000)
        argmaxes = []
        for h in (100.0, 300.0, 500.0):
            vals = rate_value("mc", params, h, thetas)
            signs = np.sign(np.diff(vals))
            signs = signs[signs != 0.0]
            assert np.count_nonzero(signs[1:] != signs[:-1]) <= 1, h
            peak = int(np.argmax(vals))
            assert 0 < peak < len(thetas) - 1, h  # rise and fall both seen
            argmaxes.append(thetas[peak])
        assert argmaxes[0] >= argmaxes[1] >= argmaxes[2]


def test_criterion_09_grid_search_cross_validation(params, box):
    with criterion(9, "2d-grid-cross-validation", 20.0):
        (h_min, h_max), (theta_min, theta_max) = box
        h_step = (h_max - h_min) / 63
        t_step = (theta_max - theta_min) / 63
        for mode in ("mc", "bc"):
            t0 = time.perf_counter()
            rule = optimize(mode, params, *box)
            grid = optimize_2d_grid(mode, params, *box, n=64)
            assert time.perf_counter() - t0 < 10.0, mode
            assert abs(grid.h_star_m - rule.h_star_m) <= h_step + 1e-9, mode
            assert abs(grid.theta_star_rad - rule.theta_star_rad) <= t_step + 1e-9, mode


def test_criterion_10_tour_against_brute_force():
    with criterion(10, "tour-oracle", 10.0):
        rng = np.random.default_rng(99)
        for case in range(20):
            n = int(rng.integers(2, 9))
            pts = rng.uniform(0.0, 1000.0, size=(n, 2))
            plan = plan_tour(pts, (0.0, 0.0), 10.0)
            best = math.inf
            for perm in itertools.permutations(range(1, n)):
                order = (0,) + perm
                length = sum(
                    math.dist(pts[order[i]], pts[order[(i + 1) % n]])
                    for i in range(n))
                best = min(best, length)
            assert plan.tour_length_m <= 1.05 * best + 1e-9, case
