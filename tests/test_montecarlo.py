"""Seeded Monte Carlo validation of the analytic throughput expressions."""
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_params
from snr_reference import snr_mac, snr_mc
from uavcell import (MODES, DeploymentVars, SimSpec, cell_edge_rate_mc, coverage_radius,
                     dbm_to_watts, geometry, montecarlo, simulate_rate)
from uavcell.params import SQRT3


def test_simspec_region_defaults(params, monkeypatch):
    # each mode samples its own region: the hexagon for mc, the disk otherwise
    regions = []

    def record(layout, region, *args, **kwargs):
        regions.append(region)
        return geometry.sample_gts(layout, region, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_gts", record)
    for mode in MODES:
        simulate_rate(params, DeploymentVars(300.0, 0.4),
                      SimSpec(mode=mode, realizations=2))
    assert regions == ["hexagon", "disk", "disk"]
    with pytest.raises(ValueError):
        SimSpec(mode="bc", realizations=0)


def test_simulation_is_reproducible(params):
    point = DeploymentVars(300.0, 0.4)
    spec = SimSpec(mode="bc", realizations=20, seed=123)
    a = simulate_rate(params, point, spec)
    b = simulate_rate(params, point, spec)
    assert np.array_equal(a.per_realization, b.per_realization)
    assert np.array_equal(a.gt_counts, b.gt_counts)
    c = simulate_rate(params, point, SimSpec(mode="bc", realizations=20, seed=124))
    assert not np.array_equal(a.per_realization, c.per_realization)


def test_bc_reference_point_agrees(params):
    # H=500 m, half-beamwidth pi/10, 100 draws, seed 7: the standing
    # regression point for the broadcast expression
    point = DeploymentVars(500.0, math.pi / 10)
    res = simulate_rate(params, point, SimSpec(mode="bc", seed=7))
    assert res.relative_gap <= 0.03
    assert res.empirical_stderr_bps_hz < 0.01 * res.analytic_bps_hz


def test_mac_agrees_with_fixed_counts(params):
    point = DeploymentVars(300.0, 0.8)
    res = simulate_rate(params, point,
                        SimSpec(mode="mac", seed=3, count_model="fixed"))
    assert res.relative_gap <= 0.03
    assert len(set(res.gt_counts.tolist())) == 1


def test_mc_realizations_factorize(params):
    # the common stream runs at the rate of the farthest sampled terminal,
    # so each realization is count * a rate between the cell-edge rate and
    # the centre rate, and it varies even with a fixed count
    point = DeploymentVars(150.0, 0.5)
    res = simulate_rate(params, point,
                        SimSpec(mode="mc", realizations=10, seed=1, count_model="fixed"))
    edge = cell_edge_rate_mc(params, point)
    centre = math.log2(1.0 + snr_mc(0.0, params, point))
    per_gt = res.per_realization / res.gt_counts
    assert np.all((per_gt > edge) & (per_gt < centre))
    assert res.empirical_stderr_bps_hz > 0.0


def test_bc_snr_scale_near_the_float_maximum():
    # alpha = 4e307 over theta^2 = 0.0025 overflows as one constant, but
    # not over theta^2 (H^2 + r^2): the realizations stay finite and match
    # the closed form, about 1017 bps/Hz over some 1,200 terminals
    loud = make_params(rho=15.0, p_downlink_w=dbm_to_watts(3012.0))
    res = simulate_rate(loud, DeploymentVars(100.0, 0.05),
                        SimSpec(mode="bc", realizations=20, seed=3))
    assert np.isfinite(res.per_realization).all()
    assert res.relative_gap < 1e-3


def _loop_reference(mode, params, point, positions, counts):
    """Per-realization values by a plain loop over the realizations, from
    the positions and the per-terminal SNRs of the channel model."""
    rbar = coverage_radius(point.altitude_m, point.half_beamwidth_rad)
    k_disk = params.density_per_m2 * math.pi * rbar**2
    values = []
    start = 0
    for n in counts.tolist():
        r = np.hypot(*positions[start:start + n].T)
        start += n
        if n == 0:
            values.append(0.0)
        elif mode == "mc":
            values.append(n * math.log2(1.0 + snr_mc(float(r.max()), params, point)))
        elif mode == "bc":  # the FDMA shares of power and band cancel: mc's SNR
            values.append(float(np.mean(np.log2(1.0 + snr_mc(r, params, point)))))
        else:
            snr = snr_mac(r, params, point) * n / k_disk
            values.append(float(np.mean(np.log2(1.0 + snr))))
    return np.array(values)


def _recorded_run(monkeypatch, params, point, spec):
    """simulate_rate's result and a copy of each of its sample_gts draws."""
    draws = []

    def record(*args, **kwargs):
        real = geometry.sample_gts(*args, **kwargs)
        # a draw is a view of the simulation's workspace, which the next
        # draw overwrites; its positions are built from the copied uniforms
        draws.append(real._replace(counts=real.counts.copy(), r2=real.r2.copy(),
                                   uniforms=real.uniforms.copy()))
        return real

    monkeypatch.setattr(montecarlo, "sample_gts", record)
    return simulate_rate(params, point, spec), draws


def _check_against_loop(mode, params, point, res, draws):
    counts = res.gt_counts
    # every draw but the last is one full chunk, and together they hold
    # every realization's terminals
    sizes = [len(draw.r2) for draw in draws]
    assert all(size == montecarlo.BLOCK_TERMINALS for size in sizes[:-1])
    assert sum(sizes) == counts.sum()
    positions = np.concatenate([draw.positions for draw in draws])
    # the same float64 terms, summed in another order (seen: 7e-16)
    np.testing.assert_allclose(res.per_realization,
                               _loop_reference(mode, params, point, positions, counts),
                               rtol=1e-12, atol=0.0)


# (H, theta, realizations): about one terminal per cell, so that many
# realizations are empty; about 1,000, many realizations per chunk; more
# than BLOCK_TERMINALS, so that every realization spans a chunk edge; more
# than twice BLOCK_TERMINALS, so that some realization holds a whole chunk
LOOP_POINTS = ((40.0, 0.2, 300), (300.0, 0.7, 20), (600.0, 1.0, 3), (800.0, 1.0, 3))
# expected hexagon terminals in BLOCK_TERMINALS at the last two points, set
# by the density, so that they stay past one and two chunks whatever the
# block (the disk holds 1.2 times as many)
BLOCKS_PER_REALIZATION = {600.0: 1.3, 800.0: 2.6}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("h, theta, realizations", LOOP_POINTS)
def test_block_values_match_a_loop(params, monkeypatch, mode, h, theta, realizations):
    point = DeploymentVars(h, theta)
    block = montecarlo.BLOCK_TERMINALS
    if h in BLOCKS_PER_REALIZATION:
        hex_area = 1.5 * SQRT3 * coverage_radius(h, theta)**2
        params = make_params(rho=BLOCKS_PER_REALIZATION[h] * block / hex_area)
    res, draws = _recorded_run(monkeypatch, params, point,
                               SimSpec(mode=mode, realizations=realizations, seed=9))
    _check_against_loop(mode, params, point, res, draws)
    counts = res.gt_counts
    if h == 40.0:
        assert (counts == 0).sum() > 10
    if h == 300.0:
        assert len(draws) < realizations
    if h == 600.0:
        assert counts.min() > block
    if h == 800.0:
        assert counts.min() > 2 * block


@pytest.mark.parametrize("mode", MODES)
def test_chunk_edges_match_a_loop(params, monkeypatch, mode):
    # empty realizations at a chunk edge, the first chunk ending exactly on
    # a realization's end, the second ending on the last filled one, and a
    # trailing empty realization
    block = montecarlo.BLOCK_TERMINALS
    fixed = np.array([block, 0, 5, 0, block - 5, 0])
    monkeypatch.setattr(montecarlo, "draw_counts", lambda *args: fixed.copy())
    point = DeploymentVars(300.0, 0.7)
    res, draws = _recorded_run(monkeypatch, params, point,
                               SimSpec(mode=mode, realizations=len(fixed), seed=9))
    assert np.array_equal(res.gt_counts, fixed)
    assert [draw.counts.tolist() for draw in draws] == [[block], [5, 0, block - 5]]
    _check_against_loop(mode, params, point, res, draws)
    assert res.per_realization[[1, 3, 5]].tolist() == [0.0, 0.0, 0.0]


def _point_holding(params, mode, terminals, theta):
    """The point at half-beamwidth theta whose cell (the mode's region)
    holds the given expected terminals."""
    area_per_r2 = 1.5 * SQRT3 if mode == "mc" else math.pi
    radius = math.sqrt(terminals / (params.density_per_m2 * area_per_r2))
    return DeploymentVars(radius / math.tan(theta), theta)


@pytest.mark.parametrize("mode", MODES)
def test_memory_does_not_grow_with_the_cell(params, mode):
    # terminals are drawn and reduced in chunks of BLOCK_TERMINALS, into
    # one workspace per call: the peak is the same at 1e4 and 1e6 expected
    # terminals per realization (drawn whole, it was 0.9 MB and 89 MB)
    for terminals, realizations in ((1e4, 10), (1e6, 2)):
        point = _point_holding(params, mode, terminals, 1.0)
        tracemalloc.start()
        try:
            res = simulate_rate(params, point, SimSpec(mode=mode, realizations=realizations,
                                                       seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.gt_counts.min() > 0.9 * terminals
        assert peak <= 2e6, (terminals, peak)


# Python frames entered in uavcell's own modules by one simulate_rate call:
# the layout, the counts and the values once per call, and per chunk
# sample_gts, its region sampler, its workspace lookups and _partials.
# Upper bounds, so that a helper or wrapper added to the chunk loop fails
# here at ten or more chunks without any timing.
SIMULATE_CALL_FRAMES = 8
SIMULATE_CHUNK_FRAMES = 6


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("terminals, realizations, chunks", [(300.0, 20, 1), (3000.0, 10, 3),
                                                             (30000.0, 5, 13)])
def test_simulate_call_budget(params, mode, terminals, realizations, chunks):
    package = os.path.dirname(montecarlo.__file__) + os.sep
    point = _point_holding(params, mode, terminals, 1.0)
    spec = SimSpec(mode=mode, realizations=realizations, seed=4, count_model="fixed")
    frames = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            frames.append(frame.f_code.co_name)

    counts = []
    for _ in range(2):  # nothing kept from the first call shortens the second
        frames.clear()
        sys.setprofile(profile)
        try:
            simulate_rate(params, point, spec)
        finally:
            sys.setprofile(None)
        assert frames.count("sample_gts") == chunks  # one draw per chunk
        assert len(frames) <= SIMULATE_CALL_FRAMES + SIMULATE_CHUNK_FRAMES * chunks, \
            sorted(frames)
        counts.append(len(frames))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", MODES)
def test_memory_per_realization(params, mode):
    # 200,000 realizations of half a terminal each, most of them empty: the
    # README's ~39 bytes per realization (the counts, the statistics and
    # the values, with the mask and temporaries of the values) plus a fixed
    # allowance for the chunk workspace. An extra array as long as the
    # realizations, kept through the call, adds 8 bytes per realization
    realizations = 200_000
    point = _point_holding(params, mode, 0.5, 0.5)
    tracemalloc.start()
    try:
        res = simulate_rate(params, point, SimSpec(mode=mode, realizations=realizations, seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.55 < (res.gt_counts == 0).mean() < 0.65
    assert peak <= 39 * realizations + 500_000, peak / realizations


def test_single_realization_has_no_stderr(params):
    point = DeploymentVars(300.0, 0.4)
    res = simulate_rate(params, point, SimSpec(mode="bc", realizations=1, seed=2))
    assert math.isnan(res.empirical_stderr_bps_hz)
    assert res.empirical_mean_bps_hz == res.per_realization[0]


def test_stderr_shrinks_like_sqrt_n(params):
    point = DeploymentVars(300.0, 0.4)
    small = simulate_rate(params, point, SimSpec(mode="bc", realizations=100, seed=5))
    large = simulate_rate(params, point, SimSpec(mode="bc", realizations=400, seed=5))
    ratio = small.empirical_stderr_bps_hz / large.empirical_stderr_bps_hz
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_stderr_is_the_sample_formula(params):
    point = DeploymentVars(300.0, 0.4)
    res = simulate_rate(params, point, SimSpec(mode="bc", realizations=40, seed=5))
    want = float(np.std(res.per_realization, ddof=1) / math.sqrt(40))
    assert res.empirical_stderr_bps_hz == want


@pytest.mark.parametrize("mode", MODES)
def test_stderr_of_tiny_rates_does_not_underflow(mode):
    # beta0 = 1e-300 puts every realization near 1e-294: their squared
    # deviations underflow to 0 unless they are scaled first
    faint = make_params(beta0=1e-300)
    res = simulate_rate(faint, DeploymentVars(275.0, 0.775),
                        SimSpec(mode=mode, realizations=30, seed=7))
    values = res.per_realization
    assert 0.0 < values.max() < 1e-290 and len(set(values.tolist())) > 1
    scale = 2.0**1000
    want = float(np.std(values * scale, ddof=1) / math.sqrt(len(values))) / scale
    assert res.empirical_stderr_bps_hz == pytest.approx(want, rel=1e-12)
    assert res.empirical_stderr_bps_hz > 0.0


@pytest.mark.parametrize("mode", MODES)
def test_expected_terminals_of_a_sweep_match_its_rows(params, mode):
    # the CLI counts a sweep's budget on its arrays; the total is the sum of
    # what simulate_rate draws per row, from make_layout's scalar arithmetic
    rng = np.random.default_rng(32)
    spec = SimSpec(mode=mode, realizations=7)
    for _ in range(20):
        h = rng.uniform(1.0, 1000.0, int(rng.integers(2, 500)))
        theta = rng.uniform(0.01, 1.5, len(h))
        layouts = [geometry.make_layout(params, DeploymentVars(*point))
                   for point in zip(h.tolist(), theta.tolist())]
        rows = [spec.realizations * (layout.mean_gts_hex if mode == "mc" else layout.mean_gts_disk)
                for layout in layouts]
        total = float(np.sum(montecarlo.expected_terminals(params, h, theta, spec)))
        assert total == pytest.approx(math.fsum(rows), rel=1e-12, abs=0.0)
