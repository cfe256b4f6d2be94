"""Seeded Monte Carlo validation of the analytic throughput expressions."""
import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_params
from uavcell import (MODES, DeploymentVars, GtRealization, SimSpec, cell_edge_rate_mc,
                     coverage_radius, geometry, montecarlo, simulate_rate, snr_mac, snr_mc)
from uavcell.geometry import SQRT3


def test_simspec_region_defaults(params, monkeypatch):
    # each mode samples its own region: the hexagon for mc, the disk otherwise
    regions = []

    def record(layout, region, *args, **kwargs):
        regions.append(region)
        return geometry.sample_gts(layout, region, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_gts", record)
    for mode in MODES:
        simulate_rate(params, DeploymentVars.point(300.0, 0.4),
                      SimSpec(mode=mode, realizations=2))
    assert regions == ["hexagon", "disk", "disk"]
    with pytest.raises(ValueError):
        SimSpec(mode="bc", realizations=0)


def test_simulation_is_reproducible(params):
    point = DeploymentVars.point(300.0, 0.4)
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
    point = DeploymentVars.point(500.0, math.pi / 10)
    res = simulate_rate(params, point, SimSpec(mode="bc", seed=7))
    assert res.relative_gap <= 0.03
    assert res.empirical_stderr_bps_hz < 0.01 * res.analytic_bps_hz


def test_mac_agrees_with_fixed_counts(params):
    point = DeploymentVars.point(300.0, 0.8)
    res = simulate_rate(params, point,
                        SimSpec(mode="mac", seed=3, count_model="fixed"))
    assert res.relative_gap <= 0.03
    assert len(set(res.gt_counts.tolist())) == 1


def test_mc_realizations_factorize(params):
    # the common stream runs at the rate of the farthest sampled terminal,
    # so each realization is count * a rate between the cell-edge rate and
    # the centre rate, and it varies even with a fixed count
    point = DeploymentVars.point(150.0, 0.5)
    res = simulate_rate(params, point,
                        SimSpec(mode="mc", realizations=10, seed=1, count_model="fixed"))
    edge = cell_edge_rate_mc(params, point)
    centre = math.log2(1.0 + snr_mc(0.0, params, point))
    per_gt = res.per_realization / res.gt_counts
    assert np.all((per_gt > edge) & (per_gt < centre))
    assert res.empirical_stderr_bps_hz > 0.0


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


# (H, theta, realizations): about one terminal per cell, so that many
# realizations are empty; about 1,000, several realizations per block;
# more than BLOCK_TERMINALS, two chunks per realization; more than twice
# BLOCK_TERMINALS, three chunks
LOOP_POINTS = ((40.0, 0.2, 300), (300.0, 0.7, 20), (600.0, 1.0, 3), (800.0, 1.0, 3))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("h, theta, realizations", LOOP_POINTS)
def test_block_values_match_a_loop(params, monkeypatch, mode, h, theta, realizations):
    draws = []

    def record(*args, **kwargs):
        real = geometry.sample_gts(*args, **kwargs)
        # a draw is a view of the simulation's workspace, which the next
        # draw overwrites
        draws.append(GtRealization(real.positions.copy(), real.counts.copy(), real.r2.copy()))
        return real

    monkeypatch.setattr(montecarlo, "sample_gts", record)
    point = DeploymentVars.point(h, theta)
    res = simulate_rate(params, point, SimSpec(mode=mode, realizations=realizations, seed=9))
    counts = res.gt_counts
    positions = np.concatenate([draw.positions for draw in draws])
    assert len(positions) == counts.sum()
    # the same float64 terms, summed in another order (seen: 7e-16)
    np.testing.assert_allclose(res.per_realization,
                               _loop_reference(mode, params, point, positions, counts),
                               rtol=1e-12, atol=0.0)
    area_per_r2 = 1.5 * SQRT3 if mode == "mc" else math.pi  # hexagon or disk
    expected = params.density_per_m2 * area_per_r2 * (h * math.tan(theta))**2
    block = montecarlo.BLOCK_TERMINALS
    if expected <= block:
        # whole realizations per block, a block over BLOCK_TERMINALS only alone
        assert np.array_equal(np.concatenate([draw.counts for draw in draws]), counts)
        assert all(len(draw.counts) == 1 or len(draw.counts) * expected <= block
                   for draw in draws)
    else:
        # one realization at a time, in chunks of at most BLOCK_TERMINALS
        # that add up to its count
        sizes = [len(draw.positions) for draw in draws]
        assert all(len(draw.counts) == 1 for draw in draws)
        assert max(sizes) <= block
        chunks = iter(sizes)
        for n in counts.tolist():
            drawn = 0
            while drawn < n:
                drawn += next(chunks)
            assert drawn == n
        assert next(chunks, None) is None
    if h == 40.0:
        assert (counts == 0).sum() > 10
    if h == 600.0:
        assert counts.min() > block
    if h == 800.0:
        assert counts.min() > 2 * block


@pytest.mark.parametrize("mode", MODES)
def test_memory_does_not_grow_with_the_cell(params, mode):
    # terminals are drawn and reduced in chunks of BLOCK_TERMINALS, into
    # one workspace per call: the peak is the same at 1e4 and 1e6 expected
    # terminals per realization (drawn whole, it was 0.9 MB and 89 MB)
    area_per_r2 = 1.5 * SQRT3 if mode == "mc" else math.pi
    for terminals, realizations in ((1e4, 10), (1e6, 2)):
        radius = math.sqrt(terminals / (params.density_per_m2 * area_per_r2))
        point = DeploymentVars.point(radius / math.tan(1.0), 1.0)
        tracemalloc.start()
        try:
            res = simulate_rate(params, point, SimSpec(mode=mode, realizations=realizations,
                                                       seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.gt_counts.min() > 0.9 * terminals
        assert peak <= 2e6, (terminals, peak)


def test_single_realization_has_no_stderr(params):
    point = DeploymentVars.point(300.0, 0.4)
    res = simulate_rate(params, point, SimSpec(mode="bc", realizations=1, seed=2))
    assert math.isnan(res.empirical_stderr_bps_hz)
    assert res.empirical_mean_bps_hz == res.per_realization[0]


def test_stderr_shrinks_like_sqrt_n(params):
    point = DeploymentVars.point(300.0, 0.4)
    small = simulate_rate(params, point, SimSpec(mode="bc", realizations=100, seed=5))
    large = simulate_rate(params, point, SimSpec(mode="bc", realizations=400, seed=5))
    ratio = small.empirical_stderr_bps_hz / large.empirical_stderr_bps_hz
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_stderr_is_the_sample_formula(params):
    point = DeploymentVars.point(300.0, 0.4)
    res = simulate_rate(params, point, SimSpec(mode="bc", realizations=40, seed=5))
    want = float(np.std(res.per_realization, ddof=1) / math.sqrt(40))
    assert res.empirical_stderr_bps_hz == want


@pytest.mark.parametrize("mode", MODES)
def test_stderr_of_tiny_rates_does_not_underflow(mode):
    # beta0 = 1e-300 puts every realization near 1e-294: their squared
    # deviations underflow to 0 unless they are scaled first
    faint = make_params(beta0=1e-300)
    res = simulate_rate(faint, DeploymentVars.point(275.0, 0.775),
                        SimSpec(mode=mode, realizations=30, seed=7))
    values = res.per_realization
    assert 0.0 < values.max() < 1e-290 and len(set(values.tolist())) > 1
    scale = 2.0**1000
    want = float(np.std(values * scale, ddof=1) / math.sqrt(len(values))) / scale
    assert res.empirical_stderr_bps_hz == pytest.approx(want, rel=1e-12)
    assert res.empirical_stderr_bps_hz > 0.0
