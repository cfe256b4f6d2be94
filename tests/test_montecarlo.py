"""Seeded Monte Carlo validation of the analytic throughput expressions."""
import math

import numpy as np
import pytest

from uavcell import (MODES, DeploymentVars, McMission, SimSpec, cell_edge_rate_mc,
                     coverage_radius, geometry, mission_time_mc, montecarlo,
                     simulate_mc_mission, simulate_rate, snr_bc, snr_mac, snr_mc)
from uavcell.geometry import SQRT3


def test_simspec_region_defaults():
    assert SimSpec(mode="mc").region == "hexagon"
    assert SimSpec(mode="bc").region == "disk"
    assert SimSpec(mode="mac").region == "disk"
    with pytest.raises(ValueError):
        SimSpec(mode="mc", region="disk")
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
        elif mode == "bc":
            values.append(float(np.mean(np.log2(1.0 + snr_bc(r, params, point)))))
        else:
            snr = snr_mac(r, params, point) * n / k_disk
            values.append(float(np.mean(np.log2(1.0 + snr))))
    return np.array(values)


# (H, theta, realizations): about one terminal per cell, so that many
# realizations are empty; about 1,000, several realizations per block;
# more than BLOCK_TERMINALS, one realization per block
LOOP_POINTS = ((40.0, 0.2, 300), (300.0, 0.7, 20), (600.0, 1.0, 3))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("h, theta, realizations", LOOP_POINTS)
def test_block_values_match_a_loop(params, monkeypatch, mode, h, theta, realizations):
    blocks = []

    def record(*args, **kwargs):
        blocks.append(geometry.sample_gts(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(montecarlo, "sample_gts", record)
    point = DeploymentVars.point(h, theta)
    res = simulate_rate(params, point, SimSpec(mode=mode, realizations=realizations, seed=9))
    counts = np.concatenate([block.counts for block in blocks])
    positions = np.concatenate([block.positions for block in blocks])
    assert np.array_equal(counts, res.gt_counts)
    # the same float64 terms, summed in another order (seen: 7e-16)
    np.testing.assert_allclose(res.per_realization,
                               _loop_reference(mode, params, point, positions, counts),
                               rtol=1e-12, atol=0.0)
    # whole realizations per block, a block over BLOCK_TERMINALS only alone
    area_per_r2 = 1.5 * SQRT3 if mode == "mc" else math.pi  # hexagon or disk
    expected = params.density_per_m2 * area_per_r2 * (h * math.tan(theta))**2
    sizes = [len(block.counts) for block in blocks]
    assert sum(sizes) == realizations
    assert all(k == 1 or k * expected <= montecarlo.BLOCK_TERMINALS for k in sizes)
    if h == 40.0:
        assert (counts == 0).sum() > 10
    if h == 600.0:
        assert counts.min() > montecarlo.BLOCK_TERMINALS and sizes == [1, 1, 1]


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


def test_mission_simulation_matches_analytic_time(params):
    point = DeploymentVars.point(100.0, math.pi / 10)
    area = 2.0e5
    mission = McMission(5.0e7)
    sim = simulate_mc_mission(params, point, mission, area,
                              SimSpec(mode="mc", realizations=5, seed=4))
    assert sim.total_time_s == mission_time_mc(params, point, mission, area)
    assert sim.worst_gt_rate_bps_hz >= cell_edge_rate_mc(params, point) * (1 - 1e-12)
    with pytest.raises(ValueError):
        simulate_mc_mission(params, point, mission, area, SimSpec(mode="bc"))
