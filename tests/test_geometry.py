"""Cell geometry, densities, and terminal sampling."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import RHO
from uavcell import (DISK, HEXAGON, DeploymentVars, SimSpec, coverage_radius, hex_contains,
                     make_layout, sample_gts)
from uavcell.geometry import Workspace, draw_counts
from uavcell.montecarlo import BLOCK_TERMINALS

SQRT3 = math.sqrt(3.0)
POINT = DeploymentVars(100.0, math.pi / 10)


def test_coverage_radius():
    assert coverage_radius(100.0, math.pi / 4) == pytest.approx(100.0, rel=1e-14)
    assert coverage_radius(100.0, math.pi / 10) == pytest.approx(
        32.49196962329063, rel=1e-14)


@pytest.mark.parametrize("altitude", [0.0, -1.0, -math.inf, math.nan])
def test_coverage_radius_refuses_a_non_positive_altitude(altitude):
    with pytest.raises(ValueError, match=f"altitude must be > 0, got {altitude}"):
        coverage_radius(altitude, 0.5)


def test_hex_contains_key_points():
    R = 10.0
    # vertex on the +x axis is inside (boundary inclusive), just past it is not
    assert hex_contains((10.0, 0.0), R)
    assert not hex_contains((10.0 + 1e-9, 0.0), R)
    # flat edge midpoints sit at sqrt(3)/2 R on y
    assert hex_contains((0.0, SQRT3 / 2 * R), R)
    assert not hex_contains((0.0, SQRT3 / 2 * R + 1e-9), R)
    assert hex_contains((0.0, 0.0), R)
    # bounding-box corner is outside the hexagon
    assert not hex_contains((10.0, SQRT3 / 2 * R), R)


def test_hex_contains_vectorized():
    R = 1.0
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.9, 0.5], [2.0, 0.0]])
    got = hex_contains(xy, R)
    assert got.tolist() == [True, True, False, False]


def test_layout_mean_counts(params):
    # rbar = 100 m cell: 129.9 terminals in the hexagon, 157.1 in the disk
    quarter = DeploymentVars(100.0, math.pi / 4)
    layout = make_layout(params, quarter)
    assert layout.circumradius_m == pytest.approx(100.0, rel=1e-14)
    assert layout.mean_gts_hex == pytest.approx(129.90381056766574, rel=1e-12)
    assert layout.mean_gts_disk == pytest.approx(157.0796326794896, rel=1e-12)


@pytest.fixture(scope="module")
def one_cell(params):
    return make_layout(params, POINT)


def _contains(region, xy, circumradius):
    """hex_contains for the hexagon; the disk's test inline, boundary inclusive."""
    if region == HEXAGON:
        return hex_contains(xy, circumradius)
    return xy[..., 0]**2 + xy[..., 1]**2 <= circumradius**2


def _sample(layout, region, seed, count_model="poisson", realizations=1):
    """sample_gts after draw_counts on one generator, as simulate_rate draws."""
    rng = np.random.default_rng(seed)
    area = layout.hex_area_m2 if region == HEXAGON else layout.disk_area_m2
    counts = draw_counts(rng, RHO * area, count_model, realizations)
    return sample_gts(layout, region, rng, counts=counts)


def test_sampling_is_deterministic(one_cell):
    a = _sample(one_cell, DISK, 42)
    b = _sample(one_cell, DISK, 42)
    c = _sample(one_cell, DISK, 43)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_samples_stay_in_region(one_cell):
    R = one_cell.circumradius_m
    disk = _sample(one_cell, DISK, 0)
    assert np.all(np.hypot(*disk.positions.T) <= R * (1 + 1e-12))
    hexa = _sample(one_cell, HEXAGON, 0)
    assert hex_contains(hexa.positions, R).all()


def test_fixed_count_model(one_cell):
    real = _sample(one_cell, HEXAGON, 5, count_model="fixed")
    assert len(real.positions) == round(one_cell.mean_gts_hex)
    with pytest.raises(ValueError):
        SimSpec(mode="mc", count_model="bernoulli")


def test_poisson_counts_have_right_mean(one_cell):
    counts = [len(_sample(one_cell, DISK, (9, i)).positions) for i in range(200)]
    mean = np.mean(counts)
    want = one_cell.mean_gts_disk  # 157.08, stderr of the mean about 0.9
    assert abs(mean - want) < 5.0


def test_hexagon_sampling_is_uniform(one_cell):
    # split the hexagon along x=0; symmetry puts half the mass on each side
    real = _sample(one_cell, HEXAGON, 11, count_model="fixed")
    frac = np.mean(real.positions[:, 0] > 0)
    assert abs(frac - 0.5) < 0.15


def test_bad_region_rejected(one_cell):
    with pytest.raises(ValueError):
        sample_gts(one_cell, "square", 0, np.array([1]))


@pytest.mark.parametrize("region, mean_r2", [(DISK, 1 / 2), (HEXAGON, 5 / 12)])
@pytest.mark.parametrize("count_model", ["poisson", "fixed"])
def test_batched_sampling(one_cell, region, mean_r2, count_model):
    real = _sample(one_cell, region, 3, count_model=count_model, realizations=2000)
    assert len(real.counts) == 2000
    assert real.counts.sum() == len(real.positions) == len(real.r2)
    # positions are built from the same uniforms as r2, in other float64
    # operations
    R = one_cell.circumradius_m
    assert _contains(region, real.positions, R).all()
    np.testing.assert_allclose(np.hypot(*real.positions.T)**2, real.r2, rtol=1e-12, atol=0.0)
    # E[r^2] of a uniform point is R^2/2 on the disk and 5R^2/12 on the
    # hexagon, in either half of the realizations: 3 % is at least 6
    # standard errors of a half's 13k to 17k points
    half = len(real.r2) // 2
    for part in (real.r2[:half], real.r2[half:]):
        assert np.mean(part) / R**2 == pytest.approx(mean_r2, rel=0.03)
    again = _sample(one_cell, region, 3, count_model=count_model, realizations=2000)
    for name in ("positions", "counts", "r2"):
        assert np.array_equal(getattr(real, name), getattr(again, name))


def test_sampling_draws_from_a_generator_in_place(one_cell):
    # a Generator moves on with every call, so two draws of the same counts
    # from it differ; a seed makes a fresh generator each time
    rng, counts = np.random.default_rng(8), np.array([3, 0, 4])
    first = sample_gts(one_cell, DISK, rng, counts)
    second = sample_gts(one_cell, DISK, rng, counts)
    assert not np.array_equal(first.r2, second.r2)
    assert first.side_seed != second.side_seed
    assert np.array_equal(sample_gts(one_cell, DISK, 8, counts).r2,
                          sample_gts(one_cell, DISK, 8, counts).r2)


def _reference_sample(rng, layout, region, count_model, realizations):
    """The draws of draw_counts and sample_gts in fresh arrays: the counts,
    one 64-bit side seed, then one Generator.random call for every
    terminal's uniforms, one row per variable, and r^2 from them."""
    area = layout.hex_area_m2 if region == HEXAGON else layout.disk_area_m2
    if count_model == "poisson":
        counts = rng.poisson(RHO * area, size=realizations)
    else:
        counts = np.full(realizations, int(round(RHO * area)))
    side_seed = rng.bit_generator.random_raw()
    rbar = layout.circumradius_m
    uniforms = rng.random((1 if region == DISK else 2, int(counts.sum())))
    u, v = uniforms[0], uniforms[-1]
    r2 = u * (rbar * rbar) if region == DISK else (v * (v - u) + u * u) * (rbar * rbar)
    return counts, side_seed, uniforms, r2


@pytest.mark.parametrize("region", [DISK, HEXAGON])
@pytest.mark.parametrize("count_model", ["poisson", "fixed"])
def test_sampling_matches_the_uniform_reference_bit_for_bit(params, region, count_model):
    # draws of growing and shrinking size from one generator, into one
    # workspace and into fresh arrays, against the reference on a twin
    # generator: the same counts, side seed, uniforms and r^2, bit for bit,
    # and the same positions with a workspace as without one
    layouts = (make_layout(params, POINT), make_layout(params, DeploymentVars(400.0, 0.9)))
    sizes = ((layouts[0], 1), (layouts[0], 300), (layouts[1], 2), (layouts[0], 7),
             (layouts[1], 1))
    positions = {}
    for workspace in (Workspace(), None):
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        for step, (layout, realizations) in enumerate(sizes):
            area = layout.hex_area_m2 if region == HEXAGON else layout.disk_area_m2
            counts = draw_counts(rng, RHO * area, count_model, realizations)
            real = sample_gts(layout, region, rng, counts, workspace=workspace)
            counts, side_seed, uniforms, r2 = _reference_sample(twin, layout, region,
                                                                count_model, realizations)
            assert real.positions.shape == (counts.sum(), 2)
            assert real.side_seed == side_seed
            for got, want in ((real.counts, counts), (real.uniforms, uniforms),
                              (real.r2, r2)):
                assert got.tobytes() == want.tobytes()
            positions.setdefault(step, []).append(real.positions.tobytes())
    assert all(with_ws == without for with_ws, without in positions.values())


@pytest.mark.parametrize("region, per_terminal", [(DISK, 1), (HEXAGON, 2)])
def test_sampling_draws_only_what_r2_needs(one_cell, region, per_terminal):
    # a call takes one 64-bit side seed and per_terminal doubles per
    # terminal from the generator (one 64-bit output each), and reading the
    # positions takes nothing: the generator's state is that of a twin
    # advanced by exactly that many outputs
    counts = np.array([5, 0, 7, 1])
    rng, twin = np.random.default_rng(17), np.random.default_rng(17)
    real = sample_gts(one_cell, region, rng, counts)
    assert real.positions.shape == (13, 2)
    twin.bit_generator.advance(1 + per_terminal * 13)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert real.uniforms.shape == (per_terminal, 13)


@pytest.mark.parametrize("region", [DISK, HEXAGON])
def test_positions_come_from_a_side_stream(one_cell, region):
    # reading the positions twice gives the same arrays, and reading them
    # leaves the main stream's later draws as they are without the read
    counts = np.array([200, 50])
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    real = sample_gts(one_cell, region, rng, counts)
    sample_gts(one_cell, region, twin, counts)
    first, second = real.positions, real.positions
    assert first is not second and np.array_equal(first, second)
    assert rng.random(5).tobytes() == twin.random(5).tobytes()
    np.testing.assert_allclose(np.hypot(*first.T)**2, real.r2, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("region", [DISK, HEXAGON])
def test_side_stream_uniform_is_uniform(one_cell, region):
    # the position's own uniform: the disk angle is uniform on a turn (KS),
    # and the hexagon's three rhombi, each 120 degrees of angle from the
    # center, are equally likely (chi-squared); a right sampler fails
    # either with probability 1e-6
    real = sample_gts(one_cell, region, 14, np.array([30_000]))
    x, y = real.positions.T
    turn = np.mod(np.arctan2(y, x), 2 * math.pi) / (2 * math.pi)
    np.testing.assert_allclose(np.hypot(x, y)**2, real.r2, rtol=1e-12, atol=0.0)
    if region == DISK:
        assert stats.kstest(turn, "uniform").pvalue > 1e-6
    else:
        rhombus = np.minimum((3.0 * turn).astype(int), 2)
        assert stats.chisquare(np.bincount(rhombus, minlength=3)).pvalue > 1e-6


def _r2_cdf(region, s):
    """Exact CDF of r^2/R^2 for a point uniform in the disk or hexagon of
    circumradius R: the share of the region within sqrt(s) R of its center.
    Past the hexagon's inradius a, the disk loses six circular segments."""
    s = np.clip(s, 0.0, 1.0)
    if region == DISK:
        return s
    a, past = SQRT3 / 2, np.maximum(s, 0.75)  # a^2 = 3/4
    segments = 6 * (past * np.arccos(a / np.sqrt(past)) - a * np.sqrt(past - 0.75))
    return (math.pi * s - np.where(s > 0.75, segments, 0.0)) / (1.5 * SQRT3)


@pytest.mark.parametrize("region", [DISK, HEXAGON])
def test_r2_follows_the_exact_distribution(one_cell, region):
    # Kolmogorov-Smirnov on 40,000 terminals against the exact CDF of
    # r^2/R^2: a right sampler fails it with probability 1e-6
    real = sample_gts(one_cell, region, 12, np.array([40_000]))
    s = real.r2 / one_cell.circumradius_m**2
    assert stats.kstest(s, lambda x: _r2_cdf(region, x)).pvalue > 1e-6
    if region == HEXAGON:
        # the rhombus form with the wrong sign, U^2 + U*V + V^2, is caught
        u, v = real.uniforms
        assert stats.kstest(u * u + u * v + v * v, lambda x: _r2_cdf(region, x)).pvalue < 1e-6


def test_r2_cdf_matches_the_region_areas():
    # the hexagon's CDF is 1 at its vertex, the inscribed disk's share at
    # its inradius, and a midpoint quadrature of hex_contains over a
    # quadrant in between (seen within 4e-5)
    assert _r2_cdf(HEXAGON, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert _r2_cdf(HEXAGON, 0.75) == pytest.approx(math.pi * 0.75 / (1.5 * SQRT3), rel=1e-14)
    grid = (np.arange(500) + 0.5) / 500
    x, y = np.meshgrid(grid, grid)
    quadrant = (1.5 * SQRT3) / 4 * 500**2
    for s in (0.8, 0.9, 0.95):
        inside = hex_contains(np.stack([x, y], axis=-1), 1.0) & (x * x + y * y <= s)
        assert _r2_cdf(HEXAGON, s) == pytest.approx(inside.sum() / quadrant, abs=2e-4)


@pytest.mark.parametrize("region", [DISK, HEXAGON])
def test_sampling_into_a_warm_workspace_allocates_nothing(one_cell, region):
    # a chunk of BLOCK_TERMINALS terminals into a workspace that has held
    # one: only small objects are made, and positions are not built until
    # read
    ws, rng = Workspace(), np.random.default_rng(6)
    counts = np.array([BLOCK_TERMINALS])
    sample_gts(one_cell, region, rng, counts, workspace=ws)
    one_array = 8 * BLOCK_TERMINALS
    tracemalloc.start()
    try:
        real = sample_gts(one_cell, region, rng, counts, workspace=ws)
        drawn = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert len(real.positions) == BLOCK_TERMINALS
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn < one_array
    assert read >= 2 * one_array  # the probe sees numpy's arrays
