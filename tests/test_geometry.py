"""Cell geometry, densities, and terminal sampling."""
import math

import numpy as np
import pytest

from uavcell import (DISK, HEXAGON, DeploymentVars, coverage_radius, hex_contains,
                     make_layout, sample_gts)

SQRT3 = math.sqrt(3.0)
POINT = DeploymentVars.point(100.0, math.pi / 10)


def test_coverage_radius():
    assert coverage_radius(100.0, math.pi / 4) == pytest.approx(100.0, rel=1e-14)
    assert coverage_radius(100.0, math.pi / 10) == pytest.approx(
        32.49196962329063, rel=1e-14)


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
    quarter = DeploymentVars.point(100.0, math.pi / 4)
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


def test_sampling_is_deterministic(params, one_cell):
    a = sample_gts(one_cell, DISK, 42, params.density_per_m2)
    b = sample_gts(one_cell, DISK, 42, params.density_per_m2)
    c = sample_gts(one_cell, DISK, 43, params.density_per_m2)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_samples_stay_in_region(params, one_cell):
    R = one_cell.circumradius_m
    disk = sample_gts(one_cell, DISK, 0, params.density_per_m2)
    assert np.all(np.hypot(*disk.positions.T) <= R * (1 + 1e-12))
    hexa = sample_gts(one_cell, HEXAGON, 0, params.density_per_m2)
    assert hex_contains(hexa.positions, R).all()


def test_fixed_count_model(params, one_cell):
    real = sample_gts(one_cell, HEXAGON, 5, params.density_per_m2,
                      count_model="fixed")
    assert len(real.positions) == round(one_cell.mean_gts_hex)
    with pytest.raises(ValueError):
        sample_gts(one_cell, HEXAGON, 5, params.density_per_m2,
                   count_model="bernoulli")


def test_poisson_counts_have_right_mean(params, one_cell):
    counts = [len(sample_gts(one_cell, DISK, (9, i), params.density_per_m2).positions)
              for i in range(200)]
    mean = np.mean(counts)
    want = one_cell.mean_gts_disk  # 157.08, stderr of the mean about 0.9
    assert abs(mean - want) < 5.0


def test_hexagon_sampling_is_uniform(params, one_cell):
    # split the hexagon along x=0; symmetry puts half the mass on each side
    real = sample_gts(one_cell, HEXAGON, 11, params.density_per_m2,
                      count_model="fixed")
    frac = np.mean(real.positions[:, 0] > 0)
    assert abs(frac - 0.5) < 0.15


def test_bad_region_rejected(params, one_cell):
    with pytest.raises(ValueError):
        sample_gts(one_cell, "square", 0, params.density_per_m2)


@pytest.mark.parametrize("region, mean_r2", [(DISK, 1 / 2), (HEXAGON, 5 / 12)])
@pytest.mark.parametrize("count_model", ["poisson", "fixed"])
def test_batched_sampling(params, one_cell, region, mean_r2, count_model):
    real = sample_gts(one_cell, region, 3, params.density_per_m2,
                      count_model=count_model, realizations=2000)
    assert len(real.counts) == 2000
    assert real.counts.sum() == len(real.positions) == len(real.r2)
    x, y = real.positions.T
    assert np.array_equal(real.r2, x**2 + y**2)
    R = one_cell.circumradius_m
    assert _contains(region, real.positions, R).all()
    # E[r^2] of a uniform point is R^2/2 on the disk and 5R^2/12 on the
    # hexagon, in either half of the realizations: 3 % is at least 6
    # standard errors of a half's 13k to 17k points
    half = len(real.r2) // 2
    for part in (real.r2[:half], real.r2[half:]):
        assert np.mean(part) / R**2 == pytest.approx(mean_r2, rel=0.03)
    again = sample_gts(one_cell, region, 3, params.density_per_m2,
                       count_model=count_model, realizations=2000)
    for name in ("positions", "counts", "r2"):
        assert np.array_equal(getattr(real, name), getattr(again, name))


def test_sampling_draws_from_a_generator_in_place(params, one_cell):
    rng = np.random.default_rng(8)
    first = sample_gts(one_cell, DISK, rng, params.density_per_m2, realizations=4)
    second = sample_gts(one_cell, DISK, rng, params.density_per_m2, realizations=4)
    assert not np.array_equal(first.counts, second.counts)
    with pytest.raises(ValueError):
        sample_gts(one_cell, DISK, rng, params.density_per_m2, realizations=0)


class _StingyGenerator(np.random.Generator):
    """Returns a quarter of the uniform draws asked for, so that rejection
    sampling needs several rounds."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return super().uniform(low, high, size=max(1, size // 4))


@pytest.mark.parametrize("region", [DISK, HEXAGON])
def test_rejection_sampling_tops_up_short_rounds(params, one_cell, region):
    rng = _StingyGenerator(np.random.PCG64(4))
    real = sample_gts(one_cell, region, rng, params.density_per_m2,
                      count_model="fixed", realizations=3)
    mean = one_cell.mean_gts_hex if region == HEXAGON else one_cell.mean_gts_disk
    assert len(real.positions) == len(real.r2) == 3 * round(mean)
    assert np.array_equal(real.r2, real.positions[:, 0]**2 + real.positions[:, 1]**2)
    assert _contains(region, real.positions, one_cell.circumradius_m).all()
