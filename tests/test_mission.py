"""Hexagonal tiling of a service rectangle and the hover-and-fly tour."""
import hashlib
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import tour_reference
from uavcell import (DeploymentVars, assemble_plan, cell_edge_rate_mc,
                     coverage_radius, layout_centers, mission, plan_tour)

SQRT3 = math.sqrt(3.0)


def brute_force_cycle(points):
    """Exact shortest closed tour by permutation search (first point fixed)."""
    n = len(points)
    idx = range(1, n)
    best = math.inf
    for perm in itertools.permutations(idx):
        order = (0,) + perm
        length = sum(
            math.dist(points[order[i]], points[order[(i + 1) % n]])
            for i in range(n))
        best = min(best, length)
    return best


def test_layout_counts_bounded():
    w, h, R = 1000.0, 800.0, 100.0
    centers = layout_centers(w, h, R)
    cell_area = 1.5 * SQRT3 * R**2
    assert len(centers) >= w * h / cell_area  # tiling cannot undershoot
    assert len(centers) <= (w + 4 * R) * (h + 4 * R) / cell_area
    # no covering by equal disks is thinner than the hexagonal one (Kershner 1939)
    for w, h in RECTANGLES:
        assert len(layout_centers(w, h, 10.0)) >= math.ceil(w * h / (1.5 * SQRT3 * 100.0)), (w, h)


@pytest.mark.parametrize("w, h", [(1000.0, 1e-12), (1e-12, 1000.0), (1e-300, 1e-300)])
def test_layout_covers_a_rectangle_thinner_than_the_slack(w, h):
    # sides far below 1e-9 R still overlap the cells around them
    centers = layout_centers(w, h, 100.0)
    d = np.hypot(centers[:, 0] - w / 2, centers[:, 1] - h / 2)
    assert len(centers) >= 1 and d.min() <= 100.0


def test_layout_covers_rectangle():
    w, h, R = 1000.0, 800.0, 100.0
    centers = layout_centers(w, h, R)
    rng = np.random.default_rng(0)
    pts = rng.uniform((0.0, 0.0), (w, h), size=(10000, 2))
    d = np.min(np.hypot(pts[:, None, 0] - centers[None, :, 0],
                        pts[:, None, 1] - centers[None, :, 1]), axis=1)
    assert d.max() <= R * (1 + 1e-9)


def test_layout_minimal_rectangle():
    # a rectangle matching one hexagon's bounding box still straddles the
    # two neighbouring columns, so three cells are needed
    R = 10.0
    centers = layout_centers(2 * R, SQRT3 * R, R)
    assert len(centers) == 3


def test_layout_rejects_empty_rect():
    with pytest.raises(ValueError):
        layout_centers(0.0, 100.0, 10.0)
    with pytest.raises(ValueError):
        layout_centers(100.0, 100.0, -1.0)


@pytest.mark.parametrize("name, args", [
    ("width_m", (math.nan, 100.0, 10.0)),
    ("width_m", (math.inf, 100.0, 10.0)),  # was numpy's "Maximum allowed size exceeded"
    ("height_m", (100.0, math.nan, 10.0)),
    ("height_m", (100.0, math.inf, 10.0)),
    ("circumradius_m", (100.0, 100.0, math.nan)),
    ("circumradius_m", (100.0, 100.0, math.inf)),
])
def test_layout_refuses_a_side_or_radius_that_is_not_finite(name, args):
    # nan sides and radii and an infinite radius used to end in a TypeError
    # from unpacking the None that _column_rows returns
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
        layout_centers(*args)


@pytest.mark.parametrize("args", [
    (1e300, 100.0, 10.0),  # was numpy's "Maximum allowed size exceeded"
    (100.0, 1e300, 10.0),  # was a cast warning, then negative repeats
    (1e18, 100.0, 10.0),  # was a MemoryError, from 6.7e16 columns
    (100.0, 1e18, 10.0),
    # columns that arrays hold, of 1,150 rows each: refused before the arrays
    (15.0 * mission._MAX_LAYOUT_CELLS / 100, 20000.0, 10.0),
    (sys.float_info.max, 100.0, 10.0),
    (100.0, sys.float_info.max, 10.0),
])
def test_layout_refuses_sides_of_more_cells_than_fit_in_memory(args):
    # the counts stay floats until they are checked: no array, no warning
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^width_m and height_m: a .* rectangle needs "
                                                 f"more than {mission._MAX_LAYOUT_CELLS} cells"):
                layout_centers(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("v_max", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("ordered", [True, False])
def test_tour_refuses_a_speed_that_is_not_positive_and_finite(v_max, ordered):
    # v_max = nan used to give a nan flying time
    centers = layout_centers(100.0, 100.0, 10.0)
    with pytest.raises(ValueError, match=f"^v_max must be positive and finite, got {v_max}"):
        plan_tour(centers, (0.0, 0.0), v_max, ordered=ordered)


def test_single_center_tour():
    plan = plan_tour(np.array([[5.0, 5.0]]), (0.0, 0.0), 10.0)
    assert plan.tour_length_m == 0.0
    assert plan.fly_time_s == 0.0
    assert len(plan.centers) == 1


def test_two_center_tour():
    plan = plan_tour(np.array([[0.0, 0.0], [30.0, 40.0]]), (0.0, 0.0), 10.0)
    assert plan.tour_length_m == pytest.approx(100.0, rel=1e-12)  # out and back
    assert plan.fly_time_s == pytest.approx(10.0, rel=1e-12)


def test_tour_visits_every_center_once():
    rng = np.random.default_rng(8)
    centers = rng.uniform(0.0, 500.0, size=(40, 2))
    plan = plan_tour(centers, (0.0, 0.0), 10.0)
    got = sorted(map(tuple, plan.centers))
    want = sorted(map(tuple, centers))
    assert got == want


def test_tour_starts_nearest_depot():
    centers = np.array([[100.0, 100.0], [5.0, 5.0], [200.0, 30.0], [90.0, 180.0]])
    plan = plan_tour(centers, (0.0, 0.0), 10.0)
    assert plan.centers[0].tolist() == [5.0, 5.0]


def test_two_opt_uncrosses():
    # two parallel rows; nearest neighbor zig-zags, the optimal loop does not
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0],
                    [0.0, 1.0], [2.0, 1.0], [4.0, 1.0]])
    plan = plan_tour(pts, (0.0, 0.0), 1.0)
    assert plan.tour_length_m == pytest.approx(10.0, rel=1e-12)


def test_small_tours_near_optimal():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(3, 9))
        pts = rng.uniform(0.0, 1000.0, size=(n, 2))
        plan = plan_tour(pts, (0.0, 0.0), 10.0)
        assert plan.tour_length_m <= 1.05 * brute_force_cycle(pts) + 1e-9


def test_assemble_plan_mc(params):
    vars = DeploymentVars(100.0, math.pi / 4)  # rbar = 100 m cells
    plan = assemble_plan(params, vars, "mc", 1.0e8, 20.0, (1000.0, 800.0))
    hover_each = 1.0e8 / (params.bandwidth_hz * cell_edge_rate_mc(params, vars))
    np.testing.assert_allclose(plan.hover_times_s, hover_each, rtol=1e-12)
    assert plan.completion_time_s == pytest.approx(
        plan.fly_time_s + plan.hover_times_s.sum(), rel=1e-12)
    assert plan.fly_time_s == pytest.approx(plan.tour_length_m / 20.0, rel=1e-12)


def test_assemble_plan_period_modes(params):
    vars = DeploymentVars(100.0, math.pi / 4)
    plan = assemble_plan(params, vars, "mac", 60.0, 20.0, (500.0, 400.0))
    assert set(plan.hover_times_s.tolist()) == {60.0}


def test_hover_dominance_warning(params, capsys):
    vars = DeploymentVars(100.0, math.pi / 4)
    # one second of hover per cell cannot dominate kilometers of flying
    plan = assemble_plan(params, vars, "bc", 1.0, 20.0, (1000.0, 800.0))
    assert plan.hover_dominance < 10.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"hover time only {plan.hover_dominance:.3g}x flying time; the "
                            "hover-dominance assumption (>= 10x) does not hold\n")


def test_single_cell_plan_dominance_is_infinite(params):
    vars = DeploymentVars(500.0, 1.2)  # one giant cell
    plan = assemble_plan(params, vars, "mac", 60.0, 20.0, (100.0, 100.0))
    assert len(plan.centers) == 1
    assert plan.tour_length_m == 0.0
    assert math.isinf(plan.hover_dominance)


@pytest.mark.parametrize("width, cells", [(153100.0, 1533), (153250.0, 1535),
                                          (409425.0, 4096), (409450.0, 4097)])
def test_plan_cap_counts_the_cells_kept(params, width, cells):
    # 100 m cells over a 100 m high rectangle: 1.5 cells per 150 m column,
    # where a lattice around the 153,250 m strip holds 4,100 cells
    vars = DeploymentVars(100.0, math.pi / 4)
    area = (width, 100.0)
    if cells <= mission.MAX_PLAN_CELLS:
        plan = assemble_plan(params, vars, "mac", 60.0, 20.0, area)
        assert len(plan.centers) == cells
    else:
        assert len(layout_centers(*area, coverage_radius(100.0, math.pi / 4))) == cells
        with pytest.raises(mission.PlanTooLarge, match="more than 4096 cells"):
            assemble_plan(params, vars, "mac", 60.0, 20.0, area)


@pytest.mark.parametrize("width, cells", [(18990.0, 4096), (19140.0, 4128)])
def test_plan_cap_counts_the_rows_of_a_tall_rectangle(params, width, cells):
    # 128 columns of about 31 rows of 100 m cells: the bound on the rows that
    # is checked before any array is made refuses no plan of 4,096 cells
    vars = DeploymentVars(100.0, math.pi / 4)
    area = (width, 5400.0)
    if cells <= mission.MAX_PLAN_CELLS:
        plan = assemble_plan(params, vars, "mac", 60.0, 20.0, area)
        assert len(plan.centers) == cells
    else:
        assert len(layout_centers(*area, coverage_radius(100.0, math.pi / 4))) == cells
        with pytest.raises(mission.PlanTooLarge, match="more than 4096 cells"):
            assemble_plan(params, vars, "mac", 60.0, 20.0, area)


@pytest.mark.parametrize("height", [1e15, 1e300, 1.7976931348623157e308])
def test_plan_cap_refuses_a_tall_strip_without_allocating(params, height):
    # two columns of 5.8e12 to 1e306 rows each: the count stays a float, so
    # it neither wraps nor builds the rows
    vars = DeploymentVars(100.0, math.pi / 4)
    tracemalloc.start()
    try:
        with pytest.raises(mission.PlanTooLarge, match="more than 4096 cells"):
            assemble_plan(params, vars, "mac", 60.0, 20.0, (100.0, height))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_assemble_plan_validation(params):
    vars = DeploymentVars(100.0, math.pi / 4)
    with pytest.raises(ValueError):
        assemble_plan(params, vars, "tdma", 60.0, 20.0, (500.0, 400.0))
    with pytest.raises(ValueError):
        assemble_plan(params, vars, "mac", -1.0, 20.0, (500.0, 400.0))


# rectangle sides in circumradii: single columns, thin strips, odd and even
# column counts
SIDES_R = (0.3, 1.0, 1.4, 2.0, 3.7, 6.0, 11.2)


def lattice_plans():
    for w, h in itertools.product(SIDES_R, SIDES_R):
        centers = layout_centers(w * 10.0, h * 10.0, 10.0)
        yield w, h, centers, plan_tour(centers, (0.0, 0.0), 1.0, ordered=True)


def test_rectangle_grid_has_both_column_parities():
    counts = {len(np.unique(centers[:, 0])) for _, _, centers, _ in lattice_plans()}
    assert 1 in counts
    assert any(c % 2 for c in counts if c > 1) and any(c % 2 == 0 for c in counts)


def test_lattice_plan_visits_every_center_once():
    for w, h, centers, plan in lattice_plans():
        got = sorted(map(tuple, plan.centers))
        assert got == sorted(map(tuple, centers)), (w, h)
        assert len(set(got)) == len(got), (w, h)


def test_lattice_plan_starts_nearest_depot():
    for w, h, centers, plan in lattice_plans():
        nearest = centers[np.argmin(np.hypot(*centers.T))]
        assert plan.centers[0].tolist() == nearest.tolist(), (w, h)


def test_lattice_plan_never_longer_than_nearest_neighbor():
    for w, h, centers, plan in lattice_plans():
        unseeded = plan_tour(centers, (0.0, 0.0), 1.0)
        assert plan.tour_length_m <= unseeded.tour_length_m * (1 + 1e-12), (w, h)
        assert plan.tour_length_m >= len(centers) * SQRT3 * 10.0 * (1 - 1e-12) or len(centers) == 1


def test_lattice_plan_reaches_bound():
    # one even and one odd column count
    for w in (1000.0, 1100.0):
        centers = layout_centers(w, 800.0, 100.0)
        plan = plan_tour(centers, (0.0, 0.0), 1.0, ordered=True)
        assert plan.tour_length_m == pytest.approx(len(centers) * SQRT3 * 100.0, rel=1e-12)


def _no_two_opt(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice tours must not call 2-opt")
    monkeypatch.setattr(mission, "_two_opt", refuse)


# 40 x 40 rectangles from 3 m to 600 m a side with R = 10 m, plus SIDES_R
RECTANGLES = (list(itertools.product(np.geomspace(3.0, 600.0, 40), repeat=2))
              + [(w * 10.0, h * 10.0) for w, h in itertools.product(SIDES_R, SIDES_R)])


def reference_layout(w, h, R):
    """layout_centers by brute force: a separating-axis overlap test on every
    cell of a lattice that surrounds the rectangle, in the same order."""
    j = np.arange(-1, math.floor((w + R) / (1.5 * R)) + 2)[:, None]
    k = np.arange(-1, math.floor((h + SQRT3 * R) / (SQRT3 * R)) + 2)[None, :]
    cx = np.broadcast_to(1.5 * R * j, (j.size, k.size)).ravel()
    cy = (SQRT3 * R * k + (j % 2) * (SQRT3 / 2 * R)).ravel()
    keep = True
    for (ax, ay), extent in (((1.0, 0.0), R), ((0.0, 1.0), SQRT3 / 2 * R),
                             ((SQRT3 / 2, 0.5), SQRT3 / 2 * R), ((SQRT3 / 2, -0.5), SQRT3 / 2 * R)):
        corners = (0.0, w * ax, h * ay, w * ax + h * ay)
        keep = keep & (np.minimum(max(corners), cx * ax + cy * ay + extent)
                       - np.maximum(min(corners), cx * ax + cy * ay - extent)
                       > 1e-9 * min(R, w, h))
    ids = np.flatnonzero(keep)
    y_rank = (2 * k + j % 2).ravel()
    column = ids // k.size
    if column[0] == column[-1]:
        order = ids
    elif np.ptp(y_rank[ids]) <= 2:
        order = tour_reference.strip_tour(ids, y_rank[ids], np.column_stack((cx, cy)))
    else:
        columns = np.split(ids, np.flatnonzero(np.diff(column)) + 1)
        order = tour_reference.serpentine([c.tolist() for c in columns], y_rank.tolist())
    return np.column_stack((cx[order], cy[order]))


def _reference_rectangles():
    """(w, h, R): RECTANGLES; sides on exact multiples of half and quarter
    pitches, where cells touch the rectangle with no overlap, and half the
    slack either side of the quarter ones; seeded sides from 1e-2 to 2e2
    radii with R from 1e-3 to 1e3 m."""
    yield from ((w, h, 10.0) for w, h in RECTANGLES)
    for a, b in itertools.product(range(1, 30), repeat=2):
        yield 0.5 * 10.0 * a, SQRT3 / 4 * 10.0 * b, 10.0
        yield 0.75 * 10.0 * a, SQRT3 / 2 * 10.0 * b, 10.0
        # corner ties past the right edge, and each side within half the slack
        w, h = 0.25 * 10.0 * a, SQRT3 / 4 * 10.0 * b
        shift = 0.5e-9 * min(10.0, w, h)
        yield from ((w, h, 10.0), (w - shift, h - shift, 10.0), (w + shift, h + shift, 10.0))
    rng = np.random.default_rng(19)
    for sides, R in zip(10.0 ** rng.uniform(-2.0, math.log10(200.0), (3000, 2)),
                        10.0 ** rng.uniform(-3.0, 3.0, 3000)):
        yield sides[0] * R, sides[1] * R, R


def test_layout_matches_the_separating_axis_reference():
    for w, h, R in _reference_rectangles():
        got, want = layout_centers(w, h, R), reference_layout(w, h, R)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (w, h, R)


def test_lattice_tours_are_exact_by_construction(monkeypatch):
    _no_two_opt(monkeypatch)
    pitch = SQRT3 * 10.0
    kinds = set()
    for w, h in RECTANGLES:
        centers = layout_centers(w, h, 10.0)
        plan = plan_tour(centers, (0.0, 0.0), 1.0, ordered=True)
        n = len(centers)
        columns = len(np.unique(centers[:, 0]))
        levels = len(np.unique(np.round(centers[:, 1] / (pitch / 2))))
        if columns == 1:
            kinds.add("column")
            assert plan.tour_length_m == pytest.approx(2 * (n - 1) * pitch, rel=1e-12), (w, h)
        elif levels >= 4:
            kinds.add(columns % 2)
            steps = np.hypot(*(np.roll(plan.centers, -1, axis=0) - plan.centers).T)
            np.testing.assert_allclose(steps, pitch, rtol=1e-12, err_msg=f"{w} x {h}")
    assert kinds == {"column", 0, 1}


def test_large_lattices_tour_without_two_opt(monkeypatch):
    _no_two_opt(monkeypatch)
    pitch = SQRT3 * 10.0
    strip = layout_centers(29991.0, 3.0, 10.0)  # two y values
    assert (len(strip), len(np.unique(strip[:, 1]))) == (2001, 2)
    plan = plan_tour(strip, (0.0, 0.0), 1.0, ordered=True)
    # out along the 1,001 even columns, x = 0 to 30,000 m, back along the
    # 1,000 odd ones, x = 29,985 to 15 m, and one pitch at each turn
    assert plan.tour_length_m == pytest.approx(30000.0 + 29970.0 + 2 * pitch, rel=1e-12)
    lattice = layout_centers(5100.0, 5100.0, 10.0)
    assert len(lattice) > 100_000
    plan = plan_tour(lattice, (0.0, 0.0), 1.0, ordered=True)
    assert plan.tour_length_m == pytest.approx(len(lattice) * pitch, rel=1e-12)


def test_serpentine_matches_the_list_reference():
    # lattice-like columns of 1 to 6 cells, each starting at a random row, so
    # the odd-count zig-zag meets every combination of its two end swaps
    rng = np.random.default_rng(28)
    swaps = set()
    for _ in range(3000):
        columns = int(rng.integers(2, 10))
        counts = rng.integers(1, 7, columns)
        ends = np.cumsum(counts)
        ids = np.arange(ends[-1])
        j = np.repeat(np.arange(columns), counts)
        k = ids - np.repeat(ends - counts - rng.integers(-3, 4, columns), counts)
        y_rank = 2 * k + j % 2
        want = tour_reference.serpentine([c.tolist() for c in np.split(ids, ends[:-1])],
                                         y_rank.tolist())
        got = mission._serpentine(ids, ends, y_rank)
        assert got.dtype == np.intp and got.tolist() == want, (counts, y_rank)
        if columns % 2:  # is the top, is the bottom of the last two columns in C
            cells, c_first = range(ends[-3], ends[-1]), ends[-2]
            swaps.add((max(cells, key=y_rank.__getitem__) >= c_first,
                       min(cells, key=y_rank.__getitem__) >= c_first))
    assert swaps == {(False, False), (False, True), (True, False), (True, True)}


def test_lattice_plans_hold_bytes_in_proportion_to_their_cells():
    # the order is built in integer index arrays; over Python lists of cell
    # ids these lattices traced 123 (layout) and 80 (tour) bytes per cell.
    # The strip of two rows, one cell per column, traced 145 bytes per cell
    # while every center was stacked and each cut's order was kept.
    for width, height, digest in ((5100.0, 5100.0, "c052ad2165ec3d63"),  # 341 columns
                                  (5110.0, 5100.0, "c51016b6144bc5f2"),  # 342 columns
                                  (1.5e6, 3.0, "da525c6b0c5e6f49")):     # 100,001 columns
        tracemalloc.start()
        try:
            centers = layout_centers(width, height, 10.0)
            layout_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            plan_tour(centers, (0.0, 0.0), 1.0, ordered=True)
            tour_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        n = len(centers)
        assert n > 100_000
        assert layout_peak / n < 100.0, (width, layout_peak / n)
        assert tour_peak / n < 56.0, (width, tour_peak / n)
        # sha256 prefixes of the centers as the stacking strip tour laid them out
        assert hashlib.sha256(centers.tobytes()).hexdigest()[:16] == digest, width


def test_assemble_plan_uses_lattice_tour(params):
    vars = DeploymentVars(100.0, math.pi / 4)  # rbar = 100 m cells
    plan = assemble_plan(params, vars, "mc", 1.0e8, 20.0, (1000.0, 800.0))
    assert plan.tour_length_m == pytest.approx(len(plan.centers) * SQRT3 * 100.0, rel=1e-12)
