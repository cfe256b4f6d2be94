"""Fly-hover-and-communicate planning.

The service area (an axis-aligned rectangle with one corner at the origin)
is tiled by hexagonal cells of circumradius rbar; the UAV visits the cell
centers along a short closed tour, hovering over each center long enough to
serve the cell, then flying to the next. The model assumes hovering time
dominates flying time; the planner reports the actual ratio and warns when
it drops below 10.

The tour is built from the lattice, with no search. Centers are at least
one pitch, sqrt(3)*rbar, apart, so no closed tour over n of them is shorter
than n pitches. layout_centers returns the centers in tour order: a cycle
of pitch steps only for every layout of two or more columns and four or
more distinct y values, the column itself for a single column, and a
two-chain tour for a strip of at most three y values. The order is one
integer index array over the cells, computed from the ends of the column
intervals, with no Python object per cell. plan_tour keeps nearest neighbor
plus 2-opt for arbitrary point sets. _column_rows decides the kept cells,
one interval of rows per column, for the layout and the cap.
"""
from __future__ import annotations

import math
import os
import sys
from collections import namedtuple

import numpy as np

from .geometry import coverage_radius
from .params import SQRT3, DeploymentVars, SystemParams
from .rates import MC, MODES, cell_edge_rate_mc

HOVER_DOMINANCE_MIN = 10.0

# assemble_plan refuses a plan of more cells: a box whose optimum shrinks cells
# to a few meters (bc flies low and narrow) is a wrong box, not a mission
MAX_PLAN_CELLS = 4096

# cells whose layout, about 81 B each at its peak, fits in physical memory;
# layout_centers refuses more
_MAX_LAYOUT_CELLS = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 81


class PlanTooLarge(ValueError):
    """The rectangle needs more than MAX_PLAN_CELLS cells."""


class MissionPlan(namedtuple("MissionPlan", "centers tour_length_m hover_times_s fly_time_s "
                             "completion_time_s hover_dominance")):
    """A visiting order over cell centers, shape (n, 2), plus the hover/fly
    time budget."""

    __slots__ = ()


def _serpentine(ids: np.ndarray, ends: np.ndarray, y_rank: np.ndarray) -> np.ndarray:
    """Closed visiting order over two or more lattice columns, left to right:
    ids are 0..n-1, the cells column after column, each bottom to top, and
    column c ends before id ends[c]. Every step is one pitch.

    Column 0 goes up, the middle columns alternate down and up without their
    bottom cells, the last column goes down, and the tour returns along the
    skipped bottom cells. Neighbouring columns are offset half a row, and
    their top and bottom cells differ by half a row, so each step between
    columns is one pitch. That needs an even column count.

    With an odd count, the last two columns B and C are walked down as one
    column, a zig-zag over their cells in y_rank order. It has to start at
    B's top, which neighbours the column before, and end at B's bottom,
    which neighbours the return corridor. Where C's top cell is the highest
    of the two columns, the zig-zag takes B's top first, then C's top, then
    steps one pitch down C. Where C's bottom cell is the lowest, it steps
    one pitch down C to that cell and then goes to B's bottom.
    """
    starts = np.concatenate(([0], ends[:-1]))
    if len(ends) % 2:
        b, c = ids[starts[-2]:ends[-2]], ids[ends[-2]:]
        # B and C hold different y_rank parities, so no two cells tie
        up = np.empty(len(b) + len(c), dtype=ids.dtype)
        up[np.arange(len(b)) + np.searchsorted(y_rank[c], y_rank[b])] = b
        up[np.arange(len(c)) + np.searchsorted(y_rank[b], y_rank[c])] = c
        last = up[::-1]
        if last[0] >= ends[-2]:  # a cell of C
            last[:2] = last[1::-1]
        if last[-1] >= ends[-2]:
            last[-2:] = last[:-3:-1]
        starts, ends = starts[:-1], ends[:-1]
    else:
        last = ids[starts[-1]:][::-1]
    # middle column c without its bottom cell: down from its top when c is
    # odd, up from its second cell when c is even
    kept = ends[1:-1] - starts[1:-1] - 1
    odd = np.arange(1, len(ends) - 1) % 2
    middle = np.arange(kept.sum())
    middle -= np.repeat(np.cumsum(kept) - kept, kept)  # the position in the column
    middle *= np.repeat(1 - 2 * odd, kept)
    middle += np.repeat(starts[1:-1] + 1 + odd * (kept - 1), kept)
    return np.concatenate((ids[:ends[0]], middle, last, starts[-2:0:-1]))


def _strip_tour(y_rank: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Closed tour over a strip of at most three y values, cells in lattice
    (x, then y) order. Two chains split the y values at a cut: out through
    the lower values in x order, back through the rest in reverse. The
    shortest over the cuts is kept; only the winner's order outlives its
    length."""
    def order(cut):
        low = y_rank < cut
        return np.concatenate((np.flatnonzero(low), np.flatnonzero(~low)[::-1]))

    def length(cut):
        tour = order(cut)
        return _cycle_length(cx[tour], cy[tour])

    return order(min(range(y_rank.min() + 1, y_rank.max() + 1), key=length))


def _column_rows(width_m: float, height_m: float, rbar: float, max_cells: float = math.inf):
    """Kept lattice columns j and each one's first and last row k, as floats,
    or None when they hold more than max_cells cells.

    Column j sits at x = 1.5*rbar*j, its rows every sqrt(3)*rbar in y, odd
    columns half a row up; a hexagon has one vertex on the +x axis (as in
    geometry.hex_contains). A cell is kept when its hexagon overlaps the
    rectangle: its center lies in the rectangle grown by the hexagon, on a
    column's line the interval (-sqrt(3)/2*rbar, height + sqrt(3)/2*rbar) of
    y, narrowed past the right edge by the hexagon's corner, sqrt(3)*(x - width).
    Columns are tried from j = 0 while x - rbar < width; only the last can
    hold no row, and is then dropped. The slack scales with the shortest
    length, so a thin rectangle still overlaps.

    The cells are counted in floats, so that a huge or nan side makes no
    large array and cannot wrap: first the columns and a lower bound on
    their rows, then the kept rows exactly.
    """
    eps = 1e-9 * min(rbar, width_m, height_m)
    columns = np.ceil((width_m - eps + rbar) / (1.5 * rbar))
    # every column but the last lies over the rectangle, whose height it
    # spans with at least height / (sqrt(3)*rbar) - 1 rows
    if not (columns <= max_cells + 1  # the last may be empty; nan fails too
            and (columns - 1.0) * (height_m / (SQRT3 * rbar) - 1.0) <= max_cells):
        return None
    j = np.arange(columns)
    half = SQRT3 / 2 * rbar
    cut = np.maximum(SQRT3 * (1.5 * rbar * j - width_m) - half + eps, 0.0)
    offset = (j % 2) * half
    first = np.floor((eps - half + cut - offset) / (SQRT3 * rbar)) + 1.0
    last = np.ceil((height_m + half - eps - cut - offset) / (SQRT3 * rbar)) - 1.0
    kept = first <= last
    j, first, last = j[kept], first[kept], last[kept]
    if not np.sum(last - first + 1.0) <= max_cells:
        return None
    return j, first, last


def _lattice(width_m: float, height_m: float, rbar: float):
    """(cx, cy, y_rank, ends) of the kept cells, ids 0..n-1 column-major:
    bottom to top, column after column. y_rank is y in half rows, and column
    c ends before id ends[c]. The per-cell rows and columns die here. Sides
    of more cells than fit in memory raise ValueError naming them."""
    rows = _column_rows(width_m, height_m, rbar, _MAX_LAYOUT_CELLS)
    if rows is None:
        raise ValueError(f"width_m and height_m: a {width_m} m x {height_m} m rectangle needs "
                         f"more than {_MAX_LAYOUT_CELLS} cells of radius {rbar} m")
    j, first, last = rows
    del rows  # each per-column array dies when it is last used
    counts = (last - first + 1.0).astype(int)
    ends = np.cumsum(counts)
    j = np.repeat(j.astype(int), counts)
    k = np.arange(ends[-1]) + np.repeat(first.astype(int) - (ends - counts), counts)
    cx = 1.5 * rbar * j
    cy = SQRT3 * rbar * k + (j % 2) * (SQRT3 / 2 * rbar)  # odd columns half a row up
    return cx, cy, 2 * k + j % 2, ends


def layout_centers(width_m: float, height_m: float, circumradius_m: float) -> np.ndarray:
    """Cell centers of the hexagonal tessellation serving the rectangle, in
    closed-tour order.

    Keeps every lattice cell whose hexagon overlaps the rectangle
    (_column_rows), so each area point lies in some kept cell and therefore
    within circumradius of its center. Edge cells overhang the boundary;
    that is intended. The order is an index array built from the column
    interval ends: a single column bottom to top, _strip_tour for at most
    three y values, _serpentine otherwise. A side or radius that is not
    positive and finite raises ValueError naming it, and so do sides of
    more cells than fit in memory.
    """
    for name, value in (("width_m", width_m), ("height_m", height_m),
                        ("circumradius_m", circumradius_m)):
        if not 0.0 < value < math.inf:  # nan fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    cx, cy, y_rank, ends = _lattice(width_m, height_m, circumradius_m)
    if len(ends) == 1:
        order = slice(None)
    elif np.ptp(y_rank) <= 2:  # the y values of two or more columns are contiguous
        order = _strip_tour(y_rank, cx, cy)
    else:
        order = _serpentine(np.arange(ends[-1]), ends, y_rank)
    return np.column_stack((cx[order], cy[order]))


def _cycle_length(x: np.ndarray, y: np.ndarray) -> float:
    """Length of the closed tour visiting the points (x, y) in order."""
    return float(np.hypot(np.concatenate((x[1:], x[:1])) - x,
                          np.concatenate((y[1:], y[:1])) - y).sum())


_GAIN_TOL = 1e-9  # a 2-opt move must shorten the cycle by more than this


def _two_opt(points: np.ndarray, order: list) -> list:
    """Reverse tour segments while any swap shortens the cycle.

    For each cut position i the deltas of all candidate second cuts j are
    evaluated in one vectorized pass; the best one is applied if it helps.
    Segment lengths are cached and patched after each reversal (interior
    segments keep their lengths in reverse order, only the two cut edges
    change).
    """
    order = np.asarray(order, dtype=int)
    pts = points[order]
    n = len(pts)
    seg = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)  # seg[i] = |p_i p_{i+1}|
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            j_hi = n - 1 if i > 0 else n - 2  # whole-cycle reversal changes nothing
            if j_hi < i + 1:
                continue
            js = np.arange(i + 1, j_hi + 1)
            a = pts[i - 1]  # wraps to pts[n-1] when i == 0
            b = pts[i]
            c = pts[js]
            d = pts[(js + 1) % n]
            delta = (np.hypot(c[:, 0] - a[0], c[:, 1] - a[1])
                     + np.hypot(d[:, 0] - b[0], d[:, 1] - b[1])
                     - seg[i - 1] - seg[js])
            k = int(np.argmin(delta))
            if delta[k] < -_GAIN_TOL:
                j = int(js[k])
                pts[i:j + 1] = pts[i:j + 1][::-1]
                order[i:j + 1] = order[i:j + 1][::-1]
                seg[i:j] = seg[i:j][::-1]
                seg[i - 1] = math.hypot(pts[i, 0] - a[0], pts[i, 1] - a[1])
                jn = (j + 1) % n
                seg[j] = math.hypot(pts[jn, 0] - pts[j, 0], pts[jn, 1] - pts[j, 1])
                improved = True
    return [int(v) for v in order]


def plan_tour(centers: np.ndarray, start, v_max: float, *, ordered: bool = False) -> MissionPlan:
    """Geometry part of the plan: visit order and flying time, no hover yet.

    ordered=True says the centers are already in tour order (a lattice
    layout from layout_centers): that cycle is the tour, restarted at the
    center nearest `start`. Otherwise the tour is a nearest-neighbor
    construction from the center nearest `start`, improved by 2-opt until
    no move helps. tour_length_m is the closed cycle over the centers; the
    depot leg is excluded (a single center gives length 0).
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != 2 or len(centers) == 0:
        raise ValueError("centers must be a non-empty (n, 2) array")
    if not 0.0 < v_max < math.inf:  # nan fails too
        raise ValueError(f"v_max must be positive and finite, got {v_max}")
    start = np.asarray(start, dtype=float)
    n = len(centers)
    cur = int(np.argmin(np.hypot(*(centers - start).T)))
    if ordered:
        tour = np.concatenate((centers[cur:], centers[:cur]))  # the cycle, restarted at cur
    else:
        first = cur
        order = [cur]
        remaining = np.ones(n, dtype=bool)
        remaining[cur] = False
        for _ in range(n - 1):
            dists = np.hypot(*(centers - centers[cur]).T)
            dists[~remaining] = np.inf
            cur = int(np.argmin(dists))
            order.append(cur)
            remaining[cur] = False
        if n > 2:
            order = _two_opt(centers, order)
            pos = order.index(first)  # 2-opt may rotate; restart the cycle at the
            order = order[pos:] + order[:pos]  # center nearest `start`
        tour = centers[order]
    length = _cycle_length(*tour.T)
    fly = length / v_max
    return MissionPlan(centers=tour, tour_length_m=length,
                       hover_times_s=np.zeros(n), fly_time_s=fly,
                       completion_time_s=fly, hover_dominance=0.0)


def assemble_plan(params: SystemParams, vars: DeploymentVars, mode: str,
                  per_cell_payload: float, v_max: float, area) -> MissionPlan:
    """Full mission plan over a (width_m, height_m) service rectangle.

    per_cell_payload is the multicast file size in bits for mc, or the
    per-cell service period in seconds for bc/mac. Raises PlanTooLarge
    before laying out more than MAX_PLAN_CELLS cells.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if per_cell_payload <= 0.0:
        raise ValueError(f"per-cell payload must be > 0, got {per_cell_payload}")
    width_m, height_m = area
    rbar = coverage_radius(vars.altitude_m, vars.half_beamwidth_rad)
    if _column_rows(width_m, height_m, rbar, MAX_PLAN_CELLS) is None:
        raise PlanTooLarge(f"a {width_m} m x {height_m} m area needs more than "
                           f"{MAX_PLAN_CELLS} cells of radius {rbar:.3g} m")
    centers = layout_centers(width_m, height_m, rbar)
    depot = (0.0, 0.0)  # rectangle corner nearest the origin
    base = plan_tour(centers, depot, v_max, ordered=True)
    if mode == MC:
        hover_each = per_cell_payload / (params.bandwidth_hz * cell_edge_rate_mc(params, vars))
    else:  # bc/mac serve each cell for the configured period
        hover_each = per_cell_payload
    hover = np.full(len(base.centers), hover_each)
    hover_total = float(np.sum(hover))
    fly = base.fly_time_s
    dominance = (math.inf if base.tour_length_m == 0.0
                 else hover_total * v_max / base.tour_length_m)
    if dominance < HOVER_DOMINANCE_MIN and math.isfinite(fly):  # not for a plan that never ends
        print("hover time only %.3gx flying time; the hover-dominance assumption (>= %.0fx) "
              "does not hold" % (dominance, HOVER_DOMINANCE_MIN), file=sys.stderr)
    return MissionPlan(centers=base.centers, tour_length_m=base.tour_length_m,
                       hover_times_s=hover, fly_time_s=fly,
                       completion_time_s=hover_total + fly,
                       hover_dominance=dominance)
