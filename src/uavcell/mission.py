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
two-chain tour for a strip of at most three y values. plan_tour keeps
nearest neighbor plus 2-opt for arbitrary point sets.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SQRT3, coverage_radius
from .params import DeploymentVars, SystemParams
from .rates import MC, MODES, cell_edge_rate_mc

log = logging.getLogger(__name__)

HOVER_DOMINANCE_MIN = 10.0

# assemble_plan refuses a larger candidate lattice: a box whose optimum shrinks
# cells to a few meters (bc flies low and narrow) is a wrong box, not a mission
MAX_PLAN_CELLS = 4096

# hexagon orientation: one vertex on the +x axis (matches geometry.hex_contains).
# Cell pitch: columns every 1.5*R in x, rows every sqrt(3)*R in y, odd columns
# shifted half a row. Projection half-extents of the hexagon on the separating
# axes (1,0), (0,1), (sqrt3/2, 1/2), (sqrt3/2, -1/2):
_AXES = ((1.0, 0.0), (0.0, 1.0),
         (SQRT3 / 2, 0.5), (SQRT3 / 2, -0.5))
_HEX_EXTENT_FACTORS = (1.0, SQRT3 / 2, SQRT3 / 2, SQRT3 / 2)


class PlanTooLarge(ValueError):
    """The rectangle's candidate lattice holds more than MAX_PLAN_CELLS cells."""


@dataclass(frozen=True)
class MissionPlan:
    """A visiting order over cell centers plus the hover/fly time budget."""

    centers: np.ndarray  # shape (n, 2), visit order
    tour_length_m: float
    hover_times_s: np.ndarray = field(repr=False)
    fly_time_s: float
    completion_time_s: float
    hover_dominance: float


def _hex_overlaps_rect(cx, cy, circumradius: float, width: float, height: float):
    """Positive-area overlap between the hexagons at (cx, cy) and
    [0, width] x [0, height], by separating-axis projections. cx and cy are
    arrays (broadcast together); the result is a boolean array. The slack
    scales with the shortest length, so a thin rectangle still overlaps."""
    eps = 1e-9 * min(circumradius, width, height)
    overlaps = True
    for (ax, ay), factor in zip(_AXES, _HEX_EXTENT_FACTORS):
        center_proj = cx * ax + cy * ay
        extent = factor * circumradius
        corner_projs = (0.0, width * ax, height * ay, width * ax + height * ay)
        lo = min(corner_projs)
        hi = max(corner_projs)
        overlaps = overlaps & (np.minimum(hi, center_proj + extent)
                               - np.maximum(lo, center_proj - extent) > eps)
    return overlaps


def _serpentine(columns: list, y_rank: list) -> list:
    """Closed visiting order over two or more lattice columns, left to right,
    each column a list of cell ids bottom to top. Every step is one pitch.

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
    if len(columns) % 2:
        *columns, b, c = columns
        down = sorted(b + c, key=y_rank.__getitem__, reverse=True)
        in_c = set(c)
        if down[0] in in_c:
            down[:2] = down[1::-1]
        if down[-1] in in_c:
            down[-2:] = down[:-3:-1]
        columns.append(down[::-1])
    first, *middle, last = columns
    order = list(first)
    for index, column in enumerate(middle):
        order += column[:0:-1] if index % 2 == 0 else column[1:]
    order += last[::-1]
    order += [column[0] for column in reversed(middle)]
    return order


def _strip_tour(ids: np.ndarray, y_rank: np.ndarray, points: np.ndarray) -> list:
    """Closed tour over a strip of at most three y values, ids in lattice
    (x, then y) order. Two chains split the y values at a cut: out through
    the lower values in x order, back through the rest in reverse. The
    shortest over the cuts is kept."""
    tours = []
    for cut in range(y_rank.min() + 1, y_rank.max() + 1):
        low = y_rank < cut
        order = np.concatenate((ids[low], ids[~low][::-1])).tolist()
        tours.append((_cycle_length(points, order), order))
    return min(tours, key=lambda tour: tour[0])[1]


def _lattice_spans(width_m: float, height_m: float, rbar: float) -> tuple:
    """Float spans of the candidate lattice: its columns j run from -1 to
    floor(j_span) + 1, its rows k from -1 to floor(k_span) + 1."""
    return (width_m + rbar) / (1.5 * rbar), (height_m + SQRT3 * rbar) / (SQRT3 * rbar)


def layout_centers(width_m: float, height_m: float, circumradius_m: float) -> np.ndarray:
    """Cell centers of the hexagonal tessellation serving the rectangle, in
    closed-tour order.

    Keeps every lattice cell whose hexagon overlaps the rectangle, so each
    area point lies in some kept cell and therefore within circumradius of
    its center. Edge cells overhang the boundary; that is intended. The
    order comes from the lattice indices: a single column bottom to top,
    _strip_tour for at most three y values, _serpentine otherwise.
    """
    if width_m <= 0.0 or height_m <= 0.0:
        raise ValueError(f"rectangle dims must be > 0, got {width_m} x {height_m}")
    rbar = circumradius_m
    if rbar <= 0.0:
        raise ValueError(f"circumradius must be > 0, got {rbar}")
    j_span, k_span = _lattice_spans(width_m, height_m, rbar)
    j_hi = math.floor(j_span) + 1
    k_hi = math.floor(k_span) + 1
    j = np.arange(-1, j_hi + 1)[:, None]
    k = np.arange(-1, k_hi + 1)[None, :]
    cx = np.broadcast_to(1.5 * rbar * j, (j.size, k.size)).ravel()
    cy = (SQRT3 * rbar * k + (j % 2) * (SQRT3 / 2 * rbar)).ravel()  # odd columns half a row up
    keep = _hex_overlaps_rect(cx, cy, rbar, width_m, height_m)
    y_rank = (2 * k + j % 2).ravel()  # y in half rows
    ids = np.flatnonzero(keep)
    column = ids // k.size
    if column[0] == column[-1]:
        order = ids
    elif np.ptp(y_rank[ids]) <= 2:  # the y values of two or more columns are contiguous
        order = _strip_tour(ids, y_rank[ids], np.column_stack((cx, cy)))
    else:
        columns = np.split(ids, np.flatnonzero(np.diff(column)) + 1)
        order = _serpentine([c.tolist() for c in columns], y_rank.tolist())
    return np.column_stack((cx[order], cy[order]))


def _cycle_length(points: np.ndarray, order: list) -> float:
    pts = points[order]
    return float(np.hypot(*(np.roll(pts, -1, axis=0) - pts).T).sum())


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
    if v_max <= 0.0:
        raise ValueError(f"v_max must be > 0, got {v_max}")
    start = np.asarray(start, dtype=float)
    n = len(centers)
    cur = int(np.argmin(np.hypot(*(centers - start).T)))
    if ordered:
        order = list(range(cur, n)) + list(range(cur))
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
    length = _cycle_length(centers, order)
    fly = length / v_max
    return MissionPlan(centers=centers[order], tour_length_m=length,
                       hover_times_s=np.zeros(n), fly_time_s=fly,
                       completion_time_s=fly, hover_dominance=0.0)


def assemble_plan(params: SystemParams, vars: DeploymentVars, mode: str,
                  per_cell_payload: float, v_max: float, area) -> MissionPlan:
    """Full mission plan over a (width_m, height_m) service rectangle.

    per_cell_payload is the multicast file size in bits for mc, or the
    per-cell service period in seconds for bc/mac. Raises PlanTooLarge
    before allocating a candidate lattice of more than MAX_PLAN_CELLS cells.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if per_cell_payload <= 0.0:
        raise ValueError(f"per-cell payload must be > 0, got {per_cell_payload}")
    width_m, height_m = area
    rbar = coverage_radius(vars.altitude_m, vars.half_beamwidth_rad)
    j_span, k_span = _lattice_spans(width_m, height_m, rbar)
    # columns times rows, in floats: an infinite or nan span fails the test too
    if not (np.floor(j_span) + 3) * (np.floor(k_span) + 3) <= MAX_PLAN_CELLS:
        raise PlanTooLarge(f"a {width_m} m x {height_m} m area needs a lattice of more "
                           f"than {MAX_PLAN_CELLS} cells of radius {rbar:.3g} m")
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
    if dominance < HOVER_DOMINANCE_MIN:
        log.warning("hover time only %.3gx flying time; the hover-dominance "
                    "assumption (>= %.0fx) does not hold", dominance, HOVER_DOMINANCE_MIN)
    return MissionPlan(centers=base.centers, tour_length_m=base.tour_length_m,
                       hover_times_s=hover, fly_time_s=fly,
                       completion_time_s=hover_total + fly,
                       hover_dominance=dominance)
