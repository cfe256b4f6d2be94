"""Cell geometry: coverage radius, hexagon/disk cells, and terminal sampling.

The covered ground region at altitude H with half-beamwidth theta is a disk
of radius rbar = H*tan(theta). For tessellation the serviced cell is the
regular hexagon inscribed in that disk, with one vertex on the positive
x axis relative to the cell center.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DeploymentVars, SystemParams

SQRT3 = math.sqrt(3.0)

HEXAGON = "hexagon"
DISK = "disk"
REGIONS = (HEXAGON, DISK)


def coverage_radius(altitude_m: float, half_beamwidth_rad: float) -> float:
    """Radius rbar = H*tan(theta) of the ground disk seen by the main lobe."""
    if altitude_m <= 0.0:
        raise ValueError(f"altitude must be > 0, got {altitude_m}")
    if not 0.0 < half_beamwidth_rad < math.pi / 2:
        raise ValueError(f"half-beamwidth must lie in (0, pi/2), got {half_beamwidth_rad}")
    return altitude_m * math.tan(half_beamwidth_rad)


@dataclass(frozen=True)
class CellLayout:
    """Derived geometry of one cell: its radius, areas and mean terminal counts.

    mean_gts_hex / mean_gts_disk are the expected terminal counts K_s and K_s'
    in the hexagonal cell and the full coverage disk.
    """

    circumradius_m: float
    hex_area_m2: float
    disk_area_m2: float
    mean_gts_hex: float
    mean_gts_disk: float


def make_layout(params: SystemParams, vars: DeploymentVars) -> CellLayout:
    rbar = coverage_radius(vars.altitude_m, vars.half_beamwidth_rad)
    # rbar * rbar, not rbar**2: a huge cell gets an infinite area, which
    # the Monte Carlo budget refuses, where ** raises OverflowError
    rbar2 = rbar * rbar
    hex_area = 1.5 * SQRT3 * rbar2
    disk_area = math.pi * rbar2
    rho = params.density_per_m2
    return CellLayout(
        circumradius_m=rbar,
        hex_area_m2=hex_area,
        disk_area_m2=disk_area,
        mean_gts_hex=rho * hex_area,
        mean_gts_disk=rho * disk_area,
    )


def hex_contains(xy, circumradius: float):
    """True for points inside the regular hexagon (vertex on +x axis), boundary inclusive."""
    if circumradius <= 0.0:
        raise ValueError(f"circumradius must be > 0, got {circumradius}")
    xy = np.asarray(xy, dtype=float)
    x = np.abs(xy[..., 0])
    y = np.abs(xy[..., 1])
    inside = (y <= SQRT3 / 2 * circumradius) & (SQRT3 * x + y <= SQRT3 * circumradius)
    return inside if inside.ndim else bool(inside)


@dataclass(frozen=True)
class GtRealization:
    """Terminals of one or more realizations, relative to the cell center.

    The realizations lie back to back: the first counts[0] rows of positions
    belong to realization 0, the next counts[1] to realization 1, and so on.
    Drawn into a Workspace, positions and r2 are views of its arrays, valid
    until the next draw into it.
    """

    positions: np.ndarray  # shape (n, 2), meters
    counts: np.ndarray     # terminals per realization
    r2: np.ndarray         # squared ground distance of each terminal, m^2


class Workspace:
    """Named scratch arrays, each grown past the largest size asked for and
    then reused, so that drawing block after block allocates nothing.

    An array grows with 1/8 headroom: Poisson block totals creep up by a
    few per cent, and growing each time to the exact size left freed
    chunks in the heap that raised the benchmark's peak RSS by 0.1 to 0.2
    MB.
    """

    def __init__(self):
        self._arrays = {}

    def array(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """The first size elements of the array called name."""
        buf = self._arrays.get(name)
        if buf is None or len(buf) < size:
            buf = self._arrays[name] = np.empty(size + size // 8, dtype)
        return buf[:size]


def _uniform(rng: np.random.Generator, out: np.ndarray, low: float, high: float):
    """rng.uniform(low, high, size=len(out)), bit for bit, drawn into out."""
    rng.random(out=out)
    out *= high - low
    out += low
    return out


def _uniform_in_region(rng: np.random.Generator, region: str, rbar: float, count: int,
                       ws: Workspace):
    """count points uniform in the region, as an (x, y) pair of rows and
    x^2 + y^2.

    Rejection from the bounding box, which accepts pi/4 of the disk's
    proposals and 3/4 of the hexagon's; a round proposes enough that a
    second one is rare.
    """
    # the disk's test on x^2 + y^2, hex_contains's on sqrt(3)|x| + |y|;
    # |y| <= half_height holds by the draw
    if region == DISK:
        half_height, accept, limit = rbar, math.pi / 4, rbar**2
    else:
        half_height, accept, limit = SQRT3 / 2 * rbar, 0.75, SQRT3 * rbar
    xy = ws.array("xy", 2 * count).reshape(2, count)
    filled = 0
    while filled < count:
        needed = count - filled
        n_prop = int(needed / accept + 4.0 * math.sqrt(needed)) + 16
        x = _uniform(rng, ws.array("x", n_prop), -rbar, rbar)
        y = _uniform(rng, ws.array("y", n_prop), -half_height, half_height)
        a, b = ws.array("a", n_prop), ws.array("b", n_prop)
        if region == DISK:
            np.multiply(x, x, out=a)
            np.multiply(y, y, out=b)
        else:
            np.abs(x, out=a)
            a *= SQRT3
            np.abs(y, out=b)
        a += b
        inside = np.less_equal(a, limit, out=ws.array("inside", n_prop, bool))
        keep = np.flatnonzero(inside)[:needed]
        for row, drawn in zip(xy, (x, y)):
            np.take(drawn, keep, out=row[filled:filled + len(keep)], mode="clip")
        filled += len(keep)
    r2 = np.multiply(xy[0], xy[0], out=ws.array("r2", count))
    r2 += np.multiply(xy[1], xy[1], out=ws.array("b", count))
    return xy, r2


def draw_counts(rng: np.random.Generator, mean: float, count_model: str,
                realizations: int) -> np.ndarray:
    """Terminals per realization: Poisson with the given mean, or the
    rounded mean with count_model="fixed"."""
    if count_model == "poisson":
        return rng.poisson(mean, size=realizations)
    return np.full(realizations, int(round(mean)))


def sample_gts(layout: CellLayout, region: str, seed, density: float,
               count_model: str = "poisson", realizations: int = 1, *,
               counts=None, workspace: Workspace | None = None) -> GtRealization:
    """Sample realizations of terminal positions in a cell.

    Each realization's count is Poisson with mean density*area by default,
    or the rounded mean with count_model="fixed"; with counts given, no
    count is drawn. Positions are i.i.d. uniform in the region. seed is
    anything np.random.default_rng accepts; a Generator is drawn from in
    place. The counts are drawn first, then every realization's points in
    one pass, so the result is deterministic for a given seed and
    realization count. The points are drawn into workspace, or into fresh
    arrays without one.
    """
    if region not in REGIONS:
        raise ValueError(f"region must be one of {REGIONS}, got {region!r}")
    if count_model not in ("poisson", "fixed"):
        raise ValueError(f"count_model must be 'poisson' or 'fixed', got {count_model!r}")
    if density <= 0.0:
        raise ValueError(f"density must be > 0, got {density}")
    if realizations < 1:
        raise ValueError(f"need at least 1 realization, got {realizations}")
    rng = np.random.default_rng(seed)
    if counts is None:
        area = layout.hex_area_m2 if region == HEXAGON else layout.disk_area_m2
        counts = draw_counts(rng, density * area, count_model, realizations)
    xy, r2 = _uniform_in_region(rng, region, layout.circumradius_m, int(counts.sum()),
                                workspace or Workspace())
    return GtRealization(positions=xy.T, counts=counts, r2=r2)
