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
    """Derived geometry of one cell and its place in a larger service area.

    mean_gts_hex / mean_gts_disk are the expected terminal counts K_s and K_s'
    in the hexagonal cell and the full coverage disk; n_cells is the
    (real-valued) number of hexagonal cells tiling the total area.
    """

    circumradius_m: float
    hex_area_m2: float
    disk_area_m2: float
    mean_gts_hex: float
    mean_gts_disk: float
    n_cells: float


def make_layout(params: SystemParams, vars: DeploymentVars,
                total_area_m2: float) -> CellLayout:
    rbar = coverage_radius(vars.altitude_m, vars.half_beamwidth_rad)
    hex_area = 1.5 * SQRT3 * rbar**2
    disk_area = math.pi * rbar**2
    if total_area_m2 < hex_area:
        raise ValueError(
            f"total area {total_area_m2} m^2 is smaller than one cell ({hex_area} m^2)")
    rho = params.density_per_m2
    return CellLayout(
        circumradius_m=rbar,
        hex_area_m2=hex_area,
        disk_area_m2=disk_area,
        mean_gts_hex=rho * hex_area,
        mean_gts_disk=rho * disk_area,
        n_cells=total_area_m2 / hex_area,
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


def disk_contains(xy, radius: float):
    if radius <= 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    xy = np.asarray(xy, dtype=float)
    inside = xy[..., 0]**2 + xy[..., 1]**2 <= radius**2
    return inside if inside.ndim else bool(inside)


@dataclass(frozen=True)
class GtRealization:
    """Terminals of one or more realizations, relative to the cell center.

    The realizations lie back to back: the first counts[0] rows of positions
    belong to realization 0, the next counts[1] to realization 1, and so on.
    """

    positions: np.ndarray  # shape (n, 2), meters
    counts: np.ndarray     # terminals per realization
    r2: np.ndarray         # squared ground distance of each terminal, m^2
    region: str


def _uniform_in_region(rng: np.random.Generator, region: str, rbar: float, count: int):
    """count points uniform in the region, as (x, y, x^2 + y^2) arrays.

    Rejection from the bounding box, which accepts pi/4 of the disk's
    proposals and 3/4 of the hexagon's; a round proposes enough that a
    second one is rare.
    """
    if region == DISK:
        half_height, accept = rbar, math.pi / 4
    else:
        half_height, accept = SQRT3 / 2 * rbar, 0.75
    parts = []
    needed = count
    while needed > 0:
        n_prop = int(needed / accept + 4.0 * math.sqrt(needed)) + 16
        x = rng.uniform(-rbar, rbar, size=n_prop)
        y = rng.uniform(-half_height, half_height, size=n_prop)
        r2 = x * x + y * y
        # disk_contains's and hex_contains's tests; |y| <= half_height holds
        # by the draw
        inside = (r2 <= rbar**2 if region == DISK
                  else SQRT3 * np.abs(x) + np.abs(y) <= SQRT3 * rbar)
        keep = np.flatnonzero(inside)[:needed]
        parts.append((x[keep], y[keep], r2[keep]))
        needed -= len(keep)
    if not parts:
        return np.empty(0), np.empty(0), np.empty(0)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


def sample_gts(layout: CellLayout, region: str, seed, density: float,
               count_model: str = "poisson", realizations: int = 1) -> GtRealization:
    """Sample realizations of terminal positions in a cell.

    Each realization's count is Poisson with mean density*area by default,
    or the rounded mean with count_model="fixed". Positions are i.i.d.
    uniform in the region. seed is anything np.random.default_rng accepts;
    a Generator is drawn from in place. The counts are drawn first, then
    every realization's points in one pass, so the result is deterministic
    for a given seed and realization count.
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
    area = layout.hex_area_m2 if region == HEXAGON else layout.disk_area_m2
    mean = density * area
    if count_model == "poisson":
        counts = rng.poisson(mean, size=realizations)
    else:
        counts = np.full(realizations, int(round(mean)))
    x, y, r2 = _uniform_in_region(rng, region, layout.circumradius_m, int(counts.sum()))
    return GtRealization(positions=np.column_stack([x, y]), counts=counts, r2=r2,
                         region=region)
