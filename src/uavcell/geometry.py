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


# unit edge vectors of the hexagon's three rhombi, 120 degrees apart and
# the first on the +x vertex; rhombus k is spanned by rows k and k + 1
_RHOMBUS_EDGES = np.array([[1.0, 0.0], [-0.5, SQRT3 / 2], [-0.5, -SQRT3 / 2], [1.0, 0.0]])


@dataclass(frozen=True)
class GtRealization:
    """Terminals of one or more realizations, relative to the cell center.

    The realizations lie back to back: the first counts[0] terminals belong
    to realization 0, the next counts[1] to realization 1, and so on. Each
    terminal is stored as its squared ground distance r2 and the uniforms
    it was drawn from, one row per variable (see _uniform_in_region).
    Drawn into a Workspace, r2 and uniforms are views of its arrays, valid
    until the next draw into it.
    """

    counts: np.ndarray    # terminals per realization
    r2: np.ndarray        # squared ground distance of each terminal, m^2
    region: str
    circumradius_m: float
    uniforms: np.ndarray  # shape (2, n) for the disk, (3, n) for the hexagon

    @property
    def positions(self) -> np.ndarray:
        """Terminal positions, shape (n, 2) in meters, built from the
        uniforms in fresh arrays on every read."""
        rbar = self.circumradius_m
        if self.region == DISK:
            u, w = self.uniforms
            rho = rbar * np.sqrt(u)
            angle = 2.0 * math.pi * w
            return np.column_stack([rho * np.cos(angle), rho * np.sin(angle)])
        u, v, w = self.uniforms
        edges = rbar * _RHOMBUS_EDGES
        k = (3.0 * w).astype(np.intp)  # floor: 0 <= 3w < 3
        return u[:, None] * edges[k] + v[:, None] * edges[k + 1]


class Workspace:
    """Named scratch arrays, each grown to the largest size asked for and
    then reused, so that drawing chunk after chunk allocates nothing. A
    simulation's first chunk is its largest, so its arrays never regrow."""

    def __init__(self):
        self._arrays = {}

    def array(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """The first size elements of the array called name."""
        buf = self._arrays.get(name)
        if buf is None or len(buf) < size:
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size]


def _uniform_in_region(rng: np.random.Generator, region: str, rbar: float, count: int,
                       ws: Workspace):
    """count points uniform in the region, as the uniforms they are drawn
    from (one row per variable) and their squared distance r^2 from the
    center, by inversion with no rejection.

    The disk draws (U, W): r^2 = rbar^2*U inverts the distribution of the
    squared distance, and W is the angle as a fraction of a turn. The
    hexagon is three rhombi spanned by unit vectors 120 degrees apart; it
    draws (U, V, W), puts the point U*a + V*b in rhombus floor(3W), and
    has r^2 = rbar^2*(U^2 - U*V + V^2) in every rhombus, so W leaves r^2
    alone. All uniforms come from one draw; only r^2 is computed here.
    """
    rows = 2 if region == DISK else 3
    uniforms = rng.random(out=ws.array("uniforms", rows * count)).reshape(rows, count)
    r2 = ws.array("r2", count)
    if region == DISK:
        np.multiply(uniforms[0], rbar * rbar, out=r2)
    else:
        u, v = uniforms[0], uniforms[1]
        np.subtract(v, u, out=r2)
        r2 *= v
        r2 += np.multiply(u, u, out=ws.array("u2", count))
        r2 *= rbar * rbar
    return uniforms, r2


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
    """Sample realizations of terminals in a cell.

    Each realization's count is Poisson with mean density*area by default,
    or the rounded mean with count_model="fixed"; with counts given, no
    count is drawn. Terminals are i.i.d. uniform in the region. seed is
    anything np.random.default_rng accepts; a Generator is drawn from in
    place. The counts are drawn first, then every realization's uniforms
    in one call, so the result, positions included, is deterministic for a
    given seed and realization count. The uniforms and r^2 are drawn into
    workspace, or into fresh arrays without one; positions are built only
    when read.
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
    rbar = layout.circumradius_m
    uniforms, r2 = _uniform_in_region(rng, region, rbar, int(counts.sum()),
                                      workspace or Workspace())
    return GtRealization(counts=counts, r2=r2, region=region, circumradius_m=rbar,
                         uniforms=uniforms)
