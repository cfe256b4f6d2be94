"""Cell geometry: coverage radius, hexagon/disk cells, and terminal sampling.

The covered ground region at altitude H with half-beamwidth theta is a disk
of radius rbar = H*tan(theta). For tessellation the serviced cell is the
regular hexagon inscribed in that disk, with one vertex on the positive
x axis relative to the cell center.

Terminals are sampled for what the Monte Carlo estimators read, each
terminal's squared distance r^2 from the center: one uniform per disk
terminal, two per hexagon terminal. The one more uniform a position needs
comes from a side stream, seeded by one draw per call, when the position
is read.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .params import SQRT3, DeploymentVars, SystemParams, require_domain

HEXAGON = "hexagon"
DISK = "disk"
REGIONS = (HEXAGON, DISK)


def coverage_radius(altitude_m: float, half_beamwidth_rad: float) -> float:
    """Radius rbar = H*tan(theta) of the ground disk seen by the main lobe."""
    require_domain((altitude_m,), (half_beamwidth_rad,))
    return altitude_m * math.tan(half_beamwidth_rad)


class CellLayout(namedtuple("CellLayout", "circumradius_m hex_area_m2 disk_area_m2 "
                            "mean_gts_hex mean_gts_disk")):
    """Derived geometry of one cell: its radius, areas and mean terminal counts.

    mean_gts_hex / mean_gts_disk are the expected terminal counts K_s and K_s'
    in the hexagonal cell and the full coverage disk.
    """

    __slots__ = ()


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


# unit edge vectors of the hexagon's three rhombi, 120 degrees apart and
# the first on the +x vertex; rhombus k is spanned by rows k and k + 1
_RHOMBUS_EDGES = np.array([[1.0, 0.0], [-0.5, SQRT3 / 2], [-0.5, -SQRT3 / 2], [1.0, 0.0]])


class GtRealization(namedtuple("GtRealization",
                               "counts r2 region circumradius_m uniforms side_seed")):
    """Terminals of one or more realizations, relative to the cell center.

    The realizations lie back to back: the first counts[0] terminals belong
    to realization 0, the next counts[1] to realization 1, and so on. Each
    terminal is stored as its squared ground distance r2 (m^2) and the
    uniforms r2 was computed from, one row per variable (see
    _uniform_in_region): shape (1, n) for the disk, (2, n) for the hexagon.
    Drawn into a Workspace, r2 and uniforms are views of its arrays, valid
    until the next draw into it. The uniform that only positions read comes
    from a side stream seeded by side_seed.
    """

    __slots__ = ()

    @property
    def positions(self) -> np.ndarray:
        """Terminal positions, shape (n, 2) in meters, built in fresh arrays
        on every read from the uniforms and one uniform W per terminal,
        drawn from the side stream: the disk's angle as a fraction of a
        turn, or the hexagon's rhombus floor(3W)."""
        rbar = self.circumradius_m
        w = np.random.default_rng(self.side_seed).random(len(self.r2))
        if self.region == DISK:
            rho = rbar * np.sqrt(self.uniforms[0])
            angle = 2.0 * math.pi * w
            return np.column_stack([rho * np.cos(angle), rho * np.sin(angle)])
        u, v = self.uniforms
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
    """The squared distance r^2 from the center of count points uniform in
    the region, and the uniforms it is computed from (one row per
    variable), by inversion with no rejection.

    The disk draws U: r^2 = rbar^2*U inverts the distribution of the
    squared distance. The hexagon is three rhombi spanned by unit vectors
    120 degrees apart; it draws (U, V), the point U*a + V*b of a rhombus,
    which has r^2 = rbar^2*(U^2 - U*V + V^2) in every rhombus, so the
    choice of rhombus is left to the positions. All uniforms come from one
    draw.
    """
    rows = 1 if region == DISK else 2
    uniforms = rng.random(out=ws.array("uniforms", rows * count)).reshape(rows, count)
    r2 = ws.array("r2", count)
    if region == DISK:
        np.multiply(uniforms[0], rbar * rbar, out=r2)
    else:
        u, v = uniforms
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


def sample_gts(layout: CellLayout, region: str, rng, counts: np.ndarray, *,
               workspace: Workspace | None = None) -> GtRealization:
    """Sample counts[i] terminals of realization i, i.i.d. uniform in the
    region of the cell (draw the counts with draw_counts).

    rng is anything np.random.default_rng accepts; a Generator is drawn
    from in place: one 64-bit draw that seeds the side stream of the
    positions, then one uniform per disk terminal or two per hexagon
    terminal, into workspace or into fresh arrays without one. The result,
    positions included, is a deterministic function of the stream, and
    reading positions draws nothing from it.
    """
    if region not in REGIONS:
        raise ValueError(f"region must be one of {REGIONS}, got {region!r}")
    rng = np.random.default_rng(rng)
    side_seed = rng.bit_generator.random_raw()
    rbar = layout.circumradius_m
    uniforms, r2 = _uniform_in_region(rng, region, rbar, int(counts.sum()),
                                      workspace or Workspace())
    return GtRealization(counts=counts, r2=r2, region=region, circumradius_m=rbar,
                         uniforms=uniforms, side_seed=side_seed)
