"""Monte Carlo validation of the closed-form cell rates.

Each realization draws terminal positions (and optionally a Poisson count)
in one cell and evaluates the realized sum rate; the empirical mean over
realizations is compared against the analytic expression.

A call draws from one random stream per seed, in a fixed order: the
realizations are drawn in blocks of about BLOCK_TERMINALS expected
terminals, each block's counts first and then its positions. Results are
bit-reproducible for a fixed seed, but realization i depends on the
realization count and on BLOCK_TERMINALS, not on (seed, i) alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (DISK, HEXAGON, SQRT3, GtRealization, coverage_radius, make_layout,
                       sample_gts)
from .params import DeploymentVars, SystemParams, derived_constants
from .rates import (BC, MAC, MC, MODES, LN2, McMission, cell_edge_rate_mc,
                    mission_time_mc, rate_value)

_REGION_FOR_MODE = {MC: HEXAGON, BC: DISK, MAC: DISK}

# expected terminals drawn at once: whole realizations share a block up to
# this size, and a larger realization is drawn alone. Larger blocks cut the
# per-call cost but raise peak memory.
BLOCK_TERMINALS = 8192


@dataclass(frozen=True)
class SimSpec:
    """What to simulate: mode, realization count, seeding, and cell shape."""

    mode: str
    realizations: int = 100
    seed: int = 0
    region: str | None = None  # defaults to the mode's natural region
    count_model: str = "poisson"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.realizations < 1:
            raise ValueError(f"need at least 1 realization, got {self.realizations}")
        if self.count_model not in ("poisson", "fixed"):
            raise ValueError(f"count_model must be 'poisson' or 'fixed', got {self.count_model!r}")
        required = _REGION_FOR_MODE[self.mode]
        if self.region is None:
            object.__setattr__(self, "region", required)
        elif self.region != required:
            raise ValueError(
                f"mode {self.mode!r} is defined on the {required}, got region {self.region!r}")


@dataclass(frozen=True)
class SimResult:
    mode: str
    analytic_bps_hz: float
    empirical_mean_bps_hz: float
    empirical_stderr_bps_hz: float
    relative_gap: float
    per_realization: np.ndarray
    gt_counts: np.ndarray
    seed: int


def _block_values(mode: str, block: GtRealization, params: SystemParams,
                  vars: DeploymentVars) -> np.ndarray:
    """Realized sum rate of each realization in a block, with the expected
    count K_s' replaced by the realized count where the formulas use it.

    mc serves every terminal at the rate of its farthest sampled one; bc and
    mac average the per-terminal rates. An empty realization scores 0.
    """
    counts = block.counts
    values = np.zeros(len(counts))
    filled = counts > 0
    if not filled.any():
        return values
    # reduceat needs strictly in-range starts, so empty realizations are
    # left out; each remaining start is the first of its terminals
    n = counts[filled]
    starts = (np.cumsum(counts) - counts)[filled]
    h2 = vars.altitude_m**2
    theta2 = vars.half_beamwidth_rad**2
    consts = derived_constants(params)
    if mode == MC:
        d2 = h2 + np.maximum.reduceat(block.r2, starts)
        values[filled] = n * np.log1p(consts.alpha / (theta2 * d2)) / LN2
        return values
    d2 = h2 + block.r2
    if mode == BC:
        snr = consts.alpha / (theta2 * d2)
    else:  # MAC: each of the n terminals gets a 1/n bandwidth share
        share = np.repeat(n, n) * (consts.eta / (params.density_per_m2 * math.pi * theta2))
        snr = share / d2
    values[filled] = np.add.reduceat(np.log1p(snr), starts) / n / LN2
    return values


def simulate_rate(params: SystemParams, vars: DeploymentVars,
                  spec: SimSpec) -> SimResult:
    rbar = coverage_radius(vars.altitude_m, vars.half_beamwidth_rad)
    layout = make_layout(params, vars, total_area_m2=1.5 * SQRT3 * rbar**2)
    expected = layout.mean_gts_hex if spec.region == HEXAGON else layout.mean_gts_disk
    # a cell expecting under one terminal still gets bounded blocks
    per_block = max(1, int(BLOCK_TERMINALS / max(expected, 1.0)))
    rng = np.random.default_rng(spec.seed)
    values, counts = [], []
    for start in range(0, spec.realizations, per_block):
        block = sample_gts(layout, spec.region, rng, params.density_per_m2,
                           count_model=spec.count_model,
                           realizations=min(per_block, spec.realizations - start))
        counts.append(block.counts)
        values.append(_block_values(spec.mode, block, params, vars))
    values = np.concatenate(values)
    counts = np.concatenate(counts)
    analytic = rate_value(spec.mode, params, vars.altitude_m, vars.half_beamwidth_rad)
    mean = float(np.mean(values))
    stderr = (float(np.std(values, ddof=1) / math.sqrt(spec.realizations))
              if spec.realizations > 1 else float("nan"))
    return SimResult(
        mode=spec.mode,
        analytic_bps_hz=analytic,
        empirical_mean_bps_hz=mean,
        empirical_stderr_bps_hz=stderr,
        relative_gap=abs(mean - analytic) / analytic,
        per_realization=values,
        gt_counts=counts,
        seed=spec.seed,
    )


@dataclass(frozen=True)
class MissionSimResult:
    total_time_s: float
    per_cell_time_s: float
    n_cells: float
    edge_rate_bps_hz: float
    worst_gt_rate_bps_hz: float
    seed: int


def simulate_mc_mission(params: SystemParams, vars: DeploymentVars,
                        mission: McMission, area_m2: float,
                        spec: SimSpec) -> MissionSimResult:
    """Fly-hover-multicast mission over area_m2, one hexagonal cell at a time.

    The per-cell hover time is keyed on the analytic cell-edge rate (every
    terminal in the cell decodes at least that fast), so the total is
    deterministic and equals mission_time_mc. Sampled realizations feed the
    worst-terminal diagnostic only.
    """
    if spec.mode != MC:
        raise ValueError(f"mission simulation is a multicast operation, got mode {spec.mode!r}")
    layout = make_layout(params, vars, total_area_m2=area_m2)
    total = mission_time_mc(params, vars,
                            McMission(mission.file_size_bits, total_gts=None), area_m2)
    edge_rate = cell_edge_rate_mc(params, vars)
    real = sample_gts(layout, spec.region, spec.seed, params.density_per_m2,
                      count_model=spec.count_model, realizations=spec.realizations)
    worst = math.inf
    if len(real.r2):
        d2 = vars.altitude_m**2 + float(real.r2.max())
        snr = derived_constants(params).alpha / (vars.half_beamwidth_rad**2 * d2)
        worst = math.log1p(snr) / LN2
    return MissionSimResult(
        total_time_s=total,
        per_cell_time_s=total / layout.n_cells,
        n_cells=layout.n_cells,
        edge_rate_bps_hz=edge_rate,
        worst_gt_rate_bps_hz=worst,
        seed=spec.seed,
    )
