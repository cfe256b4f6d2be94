"""Monte Carlo validation of the closed-form cell rates.

Each realization draws terminal positions (and optionally a Poisson count)
in one cell and evaluates the realized sum rate; the empirical mean over
realizations is compared against the analytic expression.

A call draws from one random stream per seed, in a fixed order. Cells
expecting at most BLOCK_TERMINALS terminals are drawn in blocks of whole
realizations, about BLOCK_TERMINALS expected terminals each, each block's
counts first and then its positions. A larger realization has its count
drawn first, then its terminals in chunks of at most BLOCK_TERMINALS, and
its statistic (the largest r^2 for mc, the sum of ln(1 + SNR) for bc and
mac) is reduced across the chunks. Every block and chunk is drawn into one
workspace per call, so memory is bounded by BLOCK_TERMINALS, not by the
cell. Results are bit-reproducible for a fixed seed, but realization i
depends on the realization count and on BLOCK_TERMINALS, not on (seed, i)
alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# coverage_radius and cell_edge_rate_mc are unused; perfbench/spans.py wraps them here
from .geometry import (DISK, HEXAGON, CellLayout, GtRealization, Workspace, coverage_radius,
                       draw_counts, make_layout, sample_gts)
from .params import DeploymentVars, SystemParams, derived_constants
from .rates import BC, MAC, MC, MODES, LN2, cell_edge_rate_mc, rate_value

_REGION_FOR_MODE = {MC: HEXAGON, BC: DISK, MAC: DISK}

# expected terminals drawn at once: whole realizations share a block up to
# this size, and a larger realization is drawn in chunks of at most this
# size. It sets the peak memory of a call, 0.7 to 0.8 MB. In-process passes
# over the benchmark's Monte Carlo points took 1.68x, 1.22x, 0.96x and
# 1.13x as long with 2048, 4096, 16384 and 32768.
BLOCK_TERMINALS = 8192

# expected terminals that one command may draw, over all its realizations
# and sweep rows (the CLI exits 2 above it): 100 realizations of 1e6
# terminals took 3.4 to 3.9 s and peaked at 36 MB RSS on a 2-core x86 VM
MAX_SIM_TERMINALS = 10**8


@dataclass(frozen=True)
class SimSpec:
    """What to simulate: mode, realization count, seeding and count model.
    The cell shape is the mode's own: the hexagon for mc, the disk otherwise."""

    mode: str
    realizations: int = 100
    seed: int = 0
    count_model: str = "poisson"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.realizations < 1:
            raise ValueError(f"need at least 1 realization, got {self.realizations}")
        if self.count_model not in ("poisson", "fixed"):
            raise ValueError(f"count_model must be 'poisson' or 'fixed', got {self.count_model!r}")


@dataclass(frozen=True)
class SimResult:
    mode: str
    analytic_bps_hz: float
    empirical_mean_bps_hz: float
    empirical_stderr_bps_hz: float
    relative_gap: float
    per_realization: np.ndarray
    gt_counts: np.ndarray


def _mean_count(layout: CellLayout, region: str) -> float:
    return layout.mean_gts_hex if region == HEXAGON else layout.mean_gts_disk


def expected_terminals(params: SystemParams, vars: DeploymentVars, spec: SimSpec) -> float:
    """Terminals that simulate_rate(params, vars, spec) is expected to draw."""
    return spec.realizations * _mean_count(make_layout(params, vars),
                                           _REGION_FOR_MODE[spec.mode])


def _partials(mode: str, block: GtRealization, full_counts: np.ndarray,
              params: SystemParams, vars: DeploymentVars, ws: Workspace) -> np.ndarray:
    """What each realization of a block adds to its statistic: the largest
    r^2 for mc, the sum of ln(1 + SNR) over its terminals for bc and mac.

    A block holds whole realizations, or one chunk of a larger one.
    full_counts are the realizations' whole counts, which set mac's 1/n
    bandwidth share.
    """
    counts = block.counts
    partial = np.zeros(len(counts))
    filled = counts > 0
    if not filled.any():
        return partial
    # reduceat needs strictly in-range starts, so empty realizations are
    # left out; each remaining start is the first of its terminals
    starts = (np.cumsum(counts) - counts)[filled]
    if mode == MC:
        partial[filled] = np.maximum.reduceat(block.r2, starts)
        return partial
    theta2 = vars.half_beamwidth_rad**2
    consts = derived_constants(params)
    snr = np.add(block.r2, vars.altitude_m**2, out=ws.array("snr", len(block.r2)))
    if mode == BC:
        snr *= theta2
        np.divide(consts.alpha, snr, out=snr)
    else:  # MAC: each of the n terminals gets a 1/n bandwidth share
        share = full_counts[filled] * (consts.eta / (params.density_per_m2 * math.pi * theta2))
        np.divide(np.repeat(share, counts[filled]), snr, out=snr)
    partial[filled] = np.add.reduceat(np.log1p(snr, out=snr), starts)
    return partial


def _values(mode: str, stats: np.ndarray, counts: np.ndarray, params: SystemParams,
            vars: DeploymentVars) -> np.ndarray:
    """Realized sum rate of each realization from its statistic, with the
    expected count K_s' replaced by the realized count where the formulas
    use it.

    mc serves every terminal at the rate of its farthest sampled one; bc and
    mac average the per-terminal rates. An empty realization scores 0.
    """
    values = np.zeros(len(counts))
    filled = counts > 0
    n = counts[filled]
    if mode == MC:
        d2 = vars.altitude_m**2 + stats[filled]
        alpha = derived_constants(params).alpha
        values[filled] = n * np.log1p(alpha / (vars.half_beamwidth_rad**2 * d2)) / LN2
    else:
        values[filled] = stats[filled] / n / LN2
    return values


def _draws(layout: CellLayout, region: str, density: float, spec: SimSpec, ws: Workspace):
    """Every sample_gts call of a simulation, in stream order, as (index of
    its first realization, the block drawn, the whole counts of its
    realizations).

    Whole realizations share a block up to BLOCK_TERMINALS expected
    terminals. A realization expected to be larger has its count drawn
    first, then its terminals in chunks of at most BLOCK_TERMINALS.
    """
    rng = np.random.default_rng(spec.seed)
    mean = _mean_count(layout, region)
    if mean <= BLOCK_TERMINALS:
        # a cell expecting under one terminal still gets bounded blocks
        per_block = max(1, int(BLOCK_TERMINALS / max(mean, 1.0)))
        for first in range(0, spec.realizations, per_block):
            block = sample_gts(layout, region, rng, density, count_model=spec.count_model,
                               realizations=min(per_block, spec.realizations - first),
                               workspace=ws)
            yield first, block, block.counts
        return
    for index in range(spec.realizations):
        count = draw_counts(rng, mean, spec.count_model, 1)
        for start in range(0, int(count[0]), BLOCK_TERMINALS):
            chunk = np.minimum(count - start, BLOCK_TERMINALS)
            yield index, sample_gts(layout, region, rng, density, counts=chunk,
                                    workspace=ws), count


def simulate_rate(params: SystemParams, vars: DeploymentVars,
                  spec: SimSpec) -> SimResult:
    analytic = rate_value(spec.mode, params, vars.altitude_m, vars.half_beamwidth_rad)
    layout = make_layout(params, vars)
    region = _REGION_FOR_MODE[spec.mode]
    reduce = np.maximum if spec.mode == MC else np.add
    stats = np.zeros(spec.realizations)
    counts = np.zeros(spec.realizations, dtype=np.int64)
    ws = Workspace()
    for first, block, full_counts in _draws(layout, region, params.density_per_m2, spec, ws):
        span = slice(first, first + len(full_counts))
        counts[span] = full_counts
        reduce(stats[span], _partials(spec.mode, block, full_counts, params, vars, ws),
               out=stats[span])
    values = _values(spec.mode, stats, counts, params, vars)
    mean = float(np.mean(values))
    return SimResult(
        mode=spec.mode,
        analytic_bps_hz=analytic,
        empirical_mean_bps_hz=mean,
        empirical_stderr_bps_hz=_stderr(values),
        relative_gap=abs(mean - analytic) / analytic,
        per_realization=values,
        gt_counts=counts,
    )


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean, nan for one value. It is computed on the
    values scaled by an exact power of two, which leaves normal-range
    results bit for bit as they are but keeps the squared deviations of
    tiny values from underflowing to 0."""
    if len(values) < 2:
        return float("nan")
    _, exponent = np.frexp(np.max(np.abs(values)))
    scaled = np.ldexp(values, -exponent)
    return math.ldexp(float(np.std(scaled, ddof=1) / math.sqrt(len(values))), int(exponent))
