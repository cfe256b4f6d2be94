"""Monte Carlo validation of the closed-form cell rates.

Each realization draws its terminals (and optionally a Poisson count) in
one cell and evaluates the realized sum rate from their squared distances to
the cell center, which the sampler draws directly, without positions; the
empirical mean over realizations is compared against the analytic
expression, which is computed only when read.

A call draws from one random stream per seed: every realization's count
first, then all terminals back to back in chunks of BLOCK_TERMINALS (the
last one shorter), where a chunk may start or end inside a realization.
A chunk takes one 64-bit seed for its positions' side stream, then one
uniform per disk terminal or two per hexagon terminal. Each realization's
statistic (the largest r^2 for mc, the sum of ln(1 + SNR) for bc and mac)
is reduced across the chunks it touches. Every chunk is drawn into one
workspace per call, so memory is bounded by BLOCK_TERMINALS, not by the
cell. Results are bit-reproducible for a fixed seed, but realization i
depends on the realization count, not on (seed, i) alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# coverage_radius and cell_edge_rate_mc are unused; perfbench/spans.py wraps them here
from .geometry import (DISK, HEXAGON, CellLayout, GtRealization, Workspace, coverage_radius,
                       draw_counts, make_layout, sample_gts)
from .params import DeploymentVars, SystemParams, derived_constants
from .rates import BC, MAC, MC, MODES, LN2, cell_edge_rate_mc, rate_value

_REGION_FOR_MODE = {MC: HEXAGON, BC: DISK, MAC: DISK}

# terminals drawn at once, whole realizations or pieces of them. It sets
# the peak memory of a call, about 0.3 MB (bc) and 0.4 MB (mc, mac), and
# keeps a chunk's largest array, the hexagon's two rows of uniforms, at the
# 192 KiB that its three rows of 8192 took before. In-process passes over
# the benchmark's Monte Carlo commands took 1.65x to 1.7x, 1.2x to 1.3x,
# 1.0x to 1.07x, 0.96x to 0.98x and 0.91x to 1.0x as long with 2048, 4096,
# 8192, 16384 and 32768 (minima of 15 interleaved passes, two runs, on a
# 2-core x86 VM); in 30-s benchmark runs, 16384 read 0.1 to 0.4 MB more
# peak RSS than 12288.
BLOCK_TERMINALS = 12288

# expected terminals that one command may draw, over all its realizations
# and sweep rows (the CLI exits 2 above it): 100 realizations of 1e6
# terminals took 0.8 to 1.4 s in each mode and peaked at 36 MB RSS on a
# 2-core x86 VM
MAX_SIM_TERMINALS = 10**8

# realizations that one command may simulate, over all its sweep rows (the
# CLI exits 2 above it). A realization holds about 39 B until its simulate
# call returns and costs 0.12 to 0.19 us, whatever its cell: 1e6
# realizations of half a terminal took 0.12 to 0.19 s and peaked at 67 to
# 72 MB RSS, against 35 MB for 100, on a 2-core x86 VM.
MAX_SIM_REALIZATIONS = 10**6


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
    """A simulation's realizations and their mean. The closed form, the
    standard error and the gap between them are computed when first read."""

    mode: str
    empirical_mean_bps_hz: float
    per_realization: np.ndarray
    gt_counts: np.ndarray
    params: SystemParams
    vars: DeploymentVars

    @cached_property
    def analytic_bps_hz(self) -> float:
        return rate_value(self.mode, self.params, self.vars.altitude_m,
                          self.vars.half_beamwidth_rad)

    @cached_property
    def empirical_stderr_bps_hz(self) -> float:
        return _stderr(self.per_realization)

    @cached_property
    def relative_gap(self) -> float:
        return abs(self.empirical_mean_bps_hz - self.analytic_bps_hz) / self.analytic_bps_hz


def _mean_count(layout: CellLayout, region: str) -> float:
    return layout.mean_gts_hex if region == HEXAGON else layout.mean_gts_disk


def expected_terminals(params: SystemParams, vars: DeploymentVars, spec: SimSpec) -> float:
    """Terminals that simulate_rate(params, vars, spec) is expected to draw."""
    return spec.realizations * _mean_count(make_layout(params, vars),
                                           _REGION_FOR_MODE[spec.mode])


def _partials(mode: str, chunk: GtRealization, full_counts: np.ndarray,
              params: SystemParams, vars: DeploymentVars, ws: Workspace) -> np.ndarray:
    """What each realization of a chunk adds to its statistic: the largest
    r^2 for mc, the sum of ln(1 + SNR) over its terminals for bc and mac.

    chunk.counts are each realization's terminals in the chunk, and
    full_counts its whole count, which sets mac's 1/n bandwidth share.
    """
    counts = chunk.counts
    partial = np.zeros(len(counts))
    filled = counts > 0
    # reduceat needs strictly in-range starts, so empty realizations are
    # left out; each remaining start is the first of its terminals
    starts = (np.cumsum(counts) - counts)[filled]
    if mode == MC:
        partial[filled] = np.maximum.reduceat(chunk.r2, starts)
        return partial
    theta2 = vars.half_beamwidth_rad**2
    consts = derived_constants(params)
    snr = np.add(chunk.r2, vars.altitude_m**2, out=ws.array("snr", len(chunk.r2)))
    if mode == BC:
        # alpha/theta^2 as one constant saves a pass over the terminals; it
        # overflows only for alpha near the float maximum, where the SNR is
        # divided in two steps, as the closed form does
        scale = consts.alpha / theta2
        if scale == math.inf:
            snr *= theta2
            scale = consts.alpha
        np.divide(scale, snr, out=snr)
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


def simulate_rate(params: SystemParams, vars: DeploymentVars,
                  spec: SimSpec) -> SimResult:
    layout = make_layout(params, vars)
    region = _REGION_FOR_MODE[spec.mode]
    rng = np.random.default_rng(spec.seed)
    counts = draw_counts(rng, _mean_count(layout, region), spec.count_model, spec.realizations)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    reduce = np.maximum if spec.mode == MC else np.add
    stats = np.zeros(spec.realizations)
    ws = Workspace()
    for start in range(0, total, BLOCK_TERMINALS):
        stop = min(start + BLOCK_TERMINALS, total)
        # the realizations holding terminals start and stop - 1, and the
        # empty ones between them
        span = slice(np.searchsorted(ends, start, side="right"),
                     np.searchsorted(ends, stop) + 1)
        in_chunk = np.minimum(ends[span], stop) - np.maximum(ends[span] - counts[span], start)
        chunk = sample_gts(layout, region, rng, in_chunk, workspace=ws)
        reduce(stats[span], _partials(spec.mode, chunk, counts[span], params, vars, ws),
               out=stats[span])
    del ends  # as large as stats, and no longer needed
    values = _values(spec.mode, stats, counts, params, vars)
    return SimResult(mode=spec.mode, empirical_mean_bps_hz=float(np.mean(values)),
                     per_realization=values, gt_counts=counts, params=params, vars=vars)


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
