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
is reduced across the chunks it touches. The realizations that each chunk
spans, and where each one begins in it, come from the running sums of the
counts, searched once per call; every chunk reduces straight into the
statistics of its realizations. An empty realization's statistic is left
undefined and is never read: it scores 0. Every chunk is drawn into one
workspace per call, so memory is bounded by BLOCK_TERMINALS, not by the
cell. Results are bit-reproducible for a fixed seed, but realization i
depends on the realization count, not on (seed, i) alone.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

# coverage_radius and cell_edge_rate_mc are unused; perfbench/spans.py wraps them here
from .geometry import (DISK, HEXAGON, CellLayout, GtRealization, Workspace, coverage_radius,
                       draw_counts, make_layout, sample_gts)
from .params import DeploymentVars, SystemParams
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
# call returns and costs 0.10 to 0.16 us, whatever its cell: 1e6
# realizations of half a terminal took 0.096 to 0.164 s and peaked at 65 to
# 72 MB RSS, against 35 MB for 100, on a 2-core x86 VM.
MAX_SIM_REALIZATIONS = 10**6


class SimSpec(namedtuple("SimSpec", "mode realizations seed count_model",
                         defaults=(100, 0, "poisson"))):
    """What to simulate: mode, realization count, seeding and count model.
    The cell shape is the mode's own: the hexagon for mc, the disk otherwise."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.realizations < 1:
            raise ValueError(f"need at least 1 realization, got {self.realizations}")
        if self.count_model not in ("poisson", "fixed"):
            raise ValueError(f"count_model must be 'poisson' or 'fixed', got {self.count_model!r}")
        return self


class SimResult(namedtuple("SimResult", "mode empirical_mean_bps_hz per_realization gt_counts "
                           "params vars")):
    """A simulation's realizations and their mean. The closed form, the
    standard error and the gap between them are computed when first read,
    and kept in the instance's __dict__ (no __slots__, unlike the other
    records)."""

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


def _partials(mode: str, chunk: GtRealization, begins: np.ndarray, full_counts: np.ndarray,
              params: SystemParams, vars: DeploymentVars, ws: Workspace) -> np.ndarray:
    """What each realization that a chunk spans adds to its statistic: the
    largest r^2 for mc, the sum of ln(1 + SNR) over its terminals for bc and
    mac.

    begins are where the realizations' terminals begin in the chunk, in
    range and never decreasing, as reduceat needs. chunk.counts are their
    terminals in the chunk, and full_counts their whole counts, which set
    mac's 1/n bandwidth share. An empty realization, which begins where the
    next one does, gets one terminal's value from reduceat; it is undefined,
    and _values never reads it.
    """
    if mode == MC:
        return np.maximum.reduceat(chunk.r2, begins)
    theta2 = vars.half_beamwidth_rad**2
    snr = np.add(chunk.r2, vars.altitude_m**2, out=ws.array("snr", len(chunk.r2)))
    if mode == BC:
        # alpha/theta^2 as one constant saves a pass over the terminals; it
        # overflows only for alpha near the float maximum, where the SNR is
        # divided in two steps, as the closed form does
        scale = params.alpha / theta2
        if scale == math.inf:
            snr *= theta2
            scale = params.alpha
        np.divide(scale, snr, out=snr)
    else:  # MAC: each of the n terminals gets a 1/n bandwidth share
        scale = params.eta / (params.density_per_m2 * math.pi * theta2)
        if scale * float(full_counts.max()) < math.inf:
            np.divide(np.repeat(full_counts * scale, chunk.counts), snr, out=snr)
        else:  # eta near the float maximum: it is divided by the squared distances first
            np.divide(params.eta, snr, out=snr)
            snr *= np.repeat(full_counts / (params.density_per_m2 * math.pi * theta2),
                             chunk.counts)
    return np.add.reduceat(np.log1p(snr, out=snr), begins)


def _values(mode: str, stats: np.ndarray, counts: np.ndarray, params: SystemParams,
            vars: DeploymentVars) -> np.ndarray:
    """Realized sum rate of each realization from its statistic, with the
    expected count K_s' replaced by the realized count where the formulas
    use it.

    mc serves every terminal at the rate of its farthest sampled one; bc and
    mac average the per-terminal rates. An empty realization scores 0,
    whatever its statistic holds.
    """
    values = np.zeros(len(counts))
    filled = slice(None) if counts.all() else counts > 0
    n = counts[filled]
    if mode == MC:
        d2 = vars.altitude_m**2 + stats[filled]
        values[filled] = n * np.log1p(params.alpha / (vars.half_beamwidth_rad**2 * d2)) / LN2
    else:
        values[filled] = stats[filled] / n / LN2
    return values


def simulate_rate(params: SystemParams, vars: DeploymentVars,
                  spec: SimSpec) -> SimResult:
    layout = make_layout(params, vars)
    region = _REGION_FOR_MODE[spec.mode]
    rng = np.random.default_rng(spec.seed)
    counts = draw_counts(rng, _mean_count(layout, region), spec.count_model, spec.realizations)
    # realization i holds terminals edges[i]:edges[i + 1] of the stream
    edges = np.zeros(spec.realizations + 1, dtype=counts.dtype)
    np.cumsum(counts, out=edges[1:])
    total = int(edges[-1])
    # chunk k holds terminals bounds[k]:bounds[k + 1], of realizations
    # firsts[k]:lasts[k]: the one holding its first terminal, the one
    # holding its last, and the empty ones between them
    bounds = np.minimum(np.arange(0, total + BLOCK_TERMINALS, BLOCK_TERMINALS), total)
    firsts = np.searchsorted(edges, bounds[:-1], side="right") - 1
    lasts = np.searchsorted(edges, bounds[1:])
    reduce = np.maximum if spec.mode == MC else np.add
    stats = np.zeros(spec.realizations)
    ws = Workspace()
    for start, stop, a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist(), firsts.tolist(),
                                 lasts.tolist()):
        # where each realization begins and ends in the chunk: only the
        # first can begin before it, and only the last end after it
        offsets = edges[a:b + 1] - start
        offsets[0] = 0
        offsets[-1] = stop - start
        in_chunk = offsets[1:] - offsets[:-1]
        chunk = sample_gts(layout, region, rng, in_chunk, workspace=ws)
        # the first and last realizations hold terminals in the chunk, so
        # every begin is in range; the empty ones between them get undefined
        # statistics, which _values masks
        span = stats[a:b]
        reduce(span, _partials(spec.mode, chunk, offsets[:-1], counts[a:b], params, vars, ws),
               out=span)
    del edges  # as large as stats, and no longer needed
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
