"""Deployment optimization over altitude and half-beamwidth.

Altitude is settled by closed rules (the rate is monotone in H for the
downlink modes and flat for the uplink), so only the beamwidth needs a
numerical 1-D search: nested array scans, each a 257-point grid over the
bracket around the previous scan's peak.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .params import SystemParams
from .rates import MAC, MC, MODES, rate_value

SCAN_POINTS = 257
_GRID = np.arange(SCAN_POINTS, dtype=float)


class OptResult(namedtuple("OptResult", "mode h_star_m theta_star_rad objective_bps_hz trace "
                           "method h_indifferent", defaults=("closed-rule", False))):
    """An optimum and how it was found. trace holds the evaluated points as
    three columns: h_m, theta_rad, value_bps_hz."""

    __slots__ = ()


def search_1d(f, lo: float, hi: float, tol: float = 1e-4):
    """Maximize f on [lo, hi]; returns (x_star, f_star, (xs, fs)).

    The first call f(xs) scans a 257-point grid over [lo, hi]. Each further
    call rescans the bracket [x[best-1], x[best+1]] around the first maximum
    of the last scan, until that bracket is at most tol wide or a rescan no
    longer shrinks it (float spacing). Every scan is np.linspace(a, b, 257)
    bit for bit, built from one fixed grid as arange * step + a with the last
    point set to b (away from a zero step, where the box is too thin for any
    rate), so its endpoints are exactly the bracket's: an optimum on lo or hi
    is returned exactly. x_star is the smallest x among all evaluated points that reach
    the largest value, so exact ties resolve toward smaller x. (xs, fs) holds
    every evaluation, scan after scan.

    f must map a 1-D numpy array to an array of one value per point, none
    of them NaN (a NaN raises ValueError). It is called on a single float
    only when lo == hi, as f(lo).
    """
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if lo == hi:
        fx = f(lo)
        return lo, fx, (np.array([lo]), np.array([fx]))
    xs, fs, peaks = [], [], []
    a, b = lo, hi
    while True:
        x = _GRID * ((b - a) / (SCAN_POINTS - 1)) + a
        x[-1] = b
        fx = f(x)
        xs.append(x)
        fs.append(fx)
        # a scan's first max is its smallest x reaching the scan's best
        # value, or its first NaN
        best = int(fx.argmax())
        if fx[best] != fx[best]:
            raise ValueError(f"f is NaN at x={x[best]}")
        peaks.append((fx[best], -x[best]))
        a2 = float(x[max(best - 1, 0)])
        b2 = float(x[min(best + 1, SCAN_POINTS - 1)])
        if not tol < b2 - a2 < b - a:
            break
        a, b = a2, b2
    f_star, x_star = max(peaks)  # the best value, then the smallest x reaching it
    return float(-x_star), float(f_star), (np.concatenate(xs), np.concatenate(fs))


def optimize(mode: str, params: SystemParams, h_range, theta_range,
             tol: float = 1e-4) -> OptResult:
    """Altitude from the mode's closed rule, then a 1-D beamwidth search, in
    the box h_range x theta_range, two (lo, hi) pairs.

    The rules: the mc rate is non-decreasing in altitude, so H* = h_max; the
    bc rate is strictly decreasing, so H* = h_min; the mac rate does not
    depend on altitude, so h_min is reported and the result is flagged
    h_indifferent."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    h_min, h_max = h_range
    if not 0.0 < h_min <= h_max:
        raise ValueError(f"altitude range must satisfy 0 < h_min <= h_max, got "
                         f"[{h_min}, {h_max}]")
    h_star = h_max if mode == MC else h_min
    theta_star, f_star, (ts, vs) = search_1d(
        lambda t: rate_value(mode, params, h_star, t), *theta_range, tol=tol)
    hs = np.empty(len(ts))
    hs.fill(h_star)
    return OptResult(mode=mode, h_star_m=h_star, theta_star_rad=theta_star,
                     objective_bps_hz=f_star, trace=(hs, ts, vs),
                     h_indifferent=(mode == MAC))
