"""Deployment optimization over altitude and half-beamwidth.

Altitude is settled by closed rules (the rate is monotone in H for the
downlink modes and flat for the uplink), so only the beamwidth needs a
numerical 1-D search: a coarse scan to bracket the peak, then golden-section
refinement inside the winning bracket.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import DeploymentVars, SystemParams
from .rates import BC, MAC, MC, MODES, rate_value

COARSE_POINTS = 257
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptResult:
    mode: str
    h_star_m: float
    theta_star_rad: float
    objective_bps_hz: float
    trace: list = field(repr=False)
    method: str = "closed-rule"
    h_indifferent: bool = False


def search_1d(f, lo: float, hi: float, tol: float = 1e-4):
    """Maximize f on [lo, hi]; returns (x_star, f_star, trace).

    Coarse scan on a fixed 257-point grid brackets the peak, golden-section
    search refines inside the bracket to width tol. The returned point is the
    best of every evaluation made, so it is never worse than the best coarse
    grid point; exact ties resolve toward smaller x.

    f must accept a numpy array as well as a float: the coarse scan is one
    call f(xs) on the array of grid points, which must return a numpy array
    of one value per point. The refinement calls f on single floats.
    """
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if lo == hi:
        fx = f(lo)
        return lo, fx, [(lo, fx)]
    xs = np.linspace(lo, hi, COARSE_POINTS)
    fs = f(xs)
    trace = list(zip(xs.tolist(), fs.tolist()))
    best = int(np.argmax(fs))  # first max: ties toward smaller x
    a = float(xs[max(best - 1, 0)])
    b = float(xs[min(best + 1, COARSE_POINTS - 1)])

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    trace += [(c, fc), (d, fd)]
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            trace.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            trace.append((d, fd))
    x_star, f_star = max(trace, key=lambda p: (p[1], -p[0]))
    return x_star, f_star, trace


# Closed altitude rule per mode. mc: the rate is non-decreasing in altitude,
# so H* = h_max. bc: strictly decreasing, so H* = h_min. mac: the rate does
# not depend on altitude; h_min is reported and the result is flagged
# h_indifferent.
_ALTITUDE_RULES = {
    MC: lambda box: box.h_max_m,
    BC: lambda box: box.h_min_m,
    MAC: lambda box: box.h_min_m,
}


def optimize(mode: str, params: SystemParams, box: DeploymentVars,
             tol: float = 1e-4) -> OptResult:
    """Altitude from the mode's closed rule, then a 1-D beamwidth search."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    h_star = _ALTITUDE_RULES[mode](box)
    theta_star, f_star, trace1d = search_1d(
        lambda t: rate_value(mode, params, h_star, t),
        box.theta_min_rad, box.theta_max_rad, tol=tol)
    trace = [(h_star, t, v) for t, v in trace1d]
    return OptResult(mode=mode, h_star_m=h_star, theta_star_rad=theta_star,
                     objective_bps_hz=f_star, trace=trace,
                     h_indifferent=(mode == MAC))


def optimize_2d_grid(params: SystemParams, box: DeploymentVars, mode: str,
                     n: int = 64) -> OptResult:
    """Plain grid search over the full (H, theta) box.

    Exists to cross-validate the closed altitude rules; ties resolve toward
    smaller altitude, then smaller beamwidth.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if n < 2:
        raise ValueError(f"grid needs n >= 2 points per axis, got {n}")
    hs = np.linspace(box.h_min_m, box.h_max_m, n)
    ts = np.linspace(box.theta_min_rad, box.theta_max_rad, n)
    values = rate_value(mode, params, hs[:, None], ts[None, :])
    # first maximum in h-major order: ties toward smaller H, then smaller theta
    i, j = divmod(int(np.argmax(values)), n)
    ts_list = ts.tolist()
    trace = [(h, t, v) for h, row in zip(hs.tolist(), values.tolist())
             for t, v in zip(ts_list, row)]
    return OptResult(mode=mode, h_star_m=float(hs[i]), theta_star_rad=ts_list[j],
                     objective_bps_hz=float(values[i, j]), trace=trace, method="grid",
                     h_indifferent=(mode == MAC))
