"""Plain grid search over the full (H, theta) box, a reference for the
tests: it cross-validates the closed altitude rules of uavcell.optimize
without using them.
"""
from __future__ import annotations

import numpy as np

from uavcell.optimize import OptResult
from uavcell.params import SystemParams
from uavcell.rates import MODES, rate_value


def optimize_2d_grid(mode: str, params: SystemParams, h_range, theta_range,
                     n: int = 64) -> OptResult:
    """The best point of an n x n grid over the box h_range x theta_range,
    each a (lo, hi) pair as optimize takes them; ties resolve toward
    smaller altitude, then smaller beamwidth."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if n < 2:
        raise ValueError(f"grid needs n >= 2 points per axis, got {n}")
    hs = np.linspace(*h_range, n)
    ts = np.linspace(*theta_range, n)
    values = rate_value(mode, params, hs[:, None], ts[None, :])
    # first maximum in h-major order: ties toward smaller H, then smaller theta
    i, j = divmod(int(np.argmax(values)), n)
    trace = (np.repeat(hs, n), np.tile(ts, n), values.ravel())
    return OptResult(mode=mode, h_star_m=float(hs[i]), theta_star_rad=float(ts[j]),
                     objective_bps_hz=float(values[i, j]), trace=trace, method="grid",
                     h_indifferent=(mode == "mac"))
