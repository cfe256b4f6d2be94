"""Closed-form per-cell spectral efficiency for the three service modes.

All three expressions are the exact radial integrals of the per-terminal
Shannon rates over one cell, normalized by bandwidth (bps/Hz):

  mc  (multicast)   R = K_s * log2(1 + snr at the cell edge), hexagonal cell
  bc  (broadcast)   R = integral of per-terminal FDMA rates over the disk
  mac (uplink)      like bc for simultaneous uplink; independent of altitude
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import SQRT3
from .params import DeploymentVars, SystemParams, derived_constants

LN2 = math.log(2.0)

MC = "mc"
BC = "bc"
MAC = "mac"
MODES = (MC, BC, MAC)


def _log2_1p(x):
    return np.log1p(x) / LN2


def _check_domain(h, theta):
    # min/max propagate NaN, which then fails the comparison like any bad value
    if h.size and not h.min() > 0.0:
        raise ValueError(f"altitude must be > 0, got {h[~(h > 0.0)].flat[0]}")
    if theta.size and not (theta.min() > 0.0 and theta.max() < math.pi / 2):
        bad = ~((theta > 0.0) & (theta < math.pi / 2))
        raise ValueError(f"half-beamwidth must lie in (0, pi/2), got {theta[bad].flat[0]}")


def _edge_rate(params: SystemParams, h, theta):
    alpha = derived_constants(params).alpha
    return _log2_1p(alpha * np.cos(theta)**2 / (theta**2 * h**2))


def _mc_value(params: SystemParams, h, theta):
    rho = params.density_per_m2
    return 1.5 * SQRT3 * rho * h**2 * np.tan(theta)**2 * _edge_rate(params, h, theta)


def _bc_value(params: SystemParams, h, theta):
    alpha = derived_constants(params).alpha
    t2 = np.tan(theta)**2
    c2 = np.cos(theta)**2
    s2 = np.sin(theta)**2
    th2h2 = theta**2 * h**2
    term1 = _log2_1p(alpha * c2 / th2h2) / s2
    term2 = _log2_1p(alpha / th2h2) / t2
    term3 = (alpha / (th2h2 * t2)) * np.log2(
        (th2h2 + alpha * c2) / (th2h2 * c2 + alpha * c2))
    return term1 - term2 + term3


def _mac_value(params: SystemParams, h, theta):
    eta = derived_constants(params).eta
    t2 = np.tan(theta)**2
    th2 = theta**2
    c2 = np.cos(theta)**2
    term1 = _log2_1p(eta * np.sin(theta)**2 / th2) / c2
    term2 = _log2_1p(eta * t2 / th2)
    term3 = (eta * t2 / th2) * _log2_1p(th2 * t2 / (th2 + eta * t2))
    value = (term1 - term2 + term3) / t2
    # the integral does not depend on h, which only sets the broadcast shape
    if h.ndim:
        value = np.broadcast_to(value, np.broadcast_shapes(h.shape, theta.shape)).copy()
    return value


_VALUE_FNS = {MC: _mc_value, BC: _bc_value, MAC: _mac_value}


def rate_value(mode: str, params: SystemParams, altitude_m, half_beamwidth_rad):
    """Per-cell spectral efficiency in bps/Hz at arbitrary operating points.

    Altitude and half-beamwidth are scalars or numpy arrays, broadcast
    against each other. Two scalars give a Python float, anything else an
    array of the broadcast shape. Every element must lie in the model
    domain (H > 0, 0 < theta < pi/2) and give a finite rate; one that does
    not raises ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    h = np.asarray(altitude_m, dtype=float)
    theta = np.asarray(half_beamwidth_rad, dtype=float)
    _check_domain(h, theta)
    with np.errstate(all="ignore"):
        value = _VALUE_FNS[mode](params, h, theta)
    if np.ndim(value) == 0:
        value = float(value)
        if math.isfinite(value):
            return value
    elif np.isfinite(value).all():
        return value
    bad = np.argmin(np.isfinite(value))
    h, theta = np.broadcast_arrays(h, theta)
    raise ValueError(f"{mode} rate is not finite at altitude {h.flat[bad]}, "
                     f"half-beamwidth {theta.flat[bad]}")


def cell_edge_rate_mc(params: SystemParams, vars: DeploymentVars) -> float:
    """Link spectral efficiency of the farthest covered terminal (bps/Hz).

    This rate dimensions multicast delivery: every terminal in the cell
    decodes at least this fast.
    """
    return float(_edge_rate(params, vars.altitude_m, vars.half_beamwidth_rad))
