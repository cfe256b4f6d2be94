"""Closed-form per-cell spectral efficiency for the three service modes.

All three expressions are the exact radial integrals of the per-terminal
Shannon rates over one cell, normalized by bandwidth (bps/Hz):

  mc  (multicast)   R = K_s * log2(1 + snr at the cell edge), hexagonal cell
  bc  (broadcast)   R = D(alpha / (theta^2 H^2), tan^2 theta), per-terminal FDMA
  mac (uplink)      R = D(eta tan^2 theta / theta^2, tan^2 theta), free of H

with D(s, c) the disk mean of log2(1 + s/(1+u)), u = (r/H)^2 in [0, c].
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import SQRT3
from .params import DeploymentVars, SystemParams, require_domain

LN2 = math.log(2.0)

MC = "mc"
BC = "bc"
MAC = "mac"
MODES = (MC, BC, MAC)

# ufunc reductions, called without the Python frame of ndarray.min/max
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


def check_domain(altitude_m, half_beamwidth_rad):
    """The operating points as float arrays; params.require_domain refuses
    any outside the model domain, naming the first bad value."""
    h = np.asarray(altitude_m, dtype=float)
    theta = np.asarray(half_beamwidth_rad, dtype=float)
    # min/max propagate NaN, which then fails the comparison like any bad
    # value; an empty array reduces to the identity, which passes
    low_h = float(h) if h.ndim == 0 else _MIN(h, axis=None, initial=math.inf)
    if theta.ndim == 0:
        low = high = float(theta)
    else:
        low = _MIN(theta, axis=None, initial=math.inf)
        high = _MAX(theta, axis=None, initial=-math.inf)
    if not (low_h > 0.0 and low > 0.0 and high < math.pi / 2):
        require_domain(h[~(h > 0.0)], theta[~((theta > 0.0) & (theta < math.pi / 2))])
    return h, theta


def _edge_rate(params: SystemParams, h, theta):
    return np.log1p(params.alpha * np.cos(theta)**2 / (theta**2 * h**2)) / LN2


@np.errstate(all="ignore")
def _mc_value(params: SystemParams, h, theta):
    rho = params.density_per_m2
    return 1.5 * SQRT3 * rho * h**2 * np.tan(theta)**2 * _edge_rate(params, h, theta)


def _disk_mean(s, c):
    """Mean of ln(1 + s/(1+u)) over u in [0, c], the disk average of bc and mac.

    c times it is the integral of 1/(1+u+v) over [0, c] x [0, s], symmetric in s and c:
    with m, M = min, max(s, c) it is m*log1p(M/(1+m)) plus the positive difference
    (1+M)*log1p(m/(1+M)) - log1p(m), whose error is about eps/M; s = 0 gives 0.
    """
    m, big = np.minimum(s, c), np.maximum(s, c)
    return (m * np.log1p(big / (1.0 + m)) + (1.0 + big) * np.log1p(m / (1.0 + big))
            - np.log1p(m)) / c


@np.errstate(all="ignore")
def _bc_value(params: SystemParams, h, theta):
    s = params.alpha / (theta**2 * h**2)
    return _disk_mean(s, np.tan(theta)**2) / LN2


@np.errstate(all="ignore")
def _mac_value(params: SystemParams, h, theta):
    c = np.tan(theta)**2
    value = _disk_mean(params.eta * c / theta**2, c) / LN2
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
    h, theta = check_domain(altitude_m, half_beamwidth_rad)
    value = _VALUE_FNS[mode](params, h, theta)
    if value.ndim == 0:
        value = float(value)
        if math.isfinite(value):
            return value
    elif (-math.inf < _MIN(value, axis=None, initial=math.inf)
          and _MAX(value, axis=None, initial=-math.inf) < math.inf):
        return value  # neither extreme is infinite or NaN: every value is finite
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
