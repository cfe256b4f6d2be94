"""Per-terminal receive SNR under the directional antenna and LoS channel,
a reference for the tests: the package's rates integrate these in closed
form, and the Monte Carlo checks evaluate them terminal by terminal.

The UAV points a symmetric directional antenna straight down. A ground
terminal at horizontal distance r from the cell center is inside the main
lobe iff r <= H*tan(theta), and the channel to it is dominated by the LoS
path, h(r) = beta0 / (H^2 + r^2).
"""
from __future__ import annotations

import math

import numpy as np

from uavcell.params import DeploymentVars, SystemParams

# relative slack when checking r against the coverage edge; boundary inclusive
_EDGE_RTOL = 1e-12


def _check_in_cell(r, vars: DeploymentVars):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("distance r must be >= 0")
    edge = vars.altitude_m * math.tan(vars.half_beamwidth_rad)
    if np.any(r > edge * (1.0 + _EDGE_RTOL)):
        raise ValueError(
            f"r={float(np.max(r))} outside coverage radius {edge}; "
            f"terminals beyond H*tan(theta) see no main-lobe gain")
    return r


def snr_mc(r, params: SystemParams, vars: DeploymentVars):
    """Multicast receive SNR at horizontal distance r from the cell center.

    The full bandwidth and downlink power serve one common stream:
    snr = alpha / (theta^2 * (H^2 + r^2)).
    """
    r = _check_in_cell(r, vars)
    h, theta = vars.altitude_m, vars.half_beamwidth_rad
    snr = params.alpha / (theta**2 * (h**2 + r**2))
    return snr if snr.ndim else float(snr)


def snr_mac(r, params: SystemParams, vars: DeploymentVars):
    """Uplink multiple-access SNR of a terminal at distance r.

    Each terminal transmits with power p_uplink in its 1/K' bandwidth share:
    snr = eta * H^2 * tan^2(theta) / (theta^2 * (H^2 + r^2)).
    Invariant under (H, r) -> (c*H, c*r).
    """
    r = _check_in_cell(r, vars)
    h, theta = vars.altitude_m, vars.half_beamwidth_rad
    snr = params.eta * h**2 * math.tan(theta)**2 / (theta**2 * (h**2 + r**2))
    return snr if snr.ndim else float(snr)
