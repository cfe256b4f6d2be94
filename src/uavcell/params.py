"""System parameters and deployment variables for a UAV-mounted aerial base station.

All quantities are kept in SI units internally (watts, Hz, meters, radians).
Power-like config values arrive in dBm and are converted once at the boundary.

uavcell's records are namedtuple subclasses: immutable, compared and hashed
by value, and built without generating code per class. A record's checks run
in its constructor; _replace skips them, except SystemParams._replace.
"""
from __future__ import annotations

import math
from collections import namedtuple

SQRT3 = math.sqrt(3.0)  # hexagon proportions: a cell of circumradius R has area 1.5*SQRT3*R^2

# Boresight coefficient g0 of the symmetric directional antenna model:
# main-lobe gain = g0 / theta^2 for half-beamwidth theta (radians), 0 outside.
G0_DEFAULT = 30000 / 2**2 * (math.pi / 180) ** 2  # ~2.2846, dimensionless


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


class SystemParams(namedtuple("SystemParams", "beta0 bandwidth_hz p_downlink_w p_uplink_w "
                              "noise_psd_w_hz density_per_m2 alpha eta")):
    """Link-budget constants of the aerial cell, immutable and hashed by value.

    Attributes:
        beta0: channel power gain at the 1 m reference distance.
        bandwidth_hz: system bandwidth W.
        p_downlink_w: UAV transmit power for downlink modes.
        p_uplink_w: per-terminal transmit power for uplink.
        noise_psd_w_hz: noise power spectral density N0.
        density_per_m2: ground-terminal density rho.
        alpha, eta: the downlink and uplink SNR scales, which the constructor sets
            from the six above: P_d*g0*beta0/(N0*W) in m^2 and P_u*beta0*g0*rho*pi/(N0*W).
    """

    __slots__ = ()

    def __new__(cls, beta0, bandwidth_hz, p_downlink_w, p_uplink_w, noise_psd_w_hz,
                density_per_m2):
        budget = (beta0, bandwidth_hz, p_downlink_w, p_uplink_w, noise_psd_w_hz, density_per_m2)
        for name, value in zip(cls._fields, budget):
            if not value > 0.0:
                raise ValueError(f"SystemParams.{name} must be > 0, got {value}")
        noise_w = noise_psd_w_hz * bandwidth_hz
        if noise_w == 0.0:
            raise ValueError(f"SystemParams.noise_psd_w_hz * bandwidth_hz underflows to 0: "
                             f"{noise_psd_w_hz} * {bandwidth_hz}")
        alpha = p_downlink_w * G0_DEFAULT * beta0 / noise_w
        eta = p_uplink_w * beta0 * G0_DEFAULT * density_per_m2 * math.pi / noise_w
        for name, value in (("alpha", alpha), ("eta", eta)):
            if not 0.0 < value < math.inf:
                raise DerivedConstantError(name, value)
        return super().__new__(cls, *budget, alpha, eta)

    def __getnewargs__(self):  # pickle and copy pass these to the constructor
        return self[:6]

    def _replace(self, **changes):
        """Rebuilt by the constructor, so that alpha and eta follow the changes."""
        return type(self)(**dict(zip(self._fields, self[:6])) | changes)


class DerivedConstantError(ValueError):
    """A derived SNR scale (alpha or eta) that is not positive and finite."""

    def __init__(self, name: str, value: float):
        super().__init__(f"derived constant {name} must be positive and finite, got {value}")
        self.name = name


def require_domain(altitudes, half_beamwidths) -> None:
    """Refuse points outside the model domain H > 0, 0 < theta < pi/2 (NaN too):
    ValueError names the first bad altitude, else the first bad half-beamwidth."""
    for value in altitudes:
        if not value > 0.0:
            raise ValueError(f"altitude must be > 0, got {value}")
    for value in half_beamwidths:
        if not 0.0 < value < math.pi / 2:
            raise ValueError(f"half-beamwidth must lie in (0, pi/2), got {value}")


class DeploymentVars(namedtuple("DeploymentVars", "altitude_m half_beamwidth_rad")):
    """Operating point: altitude H and half-beamwidth theta, checked by require_domain."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_domain(self[:1], self[1:])
        return self
