"""System parameters and deployment variables for a UAV-mounted aerial base station.

All quantities are kept in SI units internally (watts, Hz, meters, radians).
Power-like config values arrive in dBm and are converted once at the boundary.

uavcell's records are namedtuple subclasses: immutable, compared and hashed
by value, and built without generating code per class. A record's checks run
in its constructor; _replace copies a record without them.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

# Boresight coefficient g0 of the symmetric directional antenna model:
# main-lobe gain = g0 / theta^2 for half-beamwidth theta (radians), 0 outside.
G0_DEFAULT = 30000 / 2**2 * (math.pi / 180) ** 2  # ~2.2846, dimensionless


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


class SystemParams(namedtuple("SystemParams", "beta0 bandwidth_hz p_downlink_w p_uplink_w "
                              "noise_psd_w_hz density_per_m2")):
    """Link-budget constants of the aerial cell, immutable and hashed by value.

    Attributes:
        beta0: channel power gain at the 1 m reference distance.
        bandwidth_hz: system bandwidth W.
        p_downlink_w: UAV transmit power for downlink modes.
        p_uplink_w: per-terminal transmit power for uplink.
        noise_psd_w_hz: noise power spectral density N0.
        density_per_m2: ground-terminal density rho.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not value > 0.0:
                raise ValueError(f"SystemParams.{name} must be > 0, got {value}")
        return self


class DeploymentVars(namedtuple("DeploymentVars", "altitude_m half_beamwidth_rad")):
    """Operating point: altitude H and half-beamwidth theta, inside the model
    domain H > 0, 0 < theta < pi/2."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.altitude_m > 0.0:
            raise ValueError(f"altitude must be > 0, got {self.altitude_m}")
        if not 0.0 < self.half_beamwidth_rad < math.pi / 2:
            raise ValueError(f"half-beamwidth must lie in (0, pi/2), got "
                             f"{self.half_beamwidth_rad}")
        return self


class DerivedConstants(namedtuple("DerivedConstants", "alpha eta")):
    """Aggregate SNR scales of the link budget.

    alpha = P_d * g0 * beta0 / (N0 * W)      downlink, dimensionless * m^2
    eta   = P_u * beta0 * g0 * rho * pi / (N0 * W)   uplink, dimensionless
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not 0.0 < value < math.inf:
                raise DerivedConstantError(name, value)
        return self


class DerivedConstantError(ValueError):
    """A derived SNR scale (alpha or eta) that is not positive and finite."""

    def __init__(self, name: str, value: float):
        super().__init__(f"derived constant {name} must be positive and finite, got {value}")
        self.name = name


@lru_cache(maxsize=None)
def derived_constants(params: SystemParams) -> DerivedConstants:
    noise_w = params.noise_psd_w_hz * params.bandwidth_hz
    alpha = params.p_downlink_w * G0_DEFAULT * params.beta0 / noise_w
    eta = params.p_uplink_w * params.beta0 * G0_DEFAULT * params.density_per_m2 * math.pi / noise_w
    return DerivedConstants(alpha=alpha, eta=eta)
