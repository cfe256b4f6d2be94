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

# Boresight coefficient of the symmetric directional antenna model:
# main-lobe gain = g0 / theta^2 for half-beamwidth theta (radians).
G0_DEFAULT = 30000 / 2**2 * (math.pi / 180) ** 2  # ~2.2846, dimensionless


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


class SystemParams(namedtuple("SystemParams", "beta0 bandwidth_hz p_downlink_w p_uplink_w "
                              "noise_psd_w_hz density_per_m2 g0", defaults=(G0_DEFAULT,))):
    """Link-budget constants of the aerial cell, immutable and hashed by value.

    Attributes:
        beta0: channel power gain at the 1 m reference distance.
        bandwidth_hz: system bandwidth W.
        p_downlink_w: UAV transmit power for downlink modes.
        p_uplink_w: per-terminal transmit power for uplink.
        noise_psd_w_hz: noise power spectral density N0.
        density_per_m2: ground-terminal density rho.
        g0: antenna boresight coefficient (gain = g0/theta^2 in the main lobe,
            0 outside it), G0_DEFAULT unless given.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not value > 0.0:
                raise ValueError(f"SystemParams.{name} must be > 0, got {value}")
        return self


class DeploymentVars(namedtuple("DeploymentVars", "altitude_m half_beamwidth_rad h_min_m "
                                "h_max_m theta_min_rad theta_max_rad")):
    """Operating point (altitude, half-beamwidth) together with its feasible box."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.h_min_m <= self.altitude_m <= self.h_max_m:
            raise ValueError(
                f"altitude must satisfy 0 < h_min <= H <= h_max, got "
                f"h_min={self.h_min_m}, H={self.altitude_m}, h_max={self.h_max_m}")
        if not 0.0 < self.theta_min_rad <= self.half_beamwidth_rad:
            raise ValueError(
                f"half-beamwidth must satisfy 0 < theta_min <= theta, got "
                f"theta_min={self.theta_min_rad}, theta={self.half_beamwidth_rad}")
        if not self.half_beamwidth_rad <= self.theta_max_rad < math.pi / 2:
            raise ValueError(
                f"half-beamwidth must satisfy theta <= theta_max < pi/2, got "
                f"theta={self.half_beamwidth_rad}, theta_max={self.theta_max_rad}")
        return self

    @classmethod
    def point(cls, altitude_m: float, half_beamwidth_rad: float) -> "DeploymentVars":
        """Degenerate box around a single operating point, for sweeps."""
        return cls(altitude_m, half_beamwidth_rad,
                   h_min_m=altitude_m, h_max_m=altitude_m,
                   theta_min_rad=half_beamwidth_rad, theta_max_rad=half_beamwidth_rad)

    def at(self, altitude_m=None, half_beamwidth_rad=None) -> "DeploymentVars":
        """Same box, moved to a new operating point (revalidated)."""
        return DeploymentVars(
            self.altitude_m if altitude_m is None else altitude_m,
            self.half_beamwidth_rad if half_beamwidth_rad is None else half_beamwidth_rad,
            self.h_min_m, self.h_max_m, self.theta_min_rad, self.theta_max_rad)


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
    alpha = params.p_downlink_w * params.g0 * params.beta0 / noise_w
    eta = params.p_uplink_w * params.beta0 * params.g0 * params.density_per_m2 * math.pi / noise_w
    return DerivedConstants(alpha=alpha, eta=eta)
