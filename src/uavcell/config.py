"""Flat JSON configuration for the command-line workflows.

One JSON object, lowercase snake_case keys, SI units except the dBm power
fields. Angles are radians; theta_min_deg / theta_max_deg are accepted as
variants and converted at load.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .params import (DeploymentVars, DerivedConstantError, SystemParams, dbm_to_watts,
                     derived_constants)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    beta0: float
    bandwidth_hz: float
    p_downlink_dbm: float
    p_uplink_dbm: float
    noise_psd_dbm_hz: float
    density_per_m2: float
    h_min_m: float
    h_max_m: float
    theta_min_rad: float
    theta_max_rad: float
    area_width_m: float | None = None
    area_height_m: float | None = None
    file_size_bits: float | None = None
    period_s: float | None = None
    uav_speed_mps: float | None = None
    seed: int = 0

    def system_params(self) -> SystemParams:
        return SystemParams(
            beta0=self.beta0,
            bandwidth_hz=self.bandwidth_hz,
            p_downlink_w=dbm_to_watts(self.p_downlink_dbm),
            p_uplink_w=dbm_to_watts(self.p_uplink_dbm),
            noise_psd_w_hz=dbm_to_watts(self.noise_psd_dbm_hz),
            density_per_m2=self.density_per_m2,
        )

    def deployment_box(self) -> DeploymentVars:
        """The feasible box, parked at its lower corner."""
        return DeploymentVars(
            altitude_m=self.h_min_m, half_beamwidth_rad=self.theta_min_rad,
            h_min_m=self.h_min_m, h_max_m=self.h_max_m,
            theta_min_rad=self.theta_min_rad, theta_max_rad=self.theta_max_rad)


_DBM = ("p_downlink_dbm", "p_uplink_dbm", "noise_psd_dbm_hz")
_REQUIRED = ("beta0", "bandwidth_hz", *_DBM, "density_per_m2", "h_min_m", "h_max_m")
_OPTIONAL_POSITIVE = ("area_width_m", "area_height_m", "file_size_bits", "period_s",
                      "uav_speed_mps")
# the keys each derived SNR scale depends on
SNR_SCALE_KEYS = {
    "alpha": ("p_downlink_dbm", "beta0", "noise_psd_dbm_hz", "bandwidth_hz"),
    "eta": ("p_uplink_dbm", "beta0", "noise_psd_dbm_hz", "bandwidth_hz", "density_per_m2"),
}
_KNOWN = set(_REQUIRED) | set(_OPTIONAL_POSITIVE) | {
    "theta_min_rad", "theta_max_rad", "theta_min_deg", "theta_max_deg", "seed"}


def _number(raw: dict, key: str) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):  # json accepts Infinity, -Infinity and NaN
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _angle(raw: dict, stem: str) -> float:
    """Read <stem>_rad or <stem>_deg (exactly one of them)."""
    rad_key, deg_key = f"{stem}_rad", f"{stem}_deg"
    if rad_key in raw and deg_key in raw:
        raise ConfigError(f"{rad_key}: give either {rad_key} or {deg_key}, not both")
    if rad_key in raw:
        return _number(raw, rad_key)
    if deg_key in raw:
        return math.radians(_number(raw, deg_key))
    raise ConfigError(f"{rad_key}: missing required key ({rad_key} or {deg_key})")


def load_config(path) -> Config:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object of key: value pairs")
    unknown = sorted(set(raw) - _KNOWN)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    missing = [key for key in _REQUIRED if key not in raw]
    if missing:
        raise ConfigError(f"{missing[0]}: missing required key")
    fields = {key: _number(raw, key) for key in _REQUIRED}
    fields["theta_min_rad"] = _angle(raw, "theta_min")
    fields["theta_max_rad"] = _angle(raw, "theta_max")
    for key in _OPTIONAL_POSITIVE:
        if key in raw:
            fields[key] = _number(raw, key)
    if "seed" in raw:
        seed = raw["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"seed: expected an integer, got {seed!r}")
        if seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {seed}")
        fields["seed"] = seed

    cfg = Config(**fields)
    _validate(cfg)
    return cfg


def _validate(cfg: Config):
    for key in ("beta0", "bandwidth_hz", "density_per_m2", "h_min_m", "h_max_m"):
        if not getattr(cfg, key) > 0.0:
            raise ConfigError(f"{key}: must be > 0, got {getattr(cfg, key)}")
    for key in _OPTIONAL_POSITIVE:
        value = getattr(cfg, key)
        if value is not None and not value > 0.0:
            raise ConfigError(f"{key}: must be > 0, got {value}")
    for key in _DBM:
        dbm = getattr(cfg, key)
        try:
            watts = dbm_to_watts(dbm)
        except OverflowError:
            watts = math.inf
        if not 0.0 < watts < math.inf:
            raise ConfigError(f"{key}: {dbm} dBm is {watts} W, not a positive "
                              "finite power")
    # a tiny noise PSD times a tiny bandwidth underflows to 0 W
    if dbm_to_watts(cfg.noise_psd_dbm_hz) * cfg.bandwidth_hz == 0.0:
        raise ConfigError(f"bandwidth_hz/noise_psd_dbm_hz: the noise power is 0 W (bandwidth_hz="
                          f"{cfg.bandwidth_hz}, noise_psd_dbm_hz={cfg.noise_psd_dbm_hz})")
    try:
        derived_constants(cfg.system_params())
    except DerivedConstantError as exc:
        keys = SNR_SCALE_KEYS[exc.name]
        values = ", ".join(f"{key}={getattr(cfg, key)}" for key in keys)
        raise ConfigError(f"{'/'.join(keys)}: {exc} ({values})") from exc
    if cfg.h_min_m > cfg.h_max_m:
        raise ConfigError(f"h_min_m: must satisfy h_min_m <= h_max_m, got "
                          f"{cfg.h_min_m} > {cfg.h_max_m}")
    if not cfg.theta_min_rad > 0.0:
        raise ConfigError(f"theta_min_rad: must be > 0, got {cfg.theta_min_rad}")
    if cfg.theta_min_rad > cfg.theta_max_rad:
        raise ConfigError(f"theta_min_rad: must satisfy theta_min <= theta_max, got "
                          f"{cfg.theta_min_rad} > {cfg.theta_max_rad}")
    if not cfg.theta_max_rad < math.pi / 2:
        raise ConfigError(f"theta_max_rad: must be < pi/2, got {cfg.theta_max_rad}")
