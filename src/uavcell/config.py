"""Flat JSON configuration for the command-line workflows.

One JSON object, lowercase snake_case keys, SI units except the dBm power
fields. Angles are radians; theta_min_deg / theta_max_deg are accepted as
variants and converted at load.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple

from .params import DerivedConstantError, SystemParams, dbm_to_watts


class ConfigError(ValueError):
    pass


class Config(namedtuple("Config", "h_min_m h_max_m theta_min_rad theta_max_rad params "
                        "area_width_m area_height_m file_size_bits period_s uav_speed_mps seed",
                        defaults=(None,) * 5 + (0,))):
    """A loaded config: the deployment box, then params, the link budget in
    SI units that load_config builds once from the config's other required
    values, then the optional values."""

    __slots__ = ()


_DBM = ("p_downlink_dbm", "p_uplink_dbm", "noise_psd_dbm_hz")
# the keys of the link budget, which Config holds only as params
_LINK = ("beta0", "bandwidth_hz", *_DBM, "density_per_m2")
_REQUIRED = (*_LINK, "h_min_m", "h_max_m")
_REQUIRED_SET = frozenset(_REQUIRED)
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
        # unbuffered: the file is read whole, in one call
        with open(path, "rb", buffering=0) as fh:
            raw = json.loads(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object of key: value pairs")
    if not raw.keys() <= _KNOWN:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(raw.keys() - _KNOWN))}")
    if not raw.keys() >= _REQUIRED_SET:
        missing = next(key for key in _REQUIRED if key not in raw)
        raise ConfigError(f"{missing}: missing required key")
    fields = {key: _number(raw, key) for key in _REQUIRED}
    fields["theta_min_rad"] = _angle(raw, "theta_min")
    fields["theta_max_rad"] = _angle(raw, "theta_max")
    for key in _OPTIONAL_POSITIVE:
        if key in raw:
            fields[key] = _number(raw, key)
    seed = fields["seed"] = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed: expected an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    params = _validate(fields)
    for key in _LINK:
        del fields[key]
    return Config(params=params, **fields)


def _validate(fields: dict) -> SystemParams:
    """Check a config's fields; return its link budget in SI units."""
    for key in ("beta0", "bandwidth_hz", "density_per_m2", "h_min_m", "h_max_m"):
        if not fields[key] > 0.0:
            raise ConfigError(f"{key}: must be > 0, got {fields[key]}")
    for key in _OPTIONAL_POSITIVE:
        value = fields.get(key)
        if value is not None and not value > 0.0:
            raise ConfigError(f"{key}: must be > 0, got {value}")
    watts = {}
    for key in _DBM:
        dbm = fields[key]
        try:
            watts[key] = dbm_to_watts(dbm)
        except OverflowError:
            watts[key] = math.inf
        if not 0.0 < watts[key] < math.inf:
            raise ConfigError(f"{key}: {dbm} dBm is {watts[key]} W, not a positive "
                              "finite power")
    # a tiny noise PSD times a tiny bandwidth underflows to 0 W
    if watts["noise_psd_dbm_hz"] * fields["bandwidth_hz"] == 0.0:
        raise ConfigError(f"bandwidth_hz/noise_psd_dbm_hz: the noise power is 0 W (bandwidth_hz="
                          f"{fields['bandwidth_hz']}, noise_psd_dbm_hz="
                          f"{fields['noise_psd_dbm_hz']})")
    try:
        params = SystemParams(
            beta0=fields["beta0"],
            bandwidth_hz=fields["bandwidth_hz"],
            p_downlink_w=watts["p_downlink_dbm"],
            p_uplink_w=watts["p_uplink_dbm"],
            noise_psd_w_hz=watts["noise_psd_dbm_hz"],
            density_per_m2=fields["density_per_m2"],
        )
    except DerivedConstantError as exc:
        keys = SNR_SCALE_KEYS[exc.name]
        values = ", ".join(f"{key}={fields[key]}" for key in keys)
        raise ConfigError(f"{'/'.join(keys)}: {exc} ({values})") from exc
    h_min, h_max = fields["h_min_m"], fields["h_max_m"]
    if h_min > h_max:
        raise ConfigError(f"h_min_m: must satisfy h_min_m <= h_max_m, got {h_min} > {h_max}")
    theta_min, theta_max = fields["theta_min_rad"], fields["theta_max_rad"]
    if not theta_min > 0.0:
        raise ConfigError(f"theta_min_rad: must be > 0, got {theta_min}")
    if theta_min > theta_max:
        raise ConfigError(f"theta_min_rad: must satisfy theta_min <= theta_max, got "
                          f"{theta_min} > {theta_max}")
    if not theta_max < math.pi / 2:
        raise ConfigError(f"theta_max_rad: must be < pi/2, got {theta_max}")
    return params
