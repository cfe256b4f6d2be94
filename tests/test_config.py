"""Config file loading and validation."""
import json
import math

import pytest

from uavcell.config import ConfigError, load_config

BASE = {
    "beta0": 1.42e-4,
    "bandwidth_hz": 1.0e7,
    "p_downlink_dbm": 10.0,
    "p_uplink_dbm": -10.0,
    "noise_psd_dbm_hz": -169.0,
    "density_per_m2": 0.005,
    "h_min_m": 50.0,
    "h_max_m": 500.0,
    "theta_min_rad": 0.05,
    "theta_max_rad": 1.5,
}


def write_cfg(tmp_path, overrides=None, drop=(), name="cfg.json"):
    raw = {**BASE, **(overrides or {})}
    for key in drop:
        raw.pop(key, None)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_load_basic(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"seed": 11, "uav_speed_mps": 20.0}))
    assert cfg.h_max_m == 500.0
    assert cfg.seed == 11
    assert (cfg.area_width_m, cfg.area_height_m) == (None, None)
    params = cfg.params
    assert params.p_downlink_w == pytest.approx(0.01, rel=1e-15)


def test_degree_variant(tmp_path):
    path = write_cfg(tmp_path, {"theta_max_deg": 60.0}, drop=("theta_max_rad",))
    cfg = load_config(path)
    assert cfg.theta_max_rad == pytest.approx(math.pi / 3, rel=1e-15)


def test_both_angle_variants_rejected(tmp_path):
    path = write_cfg(tmp_path, {"theta_max_deg": 60.0})
    with pytest.raises(ConfigError, match="theta_max"):
        load_config(path)


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError, match="carrier_ghz"):
        load_config(write_cfg(tmp_path, {"carrier_ghz": 2.0}))


def test_missing_key_named(tmp_path):
    with pytest.raises(ConfigError, match="bandwidth_hz"):
        load_config(write_cfg(tmp_path, drop=("bandwidth_hz",)))


def test_theta_max_must_stay_under_right_angle(tmp_path):
    path = write_cfg(tmp_path, {"theta_max_rad": math.pi / 2})
    with pytest.raises(ConfigError, match="theta_max_rad"):
        load_config(path)


def test_altitude_bounds_ordered(tmp_path):
    with pytest.raises(ConfigError, match="h_min_m"):
        load_config(write_cfg(tmp_path, {"h_min_m": 600.0}))


def test_numbers_must_be_numbers(tmp_path):
    with pytest.raises(ConfigError, match="bandwidth_hz"):
        load_config(write_cfg(tmp_path, {"bandwidth_hz": "10 MHz"}))
    with pytest.raises(ConfigError, match="bandwidth_hz"):
        load_config(write_cfg(tmp_path, {"bandwidth_hz": True}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(write_cfg(tmp_path, {"seed": 1.5}))


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("key", ["h_max_m", "p_downlink_dbm", "theta_max_deg",
                                 "area_width_m"])
def test_non_finite_numbers_rejected(tmp_path, key, literal):
    # json parses these literals into floats; none is a usable value
    raw = {k: v for k, v in BASE.items() if not k.startswith("theta_max")}
    text = json.dumps(raw)[:-1] + f', "{key}": {literal}'
    if key != "theta_max_deg":
        text += ', "theta_max_rad": 1.5'
    path = tmp_path / "cfg.json"
    path.write_text(text + "}")
    with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
        load_config(path)


def test_integer_beyond_float_range_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, "h_max_m": 10 ** 400}))
    with pytest.raises(ConfigError, match="h_max_m"):
        load_config(path)


@pytest.mark.parametrize("dbm", [1e6, -1e6])
@pytest.mark.parametrize("key", ["p_downlink_dbm", "p_uplink_dbm", "noise_psd_dbm_hz"])
def test_dbm_beyond_float_power_rejected(tmp_path, key, dbm):
    # 1e6 dBm overflows the conversion to watts, -1e6 dBm underflows to 0 W
    with pytest.raises(ConfigError, match=f"{key}: "):
        load_config(write_cfg(tmp_path, {key: dbm}))


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        load_config(write_cfg(tmp_path, {"seed": -3}))


# every key that the SNR scale of each power key depends on
SNR_SCALE_KEYS = {
    "p_downlink_dbm": "p_downlink_dbm/beta0/noise_psd_dbm_hz/bandwidth_hz",  # alpha
    "p_uplink_dbm": "p_uplink_dbm/beta0/noise_psd_dbm_hz/bandwidth_hz/density_per_m2",  # eta
}


@pytest.mark.parametrize("overrides, key", [
    ({"p_downlink_dbm": 3100.0}, "p_downlink_dbm"),  # alpha = inf
    ({"p_uplink_dbm": 3100.0}, "p_uplink_dbm"),  # eta = inf
    ({"p_downlink_dbm": -3000.0, "noise_psd_dbm_hz": 3000.0}, "p_downlink_dbm"),  # alpha = 0
    ({"beta0": 1e-318}, "p_uplink_dbm"),  # eta = 0, alpha still positive
])
def test_derived_snr_scale_must_be_finite(tmp_path, overrides, key):
    # the message names every key the scale depends on, and each key's value
    keys = SNR_SCALE_KEYS[key]
    with pytest.raises(ConfigError, match=f"^{keys}: ") as info:
        load_config(write_cfg(tmp_path, overrides))
    message = str(info.value)
    assert "altitude" not in message
    for key in keys.split("/"):
        assert f"{key}=" in message


@pytest.mark.parametrize("overrides", [{"bandwidth_hz": 5e-324},
                                       {"bandwidth_hz": 1e-30, "noise_psd_dbm_hz": -3000.0}])
def test_noise_power_underflow_rejected(tmp_path, overrides):
    # each factor is a positive float, but their product is 0 W
    with pytest.raises(ConfigError, match="^bandwidth_hz/noise_psd_dbm_hz: the noise power is 0 "):
        load_config(write_cfg(tmp_path, overrides))


def test_area_keys(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"area_width_m": 1000.0,
                                           "area_height_m": 800.0}))
    assert (cfg.area_width_m, cfg.area_height_m) == (1000.0, 800.0)
    # plan needs the rectangle, so a bare area is an unknown key
    with pytest.raises(ConfigError, match="^unknown config keys: area_m2$"):
        load_config(write_cfg(tmp_path, {"area_m2": 5.0e5}))


def test_malformed_inputs(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(lst)
