"""Unit conversions, parameter containers, derived link constants."""
import copy
import math
import pickle

import pytest

from uavcell import G0_DEFAULT, DeploymentVars, SystemParams, dbm_to_watts, optimize
from uavcell.config import Config
from uavcell.params import DerivedConstantError
from conftest import make_params


def test_dbm_to_watts_known_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-15)
    assert dbm_to_watts(-10.0) == pytest.approx(1e-4, rel=1e-15)
    # noise floor used throughout: -169 dBm/Hz
    assert dbm_to_watts(-169.0) == pytest.approx(1.2589254117941713e-20, rel=1e-15)


def test_default_aperture_gain_constant():
    # 30000/4 * (pi/180)^2, the 2-D fan-beam approximation constant
    assert G0_DEFAULT == pytest.approx(2.2846306484003143, rel=1e-15)


def test_system_params_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_params(beta0=0.0)
    with pytest.raises(ValueError):
        make_params(bandwidth_hz=-1.0)
    with pytest.raises(ValueError):
        make_params(rho=0.0)


def test_records_hold_only_what_their_readers_use():
    assert DeploymentVars._fields == ("altitude_m", "half_beamwidth_rad")
    assert SystemParams._fields == ("beta0", "bandwidth_hz", "p_downlink_w", "p_uplink_w",
                                    "noise_psd_w_hz", "density_per_m2", "alpha", "eta")
    assert len(Config._fields) == 11
    v = DeploymentVars(120.0, 0.4)
    assert (v.altitude_m, v.half_beamwidth_rad) == (120.0, 0.4)


@pytest.mark.parametrize("altitude, theta, message", [
    (0.0, 0.3, "altitude must be > 0, got 0.0"),
    (-1.0, 0.3, "altitude must be > 0, got -1.0"),
    (math.nan, 0.3, "altitude must be > 0, got nan"),
    (100.0, 0.0, r"half-beamwidth must lie in \(0, pi/2\), got 0.0"),
    (100.0, math.pi / 2, r"half-beamwidth must lie in \(0, pi/2\), got 1.5707963267948966"),
    (100.0, math.nan, r"half-beamwidth must lie in \(0, pi/2\), got nan"),
], ids=["h-zero", "h-negative", "h-nan", "theta-zero", "theta-pi/2", "theta-nan"])
def test_deployment_point_checks_the_model_domain(altitude, theta, message):
    with pytest.raises(ValueError, match=message):
        DeploymentVars(altitude, theta)


@pytest.mark.parametrize("h_range, theta_range, message", [
    ((10.0, 5.0), (0.05, 1.5), r"0 < h_min <= h_max, got \[10.0, 5.0\]"),
    ((0.0, 500.0), (0.05, 1.5), r"0 < h_min <= h_max, got \[0.0, 500.0\]"),
    ((math.nan, 500.0), (0.05, 1.5), r"0 < h_min <= h_max, got \[nan, 500.0\]"),
    ((50.0, 500.0), (1.5, 0.05), r"need lo <= hi, got \[1.5, 0.05\]"),
    ((50.0, 500.0), (0.0, 1.5), r"half-beamwidth must lie in \(0, pi/2\), got 0.0"),
    ((50.0, 500.0), (0.05, math.pi / 2), r"\(0, pi/2\), got 1.5707963267948966"),
], ids=["h-reversed", "h-zero", "h-nan", "theta-reversed", "theta-zero", "theta-pi/2"])
def test_optimize_checks_its_ranges(params, h_range, theta_range, message):
    for mode in ("mc", "bc", "mac"):
        with pytest.raises(ValueError, match=message):
            optimize(mode, params, h_range, theta_range)


def test_derived_constants_frozen_values(params):
    # alpha = P_d g0 beta0 / (N0 W); eta = P_u beta0 g0 rho pi / (N0 W)
    assert params.alpha == pytest.approx(25769402.145159453, rel=1e-13)
    assert params.eta == pytest.approx(4047.8482233316995, rel=1e-13)


def test_eta_scales_with_density():
    lo = make_params(rho=0.001)
    hi = make_params(rho=0.01)
    assert lo.eta == pytest.approx(809.5696446663399, rel=1e-13)
    assert hi.eta == pytest.approx(8095.696446663399, rel=1e-13)
    # alpha carries no density dependence
    assert lo.alpha == hi.alpha


def test_params_hashable_and_frozen(params):
    with pytest.raises(Exception):
        params.beta0 = 1.0
    assert hash(make_params()) == hash(params)


@pytest.mark.parametrize("changes, name, value", [
    ({"p_downlink_w": 1e300}, "alpha", "inf"),
    ({"beta0": 1e-318}, "eta", "0.0"),
], ids=["alpha-inf", "eta-zero"])
def test_constructor_refuses_a_bad_snr_scale(changes, name, value):
    with pytest.raises(DerivedConstantError) as exc:
        make_params(**changes)
    assert str(exc.value) == f"derived constant {name} must be positive and finite, got {value}"
    assert exc.value.name == name


def test_constructor_names_a_noise_power_that_underflows():
    # each factor is positive, their product is not
    with pytest.raises(ValueError) as exc:
        SystemParams(1e-4, 1e-200, 1.0, 1.0, 1e-200, 0.01)
    assert not isinstance(exc.value, DerivedConstantError)
    assert str(exc.value) == ("SystemParams.noise_psd_w_hz * bandwidth_hz underflows to 0: "
                              "1e-200 * 1e-200")


def test_replace_rebuilds_alpha_and_eta(params):
    changed = params._replace(density_per_m2=0.01)
    assert changed == make_params(rho=0.01)
    assert changed.eta == pytest.approx(2 * params.eta, rel=1e-13)
    assert params._replace(p_downlink_w=2 * params.p_downlink_w).alpha == 2 * params.alpha
    with pytest.raises(DerivedConstantError):
        params._replace(beta0=1e-318)
    for name in ("alpha", "eta"):
        with pytest.raises(TypeError):
            params._replace(**{name: 1.0})


def test_params_copy_and_pickle_through_the_constructor(params):
    assert copy.copy(params) == params
    assert copy.deepcopy(params) == params
    assert pickle.loads(pickle.dumps(params)) == params
