"""Unit conversions, parameter containers, derived link constants."""
import math

import pytest

from uavcell import G0_DEFAULT, DeploymentVars, dbm_to_watts, derived_constants
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


def test_deployment_box_validation():
    with pytest.raises(ValueError):
        DeploymentVars(altitude_m=10.0, half_beamwidth_rad=0.3,
                       h_min_m=50.0, h_max_m=500.0,
                       theta_min_rad=0.05, theta_max_rad=1.5)  # H below box
    with pytest.raises(ValueError):
        DeploymentVars(altitude_m=100.0, half_beamwidth_rad=0.3,
                       h_min_m=50.0, h_max_m=500.0,
                       theta_min_rad=0.05, theta_max_rad=math.pi / 2)  # open at pi/2
    with pytest.raises(ValueError):
        DeploymentVars.point(100.0, 0.0)


def test_deployment_point_and_at():
    v = DeploymentVars.point(120.0, 0.4)
    assert v.altitude_m == 120.0
    assert v.h_min_m == v.h_max_m == 120.0
    w = v.at(half_beamwidth_rad=0.4)
    assert w.altitude_m == 120.0 and w.half_beamwidth_rad == 0.4


def test_derived_constants_frozen_values(params):
    c = derived_constants(params)
    # alpha = P_d g0 beta0 / (N0 W); eta = P_u beta0 g0 rho pi / (N0 W)
    assert c.alpha == pytest.approx(25769402.145159453, rel=1e-13)
    assert c.eta == pytest.approx(4047.8482233316995, rel=1e-13)


def test_eta_scales_with_density():
    lo = derived_constants(make_params(rho=0.001))
    hi = derived_constants(make_params(rho=0.01))
    assert lo.eta == pytest.approx(809.5696446663399, rel=1e-13)
    assert hi.eta == pytest.approx(8095.696446663399, rel=1e-13)
    # alpha carries no density dependence
    assert lo.alpha == hi.alpha


def test_params_hashable_and_frozen(params):
    with pytest.raises(Exception):
        params.beta0 = 1.0
    assert derived_constants(params) is derived_constants(params)  # cached
