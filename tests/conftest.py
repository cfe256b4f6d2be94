import pytest

from uavcell import SystemParams, dbm_to_watts

# verdict lines collected by the acceptance gate, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# measurement setup shared by most tests: 1.42e-4 reference channel gain,
# 10 MHz band, 10 dBm down / -10 dBm up, -169 dBm/Hz noise floor
BETA0 = 1.42e-4
BANDWIDTH_HZ = 1.0e7
P_DOWN_DBM = 10.0
P_UP_DBM = -10.0
N0_DBM_HZ = -169.0
RHO = 0.005


def make_params(rho=RHO, **overrides):
    kwargs = dict(
        beta0=BETA0,
        bandwidth_hz=BANDWIDTH_HZ,
        p_downlink_w=dbm_to_watts(P_DOWN_DBM),
        p_uplink_w=dbm_to_watts(P_UP_DBM),
        noise_psd_w_hz=dbm_to_watts(N0_DBM_HZ),
        density_per_m2=rho,
    )
    kwargs.update(overrides)
    return SystemParams(**kwargs)


@pytest.fixture(scope="session")
def params():
    return make_params()


@pytest.fixture(scope="session")
def box():
    """Feasible deployment region used in the sweeps, as optimize takes it:
    H in [50, 500] m, half-beamwidth in [0.05, 1.5] rad."""
    return (50.0, 500.0), (0.05, 1.5)
