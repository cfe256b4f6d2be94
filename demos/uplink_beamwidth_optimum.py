"""
Uplink beamwidth has one right answer
=====================================

For the uplink multiple-access channel the altitude cancels out of the sum
throughput entirely, leaving a single-variable problem in the beamwidth.
This script sweeps the beam for three terminal densities and then lets the
optimizer loose: the peak sits near 1.324 rad (about 76 degrees) at these
densities. The density enters through the uplink SNR scale, so it moves the
peak too, little here (1.3243 to 1.3239 rad) but to 1.358 rad at 1e-5 per m^2.
"""
import numpy as np

from uavcell import SystemParams, dbm_to_watts, optimize, rate_value


def make_params(rho):
    return SystemParams(
        beta0=1.42e-4,
        bandwidth_hz=10e6,
        p_downlink_w=dbm_to_watts(10.0),
        p_uplink_w=dbm_to_watts(-10.0),
        noise_psd_w_hz=dbm_to_watts(-169.0),
        density_per_m2=rho,
    )


densities = (0.001, 0.005, 0.01)
thetas = np.linspace(0.1, 1.5, 15)

print("uplink sum throughput, bps/Hz (any altitude; it cancels)")
print(f"{'theta_rad':>10}", *(f"rho={rho}".rjust(11) for rho in densities))
curves = [rate_value("mac", make_params(rho), 100.0, thetas) for rho in densities]
for theta, *vals in zip(thetas, *curves):
    print(f"{theta:10.2f}", *(f"{v:11.3f}" for v in vals))

print("\noptimizer verdict per density:")
for rho in densities:
    best = optimize("mac", make_params(rho), h_range=(50.0, 500.0), theta_range=(0.05, 1.5))
    note = "altitude left free" if best.h_indifferent else ""
    print(f"  rho={rho:<6} theta*={best.theta_star_rad:.4f} rad "
          f"({np.degrees(best.theta_star_rad):.2f} deg)  "
          f"{best.objective_bps_hz:8.3f} bps/Hz  {note}")
