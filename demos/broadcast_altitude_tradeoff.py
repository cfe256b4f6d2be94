"""
Broadcast rate versus altitude, checked by simulation
=====================================================

The broadcast expression says climbing never pays: every meter of altitude
costs SNR at each terminal while the cell (and the crowd sharing the band)
grows. This script walks H upward at a fixed beam, printing the closed form
next to a seeded Monte Carlo estimate over uniformly scattered terminals.
"""
import math

from uavcell import (DeploymentVars, SimSpec, SystemParams, dbm_to_watts,
                     simulate_rate)

params = SystemParams(
    beta0=1.42e-4,
    bandwidth_hz=10e6,
    p_downlink_w=dbm_to_watts(10.0),
    p_uplink_w=dbm_to_watts(-10.0),
    noise_psd_w_hz=dbm_to_watts(-169.0),
    density_per_m2=0.005,
)

theta = math.pi / 10
spec = SimSpec(mode="bc", realizations=100, seed=7)

print(f"broadcast, half-beamwidth {theta:.4f} rad, 100 realizations, seed 7")
print(f"{'H_m':>6} {'analytic':>10} {'empirical':>10} {'stderr':>9} {'gap':>9}")
for h in (100.0, 200.0, 300.0, 400.0, 500.0):
    res = simulate_rate(params, DeploymentVars(h, theta), spec)
    print(f"{h:6.0f} {res.analytic_bps_hz:10.4f} {res.empirical_mean_bps_hz:10.4f}"
          f" {res.empirical_stderr_bps_hz:9.5f} {res.relative_gap:9.2e}")

print("\nmonotone decline, simulation on top of the curve: to broadcast,"
      "\nhover at the floor of the permitted altitude band.")
