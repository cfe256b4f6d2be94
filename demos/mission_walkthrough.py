"""
Delivering a file to everyone in a rectangle
============================================

A single rotary-wing platform has to multicast a 10 Gbit image to every
terminal in a 1000 x 800 m block. It cannot light the whole block at once,
so the block is tiled with hexagonal cells; the platform hovers over each
cell center long enough for the slowest (edge) terminal to finish, then
flies to the next center along a short tour.

Watch the hover/fly column. The mission-time model treats flying as free,
which is honest while hovering dominates; as the beam widens the cell count
collapses, hovering shrinks, and the ratio slides below the planner's
trust threshold of 10 (it prints a warning to stderr there).
"""
import contextlib
import io
import math

from uavcell import (DeploymentVars, SystemParams, assemble_plan,
                     cell_edge_rate_mc, dbm_to_watts)

params = SystemParams(
    beta0=1.42e-4,
    bandwidth_hz=10e6,
    p_downlink_w=dbm_to_watts(10.0),
    p_uplink_w=dbm_to_watts(-10.0),
    noise_psd_w_hz=dbm_to_watts(-169.0),
    density_per_m2=0.005,
)

area = (1000.0, 800.0)
file_bits = 1.0e10
speed = 20.0  # m/s
altitude = 100.0

print(f"area {area[0]:.0f} x {area[1]:.0f} m, file {file_bits / 1e9:.0f} Gbit, "
      f"speed {speed:.0f} m/s, H = {altitude:.0f} m\n")
print(f"{'theta_rad':>10} {'cells':>6} {'edge_bps/Hz':>12} {'hover_s':>9} "
      f"{'fly_s':>8} {'total_s':>9} {'hover/fly':>10}")

for theta in (0.3, 0.5, 0.7, 0.9, 1.1):
    vars = DeploymentVars(altitude, theta)
    with contextlib.redirect_stderr(io.StringIO()):  # the table shows the ratio itself
        plan = assemble_plan(params, vars, "mc", file_bits, speed, area)
    edge = cell_edge_rate_mc(params, vars)
    print(f"{theta:10.2f} {len(plan.centers):6d} {edge:12.3f} "
          f"{plan.hover_times_s.sum():9.1f} {plan.fly_time_s:8.1f} "
          f"{plan.completion_time_s:9.1f} {plan.hover_dominance:10.2f}")

print("\nfewer, fatter cells always finish sooner here: the edge link decays"
      "\nonly logarithmically while the cell count falls quadratically. The"
      "\nbeam is capped by hardware, not by this curve, and the last rows"
      "\nshow the hover-dominance assumption fraying as flying catches up.\n")

chosen = 0.7
vars = DeploymentVars(altitude, chosen)
plan = assemble_plan(params, vars, "mc", file_bits, speed, area)
print(f"tour at theta={chosen}: {len(plan.centers)} cells, "
      f"{plan.tour_length_m:.0f} m of flying, first five stops:")
for x, y in plan.centers[:5]:
    print(f"  ({x:7.1f}, {y:7.1f})  r={math.hypot(x, y):7.1f} m from the depot")
