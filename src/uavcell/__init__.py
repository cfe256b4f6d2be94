"""Altitude/beamwidth tradeoff modeling for a UAV-mounted aerial base station.

A UAV hovering at altitude H with a symmetric directional antenna of
half-beamwidth theta covers a ground disk of radius H*tan(theta). Shrinking
theta concentrates antenna gain but covers fewer terminals; this package
provides the closed-form per-cell rates for downlink multicast, downlink
broadcast, and uplink multiple access, the optimizers over (H, theta), a
Monte Carlo validator, and a fly-hover-and-communicate mission planner.
"""
from .params import (G0_DEFAULT, DeploymentVars, DerivedConstants, SystemParams,
                     dbm_to_watts, derived_constants)
from .channel import snr_mac, snr_mc
from .geometry import (DISK, HEXAGON, CellLayout, GtRealization, coverage_radius,
                       hex_contains, make_layout, sample_gts)
from .rates import BC, MAC, MC, MODES, cell_edge_rate_mc, rate_value
from .optimize import OptResult, optimize, optimize_2d_grid, search_1d
from .montecarlo import SimResult, SimSpec, simulate_rate
from .mission import MissionPlan, assemble_plan, layout_centers, plan_tour

__version__ = "0.1.0"

__all__ = [
    "G0_DEFAULT", "SystemParams", "DeploymentVars", "DerivedConstants",
    "derived_constants", "dbm_to_watts", "snr_mc", "snr_mac",
    "HEXAGON", "DISK", "CellLayout", "GtRealization", "coverage_radius",
    "make_layout", "hex_contains", "sample_gts",
    "MC", "BC", "MAC", "MODES", "rate_value", "cell_edge_rate_mc",
    "OptResult", "search_1d", "optimize", "optimize_2d_grid",
    "SimSpec", "SimResult", "simulate_rate",
    "MissionPlan", "layout_centers", "plan_tour", "assemble_plan",
]
