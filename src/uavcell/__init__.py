"""Altitude/beamwidth tradeoff modeling for a UAV-mounted aerial base station.

A UAV hovering at altitude H with a symmetric directional antenna of
half-beamwidth theta covers a ground disk of radius H*tan(theta). Shrinking
theta concentrates antenna gain but covers fewer terminals; this package
provides the closed-form per-cell rates for downlink multicast, downlink
broadcast, and uplink multiple access, the optimizers over (H, theta), a
Monte Carlo validator, and a fly-hover-and-communicate mission planner.

`import uavcell` loads params, rates and optimize. The geometry, Monte Carlo
and mission names load their module on first use (PEP 562), so a process
that only optimizes does not compile them. optimize stays eager: the first
import of the uavcell.optimize submodule would rebind the package attribute
`optimize` from the function to the module.
"""
from importlib import import_module

from .params import G0_DEFAULT, DeploymentVars, SystemParams, dbm_to_watts
from .rates import BC, MAC, MC, MODES, cell_edge_rate_mc, rate_value
from .optimize import OptResult, optimize, search_1d

__version__ = "0.1.0"

# exported name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("HEXAGON", "DISK", "CellLayout", "GtRealization", "coverage_radius",
                     "make_layout", "sample_gts"), "geometry"),
    **dict.fromkeys(("SimSpec", "SimResult", "simulate_rate"), "montecarlo"),
    **dict.fromkeys(("MissionPlan", "layout_centers", "plan_tour", "assemble_plan"), "mission"),
}

__all__ = [
    "G0_DEFAULT", "SystemParams", "DeploymentVars", "dbm_to_watts",
    "MC", "BC", "MAC", "MODES", "rate_value", "cell_edge_rate_mc",
    "OptResult", "search_1d", "optimize",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
