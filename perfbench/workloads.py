"""The three workloads: configs and the fixed command list of one pass.

Every input is drawn from the workload's seed, but each draw is placed so
that the work a command does stays the same from seed to seed: sweeps have a
fixed row count, Monte Carlo operating points are solved for a fixed expected
terminal count at the drawn density, and plan geometry is the same for every
seed. Plan geometry is fixed because nearest-neighbour and 2-opt break the
many exact distance ties of a hex lattice by floating-point rounding: scaling
one lattice by 1 + 1e-4 changed its tour time by about 18 % and its length
ratio by 1 %. So every plan config puts its optimum on a corner of the
deployment box (checked against the oracle after every run),
which fixes the cell radius, and the rectangle is a fixed multiple of it.

Every workload issues all four commands, so that each layer's per-layer
metric is defined on each; the weights differ. bc beamwidths stay at or above
0.05 rad, where the program's closed form is accurate to better than 1e-7.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

SQRT3 = math.sqrt(3.0)
MODES = ("mc", "bc", "mac")
WORKLOADS = ("design-sweep", "mc-validate", "lattice-plan")

SWEEP_ROWS = 2000      # design-sweep rows per sweep
TOUCH_SWEEP_ROWS = 300
GAP_TOL = 0.05         # simulate's default gap tolerance, also used for sweep --with-sim


@dataclass
class Command:
    kind: str           # optimize | sweep | sweep_sim | simulate | plan
    mode: str
    config: str         # key into Workload.configs
    argv: list          # arguments after the subcommand name
    meta: dict = field(default_factory=dict)

    def cli_args(self, config_path: str, out_dir: str) -> list:
        sub = "sweep" if self.kind == "sweep_sim" else self.kind
        return ["--config", config_path, "--out", out_dir, sub, "--mode", self.mode,
                *self.argv]


@dataclass
class Workload:
    configs: dict
    commands: list      # one pass, interleaved round-robin by command kind


def _base(rng: random.Random, rho_ref: float, p_down_ref: float, p_up_ref: float) -> dict:
    return {
        "beta0": 1.42e-4,
        "bandwidth_hz": 1.0e7,
        "p_downlink_dbm": p_down_ref + rng.uniform(-2.0, 2.0),
        "p_uplink_dbm": p_up_ref + rng.uniform(-1.0, 1.0),
        "noise_psd_dbm_hz": -169.0,
        "density_per_m2": rho_ref * rng.uniform(0.8, 1.25),
        "h_min_m": 50.0,
        "h_max_m": 500.0,
        "theta_min_rad": 0.05,
        "theta_max_rad": 1.5,
        "seed": rng.randrange(1, 2**31),
    }


def _interleave(groups: list) -> list:
    """Round-robin over the command kinds, so that every kind is spread
    evenly through the pass."""
    out = []
    while any(groups):
        for group in groups:
            if group:
                out.append(group.pop(0))
    return out


def _radius_for(terminals: float, rho: float, mode: str) -> float:
    area_per_r2 = 1.5 * SQRT3 if mode == "mc" else math.pi  # hexagon for mc
    return math.sqrt(terminals / (rho * area_per_r2))


def sim_config(base: dict) -> dict:
    """A box wide enough for every simulate operating point, which must lie
    inside the config's box."""
    return dict(base, h_min_m=10.0, h_max_m=5000.0)


def _simulate(rng, cfg_name, cfg, mode, terminals, realizations) -> Command:
    """simulate at an operating point holding `terminals` expected terminals."""
    theta = rng.uniform(0.6, 1.0)
    altitude = _radius_for(terminals, cfg["density_per_m2"], mode) / math.tan(theta)
    argv = ["--altitude", repr(altitude), "--theta", repr(theta),
            "--realizations", str(realizations), "--gap-tol", repr(GAP_TOL), "--csv"]
    return Command("simulate", mode, cfg_name, argv,
                   {"altitude": altitude, "theta": theta, "realizations": realizations,
                    "gap_tol": GAP_TOL})


def _sweep(cfg_name, mode, var, lo, hi, rows, fixed) -> Command:
    flag = "--fixed-h" if var == "theta" else "--fixed-theta"
    argv = ["--var", var, "--range", f"{lo!r}:{hi!r}:{rows}", flag, repr(fixed)]
    return Command("sweep", mode, cfg_name, argv,
                   {"var": var, "lo": lo, "hi": hi, "rows": rows, "fixed": fixed})


def _optimize(cfg_name, mode, tol=1e-4) -> Command:
    return Command("optimize", mode, cfg_name, ["--tol", repr(tol)], {"tol": tol})


# Plan geometries, identical for every seed. Each mode's optimum sits on a
# box corner: mc rises in altitude and, below its peak near 1.4 rad, in
# beamwidth (so H* = h_max, theta* = theta_max); bc falls in both (h_min,
# theta_min); mac is flat in altitude and rises below its peak near 1.32
# rad (h_min reported, theta* = theta_max). Width and height are in cell
# radii.
_PLAN_BOXES = {
    "mc": {"h_min_m": 50.0, "h_max_m": 120.0, "theta_min_rad": 0.05, "theta_max_rad": 0.9},
    "bc": {"h_min_m": 300.0, "h_max_m": 600.0, "theta_min_rad": 0.5, "theta_max_rad": 1.2},
    "mac": {"h_min_m": 60.0, "h_max_m": 400.0, "theta_min_rad": 0.05, "theta_max_rad": 1.1},
}
_CORNER = {"mc": ("h_max_m", "theta_max_rad"), "bc": ("h_min_m", "theta_min_rad"),
           "mac": ("h_min_m", "theta_max_rad")}
TOUCH_PLAN = ("mac", 14.25, 9.1)             # mode, width and height in radii: 66 cells
LATTICE_PLANS = (("mc", 26.25, 24.7),        # about 300 cells, 1:1
                 ("bc", 80.25, 26.4),        # about 900 cells, 3:1
                 ("mac", 44.25, 99.2))       # about 1,800 cells, 1:2.2


def _plan_radius(mode: str) -> float:
    box = _PLAN_BOXES[mode]
    h_key, theta_key = _CORNER[mode]
    return box[h_key] * math.tan(box[theta_key])


def _plan(rng, name, mode, width_r, height_r, base) -> tuple:
    radius = _plan_radius(mode)
    cfg = dict(base, **_PLAN_BOXES[mode])
    speed = rng.uniform(15.0, 25.0)
    cfg.update(area_width_m=width_r * radius, area_height_m=height_r * radius,
               uav_speed_mps=speed,
               # hover dominates flying by well over 10x, so plan stays quiet
               period_s=rng.uniform(300.0, 600.0),
               file_size_bits=rng.uniform(2e10, 5e10))
    return cfg, Command("plan", mode, name, [])


def corner_problems(workload: Workload) -> list:
    """Plan configs whose true optimum is off its box corner: their cell
    radius, and so the plan's geometry and cost, would change with the seed.
    Imports the oracle (and scipy) only when called, after the timed part."""
    from oracle import Link

    problems = []
    for command in workload.commands:
        if command.kind != "plan":
            continue
        cfg = workload.configs[command.config]
        h_key, theta_key = _CORNER[command.mode]
        thetas, values = Link(cfg).dense_scan(command.mode, cfg[h_key],
                                              cfg["theta_min_rad"], cfg["theta_max_rad"])
        best = float(thetas[int(np.argmax(values))])
        if best != cfg[theta_key]:
            problems.append(f"{command.config}: {command.mode} optimum {best} is off the "
                            f"corner {cfg[theta_key]}")
    return problems


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {"design-sweep": _design_sweep, "mc-validate": _mc_validate,
            "lattice-plan": _lattice_plan}[name](rng)


# Light use of the layers a workload does not aim at, so that every
# per-layer metric is defined on every workload.
def _touch_sweep(rng, cfg_name, mode) -> Command:
    return _sweep(cfg_name, mode, "theta", 0.05, 1.5, TOUCH_SWEEP_ROWS, rng.uniform(80.0, 400.0))


def _touch_simulates(rng, cfg_name, cfg) -> list:
    # 2,000 x 15 terminals put the 5 % gap tolerance 8 standard errors away
    # for mc, whose realizations vary with the Poisson count alone
    return [_simulate(rng, cfg_name, cfg, mode, 2000.0, 15) for mode in MODES]


def _touch_plan(rng, configs, base) -> Command:
    mode, width_r, height_r = TOUCH_PLAN
    configs["touch_plan"], command = _plan(rng, "touch_plan", mode, width_r, height_r, base)
    return command


def _design_sweep(rng) -> Workload:
    configs = {"A": _base(rng, 0.005, 10.0, -10.0), "B": _base(rng, 0.0012, 18.0, -6.0)}
    kinds = {"optimize": [], "sweep": [], "simulate": [], "plan": []}
    for cfg_name in configs:
        fixed_h = rng.uniform(80.0, 400.0)
        fixed_theta = rng.uniform(0.3, 1.3)
        for mode in MODES:
            kinds["optimize"].append(_optimize(cfg_name, mode))
            kinds["sweep"].append(_sweep(cfg_name, mode, "theta", 0.05, 1.5, SWEEP_ROWS, fixed_h))
            kinds["sweep"].append(_sweep(cfg_name, mode, "h", 50.0, 500.0, SWEEP_ROWS,
                                         fixed_theta))
    configs["sim"] = sim_config(configs["A"])
    kinds["simulate"] += _touch_simulates(rng, "sim", configs["sim"])
    kinds["plan"].append(_touch_plan(rng, configs, configs["A"]))
    return Workload(configs, _interleave(list(kinds.values())))


# (expected terminals, realizations): small counts are bound by the cost of
# each realization, large ones by the cost of each terminal
MC_POINTS = ((300.0, 200), (3000.0, 30), (30000.0, 5))
MC_SIM_RHO = 0.004
SIM_SWEEP = (0.7, 1.0, 6, 16)   # theta range, rows, realizations


def _mc_validate(rng) -> Workload:
    base = _base(rng, MC_SIM_RHO, 12.0, -10.0)
    wide = dict(base, h_min_m=100.0, h_max_m=800.0, theta_min_rad=0.1, theta_max_rad=1.4)
    configs = {"A": base, "wide": wide, "sim": sim_config(base)}
    kinds = {"optimize": [], "simulate": [], "sweep_sim": [], "sweep": [], "plan": []}
    # altitude that keeps the sweep's terminal counts those of the reference
    # density: from ~1,100 hexagon terminals at 0.7 rad to ~4,900 at 1.0 rad
    sweep_h = 400.0 * math.sqrt(MC_SIM_RHO / base["density_per_m2"])
    lo, hi, rows, realizations = SIM_SWEEP
    for mode in MODES:
        kinds["optimize"] += [_optimize("A", mode), _optimize("wide", mode)]
        for terminals, count in MC_POINTS:
            kinds["simulate"].append(_simulate(rng, "sim", base, mode, terminals, count))
        argv = ["--var", "theta", "--range", f"{lo!r}:{hi!r}:{rows}", "--fixed-h",
                repr(sweep_h), "--with-sim", "--realizations", str(realizations)]
        kinds["sweep_sim"].append(Command(
            "sweep_sim", mode, "A", argv,
            {"var": "theta", "lo": lo, "hi": hi, "rows": rows, "fixed": sweep_h,
             "realizations": realizations, "gap_tol": GAP_TOL}))
    kinds["sweep"].append(_touch_sweep(rng, "A", "bc"))
    kinds["plan"].append(_touch_plan(rng, configs, base))
    return Workload(configs, _interleave(list(kinds.values())))


def _lattice_plan(rng) -> Workload:
    base = _base(rng, 0.005, 10.0, -10.0)
    configs = {"A": base}
    kinds = {"plan": [], "optimize": [], "simulate": [], "sweep": []}
    for mode, width_r, height_r in LATTICE_PLANS:
        cfg_name = f"plan_{mode}"
        configs[cfg_name], command = _plan(rng, cfg_name, mode, width_r, height_r, base)
        kinds["plan"].append(command)
    for index in range(4):
        cfg_name = f"opt{index}"
        configs[cfg_name] = dict(base, h_max_m=rng.uniform(300.0, 600.0),
                                 theta_max_rad=rng.uniform(1.35, 1.5))
        for mode in MODES:
            kinds["optimize"].append(_optimize(cfg_name, mode))
    configs["sim"] = sim_config(base)
    kinds["simulate"] += _touch_simulates(rng, "sim", base)
    kinds["sweep"].append(_touch_sweep(rng, "A", "mac"))
    return Workload(configs, _interleave(list(kinds.values())))
