"""Command-line front end: optimize, sweep, simulate, plan.

Global flags come before the subcommand:

    uavcell --config params.json [--out DIR] [--seed N] <command> [options]

Reports are key=value lines on stdout; tabular outputs are CSV files under
--out. Exit codes: 0 success, 2 configuration/usage error, 3 simulation gap
above tolerance.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .config import SNR_SCALE_KEYS, Config, ConfigError, load_config
from .geometry import coverage_radius  # unused; perfbench/spans.py wraps it here
from .mission import PlanTooLarge, assemble_plan
from .montecarlo import (MAX_SIM_REALIZATIONS, MAX_SIM_TERMINALS, SimSpec, expected_terminals,
                         simulate_rate)
from .optimize import optimize
from .params import DeploymentVars
from .rates import MAC, MC, MODES, rate_value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GAP = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a whole optimize command."""
    parser = argparse.ArgumentParser(
        prog="uavcell",
        description="Altitude/beamwidth tradeoff tools for a UAV-mounted aerial cell")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="directory for CSV outputs")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="closed-rule altitude + beamwidth search")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--tol", type=float, default=1e-4,
                   help="beamwidth search tolerance, radians")
    p.add_argument("--csv", action="store_true", help="also write the search trace CSV")

    p = sub.add_parser("sweep", help="tabulate the rate along one variable")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--var", required=True, choices=("h", "theta"))
    p.add_argument("--range", required=True, metavar="LO:HI:N", dest="sweep_range")
    p.add_argument("--fixed-h", type=float, default=None,
                   help="altitude when sweeping theta (default: box midpoint)")
    p.add_argument("--fixed-theta", type=float, default=None,
                   help="beamwidth when sweeping h (default: box midpoint)")
    p.add_argument("--with-sim", action="store_true",
                   help="add an empirical Monte Carlo column")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--count-model", choices=("poisson", "fixed"), default="poisson")

    p = sub.add_parser("simulate", help="Monte Carlo check of one operating point")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--altitude", type=float, default=None,
                   help="operating altitude (default: box midpoint)")
    p.add_argument("--theta", type=float, default=None,
                   help="operating half-beamwidth (default: box midpoint)")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--count-model", choices=("poisson", "fixed"), default="poisson")
    p.add_argument("--gap-tol", type=float, default=0.05,
                   help="exit 3 when |empirical-analytic|/analytic exceeds this")
    p.add_argument("--csv", action="store_true", help="write per-realization CSV")

    p = sub.add_parser("plan", help="hex layout + visiting tour + hover schedule")
    p.add_argument("--mode", required=True, choices=MODES)
    return parser


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # numpy scalars pass the isinstance check but repr as np.float64(...)
        return repr(float(value))
    return str(value)


def _report(pairs):
    for key, value in pairs:
        print(f"{key}={_fmt(value)}")


def _distinct_reprs(values: np.ndarray):
    """The repr of each value of a float64 array, lazily: each distinct bit
    pattern is formatted once and its text looked up per row, since lattice
    coordinates repeat down a plan. Keyed on the bits, not on ==, so 0.0 and
    -0.0 keep their own text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return iter(texts[inverse])


def _write_csv(path: Path, header, columns, seed=None):
    # csv module dialect, \r\n line ends. Columns hold each cell's text, as
    # the repr of a Python number (arrays go through .tolist() or
    # _distinct_reprs): the repr of a numpy scalar is np.float64(...)
    rows = map(",".join, zip(*columns))
    with open(path, "w", newline="") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write("\r\n".join([",".join(header), *rows]))
        fh.write("\r\n")


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range: expected LO:HI:N, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"range: expected LO:HI:N with numeric fields, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"range: LO and HI must be finite, got {text!r}")
    if n < 2:
        raise ConfigError(f"range: need at least 2 points, got {n}")
    if not lo < hi:
        raise ConfigError(f"range: need LO < HI, got {text!r}")
    return lo, hi, n


def _midpoint(lo: float, hi: float) -> float:
    """The middle of [lo, hi], finite for any finite bounds: the default
    operating point. Where (lo + hi) / 2 does not overflow and both bounds
    are normal floats, it is the same float."""
    return lo / 2 + hi / 2


def _sim_spec(args, seed: int, params, points) -> SimSpec:
    """The simulation of each operating point in points, within the
    realization cap and the terminal budget of the whole command."""
    if args.realizations < 1:
        raise ConfigError(f"--realizations: need at least 1, got {args.realizations}")
    realizations = args.realizations * len(points)
    if realizations > MAX_SIM_REALIZATIONS:
        raise ConfigError(
            f"--realizations: {realizations:,} realizations exceed the Monte Carlo cap of "
            f"{MAX_SIM_REALIZATIONS:,} per command (--realizations={args.realizations} at "
            f"{len(points)} operating point(s)); lower --realizations")
    spec = SimSpec(mode=args.mode, realizations=args.realizations, seed=seed,
                   count_model=args.count_model)
    total = sum(expected_terminals(params, vars, spec) for vars in points)
    if not total <= MAX_SIM_TERMINALS:
        raise ConfigError(
            f"--realizations/density_per_m2: {total:.3g} expected terminals exceed the "
            f"Monte Carlo budget of {MAX_SIM_TERMINALS:,} (--realizations="
            f"{args.realizations}, density_per_m2={params.density_per_m2}); lower either, "
            "or simulate smaller cells")
    return spec


def cmd_optimize(cfg: Config, args, out_dir: Path) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol: must be finite and > 0, got {args.tol}")
    params = cfg.system_params()
    box = cfg.deployment_box()
    result = optimize(args.mode, params, box, tol=args.tol)
    _report([
        ("mode", result.mode),
        ("h_star_m", result.h_star_m),
        ("theta_star_rad", result.theta_star_rad),
        ("theta_star_deg", math.degrees(result.theta_star_rad)),
        ("objective_bps_hz", result.objective_bps_hz),
        ("method", result.method),
        ("h_indifferent", result.h_indifferent),
    ])
    if args.csv:
        path = out_dir / f"optimize_{result.mode}_trace.csv"
        h, theta, value = result.trace
        _write_csv(path, ("h_m", "theta_rad", "value_bps_hz"),
                   [_distinct_reprs(h), map(repr, theta.tolist()),
                    map(repr, value.tolist())])
        print(f"trace_csv={path}")
    return EXIT_OK


def cmd_sweep(cfg: Config, args, out_dir: Path, seed: int) -> int:
    params = cfg.system_params()
    lo, hi, n = _parse_range(args.sweep_range)
    if args.var == "theta":
        if not (lo > 0.0 and hi < math.pi / 2):
            raise ConfigError(f"range: theta sweep must lie inside (0, pi/2), got {lo}:{hi}")
        fixed = args.fixed_h if args.fixed_h is not None else _midpoint(cfg.h_min_m, cfg.h_max_m)
        if not 0.0 < fixed < math.inf:
            raise ConfigError(f"fixed-h: must be finite and > 0, got {fixed}")
    else:
        if lo <= 0.0:
            raise ConfigError(f"range: altitude sweep must be positive, got {lo}:{hi}")
        fixed = (args.fixed_theta if args.fixed_theta is not None
                 else _midpoint(cfg.theta_min_rad, cfg.theta_max_rad))
        if not 0.0 < fixed < math.pi / 2:
            raise ConfigError(f"fixed-theta: must lie inside (0, pi/2), got {fixed}")

    values = np.arange(n) * ((hi - lo) / (n - 1)) + lo
    h, theta = (fixed, values) if args.var == "theta" else (values, fixed)
    columns = [map(repr, values.tolist()),
               map(repr, rate_value(args.mode, params, h, theta).tolist())]
    if args.with_sim:
        points = [DeploymentVars.point(*point) for point in
                  zip(np.broadcast_to(h, n).tolist(), np.broadcast_to(theta, n).tolist())]
        spec = _sim_spec(args, seed, params, points)
        columns.append(map(repr, [simulate_rate(params, point, spec).empirical_mean_bps_hz
                                  for point in points]))

    path = out_dir / f"sweep_{args.mode}_{args.var}.csv"
    if args.with_sim:
        header = ("sweep_value", "analytic_bps_per_hz", "empirical_bps_per_hz")
        _write_csv(path, header, columns, seed=seed)
    else:
        _write_csv(path, ("sweep_value", "rate_bps_per_hz"), columns)
    _report([
        ("mode", args.mode),
        ("var", args.var),
        ("fixed_" + ("h_m" if args.var == "theta" else "theta_rad"), fixed),
        ("rows", n),
        ("sweep_csv", path),
    ])
    return EXIT_OK


def cmd_simulate(cfg: Config, args, out_dir: Path, seed: int) -> int:
    if not (math.isfinite(args.gap_tol) and args.gap_tol >= 0.0):
        raise ConfigError(f"--gap-tol: must be finite and >= 0, got {args.gap_tol}")
    for flag, value, keys, lo, hi in (
            ("--altitude", args.altitude, "h_min_m, h_max_m", cfg.h_min_m, cfg.h_max_m),
            ("--theta", args.theta, "theta_min_rad, theta_max_rad", cfg.theta_min_rad,
             cfg.theta_max_rad)):
        if value is not None and not lo <= value <= hi:
            raise ConfigError(f"{flag}: must lie in [{keys}] = [{lo}, {hi}], got {value}")
    params = cfg.system_params()
    altitude = args.altitude if args.altitude is not None else _midpoint(cfg.h_min_m, cfg.h_max_m)
    theta = (args.theta if args.theta is not None
             else _midpoint(cfg.theta_min_rad, cfg.theta_max_rad))
    vars = cfg.deployment_box().at(altitude_m=altitude, half_beamwidth_rad=theta)
    spec = _sim_spec(args, seed, params, [vars])
    result = simulate_rate(params, vars, spec)
    if result.analytic_bps_hz == 0.0:
        keys = "/".join(SNR_SCALE_KEYS["eta" if args.mode == MAC else "alpha"])
        raise ConfigError(f"{keys}: the {args.mode} closed form underflows to 0 at altitude "
                          f"{altitude}, half-beamwidth {theta}, so the gap to it is undefined")
    stderr = result.empirical_stderr_bps_hz
    _report([
        ("mode", result.mode),
        ("altitude_m", altitude),
        ("half_beamwidth_rad", theta),
        ("realizations", args.realizations),
        ("count_model", args.count_model),
        ("seed", seed),
        ("analytic_bps_hz", result.analytic_bps_hz),
        ("empirical_mean_bps_hz", result.empirical_mean_bps_hz),
        ("empirical_stderr_bps_hz", "n/a" if math.isnan(stderr) else stderr),
        ("relative_gap", result.relative_gap),
        ("gap_tol", args.gap_tol),
    ])
    if args.csv:
        path = out_dir / f"simulate_{result.mode}.csv"
        columns = [map(repr, range(args.realizations)), map(repr, result.gt_counts.tolist()),
                   map(repr, result.per_realization.tolist())]
        _write_csv(path, ("realization_index", "gt_count", "value_bps_per_hz"), columns,
                   seed=seed)
        print(f"realizations_csv={path}")
    if result.relative_gap > args.gap_tol:
        print(f"validation gap {result.relative_gap:.3g} exceeds tolerance "
              f"{args.gap_tol}", file=sys.stderr)
        return EXIT_GAP
    return EXIT_OK


def cmd_plan(cfg: Config, args, out_dir: Path) -> int:
    if cfg.area_width_m is None or cfg.area_height_m is None:
        raise ConfigError("area_width_m: plan needs rectangle dims "
                          "(area_width_m and area_height_m)")
    if cfg.uav_speed_mps is None:
        raise ConfigError("uav_speed_mps: required for plan")
    payload_key = "file_size_bits" if args.mode == MC else "period_s"
    payload = getattr(cfg, payload_key)
    if payload is None:
        raise ConfigError(f"{payload_key}: required for plan --mode {args.mode}")

    params = cfg.system_params()
    box = cfg.deployment_box()
    opt = optimize(args.mode, params, box)
    vars = box.at(altitude_m=opt.h_star_m, half_beamwidth_rad=opt.theta_star_rad)
    # a time that overflows is reported below by its key, not by a numpy warning
    with np.errstate(over="ignore"):
        try:
            plan = assemble_plan(params, vars, args.mode, payload, cfg.uav_speed_mps,
                                 (cfg.area_width_m, cfg.area_height_m))
        except PlanTooLarge as exc:
            raise ConfigError(f"area_width_m/area_height_m: {exc} at the {args.mode} optimum;"
                              " shrink the area or widen the box toward larger cells") from exc
        hover_total = float(plan.hover_times_s.sum())
        # hover, fly, hover, ... summed in visiting order (cumsum adds in sequence)
        times = np.empty(2 * len(plan.centers) - 1)
        times[0::2] = plan.hover_times_s
        times[1::2] = np.hypot(*np.diff(plan.centers, axis=0).T) / cfg.uav_speed_mps
        cumulative = np.cumsum(times)[0::2]
    # the completion time bounds every other time, the cumulative column included;
    # hover/fly needs a tour of positive length
    if not math.isfinite(plan.fly_time_s):
        raise ConfigError(f"uav_speed_mps: flying time is not finite at {cfg.uav_speed_mps}")
    if not math.isfinite(plan.completion_time_s):
        raise ConfigError(f"{payload_key}: mission time is not finite at {payload}")
    if plan.tour_length_m > 0.0 and not math.isfinite(plan.hover_dominance):
        raise ConfigError(f"{payload_key}/uav_speed_mps: hover/fly is not finite at "
                          f"{payload} and {cfg.uav_speed_mps}")
    columns = [map(repr, range(len(plan.centers))), *map(_distinct_reprs, plan.centers.T),
               _distinct_reprs(plan.hover_times_s), map(repr, cumulative.tolist())]
    path = out_dir / f"plan_{args.mode}.csv"
    _write_csv(path, ("cell_index", "x_m", "y_m", "hover_s", "cumulative_s"), columns)

    _report([
        ("mode", args.mode),
        ("h_m", opt.h_star_m),
        ("theta_rad", opt.theta_star_rad),
        ("n_cells", len(plan.centers)),
        ("tour_length_m", plan.tour_length_m),
        ("hover_total_s", hover_total),
        ("fly_time_s", plan.fly_time_s),
        ("completion_time_s", plan.completion_time_s),
        # a one-cell plan does not fly, so hover/fly has no value
        ("hover_dominance", "n/a" if plan.tour_length_m == 0.0 else plan.hover_dominance),
        ("plan_csv", path),
    ])
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg.seed
        if args.command == "optimize":
            return cmd_optimize(cfg, args, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, args, out_dir, seed)
        if args.command == "simulate":
            return cmd_simulate(cfg, args, out_dir, seed)
        if args.command == "plan":
            return cmd_plan(cfg, args, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
