"""Command-line front end: optimize, sweep, simulate, plan.

Global flags come before the subcommand:

    uavcell --config params.json [--out DIR] [--seed N] <command> [options]

Reports are key=value lines on stdout; tabular outputs are CSV files under
--out, which is created, parents included, only when a command writes one.
Exit codes: 0 success, 2 configuration/usage error, 3 simulation gap
above tolerance.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import SNR_SCALE_KEYS, Config, ConfigError, load_config
from .geometry import coverage_radius
from .mission import PlanTooLarge, assemble_plan
from .montecarlo import (MAX_SIM_REALIZATIONS, MAX_SIM_TERMINALS, SimSpec, expected_terminals,
                         simulate_rate)
from .optimize import optimize
from .params import DeploymentVars
from .rates import BC, MAC, MC, MODES, rate_value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GAP = 3

# the config key of the altitude that each mode's closed rule picks
_ALTITUDE_KEYS = {MC: "h_max_m", BC: "h_min_m", MAC: "h_min_m"}


# One option table per command-line level: option -> (dest, type, default,
# choices, required, help). A type of None makes a flag, True when given.
_GLOBAL = {"--config": ("config", str, None, None, True, "path to the JSON config"),
           "--out": ("out", str, ".", None, False, "directory for CSV outputs"),
           "--seed": ("seed", int, None, None, False, "override the config seed")}
_MODE = {"--mode": ("mode", str, None, MODES, True, "")}
_SIM = {"--realizations": ("realizations", int, 100, None, False, ""),
        "--count-model": ("count_model", str, "poisson", ("poisson", "fixed"), False, "")}
_COMMANDS = {  # command -> (help, options)
    "optimize": ("closed-rule altitude + beamwidth search", {**_MODE,
        "--tol": ("tol", float, 1e-4, None, False, "beamwidth search tolerance, radians"),
        "--csv": ("csv", None, False, None, False, "also write the search trace CSV")}),
    "sweep": ("tabulate the rate along one variable", {**_MODE,
        "--var": ("var", str, None, ("h", "theta"), True, ""),
        "--range": ("sweep_range", str, None, None, True, ""),
        "--fixed-h": ("fixed_h", float, None, None, False,
                      "altitude when sweeping theta (default: box midpoint)"),
        "--fixed-theta": ("fixed_theta", float, None, None, False,
                          "beamwidth when sweeping h (default: box midpoint)"),
        "--with-sim": ("with_sim", None, False, None, False,
                       "add an empirical Monte Carlo column"),
        **_SIM}),
    "simulate": ("Monte Carlo check of one operating point", {**_MODE,
        "--altitude": ("altitude", float, None, None, False,
                       "operating altitude (default: box midpoint)"),
        "--theta": ("theta", float, None, None, False,
                    "operating half-beamwidth (default: box midpoint)"),
        **_SIM,
        "--gap-tol": ("gap_tol", float, 0.05, None, False,
                      "exit 3 when |empirical-analytic|/analytic exceeds this"),
        "--csv": ("csv", None, False, None, False, "write per-realization CSV")}),
    "plan": ("hex layout + visiting tour + hover schedule", _MODE),
}


def _usage(prog: str, table, full: bool = False) -> str:
    """The usage line of one level; with full, a line of help per option
    and, at the top level, per command after it."""
    rows = []
    for option, (dest, kind, _, choices, required, help) in table.items():
        if kind is not None:  # the value's placeholder, as argparse names it
            option += " " + ("{%s}" % ",".join(choices) if choices
                             else "LO:HI:N" if dest == "sweep_range" else dest.upper())
        rows.append((option, required, help))
    text = " ".join(left if required else f"[{left}]" for left, required, _ in rows)
    if table is _GLOBAL:
        text += " {%s} ..." % ",".join(_COMMANDS)
        rows += [(name, True, help) for name, (help, _) in _COMMANDS.items()]
    text = f"usage: {prog} [-h] {text}\n"
    if full:
        text += "\n" + "".join(f"  {left:<31}{help}".rstrip() + "\n" for left, _, help in
                               [("-h, --help", True, "show this help message and exit"), *rows])
    return text


def _usage_error(prog: str, table, message: str):
    """Exit 2 as argparse does: the usage line, then prog: error: message."""
    sys.stderr.write(f"{_usage(prog, table)}{prog}: error: {message}\n")
    raise SystemExit(EXIT_CONFIG)


def _invalid_choice(value, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _read_options(prog: str, table, argv, index: int, args, extras, command_word=False):
    """Sets args from the options of table in argv[index:], in order, the
    last occurrence winning, and returns where reading stopped. Any other
    token goes to extras, except that with command_word the first one not
    led by "-" ends the reading."""
    def fail(message):
        _usage_error(prog, table, f"argument {option}: {message}")

    for dest, _, default, _, _, _ in table.values():
        setattr(args, dest, default)
    while index < len(argv):
        token = argv[index]
        index += 1
        if token in ("-h", "--help"):
            sys.stdout.write(_usage(prog, table, full=True))
            raise SystemExit(EXIT_OK)
        option, eq, value = token.partition("=")
        if option not in table:
            if command_word and not token.startswith("-"):
                return index - 1
            extras.append(token)
            continue
        dest, kind, _, choices, _, _ = table[option]
        if kind is None and eq:
            fail(f"ignored explicit argument {value!r}")
        if kind is not None and not eq:
            if index == len(argv) or argv[index].startswith("--") and " " not in argv[index]:
                fail("expected one argument")
            value, index = argv[index], index + 1
        try:
            value = True if kind is None else kind(value)
        except ValueError:
            fail(f"invalid {kind.__name__} value: {value!r}")
        if choices and value not in choices:
            fail(_invalid_choice(value, choices))
        setattr(args, dest, value)
    return index


def parse_args(argv) -> SimpleNamespace:
    """The options of argv: the global ones before the command word, the
    command's own after it. A usage error exits 2, worded as argparse words it."""
    args, extras = SimpleNamespace(command=None), []
    index = _read_options("uavcell", _GLOBAL, argv, 0, args, extras, command_word=True)
    levels = [("uavcell", _GLOBAL)]
    if index < len(argv):
        args.command = argv[index]
        if args.command not in _COMMANDS:
            _usage_error("uavcell", _GLOBAL,
                         "argument command: " + _invalid_choice(args.command, _COMMANDS))
        levels.insert(0, (f"uavcell {args.command}", _COMMANDS[args.command][1]))
        _read_options(*levels[0], argv, index + 1, args, extras)
    for prog, table in levels:  # the command's required options first, as argparse
        missing = [option for option, (dest, _, _, _, required, _) in table.items()
                   if required and getattr(args, dest) is None]
        if table is _GLOBAL and args.command is None:
            missing.append("command")
        if missing:
            _usage_error(prog, table, f"the following arguments are required: "
                                      f"{', '.join(missing)}")
    if extras:
        _usage_error("uavcell", _GLOBAL, f"unrecognized arguments: {' '.join(extras)}")
    return args


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # numpy scalars pass the isinstance check but repr as np.float64(...)
        return repr(float(value))
    return str(value)


def _report(pairs):
    print("\n".join([f"{key}={_fmt(value)}" for key, value in pairs]))


# Rows formatted and written at a time: the bytes held at once are bounded
# by this, not by the table.
CSV_CHUNK_ROWS = 8192


def _repr_cells(values: np.ndarray) -> list:
    """The flat indices of the values outside [1e-4, 2**53), 0 aside, nan
    and inf included. orjson writes the same shortest round-trip digits as
    repr but places the exponent elsewhere (1e16 for 1e+16, 0.00001 for
    1e-05) and writes nan and inf as null, so a float outside [1e-4, 1e16),
    0 aside, needs its repr; an int at 2**53 or more may round when written
    as a float. Two reductions clear the common case, a table with none."""
    magnitude = np.abs(values)
    if (magnitude.min(initial=np.inf, where=magnitude != 0.0) >= 1e-4
            and magnitude.max(initial=0.0) < 2.0**53):
        return []
    fine = (magnitude == 0.0) | (magnitude >= 1e-4) & (magnitude < 2.0**53)
    return np.flatnonzero(~fine).tolist()


def _rows_by_table(columns, ints, start: int, stop: int) -> bytes:
    """Rows start to stop of columns as CSV, from one orjson call over their
    row-major float64 table: every len(columns)-th cell end becomes \\r\\n,
    and the ".0" orjson appends to each cell of the int columns (indices
    ints) is cut. Rows with a cell in _repr_cells go by column."""
    import orjson  # only a command that writes a CSV pays for the import
    table = np.empty((stop - start, len(columns)))
    for j, column in enumerate(columns):
        table[:, j] = column[start:stop]
    if _repr_cells(table):
        return _rows_by_column(columns, ints, start, stop)
    text = bytearray(orjson.dumps(table.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    text[-1] = ord(",")  # the closing bracket ends the last cell, as a comma the others
    u = np.frombuffer(text, np.uint8)
    ends = np.flatnonzero(u == ord(",")).reshape(table.shape)
    u[ends[:, -1]] = ord("\n")
    if ints:  # the bytes set to 0 here and the opening bracket are dropped
        u[ends[:, ints, None] - (1, 2)] = 0
        text[0] = 0
        text = text.translate(None, b"\0")
    else:
        text = text[1:]
    return text.replace(b"\n", b"\r\n")


def _rows_by_column(columns, ints, start: int, stop: int) -> bytes:
    """Rows start to stop of columns as CSV, from one orjson call per column:
    ints, written as int64, keep their digits; a float cell in _repr_cells
    takes the repr of its Python number."""
    import orjson
    k = len(columns)
    cells = [b","] * (2 * k * (stop - start))  # cell, separator, cell, ...
    cells[2 * k - 1::2 * k] = [b"\r\n"] * (stop - start)
    for j, column in enumerate(columns):
        values = column[start:stop]
        text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
        cells[2 * j::2 * k] = text[1:-1].split(b",")
        if j not in ints:
            for row in _repr_cells(values):
                cells[2 * (row * k + j)] = repr(values[row].item()).encode()
    return b"".join(cells)


def _write_csv(path: Path, header, columns, seed=None):
    """Writes numeric columns (int or float arrays, or lists of Python
    floats) as CSV, in the csv module's dialect with \\r\\n line ends, each
    cell the repr of its Python number, CSV_CHUNK_ROWS rows at a time."""
    columns = [np.ascontiguousarray(column) for column in columns]  # as orjson takes them
    ints = [j for j, column in enumerate(columns) if column.dtype.kind != "f"]
    # orjson writes an int64 in about 8 ns and the same value as a float64 in
    # about 65, so a table of ints and as many floats or fewer goes by column
    rows = _rows_by_column if 2 * len(ints) >= len(columns) else _rows_by_table
    try:
        try:
            fh = open(path, "wb")
        except FileNotFoundError:  # --out is made when a CSV first needs it
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(path, "wb")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc.strerror or exc}") from exc
    with fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n".encode())
        fh.write(f"{','.join(header)}\r\n".encode())
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            fh.write(rows(columns, ints, start, min(start + CSV_CHUNK_ROWS, len(columns[0]))))


# Rows of one sweep (exits 2 above it, before any array is sized by N). A
# sweep holds 16 B per row, its values and rates, beside one chunk's table
# and text: a fresh 10**7-row sweep took 2.2 to 3.4 s in each mode and
# variable, peaked at 184 MB RSS and wrote a 376 to 389 MB CSV, on a 2-core
# x86 VM.
MAX_SWEEP_ROWS = 10**7


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
    if n > MAX_SWEEP_ROWS:
        raise ConfigError(f"--range: {n:,} rows exceed the sweep cap of {MAX_SWEEP_ROWS:,}; "
                          "lower N")
    if not lo < hi:
        raise ConfigError(f"range: need LO < HI, got {text!r}")
    return lo, hi, n


def _midpoint(lo: float, hi: float) -> float:
    """The middle of [lo, hi], finite for any finite bounds: the default
    operating point. Where (lo + hi) / 2 does not overflow and both bounds
    are normal floats, it is the same float."""
    return lo / 2 + hi / 2


def _check_realizations(args, n_points: int):
    """Refuses --realizations below 1, or above the realization cap of the
    whole command over n_points operating points; checked before any work."""
    if args.realizations < 1:
        raise ConfigError(f"--realizations: need at least 1, got {args.realizations}")
    realizations = args.realizations * n_points
    if realizations > MAX_SIM_REALIZATIONS:
        raise ConfigError(
            f"--realizations: {realizations:,} realizations exceed the Monte Carlo cap of "
            f"{MAX_SIM_REALIZATIONS:,} per command (--realizations={args.realizations} at "
            f"{n_points} operating point(s)); lower --realizations")


def _sim_spec(args, seed: int, params, points) -> SimSpec:
    """The simulation of each operating point in points, within the terminal
    budget of the whole command; _check_realizations has passed."""
    spec = SimSpec(mode=args.mode, realizations=args.realizations, seed=seed,
                   count_model=args.count_model)
    total = sum(expected_terminals(params, vars, spec) for vars in points)
    if not total <= MAX_SIM_TERMINALS:
        raise ConfigError(
            f"--realizations/density_per_m2: {total:.3g} expected terminals exceed the "
            f"Monte Carlo budget of {MAX_SIM_TERMINALS:,} (--realizations="
            f"{args.realizations}, density_per_m2={params.density_per_m2}); lower either, "
            "or simulate smaller cells")
    if spec.count_model == "fixed":  # each realization draws round(mean) terminals
        one = spec._replace(realizations=1)
        for vars in points:
            if round(mean := expected_terminals(params, vars, one)) == 0:
                raise ConfigError(
                    f"--count-model: the fixed count rounds {mean:.3g} expected terminals to 0 "
                    f"at altitude {vars.altitude_m}, half-beamwidth {vars.half_beamwidth_rad}, "
                    "so nothing would be simulated; use --count-model poisson or a larger cell")
    return spec


def _optimum(mode: str, cfg: Config, tol: float = 1e-4):
    """The mode's optimum in the config's box. A rate that is not finite on
    the way names the keys of the point it failed at: the altitude that the
    mode's rule picked, then the beamwidth range."""
    try:
        return optimize(mode, cfg.params, (cfg.h_min_m, cfg.h_max_m),
                        (cfg.theta_min_rad, cfg.theta_max_rad), tol=tol)
    except ValueError as exc:
        raise ConfigError(f"{_ALTITUDE_KEYS[mode]}/theta_min_rad/theta_max_rad: {exc}") from exc


def cmd_optimize(cfg: Config, args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol: must be finite and > 0, got {args.tol}")
    result = _optimum(args.mode, cfg, tol=args.tol)
    pairs = [
        ("mode", result.mode),
        ("h_star_m", result.h_star_m),
        ("theta_star_rad", result.theta_star_rad),
        ("theta_star_deg", math.degrees(result.theta_star_rad)),
        ("objective_bps_hz", result.objective_bps_hz),
        ("method", result.method),
        ("h_indifferent", result.h_indifferent),
    ]
    if args.csv:
        path = Path(args.out, f"optimize_{result.mode}_trace.csv")
        _write_csv(path, ("h_m", "theta_rad", "value_bps_hz"), result.trace)
        pairs.append(("trace_csv", path))
    _report(pairs)
    return EXIT_OK


def cmd_sweep(cfg: Config, args, seed: int) -> int:
    params = cfg.params
    lo, hi, n = _parse_range(args.sweep_range)
    if args.var == "theta":
        if not (lo > 0.0 and hi < math.pi / 2):
            raise ConfigError(f"range: theta sweep must lie inside (0, pi/2), got {lo}:{hi}")
        fixed = args.fixed_h if args.fixed_h is not None else _midpoint(cfg.h_min_m, cfg.h_max_m)
        if not 0.0 < fixed < math.inf:
            raise ConfigError(f"fixed-h: must be finite and > 0, got {fixed}")
        # a rate that is not finite names the altitude's source, then the range
        rate_keys = ("fixed-h" if args.fixed_h is not None else "h_min_m/h_max_m") + "/range"
    else:
        if lo <= 0.0:
            raise ConfigError(f"range: altitude sweep must be positive, got {lo}:{hi}")
        fixed = (args.fixed_theta if args.fixed_theta is not None
                 else _midpoint(cfg.theta_min_rad, cfg.theta_max_rad))
        if not 0.0 < fixed < math.pi / 2:
            raise ConfigError(f"fixed-theta: must lie inside (0, pi/2), got {fixed}")
        rate_keys = "range/" + ("fixed-theta" if args.fixed_theta is not None
                                else "theta_min_rad/theta_max_rad")
    if args.with_sim:
        _check_realizations(args, n)

    # every row lies in [LO, HI], the range checked above: the last one is
    # set to HI, as it may round past it
    values = np.arange(n) * ((hi - lo) / (n - 1)) + lo
    values[-1] = hi
    h, theta = (fixed, values) if args.var == "theta" else (values, fixed)
    # CSV_CHUNK_ROWS rows at a time, so that the kernel's temporaries do not
    # grow with the sweep
    rate = np.empty(n)
    try:
        for start in range(0, n, CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            point = (fixed, values[rows]) if args.var == "theta" else (values[rows], fixed)
            rate[rows] = rate_value(args.mode, params, *point)
    except ValueError as exc:
        raise ConfigError(f"{rate_keys}: {exc}") from exc
    columns = [values, rate]
    if args.with_sim:
        points = [DeploymentVars(*point) for point in
                  zip(np.broadcast_to(h, n).tolist(), np.broadcast_to(theta, n).tolist())]
        spec = _sim_spec(args, seed, params, points)
        columns.append([simulate_rate(params, point, spec).empirical_mean_bps_hz
                        for point in points])

    path = Path(args.out, f"sweep_{args.mode}_{args.var}.csv")
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


def cmd_simulate(cfg: Config, args, seed: int) -> int:
    if not (math.isfinite(args.gap_tol) and args.gap_tol >= 0.0):
        raise ConfigError(f"--gap-tol: must be finite and >= 0, got {args.gap_tol}")
    for flag, value, keys, lo, hi in (
            ("--altitude", args.altitude, "h_min_m, h_max_m", cfg.h_min_m, cfg.h_max_m),
            ("--theta", args.theta, "theta_min_rad, theta_max_rad", cfg.theta_min_rad,
             cfg.theta_max_rad)):
        if value is not None and not lo <= value <= hi:
            raise ConfigError(f"{flag}: must lie in [{keys}] = [{lo}, {hi}], got {value}")
    params = cfg.params
    altitude = args.altitude if args.altitude is not None else _midpoint(cfg.h_min_m, cfg.h_max_m)
    theta = (args.theta if args.theta is not None
             else _midpoint(cfg.theta_min_rad, cfg.theta_max_rad))
    vars = DeploymentVars(altitude, theta)
    _check_realizations(args, 1)
    spec = _sim_spec(args, seed, params, [vars])
    result = simulate_rate(params, vars, spec)
    # a subnormal closed form has too few digits to compare against, like 0
    if result.analytic_bps_hz < sys.float_info.min:
        keys = "/".join(SNR_SCALE_KEYS["eta" if args.mode == MAC else "alpha"])
        raise ConfigError(f"{keys}: the {args.mode} closed form underflows to "
                          f"{result.analytic_bps_hz!r} at altitude {altitude}, half-beamwidth "
                          f"{theta}, so the gap to it is undefined")
    stderr = result.empirical_stderr_bps_hz
    pairs = [
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
    ]
    if args.csv:
        path = Path(args.out, f"simulate_{result.mode}.csv")
        _write_csv(path, ("realization_index", "gt_count", "value_bps_per_hz"),
                   [np.arange(args.realizations), result.gt_counts, result.per_realization],
                   seed=seed)
        pairs.append(("realizations_csv", path))
    _report(pairs)
    if result.relative_gap > args.gap_tol:
        print(f"validation gap {result.relative_gap:.3g} exceeds tolerance "
              f"{args.gap_tol}", file=sys.stderr)
        return EXIT_GAP
    return EXIT_OK


def cmd_plan(cfg: Config, args) -> int:
    if cfg.area_width_m is None or cfg.area_height_m is None:
        raise ConfigError("area_width_m: plan needs rectangle dims "
                          "(area_width_m and area_height_m)")
    if cfg.uav_speed_mps is None:
        raise ConfigError("uav_speed_mps: required for plan")
    payload_key = "file_size_bits" if args.mode == MC else "period_s"
    payload = getattr(cfg, payload_key)
    if payload is None:
        raise ConfigError(f"{payload_key}: required for plan --mode {args.mode}")

    params = cfg.params
    opt = _optimum(args.mode, cfg)
    if math.isinf(coverage_radius(opt.h_star_m, opt.theta_star_rad)):
        raise ConfigError(f"{_ALTITUDE_KEYS[args.mode]}: the cell radius H*tan(theta) "
                          f"overflows at the {args.mode} optimum, H={opt.h_star_m}, "
                          f"theta={opt.theta_star_rad}; one cell would cover the area")
    vars = DeploymentVars(opt.h_star_m, opt.theta_star_rad)
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
    path = Path(args.out, f"plan_{args.mode}.csv")
    _write_csv(path, ("cell_index", "x_m", "y_m", "hover_s", "cumulative_s"),
               [np.arange(len(plan.centers)), *plan.centers.T, plan.hover_times_s, cumulative])

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
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        if args.command == "optimize":
            return cmd_optimize(cfg, args)
        if args.command == "sweep":
            return cmd_sweep(cfg, args, seed)
        if args.command == "simulate":
            return cmd_simulate(cfg, args, seed)
        if args.command == "plan":
            return cmd_plan(cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
