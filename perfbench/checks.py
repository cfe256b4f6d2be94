"""Checks of every command's report and CSV against values computed apart
from the program (oracle.py) and against properties any right answer has.

check() returns a list of problems; an empty list means the output is right.
Tolerances are relative. Each one is tight enough that a reported value
0.1 % off fails, and loose enough for the double-precision differences
between a closed form and a quadrature.
"""
from __future__ import annotations

import csv
import io
import math
import random
import zlib

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import t as student_t

from oracle import LN2, Link

RATE_RTOL = 1e-6        # closed form against quadrature or link budget
EXACT_RTOL = 1e-9       # values the program derives by plain arithmetic
SAMPLED_ROWS = 24       # sweep rows compared with the oracle, plus both ends
COVERAGE_POINTS = 2000  # seeded points of the rectangle that must be covered
FALSE_ALARM = 1e-9      # chance that a right simulate mean fails its t test


class Problems(list):
    def close(self, what, got, want, rtol):
        if not abs(got - want) <= rtol * abs(want):
            self.append(f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})")

    def expect(self, ok, message):
        if not ok:
            self.append(message)


def parse_report(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(
        "".join(line for line in text.splitlines(True) if not line.startswith("#")))))
    return rows[0], rows[1:]


def _finite_everywhere(problems: Problems, where: str, cells):
    for cell in cells:
        token = cell.strip().lower()
        if token.lstrip("+-") in ("nan", "inf", "infinity"):
            problems.append(f"{where}: non-finite value {cell!r}")
            return
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            problems.append(f"{where}: non-finite value {cell!r}")
            return


def check(command, cfg: dict, link: Link, rc: int, stdout: str, files: dict,
          sample_key: str) -> list:
    problems = Problems()
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
        return problems
    report = parse_report(stdout)
    _finite_everywhere(problems, "report", report.values())
    tables = {}
    for name, text in files.items():
        header, rows = parse_csv(text)
        _finite_everywhere(problems, name, (cell for row in rows for cell in row))
        tables[name] = (header, rows)
    try:
        _CHECKS[command.kind](problems, command, cfg, link, report, tables, sample_key)
    except (KeyError, ValueError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def _only_table(tables, prefix):
    names = [name for name in tables if name.startswith(prefix)]
    if len(names) != 1:
        raise ValueError(f"expected one {prefix}*.csv, got {sorted(tables)}")
    return tables[names[0]]


def _optimum(problems, mode, cfg, link, h, theta, objective, tol, indifferent):
    """The altitude rule, the objective's value, and that no point of an
    independent dense beamwidth scan beats it by more than the search
    tolerance allows."""
    h_rule = {"mc": cfg["h_max_m"], "bc": cfg["h_min_m"], "mac": cfg["h_min_m"]}[mode]
    problems.close(f"{mode} altitude rule", h, h_rule, 0.0)
    if indifferent is not None:
        problems.expect(indifferent == (mode == "mac"),
                        f"{mode}: h_indifferent={indifferent}, expected {mode == 'mac'}")
    problems.expect(cfg["theta_min_rad"] <= theta <= cfg["theta_max_rad"],
                    f"theta* {theta} outside the box")
    if objective is not None:
        problems.close(f"{mode} objective at ({h}, {theta})", objective,
                       link.rate(mode, h, theta), RATE_RTOL)
    thetas, values = link.dense_scan(mode, h, cfg["theta_min_rad"], cfg["theta_max_rad"])
    best = int(np.argmax(values))
    neighbours = [i for i in (best - 1, best + 1) if 0 <= i < len(values)]
    slope = max(abs(values[i] - values[best]) / abs(thetas[i] - thetas[best])
                for i in neighbours)
    value = link.rate(mode, h, theta) if objective is None else objective
    floor = values[best] - tol * slope - RATE_RTOL * abs(values[best])
    problems.expect(value >= floor,
                    f"{mode} optimum {value!r} below dense-scan best {values[best]!r}")


def _check_optimize(problems, command, cfg, link, report, tables, sample_key):
    problems.expect(report["mode"] == command.mode, f"mode {report['mode']}")
    problems.expect(report["method"] == "closed-rule", f"method {report['method']}")
    theta = float(report["theta_star_rad"])
    problems.close("theta_star_deg", float(report["theta_star_deg"]),
                   math.degrees(theta), EXACT_RTOL)
    _optimum(problems, command.mode, cfg, link, float(report["h_star_m"]), theta,
             float(report["objective_bps_hz"]), command.meta["tol"],
             report["h_indifferent"] == "true")


def _grid(meta):
    lo, hi, rows = meta["lo"], meta["hi"], meta["rows"]
    return [lo + i * (hi - lo) / (rows - 1) for i in range(rows)]


def _point(meta, value):
    return (meta["fixed"], value) if meta["var"] == "theta" else (value, meta["fixed"])


def _check_sweep_common(problems, command, report, rows):
    meta = command.meta
    problems.expect(report["rows"] == str(meta["rows"]), f"rows={report['rows']}")
    problems.expect(len(rows) == meta["rows"], f"{len(rows)} CSV rows, expected {meta['rows']}")
    fixed_key = "fixed_h_m" if meta["var"] == "theta" else "fixed_theta_rad"
    problems.close(fixed_key, float(report[fixed_key]), meta["fixed"], 0.0)
    for i, (row, value) in enumerate(zip(rows, _grid(meta))):
        if abs(float(row[0]) - value) > EXACT_RTOL * abs(value):
            problems.append(f"row {i}: sweep value {row[0]}, expected {value!r}")
            break


def _check_sweep(problems, command, cfg, link, report, tables, sample_key):
    header, rows = _only_table(tables, "sweep_")
    problems.expect(header == ["sweep_value", "rate_bps_per_hz"], f"header {header}")
    _check_sweep_common(problems, command, report, rows)
    picks = random.Random(sample_key).sample(range(1, len(rows) - 1), SAMPLED_ROWS)
    for i in [0, len(rows) - 1, *picks]:
        h, theta = _point(command.meta, float(rows[i][0]))
        problems.close(f"{command.mode} rate at row {i} ({h}, {theta})",
                       float(rows[i][1]), link.rate(command.mode, h, theta), RATE_RTOL)


def _check_sweep_sim(problems, command, cfg, link, report, tables, sample_key):
    header, rows = _only_table(tables, "sweep_")
    problems.expect(header == ["sweep_value", "analytic_bps_per_hz", "empirical_bps_per_hz"],
                    f"header {header}")
    _check_sweep_common(problems, command, report, rows)
    for i, row in enumerate(rows):
        h, theta = _point(command.meta, float(row[0]))
        want = link.rate(command.mode, h, theta)
        problems.close(f"{command.mode} analytic at row {i}", float(row[1]), want, RATE_RTOL)
        problems.close(f"{command.mode} empirical at row {i}", float(row[2]), want,
                       command.meta["gap_tol"])


def _realization_bounds(mode, link, h, theta, count):
    """Range a single realization's value can take, from the edge and the
    centre of the coverage disk. An mc realization serves all `count`
    terminals at one common rate, which no sampled terminal can push below
    the edge rate or above the centre rate."""
    r2 = (h * math.tan(theta)) ** 2
    if mode == "mc":
        return (count * math.log1p(link.downlink_snr(h, theta, r2)) / LN2,
                count * math.log1p(link.downlink_snr(h, theta, 0.0)) / LN2)
    if mode == "bc":
        snr = lambda d2: link.downlink_snr(h, theta, d2)
    else:  # mac: every one of the `count` terminals holds a 1/count share
        c = link.uplink_snr_scale(theta, count)
        snr = lambda d2: c / (h * h + d2)
    return math.log1p(snr(r2)) / LN2, math.log1p(snr(0.0)) / LN2


def _check_simulate(problems, command, cfg, link, report, tables, sample_key):
    meta, mode = command.meta, command.mode
    h, theta = meta["altitude"], meta["theta"]
    problems.close("altitude_m", float(report["altitude_m"]), h, 0.0)
    problems.close("half_beamwidth_rad", float(report["half_beamwidth_rad"]), theta, 0.0)
    want = link.rate(mode, h, theta)
    analytic = float(report["analytic_bps_hz"])
    mean = float(report["empirical_mean_bps_hz"])
    stderr = float(report["empirical_stderr_bps_hz"])
    problems.close(f"{mode} analytic", analytic, want, RATE_RTOL)
    problems.close(f"{mode} empirical mean", mean, want, meta["gap_tol"])
    # the standard error is itself estimated from few realizations, so the
    # limit is Student's t quantile, not a normal one
    limit = student_t.isf(FALSE_ALARM / 2, df=meta["realizations"] - 1)
    problems.expect(abs(mean - want) <= limit * stderr,
                    f"{mode} empirical mean {mean!r} is more than {limit:.3g} standard "
                    f"errors ({stderr!r}) from {want!r}")
    problems.close("relative_gap", float(report["relative_gap"]),
                   abs(mean - analytic) / analytic, EXACT_RTOL)

    header, rows = _only_table(tables, "simulate_")
    problems.expect(header == ["realization_index", "gt_count", "value_bps_per_hz"],
                    f"header {header}")
    problems.expect(len(rows) == meta["realizations"],
                    f"{len(rows)} realizations, expected {meta['realizations']}")
    counts = np.array([int(row[1]) for row in rows])
    values = np.array([float(row[2]) for row in rows])
    problems.expect([int(row[0]) for row in rows] == list(range(len(rows))),
                    "realization indices out of order")
    problems.close("mean of realizations", float(np.mean(values)), mean, EXACT_RTOL)
    problems.close("stderr of realizations",
                   float(np.std(values, ddof=1) / math.sqrt(len(values))), stderr, 1e-6)
    for i, (count, value) in enumerate(zip(counts, values)):
        lo, hi = (0.0, 0.0) if count == 0 else _realization_bounds(mode, link, h, theta, count)
        if not lo * (1 - EXACT_RTOL) <= value <= hi * (1 + EXACT_RTOL):
            problems.append(f"{mode} realization {i}: {value!r} outside [{lo!r}, {hi!r}]")
            break


def _check_plan(problems, command, cfg, link, report, tables, sample_key):
    mode = command.mode
    h, theta = float(report["h_m"]), float(report["theta_rad"])
    _optimum(problems, mode, cfg, link, h, theta, None, 1e-4, None)  # plan's default tol
    radius = h * math.tan(theta)
    header, rows = _only_table(tables, "plan_")
    problems.expect(header == ["cell_index", "x_m", "y_m", "hover_s", "cumulative_s"],
                    f"header {header}")
    n = len(rows)
    problems.expect(int(report["n_cells"]) == n, f"n_cells={report['n_cells']}, {n} rows")
    problems.expect([int(row[0]) for row in rows] == list(range(n)), "cell indices out of order")
    xy = np.array([[float(row[1]), float(row[2])] for row in rows])
    hover = np.array([float(row[3]) for row in rows])
    cumulative = np.array([float(row[4]) for row in rows])

    # distinct centres, at least a hex pitch apart, covering the rectangle
    tree = cKDTree(xy)
    if n > 1:
        nearest, _ = tree.query(xy, k=2)
        problems.expect(float(nearest[:, 1].min()) >= math.sqrt(3.0) * radius * (1 - 1e-9),
                        f"centres closer than sqrt(3) R: {float(nearest[:, 1].min())!r}")
    width, height = cfg["area_width_m"], cfg["area_height_m"]
    points = np.random.default_rng(zlib.crc32(sample_key.encode())).uniform(
        (0.0, 0.0), (width, height), size=(COVERAGE_POINTS, 2))
    gap, _ = tree.query(points)
    problems.expect(float(gap.max()) <= radius * (1 + 1e-9),
                    f"a point of the area is {float(gap.max())!r} m from every centre, "
                    f"beyond R={radius!r}")

    # tour: closed cycle over the centres in CSV order
    legs = np.hypot(*(np.roll(xy, -1, axis=0) - xy).T)
    tour = float(legs.sum())
    reported = float(report["tour_length_m"])
    problems.close("tour_length_m", reported, tour, EXACT_RTOL)
    problems.expect(reported >= n * math.sqrt(3.0) * radius * (1 - 1e-12) or n == 1,
                    f"tour {reported!r} below the lattice bound n sqrt(3) R")

    speed = cfg["uav_speed_mps"]
    if mode == "mc":
        each = cfg["file_size_bits"] / (cfg["bandwidth_hz"] * link.edge_rate(h, theta))
    else:
        each = cfg["period_s"]
    problems.close("hover_s", float(hover.max()), each, EXACT_RTOL)
    problems.close("hover_s", float(hover.min()), each, EXACT_RTOL)
    hover_total = float(report["hover_total_s"])
    fly = float(report["fly_time_s"])
    problems.close("hover_total_s", hover_total, n * each, EXACT_RTOL)
    problems.close("fly_time_s", fly, tour / speed, EXACT_RTOL)
    problems.close("completion_time_s", float(report["completion_time_s"]),
                   hover_total + fly, EXACT_RTOL)
    problems.close("hover_dominance", float(report["hover_dominance"]),
                   hover_total * speed / tour if tour else math.inf, EXACT_RTOL)
    problems.close("cumulative_s", float(cumulative[-1]),
                   float(hover.sum()) + float(legs[:-1].sum()) / speed, EXACT_RTOL)


_CHECKS = {"optimize": _check_optimize, "sweep": _check_sweep, "sweep_sim": _check_sweep_sim,
           "simulate": _check_simulate, "plan": _check_plan}
