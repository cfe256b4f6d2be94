"""Command line front end: reports, CSV artifacts, exit codes."""
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavcell import DeploymentVars, SimSpec, SystemParams, cli, montecarlo
from uavcell.config import load_config
from uavcell.optimize import SCAN_POINTS
from uavcell.rates import MODES, rate_value

BASE = {
    "beta0": 1.42e-4,
    "bandwidth_hz": 1.0e7,
    "p_downlink_dbm": 10.0,
    "p_uplink_dbm": -10.0,
    "noise_psd_dbm_hz": -169.0,
    "density_per_m2": 0.005,
    "h_min_m": 50.0,
    "h_max_m": 500.0,
    "theta_min_rad": 0.05,
    "theta_max_rad": 1.5,
    "area_width_m": 1000.0,
    "area_height_m": 800.0,
    "file_size_bits": 1.0e8,
    "period_s": 60.0,
    "uav_speed_mps": 20.0,
    "seed": 7,
}
# the keys that the downlink SNR scale alpha depends on, as its error names them
ALPHA_KEYS = "p_downlink_dbm/beta0/noise_psd_dbm_hz/bandwidth_hz"


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    return path


def run(cfg_path, out_dir, *argv):
    return cli.main(["--config", str(cfg_path), "--out", str(out_dir), *argv])


def parse_report(captured):
    pairs = {}
    for line in captured.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_optimize_mac_report(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "optimize", "--mode", "mac") == 0
    report = parse_report(capsys.readouterr().out)
    assert report["mode"] == "mac"
    assert report["h_indifferent"] == "true"
    theta = float(report["theta_star_rad"])
    assert abs(theta - 1.3195) <= 0.005
    assert float(report["theta_star_deg"]) == pytest.approx(math.degrees(theta))


def test_optimize_trace_csv(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "optimize", "--mode", "bc", "--csv") == 0
    lines = (tmp_path / "optimize_bc_trace.csv").read_text().splitlines()
    assert lines[0] == "h_m,theta_rad,value_bps_hz"
    assert len(lines) == 1 + 2 * SCAN_POINTS  # header, then two nested scans
    # no numpy scalar reprs may leak into artifacts
    assert "np.float64" not in "".join(lines)


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_optimize_bad_tol_named(cfg_path, tmp_path, capsys, tol):
    assert run(cfg_path, tmp_path, "optimize", "--mode", "mac", "--tol", tol) == 2
    assert "--tol:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1e-16", "1e-300"])
def test_optimize_tiny_tol_terminates(cfg_path, tmp_path, capsys, tol):
    t0 = time.perf_counter()
    assert run(cfg_path, tmp_path, "optimize", "--mode", "mac", "--tol", tol) == 0
    assert time.perf_counter() - t0 < 1.0
    theta = float(parse_report(capsys.readouterr().out)["theta_star_rad"])
    assert abs(theta - 1.3195) <= 0.005


def test_corner_optimum_plans(tmp_path, capsys):
    # mc rises in beamwidth below its peak near 1.4 rad, so theta* is the
    # cap; 0.03 + (0.45 - 0.03) rounds one ulp above it
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(dict(BASE, h_max_m=100.0, theta_min_rad=0.03,
                                    theta_max_rad=0.45)))
    assert run(path, tmp_path, "optimize", "--mode", "mc") == 0
    report = parse_report(capsys.readouterr().out)
    assert (report["h_star_m"], report["theta_star_rad"]) == ("100.0", "0.45")
    assert run(path, tmp_path, "plan", "--mode", "mc") == 0
    report = parse_report(capsys.readouterr().out)
    assert (report["h_m"], report["theta_rad"]) == ("100.0", "0.45")


def _per_row_join(header, columns) -> bytes:
    # the reference: each row joined from the repr of its Python numbers
    rows = [",".join(map(repr, row)) for row in zip(*(np.asarray(c).tolist() for c in columns))]
    return ("\r\n".join([",".join(header), *rows]) + "\r\n").encode()


def test_csv_rows_match_per_row_join(tmp_path):
    # an int64 column, float columns with both zeros, the exponent switch
    # points, a subnormal, 2**53 + 1 (rounds to 2**53) and repeated values, and
    # the strided columns of an (n, 2) array, like plan's x and y
    pairs = np.array([[0.0, 5e-324], [-0.0, 1e+16], [0.1, 5e-324], [-0.0, 0.1], [0.0, 1e+16]])
    columns = [np.arange(-2, 3), np.array([-0.0, 1e-05, 1e+16, 5e-324, 0.1]),
               np.array([5e-324, -0.0, 2**53 + 1, 1e+16, -7.0]), *pairs.T]
    header = ("a", "b", "c", "d", "e")
    cli._write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == _per_row_join(header, columns)
    # one row past a chunk, magnitudes on both sides of the switch points, and
    # a list column as sweep --with-sim passes it
    n = cli.CSV_CHUNK_ROWS + 1
    rng = np.random.default_rng(5)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n)
    columns = [np.arange(n), values, [float(n)] * n]
    cli._write_csv(tmp_path / "t.csv", ("i", "x", "n"), columns, seed=3)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"# seed=3\n" + _per_row_join(("i", "x", "n"), columns))


def _ulp_neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def test_cell_texts_equal_repr(tmp_path):
    # seeded random bit patterns, most with exponents around the formatter's
    # switch points 1e-4 and 1e16, the rest over every finite exponent and
    # the subnormals; each written by both encoders of _write_csv
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64)
    exponents = rng.integers(1023 - 16, 1023 + 56, 950_000, dtype=np.uint64)
    bits[:950_000] = (bits[:950_000] & np.uint64(0x800FFFFFFFFFFFFF)) | (exponents << np.uint64(52))
    bits[-20_000:] &= np.uint64(0x800FFFFFFFFFFFFF)  # subnormals and zeros
    randoms = bits.view(np.float64)
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    floats = np.concatenate([
        randoms[np.isfinite(randoms)],
        _ulp_neighbours(np.concatenate([powers_of_ten, -powers_of_ten])),
        np.ldexp(1.0, np.arange(-1074, 1024)), -np.ldexp(1.0, np.arange(-1074, 1024)),
        _ulp_neighbours(np.array([1e-4, -1e-4, 1e16, -1e16])),
        np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2**53 + 1.0,
                  np.finfo(np.float64).max, np.nan, np.inf, -np.inf]),
    ])
    assert np.count_nonzero((floats > 0) & (floats < 2.2250738585072014e-308)) > 1000
    ints = np.concatenate([rng.integers(-2**63, 2**63, 10_000, dtype=np.int64),
                           np.array([-2**63, -1, 0, 1, 2**63 - 1])])
    # a table of more floats than ints goes through one orjson call over the
    # table, unless a chunk holds a value outside [1e-4, 2**53) other than 0;
    # such chunks, and the other tables, go a column at a time
    magnitude = np.abs(floats)
    plain = floats[(magnitude == 0) | (magnitude >= 1e-4) & (magnitude < 2**53)]
    assert len(plain) > 500_000
    for columns in ([floats], [plain], [np.arange(len(floats)), floats], [ints],
                    [ints >> 11, plain[:len(ints)], plain[-len(ints):]],
                    [ints, plain[:len(ints)], plain[-len(ints):]]):
        header = tuple("abc"[:len(columns)])
        cli._write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == _per_row_join(header, columns)


# values whose orjson text is not their repr, or nearly so, for the
# property test below
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072009e-308, *_ulp_neighbours(np.array([1e-4, -1e-4, 1e16, -1e16])),
                  2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e-5, 1e-7, 100.00001]
SPECIAL_INTS = [0, -1, 2**53 - 1, 2**53, 2**53 + 1, -2**53 - 1, 10**16, -2**63, 2**63 - 1]


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from("if"), min_size=1, max_size=6),
       rows=st.sampled_from([1, 2, 7, cli.CSV_CHUNK_ROWS - 1, cli.CSV_CHUNK_ROWS,
                             cli.CSV_CHUNK_ROWS + 1, 2 * cli.CSV_CHUNK_ROWS + 5]),
       seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**32 - 1),
                                   st.integers(0, len(SPECIAL_FLOATS) - 1)), max_size=30))
def test_csv_bytes_equal_per_row_repr(tmp_path_factory, kinds, rows, seed, specials):
    # random int64 and float64 tables, their magnitudes below 2**52 and, for
    # floats, at 1e-4 or above, with special values placed at drawn cells, on
    # both sides of a chunk boundary
    rng = np.random.default_rng(seed)
    columns = [rng.integers(-2**63, 2**63, rows, dtype=np.int64) >> rng.integers(11, 64, rows)
               if kind == "i" else
               rng.choice([-1.0, 1.0], rows) * rng.uniform(1.0, 10.0, rows)
               * 10.0 ** rng.integers(-4, 15, rows)
               for kind in kinds]
    for column, row, value in specials:
        column %= len(kinds)
        pool = SPECIAL_INTS if kinds[column] == "i" else SPECIAL_FLOATS
        columns[column][row % rows] = pool[value % len(pool)]
    header = tuple(f"c{j}" for j in range(len(kinds)))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    cli._write_csv(path, header, columns)
    assert path.read_bytes() == _per_row_join(header, columns)


def test_csv_memory_does_not_grow_with_rows(tmp_path):
    # the text of one chunk at a time, not of the table, is held at once
    peaks, sizes = [], []
    for rows in (20_000, 200_000):
        columns = [np.arange(rows), np.linspace(0.1, 5e3, rows), np.linspace(-1.0, 7.0, rows)]
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / f"{rows}.csv", ("i", "x", "y"), columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append((tmp_path / f"{rows}.csv").stat().st_size)
    assert abs(peaks[1] - peaks[0]) < sizes[1] / 10, (peaks, sizes)


@pytest.mark.parametrize("mode, var", [("mc", "theta"), ("bc", "theta"), ("bc", "h"),
                                       ("mac", "h")])
def test_sweep_evaluation_memory_is_its_two_columns(cfg_path, tmp_path, monkeypatch, mode, var):
    # the rates are evaluated a chunk of rows at a time: beyond the sweep
    # values and the rates, 8 B per row each, one chunk's temporaries are
    # held, and the rates are those of one call over the whole column
    rows = 400_000
    lo, hi = (50.0, 500.0) if var == "h" else (0.05, 1.5)
    written = []
    monkeypatch.setattr(cli, "_write_csv", lambda path, header, columns: written.append(columns))
    tracemalloc.start()
    try:
        assert run(cfg_path, tmp_path, "sweep", "--mode", mode, "--var", var,
                   "--range", f"{lo}:{hi}:{rows}") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * rows + 1_000_000, peak
    values, rate = written[0]
    fixed_h = (BASE["h_min_m"] + BASE["h_max_m"]) / 2
    fixed_theta = (BASE["theta_min_rad"] + BASE["theta_max_rad"]) / 2
    point = (fixed_h, values) if var == "theta" else (values, fixed_theta)
    assert np.array_equal(rate, rate_value(mode, load_config(cfg_path).params, *point))


def test_sweep_names_its_first_non_finite_row(cfg_path, tmp_path, capsys):
    # no rate is finite at this altitude; the last row, in the second chunk,
    # is HI, inside the domain, so the first row is the one named
    assert run(cfg_path, tmp_path, "sweep", "--mode", "mc", "--var", "theta", "--fixed-h",
               "1e-170", "--range", "0.05:1.5707963267948963:8371") == 2
    assert capsys.readouterr().err == ("config error: fixed-h/range: mc rate is not finite "
                                       "at altitude 1e-170, half-beamwidth 0.05\n")


def _pinned(tmp_path, width, height):
    # a one-point box fixes every mode's cell radius at 100 * tan(0.5) m
    path = tmp_path / f"pinned_{width}x{height}.json"
    path.write_text(json.dumps(dict(
        BASE, h_min_m=100.0, h_max_m=100.0, theta_min_rad=0.5, theta_max_rad=0.5,
        area_width_m=width, area_height_m=height)))
    return path


PLAN_LAYOUTS = {"serpentine": (500.0, 400.0), "strip": (900.0, 10.0),
                "column": (10.0, 900.0)}


@pytest.mark.parametrize("layout", PLAN_LAYOUTS)
@pytest.mark.parametrize("mode", MODES)
def test_plan_csv_matches_per_row_format(tmp_path, capsys, monkeypatch, mode, layout):
    plans = []
    assemble = cli.assemble_plan

    def capture(*args):
        plans.append(assemble(*args))
        return plans[-1]

    monkeypatch.setattr(cli, "assemble_plan", capture)
    assert run(_pinned(tmp_path, *PLAN_LAYOUTS[layout]), tmp_path, "plan", "--mode", mode) == 0
    (plan,) = plans
    n_x, n_y = (len(set(column.tolist())) for column in plan.centers.T)
    assert {"serpentine": n_x >= 2 and n_y >= 4, "strip": n_x >= 2 and n_y <= 3,
            "column": n_x == 1 and n_y >= 2}[layout], (n_x, n_y)
    times = np.empty(2 * len(plan.centers) - 1)
    times[0::2] = plan.hover_times_s
    times[1::2] = np.hypot(*np.diff(plan.centers, axis=0).T) / BASE["uav_speed_mps"]
    row_fmt = ",".join(["{!r}"] * 5)
    rows = map(row_fmt.format, range(len(plan.centers)), *plan.centers.T.tolist(),
               plan.hover_times_s.tolist(), np.cumsum(times)[0::2].tolist())
    expected = "\r\n".join(["cell_index,x_m,y_m,hover_s,cumulative_s", *rows]) + "\r\n"
    assert (tmp_path / f"plan_{mode}.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("mode", MODES)
def test_single_cell_plan_reports_no_dominance(tmp_path, capsys, mode):
    # one cell means no flight, so hover/fly is undefined: n/a, as simulate
    # reports an undefined stderr, never inf
    assert run(_pinned(tmp_path, 10.0, 10.0), tmp_path, "plan", "--mode", mode) == 0
    report = parse_report(capsys.readouterr().out)
    assert (report["n_cells"], report["fly_time_s"]) == ("1", "0.0")
    assert report.pop("hover_dominance") == "n/a"
    for key in ("h_m", "theta_rad", "tour_length_m", "hover_total_s", "completion_time_s"):
        assert math.isfinite(float(report[key])), key


def test_sweep_rows_and_header(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "sweep", "--mode", "mc", "--var", "h",
               "--range", "100:500:5") == 0
    lines = (tmp_path / "sweep_mc_h.csv").read_text().splitlines()
    assert lines[0] == "sweep_value,rate_bps_per_hz"
    assert len(lines) == 6
    assert [float(l.split(",")[0]) for l in lines[1:]] == [100.0, 200.0, 300.0,
                                                           400.0, 500.0]


@pytest.mark.parametrize("lo, n", [(0.05, 8371), (1e-3, 8261), (0.3, 8289)])
def test_theta_sweep_ends_exactly_at_hi(cfg_path, tmp_path, capsys, lo, n):
    # lo + (n - 1) * step rounds up to pi/2 for these ranges
    hi = 1.5707963267948963
    assert run(cfg_path, tmp_path, "sweep", "--mode", "bc", "--var", "theta",
               "--range", f"{lo}:{hi}:{n}") == 0
    lines = (tmp_path / "sweep_bc_theta.csv").read_text().splitlines()
    assert len(lines) == n + 1
    assert lines[-1].split(",")[0] == repr(hi)


def test_sweep_minimal_grid(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "sweep", "--mode", "bc", "--var", "theta",
               "--range", "0.1:1.0:2") == 0
    lines = (tmp_path / "sweep_bc_theta.csv").read_text().splitlines()
    assert len(lines) == 3  # header + both endpoints


def test_sweep_with_sim_reproducible(cfg_path, tmp_path, capsys):
    args = ("sweep", "--mode", "mac", "--var", "theta", "--range", "0.4:1.2:3",
            "--with-sim", "--realizations", "20")
    assert run(cfg_path, tmp_path, *args) == 0
    first = (tmp_path / "sweep_mac_theta.csv").read_bytes()
    assert run(cfg_path, tmp_path, *args) == 0
    assert (tmp_path / "sweep_mac_theta.csv").read_bytes() == first
    assert first.startswith(b"# seed=7\n")
    header = first.splitlines()[1].decode()
    assert header == "sweep_value,analytic_bps_per_hz,empirical_bps_per_hz"


def test_seed_flag_overrides_config(cfg_path, tmp_path, capsys):
    args = ("sweep", "--mode", "mac", "--var", "theta", "--range", "0.4:1.2:2",
            "--with-sim", "--realizations", "10")
    assert run(cfg_path, tmp_path, *args) == 0
    base = (tmp_path / "sweep_mac_theta.csv").read_bytes()
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "--seed", "99", *args]) == 0
    reseeded = (tmp_path / "sweep_mac_theta.csv").read_bytes()
    assert reseeded != base
    assert reseeded.startswith(b"# seed=99\n")


def test_each_call_parses_afresh(cfg_path, tmp_path, capsys):
    # the option tables are shared by every call; nothing may carry over
    # from one call to the next, a usage error included
    assert run(cfg_path, tmp_path, "sweep", "--mode", "bc", "--var", "theta",
               "--range", "0.3:0.6:3", "--with-sim", "--realizations", "7") == 0
    capsys.readouterr()
    assert run(cfg_path, tmp_path, "simulate", "--mode", "mac",
               "--altitude", "300", "--theta", "0.4") == 0
    report = parse_report(capsys.readouterr().out)
    assert (report["mode"], report["realizations"]) == ("mac", "100")
    assert "realizations_csv" not in report
    with pytest.raises(SystemExit) as exc:
        run(cfg_path, tmp_path, "optimize", "--mode", "uplink")
    assert exc.value.code == 2
    assert "invalid choice: 'uplink'" in capsys.readouterr().err
    assert run(cfg_path, tmp_path, "optimize", "--mode", "mc") == 0
    assert parse_report(capsys.readouterr().out)["mode"] == "mc"


def test_sweep_range_validation(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "sweep", "--mode", "mc", "--var", "h",
               "--range", "500:100:5") == 2
    assert run(cfg_path, tmp_path, "sweep", "--mode", "mc", "--var", "h",
               "--range", "100:500:1") == 2
    assert run(cfg_path, tmp_path, "sweep", "--mode", "mc", "--var", "theta",
               "--range", "0.5:2.0:4") == 2  # beyond pi/2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("text", ["1:inf:3", "-inf:500:3", "nan:500:3", "100:nan:3"])
def test_sweep_non_finite_range_named(cfg_path, tmp_path, capsys, text):
    # an infinite HI once gave a numpy warning, then a nan altitude error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(cfg_path, tmp_path, "sweep", "--mode", "mc", "--var", "h",
                   f"--range={text}") == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: range: ")
    assert captured.out == ""


@pytest.mark.parametrize("fixed_h", ["nan", "inf", "-inf", "0"])
def test_sweep_bad_fixed_h_named(cfg_path, tmp_path, capsys, fixed_h):
    assert run(cfg_path, tmp_path, "sweep", "--mode", "mc", "--var", "theta",
               "--range", "0.1:0.5:3", f"--fixed-h={fixed_h}") == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: fixed-h: must be finite and > 0, got {float(fixed_h)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, keys", [
    ("--altitude", "1000", "h_min_m, h_max_m"),
    ("--altitude", "nan", "h_min_m, h_max_m"),
    ("--theta", "1e-9", "theta_min_rad, theta_max_rad"),
])
def test_simulate_point_outside_the_box_named(cfg_path, tmp_path, capsys, flag, value, keys):
    assert run(cfg_path, tmp_path, "simulate", "--mode", "bc", f"{flag}={value}") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {flag}: must lie in [{keys}] = ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_simulate_report_and_csv(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "simulate", "--mode", "bc",
               "--altitude", "500", "--theta", str(math.pi / 10), "--csv") == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["relative_gap"]) <= 0.03
    lines = (tmp_path / "simulate_bc.csv").read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "realization_index,gt_count,value_bps_per_hz"
    assert len(lines) == 102


def test_simulate_single_realization_stderr_marker(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "simulate", "--mode", "mc",
               "--realizations", "1") == 0
    report = parse_report(capsys.readouterr().out)
    assert report["empirical_stderr_bps_hz"] == "n/a"


def test_simulate_gap_exit(cfg_path, tmp_path, capsys):
    code = run(cfg_path, tmp_path, "simulate", "--mode", "bc",
               "--gap-tol", "1e-12")
    assert code == 3
    assert "exceeds tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("gap_tol", ["nan", "inf", "-inf", "-1"])
def test_simulate_bad_gap_tol_named(cfg_path, tmp_path, capsys, gap_tol):
    assert run(cfg_path, tmp_path, "simulate", "--mode", "mc", "--realizations", "5",
               f"--gap-tol={gap_tol}") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --gap-tol: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("simulate", "--mode", "mc"),
    ("sweep", "--mode", "bc", "--var", "theta", "--range", "0.3:0.6:3", "--with-sim"),
])
@pytest.mark.parametrize("realizations", ["0", "-3"])
def test_too_few_realizations_named(cfg_path, tmp_path, capsys, argv, realizations):
    assert run(cfg_path, tmp_path, *argv, f"--realizations={realizations}") == 2
    assert capsys.readouterr().err.startswith("config error: --realizations: ")


BUDGET_COMMANDS = (
    (("simulate", "--mode", "bc", "--altitude", "300", "--theta", "0.8"), 1),
    (("sweep", "--mode", "bc", "--var", "h", "--range", "299.9:300.1:4", "--fixed-theta",
      "0.8", "--with-sim"), 4),
)


@pytest.mark.parametrize("argv, rows", BUDGET_COMMANDS)
def test_terminal_budget_counts_the_whole_command(cfg_path, tmp_path, capsys, monkeypatch,
                                                  argv, rows):
    # about 1,500 expected disk terminals per realization at H=300, theta=0.8;
    # a sweep adds up its rows
    params = load_config(cfg_path).params
    per_row = montecarlo.expected_terminals(params, DeploymentVars(300.0, 0.8),
                                            SimSpec(mode="bc", realizations=5))
    monkeypatch.setattr(cli, "MAX_SIM_TERMINALS", int(rows * per_row * 1.01))
    assert run(cfg_path, tmp_path, *argv, "--realizations", "5") in (0, 3)
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_SIM_TERMINALS", int(rows * per_row * 0.99))
    assert run(cfg_path, tmp_path, *argv, "--realizations", "5") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --realizations/density_per_m2: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, rows", BUDGET_COMMANDS)
def test_over_budget_run_exits_2_before_drawing(cfg_path, tmp_path, capsys, monkeypatch,
                                                argv, rows):
    # 100,000 realizations of ~1,500 terminals exceed MAX_SIM_TERMINALS;
    # nothing is drawn
    monkeypatch.setattr(montecarlo, "sample_gts", None)
    assert run(cfg_path, tmp_path, *argv, "--realizations", "100000") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --realizations/density_per_m2: ")
    assert f"budget of {montecarlo.MAX_SIM_TERMINALS:,} " in err


TINY_CELL_COMMANDS = (
    (("simulate", "--mode", "bc", "--altitude", "50", "--theta", "0.05"), 1),
    (("sweep", "--mode", "mac", "--var", "h", "--range", "9.9:10.1:4", "--fixed-theta",
      "0.05", "--with-sim"), 4),
)


@pytest.mark.parametrize("argv, rows", TINY_CELL_COMMANDS)
def test_realization_cap_counts_the_whole_command(cfg_path, tmp_path, capsys, monkeypatch,
                                                  argv, rows):
    # a cell of radius 2.5 m or less expects under 0.1 terminals, far inside
    # the terminal budget; the realizations of all rows are capped on their own
    monkeypatch.setattr(cli, "MAX_SIM_REALIZATIONS", 5 * rows)
    assert run(cfg_path, tmp_path, *argv, "--realizations", "5") in (0, 3)
    capsys.readouterr()
    assert run(cfg_path, tmp_path, *argv, "--realizations", "6") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --realizations: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, rows", TINY_CELL_COMMANDS)
def test_too_many_realizations_exit_2_before_allocating(cfg_path, tmp_path, capsys,
                                                        monkeypatch, argv, rows):
    # 1e8 realizations of under 0.1 expected terminals pass the terminal budget
    # but would hold about 4 GB; the refusal simulates and allocates nothing
    monkeypatch.setattr(cli, "simulate_rate", None)
    tracemalloc.start()
    try:
        code = run(cfg_path, tmp_path, *argv, "--realizations", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --realizations: {100_000_000 * rows:,} realizations "
                          f"exceed the Monte Carlo cap of {montecarlo.MAX_SIM_REALIZATIONS:,} ")
    assert peak < 1e6


EMPTY_FIXED_CELL_COMMANDS = (
    ("simulate", "--mode", "bc", "--altitude", "50", "--theta", "0.05"),
    ("simulate", "--mode", "mc", "--altitude", "50", "--theta", "0.05"),
    ("sweep", "--mode", "bc", "--var", "theta", "--range", "0.05:0.5:3", "--fixed-h", "50",
     "--with-sim"),
)


@pytest.mark.parametrize("argv", EMPTY_FIXED_CELL_COMMANDS, ids=["simulate-bc", "simulate-mc",
                                                                  "sweep-with-sim"])
def test_fixed_count_of_zero_exits_2_before_drawing(cfg_path, tmp_path, capsys, monkeypatch,
                                                    argv):
    # K' = 0.098 (disk) and K = 0.081 (hexagon) at H=50, theta=0.05 round
    # to 0 terminals: every realization would be empty, so nothing is drawn
    # or written, and the point is named
    monkeypatch.setattr(cli, "simulate_rate", None)
    assert run(cfg_path, tmp_path, *argv, "--count-model", "fixed") == 2
    captured = capsys.readouterr()
    mean = "0.0813" if "mc" in argv else "0.0983"
    assert captured.err == (f"config error: --count-model: the fixed count rounds {mean} "
                            "expected terminals to 0 at altitude 50.0, half-beamwidth 0.05, "
                            "so nothing would be simulated; use --count-model poisson or a "
                            "larger cell\n")
    assert captured.out == ""
    assert list(tmp_path.glob("*.csv")) == []


def test_fixed_count_of_one_terminal_simulates(cfg_path, tmp_path, capsys):
    # 0.96 expected terminals round to 1, which is simulated
    assert run(cfg_path, tmp_path, "simulate", "--mode", "bc", "--altitude", "50", "--theta",
               "0.155", "--count-model", "fixed", "--realizations", "3") in (0, 3)
    report = parse_report(capsys.readouterr().out)
    assert float(report["empirical_mean_bps_hz"]) > 0.0


def test_mac_simulation_near_the_float_maximum_stays_finite(tmp_path, capsys):
    # at 3000 dBm, n * eta/(rho pi theta^2) overflows for n above about 30;
    # the SNR is then formed in two steps and the mean stays near the
    # closed form, with no numpy warning
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(dict(BASE, p_uplink_dbm=3000.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(path, tmp_path, "simulate", "--mode", "mac") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = parse_report(captured.out)
    assert report["analytic_bps_hz"] == "1012.0196189318932"
    assert math.isfinite(float(report["empirical_mean_bps_hz"]))
    assert float(report["relative_gap"]) <= float(report["gap_tol"])


def test_mac_simulation_below_the_overflow_keeps_its_bits(tmp_path, capsys):
    # at 2950 dBm the one-constant form does not overflow, and the report
    # is the one the single-step form printed
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(dict(BASE, p_uplink_dbm=2950.0)))
    assert run(path, tmp_path, "simulate", "--mode", "mac") == 0
    assert capsys.readouterr().out == (
        "mode=mac\naltitude_m=275.0\nhalf_beamwidth_rad=0.775\nrealizations=100\n"
        "count_model=poisson\nseed=7\nanalytic_bps_hz=995.4099784574562\n"
        "empirical_mean_bps_hz=995.4120063625393\n"
        "empirical_stderr_bps_hz=0.004592531534069457\n"
        "relative_gap=2.037256132618659e-06\ngap_tol=0.05\n")


def test_plan_mc_summary_and_csv(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "plan", "--mode", "mc") == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["completion_time_s"]) == pytest.approx(
        float(report["hover_total_s"]) + float(report["fly_time_s"]), rel=1e-12)
    lines = (tmp_path / "plan_mc.csv").read_text().splitlines()
    assert lines[0] == "cell_index,x_m,y_m,hover_s,cumulative_s"
    assert len(lines) == int(report["n_cells"]) + 1
    cumulative = [float(l.split(",")[-1]) for l in lines[1:]]
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] <= float(report["completion_time_s"]) + 1e-9


def test_plan_speed_scales_fly_time(cfg_path, tmp_path, capsys):
    cfg = dict(BASE, theta_max_rad=0.9)  # keep several cells in the plan
    slow_p = tmp_path / "slow.json"
    slow_p.write_text(json.dumps(cfg))
    fast_p = tmp_path / "fast.json"
    fast_p.write_text(json.dumps(dict(cfg, uav_speed_mps=cfg["uav_speed_mps"] * 10)))
    assert run(slow_p, tmp_path, "plan", "--mode", "mc") == 0
    slow = parse_report(capsys.readouterr().out)
    assert run(fast_p, tmp_path, "plan", "--mode", "mc") == 0
    fast = parse_report(capsys.readouterr().out)
    assert float(fast["fly_time_s"]) == pytest.approx(
        float(slow["fly_time_s"]) / 10.0, rel=1e-12)
    assert fast["tour_length_m"] == slow["tour_length_m"]


def test_plan_hover_warning_printed_once(tmp_path):
    # one second of bc service per cell cannot dominate the flying; a child
    # process shows stderr as a user sees it
    cfg = dict(BASE, period_s=1.0, h_min_m=300.0, theta_min_rad=0.5,
               theta_max_rad=1.2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "uavcell.cli", "--config", str(path), "--out",
         str(tmp_path), "plan", "--mode", "bc"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    report = parse_report(proc.stdout)
    assert float(report["hover_dominance"]) < 10.0
    lines = [line for line in proc.stderr.splitlines() if "hover" in line]
    assert len(lines) == 1, proc.stderr
    ratio = f"{float(report['hover_dominance']):.3g}x"
    assert ratio in lines[0] and "0.00x" not in lines[0]


def test_non_finite_config_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(dict(BASE, h_max_m=math.inf)))  # writes Infinity
    assert run(path, tmp_path, "optimize", "--mode", "mc") == 2
    captured = capsys.readouterr()
    assert "h_max_m" in captured.err
    assert "inf" not in captured.out and "nan" not in captured.out


@pytest.mark.parametrize("key", ["p_downlink_dbm", "p_uplink_dbm", "noise_psd_dbm_hz"])
def test_dbm_overflow_exits_2(tmp_path, capsys, key):
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(dict(BASE, **{key: 1e6})))
    assert run(path, tmp_path, "optimize", "--mode", "mc") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")


def test_overflowing_snr_scale_names_its_key(tmp_path, capsys):
    # 3100 dBm is a finite power, but the downlink SNR scale alpha overflows
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(dict(BASE, p_downlink_dbm=3100.0)))
    assert run(path, tmp_path, "optimize", "--mode", "mac") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {ALPHA_KEYS}: ")
    assert "alpha" in err and "altitude" not in err


# beta0 = 1e-300 behind 100 dBm/Hz of noise: the mc and bc closed forms
# underflow to exactly 0 at 1e6 m, and mac's at a 0.05 rad beamwidth with
# p_uplink_dbm = 30
FAINT = dict(BASE, beta0=1e-300, p_downlink_dbm=30.0, p_uplink_dbm=60.0,
             noise_psd_dbm_hz=100.0, density_per_m2=1e-10, h_max_m=1e6, seed=1)
ETA_KEYS = "p_uplink_dbm/beta0/noise_psd_dbm_hz/bandwidth_hz/density_per_m2"


@pytest.mark.parametrize("mode, overrides, point, keys", [
    ("mc", {}, ("1000000", "0.5"), ALPHA_KEYS),
    ("bc", {}, ("1000000", "0.5"), ALPHA_KEYS),
    ("mac", {"p_uplink_dbm": 30.0}, ("1000", "0.05"), ETA_KEYS),
    # subnormal closed forms: 5e-324 for mc and mac, 1.774e-321 for bc
    ("mc", {"p_uplink_dbm": 30.0}, ("1000", "1.4"), ALPHA_KEYS),
    ("bc", {"p_uplink_dbm": 30.0}, ("1000", "1.4"), ALPHA_KEYS),
    ("mac", {"p_uplink_dbm": 30.0}, ("1000", "1.4"), ETA_KEYS),
], ids=[*MODES, *(f"{mode}-subnormal" for mode in MODES)])
def test_simulate_underflowed_closed_form_named(tmp_path, capsys, mode, overrides, point, keys):
    # the relative gap to a closed form of 0, or of a subnormal with no
    # significant digits, is undefined: exit 2 naming the keys of the mode's
    # SNR scale, and print no report
    path = tmp_path / "faint.json"
    path.write_text(json.dumps(dict(FAINT, **overrides)))
    assert run(path, tmp_path, "simulate", "--mode", mode, "--altitude", point[0],
               "--theta", point[1], "--realizations", "3") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {keys}: the {mode} closed form underflows")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_sweep_with_sim_of_an_underflowed_closed_form(tmp_path, capsys):
    # a sweep row reads only the empirical mean, so rows whose closed form
    # is 0 are written as they are
    path = tmp_path / "faint.json"
    path.write_text(json.dumps(FAINT))
    assert run(path, tmp_path, "sweep", "--mode", "bc", "--var", "h", "--range", "1e5:1e6:3",
               "--fixed-theta", "0.5", "--with-sim", "--realizations", "2") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = (tmp_path / "sweep_bc_h.csv").read_text().splitlines()[2:]
    values = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    assert np.isfinite(values).all() and values[-1, 1] == 0.0


# a deployment box near the float maximum, whose (h_min + h_max) / 2 overflows
HUGE_BOX = dict(BASE, h_min_m=1e308, h_max_m=1.7e308)


def test_default_altitude_of_a_huge_box_is_finite(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_BOX))
    assert run(path, tmp_path, "sweep", "--mode", "bc", "--var", "theta",
               "--range", "0.1:0.5:3") == 0
    captured = capsys.readouterr()
    assert parse_report(captured.out)["fixed_h_m"] == repr(1e308 / 2 + 1.7e308 / 2)
    # simulate refuses the huge cell by its terminal budget, naming its
    # keys, not by an infinite altitude
    assert run(path, tmp_path, "simulate", "--mode", "bc") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --realizations/density_per_m2: ")
    assert "altitude" not in err


def test_plan_of_an_infinite_cell_names_the_altitude(tmp_path, capsys):
    # the mac optimum's H*tan(theta) overflows: one cell would cover the area,
    # and the altitude that mac's rule picked is h_min_m
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_BOX))
    assert run(path, tmp_path, "plan", "--mode", "mac") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: h_min_m: the cell radius H*tan(theta) overflows")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == "" and not (tmp_path / "plan_mac.csv").exists()


@pytest.mark.parametrize("argv, keys, point", [
    (("optimize", "--mode", "mc"), "h_max_m/theta_min_rad/theta_max_rad", "1.7e+308, "),
    (("plan", "--mode", "mc"), "h_max_m/theta_min_rad/theta_max_rad", "1.7e+308, "),
    (("sweep", "--mode", "mc", "--var", "theta", "--range", "0.1:0.5:3"),
     "h_min_m/h_max_m/range", "1.35e+308, "),
    (("sweep", "--mode", "mc", "--var", "theta", "--range", "0.1:0.5:3", "--fixed-h", "1.5e308"),
     "fixed-h/range", "1.5e+308, "),
    (("sweep", "--mode", "mc", "--var", "h", "--range", "1e308:1.7e308:3"),
     "range/theta_min_rad/theta_max_rad", "1e+308, "),
    (("sweep", "--mode", "mc", "--var", "h", "--range", "1e308:1.7e308:3", "--fixed-theta",
      "0.5"), "range/fixed-theta", "1e+308, half-beamwidth 0.5"),
    # H^2 overflows first at row 8,380, in the second chunk of rates
    (("sweep", "--mode", "mc", "--var", "h", "--range", "1:1.6e154:10001"),
     "range/theta_min_rad/theta_max_rad", "1.3408000000000002e+154, half-beamwidth 0.775"),
], ids=["optimize", "plan", "sweep-theta", "sweep-theta-fixed-h", "sweep-h",
        "sweep-h-fixed-theta", "sweep-h-second-chunk"])
def test_non_finite_rate_names_the_keys_of_its_point(tmp_path, capsys, argv, keys, point):
    # mc's rate is not finite near the float maximum of altitude; the error
    # names the keys or flags that set the altitude, then the beamwidth
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_BOX))
    assert run(path, tmp_path, *argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"config error: {keys}: mc rate is not finite at altitude {point}")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("mode, altitude", [("mc", 500.0), ("bc", 50.0), ("mac", 50.0)])
def test_thin_beamwidth_box_fails_at_its_first_scan_point(tmp_path, capsys, mode, altitude):
    # a box 100 ulps wide at 2e-308 rad scans with a step of 0; its first
    # point has no finite rate in any mode
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(dict(BASE, theta_min_rad=2e-308,
                                    theta_max_rad=2e-308 + 100 * 5e-324)))
    assert run(path, tmp_path, "optimize", "--mode", mode) == 2
    assert capsys.readouterr().err == (
        f"config error: {'h_max_m' if mode == 'mc' else 'h_min_m'}/theta_min_rad/theta_max_rad: "
        f"{mode} rate is not finite at altitude {altitude}, half-beamwidth 2e-308\n")


def test_default_point_is_the_box_midpoint(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "simulate", "--mode", "mc", "--realizations", "2") == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["altitude_m"]) == (BASE["h_min_m"] + BASE["h_max_m"]) / 2
    assert float(report["half_beamwidth_rad"]) == (BASE["theta_min_rad"]
                                                   + BASE["theta_max_rad"]) / 2


def test_negative_config_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, seed=-3)))
    assert run(path, tmp_path, "sweep", "--mode", "bc", "--var", "theta", "--range",
               "0.3:0.6:3", "--with-sim", "--realizations", "5") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed: ") and "--seed" not in err


def test_negative_seed_flag_exits_2(cfg_path, tmp_path, capsys):
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "--seed", "-3",
                     "simulate", "--mode", "mc", "--realizations", "5"]) == 2
    assert capsys.readouterr().err.startswith("config error: --seed: ")


def test_plan_refuses_absurd_cell_count(cfg_path, tmp_path, capsys):
    # the bc optimum shrinks cells to a few meters; planning 10^5 of them
    # is a config problem, not a tour to grind through
    assert run(cfg_path, tmp_path, "plan", "--mode", "bc") == 2
    err = capsys.readouterr().err
    assert "cells" in err and "config error" in err


@pytest.mark.parametrize("width, height", [
    pytest.param(1e9, 1e-3, id="1000000000.0"),
    pytest.param(1e12, 1e-3, id="1000000000000.0"),
    pytest.param(1.7976931348623157e308, 1e-3, id="1.7976931348623157e+308"),
    pytest.param(1e-3, 1e300, id="tall"),
])
def test_plan_cap_counts_the_lattice_of_a_strip(tmp_path, capsys, width, height):
    # a 1 mm strip has almost no area, but it needs a cell per 10.6 km of
    # width, or per 12.2 km of height, at the mc optimum; the longest would
    # overflow a count
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(dict(BASE, area_width_m=width, area_height_m=height)))
    assert run(path, tmp_path, "plan", "--mode", "mc") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: area_width_m/area_height_m: ")
    assert captured.out == "" and not (tmp_path / "plan_mc.csv").exists()


@pytest.mark.parametrize("overrides, mode, key", [
    ({"period_s": 1e308}, "mac", "period_s"),  # 15 cells of 1e308 s
    ({"file_size_bits": 1e308, "bandwidth_hz": 1e-10}, "mc", "file_size_bits"),
    ({"uav_speed_mps": 1e-320}, "bc", "uav_speed_mps"),
    ({"period_s": 1e200, "uav_speed_mps": 1e200}, "mac", "period_s/uav_speed_mps"),
])
def test_plan_non_finite_times_named(tmp_path, capsys, overrides, mode, key):
    cfg = dict(BASE, **overrides)
    if mode == "bc":  # cells large enough for the plan cap
        cfg.update(h_min_m=300.0, theta_min_rad=0.5, theta_max_rad=1.2)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert run(path, tmp_path, "plan", "--mode", mode) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {key}: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == "" and not (tmp_path / f"plan_{mode}.csv").exists()


def test_plan_requires_mission_keys(tmp_path, capsys):
    trimmed = {k: v for k, v in BASE.items() if k != "uav_speed_mps"}
    path = tmp_path / "trim.json"
    path.write_text(json.dumps(trimmed))
    assert run(path, tmp_path, "plan", "--mode", "mc") == 2
    assert "uav_speed_mps" in capsys.readouterr().err


def test_bad_config_field_named(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(BASE, theta_max_rad=math.pi / 2)))
    assert run(path, tmp_path, "optimize", "--mode", "mc") == 2
    assert "theta_max_rad" in capsys.readouterr().err


def test_csv_artifacts_format(cfg_path, tmp_path, capsys):
    # rows end in \r\n like the csv module's, headers are the README's, and
    # every cell is the repr of a Python number, never of a numpy scalar
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        ("optimize_bc_trace.csv", ("optimize", "--mode", "bc", "--csv")),
        ("sweep_mc_h.csv", ("sweep", "--mode", "mc", "--var", "h", "--range", "100:500:5")),
        ("sweep_bc_theta.csv", ("sweep", "--mode", "bc", "--var", "theta", "--range",
                                "0.3:0.6:3", "--with-sim", "--realizations", "5")),
        ("simulate_mac.csv", ("simulate", "--mode", "mac", "--realizations", "5", "--csv")),
        ("plan_mc.csv", ("plan", "--mode", "mc")),
    ]
    for name, argv in commands:
        out = tmp_path / name.removesuffix(".csv")
        assert run(cfg_path, out, *argv) == 0
        text = (out / name).read_bytes().decode()
        assert "np.float64(" not in text
        if text.startswith("# seed="):
            text = text.split("\n", 1)[1]
        assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n"), name
        header, *rows = text[:-2].split("\r\n")
        assert f"`{header}`" in readme, name
        assert rows, name
        for row in rows:
            cells = row.split(",")
            assert len(cells) == header.count(",") + 1
            for cell in cells:
                number = int(cell) if cell.isdigit() else float(cell)
                assert repr(number) == cell, (name, row)
    assert capsys.readouterr().err == ""


def test_loud_narrow_sweeps_print_no_warnings(tmp_path, capsys):
    # numpy floating-point warnings would land on stderr; here they raise
    loud = tmp_path / "loud.json"
    loud.write_text(json.dumps(dict(BASE, p_downlink_dbm=400.0, theta_min_rad=0.001)))
    overflowing = tmp_path / "overflowing.json"  # the downlink SNR scale is inf
    overflowing.write_text(json.dumps(dict(BASE, p_downlink_dbm=3100.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("mc", "bc", "mac"):
            assert run(loud, tmp_path, "sweep", "--mode", mode, "--var", "theta",
                       "--range", "0.001:1.5:200") == 0
            assert run(loud, tmp_path, "optimize", "--mode", mode) == 0
        assert capsys.readouterr().err == ""
        for mode in ("mc", "bc"):
            assert run(overflowing, tmp_path, "sweep", "--mode", mode, "--var", "theta",
                       "--range", "0.001:1.5:200") == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {ALPHA_KEYS}: ")
            assert len(err.splitlines()) == 1


# one command per CSV the CLI writes
CSV_COMMANDS = {
    "optimize": ("optimize", "--mode", "mc", "--csv"),
    "sweep": ("sweep", "--mode", "mc", "--var", "h", "--range", "100:500:5"),
    "simulate": ("simulate", "--mode", "mac", "--realizations", "5", "--csv"),
    "plan": ("plan", "--mode", "mc"),
}


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_unusable_out_exits_2(cfg_path, tmp_path, capsys, command, nested):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" if nested else blocker
    assert run(cfg_path, out, *CSV_COMMANDS[command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: --out: cannot write {out}/")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == "" and blocker.read_text() == ""


def test_out_is_created_only_for_a_csv(cfg_path, tmp_path, capsys):
    out = tmp_path / "a" / "b"
    assert run(cfg_path, out, "optimize", "--mode", "mc") == 0
    assert not (tmp_path / "a").exists()
    assert run(cfg_path, out, "optimize", "--mode", "mc", "--csv") == 0
    assert (out / "optimize_mc_trace.csv").is_file()
    assert capsys.readouterr().out.endswith(f"trace_csv={out / 'optimize_mc_trace.csv'}\n")


def test_existing_out_makes_no_directory(cfg_path, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mkdir called")

    monkeypatch.setattr(Path, "mkdir", refuse)
    monkeypatch.setattr(os, "mkdir", refuse)
    for argv in CSV_COMMANDS.values():
        assert run(cfg_path, tmp_path, *argv) == 0
    assert len(list(tmp_path.glob("*.csv"))) == len(CSV_COMMANDS)


def test_one_system_params_per_command(cfg_path, tmp_path, capsys, monkeypatch):
    built = []
    new = SystemParams.__new__

    def counted(cls, *args, **kwargs):
        built.append(new(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(SystemParams, "__new__", counted)
    for argv in [*CSV_COMMANDS.values(), ("sweep", "--mode", "bc", "--var", "theta", "--range",
                                          "0.3:0.6:3", "--with-sim", "--realizations", "5")]:
        built.clear()
        assert run(cfg_path, tmp_path, *argv) == 0
        assert len(built) == 1, argv


# Python frames entered in uavcell's own modules by one optimize command:
# parse, load and check the config (15 numbers), two scans of the beamwidth
# search, each one rate_value call, and the report. Upper bounds, so that a
# wrapper layer added to this path fails here without any timing.
OPTIMIZE_FRAME_BUDGET = {"mc": 53, "bc": 53, "mac": 53}


@pytest.mark.parametrize("mode", MODES)
def test_optimize_call_budget(cfg_path, tmp_path, capsys, mode):
    package = os.path.dirname(cli.__file__) + os.sep
    frames = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            frames.append(frame.f_code.co_name)

    counts = []
    for _ in range(2):  # nothing kept from the first run shortens the second
        frames.clear()
        sys.setprofile(profile)
        try:
            rc = run(cfg_path, tmp_path, "optimize", "--mode", mode)
        finally:
            sys.setprofile(None)
        assert rc == 0
        assert frames.count("rate_value") == 2
        assert len(frames) <= OPTIMIZE_FRAME_BUDGET[mode], sorted(frames)
        counts.append(len(frames))
    assert counts[0] == counts[1]
