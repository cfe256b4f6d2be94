"""Command line front end: reports, CSV artifacts, exit codes."""
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from uavcell import cli
from uavcell.optimize import SCAN_POINTS

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


def test_csv_rows_match_per_row_join(tmp_path):
    columns = [list(range(-2, 3)), [-0.0, 1e-05, 1e+16, 5e-324, 0.1],
               [5e-324, -0.0, 2**53 + 1, 1e+16, -7]]
    cli._write_csv(tmp_path / "t.csv", ("a", "b", "c"), columns)
    rows = [",".join(map(repr, row)) for row in zip(*columns)]
    assert (tmp_path / "t.csv").read_bytes() == ("\r\n".join(["a,b,c", *rows]) + "\r\n").encode()


def test_sweep_rows_and_header(cfg_path, tmp_path, capsys):
    assert run(cfg_path, tmp_path, "sweep", "--mode", "mc", "--var", "h",
               "--range", "100:500:5") == 0
    lines = (tmp_path / "sweep_mc_h.csv").read_text().splitlines()
    assert lines[0] == "sweep_value,rate_bps_per_hz"
    assert len(lines) == 6
    assert [float(l.split(",")[0]) for l in lines[1:]] == [100.0, 200.0, 300.0,
                                                           400.0, 500.0]


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


def test_cached_parser_parses_each_call_afresh(cfg_path, tmp_path, capsys):
    # the parser is built once per process; nothing may carry over from one
    # call to the next, a usage error included
    assert cli.build_parser() is cli.build_parser()
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
    # process shows stderr as a user sees it, without the test's log capture
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
    assert err.startswith("config error: p_downlink_dbm/noise_psd_dbm_hz: ")
    assert "alpha" in err and "altitude" not in err


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
            assert err.startswith("config error: p_downlink_dbm/noise_psd_dbm_hz: ")
            assert len(err.splitlines()) == 1
