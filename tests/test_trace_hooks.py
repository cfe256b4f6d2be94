"""The benchmark's traced run (perfbench/spans.py) wraps uavcell functions
from outside, by module attribute, and names and counts its spans from their
positional arguments and results. These tests run the Monte Carlo commands
under its recorder and check that every span it reads is recorded, with
counts that match what the commands report."""
import contextlib
import csv
import importlib.util
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from uavcell import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODES = ("mc", "bc", "mac")

CONFIG = {
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
    "seed": 5,
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_terminals(path: Path) -> int:
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["realization_index", "gt_count", "value_bps_per_hz"]
    return sum(int(row[1]) for row in rows[1:])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """simulate --csv for each mode and one sweep --with-sim, run under the
    benchmark's recorder. Returns the spans module, the recorder, the
    terminal count each simulate CSV reports, and what reached stderr,
    warnings included."""
    spans = _load_spans()
    tmp = tmp_path_factory.mktemp("traced")
    config = tmp / "cfg.json"
    config.write_text(json.dumps(CONFIG))
    commands = [["simulate", "--mode", mode, "--altitude", "300", "--theta", "0.5",
                 "--realizations", "40", "--csv"] for mode in MODES]
    commands.append(["sweep", "--mode", "bc", "--var", "theta", "--range", "0.4:0.8:3",
                     "--fixed-h", "200", "--with-sim", "--realizations", "12"])
    recorder = spans.Recorder()
    err = io.StringIO()
    recorder.install()
    try:
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            for argv in commands:
                assert cli.main(["--config", str(config), "--out", str(tmp), *argv]) == 0
    finally:
        recorder.uninstall()
    reported = {mode: _csv_terminals(tmp / f"simulate_{mode}.csv") for mode in MODES}
    stderr = err.getvalue() + "".join(str(w.message) for w in caught)
    return spans, recorder, reported, stderr


@pytest.mark.parametrize("prefix", ["geometry.sample_gts.disk", "geometry.sample_gts.hexagon",
                                    *(f"montecarlo.simulate_rate.{mode}" for mode in MODES)])
def test_per_terminal_time_is_defined(traced, prefix):
    spans, recorder, _, _ = traced
    value = spans.Analysis(recorder).per_unit(prefix)
    assert math.isfinite(value) and value > 0.0


def test_span_counts_match_reported_terminals(traced):
    _, recorder, reported, _ = traced
    names = recorder.names
    name = np.array(recorder.name)
    parent = np.array(recorder.parent)
    count = np.array(recorder.count)
    realizations = np.array(recorder.count2)
    sampled = np.isin(name, [i for i, n in enumerate(names)
                             if n.startswith("geometry.sample_gts.")])
    simulated = {mode: np.flatnonzero(name == names.index(f"montecarlo.simulate_rate.{mode}"))
                 for mode in MODES}
    # one simulate per mode, plus the sweep's three rows for bc
    assert [len(simulated[mode]) for mode in MODES] == [1, 4, 1]
    for mode in MODES:
        for index in simulated[mode]:
            assert count[sampled & (parent == index)].sum() == count[index] > 0
        assert count[simulated[mode][0]] == reported[mode]
        assert realizations[simulated[mode][0]] == 40
    assert realizations[simulated["bc"][1:]].tolist() == [12, 12, 12]


def test_nothing_reaches_stderr(traced):
    assert traced[3] == ""


def test_plan_spans_count_cells(tmp_path):
    """The traced lattice-plan figures read these three spans; mission.tour_s
    is a per-pass median over plan_tour and needs at least one."""
    spans = _load_spans()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(CONFIG, h_max_m=100.0, theta_max_rad=0.5,
                                      area_width_m=1000.0, area_height_m=800.0,
                                      file_size_bits=1.0e8, uav_speed_mps=20.0)))
    recorder = spans.Recorder()
    out = io.StringIO()
    recorder.install()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(["--config", str(config), "--out", str(tmp_path),
                             "plan", "--mode", "mc"]) == 0
    finally:
        recorder.uninstall()
    report = dict(line.split("=", 1) for line in out.getvalue().splitlines())
    n_cells = int(report["n_cells"])
    assert n_cells > 100
    for name in ("mission.plan_tour", "mission.layout_centers", "mission.assemble_plan"):
        index = np.flatnonzero(np.array(recorder.name) == recorder.names.index(name))
        assert [recorder.count[i] for i in index] == [n_cells], name
    tour_s = spans.Analysis(recorder).per_pass_median("mission.plan_tour")
    assert math.isfinite(tour_s) and tour_s > 0.0


def test_optimize_records_two_rate_scans(tmp_path):
    """optimize.evals counts the rate_value spans under each optimize span:
    the nested beamwidth search makes two array calls at the default tol."""
    spans = _load_spans()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(CONFIG))
    recorder = spans.Recorder()
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--config", str(config), "--out", str(tmp_path),
                             "optimize", "--mode", "mac"]) == 0
    finally:
        recorder.uninstall()
    name = np.array(recorder.name)
    (opt,) = np.flatnonzero(name == recorder.names.index("optimize.optimize"))
    rates = name == recorder.names.index("rates.rate_value.mac")
    assert np.count_nonzero(rates & (np.array(recorder.parent) == opt)) == 2
    assert spans.Analysis(recorder).children_per("optimize.optimize", "rates.rate_value") == 2.0
