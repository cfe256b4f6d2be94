"""Property test over config inputs: the README config with one key set to an
arbitrary JSON value (nan, +-inf, a huge or negative number, a bool, a
string, null or a big integer). optimize, a 5-row sweep, plan, simulate
and a 3-row sweep --with-sim must each exit 0 or 2 without a traceback, or
3 for simulate's validation gap. A run that exits 2 names its problem on
stderr and reports nothing; any other run reports, and writes to its CSV,
only finite numbers (or n/a). The Monte Carlo commands run 3 realizations
each: a large density or cell exits 2 at the terminal budget
(montecarlo.MAX_SIM_TERMINALS) instead of drawing without bound.

A second property draws argv past the caps: huge sweep rows, realizations
and area sides, beside config keys near the float limits. Every command
exits 0, 2 or 3 and reports only finite numbers, and one past a cap exits
2 in well under 0.1 s.
"""
import contextlib
import csv
import io
import json
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uavcell import cli
from uavcell.rates import BC, MODES

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIG = json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))

JSON_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1.7976931348623157e308, 1e308,
                     -1e308, 5e-324, 1e-320, 0, 0.0, -0.0, -1, 10**400, -10**400]),
    st.floats(),
    st.integers(min_value=-10**400, max_value=10**400),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
SWEEPS = {"theta": "0.1:1.4:5", "h": "50:500:5"}
SIM_SWEEPS = {"theta": "0.1:1.4:3", "h": "50:500:3"}


def _is_number_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _assert_finite(text: str, where):
    # words, paths and n/a pass; every number must be finite. An integer
    # always is, even one beyond the float range (a huge seed is echoed)
    if text.isdigit():
        return
    if _is_number_text(text):
        assert math.isfinite(float(text)), where


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


def test_readme_config_runs(work_dir):
    path = work_dir / "readme.json"
    path.write_text(json.dumps(CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(path), "--out", str(work_dir),
                         "optimize", "--mode", "mc"]) == 0


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(CONFIG)), value=JSON_VALUES,
       mode=st.sampled_from(MODES), var=st.sampled_from(sorted(SWEEPS)))
def test_one_key_any_json_value(work_dir, key, value, mode, var):
    path = work_dir / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, **{key: value})))
    commands = (("optimize", "--mode", mode),
                ("sweep", "--mode", mode, "--var", var, "--range", SWEEPS[var]),
                ("plan", "--mode", mode),
                ("simulate", "--mode", mode, "--realizations", "3", "--csv"),
                ("sweep", "--mode", mode, "--var", var, "--range", SIM_SWEEPS[var],
                 "--with-sim", "--realizations", "3"))
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(path), "--out", str(work_dir), *argv])
        where = (key, value, argv)
        assert code in ((0, 2, 3) if argv[0] == "simulate" else (0, 2)), where
        if code == 2:
            assert err.getvalue().startswith("config error: "), where
            assert out.getvalue() == "", where
            continue
        report = dict(line.split("=", 1) for line in out.getvalue().splitlines())
        for name, text in report.items():
            _assert_finite(text, (*where, name))
        for csv_path in (text for name, text in report.items() if name.endswith("_csv")):
            with open(csv_path, newline="") as fh:
                for row in csv.reader(fh):
                    for cell in row:
                        _assert_finite(cell, (*where, csv_path))


# counts inside a cap are kept small, so that an admitted command runs in
# milliseconds; counts past it reach far beyond any array
ROWS = st.one_of(st.integers(2, 20), st.integers(cli.MAX_SWEEP_ROWS + 1, 10**30))
REALIZATIONS = st.one_of(st.integers(1, 5),
                         st.integers(cli.MAX_SIM_REALIZATIONS + 1, 10**30))
SIDES = st.one_of(st.floats(1.0, 300.0), st.floats(1e12, 1.7976931348623157e308))
NEAR_LIMITS = st.sampled_from([None, 5e-324, 1e-300, 1e300, 1.7976931348623157e308])


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["sweep", "sweep --with-sim", "simulate", "plan"]),
       mode=st.sampled_from(MODES), var=st.sampled_from(sorted(SWEEPS)), rows=ROWS,
       realizations=REALIZATIONS, width=SIDES, height=SIDES,
       keys=st.fixed_dictionaries({key: NEAR_LIMITS for key in
                                   ("density_per_m2", "h_max_m", "period_s")}))
def test_huge_counts_exit_cleanly(work_dir, command, mode, var, rows, realizations, width,
                                  height, keys):
    cfg = dict(CONFIG, area_width_m=width, area_height_m=height,
               **{key: value for key, value in keys.items() if value is not None})
    path = work_dir / "huge.json"
    path.write_text(json.dumps(cfg))
    span = SWEEPS[var].rsplit(":", 1)[0]
    argv = {"sweep": ("sweep", "--mode", mode, "--var", var, "--range", f"{span}:{rows}"),
            "sweep --with-sim": ("sweep", "--mode", mode, "--var", var, "--range",
                                 f"{span}:{rows}", "--with-sim", "--realizations",
                                 str(realizations)),
            "simulate": ("simulate", "--mode", mode, "--realizations", str(realizations)),
            "plan": ("plan", "--mode", mode)}[command]
    # bc plans 2.5 m cells at (h_min_m, theta_min_rad), which no drawn key moves
    over_cap = (rows > cli.MAX_SWEEP_ROWS and command.startswith("sweep")
                or realizations > cli.MAX_SIM_REALIZATIONS
                and command in ("sweep --with-sim", "simulate")
                or command == "plan" and mode == BC and max(width, height) >= 1e12)

    def run():
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(path), "--out", str(work_dir), *argv])
        return code, out, err, time.perf_counter() - t0

    code, out, err, elapsed = run()
    where = (cfg, argv)
    assert code in (0, 2, 3), where
    if over_cap:
        if elapsed >= 0.1:  # the host may stall one run; a slow refusal is slow twice
            elapsed = min(elapsed, run()[3])
        assert code == 2 and elapsed < 0.1, (elapsed, where)
    if code == 2:
        assert err.getvalue().startswith("config error: ") and out.getvalue() == "", where
    for line in out.getvalue().splitlines():
        name, _, text = line.partition("=")
        _assert_finite(text, (*where, name))
