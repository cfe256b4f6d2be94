"""Property test over config inputs: the README config with one key set to an
arbitrary JSON value (nan, +-inf, a huge or negative number, a bool, a
string, null or a big integer). optimize, a 5-row sweep and plan must each
exit 0 or 2 without a traceback. A run that exits 2 names its problem on
stderr and reports nothing; a run that exits 0 reports, and writes to its
CSV, only finite numbers (or n/a).

simulate and sweep --with-sim are left out: with a large density they
allocate terminals without bound, since the Monte Carlo commands have no
terminal budget yet.
"""
import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uavcell import cli
from uavcell.rates import MODES

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


def _is_number_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _assert_finite(text: str, where):
    # words, paths and n/a pass; every number must be finite
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
                ("plan", "--mode", mode))
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(path), "--out", str(work_dir), *argv])
        where = (key, value, argv)
        assert code in (0, 2), where
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
