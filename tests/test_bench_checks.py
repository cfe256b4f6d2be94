"""One pass of the benchmark's mc-validate workload (perfbench/workloads.py),
run in-process, with every output judged by the benchmark's own checks
(perfbench/checks.py, against perfbench/oracle.py). A change to the Monte
Carlo stream or estimators that trips the checks' statistical tests fails
here, before a benchmark run. perfbench/run.py is not imported: it sets
thread-pool environment variables when imported."""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from uavcell import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The workloads, checks and oracle modules, imported from perfbench/
    (checks imports oracle by its plain name)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import oracle
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, checks, oracle


@pytest.mark.parametrize("seed", [1, 2])
def test_mc_validate_pass_meets_the_benchmark_checks(perfbench, tmp_path, seed):
    workloads, checks, oracle = perfbench
    workload = workloads.build("mc-validate", seed)
    paths = {}
    for name, cfg in workload.configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    links = {name: oracle.Link(cfg) for name, cfg in workload.configs.items()}
    problems = []
    for index, command in enumerate(workload.commands):
        out_dir = tmp_path / f"cmd{index:02d}"
        out_dir.mkdir()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(command.cli_args(str(paths[command.config]), str(out_dir)))
        files = {path.name: path.read_text() for path in sorted(out_dir.iterdir())}
        found = checks.check(command, workload.configs[command.config],
                             links[command.config], rc, stdout.getvalue(), files,
                             f"{seed}:{index}")
        if stderr.getvalue():
            found.append(f"unexpected stderr: {stderr.getvalue().strip()[:200]}")
        problems += [f"command {index} ({command.kind} {command.mode}): {p}" for p in found]
    assert problems == []
    assert {command.kind for command in workload.commands} >= {"simulate", "sweep_sim"}
