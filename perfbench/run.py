"""Benchmark of the uavcell command line: one workload in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a uavcell checkout; the package is imported from its
src/ directory. The workload's configs are generated from the seed and its
commands are run in-process through uavcell.cli.main, pass after pass, for S
seconds after one warm-up pass. Every output is checked afterwards (checks.py)
against values computed apart from the program (oracle.py). The last line of
stdout is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 every other
pass runs with spans recorded (spans.py) and the metrics are per layer.
A host probe runs after every command, and every command timing is scaled by
the probes around it; every set-up sample is scaled by the bare interpreter
starts around it (see measure()).
"""
import os

# one thread in every numeric pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPTIMIZE = 110      # optimize samples per run: at least 10 beyond the p90
MAX_TRACED_PASSES = 10  # bounds the spans kept in memory; later passes run untraced
SETUP_BURSTS = 9        # bursts of set-ups spread through a run
SETUP_BURST = 3         # set-ups per burst, each between two bare starts
# Timings are scaled to a host on which the probe takes PROBE_REFERENCE_S and
# a bare interpreter start takes START_REFERENCE_S, about their medians on
# the 2-core KVM host the bounds were set on.
PROBE_REFERENCE_S = 0.00275
START_REFERENCE_S = 0.085
PROBE_PY_STEPS = 6_000
PROBE_NP_DRAWS = 100_000  # two buffers of these, 1.6 MB, held for the whole run

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, uavcell; "
              "from uavcell.config import load_config; "
              "[load_config(path) for path in sys.argv[2:]]")
START_CODE = "pass"


@functools.cache
def _probe_buffers():
    import numpy as np

    return np.empty(PROBE_NP_DRAWS), np.empty(PROBE_NP_DRAWS)


def host_probe() -> float:
    """Seconds for a fixed piece of work that does not touch uavcell: scalar
    float math in the interpreter, then numpy sampling and a vector log, the
    two kinds of work the commands do. The numpy part fills buffers made
    once, so that its time does not depend on the heap the program leaves
    behind: drawing into fresh arrays ran twice as fast after the process
    had freed large arrays, because the new arrays then needed no new pages."""
    import numpy as np

    draws, logs = _probe_buffers()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_PY_STEPS):
        x = i * 1e-5
        acc += math.log1p(x * x) / math.cos(x)
    np.random.default_rng(12345).random(out=draws)
    acc += float(np.log1p(draws, out=logs).sum())
    return time.perf_counter() - t0


def interpreter_time(*args) -> float:
    """Wall time of a fresh interpreter running `python -c *args`. No
    timeout: with one, the wait polls and rounds the time up to 50 ms steps."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", *args], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_burst(config_paths):
    """(raw, scaled, starts) seconds of SETUP_BURST set-ups: fresh interpreters that
    import numpy and uavcell and load the workload's configs. Each is scaled
    by START_REFERENCE_S over the mean of the bare interpreter starts just
    before and after it. A start does the same kind of work (process
    creation, site imports, reading and unmarshalling modules) without
    touching uavcell, and it tracks the host's speed phases, which a short
    in-process probe does not: on the reference host, medians of 25 raw
    set-ups spread by 0.12 across back-to-back runs, and so did medians
    scaled by the probe."""
    raw, scaled = [], []
    starts = [interpreter_time(START_CODE)]
    for _ in range(SETUP_BURST):
        seconds = interpreter_time(SETUP_CODE, str(SRC), *config_paths)
        starts.append(interpreter_time(START_CODE))
        raw.append(seconds)
        scaled.append(seconds * START_REFERENCE_S / ((starts[-2] + starts[-1]) / 2))
    return raw, scaled, starts


class Runner:
    """Runs passes of a workload's commands and keeps each distinct output."""

    def __init__(self, cli, workload, run_dir: Path):
        self.cli = cli
        self.workload = workload
        self.config_paths = {}
        for name, cfg in workload.configs.items():
            path = run_dir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            self.config_paths[name] = str(path)
        self.out_dirs = []
        self.argvs = []
        for index, command in enumerate(workload.commands):
            out_dir = run_dir / f"cmd{index:02d}"
            out_dir.mkdir()
            self.out_dirs.append(out_dir)
            self.argvs.append(command.cli_args(self.config_paths[command.config], str(out_dir)))
        # per command: output digest -> [passes that produced it, output]
        self.outputs = [{} for _ in workload.commands]
        self.recorder = None

    def run_pass(self, probe):
        """Run every command once, calling probe() after each. Returns
        (command kind, wall seconds, probe seconds) per command."""
        results = []
        samples = []
        rec = self.recorder
        for command, argv in zip(self.workload.commands, self.argvs):
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    if rec is None:
                        rc = self.cli.main(argv)
                    else:
                        span = len(rec.start)
                        rc = rec.call(f"cli.{command.kind}", self.cli.main, (argv,))
                        rec.set_count(span, command.meta.get("rows", 0))
                except (Exception, SystemExit) as exc:  # a crash is a failed operation
                    rc = f"raised {exc!r}"
            seconds = time.perf_counter() - t0
            samples.append((command.kind, seconds, probe()))
            results.append((rc, stdout.getvalue(), stderr.getvalue()))
        self._keep(results)
        return samples

    def _keep(self, results):
        for index, (rc, stdout, stderr) in enumerate(results):
            files = {}
            for path in sorted(self.out_dirs[index].iterdir()):
                files[path.name] = path.read_text()
                path.unlink()
            digest = hashlib.sha256(repr((rc, stdout, stderr, files)).encode()).hexdigest()
            seen = self.outputs[index].setdefault(digest, [0, (rc, stdout, stderr, files)])
            seen[0] += 1


def check_outputs(runner, seed):
    """(failed operations, problem lines). Every distinct output of every
    command is checked; a bad output fails each pass that produced it."""
    import checks
    from oracle import Link

    links = {name: Link(cfg) for name, cfg in runner.workload.configs.items()}
    failed, lines = 0, []
    for index, command in enumerate(runner.workload.commands):
        for passes, (rc, stdout, stderr, files) in runner.outputs[index].values():
            problems = checks.check(command, runner.workload.configs[command.config],
                                    links[command.config], rc, stdout, files,
                                    f"{seed}:{index}")
            if stderr:
                problems.append(f"unexpected stderr: {stderr.strip()[:200]}")
            if problems:
                failed += passes
                lines += [f"command {index} ({' '.join(runner.argvs[index][4:])}): {p}"
                          for p in problems[:5]]
    return failed, lines


PLAN_KEYS = ("h_m", "theta_rad", "tour_length_m", "n_cells")


def _plan_reports(runner):
    """(command index, parsed report) of each plan command: its first output
    that exited 0 with a complete summary, or None when it has none."""
    from checks import parse_report

    for index, command in enumerate(runner.workload.commands):
        if command.kind == "plan":
            reports = (parse_report(stdout)
                       for _, (rc, stdout, _, _) in runner.outputs[index].values()
                       if rc == 0)
            yield index, next((r for r in reports if all(k in r for k in PLAN_KEYS)), None)


def tour_ratio(runner) -> float:
    """Summed tour length of the plans over the sum of n sqrt(3) R, the
    least any closed tour over n hex centres can be. NaN when a plan never
    produced a summary (its failure is counted by the checks)."""
    tour = bound = 0.0
    for _, report in _plan_reports(runner):
        if report is None:
            return math.nan
        radius = float(report["h_m"]) * math.tan(float(report["theta_rad"]))
        tour += float(report["tour_length_m"])
        bound += int(report["n_cells"]) * math.sqrt(3.0) * radius
    return tour / bound


def random_tours(runner, seed, rec) -> float:
    """Seconds of plan_tour on seeded uniform points in a 1 km square, one
    point set per plan of the workload, with the plan's cell count."""
    import numpy as np
    from uavcell import mission

    total = 0.0
    for index, report in _plan_reports(runner):
        if report is None:
            return math.nan
        points = np.random.default_rng([seed, index]).uniform(
            0.0, 1000.0, size=(int(report["n_cells"]), 2))
        t0 = time.perf_counter()
        rec.call("mission.plan_tour_random", mission.plan_tour, (points, (0.0, 0.0), 20.0))
        total += time.perf_counter() - t0
    return total


def layer_metrics(rec, tour_random_s) -> dict:
    from spans import Analysis

    a = Analysis(rec)
    sweep_rows = a.count[a.mask("cli.sweep")].sum()
    return {
        "config.load_ms": a.median("config.load_config") * 1e3,
        "rates.mc_ns": a.mean("rates.rate_value.mc") * 1e9,
        "rates.bc_ns": a.mean("rates.rate_value.bc") * 1e9,
        "rates.mac_ns": a.mean("rates.rate_value.mac") * 1e9,
        "optimize.call_ms": a.median("optimize.optimize") * 1e3,
        "optimize.evals": a.children_per("optimize.optimize", "rates.rate_value"),
        "cli.sweep_us_per_row": a.dur[a.mask("cli.sweep")].sum() / sweep_rows * 1e6,
        "cli.self_us_per_row": a.self_time[a.mask("cli.sweep")].sum() / sweep_rows * 1e6,
        "geometry.disk_ns_per_gt": a.per_unit("geometry.sample_gts.disk") * 1e9,
        "geometry.hex_ns_per_gt": a.per_unit("geometry.sample_gts.hexagon") * 1e9,
        "montecarlo.mc_ns_per_gt": a.per_unit("montecarlo.simulate_rate.mc", a.self_time) * 1e9,
        "montecarlo.bc_ns_per_gt": a.per_unit("montecarlo.simulate_rate.bc", a.self_time) * 1e9,
        "montecarlo.mac_ns_per_gt": a.per_unit("montecarlo.simulate_rate.mac", a.self_time) * 1e9,
        "montecarlo.us_per_realization": a.smallest_count_per_realization() * 1e6,
        "montecarlo.terminals_per_s": 1.0 / a.per_unit("montecarlo.simulate_rate"),
        "mission.layout_ms": a.per_pass_median("mission.layout_centers") * 1e3,
        "mission.tour_s": a.per_pass_median("mission.plan_tour"),
        "mission.tour_random_s": tour_random_s,
        "mission.cells_per_s": 1.0 / a.per_unit("mission.assemble_plan"),
        "cli.plan_self_ms": float(a.self_time[a.mask("cli.plan")].mean()) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uavcell" / "cli.py").is_file():
        print(f"error: no uavcell sources under {SRC}; run from a uavcell checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from uavcell import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(args, workload, cli, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, workload, cli, run_dir) -> int:
    """Time the passes, check the outputs and print the result.

    The host's speed moves by up to +-30 % in phases that last from seconds
    to minutes, longer than a run. So every command's time is also scaled by
    PROBE_REFERENCE_S over the mean of the host probes taken right before and
    right after it, and every set-up by the bare starts around it (see
    setup_burst()). A pass is the sum of its commands; the metrics are
    medians of scaled samples, and the plain wall-clock medians are printed
    beside them."""
    from spans import Recorder
    from workloads import corner_problems

    runner = Runner(cli, workload, run_dir)
    config_paths = list(runner.config_paths.values())
    probe_s = [host_probe()]
    start_s = []
    raw = {"setup": [], "pass": [], "optimize": [], "traced": []}
    scaled = {key: [] for key in raw}

    def scale(seconds, after):
        """seconds, scaled by the probes before (the last one) and after it"""
        factor = PROBE_REFERENCE_S / ((probe_s[-1] + after) / 2)
        probe_s.append(after)
        return seconds * factor

    def take_setup():
        burst_raw, burst_scaled, starts = setup_burst(config_paths)
        raw["setup"] += burst_raw
        scaled["setup"] += burst_scaled
        start_s.extend(starts)
        probe_s.append(host_probe())  # a fresh "before" for the next command

    take_setup()
    warm_up = runner.run_pass(host_probe)     # fills caches, finishes lazy imports
    probe_s.append(warm_up[-1][2])
    rec = Recorder() if args.trace else None
    interval = args.seconds / SETUP_BURSTS
    last_setup = start = time.perf_counter()
    passes = 1
    while (time.perf_counter() - start < args.seconds
           or (rec is None and len(raw["optimize"]) < MIN_OPTIMIZE)):
        traced = (rec is not None and passes % 2 == 1
                  and len(raw["traced"]) < MAX_TRACED_PASSES)
        if traced:
            rec.current_pass = passes
            rec.install()
            runner.recorder = rec
        try:
            samples = runner.run_pass(host_probe)
        finally:
            if traced:
                rec.uninstall()
                runner.recorder = None
        passes += 1
        pass_raw = pass_scaled = 0.0
        for kind, seconds, after in samples:
            scaled_seconds = scale(seconds, after)
            pass_raw += seconds
            pass_scaled += scaled_seconds
            if kind == "optimize" and not traced:
                raw["optimize"].append(seconds)
                scaled["optimize"].append(scaled_seconds)
        key = "traced" if traced else "pass"
        raw[key].append(pass_raw)
        scaled[key].append(pass_scaled)
        if (time.perf_counter() - last_setup >= interval
                and len(raw["setup"]) < SETUP_BURSTS * SETUP_BURST):
            take_setup()
            last_setup = time.perf_counter()
    while len(raw["setup"]) < SETUP_BURSTS * SETUP_BURST:
        take_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = check_outputs(runner, args.seed)
    problems += corner_problems(workload)
    for line in problems[:20]:
        print(f"check failed: {line}")

    median = statistics.median
    print(f"passes={passes} timed_passes={len(raw['pass'])} commands_per_pass="
          f"{len(workload.commands)} optimize_samples={len(raw['optimize'])}")
    print(f"host_probe_ms={median(probe_s) * 1e3:.4f} (median of {len(probe_s)}; "
          f"timings are scaled to {PROBE_REFERENCE_S * 1e3:g} ms)")
    print(f"interpreter_start_ms={median(start_s) * 1e3:.4f} (median of {len(start_s)}; "
          f"set-ups are scaled to {START_REFERENCE_S * 1e3:g} ms)")
    print(f"wall_clock setup_s={median(raw['setup']):.6f} study_s={median(raw['pass']):.6f} "
          f"optimize_ms={median(raw['optimize']) * 1e3:.6f} (unscaled medians)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if rec is not None:
        overhead = median(scaled["traced"]) / median(scaled["pass"]) - 1.0
        print(f"trace_overhead_pct={overhead * 100:.2f} (median traced pass "
              f"{median(scaled['traced']):.4f} s vs untraced {median(scaled['pass']):.4f} s)")
        trace_path = OUT / f"trace-{args.workload}.npz"
        rec.save(trace_path)
        print(f"spans={trace_path.relative_to(ROOT)} ({len(rec.start)} spans)")
        values = layer_metrics(rec, random_tours(runner, args.seed, rec))
        listed = spec["per_layer"]
    else:
        latencies = sorted(scaled["optimize"])
        values = {
            "setup_s": median(scaled["setup"]),
            "study_s": median(scaled["pass"]),
            "optimize_ms": median(latencies) * 1e3,
            # nearest rank: at least 10 samples lie beyond it
            "optimize_p90_ms": latencies[math.ceil(0.9 * len(latencies)) - 1] * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "tour_ratio": tour_ratio(runner),
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": not problems, "attempted": passes * len(workload.commands),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
