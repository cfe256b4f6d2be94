"""Steadiness of the benchmark: run every workload repeatedly, in two sets.

    python3 perfbench/steady.py [--sets 2] [--first-seed 1]

Each set makes RUNS rounds; a round runs every workload of BENCHMARK.json
once, for its run_seconds, with a fresh seed, in forward order on even rounds
and reverse order on odd ones. For each workload and end-to-end metric it
prints, per set, the median, the quartiles and the spread (Q3 - Q1) / median,
then the drift of the second set's median from the first's. These are
compared with the bounds in BENCHMARK.json: a spread should stay under a
third of its bound ("ok"; within the bound is "wide"), and the drift within
the bound. The exit code is 1 if a spread or a drift exceeds its bound. The
raw results go to perfbench/out/steady-*.json. Run from the root of the
checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # rounds per set, as many runs per workload as the acceptance check makes


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for prefix in ("host_probe_ms=", "interpreter_start_ms=", "wall_clock "):
        line = next(line for line in lines if line.startswith(prefix))
        for key, value in (pair.split("=") for pair in line.split() if "=" in pair):
            result[("wall_clock_" + key) if prefix == "wall_clock " else key] = float(value)
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(results: dict, spec: dict):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, sets in results.items():
        print(f"\n== {workload}")
        print(f"{'metric':22} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'verdict':>8}")
        for name in [*bounds, "host_probe_ms", "interpreter_start_ms", "wall_clock_setup_s",
                     "wall_clock_study_s", "wall_clock_optimize_ms", "wall_s"]:
            medians = []
            for index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] if name in bounds else r[name]
                          for r in runs]
                median, q1, q3, spread = summary(values)
                medians.append(median)
                verdict = ""
                if name in bounds:
                    verdict = "ok" if spread < bounds[name] / 3 else (
                        "wide" if spread <= bounds[name] else "FAIL")
                    ok &= spread <= bounds[name]
                print(f"{name:22} {index + 1:>3} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bounds.get(name, float('nan')):6.3f} {verdict:>8}")
            if len(medians) == 2:
                drift = medians[1] / medians[0] - 1.0
                verdict = ""
                if name in bounds:
                    verdict = "ok" if abs(drift) <= bounds[name] else "FAIL"
                    ok &= abs(drift) <= bounds[name]
                print(f"{name:22} {'2/1':>3} drift {drift:+.4f}{'':34}{verdict:>8}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        print(f"failed share per set: {shares}; correct: "
              f"{all(r['correct'] for runs in sets for r in runs)}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    results = {name: [[] for _ in range(args.sets)] for name in names}
    seed = args.first_seed
    for set_index in range(args.sets):
        for round_index in range(RUNS):
            order = names if round_index % 2 == 0 else names[::-1]
            for name in order:
                result = run_once(name, seed, spec["run_seconds"])
                results[name][set_index].append(result)
                print(f"set {set_index + 1} round {round_index + 1} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                      + f" probe={result['host_probe_ms']:.3f}ms", flush=True)
                seed += 1
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    ok = report(results, spec)
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
