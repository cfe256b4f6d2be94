"""Golden bytes: the exit code, stdout, stderr and every CSV of fixed commands
on the README's example config and on variants of it, pinned by sha256. A
change that moves any byte of them fails here and prints the new digests;
paste them into GOLDEN only when the change says why its output changed. The
digests hold for numpy 2.4.6 on x86-64: vectorized libm kernels may round
differently elsewhere.

The commands run in a child process, so that stderr holds what a user sees,
plan's hover warning included. Run this file
as a script to print the digests of the working directory's checkout:

    PYTHONPATH=src python tests/test_golden.py

With --workloads SEEDS (comma-separated, e.g. 1,2,3) it instead runs every
command of the three benchmark workloads built from perfbench/workloads.py at
each seed, and prints one line per command: its name, exit code and the
sha256 of its stdout, stderr and each CSV. It then prints one such line per
command pinned here (COMMANDS and VARIANTS). Two checkouts whose lines match
write the same bytes on the benchmark's commands and on the pinned ones:

    PYTHONPATH=src python tests/test_golden.py --workloads 1,2,3
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from uavcell import cli
from uavcell.rates import MODES

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = {
    **{f"optimize {mode} --csv": ("optimize", "--mode", mode, "--csv") for mode in MODES},
    **{f"sweep {mode} {var}": ("sweep", "--mode", mode, "--var", var, "--range", span)
       for mode in MODES for var, span in (("theta", "0.05:1.5:50"), ("h", "50:500:50"))},
    **{f"plan {mode}": ("plan", "--mode", mode) for mode in MODES},  # bc exits 2
    # the CSVs with int columns and a "# seed=" line
    **{f"simulate {mode} --csv": ("simulate", "--mode", mode, "--realizations", "20", "--csv")
       for mode in MODES},
    "sweep bc theta --with-sim": ("sweep", "--mode", "bc", "--var", "theta", "--range",
                                  "0.3:0.9:6", "--with-sim", "--realizations", "10"),
    # exits 2: a 16 m^2 hexagon holds 0.08 expected terminals
    "simulate mc fixed count 0": ("simulate", "--mode", "mc", "--altitude", "50", "--theta",
                                  "0.05", "--count-model", "fixed"),
    # 0.33 (hexagon) and 0.40 (disk) expected terminals: most realizations
    # are empty, and they lie on both sides of the first chunk edge
    **{f"simulate {mode} --csv empty cells": ("simulate", "--mode", mode, "--altitude", "50",
                                              "--theta", "0.1", "--realizations", "40000",
                                              "--csv") for mode in MODES},
    # 42,000 (hexagon) and 51,000 (disk) expected terminals: each
    # realization spans more than two chunks
    **{f"simulate {mode} --csv many chunks": ("simulate", "--mode", mode, "--altitude", "500",
                                              "--theta", "1.3", "--realizations", "3", "--csv")
       for mode in MODES},
    "simulate mac fixed --csv": ("simulate", "--mode", "mac", "--realizations", "20",
                                 "--count-model", "fixed", "--csv"),
}

# commands on README configs with some keys replaced: label -> (keys, argv).
# Each link budget exits 2 on a derived SNR scale that is not positive and finite.
# Each area is one layout branch the README area does not reach, in ~198 m mac
# cells: an even column count, a strip of two y values and a single column.
VARIANTS = {
    "optimize bc alpha=inf": ({"p_downlink_dbm": 3100}, ("optimize", "--mode", "bc")),
    "optimize mac eta=0": ({"beta0": 1e-318}, ("optimize", "--mode", "mac")),
    "optimize bc alpha=0": ({"p_downlink_dbm": -3000, "noise_psd_dbm_hz": 3000},
                            ("optimize", "--mode", "bc")),
    "plan mac 4 columns": ({"area_width_m": 700.0}, ("plan", "--mode", "mac")),
    "plan mac strip": ({"area_width_m": 2000.0, "area_height_m": 100.0},
                       ("plan", "--mode", "mac")),
    "plan mac column": ({"area_width_m": 50.0, "area_height_m": 2000.0},
                        ("plan", "--mode", "mac")),
}

GOLDEN = {
    "optimize mc --csv": "d54385342b6bd981f207032cf01f36f3b23eb2c7b4f3912c69a38ea50c9bb84b",
    "optimize bc --csv": "348f84ff95c9ba851a1e93fcfdf50af1983186e4bb368fdafa7ac2b38668bac3",
    "optimize mac --csv": "5e0261c7b1ae4eac9dcdc9d43f62f5f49fecff4cc30bebb87c16431cd0400586",
    "sweep mc theta": "5791e130a06784fa5c16bd4d09dca161effe4d6a88fbec65cd0e8144a7d54068",
    "sweep mc h": "51afa5c0de99be60484406cac4c6e07b854fb0b20e25c4d0b55f8f8675d665c0",
    "sweep bc theta": "4f4d11bebf52e69caffca3c3f85b34406089aaa3b684380b01aa46b766d6320c",
    "sweep bc h": "bff2fe77f0c693ef743c888ee2c33987b397ff6fad5834cae72ae3690fdf9d15",
    "sweep mac theta": "c1934addb9cc65fe468932b2a12316f1187ff2e34651d8814490088aaaa9f37a",
    "sweep mac h": "68bdc412aef594d89c8163f92f28c7887bbc0cafb4b8c87e57055767948304cc",
    "plan mc": "071f2410a155912fa256717e24c1880f01be905cfd327ab36196953a2c8349c7",
    "plan bc": "d7a418c12c08f674616eb6c3c386f54cc56c9345bf4da1451893c64de496cee1",
    "plan mac": "2094e401f063d99f784810f620e24e0a47f0718a42e9add369ce77352724edd3",
    "simulate mc --csv": "47f0df70f65f74193618300ad5f28b9282d75cfcff277c3cac359abb68835fae",
    "simulate bc --csv": "a24e74daa00b71ac4b0e70253d03ad43c7fee42e8010124a31aa06007a2eef15",
    "simulate mac --csv": "18efcfbcd5afbab7b2d2f6a833afdb5f6ddcd5fa544543ac3a5cbda2768f0923",
    "sweep bc theta --with-sim": "8d3d89b45a4bebe92c42af48de74e9cf298443ab9d76e851fc3a179cba16781c",
    "simulate mc fixed count 0": "33264dfa0af3148768e12d812a6b9d7c8ad51d05b259b452a4b680421b89a7a5",
    "simulate mc --csv empty cells": "222f4a5e38d662326b0a0013382cd27e60d339fff5a51b6b300e3d96edd6c5e3",
    "simulate bc --csv empty cells": "63a2f8c836a476e652ae4b40432ff87256dbaef7c7d221664fb97bc2026e2fe1",
    "simulate mac --csv empty cells": "2c6cbd0641008bfc932267deddb17ff266dadff71fe2de982383fd49200311ff",
    "simulate mc --csv many chunks": "223146062a7eeaa48611b110fbbf195b91cb8d2b62cc4a98679cf2b80716a829",
    "simulate bc --csv many chunks": "2bb9b20861ebfedfae8420c1122b23052a6fd2125d5df5176b2334fde01ff797",
    "simulate mac --csv many chunks": "26f2d844dd25c76c49f41bc17bf1b3a80bb3407fdcc5d106f4c9f295d9d47c1e",
    "simulate mac fixed --csv": "77386d1244f6f13a87332b694da5def10e67224ef8beeebdd60260a187397a0a",
    "optimize bc alpha=inf": "23d681b199ba13ada28a1871763034f3f03c4721e3365145c0ed486919725896",
    "optimize mac eta=0": "98c66463e3be339ba48178c4604afcd816f9ab7c00c012062cb0ca60977d6b29",
    "optimize bc alpha=0": "be5b8a8ebdb6260361f50c341f74a8530c1ca597647c195d5943dfa7bf0ee5d1",
    "plan mac 4 columns": "49adf770dd99e4cb1f8d85bcf14cb223df273007e971e9b959858dd62cc94286",
    "plan mac strip": "489639ceeb31d72466b60c96908c5cb50773df4c3b93af34ac3c5932376c23ea",
    "plan mac column": "3345dc57612e3aac8f2601e458a8622ad751d6883246498bcdd836dcffea6409",
}


def readme_config() -> dict:
    """The config example of the README's CLI section, its one JSON block."""
    return json.loads((ROOT / "README.md").read_text().split("```json\n", 1)[1].split("```", 1)[0])


def _run(argv, out: Path):
    """cli.main(argv) in this process: (exit code, stdout, stderr, {CSV name:
    bytes}), the CSVs read from out and deleted."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
    return rc, stdout.getvalue(), stderr.getvalue(), files


def _readme_records():
    """(label, record of _run) of each command of COMMANDS and VARIANTS, run
    in the working directory with relative paths, so that the paths printed
    in reports are the same in any checkout."""
    commands = {label: ({}, argv) for label, argv in COMMANDS.items()} | VARIANTS
    for index, (label, (keys, argv)) in enumerate(commands.items()):
        Path(f"cfg{index}.json").write_text(json.dumps(readme_config() | keys))
        yield label, _run(["--config", f"cfg{index}.json", "--out", "out", *argv], Path("out"))


def digests() -> dict:
    """label -> sha256 of (exit code, stdout, stderr, {CSV name: bytes}) of
    each command, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        return {label: hashlib.sha256(repr(record).encode()).hexdigest()
                for label, record in _readme_records()}


def workload_digest_lines(seeds):
    """One line per command of each benchmark workload at each seed, then
    one per command of COMMANDS and VARIANTS: its name, exit code, and the
    sha256 of stdout, stderr and each CSV. The commands run in a fresh
    directory with relative paths, as digests()."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    def sha(data) -> str:
        return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

    def line(name, record) -> str:
        rc, stdout, stderr, files = record
        return " ".join([name, f"rc={rc}", f"stdout={sha(stdout)}", f"stderr={sha(stderr)}",
                         *(f"{csv}={sha(data)}" for csv, data in files.items())])

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for seed in seeds:
            for name in workloads.WORKLOADS:
                workload = workloads.build(name, seed)
                for cfg_name, cfg in workload.configs.items():
                    Path(f"{cfg_name}.json").write_text(json.dumps(cfg))
                for index, command in enumerate(workload.commands):
                    record = _run(command.cli_args(f"{command.config}.json", "out"), Path("out"))
                    yield line(f"{name} seed={seed} #{index} {command.kind} {command.mode}",
                               record)
        for label, record in _readme_records():
            yield line(f"readme {label}", record)


def test_readme_commands_keep_their_bytes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    found = json.loads(proc.stdout)
    assert found == GOLDEN, "new digests:\n" + "\n".join(
        f'    "{label}": "{digest}",' for label, digest in found.items())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workloads", metavar="SEEDS",
                        help="digest the benchmark workloads' commands at these seeds, e.g. 1,2,3")
    options = parser.parse_args()
    if options.workloads:
        for line in workload_digest_lines([int(seed) for seed in options.workloads.split(",")]):
            print(line)
    else:
        print(json.dumps(digests()))
