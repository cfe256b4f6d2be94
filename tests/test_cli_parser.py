"""The command-line parser against argparse, kept here as a reference.

reference_parser() is the argparse parser the CLI used to build. Valid
command lines must parse to the same values under both, and invalid ones
must exit 2 with argparse's error text. The three documented departures
are asserted on their own: no option prefixes, a value led by a single "-"
is taken as a value, and so is a value "--" after "=" (Python 3.11's
argparse drops it and stores an empty list).
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcell import cli
from uavcell.rates import MODES

SRC = Path(cli.__file__).resolve().parents[1]


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcell",
        description="Altitude/beamwidth tradeoff tools for a UAV-mounted aerial cell")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="directory for CSV outputs")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="closed-rule altitude + beamwidth search")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--tol", type=float, default=1e-4,
                   help="beamwidth search tolerance, radians")
    p.add_argument("--csv", action="store_true", help="also write the search trace CSV")

    p = sub.add_parser("sweep", help="tabulate the rate along one variable")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--var", required=True, choices=("h", "theta"))
    p.add_argument("--range", required=True, metavar="LO:HI:N", dest="sweep_range")
    p.add_argument("--fixed-h", type=float, default=None,
                   help="altitude when sweeping theta (default: box midpoint)")
    p.add_argument("--fixed-theta", type=float, default=None,
                   help="beamwidth when sweeping h (default: box midpoint)")
    p.add_argument("--with-sim", action="store_true",
                   help="add an empirical Monte Carlo column")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--count-model", choices=("poisson", "fixed"), default="poisson")

    p = sub.add_parser("simulate", help="Monte Carlo check of one operating point")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--altitude", type=float, default=None,
                   help="operating altitude (default: box midpoint)")
    p.add_argument("--theta", type=float, default=None,
                   help="operating half-beamwidth (default: box midpoint)")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--count-model", choices=("poisson", "fixed"), default="poisson")
    p.add_argument("--gap-tol", type=float, default=0.05,
                   help="exit 3 when |empirical-analytic|/analytic exceeds this")
    p.add_argument("--csv", action="store_true", help="write per-realization CSV")

    p = sub.add_parser("plan", help="hex layout + visiting tour + hover schedule")
    p.add_argument("--mode", required=True, choices=MODES)
    return parser


# the value text of each option; None for a flag. "--" is a departure,
# asserted on its own
TEXT = st.text(max_size=6).filter(lambda text: text != "--")
FLOATS = st.floats().map(repr)
INTS = st.integers(-10**9, 10**9).map(str)
MODE = st.sampled_from(MODES)
SIM = {"--realizations": INTS, "--count-model": st.sampled_from(["poisson", "fixed"])}
GLOBAL = {"--config": TEXT, "--out": TEXT, "--seed": INTS}
COMMANDS = {
    "optimize": {"--mode": MODE, "--tol": FLOATS, "--csv": None},
    "sweep": {"--mode": MODE, "--var": st.sampled_from(["h", "theta"]), "--range": TEXT,
              "--fixed-h": FLOATS, "--fixed-theta": FLOATS, "--with-sim": None, **SIM},
    "simulate": {"--mode": MODE, "--altitude": FLOATS, "--theta": FLOATS, **SIM,
                 "--gap-tol": FLOATS, "--csv": None},
    "plan": {"--mode": MODE},
}
REQUIRED = {"--config", "--mode", "--var", "--range"}


def _separable(value: str) -> bool:
    """Whether argparse reads value as its own token after an option: not led
    by "-", or a negative number by argparse's own pattern."""
    return not value.startswith("-") or re.fullmatch(r"-\d+|-\d*\.\d+", value) is not None


@st.composite
def _level(draw, options):
    """One level's options in any order, repeated or left out; the required
    ones at least once; each value as its own token or after "="."""
    names = draw(st.lists(st.sampled_from(sorted(options)), max_size=8))
    names = draw(st.permutations(names + sorted(REQUIRED & set(options))))
    tokens = []
    for name in names:
        if options[name] is None:
            tokens.append(name)
            continue
        value = draw(options[name])
        if _separable(value) and draw(st.booleans()):
            tokens += [name, value]
        else:
            tokens.append(f"{name}={value}")
    return tokens


@st.composite
def valid_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    return [*draw(_level(GLOBAL)), command, *draw(_level(COMMANDS[command]))]


def _values(namespace) -> str:
    # repr, so that nan equals nan and -0.0 differs from 0.0
    return repr(sorted(vars(namespace).items()))


def _reference_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        reference_parser().parse_args(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


@settings(max_examples=400, deadline=None)
@given(valid_argvs())
def test_valid_argv_parses_as_argparse_does(argv):
    copy = list(argv)
    assert _values(cli.parse_args(argv)) == _values(reference_parser().parse_args(argv))
    assert argv == copy


def test_option_tables_name_the_reference_options():
    assert set(cli._GLOBAL) == set(GLOBAL)
    assert {name: set(options) for name, (_, options) in cli._COMMANDS.items()} == {
        name: set(options) for name, options in COMMANDS.items()}


def test_negative_numbers_after_an_option():
    argv = ["--config", "c", "--seed=-3", "sweep", "--mode", "mc", "--var", "theta",
            "--range=-1:2:3", "--fixed-h=-5", "--fixed-theta", "-0.5", "--realizations", "-2"]
    args = cli.parse_args(argv)
    assert (args.seed, args.sweep_range, args.fixed_h, args.fixed_theta, args.realizations) == (
        -3, "-1:2:3", -5.0, -0.5, -2)
    assert _values(args) == _values(reference_parser().parse_args(argv))


INVALID = [
    ["--config", "c", "optimize", "--mode", "uplink"],
    ["--config", "c", "optimize", "--mode=uplink", "--tol", "abc"],
    ["--config", "c", "optimize", "--tol", "abc"],
    ["--config", "c", "optimize", "--mode", "mc", "--tol", "abc"],
    ["--config", "c", "optimize", "--mode", "mc", "--tol"],
    ["--config", "c", "optimize", "--mode", "mc", "--tol", "--csv"],
    ["--config", "c", "optimize", "--mode", "mc", "--csv=1"],
    ["--config", "c", "optimize", "--mode", "mc", "--csv="],
    ["--config", "c", "optimize"],
    ["--config", "c", "sweep", "--mode", "mc"],
    ["--config", "c", "sweep", "--mode", "mc", "--var", "h", "--range"],
    ["--config", "c", "sweep", "--mode", "bc", "--var", "x", "--range", "1:2:3"],
    ["--config", "c", "simulate", "--mode", "mc", "--realizations", "ten"],
    ["--config", "c", "simulate", "--mode", "mc", "--realizations", "1.5"],
    ["--config", "c", "simulate", "--mode", "mc", "--count-model", "binomial"],
    ["--config", "c", "simulate", "--mode", "mc", "--gap-tol="],
    ["--config", "c"],
    [],
    ["optimize", "--mode", "mc"],
    ["--out", "o", "plan"],
    ["--config"],
    ["--config", "--out", "o", "plan", "--mode", "mc"],
    ["--config", "c", "foo"],
    ["--config", "c", "optimize", "--mode", "mc", "--bogus", "3"],
    ["--bogus", "--config", "c", "optimize", "--mode", "mc", "--seed", "3"],
    ["--config", "c", "optimize", "--mode", "mc", "--seed", "3"],
    ["--config", "c", "plan", "--mode", "mc", "extra"],
    ["--config", "c", "optimize", "--mode", "mc", "--"],
    ["--seed", "x", "--config", "c", "plan", "--mode", "mc"],
    ["--seed", "1.5", "--config", "c", "plan", "--mode", "mc"],
]


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_invalid_argv_exits_2_worded_as_argparse(argv, capsys):
    expected = _reference_error(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert error == expected
    prog = error.partition(": error: ")[0]
    assert usage.startswith(f"usage: {prog} [-h] ")


@pytest.mark.parametrize("argv", [
    ["--conf", "c", "optimize", "--mode", "mc"],
    ["--config", "c", "optimize", "--mo", "mc"],
    ["--config", "c", "sweep", "--mode", "mc", "--var", "h", "--range", "1:2:3", "--with"],
])
def test_option_prefixes_are_refused(argv, capsys):
    reference_parser().parse_args(argv)  # argparse took a unique prefix
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    assert ": error: " in capsys.readouterr().err


def test_single_dash_value_is_a_value(tmp_path, capsys):
    argv = ["sweep", "--mode", "mc", "--var", "h", "--range", "-1:2:3"]
    assert "--range: expected one argument" in _reference_error(["--config", "c", *argv],
                                                                capsys)
    assert cli.parse_args(["--config", "c", "--out", "-o", *argv]).sweep_range == "-1:2:3"
    config = {"beta0": 1.42e-4, "bandwidth_hz": 1.0e7, "p_downlink_dbm": 10.0,
              "p_uplink_dbm": -10.0, "noise_psd_dbm_hz": -169.0, "density_per_m2": 0.005,
              "h_min_m": 50.0, "h_max_m": 500.0, "theta_min_rad": 0.05, "theta_max_rad": 1.5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path), "--out", str(tmp_path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: range: altitude sweep must be positive, got -1.0:2.0\n"


def test_double_dash_value_is_a_value(capsys):
    argvs = {"config": ["--config=--", "optimize", "--mode=mc"],
             "out": ["--config=c", "--out=--", "optimize", "--mode=mc"],
             "sweep_range": ["--config=c", "sweep", "--mode=mc", "--var=h", "--range=--"]}
    for dest, argv in argvs.items():
        assert getattr(cli.parse_args(argv), dest) == "--"
    # a typed option converts it, as any other text
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--config=c", "--seed=--", "optimize", "--mode=mc"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "uavcell: error: argument --seed: invalid int value: '--'\n")


@pytest.mark.parametrize("command", [None, *COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_0_and_names_every_option(command, flag, capsys):
    # before the required options are checked, as argparse: no --config here
    argv = [flag] if command is None else [command, flag, "--mode", "uplink"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    prog = "uavcell" if command is None else f"uavcell {command}"
    assert captured.out.startswith(f"usage: {prog} [-h] ")
    names = [*GLOBAL, *COMMANDS] if command is None else COMMANDS[command]
    for name in ["-h, --help", *names]:
        assert re.search(rf"^  {re.escape(name)}\b", captured.out, re.M), name


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_out_argparse_and_logging():
    # each costs milliseconds of import on every command line start; orjson
    # is imported by the first CSV a command writes, the records are
    # namedtuples, and the per-terminal SNR is a test-side reference
    code = ("import sys; before = set(sys.modules); import uavcell.cli; "
            "print(sorted({'argparse', 'logging', 'orjson', 'dataclasses', 'uavcell.channel'}"
            " & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_module_help_exits_0():
    proc = subprocess.run([sys.executable, "-m", "uavcell.cli", "--help"], env=_child_env(),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: uavcell [-h] --config CONFIG")
    assert proc.stderr == ""
