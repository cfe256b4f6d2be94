"""What `import uavcell` loads, and the package's exported names.

The package imports params, rates and optimize; the geometry, Monte Carlo and
mission names load their module on first access. Each check runs in a fresh
interpreter, where no other test has imported a module yet.
"""
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
README = (ROOT / "README.md").read_text()

# the README's library API, by the module that defines each name
DEFINED_IN = {
    "params": ("G0_DEFAULT", "SystemParams", "DeploymentVars", "dbm_to_watts"),
    "rates": ("MC", "BC", "MAC", "MODES", "rate_value", "cell_edge_rate_mc"),
    "optimize": ("OptResult", "search_1d", "optimize"),
    "geometry": ("HEXAGON", "DISK", "CellLayout", "GtRealization", "coverage_radius",
                 "make_layout", "sample_gts"),
    "montecarlo": ("SimSpec", "SimResult", "simulate_rate"),
    "mission": ("MissionPlan", "layout_centers", "plan_tour", "assemble_plan"),
}
EAGER = {"uavcell", "uavcell.params", "uavcell.rates", "uavcell.optimize"}
ALL_MODULES = EAGER | {f"uavcell.{name}" for name in ("config", "geometry", "montecarlo",
                                                       "mission", "cli")}


def _run(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter that imports uavcell from src/; return
    the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'uavcell')"


def _span_patches():
    """(module, attribute) of each function that perfbench/spans.py wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [[module, attr] for module, attr, *_ in spans._PATCHES]


def test_a_config_load_loads_only_the_eager_modules(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(README.split("```json\n", 1)[1].split("```", 1)[0])
    loaded = _run("import sys, uavcell; from uavcell.config import load_config; "
                  f"load_config(sys.argv[1]); print(__import__('json').dumps({_LOADED}))",
                  str(config))
    assert set(loaded) == EAGER | {"uavcell.config"}


def test_the_cli_loads_every_module_and_each_function_spans_wrap():
    # perfbench/spans.py patches module attributes that uavcell.cli must have
    # loaded, cli.simulate_rate, cli.assemble_plan and cli.coverage_radius among them
    got = _run("import json, sys, uavcell.cli; "
               "patches = json.loads(sys.argv[1]); "
               "missing = [p for p in patches if not hasattr(sys.modules['uavcell.' + p[0]], p[1])]; "
               f"print(json.dumps({{'loaded': {_LOADED}, 'missing': missing}}))",
               json.dumps(_span_patches()))
    assert set(got["loaded"]) == ALL_MODULES
    assert got["missing"] == []


_API_CHECK = """
import importlib, json, sys, types
import {first}
import uavcell
defined_in = json.loads(sys.argv[1])

def check():
    wrong = [name for module, names in defined_in.items() for name in names
             if getattr(uavcell, name) is not getattr(importlib.import_module('uavcell.' + module), name)]
    assert wrong == [], wrong
    assert isinstance(uavcell.optimize, types.FunctionType), uavcell.optimize

assert sorted(uavcell.__all__) == sorted(n for names in defined_in.values() for n in names)
check()
import uavcell.cli, uavcell.optimize
check()
from uavcell import cli, mission, montecarlo
modules = [m.__name__ for m in (cli, mission, montecarlo) if isinstance(m, types.ModuleType)]
try:
    uavcell.no_such_name
except AttributeError as exc:
    error = str(exc)
print(json.dumps({{'modules': modules, 'error': error,
                   'not_in_dir': sorted(set(uavcell.__all__) - set(dir(uavcell)))}}))
"""


@pytest.mark.parametrize("first", ["uavcell", "uavcell.cli"])
def test_every_export_is_the_defining_modules_object(first):
    got = _run(_API_CHECK.format(first=first), json.dumps(DEFINED_IN))
    assert got["modules"] == ["uavcell.cli", "uavcell.mission", "uavcell.montecarlo"]
    assert got["error"] == "module 'uavcell' has no attribute 'no_such_name'"
    assert got["not_in_dir"] == []


_SNIPPET_RUN = """
import ast, json, sys
namespace, values = {}, []
for node in ast.parse(sys.argv[1]).body:
    if isinstance(node, ast.Expr):
        values.append(eval(compile(ast.Expression(node.value), '<README>', 'eval'), namespace))
    else:
        exec(compile(ast.Module([node], []), '<README>', 'exec'), namespace)
print(json.dumps({'values': values, 'loaded': %s}))
""" % _LOADED


def test_readme_library_snippet_gives_its_documented_values():
    snippet = README.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    documented = re.findall(r"#\s*(\d+\.\d+)", snippet)
    assert documented == ["14.5988", "1.3240"]
    got = _run(_SNIPPET_RUN, snippet)
    assert [f"{value:.4f}" for value in got["values"]] == documented
    assert set(got["loaded"]) == EAGER
