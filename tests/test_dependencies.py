"""The package's runtime imports: the standard library and numpy only.

Every subcommand runs with scipy blocked: the FFTs are numpy's, Gamma is
`math.gamma`, and the directionality null's critical value and pdf come
from the package's own non-central t quadrature. scipy (and mpmath) are
test dependencies, the references the tests compare against.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ndsense"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ndsense"}

# (config, analyze inputs) of one small run of each kind the CLI does: the
# tracker, the rheology analyses (modulus, PSD, force, segmentation) and the
# ODMR staircase with its temperature, shift and setpoint inputs
_RUNS = [
    ({"schema_version": 1, "seed": 7, "medium": {"kind": "brownian", "D_nm2_per_s": 1e3},
      "simulate": {"duration_s": 1.0},
      "tracker": {"enabled": True, "brightness_cps": 2e6}},
     ["--traj", "estimate.csv"]),
    ({"schema_version": 1, "seed": 5, "medium": {"kind": "brownian", "D_nm2_per_s": 1e4},
      "simulate": {"duration_s": 20.0, "dt_s": 0.01},
      "analysis": {"modulus": {"temperature_C": 25.0, "radius_nm": 50.0},
                   "psd": {"window_s": 2.0}, "force": {"enabled": True}, "segment": {}}},
     ["--traj", "truth.csv"]),
    ({"schema_version": 1, "seed": 3, "medium": {"kind": "brownian", "D_nm2_per_s": 1e3},
      "simulate": {"duration_s": 8.0, "dt_s": 0.1},
      "schedule": {"kind": "staircase", "start_C": 24.0, "step_C": 4.0, "dwell_s": 2.0,
                   "n_levels": 4},
      "odmr": {"enabled": True, "lam0": 10.0, "kappa_khz_per_C": -60.0, "bin_s": 0.4}},
     ["--traj", "truth.csv", "--temperature", "temperature.csv", "--shifts", "shifts.csv",
      "--setpoints", "setpoints.csv"]),
]
# runs each of _RUNS through cli.main in one fresh interpreter in which
# importing scipy raises, then crb and allan on the ODMR run and gamma-null,
# at the default confidence and at one that solves in the upper tail
_SCRIPT = """
import json, os, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
import ndsense.cli as cli
cli.build_parser()
root = sys.argv[1]
with open(os.path.join(root, "runs.json")) as fh:
    runs = json.load(fh)
for i, (cfg, inputs) in enumerate(runs):
    run, path = os.path.join(root, str(i)), os.path.join(root, f"{i}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert cli.main(["simulate", "--config", path, "--out-dir", run]) == 0
    inputs = [a if a.startswith("--") else os.path.join(run, a) for a in inputs]
    assert cli.main(["analyze", "--config", path, "--out-dir", os.path.join(run, "analyze"),
                     *inputs]) == 0
odmr = os.path.join(root, "2")
assert cli.main(["crb", "--config", odmr + ".json", "--out-dir", odmr]) == 0
assert cli.main(["allan", "--input", os.path.join(odmr, "temperature.csv"),
                 "--out-dir", odmr]) == 0
for confidence in ("0.95", "1e-12"):
    assert cli.main(["gamma-null", "--confidence", confidence,
                     "--out-dir", os.path.join(root, "null-" + confidence)]) == 0
"""


def test_imports_are_stdlib_numpy_or_ndsense():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) == 13
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one inside the package
                continue
            foreign += [f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                        for name in names if name.split(".")[0] not in ALLOWED]
    assert not foreign


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                # `import a.b` binds `a`
                unused += [f"{path.relative_to(SRC)}:{node.lineno}: {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    (tmp_path / "runs.json").write_text(json.dumps(_RUNS))
    subprocess.run([sys.executable, "-W", "error", "-c", _SCRIPT, str(tmp_path)],
                   capture_output=True, text=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert (tmp_path / "1" / "analyze" / "labels.csv").exists()
    for out in ("2/analyze/allan.csv", "2/allan.csv", "2/crb.json",
                "null-0.95/gamma_null.csv", "null-1e-12/gamma_null.json"):
        assert (tmp_path / out).exists()


def test_package_and_simulation_layers_import_without_scipy():
    code = ("import sys, ndsense, ndsense.tracker, ndsense.media, ndsense.chip, ndsense.trajectory; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert done.stdout.strip() == "[]"
