"""The package's runtime imports: the standard library, numpy and scipy only."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ndsense"
# scipy subpackages that only single functions use, kept off the start-up path
DEFERRED = ("scipy.signal", "scipy.stats", "scipy.optimize")
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "ndsense"}


def test_imports_are_stdlib_numpy_scipy_or_ndsense():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 17
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


def test_cli_starts_without_deferred_scipy_modules():
    code = ("import sys, ndsense.cli; ndsense.cli.build_parser(); "
            f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert done.stdout.strip() == "[]"


def test_package_and_simulation_layers_import_without_scipy():
    code = ("import sys, ndsense, ndsense.tracker, ndsense.media, ndsense.chip, ndsense.trajectory; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert done.stdout.strip() == "[]"
