"""The package's runtime imports: the standard library, numpy and scipy only."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ndsense"
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
