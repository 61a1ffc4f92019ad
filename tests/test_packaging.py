"""The runtime is stdlib-only: no module of the package imports anything
else. A fresh import of the package frees the import before it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "scenkit"


def absolute_imports(path: Path) -> set[str]:
    """Top-level module names of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = {
        path.name: sorted(absolute_imports(path) - sys.stdlib_module_names)
        for path in sources
    }
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_a_fresh_import_leaves_no_earlier_import_alive():
    """Importing the package afresh, as a benchmark set-up does, frees the
    modules of the import before: no cache outside the package keeps one
    of its classes, and through its methods' globals, its modules alive.
    Run in a subprocess, so the test session's classes stay the only
    ones it holds."""
    script = """
import gc, importlib, sys
for _ in range(5):
    for name in [n for n in sys.modules if n.split(".")[0] == "scenkit"]:
        del sys.modules[name]
    for path in sorted(sys.argv[1:]):
        importlib.import_module("scenkit." + path)
gc.collect()
found = [o for o in gc.get_objects() if isinstance(o, dict) and o.get("__name__") == "scenkit.core"]
print(len(found))
"""
    modules = [p.stem for p in SRC.glob("*.py") if p.stem != "__init__"]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script, *modules], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
