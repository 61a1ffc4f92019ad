"""The runtime is stdlib-only: no module of the package imports anything else."""

import ast
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
