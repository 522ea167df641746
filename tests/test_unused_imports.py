"""Every name a ``hvdcfr`` module imports is read there, or imported from there.

A name another module, test or benchmark script imports from a module (as
``tests/test_plant.py`` imports ``SimulationDivergence`` from ``hvdcfr.plant``)
is a re-export and may go unread. ``__init__.py`` imports the package's
public names, so it is not checked.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "hvdcfr").glob("*.py") if p.name != "__init__.py")


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@functools.cache
def _trees() -> dict[Path, ast.Module]:
    """The package, its tests and the benchmark scripts, parsed once."""
    sources = [*(ROOT / "src" / "hvdcfr").glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    return {path: ast.parse(path.read_text()) for path in sources}


def _imported_from(module: str) -> set[str]:
    """Names some other file imports from ``hvdcfr.<module>`` (or ``.<module>``
    inside the package), or reads as an attribute of a module so named."""
    names = set()
    for path, tree in _trees().items():
        if path.stem == module and path.parent.name == "hvdcfr":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (module, f"hvdcfr.{module}"):
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read_or_re_exported(path):
    tree = _trees()[path]
    unread = {name: line for name, line in _bound_names(tree).items()
              if name not in _read_names(tree)}
    re_exported = _imported_from(path.stem)
    assert {name: line for name, line in unread.items() if name not in re_exported} == {}
