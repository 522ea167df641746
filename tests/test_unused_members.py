"""Every method and property a ``hvdcfr`` class defines is read as ``.name``
by the package, the benchmark scripts, the acceptance gate or README.

A member only the unit tests read is code kept for its tests: the tests
can build what it returns from the members the program reads. Dunder
methods are called by the language, not by name, and dataclass fields
are out of scope (``dataclasses.fields`` and ``getattr`` read them).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hvdcfr").glob("*.py"))
READERS = [*PACKAGE, *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]


def _members() -> dict[str, str]:
    """``module.Class.member`` of each method and property, by member name."""
    members = {}
    for path in PACKAGE:
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (node.name.startswith("__") and node.name.endswith("__"))):
                        members.setdefault(node.name, f"{path.stem}.{cls.name}.{node.name}")
    return members


def _read_attributes() -> set[str]:
    names = {m.group(1) for m in re.finditer(r"\.(\w+)", (ROOT / "README.md").read_text())}
    for path in READERS:
        names.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute))
    return names


def test_every_method_and_property_is_read():
    read = _read_attributes()
    assert sorted(where for name, where in _members().items() if name not in read) == []
