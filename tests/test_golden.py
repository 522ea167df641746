"""Golden tables: ``pipeline`` and ``sweep --toggle all`` on both shipped
scenarios, rebuilt in-process and compared with ``tests/golden/``.

The ``.txt`` tables must match byte for byte. Numbers in the ``.csv`` and
``.json`` files must match to ``RTOL`` (an inf equals only inf) and every
other cell exactly. One against two BLAS threads moves them by up to
1.4e-12 relative, so ``RTOL`` leaves room for that and for last-bit
changes of the numerics, while a change of the method shows. After a
deliberate change, rebuild the files with
``python tests/golden/regenerate.py`` and give the before and after
numbers in CHANGES.md.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN_DIR / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RTOL = 1e-9


def _mismatches(got, want, where: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: numbers beyond ``RTOL``, anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if _is_number(got) and _is_number(want):
        same = got == want or math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
    else:
        same = got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _cell(text: str):
    """A CSV cell as the float it writes (``csv_text`` writes numbers by repr), else the text."""
    try:
        return float(text)
    except ValueError:
        return text


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


@pytest.fixture(scope="module", params=regenerate.SCENARIOS)
def rebuilt(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    regenerate.build(request.param, out)
    return request.param, out


def test_golden_files_match(rebuilt):
    scenario, out = rebuilt
    problems = []
    for name in regenerate.GOLDEN_FILES:
        want = (GOLDEN_DIR / scenario / name).read_text()
        got = (out / name).read_text()
        if name.endswith(".txt"):
            if got != want:
                problems.append(f"{name} differs from the golden table")
        else:
            problems += [f"{name}{m}" for m in _mismatches(_parse(name, got), _parse(name, want))]
    assert not problems, f"{scenario}:\n" + "\n".join(problems)


def test_mismatch_rule():
    def csv_diff(got, want):
        return _mismatches(_parse("t.csv", got), _parse("t.csv", want))

    assert csv_diff("a,1.0,inf\n", "a,1.0000000001,inf\n") == []
    assert csv_diff("1.0\n", "1.00000001\n")
    assert csv_diff("inf\n", "1e308\n")
    assert csv_diff("-inf\n", "inf\n")
    assert csv_diff("nan\n", "nan\n")
    assert _mismatches({"x": None}, {"x": 0.0})
    assert _mismatches({"name": "1"}, {"name": "1.0"})
    assert _mismatches({"x": [1.0]}, {"x": [1.0, 2.0]})
