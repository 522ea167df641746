"""Rebuild the golden tables of both shipped scenarios.

Runs ``hvdcfr pipeline`` and ``hvdcfr sweep --toggle all`` on every
scenario under ``scenarios/`` and keeps the tables and per-case metrics
under ``tests/golden/<scenario>/``; the trace CSVs are left out (the
metrics summarize them). ``tests/test_golden.py`` rebuilds the same
files and compares them with these. Run from anywhere:

    python tests/golden/regenerate.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent
SCENARIOS = ("continuous_load", "step_pulses")
GOLDEN_FILES = ("comparison.txt", "comparison.csv", "case1_metrics.json",
                "case2_metrics.json", "case3_metrics.json", "sweep.txt", "sweep.csv")


def build(scenario: str, out: Path) -> None:
    """Run pipeline and the full sweep of ``scenarios/<scenario>.json`` into ``out``."""
    from hvdcfr.cli import main

    path = ROOT / "scenarios" / f"{scenario}.json"
    for command in (["pipeline"], ["sweep", "--toggle", "all"]):
        if main([*command, "--scenario", str(path), "--out", str(out)]) != 0:
            raise RuntimeError(f"hvdcfr {' '.join(command)} failed on {path}")


def regenerate() -> None:
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            build(scenario, Path(tmp))
            target = GOLDEN / scenario
            target.mkdir(exist_ok=True)
            for name in GOLDEN_FILES:
                shutil.copyfile(Path(tmp) / name, target / name)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
