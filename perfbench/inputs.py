"""Seeded inputs that need no hvdcfr import: the order in which each
workload visits its input pool, the CLI scenarios and disturbance files,
and the check of a CLI ``comparison.csv`` against its reference.

Every workload draws its operations from a fixed pool whose reference
outputs are checked in under ``reference/``. ``--seed`` shuffles each
stratum of the pool independently; strata are visited in a fixed
pattern, so every run sees the same mix of input kinds.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from common import close

T_S = 0.1
DT = 0.001

CLI_POOL = 6  # step scenarios and file scenarios each
SEED_STUDY_POOL = {"step": 40, "continuous": 80}
# two continuous disturbances per step-pulse one: evals then fall into
# well-separated cost modes and the median sits inside one of them
SEED_STUDY_PATTERN = ("step", "continuous", "continuous")
CONDITIONS = ("baseline", "no_pfc", "no_ire_no_pfc", "cigre")
MODEL_FIT_POOL = {"model-fit-clean": 16, "model-fit-noisy": 5}  # seeds per condition
PART_STRIDE = 1200  # a multiple of every stratum pattern's length


def op_sequence(seed: int, pattern: tuple[str, ...], sizes: dict[str, int]):
    """Endless (stratum, index) stream: strata follow ``pattern``, indices
    follow a seed-drawn permutation of each stratum's pool."""
    rng = np.random.default_rng(seed)
    perms = {name: rng.permutation(sizes[name]) for name in sorted(sizes)}
    used = dict.fromkeys(sizes, 0)
    k = 0
    while True:
        stratum = pattern[k % len(pattern)]
        perm = perms[stratum]
        yield stratum, int(perm[used[stratum] % len(perm)])
        used[stratum] += 1
        k += 1


def sequence_for(workload: str, seed: int, part: int = 0):
    """The operation stream of one run; ``part`` k starts k * PART_STRIDE
    operations in, so the processes of one run time different inputs."""
    if workload == "seed-study":
        seq = op_sequence(seed, SEED_STUDY_PATTERN, SEED_STUDY_POOL)
    elif workload in MODEL_FIT_POOL:
        n = MODEL_FIT_POOL[workload]
        seq = op_sequence(seed, CONDITIONS, dict.fromkeys(CONDITIONS, n))
    elif workload == "cli-pipeline":
        seq = op_sequence(seed, ("step", "file"), {"step": CLI_POOL, "file": CLI_POOL})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return itertools.islice(seq, part * PART_STRIDE, None)


def op_group(workload: str) -> int:
    """Inputs per timed operation: one pass over the workload's stratum
    pattern, so that every operation holds the same mix of input kinds."""
    if workload == "seed-study":
        return len(SEED_STUDY_PATTERN)
    if workload in MODEL_FIT_POOL:
        return len(CONDITIONS)
    return 2  # cli-pipeline: one step-pulse and one file scenario


def pool_keys(workload: str) -> list[tuple[str, int]]:
    """Every (stratum, index) of a workload's pool, in reference order."""
    if workload == "seed-study":
        sizes = SEED_STUDY_POOL
    elif workload in MODEL_FIT_POOL:
        sizes = dict.fromkeys(CONDITIONS, MODEL_FIT_POOL[workload])
    else:
        sizes = {"step": CLI_POOL, "file": CLI_POOL}
    return [(name, i) for name in sizes for i in range(sizes[name])]


def key_name(key: tuple[str, int]) -> str:
    return f"{key[0]}/{key[1]}"


# ---------------------------------------------------------------- steps

STEP_CHANNELS = ("p_li", "p_lr", "p_w")


def step_events(seed: int) -> list[dict]:
    """Two non-overlapping load/wind pulses inside a 60 s window."""
    rng = np.random.default_rng(seed)
    first, second = rng.choice(len(STEP_CHANNELS), size=2, replace=False)
    return [
        {"channel": STEP_CHANNELS[first], "time_s": round(float(rng.uniform(3.0, 10.0)), 1),
         "magnitude_pu": round(float(rng.uniform(0.1, 0.3)), 3),
         "duration_s": round(float(rng.uniform(8.0, 15.0)), 1)},
        {"channel": STEP_CHANNELS[second], "time_s": round(float(rng.uniform(30.0, 36.0)), 1),
         "magnitude_pu": round(float(rng.uniform(0.1, 0.3)), 3),
         "duration_s": round(float(rng.uniform(8.0, 15.0)), 1)},
    ]


# ---------------------------------------------------------------- CLI inputs

def profile_csv_text(seed: int, duration_s: float = 200.0, amplitude_pu: float = 0.3,
                     bandwidth_hz: float = 0.05) -> str:
    """Band-limited load/wind profile in the CSV form ``SignalRecord`` reads.

    White noise through two first-order low-pass stages, mean removed and
    each channel scaled to peak ``amplitude_pu``.
    """
    n = int(round(duration_s / T_S)) + 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, len(STEP_CHANNELS)))
    alpha = float(np.exp(-2.0 * np.pi * bandwidth_hz * T_S))
    for _ in range(2):
        y = np.empty_like(x)
        acc = np.zeros(x.shape[1])
        for k in range(n):
            acc = alpha * acc + (1.0 - alpha) * x[k]
            y[k] = acc
        x = y
    x -= x.mean(axis=0)
    x *= amplitude_pu / np.max(np.abs(x), axis=0)
    times = np.arange(n) * T_S
    lines = ["time_s," + ",".join(STEP_CHANNELS)]
    for k in range(n):
        lines.append(repr(float(times[k])) + "," + ",".join(repr(float(v)) for v in x[k]))
    return "\n".join(lines) + "\n"


def cli_scenario(key: tuple[str, int], input_dir: Path) -> Path:
    """Write the scenario (and for ``file`` its profile CSV); return its path."""
    kind, i = key
    input_dir.mkdir(parents=True, exist_ok=True)
    doc = {"name": f"bench-{kind}-{i}", "plant": "jh", "case": 1, "t_s": T_S, "dt": DT,
           "identification": {"seed": 5000 + 100 * (kind == "file") + i}, "controller": {}}
    if kind == "step":
        doc["duration_s"] = 60.0
        doc["disturbance"] = {"steps": step_events(7100 + i)}
    else:
        csv = input_dir / f"profile-{i}.csv"
        csv.write_text(profile_csv_text(7200 + i))
        doc["duration_s"] = 200.0
        doc["disturbance"] = {"file": str(csv)}
    path = input_dir / f"scenario-{kind}-{i}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def parse_comparison(text: str) -> dict:
    """``comparison.csv`` as {"rows": {case: {column: value}}, "reductions": ...}."""
    blocks = text.strip().split("\n\n")
    if len(blocks) != 2:
        raise ValueError("comparison.csv must hold a value block and a reduction block")
    out = {}
    for label, block in zip(("rows", "reductions"), blocks):
        header, *lines = [ln.split(",") for ln in block.strip().splitlines()]
        out[label] = {ln[0]: dict(zip(header[1:], map(float, ln[1:]))) for ln in lines}
    return out


def add_hits(totals: dict, hits: dict) -> None:
    """Add per-operation hits ({name: bool} or {name: {"hits", "of"}}) to totals."""
    for name, hit in hits.items():
        count = hit if isinstance(hit, dict) else {"hits": int(hit), "of": 1}
        total = totals.setdefault(name, {"hits": 0, "of": 0})
        total["hits"] += count["hits"]
        total["of"] += count["of"]


def criteria_hits(kind: str, reductions: dict) -> dict:
    """Whether case 1 meets the acceptance thresholds on this disturbance:
    criterion 4's peak reductions on step pulses, criterion 5's rms
    reductions on continuous profiles. ``reductions`` maps case 2 and 3
    to percent reductions of case 1 per metric."""
    vs2, vs3 = reductions["2"], reductions["3"]
    if kind == "step":
        return {"criterion_4_peak": vs2["sum_max_f"] >= 30.0 and vs3["sum_max_f"] >= 25.0}
    return {"criterion_5_rms": vs2["sum_rms_f"] >= 40.0 and vs3["sum_rms_f"] >= 40.0}


def comparison_problems(got: dict, ref: dict) -> list[str]:
    problems = []
    for label in ("rows", "reductions"):
        if sorted(got[label]) != sorted(ref[label]):
            problems.append(f"{label}: cases {sorted(got[label])} != {sorted(ref[label])}")
            continue
        for case, values in ref[label].items():
            mine = got[label][case]
            if sorted(mine) != sorted(values) or not all(np.isfinite(list(mine.values()))):
                problems.append(f"{label} case {case}: non-finite or other columns")
            elif not all(close(mine[c], v) for c, v in values.items()):
                problems.append(f"{label} case {case}: differs from reference")
    return problems
