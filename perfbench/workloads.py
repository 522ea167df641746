"""The in-process workloads and the in-process replay of the CLI pipeline.

Each class does its set-up in ``__init__`` and offers:

- ``run(key)``: one timed operation on pool entry ``key``
- ``units(result, op_s)``: the timings of the operation's units (evals,
  designs or pipelines) that the end-to-end metrics count
- ``record(result)``: the JSON-able outputs kept as the reference
- ``problems(result, ref)``: mismatches against the reference, one string
  per failed unit
- ``same(a, b)``: whether two results of one input agree

All calls into hvdcfr go through module attributes (``harness.x``), so the
tracing wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from pathlib import Path

import numpy as np

import hvdcfr.cli as cli
from hvdcfr import control, harness, plant, sysid
from hvdcfr.signals import SignalRecord

from common import ABS_TOL, REL_TOL, close
from inputs import CONDITIONS, DT, T_S, cli_scenario, comparison_problems, criteria_hits, \
    key_name, parse_comparison, pool_keys, step_events

PRESETS = ("jh", "cigre")
# seed-study outputs compared with the reference, per case
KEY_METRICS = ("sum_max_f", "sum_rms_f", "sum_rms_p_g", "max_v_dc", "max_p_dci")
N_HSV = 5  # leading Hankel singular values compared in the model-fit checks


def arrays_close(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal up to the reference tolerance. Two runs of one input in one
    process can differ in the last bits: OpenBLAS results depend on how
    the operands happen to be aligned in memory."""
    scale = max(float(np.max(np.abs(x), initial=0.0)), float(np.max(np.abs(y), initial=0.0)))
    return float(np.max(np.abs(x - y), initial=0.0)) <= ABS_TOL + REL_TOL * scale


class SeedStudy:
    """Cases 1-3 on one seeded disturbance with controllers designed once."""

    units_per_op = 3

    def __init__(self, work_dir: Path):
        self.params, self.plants, self.controllers = {}, {}, {}
        for preset in PRESETS:
            params = plant.load_preset(preset)
            case_plant = plant.build_plant(params)
            _, model = harness.identify_plant_model(case_plant, harness.IdentificationSpec(),
                                                    T_S, DT)
            self.params[preset] = params
            self.plants[preset] = {
                1: case_plant, 2: case_plant,
                3: plant.build_plant(harness.case_plant_params(params, 3)),
            }
            self.controllers[preset] = {
                1: control.make_lqg(model, substep=DT),
                2: control.PiSfcController(),
                3: control.PiSfcController(inverter_only=True),
            }

    @staticmethod
    def scenario(key) -> harness.Scenario:
        kind, i = key
        preset = PRESETS[i % 2]
        if kind == "step":
            steps = tuple(harness.StepEvent(**e) for e in step_events(8000 + i))
            return harness.Scenario(name=key_name(key), plant=preset, duration_s=60.0,
                                    steps=steps)
        return harness.Scenario(name=key_name(key), plant=preset, duration_s=200.0,
                                continuous=harness.ContinuousSpec(seed=9000 + i))

    def run(self, key):
        scenario = self.scenario(key)
        w = harness.to_plant_disturbance(harness.build_disturbance_profile(scenario))
        params = self.params[scenario.plant]
        reports, eval_s = [], []
        for case in (1, 2, 3):
            start = time.perf_counter()
            trace = control.closed_loop(self.plants[scenario.plant][case],
                                        self.controllers[scenario.plant][case], w, dt=DT)
            reports.append(harness.compute_metrics(
                trace, name=scenario.name, case=case, n_gens=(params.N_i, params.N_r),
                disturbance_sha256=scenario.name, keep_trace=False))
            eval_s.append(time.perf_counter() - start)
        table = harness.compare_cases(reports)
        return {"kind": key[0], "rows": table.rows, "reductions": table.reductions,
                "eval_s": eval_s}

    @staticmethod
    def units(result, op_s):
        return result["eval_s"]

    @staticmethod
    def record(result):
        return {str(row["case"]): {m: row[m] for m in KEY_METRICS} for row in result["rows"]}

    def problems(self, result, ref):
        problems = []
        for row in result["rows"]:
            case = str(row["case"])
            if not all(np.isfinite(row[c]) for c in harness.METRIC_COLUMNS):
                problems.append(f"case {case}: non-finite metric")
            elif not all(close(row[m], ref[case][m]) for m in KEY_METRICS):
                problems.append(f"case {case}: metrics differ from reference")
        return problems

    @staticmethod
    def same(a, b):
        return all(close(x[c], y[c]) for part in ("rows", "reductions")
                   for x, y in zip(a[part], b[part]) for c in harness.METRIC_COLUMNS)

    @staticmethod
    def hits(result) -> dict:
        return criteria_hits(result["kind"], {str(r["case"]): r for r in result["reductions"]})


class ModelFit:
    """Plant build, identification record, identification and LQG design
    for one sweep condition."""

    units_per_op = 1

    def __init__(self, work_dir: Path, noisy: bool):
        jh = plant.load_preset("jh")
        self.params = {"baseline": jh, "no_pfc": plant.without_hvdc_droops(jh),
                       "no_ire_no_pfc": plant.without_hvdc_droops_and_ire(jh),
                       "cigre": plant.load_preset("cigre")}
        self.noisy = noisy
        self.seed_base = 20000 if noisy else 10000
        # noisy records use the noisy-data settings of the sysid tests,
        # with the order fixed at 30 realized states
        self.noisy_config = sysid.IdentifyConfig(
            l=40, energy_threshold=1 - 1e-7, t_s=T_S, integral_outputs=True,
            prefilter_hz=2.0, r_override=30)

    def run(self, key):
        condition, i = key
        seed = self.seed_base + 100 * CONDITIONS.index(condition) + i
        spec = harness.IdentificationSpec(seed=seed)
        truth = plant.build_plant(self.params[condition])
        u, y = harness.collect_identification_data(truth, spec, T_S, DT)
        if self.noisy:
            noise = np.random.default_rng(seed).normal(scale=1e-3, size=y.samples.shape)
            y = SignalRecord(y.t_s, y.channels, y.samples + noise)
            config = self.noisy_config
        else:
            config = spec.to_config(T_S)
        report, model = sysid.identify(u, y, config)
        return {"report": report, "model": model, "lqg": control.make_lqg(model, substep=DT)}

    @staticmethod
    def units(result, op_s):
        return [op_s]

    @staticmethod
    def record(result):
        report = result["report"]
        return {"model_order": result["model"].n_states,
                "retained_order": report.retained_order,
                "hsv": [float(s) for s in report.singular_values[:N_HSV]]}

    def problems(self, result, ref):
        got = self.record(result)
        lqg = result["lqg"]
        if not (np.all(np.isfinite(lqg.k)) and np.all(np.isfinite(lqg.k_f))):
            return ["LQG gains are not finite"]
        if (got["model_order"], got["retained_order"]) != (ref["model_order"], ref["retained_order"]):
            return [f"model order {got['model_order']}/{got['retained_order']} != "
                    f"reference {ref['model_order']}/{ref['retained_order']}"]
        if not all(close(a, b) for a, b in zip(got["hsv"], ref["hsv"])):
            return ["leading Hankel singular values differ from reference"]
        return []

    @staticmethod
    def same(a, b):
        arrays = lambda r: (r["report"].singular_values, r["model"].a, r["model"].b,
                            r["model"].c, r["lqg"].k, r["lqg"].k_f)
        return all(x.shape == y.shape and arrays_close(x, y)
                   for x, y in zip(arrays(a), arrays(b)))

    @staticmethod
    def hits(result) -> dict:
        return {}


class CliReplay:
    """``hvdcfr pipeline`` called in-process; used by the traced run and to
    make the reference. The timed CLI workload starts fresh processes."""

    units_per_op = 1

    def __init__(self, work_dir: Path):
        self.work = work_dir
        self.paths = {key: cli_scenario(key, work_dir / "inputs")
                      for key in pool_keys("cli-pipeline")}
        self.count = 0

    def run(self, key):
        out = self.work / f"out-{self.count}"
        self.count += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["pipeline", "--scenario", str(self.paths[key]), "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        return {"code": code, "files": files}

    @staticmethod
    def units(result, op_s):
        return [op_s]

    @staticmethod
    def record(result):
        return parse_comparison(result["files"]["comparison.csv"].decode())

    def problems(self, result, ref):
        if result["code"] != 0 or "comparison.csv" not in result["files"]:
            return [f"exit code {result['code']}"]
        return comparison_problems(self.record(result), ref)

    @staticmethod
    def same(a, b):
        return a == b

    @staticmethod
    def hits(result) -> dict:
        return {}


def make(workload: str, work_dir: Path):
    if workload == "seed-study":
        return SeedStudy(work_dir)
    if workload == "model-fit-clean":
        return ModelFit(work_dir, noisy=False)
    if workload == "model-fit-noisy":
        return ModelFit(work_dir, noisy=True)
    if workload == "cli-pipeline":
        return CliReplay(work_dir)
    raise ValueError(f"unknown workload {workload!r}")
