"""Command-line interface over the scenario harness.

Subcommands: simulate (open loop), identify, design, evaluate (one
case), pipeline (cases 1-3 plus comparison), sweep (loop-condition and
preset variations). Each subcommand only computes; ``main`` writes the
files it returns once the run has succeeded, so a failed run leaves no
output directory. All outputs are deterministic CSV/JSON files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    Scenario,
    ScenarioError,
    build_controller,
    build_disturbance_profile,
    compare_cases,
    identify_plant_model,
    run_cases,
    run_scenario,
    run_sweep,
    stage,
    sweep_table_csv,
    sweep_table_text,
    to_plant_disturbance,
    case_plant_params,
    SWEEP_CONDITIONS,
)
from .plant import REFERENCE_CHANNELS, build_plant, load_preset, simulate
from .signals import SignalRecord, csv_text, zeros_record
from .statespace import StateSpace


SWEEP_TOGGLES = {
    "no-pfc": ("no_pfc", "no_ire_no_pfc"),
    "cigre": ("cigre",),
    "all": SWEEP_CONDITIONS,
}


def _load_scenario(args) -> Scenario:
    scenario = Scenario.from_json(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario,
                           identification=replace(scenario.identification, seed=args.seed))
        if scenario.continuous is not None:
            scenario = replace(scenario, continuous=replace(scenario.continuous, seed=args.seed))
    return scenario


def _model_json(model: StateSpace) -> dict:
    return {
        "a": model.a.tolist(), "b": model.b.tolist(),
        "c": model.c.tolist(), "d": model.d.tolist(),
        "dt": model.dt, "n_states": model.n_states,
    }


# Each subcommand takes the scenario and the parsed arguments and returns
# (files, message): the files to write under --out by name, each a
# SignalRecord, a JSON object (dict) or text (str), and the line to print.

def cmd_simulate(scenario: Scenario, args):
    plant = build_plant(case_plant_params(load_preset(scenario.plant), scenario.case))
    with stage("disturbance"):
        profile = build_disturbance_profile(scenario)
        w = to_plant_disturbance(profile)
    refs = zeros_record(scenario.t_s, REFERENCE_CHANNELS, scenario.duration_s)
    with stage("open-loop"):
        trace = simulate(plant, refs, w, dt=scenario.dt)
    files = {"openloop_trace.csv": trace, "disturbance.csv": profile}
    return files, f"wrote {Path(args.out) / 'openloop_trace.csv'}"


def cmd_identify(scenario: Scenario, args):
    plant = build_plant(load_preset(scenario.plant))
    with stage("identification"):
        report, model = identify_plant_model(plant, scenario.identification,
                                             scenario.t_s, scenario.dt)
    hsv = zip(range(1, len(report.singular_values) + 1), report.singular_values.tolist(),
              report.cumulative_energy.tolist())
    files = {"era_report.json": report.to_json_dict(), "model.json": _model_json(model),
             "hsv.csv": csv_text(("index", "singular_value", "cumulative_energy"), hsv)}
    return files, (f"retained order {report.retained_order} "
                   f"(cumulative energy {report.cumulative_energy_at_r:.6f}); "
                   f"wrote {Path(args.out)}/")


def cmd_design(scenario: Scenario, args):
    plant = build_plant(load_preset(scenario.plant))
    controller = build_controller(scenario, 1, plant)
    gains = {
        "k": controller.k.tolist(),
        "k_f": controller.k_f.tolist(),
        "q_weights": controller.q_weights.tolist(),
        "r_weights": controller.r_weights.tolist(),
        "sigma_process": controller.sigma_process,
        "v_meas_scale": controller.v_meas_scale,
        "w_proc_floor": controller.w_proc_floor,
        "model_order": controller.model.n_states,
        "regulator_residual": controller.regulator_residual,
        "estimator_residual": controller.estimator_residual,
        "regulator_abscissa": controller.regulator_abscissa,
        "estimator_abscissa": controller.estimator_abscissa,
    }
    files = {"gains.json": gains, "model.json": _model_json(controller.model)}
    return files, f"wrote {Path(args.out) / 'gains.json'}"


def cmd_evaluate(scenario: Scenario, args):
    report = run_scenario(scenario)
    if report.trace is None:
        raise ScenarioError(f"case {scenario.case}: the closed loop diverged")
    metrics = report.to_json_dict()
    files = {f"case{scenario.case}_trace.csv": report.trace,
             "metrics.json": dict(sorted(metrics.items()))}
    if args.format == "csv":
        files["metrics.csv"] = csv_text(metrics, [metrics.values()])
    return files, (f"case {scenario.case}: sum max |f| = {report.sum_max_f:.5f} pu, "
                   f"rms sum = {report.sum_rms_f:.5f} pu")


def cmd_pipeline(scenario: Scenario, args):
    reports = run_cases(scenario)
    table = compare_cases(reports)  # refuses a diverged (all-inf) case
    text = table.to_text()
    files = {"comparison.csv": table.to_csv_text(), "comparison.txt": text}
    for report in reports:
        files[f"case{report.case}_trace.csv"] = report.trace
        files[f"case{report.case}_metrics.json"] = dict(sorted(report.to_json_dict().items()))
    return files, text


def cmd_sweep(scenario: Scenario, args):
    results = run_sweep(scenario, conditions=SWEEP_TOGGLES[args.toggle])
    text = sweep_table_text(results)
    return {"sweep.csv": sweep_table_csv(results), "sweep.txt": text}, text


def _write(path: Path, payload) -> None:
    if isinstance(payload, SignalRecord):
        payload.to_csv(path)
    elif isinstance(payload, dict):
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        path.write_text(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvdcfr",
        description="Data-driven frequency regulation for HVDC-linked grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, doc in (
        ("simulate", cmd_simulate, "open-loop run under the scenario disturbance"),
        ("identify", cmd_identify, "identify a reduced model, emit report/model/HSV files"),
        ("design", cmd_design, "design the LQG gains, emit gains/model JSON"),
        ("evaluate", cmd_evaluate, "closed-loop run of the scenario's case plus metrics"),
        ("pipeline", cmd_pipeline, "run cases 1-3 and write the comparison table"),
        ("sweep", cmd_sweep, "re-run cases under loop-condition/preset variations"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seeds")
        if name == "evaluate":
            p.add_argument("--format", choices=("csv", "json"), default="json",
                           help="also write metrics.csv when csv")
        if name == "sweep":
            p.add_argument("--toggle", choices=SWEEP_TOGGLES, default="all")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        files, message = args.handler(_load_scenario(args), args)
        out = Path(args.out)  # created only once the run has succeeded
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            _write(out / name, payload)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
