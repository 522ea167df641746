"""Command-line interface over the scenario harness.

Subcommands: simulate (open loop), identify, design, evaluate (one
case), pipeline (cases 1-3 plus comparison), sweep (loop-condition and
preset variations). All outputs are deterministic CSV/JSON files.
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
    sweep_table_csv,
    sweep_table_text,
    to_plant_disturbance,
    case_plant_params,
    SWEEP_CONDITIONS,
)
from .plant import REFERENCE_CHANNELS, build_plant, load_preset, simulate
from .signals import zeros_record
from .statespace import StateSpace


def _load_scenario(args) -> Scenario:
    if not args.scenario:
        raise ScenarioError("--scenario <path> is required for this subcommand")
    scenario = Scenario.from_json(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario,
                           identification=replace(scenario.identification, seed=args.seed))
        if scenario.continuous is not None:
            scenario = replace(scenario, continuous=replace(scenario.continuous, seed=args.seed))
    return scenario


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump(path: Path, payload: dict, fmt: str) -> None:
    if fmt == "json":
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    else:
        lines = [",".join(str(k) for k in payload)]
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in payload.values()))
        path.with_suffix(".csv").write_text("\n".join(lines) + "\n")


def _model_json(model: StateSpace) -> dict:
    return {
        "a": model.a.tolist(), "b": model.b.tolist(),
        "c": model.c.tolist(), "d": model.d.tolist(),
        "dt": model.dt, "n_states": model.n_states,
    }


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    out = _out_dir(args)
    params = case_plant_params(load_preset(scenario.plant), scenario.case)
    plant = build_plant(params)
    profile = build_disturbance_profile(scenario)
    w = to_plant_disturbance(profile)
    refs = zeros_record(scenario.t_s, REFERENCE_CHANNELS, scenario.duration_s)
    trace = simulate(plant, refs, w, dt=scenario.dt)
    trace.to_csv(out / "openloop_trace.csv")
    profile.to_csv(out / "disturbance.csv")
    print(f"wrote {out / 'openloop_trace.csv'}")
    return 0


def cmd_identify(args) -> int:
    scenario = _load_scenario(args)
    out = _out_dir(args)
    plant = build_plant(load_preset(scenario.plant))
    report, model = identify_plant_model(plant, scenario.identification,
                                         scenario.t_s, scenario.dt)
    report.to_json(out / "era_report.json")
    (out / "model.json").write_text(json.dumps(_model_json(model), indent=2) + "\n")
    cumulative = report.cumulative_energy
    lines = ["index,singular_value,cumulative_energy"]
    for i, (s, e) in enumerate(zip(report.singular_values, cumulative), start=1):
        lines.append(f"{i},{float(s)!r},{float(e)!r}")
    (out / "hsv.csv").write_text("\n".join(lines) + "\n")
    print(f"retained order {report.retained_order} "
          f"(cumulative energy {report.cumulative_energy_at_r:.6f}); wrote {out}/")
    return 0


def cmd_design(args) -> int:
    scenario = _load_scenario(args)
    out = _out_dir(args)
    plant = build_plant(load_preset(scenario.plant))
    scenario = replace(scenario, case=1)
    controller = build_controller(scenario, plant)
    payload = {
        "k": controller.k.tolist(),
        "k_f": controller.k_f.tolist(),
        "q_weights": controller.q_weights.tolist(),
        "r_weights": controller.r_weights.tolist(),
        "model_order": controller.model.n_states,
        "regulator_residual": controller.regulator_residual,
        "estimator_residual": controller.estimator_residual,
        "regulator_abscissa": controller.regulator_abscissa,
        "estimator_abscissa": controller.estimator_abscissa,
    }
    (out / "gains.json").write_text(json.dumps(payload, indent=2) + "\n")
    (out / "model.json").write_text(json.dumps(_model_json(controller.model), indent=2) + "\n")
    print(f"wrote {out / 'gains.json'}")
    return 0


def cmd_evaluate(args) -> int:
    scenario = _load_scenario(args)
    out = _out_dir(args)
    report = run_scenario(scenario)
    if report.trace is None:
        raise ScenarioError(f"case {scenario.case}: the closed loop diverged")
    report.trace.to_csv(out / f"case{scenario.case}_trace.csv")
    _dump(out / "metrics.json", report.to_json_dict(), "json")
    if args.format == "csv":
        _dump(out / "metrics", report.to_json_dict(), "csv")
    print(f"case {scenario.case}: sum max |f| = {report.sum_max_f:.5f} pu, "
          f"rms sum = {report.sum_rms_f:.5f} pu")
    return 0


def cmd_pipeline(args) -> int:
    scenario = _load_scenario(args)
    out = _out_dir(args)
    reports = run_cases(scenario)
    table = compare_cases(reports)  # refuses a diverged (all-inf) case
    for report in reports:
        report.trace.to_csv(out / f"case{report.case}_trace.csv")
        _dump(out / f"case{report.case}_metrics.json", report.to_json_dict(), "json")
    (out / "comparison.csv").write_text(table.to_csv_text())
    (out / "comparison.txt").write_text(table.to_text())
    print(table.to_text())
    return 0


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    out = _out_dir(args)
    toggle_map = {
        "no-pfc": ("no_pfc", "no_ire_no_pfc"),
        "cigre": ("cigre",),
        "all": SWEEP_CONDITIONS,
    }
    conditions = toggle_map[args.toggle]
    results = run_sweep(scenario, conditions=conditions)
    (out / "sweep.csv").write_text(sweep_table_csv(results))
    (out / "sweep.txt").write_text(sweep_table_text(results))
    print(sweep_table_text(results))
    return 0


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
            p.add_argument("--toggle", choices=("no-pfc", "cigre", "all"), default="all")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
