import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hvdcfr.cli import main
from hvdcfr.harness import METRIC_COLUMNS, PROFILE_CHANNELS, Scenario
from hvdcfr.signals import SignalRecord

ROOT = Path(__file__).resolve().parent.parent
STEP = str(ROOT / "scenarios" / "step_pulses.json")
CONT = str(ROOT / "scenarios" / "continuous_load.json")


def run(args):
    return main(args)


class TestCli:
    def test_missing_subcommand_usage_error(self, capsys):
        assert run([]) != 0

    def test_bad_scenario_path(self, tmp_path, capsys):
        code = run(["evaluate", "--scenario", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        code = run(["evaluate", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 1

    def test_identify_outputs(self, tmp_path):
        out = tmp_path / "ident"
        assert run(["identify", "--scenario", STEP, "--out", str(out)]) == 0
        report = json.loads((out / "era_report.json").read_text())
        assert report["retained_order"] >= 1
        hsv = (out / "hsv.csv").read_text().strip().splitlines()
        assert hsv[0] == "index,singular_value,cumulative_energy"
        energies = [float(ln.split(",")[2]) for ln in hsv[1:]]
        assert all(b >= a - 1e-15 for a, b in zip(energies, energies[1:]))
        assert energies[-1] == pytest.approx(1.0)
        model = json.loads((out / "model.json").read_text())
        assert model["dt"] is None
        assert len(model["a"]) == model["n_states"]

    def test_design_outputs(self, tmp_path):
        out = tmp_path / "design"
        assert run(["design", "--scenario", STEP, "--out", str(out)]) == 0
        gains = json.loads((out / "gains.json").read_text())
        assert len(gains["k"]) == 4
        assert len(gains["k_f"]) == gains["model_order"]

    def test_design_noise_scalars_are_written(self, tmp_path):
        assert run(["design", "--scenario", STEP, "--out", str(tmp_path)]) == 0
        gains = json.loads((tmp_path / "gains.json").read_text())
        assert (gains["sigma_process"], gains["v_meas_scale"], gains["w_proc_floor"]) == \
            (0.1, 1e-5, 1e-5)

    def test_design_decisions_are_written(self, tmp_path):
        assert run(["identify", "--scenario", STEP, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "era_report.json").read_text())
        assert 0.0 <= report["feedthrough_norm"] <= 1e-6  # the scenario's max_feedthrough
        assert run(["design", "--scenario", STEP, "--out", str(tmp_path)]) == 0
        gains = json.loads((tmp_path / "gains.json").read_text())
        for side in ("regulator", "estimator"):
            assert 0.0 <= gains[f"{side}_residual"] < 1e-6
            assert gains[f"{side}_abscissa"] < 0.0

    def test_simulate_openloop(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--scenario", STEP, "--out", str(out)]) == 0
        text = (out / "openloop_trace.csv").read_text().splitlines()
        assert text[0].startswith("time_s,f_i,f_r,v_dc")

    def test_evaluate_single_case(self, tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "--scenario", STEP, "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["case"] == 1
        assert metrics["sum_max_f"] > 0

    def test_evaluate_csv_format_adds_metrics_csv(self, tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "--scenario", STEP, "--out", str(out), "--format", "csv"]) == 0
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header.startswith("name,case,")
        assert (out / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "identify", "design", "pipeline", "sweep"])
    def test_format_only_on_evaluate(self, command, tmp_path, capsys):
        assert run([command, "--scenario", STEP, "--out", str(tmp_path), "--format", "csv"]) == 2
        assert "--format" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_pipeline_writes_comparison_and_traces(self, tmp_path):
        out = tmp_path / "pipe"
        assert run(["pipeline", "--scenario", STEP, "--out", str(out)]) == 0
        for case in (1, 2, 3):
            assert (out / f"case{case}_trace.csv").exists()
        table = (out / "comparison.csv").read_text()
        assert table.startswith("case,")

    def test_sweep_emits_condition_rows(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep", "--scenario", CONT, "--out", str(out),
                    "--toggle", "no-pfc"]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        conditions = {ln.split(",")[0] for ln in rows[1:]}
        assert conditions == {"no_pfc", "no_ire_no_pfc"}

    def test_non_finite_disturbance_file_is_a_scenario_error(self, tmp_path, capsys):
        samples = np.zeros((301, 3))
        samples[10, 0] = np.inf
        SignalRecord(0.1, PROFILE_CHANNELS, samples).to_csv(tmp_path / "profile.csv")
        scenario = json.loads(Path(STEP).read_text())
        scenario["duration_s"] = 30.0
        scenario["disturbance"] = {"file": str(tmp_path / "profile.csv")}
        (tmp_path / "s.json").write_text(json.dumps(scenario))
        code = run(["evaluate", "--scenario", str(tmp_path / "s.json"),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: disturbance file")

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    def test_disturbance_file_is_read_once_per_run(self, command, tmp_path, monkeypatch):
        SignalRecord(0.1, PROFILE_CHANNELS, np.full((301, 3), 0.05)).to_csv(tmp_path / "p.csv")
        scenario = json.loads(Path(STEP).read_text())
        scenario["duration_s"] = 30.0
        scenario["disturbance"] = {"file": str(tmp_path / "p.csv")}
        (tmp_path / "s.json").write_text(json.dumps(scenario))
        reads = []
        from_csv = SignalRecord.from_csv

        def counted(path):
            reads.append(path)
            return from_csv(path)

        monkeypatch.setattr(SignalRecord, "from_csv", staticmethod(counted))
        assert run([command, "--scenario", str(tmp_path / "s.json"),
                    "--out", str(tmp_path / "out")]) == 0
        assert len(reads) == 1

    def test_diverging_case_is_a_scenario_error(self, tmp_path, capsys):
        scenario = json.loads(Path(STEP).read_text())
        scenario["case"] = 2
        scenario["controller"] = {"kp_hvdc": -3.0, "ki_hvdc": -25.0,
                                  "kp_gen": -0.8, "ki_gen": -0.2}
        (tmp_path / "s.json").write_text(json.dumps(scenario))
        for command in ("evaluate", "pipeline"):
            code = run([command, "--scenario", str(tmp_path / "s.json"),
                        "--out", str(tmp_path / command)])
            assert code == 1
            assert "diverged" in capsys.readouterr().err
            assert not (tmp_path / command).exists()  # files are written only after success


def test_pipeline_metrics_scale_with_a_large_step(tmp_path):
    """Both steps of step_pulses.json at 1e6 pu instead of 0.3 pu: every case
    runs, and its peak and rms metrics scale by the same factor."""
    steps = json.loads(Path(STEP).read_text())["disturbance"]["steps"]
    doc = _step_document(tmp_path, disturbance={
        "steps": [{**step, "magnitude_pu": 1e6} for step in steps]})
    for name, scenario in (("shipped", STEP), ("large", doc)):
        assert run(["pipeline", "--scenario", scenario, "--out", str(tmp_path / name)]) == 0
    for case in (1, 2, 3):
        shipped, large = (json.loads((tmp_path / name / f"case{case}_metrics.json").read_text())
                          for name in ("shipped", "large"))
        for column in METRIC_COLUMNS:
            assert large[column] == pytest.approx(1e6 / 0.3 * shipped[column], rel=1e-9)


def test_large_metrics_keep_table_cells_apart(tmp_path):
    """At a 1e6 pu step and a 1e4 pu continuous load, every row of
    comparison.txt and sweep.txt splits into its header's columns."""
    steps = json.loads(Path(STEP).read_text())["disturbance"]["steps"]
    step_doc = _step_document(tmp_path, disturbance={
        "steps": [{**step, "magnitude_pu": 1e6} for step in steps]})
    assert run(["pipeline", "--scenario", step_doc, "--out", str(tmp_path / "pipeline")]) == 0
    cont = json.loads(Path(CONT).read_text())
    cont["disturbance"]["continuous"]["amplitude_pu"] = 1e4
    (tmp_path / "continuous.json").write_text(json.dumps(cont))
    assert run(["sweep", "--scenario", str(tmp_path / "continuous.json"),
                "--out", str(tmp_path / "sweep")]) == 0
    comparison = (tmp_path / "pipeline" / "comparison.txt").read_text().splitlines()
    del comparison[4:6]  # the blank line and the caption above the reduction rows
    sweep = (tmp_path / "sweep" / "sweep.txt").read_text().splitlines()
    for lines in (comparison, sweep):
        # a reduction row's label "vs 2" is one column
        assert {len(line.replace("vs ", "vs").split()) for line in lines} == {
            len(lines[0].split())}


def test_diverged_case_names_its_spectral_radius(tmp_path, capsys):
    """A sign-flipped PI case 2 is refused before it runs, and evaluate and
    pipeline say why."""
    doc = _step_document(tmp_path, case=2, controller={
        "kp_hvdc": -3.0, "ki_hvdc": -25.0, "kp_gen": -0.8, "ki_gen": -0.2})
    for command in ("evaluate", "pipeline"):
        assert run([command, "--scenario", doc, "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == (
            "error: case 2: the closed loop diverged: sampled closed loop has spectral "
            "radius 1.562155 > 1\n")


def _step_document(tmp_path: Path, **changes) -> str:
    """step_pulses.json with top-level keys replaced, written under tmp_path."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**json.loads(Path(STEP).read_text()), **changes}))
    return str(path)


class TestStages:
    def test_identification_failure_reads_the_same_from_every_subcommand(self, tmp_path, capsys):
        doc = _step_document(tmp_path, identification={"seed": 1234, "max_feedthrough": 1e-30})
        lines = set()
        for command in ("identify", "design", "evaluate", "pipeline"):
            assert run([command, "--scenario", doc, "--out", str(tmp_path / command)]) == 1
            assert not (tmp_path / command).exists()
            lines.add(capsys.readouterr().err)
        line, = lines
        assert line.startswith("error: identification stage failed (IdentificationError): "
                               "estimated direct feedthrough norm ")
        assert line.count("\n") == 1

    def test_input_over_the_cap_is_refused_by_key(self, tmp_path, capsys):
        doc = _step_document(tmp_path, disturbance={"steps": [
            {"channel": "p_li", "time_s": 5.0, "magnitude_pu": -1e101, "duration_s": 15.0}]})
        for command in ("simulate", "pipeline"):
            assert run([command, "--scenario", doc, "--out", str(tmp_path / command)]) == 1
            assert capsys.readouterr().err == (
                "error: step.magnitude_pu=-1e+101 must be finite, magnitude <= 1e+100\n")
            assert not (tmp_path / command).exists()

    def test_simulate_writes_a_finite_trace_for_a_large_step(self, tmp_path):
        doc = _step_document(tmp_path, disturbance={"steps": [
            {"channel": "p_li", "time_s": 5.0, "magnitude_pu": 1e6, "duration_s": 15.0}]})
        assert run(["simulate", "--scenario", doc, "--out", str(tmp_path / "out")]) == 0
        trace = SignalRecord.from_csv(tmp_path / "out" / "openloop_trace.csv").samples
        assert np.all(np.isfinite(trace)) and np.max(np.abs(trace)) > 1e6

    @pytest.mark.parametrize("args, scenario, seeds", [
        pytest.param(["pipeline"], STEP, [1234], id="pipeline"),
        pytest.param(["sweep", "--toggle", "all"], STEP, [1234], id="sweep"),
        # the document is validated as read, then once more with both seeds replaced
        pytest.param(["identify", "--seed", "7"], CONT, [1234, 7], id="identify-seed")])
    def test_a_run_validates_its_scenario_once(self, args, scenario, seeds, tmp_path,
                                               monkeypatch):
        calls = []
        validate = Scenario.__post_init__

        def counted(self):
            calls.append(self.identification.seed)
            validate(self)

        monkeypatch.setattr(Scenario, "__post_init__", counted)
        assert run([*args, "--scenario", scenario, "--out", str(tmp_path)]) == 0
        assert calls == seeds

    def test_estimator_too_fast_for_the_substep_is_one_error_line(self, tmp_path):
        # a child process, so -W error covers every warning the run could raise
        doc = _step_document(tmp_path, controller={"v_meas_scale": 1e-12})
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "hvdcfr.cli", "pipeline",
                               "--scenario", doc, "--out", str(tmp_path / "out")],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        line, = proc.stderr.splitlines()
        assert line.startswith("error: closed-loop stage failed (PlantError): dt=0.001 s makes "
                               "the RK4 substep unstable on the LQG estimator ")
        assert not (tmp_path / "out").exists()

    def test_estimator_too_fast_for_the_substep_is_still_designed(self, tmp_path):
        # the design is continuous: only a run that samples the estimator refuses it
        doc = _step_document(tmp_path, controller={"v_meas_scale": 1e-12})
        assert run(["design", "--scenario", doc, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "gains.json").exists()

    def test_sweep_plant_too_fast_for_the_substep_names_dt(self, tmp_path, capsys):
        # the scenario checks the cigre case-1 and case-3 plants, which this dt
        # steps; the no-PFC plant the sweep also samples is refused where sampled
        doc = _step_document(tmp_path, plant="cigre", t_s=0.086106, dt=0.0043053)
        out = tmp_path / "out"
        assert run(["sweep", "--toggle", "no-pfc", "--scenario", doc, "--out", str(out)]) == 1
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("error: identification stage failed (PlantError): dt=0.0043053 s "
                               "makes the RK4 substep unstable on the plant ")
        assert not out.exists()


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("args", [["simulate"], ["identify"], ["design"],
                                  ["evaluate", "--format", "csv"], ["pipeline"],
                                  ["sweep", "--toggle", "all"]], ids=lambda a: a[0])
def test_every_subcommand_writes_the_same_bytes_twice(args, tmp_path, capsys):
    for run_dir in ("first", "second"):
        assert run([*args, "--scenario", STEP, "--out", str(tmp_path / run_dir)]) == 0
    first, second = _files(tmp_path / "first"), _files(tmp_path / "second")
    assert first and first == second


def _scipy_modules_after(argv, prefixes=("scipy",)) -> str:
    """'<exit code> <sorted loaded modules under prefixes>' of a fresh process
    that imports ``hvdcfr.cli`` and, when ``argv`` is given, runs ``main(argv)``."""
    script = textwrap.dedent(f"""
        import sys
        from hvdcfr import cli
        code = cli.main({argv!r}) if {argv!r} else 0
        print(code, sorted(m for m in sys.modules if m.startswith({prefixes!r})))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_pipeline_does_not_import_scipy_signal(tmp_path):
    """scipy.signal costs about a second of every fresh process, and
    scipy.special (pulled in by scipy.linalg.logm) about 0.1 s; keep both
    off the import and run path of a whole pipeline."""
    argv = ["pipeline", "--scenario", STEP, "--out", str(tmp_path / "out")]
    assert _scipy_modules_after(argv, ("scipy.signal", "scipy.special")) == "0 []"


@pytest.mark.parametrize("command, changes, code", [
    (None, {}, 0),
    ("simulate", {}, 0),
    ("evaluate", {"case": 2}, 0),
    ("evaluate", {"case": 7}, 1),
], ids=["import", "simulate", "evaluate-case-2", "refused-document"])
def test_runs_that_reach_no_lapack_load_no_scipy(command, changes, code, tmp_path):
    """scipy.linalg takes about 0.2 s to load, so its routines are imported
    where they are called. Importing the CLI, an open-loop run and a PI case
    on step events, and a refused document load no scipy module at all.
    Identification does (every pipeline, and any run of case 1), and so does
    a continuous scenario: its Butterworth filter runs LAPACK's dtbtrs."""
    argv = command and [command, "--scenario", _step_document(tmp_path, **changes),
                        "--out", str(tmp_path / "out")]
    assert _scipy_modules_after(argv) == f"{code} []"


def test_closed_stdout_writes_every_file_and_no_traceback(tmp_path):
    """A reader that closes the pipe before the closing line is printed
    leaves every file written, a non-zero exit and an empty stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hvdcfr.cli", "simulate", "--scenario", STEP,
                               "--out", str(tmp_path / "out")], cwd=ROOT, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    finally:
        os.close(write_end)
    assert proc.returncode != 0 and proc.stderr == ""
    assert sorted(_files(tmp_path / "out")) == ["disturbance.csv", "openloop_trace.csv"]


def test_pipeline_bytes_do_not_depend_on_the_thread_setting(tmp_path):
    """Importing hvdcfr defaults BLAS to one thread, so a fresh pipeline with
    the thread variables unset writes what one with them set to 1 writes."""
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in thread_vars}
    base["PYTHONPATH"] = str(ROOT / "src")
    for name, env in (("unset", base), ("one", {**base, **dict.fromkeys(thread_vars, "1")})):
        proc = subprocess.run([sys.executable, "-m", "hvdcfr.cli", "pipeline", "--scenario", STEP,
                               "--out", str(tmp_path / name)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    unset, one = _files(tmp_path / "unset"), _files(tmp_path / "one")
    assert unset and unset == one
