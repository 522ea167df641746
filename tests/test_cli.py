import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hvdcfr.cli import main
from hvdcfr.harness import PROFILE_CHANNELS
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
            assert not list((tmp_path / command).glob("*_trace.csv"))


def test_pipeline_does_not_import_scipy_signal(tmp_path):
    """scipy.signal costs about a second of every fresh process, and
    scipy.special (pulled in by scipy.linalg.logm) about 0.1 s; keep both
    off the import and run path of a whole pipeline."""
    script = textwrap.dedent(f"""
        import sys
        from hvdcfr import cli
        code = cli.main(["pipeline", "--scenario", {STEP!r}, "--out", {str(tmp_path)!r}])
        print(code, sorted(m for m in sys.modules
                           if m.startswith(("scipy.signal", "scipy.special"))))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"
