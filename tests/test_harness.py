import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvdcfr.harness import (
    ContinuousSpec,
    ControllerSpec,
    IdentificationSpec,
    MAX_INPUT_PU,
    MAX_SAMPLES,
    METRIC_COLUMNS,
    PROFILE_CHANNELS,
    SETTLE_BAND,
    SETTLE_HOLD_S,
    Scenario,
    ScenarioError,
    StepEvent,
    build_controller,
    build_disturbance_profile,
    compare_cases,
    compute_metrics,
    generate_continuous_profile,
    run_cases,
    run_scenario,
    run_sweep,
    scenario_from_dict,
    stage,
    sweep_table_csv,
    _run_case,
    _settling_time,
    identify_plant_model,
    to_plant_disturbance,
)
from hvdcfr.control import PiSfcController, make_lqg
from hvdcfr.numerics import NumericsError
from hvdcfr.plant import (REFERENCE_CHANNELS, build_plant, load_preset, simulate,
                          without_hvdc_droops)
from hvdcfr.signals import SignalRecord, zeros_record
from hvdcfr.sysid import IdentificationError, IdentifyConfig


def make_trace(t_s, channels, columns):
    return SignalRecord(t_s, channels, np.column_stack(columns))


TRACE_CHANNELS = ("f_i", "f_r", "v_dc", "int_f_i", "int_f_r", "int_v_dc",
                  "p_gi", "p_gr", "p_dci", "p_dcr", "i_dci", "v_dcr")


def trace_from_f(f_i, f_r, t_s=0.1, **extra):
    n = len(f_i)
    cols = {name: np.zeros(n) for name in TRACE_CHANNELS}
    cols["f_i"] = np.asarray(f_i)
    cols["f_r"] = np.asarray(f_r)
    for k, v in extra.items():
        cols[k] = np.asarray(v)
    return SignalRecord(t_s, TRACE_CHANNELS, np.column_stack([cols[c] for c in TRACE_CHANNELS]))


class TestMetrics:
    def test_constant_signal_rms(self):
        trace = trace_from_f(np.full(100, -0.25), np.zeros(100))
        report = compute_metrics(trace)
        assert report.rms_f_i == pytest.approx(0.25)
        assert report.max_f_i == pytest.approx(0.25)

    def test_sine_over_integer_periods(self):
        t = np.arange(0, 20, 0.1)
        f = 0.4 * np.sin(2 * np.pi * t / 5.0)
        report = compute_metrics(trace_from_f(f, np.zeros_like(f)))
        assert abs(report.rms_f_i - 0.4 / np.sqrt(2)) < 1e-3

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rms_matches_naive_two_pass_loop(self, seed):
        rng = np.random.default_rng(seed)
        f_i = rng.normal(size=64)
        f_r = rng.normal(size=64)
        report = compute_metrics(trace_from_f(f_i, f_r), n_gens=(8, 12))
        total = 0.0
        for v in f_i:
            total += v * v
        naive = math.sqrt(total / len(f_i))
        assert abs(report.rms_f_i - naive) < 1e-12

    def test_generator_rms_scaled_per_machine(self):
        p_g = np.full(50, 0.36)
        report = compute_metrics(trace_from_f(np.zeros(50), np.zeros(50), p_gi=p_g),
                                 n_gens=(9, 12))
        # equal N-way split: per-generator sum of squares is agg^2 / N
        assert report.rms_p_gi == pytest.approx(0.36 / 3.0)

    def test_sum_column_exact(self):
        rng = np.random.default_rng(1)
        report = compute_metrics(trace_from_f(rng.normal(size=30), rng.normal(size=30)))
        assert report.sum_max_f == report.max_f_i + report.max_f_r

    def test_settling_time(self):
        f = np.concatenate([np.full(50, 0.01), np.full(100, 1e-4)])
        report = compute_metrics(trace_from_f(f, np.zeros_like(f)))
        assert report.settle_f_i_s == pytest.approx(5.0)
        assert report.settle_f_r_s == 0.0

    @given(st.lists(st.tuples(st.sampled_from([0.0, 5e-4, -SETTLE_BAND, SETTLE_BAND, 1.5e-3,
                                               -0.2, math.nan]),
                              st.integers(1, 70)), max_size=8),
           st.sampled_from([0.1, 0.05, 0.3, 2.5, 7.0]))
    @settings(max_examples=200, deadline=None)
    def test_settling_time_matches_per_sample_loop(self, runs, t_s):
        signal = np.array([v for v, count in runs for _ in range(count)])

        def reference(signal, t_s):  # the per-sample loop the search replaced
            hold = max(1, int(round(SETTLE_HOLD_S / t_s)))
            run = 0
            for k, v in enumerate(np.abs(signal) <= SETTLE_BAND):
                run = run + 1 if v else 0
                if run >= hold:
                    return (k - run + 1) * t_s
            return None

        settle = _settling_time(signal, t_s)
        assert settle == reference(signal, t_s)
        assert settle is None or type(settle) is float

    def test_empty_trace_rejected(self):
        with pytest.raises(ScenarioError, match="empty"):
            compute_metrics(SignalRecord(0.1, TRACE_CHANNELS, np.zeros((0, 12))))


class TestProfiles:
    def test_peak_scaling_exact(self):
        rec = generate_continuous_profile(5, 0.1, 0.05, 200.0, 0.1)
        for col in range(3):
            assert abs(np.max(np.abs(rec.samples[:, col])) - 0.1) < 1e-9

    def test_different_seeds_uncorrelated(self):
        a = generate_continuous_profile(1, 0.3, 0.05, 200.0, 0.1)
        b = generate_continuous_profile(2, 0.3, 0.05, 200.0, 0.1)
        for col in range(3):
            rho = np.corrcoef(a.samples[:, col], b.samples[:, col])[0, 1]
            assert abs(rho) < 0.2

    def test_same_seed_reproducible(self):
        a = generate_continuous_profile(9, 0.3, 0.05, 200.0, 0.1)
        b = generate_continuous_profile(9, 0.3, 0.05, 200.0, 0.1)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_spectrum_concentrated_below_twice_cutoff(self):
        rec = generate_continuous_profile(3, 0.3, 0.05, 200.0, 0.1)
        for col in range(3):
            x = rec.samples[:, col]
            spectrum = np.abs(np.fft.rfft(x - x.mean())) ** 2
            freqs = np.fft.rfftfreq(len(x), 0.1)
            fraction = spectrum[freqs <= 0.1].sum() / spectrum.sum()
            assert fraction >= 0.95

    # a document's bandwidth is Scenario's to check; a direct call meets the filter's check
    def test_bandwidth_beyond_nyquist_rejected(self):
        with pytest.raises(NumericsError, match=r"^normalized cutoff must lie in \(0, 1\), got 1\.2"):
            generate_continuous_profile(1, 0.3, 6.0, 10.0, 0.1)

    @pytest.mark.parametrize("bandwidth_hz", [5.0, float("nan")])
    def test_bandwidth_at_nyquist_or_nan_rejected(self, bandwidth_hz):
        with pytest.raises(NumericsError, match=r"^normalized cutoff must lie in \(0, 1\), got "):
            generate_continuous_profile(1, 0.3, bandwidth_hz, 10.0, 0.1)

    @pytest.mark.parametrize("field", ["amplitude_pu", "bandwidth_hz", "duration_s"])
    def test_non_finite_continuous_spec_rejected(self, field):
        with pytest.raises(ScenarioError, match="finite"):
            ContinuousSpec(**{field: float("nan")})


class TestScenario:
    def test_round_trip_via_dict(self):
        s = Scenario(name="x", steps=(StepEvent("p_li", 1.0, 0.2, 5.0),), duration_s=30.0)
        doc = {"name": "x", "duration_s": 30.0, "disturbance": {"steps": [
            {"channel": "p_li", "time_s": 1.0, "magnitude_pu": 0.2, "duration_s": 5.0}]}}
        assert scenario_from_dict(doc) == s

    @pytest.mark.parametrize("make, message", [
        (lambda p: p.write_text('{"name": '), r"scenario file .*s\.json is not JSON: Expecting "),
        (lambda p: p.write_bytes(b"\xff"), r"scenario file .*s\.json is not JSON: 'utf-8' codec"),
        (lambda p: p.mkdir(), r"cannot read scenario file .*s\.json: Is a directory"),
        (lambda p: None, r"cannot read scenario file .*s\.json: No such file or directory"),
    ], ids=["truncated", "not-utf8", "directory", "missing"])
    def test_unreadable_file_is_a_scenario_error_naming_it(self, tmp_path, make, message):
        path = tmp_path / "s.json"
        make(path)
        with pytest.raises(ScenarioError, match=f"^{message}"):
            Scenario.from_json(path)

    def test_exactly_one_disturbance_source(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            Scenario(name="x", steps=(StepEvent("p_li", 1.0, 0.2, 5.0),),
                     continuous=ContinuousSpec())
        with pytest.raises(ScenarioError, match="exactly one"):
            Scenario(name="x")

    def test_bad_case_rejected(self):
        with pytest.raises(ScenarioError, match="case"):
            Scenario(name="x", case=4, steps=(StepEvent("p_li", 1.0, 0.2, 5.0),))

    @pytest.mark.parametrize("field", ["t_s", "dt", "duration_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, field, value):
        with pytest.raises(ScenarioError, match="finite"):
            Scenario(name="x", steps=(StepEvent("p_li", 1.0, 0.2, 5.0),), **{field: value})

    @pytest.mark.parametrize("field", ["time_s", "magnitude_pu", "duration_s"])
    def test_non_finite_step_rejected(self, field):
        values = {"channel": "p_li", "time_s": 1.0, "magnitude_pu": 0.2, "duration_s": 5.0}
        values[field] = float("nan")
        with pytest.raises(ScenarioError, match="finite"):
            StepEvent(**values)
        with pytest.raises(ScenarioError, match="finite"):
            scenario_from_dict({"name": "x", "disturbance": {"steps": [values]}})

    def test_step_at_or_after_end_rejected(self):
        for start in (20.0, 30.0):
            with pytest.raises(ScenarioError, match=f"StepEvent.*p_li.*{start}"):
                Scenario(name="late", case=2, duration_s=20.0,
                         steps=(StepEvent("p_li", start, 0.3, 5.0),))

    def test_step_running_past_end_is_clipped(self):
        s = Scenario(name="x", duration_s=10.0, steps=(StepEvent("p_li", 8.0, 0.3, 5.0),))
        w = build_disturbance_profile(s).channel("p_li")
        assert len(w) == 101 and np.all(w[80:] == 0.3) and np.all(w[:80] == 0.0)

    def test_bad_step_channel_rejected(self):
        with pytest.raises(ScenarioError, match="channel"):
            StepEvent("bogus", 1.0, 0.2, 5.0)

    # a step holds samples round(time_s/t_s) up to round((time_s+duration_s)/t_s),
    # cut at the end of the record: 1.05/0.1 rounds to 10, so (1.0, 0.05) holds
    # none, and 1.04/0.1 to 10 but 1.08/0.1 to 11, so (1.04, 0.04) holds one
    @pytest.mark.parametrize("time_s, duration_s, samples", [
        (1.0, 0.05, 0), (1.0, 0.06, 1), (1.0, 0.14, 1), (1.04, 0.04, 1), (9.9, 100.0, 2)])
    def test_step_is_refused_exactly_when_its_profile_is_empty(self, time_s, duration_s, samples):
        steps = (StepEvent("p_li", time_s, 0.3, duration_s),)
        if samples == 0:
            with pytest.raises(ScenarioError, match="covers no sample"):
                Scenario(name="x", duration_s=10.0, steps=steps)
        else:
            profile = build_disturbance_profile(Scenario(name="x", duration_s=10.0, steps=steps))
            assert np.count_nonzero(profile.channel("p_li")) == samples

    def test_step_profile_layout(self):
        s = Scenario(name="x", duration_s=10.0, t_s=0.1,
                     steps=(StepEvent("p_w", 2.0, 0.4, 3.0),))
        profile = build_disturbance_profile(s)
        w = profile.channel("p_w")
        assert w[int(2.5 / 0.1)] == pytest.approx(0.4)
        assert w[int(5.5 / 0.1)] == 0.0
        # wind subtracts from the rectifier-side net load
        plant_w = to_plant_disturbance(profile)
        assert plant_w.channel("p_lr_net")[int(2.5 / 0.1)] == pytest.approx(-0.4)

    def test_file_disturbance_round_trip(self, tmp_path):
        profile = generate_continuous_profile(4, 0.2, 0.05, 30.0, 0.1)
        path = tmp_path / "profile.csv"
        profile.to_csv(path)
        s = Scenario(name="x", duration_s=20.0, disturbance_file=str(path))
        loaded = build_disturbance_profile(s)
        assert loaded.n_samples == 201
        np.testing.assert_allclose(loaded.samples, profile.samples[:201])

    def test_file_disturbance_with_byte_order_mark(self, tmp_path):
        generate_continuous_profile(4, 0.2, 0.05, 30.0, 0.1).to_csv(tmp_path / "plain.csv")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
        loaded = []
        for name in ("plain.csv", "bom.csv"):
            doc = {"name": "x", "duration_s": 20.0, "disturbance": {"file": str(tmp_path / name)}}
            loaded.append(build_disturbance_profile(scenario_from_dict(doc)))
        assert loaded[1].channels == loaded[0].channels == PROFILE_CHANNELS
        np.testing.assert_array_equal(loaded[1].samples, loaded[0].samples)

    def test_file_disturbance_keeps_only_the_rows_it_uses(self, tmp_path):
        path = tmp_path / "profile.csv"
        generate_continuous_profile(4, 0.2, 0.05, 30.0, 0.1).to_csv(path)
        loaded = build_disturbance_profile(Scenario(name="x", duration_s=20.0,
                                                    disturbance_file=str(path)))
        assert loaded.samples.base is None and loaded.samples.shape == (201, 3)

    def test_file_disturbance_must_start_at_zero(self, tmp_path):
        # its steps match the scenario's t_s, so only the start check refuses it
        path = tmp_path / "late.csv"
        generate_continuous_profile(4, 0.2, 0.05, 30.0, 0.1).to_csv(path)
        text = path.read_text().splitlines()
        rows = [f"{5.0 + k * 0.1!r}," + ln.split(",", 1)[1] for k, ln in enumerate(text[1:])]
        path.write_text("\n".join([text[0], *rows]) + "\n")
        s = Scenario(name="x", duration_s=20.0, disturbance_file=str(path))
        with pytest.raises(ScenarioError, match=rf"{re.escape(str(path))}: .*start at 0, got 5\.0"):
            build_disturbance_profile(s)

    def test_file_disturbance_non_finite_rejected(self, tmp_path):
        profile = generate_continuous_profile(4, 0.2, 0.05, 30.0, 0.1)
        samples = profile.samples.copy()
        samples[7, 1] = np.nan
        path = tmp_path / "profile.csv"
        SignalRecord(0.1, PROFILE_CHANNELS, samples).to_csv(path)
        s = Scenario(name="x", duration_s=20.0, disturbance_file=str(path))
        with pytest.raises(ScenarioError, match="non-finite"):
            build_disturbance_profile(s)

    def test_file_disturbance_over_the_input_cap_rejected(self, tmp_path):
        samples = np.zeros((201, 3))
        samples[50, 2] = -2 * MAX_INPUT_PU
        path = tmp_path / "profile.csv"
        SignalRecord(0.1, PROFILE_CHANNELS, samples).to_csv(path)
        s = Scenario(name="x", duration_s=20.0, disturbance_file=str(path))
        with pytest.raises(ScenarioError,
                           match=rf"{re.escape(str(path))}: \|p_w\| reaches 2e\+100 pu"):
            build_disturbance_profile(s)

    def test_inputs_at_the_cap_accepted_and_above_it_refused(self):
        StepEvent("p_li", 1.0, -MAX_INPUT_PU, 5.0)
        ContinuousSpec(amplitude_pu=MAX_INPUT_PU)
        above = math.nextafter(MAX_INPUT_PU, math.inf)
        with pytest.raises(ScenarioError, match=r"^step\.magnitude_pu=-1\.0000000000000002e\+100 "
                                                r"must be finite, magnitude <= 1e\+100$"):
            StepEvent("p_li", 1.0, -above, 5.0)
        with pytest.raises(ScenarioError, match=r"^continuous\.amplitude_pu="):
            ContinuousSpec(amplitude_pu=above)


ONE_STEP = {"steps": [{"channel": "p_li", "time_s": 5.0, "magnitude_pu": 0.3, "duration_s": 15.0}]}

# any JSON value, including the awkward ones: NaN, infinities, integers
# too large for a float, nested lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def maybe(valid):
    """Mostly the valid value, otherwise any JSON value."""
    return st.one_of(st.just(valid), st.just(valid), JSON_VALUES)


def document(fields):
    """A JSON object holding any subset of the given keys."""
    return st.fixed_dictionaries({}, optional=fields)


STEP_DOCS = document({"channel": maybe("p_li"), "time_s": maybe(5.0),
                      "magnitude_pu": maybe(0.3), "duration_s": maybe(15.0)})
DISTURBANCE_DOCS = document({
    "steps": st.lists(STEP_DOCS, max_size=2) | JSON_VALUES,
    "continuous": document({"seed": maybe(2024), "amplitude_pu": maybe(0.3),
                            "bandwidth_hz": maybe(0.05), "duration_s": maybe(200.0)}) | JSON_VALUES,
    "file": maybe("profile.csv"),
}) | JSON_VALUES
SCENARIO_DOCS = JSON_VALUES | st.fixed_dictionaries({
    "name": maybe("fuzz"), "disturbance": DISTURBANCE_DOCS,
}, optional={
    "plant": maybe("jh"), "case": maybe(1), "t_s": maybe(0.1),
    "dt": maybe(0.001), "duration_s": maybe(60.0),
    "identification": document({
        "seed": maybe(1234), "duration_s": maybe(200.0), "hold_s": maybe(1.0), "l": maybe(30),
        "p": maybe(100), "energy_threshold": maybe(1 - 1e-7), "r_override": maybe(20),
        "max_feedthrough": maybe(1e-6), "prefilter_hz": maybe(2.0)}) | JSON_VALUES,
    "controller": document({"q": maybe([100.0] * 6)}) | JSON_VALUES,
})


class TestScenarioDocuments:
    @pytest.mark.parametrize("doc, message", [
        ([], "object"),
        ({"disturbance": []}, "disturbance"),
        ({"name": "x", "disturbance": ONE_STEP, "controller": []}, "controller"),
        ({"name": "x", "disturbance": ONE_STEP, "identification": [1]}, "identification"),
        ({"name": "x", "disturbance": ONE_STEP, "t_s": "abc"}, "t_s"),
        ({"name": "x", "disturbance": ONE_STEP, "case": "x"}, "case"),
        ({"name": "x", "disturbance": ONE_STEP, "duration_s": 10**400}, "duration_s"),
        ({"name": "x", "case": 2, "t_s": 0.1, "dt": 0.001, "duration_s": 0.04,
          "disturbance": {"steps": [
              {"channel": "p_li", "time_s": 0, "magnitude_pu": 0.3, "duration_s": 1.0}]}},
         r"^duration_s=0\.04 s over t_s=0\.1 s must give between 2 and 1000001 samples$"),
        ({"name": "x", "disturbance": ONE_STEP, "plant": "foo"}, "plant"),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"l": "x", "hold_s": -1}},
         "^identification.hold_s="),
        ({"name": "x", "disturbance": {"continuous": {"seed": -1}}}, "^continuous.seed="),
        ({"name": "x", "disturbance": ONE_STEP, "controller": {"q": [1, 2]}}, "^controller.q="),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"energy_threshold": 2.0}},
         "^identification.energy_threshold="),
        ({"name": "x", "disturbance": ONE_STEP, "controller": {"saturation": -1}},
         "^controller has unknown key 'saturation'; known: "),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"l": True}}, "^identification.l="),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"p": 0}}, "^identification.p="),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"seed": 1.5}},
         "^identification.seed="),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"r_override": 0}},
         "^identification.r_override="),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"prefilter_hz": math.inf}},
         "^identification.prefilter_hz="),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"amplitude_pu": 10**400}},
         "^identification.amplitude_pu="),
        ({"name": "x", "disturbance": ONE_STEP, "controller": {"r": [1, 1, 0, 1]}}, "^controller.r="),
        ({"name": "x", "disturbance": ONE_STEP, "controller": {"q": [1] * 5 + [-1]}}, "^controller.q="),
        ({"name": "x", "disturbance": ONE_STEP, "controller": {"sigma_process": math.nan}},
         "^controller.sigma_process="),
        ({"name": "x", "disturbance": ONE_STEP, "controller": {"kp_gen": "1"}}, "^controller.kp_gen="),
        ({"name": "x", "disturbance": {"continuous": {"seed": False}}}, "^continuous.seed="),
        ({"name": "x", "disturbance": ONE_STEP, "dt": 0.0003},
         r"^dt=0\.0003 s must divide t_s=0\.1 s into a whole number of substeps"),
        ({"name": "x", "disturbance": ONE_STEP, "dt": 0.2}, r"^dt=0\.2 s must divide t_s=0\.1 s"),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"p": 10000000}},
         r"^identification\.p=10000000 needs 2p=20000000 pulse blocks, more than the 2001 "),
        ({"name": "x", "disturbance": ONE_STEP, "case": 1.7}, r"^case=1\.7 "),
        ({"name": "x", "disturbance": ONE_STEP, "case": "2"}, "^case='2' "),
        ({"name": "x", "disturbance": ONE_STEP, "duration_s": "30"}, "^duration_s='30' "),
        ({"name": "x", "disturbance": ONE_STEP, "t_s": True}, "^t_s=True "),
        ({"name": "x", "disturbance": ONE_STEP, "duration": 30.0}, "unknown key 'duration'"),
        ({"name": "x", "disturbance": {**ONE_STEP, "contnuous": {}}}, "unknown key 'contnuous'"),
        ({"name": "x", "disturbance": {"steps": [{**ONE_STEP["steps"][0], "time_s": True}]}},
         "^step.time_s=True "),
        ({"name": "x", "disturbance": {"file": 5}}, "^disturbance_file=5 "),
        ({"name": 5, "disturbance": ONE_STEP}, "^name=5 "),
        ({"name": "a,b", "disturbance": ONE_STEP}, "^name='a,b' must be a string with no comma"),
        ({"name": 'a"b', "disturbance": ONE_STEP}, """^name='a"b' must be a string with no """),
        ({"name": "a\nb", "disturbance": ONE_STEP}, r"^name='a\\nb' must be a string with no "),
        ({"name": "a\rb", "disturbance": ONE_STEP}, r"^name='a\\rb' must be a string with no "),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"duration_s": 100.0, "l": 30}},
         r"^identification\.l=30 needs 1080 samples, more than the 1001 "),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"prefilter_hz": 5.0}},
         r"^identification\.prefilter_hz=5 Hz must be below the Nyquist frequency 5 Hz"),
        ({"name": "x", "disturbance": {"continuous": {"bandwidth_hz": 6.0}}},
         r"^continuous\.bandwidth_hz=6 Hz must be below the Nyquist frequency 5 Hz"),
        ({"name": "x", "disturbance": {"continuous": {"bandwidth_hz": 5.0}}},
         r"^continuous\.bandwidth_hz=5 Hz must be below the Nyquist frequency 5 Hz of t_s=0\.1 s$"),
        ({"name": "x", "duration_s": 60.0, "disturbance": {"continuous": {"duration_s": 59.9}}},
         r"^continuous\.duration_s=59\.9 s must cover duration_s=60 s"),
        ({"name": "x", "disturbance": ONE_STEP,
          "identification": {"duration_s": 100000, "l": 20000, "p": 400000}},
         r"^identification\.l=20000 needs a 259225920648-byte observer triangle, "
         r"more than the 268435456-byte limit"),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"duration_s": 3000, "l": 643}},
         r"^identification\.l=643 needs a 268748928-byte observer triangle"),
        ({"name": "x", "disturbance": ONE_STEP,
          "identification": {"duration_s": 100000, "p": 400000}},
         r"^identification\.p=400000 needs a 23040057600000-byte Hankel pair, "
         r"more than the 268435456-byte limit"),
        ({"name": "x", "disturbance": ONE_STEP, "identification": {"duration_s": 1000, "p": 1365}},
         r"^identification\.p=1365 needs a 268500960-byte Hankel pair"),
        ({"name": "x", "disturbance": ONE_STEP, "dt": 0.01},
         r"^dt=0\.01 s makes the RK4 substep unstable on the jh case-1 plant "
         r"\(spectral radius 39\.22"),
        ({"name": "x", "disturbance": ONE_STEP, "dt": 0.1}, r"^dt=0\.1 s makes the RK4 substep"),
        ({"name": "x", "disturbance": ONE_STEP, "t_s": 0.11, "dt": 0.0044},
         r"^dt=0\.0044 s makes the RK4 substep unstable on the jh case-3 plant "
         r"\(spectral radius 1\.0959"),
        ({"name": "x", "disturbance": ONE_STEP, "plant": "cigre", "dt": 0.005},
         r"^dt=0\.005 s makes the RK4 substep unstable on the cigre case-1 plant"),
        ({"name": "x", "disturbance": {"steps": [
            {"channel": "p_li", "time_s": 1.0, "magnitude_pu": 0.1, "duration_s": 0.04}]}},
         r"^StepEvent\(channel='p_li', time_s=1\.0, .* covers no sample: "
         r"duration_s=0\.04 s is too short at t_s=0\.1 s"),
        ({"name": "x", "disturbance": {"steps": [
            ONE_STEP["steps"][0],
            {"channel": "p_w", "time_s": 2.0, "magnitude_pu": 0.1, "duration_s": 0.02}]}},
         r"^StepEvent\(channel='p_w', time_s=2\.0, .* duration_s=0\.02 s .* t_s=0\.1 s"),
        ({"name": "x", "disturbance": ONE_STEP, "controller": {"q": [1e300] * 6}},
         r"^controller\.q=\(1e\+300, .* must be 6 entries, each 0 or between 1e-150 and 1e\+150"),
        ({"name": "x", "disturbance": ONE_STEP, "controller": {"sigma_process": 1e200}},
         r"^controller\.sigma_process=1e\+200 must be between 1e-150 and 1e\+150"),
    ])
    def test_bad_document_is_a_scenario_error(self, doc, message):
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("plant", ["jh", "cigre"])
    def test_largest_rk4_stable_dt_is_accepted(self, plant):
        scenario = scenario_from_dict({"name": "x", "disturbance": ONE_STEP, "plant": plant,
                                       "dt": 0.004})
        assert scenario.dt == 0.004

    def test_readme_schema_example_is_accepted(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("## Scenario schema"):]
        example = section[section.index("```json") + len("```json"):section.index("```\n\n")]
        scenario = scenario_from_dict(json.loads(re.sub(r"\s*//.*", "", example)))
        assert scenario.steps == (StepEvent("p_li", 5.0, 0.3, 15.0),)

    @pytest.mark.parametrize("field, value", [
        ("l", "3"), ("l", True), ("p", 0), ("p", 1.5), ("energy_threshold", 2.0),
        ("energy_threshold", math.nan), ("r_override", 0), ("r_override", 2.5),
        ("r_override", True), ("max_feedthrough", -1.0), ("max_feedthrough", 10**400),
        ("prefilter_hz", math.inf), ("prefilter_hz", 0), ("prefilter_hz", math.nan),
        ("prefilter_hz", 5.0), ("prefilter_hz", 6)])
    def test_identification_fields_are_the_configs_rules(self, field, value):
        # IdentifyConfig owns these rules; a document's message adds only its section
        with pytest.raises(ScenarioError) as document:
            scenario_from_dict({"name": "x", "disturbance": ONE_STEP,
                                "identification": {field: value}})
        with pytest.raises(IdentificationError) as library:
            IdentifyConfig(**{field: value})
        assert str(document.value) == f"identification.{library.value}"
        assert str(library.value).startswith(f"{field}=")

    def test_identification_spec_checks_only_the_excitation(self):
        refused = []
        for f in dataclasses.fields(IdentificationSpec):
            try:
                IdentificationSpec(**{f.name: "x"})
            except ScenarioError as exc:
                refused.append(str(exc).split("=")[0])
        assert refused == [f"identification.{name}"
                           for name in ("seed", "duration_s", "amplitude_pu", "hold_s")]

    def test_optional_fields_accept_none(self):
        IdentificationSpec(r_override=None, max_feedthrough=None, prefilter_hz=None)
        ControllerSpec(q=[0.0] * 6)

    @pytest.mark.parametrize("name, size", [
        ("q", 6), ("r", 4), ("sigma_process", None), ("v_meas_scale", None),
        ("w_proc_floor", None)])
    def test_controller_scales_lie_within_the_design_range(self, name, size):
        def spec(value):
            return ControllerSpec(**{name: value if size is None else (value,) * size})

        for value in (1e-150, 1e150):
            assert spec(value)
        for value in (math.nextafter(1e-150, 0.0), math.nextafter(1e150, math.inf), 1e300):
            with pytest.raises(ScenarioError, match=rf"^controller\.{name}=.* between 1e-150 "):
                spec(value)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(SCENARIO_DOCS)
    def test_fuzzed_document_gives_scenario_or_scenario_error(self, doc):
        try:
            assert isinstance(scenario_from_dict(doc), Scenario)
        except ScenarioError:
            pass


class TestRecordLength:
    # construction alone is checked, so no record is ever allocated
    @pytest.mark.parametrize("field, scenario", [
        ("duration_s", dict(duration_s=1e9, steps=(StepEvent("p_li", 1.0, 0.2, 5.0),))),
        ("duration_s", dict(t_s=1e-6, dt=1e-7, duration_s=10.0,
                            steps=(StepEvent("p_li", 1.0, 0.2, 5.0),))),
        ("continuous.duration_s", dict(continuous=ContinuousSpec(duration_s=1e9))),
        ("identification.duration_s",
         dict(steps=(StepEvent("p_li", 1.0, 0.2, 5.0),),
              identification=IdentificationSpec(duration_s=1e9))),
    ])
    def test_too_many_samples_rejected(self, field, scenario):
        with pytest.raises(ScenarioError, match="^" + re.escape(field) + "=.*samples"):
            Scenario(name="x", **scenario)

    @pytest.mark.parametrize("duration_s", [float("nan"), -5.0, 0.0, 0.04])
    def test_identification_duration_must_give_samples(self, duration_s):
        with pytest.raises(ScenarioError, match="^identification.duration_s="):
            Scenario(name="x", steps=(StepEvent("p_li", 1.0, 0.2, 5.0),),
                     identification=IdentificationSpec(duration_s=duration_s))

    @pytest.mark.parametrize("p, accepted", [(100, True), (101, False)])
    def test_hankel_size_is_bounded_by_the_identification_record(self, p, accepted):
        # 20 s at t_s=0.1 s is 201 samples: 2p may not exceed them (nor may the
        # 4 l (v + z) = 180 samples the observer fit needs at l=5)
        scenario = dict(name="x", steps=(StepEvent("p_li", 1.0, 0.2, 5.0),),
                        identification=IdentificationSpec(duration_s=20.0, p=p, l=5))
        if accepted:
            Scenario(**scenario)
        else:
            with pytest.raises(ScenarioError, match=r"^identification\.p=101 .* 201 "):
                Scenario(**scenario)

    def test_largest_identification_arrays_accepted(self):
        # l=642 folds into a 5787-wide triangle and p=1364 holds its Hankel
        # pair in a 4095x8184 array, each just under sysid.MAX_ARRAY_BYTES, which
        # sysid.check_limits applies for the scenario and for identify alike
        steps = (StepEvent("p_li", 1.0, 0.2, 5.0),)
        Scenario(name="x", steps=steps, identification=IdentificationSpec(duration_s=3000.0, l=642))
        Scenario(name="x", steps=steps, identification=IdentificationSpec(duration_s=1000.0, p=1364))

    def test_bound_itself_accepted(self):
        # the 2 Hz default prefilter is above the 0.5 Hz Nyquist frequency of t_s=1 s
        Scenario(name="x", t_s=1.0, duration_s=float(MAX_SAMPLES),
                 continuous=ContinuousSpec(duration_s=float(MAX_SAMPLES)),
                 identification=IdentificationSpec(duration_s=float(MAX_SAMPLES),
                                                   prefilter_hz=None))


@pytest.fixture(scope="module")
def quick_step_scenario():
    return Scenario(
        name="quick-step",
        steps=(StepEvent("p_li", 5.0, 0.3, 15.0), StepEvent("p_lr", 35.0, 0.3, 15.0)),
        duration_s=60.0,
    )


@pytest.fixture(scope="module")
def step_reports(quick_step_scenario):
    return run_cases(quick_step_scenario)


class TestRunScenario:
    def test_zero_disturbance_zero_metrics(self):
        s = Scenario(name="null", case=2, duration_s=20.0,
                     steps=(StepEvent("p_li", 5.0, 0.0, 1.0),))
        report = run_scenario(s)
        assert report.sum_max_f == 0.0
        assert report.rms_p_gi == 0.0

    def test_determinism_identical_reports(self, quick_step_scenario):
        s = dataclasses.replace(quick_step_scenario, case=1)
        a = run_scenario(s)
        b = run_scenario(s)
        assert a.to_json_dict() == b.to_json_dict()
        np.testing.assert_array_equal(a.trace.samples, b.trace.samples)

    def test_case1_wins_step_protocol(self, step_reports):
        by_case = {r.case: r for r in step_reports}
        assert by_case[1].sum_max_f < by_case[2].sum_max_f
        assert by_case[1].sum_max_f < by_case[3].sum_max_f

    def test_case_ordering_of_rms(self, step_reports):
        by_case = {r.case: r for r in step_reports}
        assert by_case[1].sum_rms_f < by_case[2].sum_rms_f


class TestInputScaling:
    UNIT = Scenario(name="unit", case=2, duration_s=30.0,
                    steps=(StepEvent("p_li", 2.0, 1.0, 10.0), StepEvent("p_w", 12.0, -1.0, 10.0)))

    @given(st.floats(-3.0, 100.0), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    def test_pi_metrics_scale_with_the_input_up_to_the_cap(self, exponent, sign):
        magnitude = sign * MAX_INPUT_PU * 10.0 ** (exponent - 100.0)  # never above the cap
        steps = tuple(dataclasses.replace(e, magnitude_pu=magnitude * e.magnitude_pu)
                      for e in self.UNIT.steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = run_cases(dataclasses.replace(self.UNIT, steps=steps), (2, 3), False)
        for report, unit in zip(scaled, run_cases(self.UNIT, (2, 3), False)):
            for c in METRIC_COLUMNS:
                assert math.isfinite(getattr(report, c))
                assert getattr(report, c) == pytest.approx(abs(magnitude) * getattr(unit, c),
                                                           rel=1e-9)

    def test_diverged_report_keeps_its_reason_out_of_the_metrics(self):
        flipped = dataclasses.replace(self.UNIT, controller=ControllerSpec(
            kp_hvdc=-3.0, ki_hvdc=-25.0, kp_gen=-0.8, ki_gen=-0.2))
        reports = run_cases(flipped, (2, 3))
        assert [r.divergence for r in reports] == [
            "sampled closed loop has spectral radius 1.562155 > 1",
            "sampled closed loop has spectral radius 1.151167 > 1"]
        assert all(r.trace is None and "divergence" not in r.to_json_dict() for r in reports)
        assert "spectral" not in sweep_table_csv({"flipped": reports})
        with pytest.raises(ScenarioError, match=r"^case 2: the closed loop diverged: sampled "
                                                r"closed loop has spectral radius 1\.562155 > 1$"):
            compare_cases(reports)


class TestDefaultsAgree:
    """An empty scenario block runs what the library's defaults run."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return scenario_from_dict({
            "name": "defaults", "identification": {}, "controller": {},
            "disturbance": {"steps": [{"channel": "p_li", "time_s": 5.0, "magnitude_pu": 0.3,
                                       "duration_s": 15.0}]}})

    def test_empty_controller_block_designs_the_make_lqg_gains(self, scenario, jh_plant):
        _, model = identify_plant_model(jh_plant, scenario.identification, scenario.t_s,
                                        scenario.dt)
        want = make_lqg(model, substep=scenario.dt)
        got = build_controller(scenario, 1, jh_plant)
        for f in dataclasses.fields(want):
            if f.name != "model":
                np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name),
                                              err_msg=f.name)

    def test_empty_controller_block_gives_the_pi_defaults(self, scenario, jh_plant):
        assert build_controller(scenario, 2, jh_plant) == PiSfcController()
        assert build_controller(scenario, 3, jh_plant) == PiSfcController(inverter_only=True)

    def test_identification_sizes_and_sample_time_are_the_config_defaults(self, scenario):
        spec, lib = IdentificationSpec().to_config(0.1), IdentifyConfig()
        assert (spec.l, spec.p, spec.t_s) == (lib.l, lib.p, lib.t_s) == (
            scenario.identification.l, scenario.identification.p, scenario.t_s)


class TestStage:
    def test_any_error_becomes_a_scenario_error_naming_the_stage(self):
        with pytest.raises(ScenarioError, match=r"^plant stage failed \(KeyError\): 'x'$") as info:
            with stage("plant"):
                raise KeyError("x")
        assert isinstance(info.value.__cause__, KeyError)

    def test_scenario_error_passes_unchanged(self):
        with pytest.raises(ScenarioError, match="^bad file$"):
            with stage("disturbance"):
                raise ScenarioError("bad file")

    def test_errors_are_exported_with_the_package(self):
        import hvdcfr
        from hvdcfr import control, harness

        assert hvdcfr.ScenarioError is harness.ScenarioError
        assert hvdcfr.ControlDesignError is control.ControlDesignError


class TestSampling:
    @pytest.mark.parametrize("case, failing, rho", [
        (1, "identification", "2.460439"), (2, "closed-loop", "2.460439"),
        (3, "closed-loop", "2.574457")])
    def test_plant_too_fast_for_the_substep_fails_its_stage(self, case, failing, rho):
        # dt=0.004 s steps the jh preset, so the scenario is accepted; the faster
        # actuator lag of the plant each case samples is refused, not a diverged loop
        scenario = Scenario(name="x", dt=0.004, duration_s=10.0,
                            steps=(StepEvent("p_li", 1.0, 0.1, 1.0),))
        params = dataclasses.replace(load_preset("jh"), T_c=0.0075)
        w = to_plant_disturbance(build_disturbance_profile(scenario))
        with pytest.raises(ScenarioError, match=rf"^{failing} stage failed \(PlantError\): "
                                                r"dt=0\.004 s makes the RK4 substep unstable on "
                                                rf"the plant \(spectral radius {re.escape(rho)}"):
            _run_case(scenario, case, "x", params, w, keep_trace=False)


class TestCompare:
    def test_identical_reports_zero_reduction(self, step_reports):
        r1 = step_reports[0]
        clone = dataclasses.replace(r1, case=2)
        table = compare_cases([r1, clone])
        assert all(v == 0.0 for k, v in table.reductions[0].items() if k != "case")

    def test_percent_arithmetic_by_hand(self, step_reports):
        table = compare_cases(list(step_reports))
        rows = {r["case"]: r for r in table.rows}
        red = {r["case"]: r for r in table.reductions}
        base = rows[2]["sum_max_f"]
        ours = rows[1]["sum_max_f"]
        assert red[2]["sum_max_f"] == pytest.approx(100.0 * (base - ours) / base)

    def test_mismatched_disturbances_rejected(self, step_reports):
        other = dataclasses.replace(step_reports[0], disturbance_sha256="f" * 64)
        with pytest.raises(ScenarioError, match="different disturbances"):
            compare_cases([step_reports[1], other])

    def test_non_finite_case_rejected(self, step_reports):
        diverged = dataclasses.replace(step_reports[2], max_f_i=math.inf, rms_f_r=math.inf)
        with pytest.raises(ScenarioError, match=r"case 3 .*max_f_i, rms_f_r, sum_rms_f"):
            compare_cases([step_reports[0], step_reports[1], diverged])

    def test_text_header_splits_into_columns(self, step_reports):
        text = compare_cases(list(step_reports)).to_text()
        assert text.splitlines()[0].split() == ["case", *METRIC_COLUMNS]

    def test_csv_layout(self, step_reports):
        text = compare_cases(list(step_reports)).to_csv_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("case,max_f_i")
        assert len([ln for ln in lines if ln and ln[0].isdigit()]) == 3 + 2


class TestSweep:
    def test_no_pfc_increases_open_loop_excursion(self, jh_params):
        t_s, dur = 0.1, 40.0
        refs = zeros_record(t_s, REFERENCE_CHANNELS, dur)
        n = int(round(dur / t_s)) + 1
        w = np.zeros((n, 2))
        w[int(5 / t_s):, 0] = 0.3
        dist = SignalRecord(t_s, ("p_li", "p_lr_net"), w)
        base = simulate(build_plant(jh_params), refs, dist, dt=0.001)
        nopfc = simulate(build_plant(without_hvdc_droops(jh_params)), refs, dist, dt=0.001)
        assert (np.max(np.abs(nopfc.channel("f_i")))
                > np.max(np.abs(base.channel("f_i"))))

    def test_sweep_table_shapes(self):
        s = Scenario(name="sweep", continuous=ContinuousSpec(duration_s=80.0),
                     duration_s=80.0)
        results = run_sweep(s, conditions=("no_pfc",))
        assert set(results) == {"no_pfc"}
        assert [r.case for r in results["no_pfc"]] == [1, 2, 3]
        csv_text = sweep_table_csv(results)
        assert csv_text.splitlines()[0].startswith("condition,case")

    def test_baseline_rows_equal_run_cases(self):
        s = Scenario(name="same", continuous=ContinuousSpec(duration_s=80.0), duration_s=80.0)
        swept = run_sweep(s, conditions=("baseline",))["baseline"]
        direct = run_cases(s, keep_trace=False)
        for a, b in zip(swept, direct):
            assert a.case == b.case and a.trace is None and b.trace is None
            for c in METRIC_COLUMNS:
                assert getattr(a, c) == pytest.approx(getattr(b, c), rel=1e-8, abs=0.0)

    def test_diverging_cases_give_inf_rows_on_every_condition(self):
        # sign-flipped PI gains make cases 2 and 3 unstable; case 1 is LQG
        s = Scenario(name="flipped", continuous=ContinuousSpec(duration_s=60.0),
                     duration_s=60.0,
                     controller=ControllerSpec(kp_hvdc=-3.0, ki_hvdc=-25.0,
                                               kp_gen=-0.8, ki_gen=-0.2))
        results = run_sweep(s, conditions=("baseline", "cigre"))
        for reports in results.values():
            by_case = {r.case: r for r in reports}
            assert math.isfinite(by_case[1].sum_rms_f)
            for case in (2, 3):
                assert all(getattr(by_case[case], c) == math.inf for c in METRIC_COLUMNS)
        assert run_scenario(dataclasses.replace(s, case=2)).trace is None


# inertia, damping, governor and HVDC droops, inertia emulation, the filter
# and turbine time constants and the dc link: the specifications the paper's
# claim ranges over
VARIED_FIELDS = ("M_i", "M_r", "D_i", "D_r", "R_gi", "R_gr", "R_i", "R_r", "K_i", "K_r",
                 "W_i", "W_r", "T_f", "T_cd", "T_fi", "T_fr", "C_dc", "L_dc")


@pytest.fixture(scope="module")
def shipped_protocols():
    """Each shipped scenario, its plant disturbance and the metric case 1 must win on."""
    root = Path(__file__).resolve().parent.parent / "scenarios"
    protocols = []
    for name, metric in (("step_pulses.json", "sum_max_f"), ("continuous_load.json", "sum_rms_f")):
        scenario = Scenario.from_json(root / name)
        protocols.append((scenario, to_plant_disturbance(build_disturbance_profile(scenario)),
                          metric))
    return protocols


@given(st.lists(st.floats(0.75, 1.25), min_size=len(VARIED_FIELDS), max_size=len(VARIED_FIELDS)))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
def test_lqg_beats_both_baselines_on_perturbed_plants(shipped_protocols, factors):
    """Case 1 keeps its lead over cases 2 and 3 with each varied field of
    either preset scaled by up to 25%."""
    for preset in ("jh", "cigre"):
        base = load_preset(preset)
        params = dataclasses.replace(base, **{name: getattr(base, name) * factor
                                              for name, factor in zip(VARIED_FIELDS, factors)})
        for scenario, w, metric in shipped_protocols:
            lqg, pi, pi_inverter = (getattr(_run_case(scenario, case, scenario.name, params, w,
                                                      keep_trace=False), metric)
                                    for case in (1, 2, 3))
            assert lqg < pi and lqg < pi_inverter, (preset, scenario.name, factors)
