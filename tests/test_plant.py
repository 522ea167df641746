import dataclasses
import json
import math
import re

import numpy as np
import pytest

from hvdcfr.control import PiSfcController, closed_loop
from hvdcfr.numerics import eig_real_parts
from hvdcfr.plant import (
    AUX_CHANNELS,
    DISTURBANCE_CHANNELS,
    REFERENCE_CHANNELS,
    PlantError,
    PlantParams,
    SimulationDivergence,
    build_plant,
    dc_gain,
    load_preset,
    sample_step_matrices,
    simulate,
    without_hvdc_droops,
    without_hvdc_droops_and_ire,
    without_rectifier_hvdc_loops,
)
from hvdcfr.signals import SignalRecord, zeros_record
from hvdcfr.statespace import zoh_step_matrices


def step_disturbance(t_s, duration, channel, magnitude, at):
    n = int(round(duration / t_s)) + 1
    w = np.zeros((n, 2))
    w[int(round(at / t_s)):, DISTURBANCE_CHANNELS.index(channel)] = magnitude
    return SignalRecord(t_s, DISTURBANCE_CHANNELS, w)


_REFS = zeros_record(0.1, REFERENCE_CHANNELS, 1.0)
_BAD_DIST = zeros_record(0.1, ("p_li", "wrong"), 1.0)


class TestParams:
    def test_presets_load(self):
        for name in ("jh", "cigre"):
            params = load_preset(name)
            assert params.N_i >= 1 and params.N_r >= 1

    def test_unknown_preset(self):
        with pytest.raises(PlantError, match="preset"):
            load_preset("nope")

    def test_json_round_trip(self, jh_params, tmp_path):
        path = tmp_path / "params.json"
        for params in (jh_params, without_hvdc_droops(jh_params),
                       without_hvdc_droops_and_ire(jh_params)):
            # strict JSON, as a document author writes it: a disabled droop is null
            doc = {k: None if v == math.inf else v for k, v in dataclasses.asdict(params).items()}
            path.write_text(json.dumps(doc, allow_nan=False))
            assert PlantParams.from_json(path) == params

    @pytest.mark.parametrize("name, droop", [("K_i", True), ("R_gi", True), ("M_i", False),
                                             ("k_pr", False), ("N_i", False)])
    def test_null_is_inf_for_droops_only(self, jh_params, tmp_path, name, droop):
        doc = dataclasses.asdict(jh_params)
        doc[name] = None
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        if droop:
            assert PlantParams.from_json(path) == dataclasses.replace(jh_params, **{name: math.inf})
        else:
            with pytest.raises(PlantError, match=rf"^{name}=None must be"):
                PlantParams.from_json(path)

    def test_invariants_rejected(self, jh_params):
        with pytest.raises(PlantError, match="N_i"):
            dataclasses.replace(jh_params, N_i=0)
        with pytest.raises(PlantError, match="time constant"):
            dataclasses.replace(jh_params, T_f=0.0)
        with pytest.raises(PlantError, match="droop"):
            dataclasses.replace(jh_params, R_i=-0.5)
        with pytest.raises(PlantError, match="inconsistent"):
            dataclasses.replace(jh_params, power_base_MW=400.0)

    @pytest.mark.parametrize("name, value", [
        ("M_i", math.nan), ("N_i", 1.5), ("N_i", True), ("M_i", "5"), ("k_pr", math.nan),
        ("X_cr", -1.0)])
    def test_bad_value_rejected_by_name(self, jh_params, name, value):
        with pytest.raises(PlantError, match=rf"^{name}={value!r} must be"):
            dataclasses.replace(jh_params, **{name: value})

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(M_g=0.4), "unknown key 'M_g'"),
        (lambda d: d.pop("M_i"), "missing the key 'M_i'")], ids=["unknown", "missing"])
    def test_from_json_names_unknown_and_missing_keys(self, jh_params, tmp_path, edit, message):
        doc = dataclasses.asdict(jh_params)
        edit(doc)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PlantError, match=message):
            PlantParams.from_json(path)

    def test_infinite_droop_disables_loop(self, jh_params):
        # inf is a valid droop constant (gain zero), used by the sweeps
        params = dataclasses.replace(jh_params, K_r=math.inf)
        build_plant(params)


class TestBuild:
    def test_order_and_core_hurwitz(self, jh_plant):
        # assembled order is documented: 26 states, of which the last
        # three are the pure output integrators
        assert jh_plant.state_space.n_states == 26
        reals = eig_real_parts(jh_plant.state_space.a)
        zeros = np.sum(np.abs(reals) < 1e-12)
        assert zeros == 3
        assert np.all(np.sort(reals)[:-3] < 0)

    def test_output_and_input_signature(self, jh_plant):
        assert jh_plant.state_space.n_outputs == 6
        # integrator rows: zero feedthrough everywhere
        assert np.all(jh_plant.state_space.d == 0.0)

    def test_unstable_parameterization_raises(self, jh_params):
        # stripping the commutation damping exposes the dc-link resonance
        bad = dataclasses.replace(jh_params, X_cr=0.0)
        with pytest.raises(PlantError, match="eigenvalue"):
            build_plant(bad)


class TestSimulate:
    def test_zero_inputs_zero_outputs(self, jh_plant):
        refs = zeros_record(0.1, REFERENCE_CHANNELS, 10.0)
        dist = zeros_record(0.1, DISTURBANCE_CHANNELS, 10.0)
        trace = simulate(jh_plant, refs, dist, dt=0.001)
        assert np.all(trace.samples == 0.0)

    def test_step_settles_at_droop_offset(self, jh_plant):
        t_s, dur = 0.1, 60.0
        refs = zeros_record(t_s, REFERENCE_CHANNELS, dur)
        dist = step_disturbance(t_s, dur, "p_li", 0.3, at=5.0)
        trace = simulate(jh_plant, refs, dist, dt=0.001)
        f_i = trace.channel("f_i")
        assert np.all(f_i[int(6 / t_s):] < 0.0)
        expected = dc_gain(jh_plant) @ np.array([0, 0, 0, 0, 0.3, 0])
        assert f_i[-1] == pytest.approx(expected[0], rel=1e-4)
        assert trace.channel("f_r")[-1] == pytest.approx(expected[1], rel=1e-4)
        assert trace.channel("v_dc")[-1] == pytest.approx(expected[2], rel=1e-4)

    def test_richardson_step_halving(self, jh_plant):
        t_s, dur = 0.1, 20.0
        refs = zeros_record(t_s, REFERENCE_CHANNELS, dur)
        dist = step_disturbance(t_s, dur, "p_li", 0.3, at=2.0)
        a = simulate(jh_plant, refs, dist, dt=0.001)
        b = simulate(jh_plant, refs, dist, dt=0.0005)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-6

    @pytest.mark.parametrize("run, refs, dist, message", [
        ("simulate", zeros_record(0.1, ("p_gi_ref", "wrong", "i_dci_ref", "v_dcr_ref"), 1.0),
         zeros_record(0.1, DISTURBANCE_CHANNELS, 1.0),
         "reference channels ('p_gi_ref', 'wrong', 'i_dci_ref', 'v_dcr_ref') != "
         f"{REFERENCE_CHANNELS}"),
        ("simulate", _REFS, _BAD_DIST, "disturbance channels ('p_li', 'wrong') != "
         f"{DISTURBANCE_CHANNELS}"),
        ("simulate", _REFS, zeros_record(0.2, DISTURBANCE_CHANNELS, 2.0),
         "reference T_s 0.1 != disturbance T_s 0.2"),
        ("simulate", _REFS, zeros_record(0.1, DISTURBANCE_CHANNELS, 2.0),
         "reference record has 11 samples, disturbance record 21"),
        ("closed_loop", None, _BAD_DIST, "disturbance channels ('p_li', 'wrong') != "
         f"{DISTURBANCE_CHANNELS}"),
    ], ids=["simulate-references", "simulate-disturbances", "simulate-t_s", "simulate-length",
            "closed_loop-disturbances"])
    def test_dimension_mismatch_named(self, jh_plant, run, refs, dist, message):
        # each refusal names both channel tuples, or both values
        with pytest.raises(PlantError, match=f"^{re.escape(message)}$"):
            if run == "simulate":
                simulate(jh_plant, refs, dist, dt=0.001)
            else:
                closed_loop(jh_plant, PiSfcController(), dist, dt=0.001)

    def test_dt_must_divide(self, jh_plant):
        refs = zeros_record(0.1, REFERENCE_CHANNELS, 1.0)
        dist = zeros_record(0.1, DISTURBANCE_CHANNELS, 1.0)
        with pytest.raises(PlantError, match="divide"):
            simulate(jh_plant, refs, dist, dt=0.03)

    @pytest.mark.parametrize("run", ["simulate", "closed_loop"])
    def test_plant_too_fast_for_the_substep_is_refused(self, run):
        # a faster actuator lag puts a mode outside RK4's stability region at
        # a dt that steps the preset: the sampler refuses it, not the loop
        plant = build_plant(dataclasses.replace(load_preset("jh"), T_c=0.0075))
        dist = zeros_record(0.1, DISTURBANCE_CHANNELS, 10.0)
        with pytest.raises(PlantError, match=r"^dt=0\.004 s makes the RK4 substep unstable on "
                                             r"the plant \(spectral radius 2\.460439 > 1\)"):
            if run == "simulate":
                simulate(plant, zeros_record(0.1, REFERENCE_CHANNELS, 10.0), dist, dt=0.004)
            else:
                closed_loop(plant, PiSfcController(), dist, dt=0.004)

    def test_hundred_million_substeps_fold_to_exact_zoh(self, jh_plant):
        # the fold's cost grows with log(t_s/dt), so dt=1e-9 stays cheap
        ss = jh_plant.state_space
        folded = sample_step_matrices(ss.a, ss.b, 0.1, 1e-9)
        for got, exact in zip(folded, zoh_step_matrices(ss.a, ss.b, 0.1)):
            assert np.max(np.abs(got - exact)) <= 1e-7 * np.max(np.abs(exact))

    def test_nan_disturbance_diverges(self, jh_plant):
        refs = zeros_record(0.1, REFERENCE_CHANNELS, 5.0)
        w = np.zeros((51, 2))
        w[10, 0] = np.nan
        with pytest.raises(SimulationDivergence):
            simulate(jh_plant, refs, SignalRecord(0.1, DISTURBANCE_CHANNELS, w), dt=0.001)

    def test_superposition(self, jh_plant):
        t_s, dur = 0.1, 20.0
        refs = zeros_record(t_s, REFERENCE_CHANNELS, dur)
        w1 = step_disturbance(t_s, dur, "p_li", 0.2, at=2.0)
        w2 = step_disturbance(t_s, dur, "p_lr_net", -0.1, at=5.0)
        both = SignalRecord(t_s, DISTURBANCE_CHANNELS, w1.samples + w2.samples)
        y1 = simulate(jh_plant, refs, w1, dt=0.001).samples
        y2 = simulate(jh_plant, refs, w2, dt=0.001).samples
        y12 = simulate(jh_plant, refs, both, dt=0.001).samples
        assert np.max(np.abs(y12 - (y1 + y2))) < 1e-9

    def test_power_balance_at_steady_state(self, jh_plant, jh_params):
        t_s, dur = 0.1, 80.0
        eps = 0.12
        refs = zeros_record(t_s, REFERENCE_CHANNELS, dur)
        dist = step_disturbance(t_s, dur, "p_li", eps, at=2.0)
        trace = simulate(jh_plant, refs, dist, dt=0.001)
        residual = (trace.channel("p_gi")[-1] + trace.channel("p_dci")[-1]
                    - eps - jh_params.D_i * trace.channel("f_i")[-1])
        assert abs(residual) < 1e-6

    def test_integral_outputs_match_trapezoid(self, jh_plant):
        # sampled fine enough that the trapezoid rule resolves the transient
        t_s, dur = 0.01, 20.0
        refs = zeros_record(t_s, REFERENCE_CHANNELS, dur)
        dist = step_disturbance(t_s, dur, "p_li", 0.05, at=2.0)
        trace = simulate(jh_plant, refs, dist, dt=0.001)
        for sig, integ in (("f_i", "int_f_i"), ("f_r", "int_f_r"), ("v_dc", "int_v_dc")):
            y = trace.channel(sig)
            z = trace.channel(integ)
            increments = np.diff(z)
            trapezoid = 0.5 * t_s * (y[:-1] + y[1:])
            assert np.max(np.abs(increments - trapezoid)) < 1e-6

    def test_ire_reduces_measured_rocof(self, jh_params):
        # RoCoF as a relay would see it: finite differences of 100 ms samples
        t_s, dur = 0.1, 10.0
        with_ire = build_plant(jh_params)
        without = build_plant(dataclasses.replace(jh_params, W_i=0.0, W_r=0.0))
        refs = zeros_record(t_s, REFERENCE_CHANNELS, dur)
        dist = step_disturbance(t_s, dur, "p_li", 0.3, at=1.0)
        k0 = int(1.0 / t_s)
        rocofs = []
        for plant in (with_ire, without):
            f = simulate(plant, refs, dist, dt=0.001).channel("f_i")
            rocofs.append(np.max(np.abs(np.diff(f[k0:k0 + 11]) / t_s)))
        assert rocofs[0] < rocofs[1]

    def test_decoupled_hvdc_leaves_vdc_quiet(self, jh_params):
        plant = build_plant(without_hvdc_droops_and_ire(jh_params))
        t_s, dur = 0.1, 20.0
        refs = zeros_record(t_s, REFERENCE_CHANNELS, dur)
        dist = step_disturbance(t_s, dur, "p_li", 0.3, at=2.0)
        trace = simulate(plant, refs, dist, dt=0.001)
        assert np.max(np.abs(trace.channel("v_dc"))) == 0.0
        assert trace.channel("f_i")[-1] < -1e-3


class TestDcGain:
    def test_shape(self, jh_plant):
        assert dc_gain(jh_plant).shape == (3, 6)

    def test_load_to_frequency_negative(self, jh_plant):
        gain = dc_gain(jh_plant)
        assert gain[0, 4] < 0.0  # inverter load raises -> f_i sags

    def test_droopless_voltage_reference_shifts_power_symmetrically(self, jh_params):
        # with every converter droop removed, a rectifier-voltage
        # reference still moves both grids' power equally and oppositely
        # (the linearized transfer v + i carries the I0*dV term), so the
        # frequency entries mirror each other instead of vanishing
        plant = build_plant(without_hvdc_droops_and_ire(jh_params))
        gain = dc_gain(plant)
        col = REFERENCE_CHANNELS.index("v_dcr_ref")
        assert gain[0, col] > 0.0
        assert gain[0, col] == pytest.approx(-gain[1, col], rel=1e-6)

    def test_stiffer_governors_shrink_droop_offset(self, jh_params):
        # doubling governor stiffness does not halve the offset outright
        # because load damping D stays: on the decoupled plant the exact
        # ratio is (1/R + D) / (2/R + D)
        decoupled = without_hvdc_droops_and_ire(jh_params)
        loose = dc_gain(build_plant(decoupled))
        stiff = dc_gain(build_plant(dataclasses.replace(decoupled, R_gi=0.25, R_gr=0.25)))
        ratio = stiff[0, 4] / loose[0, 4]
        expected = (1 / jh_params.R_gi + jh_params.D_i) / (2 / jh_params.R_gi + jh_params.D_i)
        assert ratio == pytest.approx(expected, rel=1e-6)
        # on the full plant the converter droops add stiffness of their
        # own, so the shrink is smaller but still material
        full = dc_gain(build_plant(jh_params))
        full_stiff = dc_gain(build_plant(dataclasses.replace(jh_params, R_gi=0.25, R_gr=0.25)))
        assert 0.5 < full_stiff[0, 4] / full[0, 4] < 0.75


class TestCase3Variant:
    def test_rectifier_loops_removed(self, jh_params):
        params = without_rectifier_hvdc_loops(jh_params)
        assert math.isinf(params.R_r) and math.isinf(params.K_r) and math.isinf(params.K_i)
        assert params.W_r == 0.0
        assert params.R_i == jh_params.R_i and params.W_i == jh_params.W_i
        build_plant(params)
