import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hvdcfr import control
from hvdcfr.control import (
    ControlDesignError,
    LqgController,
    PiSfcController,
    closed_loop,
    design_kalman,
    design_lqr,
    make_lqg,
)
from hvdcfr.numerics import care_residual, eig_real_parts, is_hurwitz, solve_care
from hvdcfr.plant import (
    DISTURBANCE_CHANNELS,
    REFERENCE_CHANNELS,
    PlantError,
    SimulationDivergence,
    build_plant,
    sample_step_matrices,
    without_hvdc_droops_and_ire,
    without_rectifier_hvdc_loops,
)
from hvdcfr.signals import SignalRecord, zeros_record
from hvdcfr.statespace import StateSpace
from hvdcfr.sysid import IdentifyConfig, identify

from conftest import collect_jh_data


def scalar_model(a=1.0, b=1.0, c=1.0):
    # one reference input plus padding so the 4-reference split applies,
    # and a trailing disturbance column for process noise
    b_row = np.array([[b, 0.0, 0.0, 0.0, 1.0]])
    return StateSpace(a=[[a]], b=b_row, c=[[c]], d=np.zeros((1, 5)), dt=None)


@pytest.fixture(scope="module")
def jh_lqg(jh_identified):
    _, model = jh_identified
    return make_lqg(model)


class TestDesignLqr:
    def test_zero_output_weight_gives_zero_gain(self):
        model = scalar_model(a=-1.0)
        k = design_lqr(model, q=np.array([0.0]), r=np.ones(4)).gain
        np.testing.assert_allclose(k, np.zeros((4, 1)), atol=1e-9)

    def test_scalar_quadratic_formula(self):
        model = scalar_model(a=1.0, b=1.0, c=1.0)
        k = design_lqr(model, q=np.array([1.0]), r=np.ones(4)).gain
        assert k[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-9)

    def test_closes_spectral_abscissa(self, jh_identified):
        _, model = jh_identified
        k = design_lqr(model, q=np.array([100.0, 100.0, 10.0, 30.0, 30.0, 30.0]),
                       r=np.ones(4)).gain
        open_abscissa = max(eig_real_parts(model.a))
        closed = max(eig_real_parts(model.a - model.b[:, :4] @ k))
        assert closed < open_abscissa
        assert closed < 0.0

    def test_riccati_homogeneity(self, jh_identified):
        _, model = jh_identified
        q = np.array([100.0, 100.0, 10.0, 30.0, 30.0, 30.0])
        r = np.ones(4)
        k1 = design_lqr(model, q, r).gain
        k2 = design_lqr(model, 7.0 * q, 7.0 * r).gain
        assert np.max(np.abs(k1 - k2)) <= 1e-9 * max(1.0, np.max(np.abs(k1)))

    def test_bad_weights_rejected(self, jh_identified):
        _, model = jh_identified
        with pytest.raises(ControlDesignError):
            design_lqr(model, q=np.array([-1.0] * 6), r=np.ones(4))
        with pytest.raises(ControlDesignError):
            design_lqr(model, q=np.ones(6), r=np.zeros(4))


class TestDesignKalman:
    def test_duality_with_lqr(self):
        rng = np.random.default_rng(21)
        n = 5
        a = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
        c = rng.normal(size=(2, n))
        w_half = rng.normal(size=(n, n))
        w = w_half @ w_half.T
        v = np.diag(rng.uniform(0.5, 2.0, size=2))
        model = StateSpace(a=a, b=np.zeros((n, 4)), c=c, d=np.zeros((2, 4)), dt=None)
        k_f = design_kalman(model, w, v).gain
        # dual regulator: transpose the system, swap weights
        from hvdcfr.numerics import solve_care
        p = solve_care(a.T, c.T, w, v)
        k_dual = np.linalg.solve(v, c @ p)
        np.testing.assert_allclose(k_f, k_dual.T, rtol=1e-8, atol=1e-10)

    def test_distrusted_measurements_shrink_gain(self, jh_identified):
        _, model = jh_identified
        b_w = model.b[:, 4:]
        w = b_w @ b_w.T * 0.01 + 1e-5 * np.eye(model.n_states)
        norms = []
        for scale in (1e-6, 1e-2, 1e2):
            k_f = design_kalman(model, w, scale * np.eye(6)).gain
            norms.append(np.linalg.norm(k_f))
        assert norms[0] > norms[1] > norms[2]

    def test_scalar_noiseless_stable_plant(self):
        model = StateSpace(a=[[-1.0]], b=np.zeros((1, 4)), c=[[1.0]],
                           d=np.zeros((1, 4)), dt=None)
        k_f = design_kalman(model, np.array([[0.0]]), np.array([[1.0]])).gain
        np.testing.assert_allclose(k_f, [[0.0]], atol=1e-10)


    @pytest.mark.parametrize("name", ["w_proc", "v_meas"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_covariance_is_refused_by_its_name(self, name, value):
        model = StateSpace(a=[[-1.0]], b=np.zeros((1, 4)), c=[[1.0]],
                           d=np.zeros((1, 4)), dt=None)
        covs = {"w_proc": np.eye(1), "v_meas": np.eye(1), name: np.array([[value]])}
        with pytest.raises(ControlDesignError,
                           match=f"^estimator Riccati solve failed: {name} contains non-finite"):
            design_kalman(model, **covs)


class TestEstimatorSubstep:
    # a tight measurement covariance gives fast estimator poles, which the
    # RK4 substeps of sampled_system cannot step
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-11, 1e-12])
    def test_pole_too_fast_for_the_substep_is_refused(self, jh_identified, scale):
        ctrl = make_lqg(jh_identified[1], v_meas_scale=scale)  # the design is continuous
        with pytest.raises(PlantError, match=r"^dt=0\.001 s makes the RK4 substep unstable on "
                                             r"the LQG estimator \(spectral radius .* > 1\)"):
            ctrl.sampled_system(0.1)

    def test_fast_pole_inside_the_stability_region_is_kept(self, jh_identified):
        # past the norm bound (so the poles are computed) but still stable
        ctrl = make_lqg(jh_identified[1], v_meas_scale=1e-10)
        a_est = ctrl.model.a - ctrl.k_f @ ctrl.model.c
        assert np.linalg.norm(a_est) * ctrl.substep > 2.5
        phi = ctrl.sampled_system(0.1).a
        assert np.max(np.abs(np.linalg.eigvals(phi))) <= 1.0

    def test_smaller_substep_accepts_the_same_design(self, jh_identified):
        ctrl = make_lqg(jh_identified[1], v_meas_scale=1e-12, substep=1e-5)
        assert np.all(np.isfinite(ctrl.sampled_system(0.1).a))


class TestNoisyModelDesign:
    def test_riccati_at_thirty_three_states(self, jh_plant):
        # noisy-data identification settings with the order fixed at 30
        # realized states, plus the three output integrators
        u, y = collect_jh_data(jh_plant, noise=1e-3, noise_rng=np.random.default_rng(7))
        cfg = IdentifyConfig(integral_outputs=True, energy_threshold=1 - 1e-7,
                             l=40, prefilter_hz=2.0, r_override=30)
        _, model = identify(u, y, cfg)
        assert model.n_states == 33
        ctrl = make_lqg(model)
        b_r = model.b[:, :4]
        q_x = model.c.T @ np.diag(ctrl.q_weights) @ model.c
        r = np.diag(ctrl.r_weights)
        p = solve_care(model.a, b_r, q_x, r)
        assert care_residual(model.a, b_r, q_x, r, p) <= 1e-7 * max(1.0, np.linalg.norm(p, "fro"))
        p_f = solve_care(model.a.T, model.c.T, ctrl.w_proc, ctrl.v_meas)
        assert (care_residual(model.a.T, model.c.T, ctrl.w_proc, ctrl.v_meas, p_f)
                <= 1e-7 * max(1.0, np.linalg.norm(p_f, "fro")))
        assert is_hurwitz(model.a - b_r @ ctrl.k)
        assert is_hurwitz(model.a - ctrl.k_f @ model.c)

    def test_design_takes_at_most_two_spectra_per_riccati_solve(self, jh_plant, monkeypatch):
        # solve_care's own loop gives the diagnostics: one spectrum per
        # accepted iterate, none recomputed by the post-checks or make_lqg
        u, y = collect_jh_data(jh_plant, noise=1e-3, noise_rng=np.random.default_rng(7))
        cfg = IdentifyConfig(integral_outputs=True, energy_threshold=1 - 1e-7,
                             l=40, prefilter_hz=2.0, r_override=30)
        _, model = identify(u, y, cfg)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        make_lqg(model)
        assert 2 <= len(calls) <= 4


class TestDesignDiagnostics:
    def test_residuals_and_abscissae_describe_the_gains(self, jh_lqg):
        model = jh_lqg.model
        b_r = model.b[:, :4]
        q_x = model.c.T @ np.diag(jh_lqg.q_weights) @ model.c
        r = np.diag(jh_lqg.r_weights)
        p = solve_care(model.a, b_r, q_x, r)
        p_f = solve_care(model.a.T, model.c.T, jh_lqg.w_proc, jh_lqg.v_meas)
        # a re-solve may round differently (BLAS results depend on operand
        # alignment), so residuals agree to round-off, not bit for bit
        for got, want, scale in (
                (jh_lqg.regulator_residual, care_residual(model.a, b_r, q_x, r, p), p),
                (jh_lqg.estimator_residual,
                 care_residual(model.a.T, model.c.T, jh_lqg.w_proc, jh_lqg.v_meas, p_f), p_f)):
            assert 0.0 <= got <= 1e-7 * max(1.0, np.linalg.norm(scale, "fro"))
            assert got == pytest.approx(want, abs=1e-10 * np.linalg.norm(scale, "fro"))
        closed = (model.a - b_r @ jh_lqg.k, model.a - jh_lqg.k_f @ model.c)
        assert jh_lqg.regulator_abscissa == pytest.approx(max(eig_real_parts(closed[0])), rel=1e-9)
        assert jh_lqg.estimator_abscissa == pytest.approx(max(eig_real_parts(closed[1])), rel=1e-9)
        assert jh_lqg.regulator_abscissa < 0.0 and jh_lqg.estimator_abscissa < 0.0

    def test_controller_holds_the_design_records(self, jh_identified, monkeypatch):
        records = {}
        for name in ("design_lqr", "design_kalman"):
            def recorded(*args, _name=name, _design=getattr(control, name)):
                records[_name] = _design(*args)
                return records[_name]
            monkeypatch.setattr(control, name, recorded)
        ctrl = make_lqg(jh_identified[1])
        reg, est = records["design_lqr"], records["design_kalman"]
        n = ctrl.model.n_states
        assert reg.gain.shape == (4, n) and est.gain.shape == (n, 6)
        assert ctrl.k is reg.gain and ctrl.k_f is est.gain
        assert (ctrl.regulator_residual, ctrl.regulator_abscissa) == (reg.residual, reg.abscissa)
        assert (ctrl.estimator_residual, ctrl.estimator_abscissa) == (est.residual, est.abscissa)

    def test_gains_are_the_riccati_gains(self, jh_lqg):
        model = jh_lqg.model
        b_r = model.b[:, :4]
        r = np.diag(jh_lqg.r_weights)
        p = solve_care(model.a, b_r, model.c.T @ np.diag(jh_lqg.q_weights) @ model.c, r)
        p_f = solve_care(model.a.T, model.c.T, jh_lqg.w_proc, jh_lqg.v_meas)
        for got, want in ((jh_lqg.k, np.linalg.solve(r, b_r.T @ p)),
                          (jh_lqg.k_f, p_f @ model.c.T @ np.linalg.inv(jh_lqg.v_meas))):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestBadlyScaledDesign:
    # each fails in a different place: the Hamiltonian's Schur reordering
    # (q, r), its count of stable eigenvalues, where those below rounding of
    # its 1e152 norm land on either side (w_proc_floor), and the process
    # variance (sigma_process)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("options, stage", [
        ({"q": [1e300] * 6}, "regulator"),
        ({"w_proc_floor": 1e300}, "estimator"),
        ({"sigma_process": 1e200}, "estimator"),
        ({"r": [1e-250] * 4}, "regulator"),
    ])
    def test_every_riccati_failure_is_a_design_error(self, jh_identified, options, stage):
        with pytest.raises(ControlDesignError, match=f"^{stage} Riccati solve failed: "):
            make_lqg(jh_identified[1], **options)


class TestUnsolvableDesign:
    def test_estimator_stable_only_to_rounding_is_named(self, jh_identified):
        # v_meas_scale = 1e25 lies inside the schema's range, but the
        # estimator's slowest mode only moves to about -1e-15, so its Newton
        # step's Lyapunov operator is singular
        with pytest.raises(ControlDesignError, match=(
                r"^estimator Riccati solve failed: Riccati solution is not stabilizing: its "
                r"closed loop's abscissa -\d\.\d\de-1\d is zero to rounding$")):
            make_lqg(jh_identified[1], v_meas_scale=1e25)


class TestRiccatiPath:
    def test_design_takes_no_scipy_riccati_or_qz_solve(self, jh_identified, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the design called a solver it does not use")

        monkeypatch.setattr(scipy.linalg, "solve_continuous_are", refused)
        monkeypatch.setattr(scipy.linalg, "ordqz", refused)
        ctrl = make_lqg(jh_identified[1])
        assert ctrl.regulator_abscissa < 0.0 and ctrl.estimator_abscissa < 0.0

    def test_barely_stabilized_regulator_solved(self, jh_identified):
        # r = 1e14 leaves the regulator loop's slowest pole near -1.2e-7 and
        # its solution near 4e8: the Schur start and one Newton step still
        # meet the residual bound
        ctrl = make_lqg(jh_identified[1], r=[1e14] * 4)
        assert -1e-6 < ctrl.regulator_abscissa < 0.0


class TestNoiseCovariances:
    def test_controller_rebuilds_the_designed_covariances(self, jh_identified, monkeypatch):
        designed = []
        estimator = control.design_kalman

        def recorded(model, w_proc, v_meas):
            designed.append((w_proc, v_meas))
            return estimator(model, w_proc, v_meas)

        monkeypatch.setattr(control, "design_kalman", recorded)
        ctrl = make_lqg(jh_identified[1], sigma_process=0.2, v_meas_scale=3e-5,
                        w_proc_floor=2e-5)
        (w_proc, v_meas), = designed
        np.testing.assert_array_equal(ctrl.w_proc, w_proc)
        np.testing.assert_array_equal(ctrl.v_meas, v_meas)
        # only the scalars are stored
        assert (ctrl.sigma_process, ctrl.v_meas_scale, ctrl.w_proc_floor) == (0.2, 3e-5, 2e-5)
        assert {"w_proc", "v_meas"}.isdisjoint(f.name for f in dataclasses.fields(ctrl))


class TestLqgStep:
    def test_constant_measurement_converges_to_fixed_point(self, jh_lqg):
        model = jh_lqg.model
        ctrl = jh_lqg.sampled_system(0.1)
        x_hat = np.zeros(model.n_states)
        y = np.array([1e-3, -2e-3, 5e-4, 0.0, 0.0, 0.0])
        for _ in range(600):
            r = ctrl.c @ x_hat
            x_hat = ctrl.a @ x_hat + ctrl.b @ np.concatenate([r, y])
        # fixed point of the estimator under held y and r = -K x_hat
        b_r = model.b[:, :4]
        a_eff = model.a - jh_lqg.k_f @ model.c - b_r @ jh_lqg.k
        x_inf = np.linalg.solve(a_eff, -jh_lqg.k_f @ y)
        np.testing.assert_allclose(x_hat, x_inf, rtol=1e-5, atol=1e-9)
        assert np.all(np.isfinite(r))

    def test_estimator_tracks_plant_outputs(self, jh_plant, jh_lqg):
        # drive plant and estimator with the same reference sequence and
        # feed the estimator the plant's noise-free measurements
        t_s, dur = 0.1, 20.0
        n = int(round(dur / t_s)) + 1
        rng = np.random.default_rng(3)
        from hvdcfr.statespace import rk4_step_matrices, compound_steps
        ss = jh_plant.state_space
        phi, gamma = rk4_step_matrices(ss.a, ss.b, 0.001)
        phi, gamma = compound_steps(phi, gamma, 100)
        # start the estimator from a wrong initial state; the plant runs
        # under slowly held references and the output mismatch must decay
        x = np.zeros(ss.n_states)
        model = jh_lqg.model
        ctrl = jh_lqg.sampled_system(t_s)
        x_hat = 0.05 * rng.normal(size=model.n_states)
        r = np.array([0.02, -0.01, 0.015, -0.02])
        errs = []
        for k in range(n):
            y = ss.c @ x
            y_hat = model.c @ x_hat
            errs.append(np.linalg.norm(y_hat - y))
            x_hat = ctrl.a @ x_hat + ctrl.b @ np.concatenate([r, y])
            x = phi @ x + gamma @ np.concatenate([r, np.zeros(2)])
        assert errs[0] > 1e-2
        assert errs[-1] < 1e-3


class TestPiSfc:
    def test_zero_measurement_zero_command(self):
        assert np.all(PiSfcController().gain @ np.zeros(6) == 0.0)

    def test_inverter_only_never_commands_rectifier_channels(self):
        rng = np.random.default_rng(9)
        ctrl = PiSfcController(inverter_only=True)
        for _ in range(50):
            r = ctrl.gain @ rng.normal(size=6)
            assert r[1] == 0.0 and r[3] == 0.0

    def test_integral_action_grows_linearly(self):
        # constant frequency error: the measured integral channel ramps,
        # so the command magnitude grows linearly in time
        ctrl = PiSfcController()
        eps = 1e-3
        t = np.arange(0.0, 50.0, 0.1)
        commands = []
        for tk in t:
            y = np.array([eps, 0, 0, eps * tk, 0, 0])
            commands.append((ctrl.gain @ y)[2])
        commands = np.abs(np.array(commands))
        slope_first = (commands[100] - commands[50]) / 5.0
        slope_last = (commands[-1] - commands[-51]) / 5.0
        assert slope_last == pytest.approx(slope_first, rel=1e-9)
        assert commands[-1] > commands[100] > commands[50]

    def test_gain_fields_match_defaults(self):
        ctrl = PiSfcController()
        assert (ctrl.kp_hvdc, ctrl.ki_hvdc) == (3.0, 25.0)
        assert (ctrl.kp_gen, ctrl.ki_gen) == (0.8, 0.2)


def test_controllers_are_frozen(jh_lqg):
    for ctrl, name in ((jh_lqg, "substep"), (PiSfcController(), "kp_gen")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctrl, name, 1.0)


class TestClosedLoop:
    def test_zero_disturbance_stays_zero(self, jh_plant, jh_lqg):
        dist = zeros_record(0.1, DISTURBANCE_CHANNELS, 10.0)
        trace = closed_loop(jh_plant, jh_lqg, dist, dt=0.001)
        assert np.max(np.abs(trace.samples)) == 0.0

    def test_nan_disturbance_diverges(self, jh_plant):
        w = np.zeros((51, 2))
        w[10, 0] = np.nan
        dist = SignalRecord(0.1, DISTURBANCE_CHANNELS, w)
        with pytest.raises(SimulationDivergence):
            closed_loop(jh_plant, PiSfcController(), dist, dt=0.001)

    def test_both_designed_loops_hurwitz(self, jh_plant, jh_lqg):
        model = jh_lqg.model
        assert is_hurwitz(model.a - model.b[:, :4] @ jh_lqg.k)
        assert is_hurwitz(model.a - jh_lqg.k_f @ model.c)
        # full interconnection with the truth plant
        ssp = jh_plant.state_space
        top = np.hstack([ssp.a, -ssp.b[:, :4] @ jh_lqg.k])
        bottom = np.hstack([
            jh_lqg.k_f @ ssp.c,
            model.a - jh_lqg.k_f @ model.c - model.b[:, :4] @ jh_lqg.k,
        ])
        assert is_hurwitz(np.vstack([top, bottom]))

    def test_lqg_restores_frequency_after_pulse(self, jh_plant, jh_lqg):
        t_s, dur = 0.1, 60.0
        n = int(round(dur / t_s)) + 1
        w = np.zeros((n, 2))
        w[int(5 / t_s):int(20 / t_s), 0] = 0.3
        dist = SignalRecord(t_s, DISTURBANCE_CHANNELS, w)
        trace = closed_loop(jh_plant, jh_lqg, dist, dt=0.001)
        win = slice(int(15 / t_s), int(20 / t_s))
        assert np.max(np.abs(trace.channel("f_i")[win])) < 1e-3
        assert np.max(np.abs(trace.channel("f_r")[win])) < 1e-3
        # PFC alone would have settled at the droop offset instead
        from hvdcfr.plant import dc_gain
        offset = abs((dc_gain(jh_plant) @ np.array([0, 0, 0, 0, 0.3, 0]))[0])
        assert offset > 0.01

    def test_case3_pi_rectifier_voltage_channel_silent(self, jh_params):
        plant = build_plant(without_rectifier_hvdc_loops(jh_params))
        t_s, dur = 0.1, 30.0
        n = int(round(dur / t_s)) + 1
        w = np.zeros((n, 2))
        w[int(2 / t_s):, 0] = 0.25
        dist = SignalRecord(t_s, DISTURBANCE_CHANNELS, w)
        trace = closed_loop(plant, PiSfcController(inverter_only=True), dist, dt=0.001)
        assert np.max(np.abs(trace.channel("v_dcr_ref"))) == 0.0
        assert np.max(np.abs(trace.channel("p_gr_ref"))) == 0.0

    def test_tenfold_q_stays_stable_and_tightens_outputs(self, jh_plant, jh_identified):
        _, model = jh_identified
        q = np.array([100.0, 100.0, 10.0, 30.0, 30.0, 30.0])
        t_s, dur = 0.1, 60.0
        n = int(round(dur / t_s)) + 1
        w = np.zeros((n, 2))
        w[int(5 / t_s):int(20 / t_s), 0] = 0.3
        dist = SignalRecord(t_s, DISTURBANCE_CHANNELS, w)
        costs = []
        for scale in (1.0, 10.0):
            ctrl = make_lqg(model, q=scale * q)
            trace = closed_loop(jh_plant, ctrl, dist, dt=0.001)
            y = trace.samples[:, :6]
            costs.append(float(np.sum(y**2 @ q) * t_s))
        assert costs[1] <= costs[0]


def pulse_record(t_s=0.1, dur=60.0):
    """0.3 pu load pulses, inverter side at 5-20 s, rectifier side at 30-45 s."""
    n = int(round(dur / t_s)) + 1
    w = np.zeros((n, 2))
    w[int(5 / t_s):int(20 / t_s), 0] = 0.3
    w[int(30 / t_s):int(45 / t_s), 1] = 0.3
    return SignalRecord(t_s, DISTURBANCE_CHANNELS, w)


@pytest.fixture(params=["lqg", "pi"])
def either_controller(request, jh_lqg):
    return jh_lqg if request.param == "lqg" else PiSfcController()


def test_lti_run_matches_per_sample_interconnection(jh_plant, either_controller):
    """The one LTI run equals plant and controller stepped sample by sample,
    the command computed from the current state and held for one sample."""
    dist = pulse_record()
    t_s = dist.t_s
    ss = jh_plant.state_space
    phi, gamma = sample_step_matrices(ss.a, ss.b, t_s, 0.001)
    ctrl = either_controller.sampled_system(t_s)
    x, xi = np.zeros(ss.n_states), np.zeros(ctrl.n_states)
    rows = []
    for w in dist.samples:
        y = ss.c @ x
        r = ctrl.c @ xi + ctrl.d[:, len(REFERENCE_CHANNELS):] @ y
        rows.append(np.concatenate([y, jh_plant.aux_c @ x, r]))
        xi = ctrl.a @ xi + ctrl.b @ np.concatenate([r, y])
        x = phi @ x + gamma @ np.concatenate([r, w])
    reference = np.array(rows)
    lti = closed_loop(jh_plant, either_controller, dist, dt=0.001).samples
    assert np.max(np.abs(reference)) > 0.0
    assert np.max(np.abs(lti - reference)) <= 1e-12 * np.max(np.abs(reference))


def column_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation in each column relative to that column's peak."""
    peak = np.max(np.abs(want), axis=0)
    return float(np.max(np.abs(got - want) / np.where(peak > 0, peak, 1.0)))


class TestInvariance:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_orthogonal_similarity_leaves_loop_unchanged(self, jh_plant, jh_lqg, seed):
        # orthogonal T only: the w_proc_floor * I term is not invariant under a general T
        model = jh_lqg.model
        t, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(model.n_states,) * 2))
        moved = StateSpace(a=t.T @ model.a @ t, b=t.T @ model.b, c=model.c @ t, d=model.d,
                           dt=None)
        dist = pulse_record(dur=30.0)
        want = closed_loop(jh_plant, jh_lqg, dist, dt=0.001).samples
        got = closed_loop(jh_plant, make_lqg(moved), dist, dt=0.001).samples
        assert column_error(got, want) <= 1e-11

    @given(st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3).flatmap(lambda s: st.sampled_from([s, -s])))
    @settings(max_examples=20, deadline=None)
    def test_scaled_disturbance_scales_unclipped_trace(self, jh_plant, jh_lqg, seed, scale):
        w = np.random.default_rng(seed).normal(scale=0.1, size=(301, 2))
        for controller in (jh_lqg, PiSfcController()):
            base = closed_loop(jh_plant, controller, SignalRecord(0.1, DISTURBANCE_CHANNELS, w),
                               dt=0.001).samples
            scaled = closed_loop(jh_plant, controller,
                                 SignalRecord(0.1, DISTURBANCE_CHANNELS, scale * w),
                                 dt=0.001).samples
            assert column_error(scaled, scale * base) <= 1e-12


class TestDivergence:
    def test_sign_flipped_pi_raises_without_warning(self, jh_plant):
        flipped = PiSfcController(kp_hvdc=-3.0, ki_hvdc=-25.0, kp_gen=-0.8, ki_gen=-0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDivergence,
                               match=r"sampled closed loop has spectral radius 1\.562155 > 1"):
                closed_loop(jh_plant, flipped, pulse_record(), dt=0.001)

    def test_spectral_radius_decides_unclipped_stability(self, jh_params):
        # without droops and inertia emulation the case 2 and 3 PI loops have a
        # pole pair at |lambda| = 1.0083 and 1.0057: 60 s would grow it only
        # ~140-fold and ~30-fold, and both are refused before they are stepped
        bare = without_hvdc_droops_and_ire(jh_params)
        for params, inverter_only, rho in ((bare, False, r"1\.008287"),
                                           (without_rectifier_hvdc_loops(bare), True,
                                            r"1\.005672")):
            with pytest.raises(SimulationDivergence, match=rf"spectral radius {rho} > 1"):
                closed_loop(build_plant(params), PiSfcController(inverter_only=inverter_only),
                            pulse_record(), dt=0.001)
        # baseline case 3 leaves the rectifier-side integrators unread: two
        # poles at exactly 1, which count as stable
        plant = build_plant(without_rectifier_hvdc_loops(jh_params))
        trace = closed_loop(plant, PiSfcController(inverter_only=True), pulse_record(),
                            dt=0.001)
        assert np.all(np.isfinite(trace.samples))

    def test_nan_disturbance_raises_at_first_nan_state(self, jh_plant, either_controller):
        w = np.zeros((51, 2))
        w[10, 0] = np.nan  # held over sample 10, so the state is NaN from t = 1.1 s
        dist = SignalRecord(0.1, DISTURBANCE_CHANNELS, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDivergence, match=r"t=1\.100 s"):
                closed_loop(jh_plant, either_controller, dist, dt=0.001)

    def test_unstable_loop_is_refused_before_it_is_stepped(self, jh_plant, jh_lqg):
        # a NaN from sample 10 would be dated t = 1.1 s if the loop were stepped
        w = np.zeros((51, 2))
        w[10, 0] = np.nan
        dist = SignalRecord(0.1, DISTURBANCE_CHANNELS, w)
        flipped_pi = PiSfcController(kp_hvdc=-3.0, ki_hvdc=-25.0, kp_gen=-0.8, ki_gen=-0.2)
        flipped_estimator = dataclasses.replace(jh_lqg, k_f=-jh_lqg.k_f)
        for controller in (flipped_pi, flipped_estimator):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SimulationDivergence,
                                   match=r"^sampled closed loop has spectral radius \S+ > 1$"):
                    closed_loop(jh_plant, controller, dist, dt=0.001)
