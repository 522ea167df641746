import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvdcfr.plant import build_plant, load_preset, sample_step_matrices
from hvdcfr.signals import CSV_BLOCK, SignalRecord, csv_text, zeros_record
from hvdcfr.statespace import (
    SimulationDivergence,
    StateSpace,
    compound_steps,
    discretize_zoh,
    markov_parameters,
    rk4_radius,
    rk4_step_matrices,
    run_lti,
    simulate_discrete,
    step_response,
)

from conftest import random_stable_continuous


class TestStateSpace:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateSpace(a=np.eye(2), b=np.ones((3, 1)), c=np.ones((1, 2)), d=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            StateSpace(a=np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 2)),
                       d=np.zeros((1, 1)), dt=-0.1)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_dt_refused(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            StateSpace(a=np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 2)),
                       d=np.zeros((1, 1)), dt=dt)

    def test_scalar_zoh_matches_closed_form(self):
        a, b, dt = -2.0, 3.0, 0.05
        ss = StateSpace(a=[[a]], b=[[b]], c=[[1.0]], d=[[0.0]])
        dss = discretize_zoh(ss, dt)
        assert dss.a[0, 0] == pytest.approx(np.exp(a * dt), rel=1e-12)
        assert dss.b[0, 0] == pytest.approx((np.exp(a * dt) - 1) / a * b, rel=1e-12)

    def test_zoh_handles_singular_a(self):
        ss = StateSpace(a=[[0.0]], b=[[2.0]], c=[[1.0]], d=[[0.0]])
        dss = discretize_zoh(ss, 0.1)
        assert dss.a[0, 0] == pytest.approx(1.0)
        assert dss.b[0, 0] == pytest.approx(0.2)

    def test_rk4_matrices_match_explicit_stages(self):
        rng = np.random.default_rng(2)
        ss = random_stable_continuous(rng, 4, v=2)
        dt = 0.01
        phi, gamma = rk4_step_matrices(ss.a, ss.b, dt)
        x = rng.normal(size=4)
        u = rng.normal(size=2)

        def deriv(x):
            return ss.a @ x + ss.b @ u

        k1 = deriv(x)
        k2 = deriv(x + 0.5 * dt * k1)
        k3 = deriv(x + 0.5 * dt * k2)
        k4 = deriv(x + dt * k3)
        expected = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(phi @ x + gamma @ u, expected, rtol=1e-12)

    @pytest.mark.parametrize("dt", [0.01, 0.5, 2.0])
    def test_rk4_radius_is_that_of_the_step_matrix(self, dt):
        rng = np.random.default_rng(3)
        ss = random_stable_continuous(rng, 6, v=1)
        phi, _ = rk4_step_matrices(ss.a, ss.b, dt)
        want = np.max(np.abs(np.linalg.eigvals(phi)))
        assert rk4_radius(np.linalg.eigvals(ss.a), dt) == pytest.approx(want, rel=1e-10)

    def test_rk4_radius_of_a_stateless_system_is_zero(self):
        assert rk4_radius(np.zeros(0), 0.1) == 0.0

    def test_compound_steps_equals_repeated_stepping(self):
        rng = np.random.default_rng(4)
        ss = random_stable_continuous(rng, 3, v=1)
        phi, gamma = rk4_step_matrices(ss.a, ss.b, 0.02)
        x = rng.normal(size=3)
        u = rng.normal(size=1)
        for n_sub in (0, 1, 5, 37):
            phi_n, gamma_n = compound_steps(phi, gamma, n_sub)
            x_loop = x.copy()
            for _ in range(n_sub):
                x_loop = phi @ x_loop + gamma @ u
            np.testing.assert_allclose(phi_n @ x + gamma_n @ u, x_loop, rtol=1e-12)

    def test_markov_parameters_definition(self):
        rng = np.random.default_rng(6)
        a = 0.5 * np.eye(2)
        ss = StateSpace(a=a, b=rng.normal(size=(2, 1)), c=rng.normal(size=(1, 2)),
                        d=np.zeros((1, 1)), dt=0.1)
        blocks = markov_parameters(ss, 4)
        np.testing.assert_allclose(blocks[3], ss.c @ np.linalg.matrix_power(a, 2) @ ss.b)

    def test_step_response_matches_discrete_sim(self):
        rng = np.random.default_rng(8)
        ss = random_stable_continuous(rng, 3, v=2, z=2)
        resp = step_response(ss, channel=1, duration=1.0, dt=0.1, magnitude=2.0)
        dss = discretize_zoh(ss, 0.1)
        u = np.zeros((11, 2))
        u[:, 1] = 2.0
        np.testing.assert_allclose(resp, simulate_discrete(dss, u), rtol=1e-12)


class TestRunLti:
    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(5)
        a = 0.3 * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 2))
        u = rng.normal(size=(30, 2))
        x, want = np.zeros(4), []
        for k in range(30):
            want.append(x)
            x = a @ x + b @ u[k]
        np.testing.assert_allclose(run_lti(a, b, u, 0.1), want, rtol=1e-12, atol=1e-15)

    def test_divergence_dated_at_first_non_finite_sample(self):
        # x[k] = 1 + 1e100 + ... + 1e(100 (k - 1)): 1e300 at k = 4, inf at k = 5
        with pytest.raises(SimulationDivergence, match=r"not finite at t=2\.500 s"):
            run_lti(1e100 * np.eye(1), np.ones((1, 1)), np.ones((20, 1)), 0.5)

    def test_overflow_and_nan_raise_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # overflows to inf, then 0 * inf gives NaN, which any bound catches
            with pytest.raises(SimulationDivergence):
                run_lti(1e200 * np.eye(2), np.ones((2, 1)), np.ones((10, 1)), 1.0)
            u = np.zeros((10, 1))
            u[3] = np.nan
            with pytest.raises(SimulationDivergence, match=r"t=0\.400 s"):
                simulate_discrete(StateSpace(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]],
                                             dt=0.1), u)


def reference_run(a, b, u):
    """The per-sample recursion run_lti lifts: x[0] = 0, x[k+1] = a x[k] + b u[k]."""
    x, rows = np.zeros(len(a)), []
    for k in range(len(u)):
        rows.append(x)
        x = a @ x + b @ u[k]
    return np.array(rows).reshape(len(u), len(a))


def lifted_systems():
    """A stable random system, the marginal jh plant (integrators at z = 1)
    and that plant scaled to spectral radius 1.02, each as its pair (a, b)."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    stable = (0.9 / np.max(np.abs(np.linalg.eigvals(a))) * a, rng.normal(size=(5, 2)))
    ss = build_plant(load_preset("jh")).state_space
    phi, gamma = sample_step_matrices(ss.a, ss.b, 0.1, 0.001)
    scaled = 1.02 / np.max(np.abs(np.linalg.eigvals(phi))) * phi
    return {"stable": stable, "jh": (phi, gamma), "jh_rho_1.02": (scaled, gamma)}


class TestLiftedRunLti:
    SYSTEMS = lifted_systems()

    @pytest.mark.parametrize("n_samples", [1, 31, 32, 33, 2001])
    @pytest.mark.parametrize("system", ["stable", "jh", "jh_rho_1.02"])
    def test_matches_per_sample_recursion(self, system, n_samples):
        a, b = self.SYSTEMS[system]
        u = np.random.default_rng(n_samples).uniform(-0.05, 0.05, size=(n_samples, b.shape[1]))
        got, want = run_lti(a, b, u, 0.1), reference_run(a, b, u)
        assert got.shape == want.shape
        # the first block is stepped exactly as the recursion does
        assert np.array_equal(got[:32], want[:32])
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_overflowing_loop_diverges_at_the_reference_sample(self):
        # the jh plant scaled to spectral radius 2 overflows near sample 1000
        a, b = self.SYSTEMS["jh_rho_1.02"]
        a = 2.0 / 1.02 * a
        u = np.random.default_rng(2001).uniform(-0.05, 0.05, size=(2001, b.shape[1]))
        with np.errstate(all="ignore"):
            want = reference_run(a, b, u)
        first = int(np.argmax(~np.isfinite(want).all(axis=1)))
        assert first > 32  # past the first block, so the lifted steps decide it
        with pytest.raises(SimulationDivergence, match=rf"not finite at t={first * 0.1:.3f} s"):
            run_lti(a, b, u, 0.1)


class TestSignalRecord:
    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        """One file each test (and each hypothesis example) writes, then reads."""
        return tmp_path_factory.mktemp("records") / "r.csv"

    @pytest.mark.parametrize("t_s", [np.nan, np.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_sample_time_refused(self, t_s):
        # NaN and inf both pass a bare ``<= 0`` check, and inf then makes ``to_csv``'s times warn
        with pytest.raises(ValueError, match="sample time must be positive and finite"):
            SignalRecord(t_s, ("a",), np.zeros((3, 1)))

    def test_basic_properties(self):
        rec = SignalRecord(0.5, ("a", "b"), np.arange(8.0).reshape(4, 2))
        np.testing.assert_allclose(np.arange(rec.n_samples) * rec.t_s, [0.0, 0.5, 1.0, 1.5])
        np.testing.assert_allclose(rec.channel("b"), [1.0, 3.0, 5.0, 7.0])
        with pytest.raises(KeyError):
            rec.channel("missing")

    def test_select_reorders(self):
        rec = SignalRecord(1.0, ("a", "b", "c"), np.arange(9.0).reshape(3, 3))
        sel = rec.select(["c", "a"])
        assert sel.channels == ("c", "a")
        np.testing.assert_allclose(sel.samples[:, 0], rec.channel("c"))

    @given(st.lists(st.floats(-1e12, 1e12).map(float), min_size=4, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_csv_round_trip(self, csv_path, values):
        n = len(values) // 2
        samples = np.array(values[: 2 * n]).reshape(n, 2)
        rec = SignalRecord(0.125, ("x", "y"), samples)
        rec.to_csv(csv_path)
        back = SignalRecord.from_csv(csv_path)
        assert back.channels == rec.channels
        assert back.t_s == rec.t_s
        np.testing.assert_array_equal(back.samples, rec.samples)

    def test_non_uniform_rejected(self, csv_path):
        csv_path.write_text("time_s,x\n0.0,1.0\n0.1,2.0\n0.3,3.0\n")
        with pytest.raises(ValueError, match="uniform"):
            SignalRecord.from_csv(csv_path)

    def test_non_finite_csv_rejected(self, csv_path):
        csv_path.write_text("time_s,a\n0.0,1.0\n0.1,nan\n0.2,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            SignalRecord.from_csv(csv_path)

    def test_time_column_must_start_at_zero(self, csv_path):
        # uniform steps of 0.1 s, so only the start check tells it from a record at 0 s
        csv_path.write_text("time_s,a\n5.0,1.0\n5.1,2.0\n5.2,3.0\n")
        with pytest.raises(ValueError, match=r"must start at 0, got 5\.0"):
            SignalRecord.from_csv(csv_path)

    def test_zeros_record(self):
        rec = zeros_record(0.1, ("u",), 1.0)
        assert rec.n_samples == 11
        assert np.all(rec.samples == 0.0)


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def numbered_rows(n, ragged_row=None):
    """CSV text of ``n`` rows 0.1 s apart; data row ``ragged_row`` (1-based) has an extra cell."""
    lines = ["time_s,a"]
    for k in range(n):
        lines.append(f"{k * 0.1!r},{k}" + (",1.0" if k + 1 == ragged_row else ""))
    return "\n".join(lines) + "\n"


# inputs the reader refuses, each with the message it gives
BAD_CSV = [
    pytest.param("", "needs a header and at least two samples", id="empty"),
    pytest.param("time_s,a\n0.0,1.0\n", "needs a header and at least two samples",
                 id="one-sample"),
    pytest.param("t,a\n0.0,1.0\n0.1,2.0\n", "first CSV column must be time_s, got 't'",
                 id="header"),
    pytest.param("time_s,a\n0.0,x\n0.1,2.0\n", "could not convert string to float: 'x'",
                 id="not-a-number"),
    pytest.param("time_s,a\n0.0,1.0\n0.1,nan\n0.2,inf\n",
                 "non-finite value in data row 2, column 2", id="non-finite"),
    pytest.param("time_s,a\n0.0,1.0\n0.1,2.0\n0.3,3.0\n", "not uniformly sampled",
                 id="non-uniform"),
    pytest.param("time_s,a\n5.0,1.0\n5.1,2.0\n5.2,3.0\n", "must start at 0, got 5.0",
                 id="late-start"),
    pytest.param("time_s,a,b\n0.0,1.0\n0.1,2.0\n", "1 sample columns for 2 channel names",
                 id="short-rows"),
    pytest.param("time_s,a\n0.0,1.0\n0.1,2.0,3.0\n", "data row 2 has 3 values, the first has 2",
                 id="ragged"),
    pytest.param(numbered_rows(CSV_BLOCK + 9, CSV_BLOCK + 4),
                 f"data row {CSV_BLOCK + 4} has 3 values, the first has 2",
                 id="ragged-in-second-block"),
    pytest.param(numbered_rows(CSV_BLOCK + 9).replace(f",{CSV_BLOCK + 1}\n", ",nan\n"),
                 f"non-finite value in data row {CSV_BLOCK + 2}, column 2",
                 id="non-finite-in-second-block"),
]


class TestCsvBlocks:
    @pytest.mark.parametrize("n", [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK + 7])
    def test_file_bytes_follow_the_one_csv_rule(self, tmp_path, n):
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-9, 9, (n, 3))
        rec = SignalRecord(0.1, ("a", "b", "c"), samples)
        times = np.arange(n) * rec.t_s
        rule = csv_text(("time_s", *rec.channels), np.column_stack([times, rec.samples]).tolist())
        rec.to_csv(tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == rule.encode()

    @pytest.mark.parametrize("text, message", BAD_CSV)
    def test_refused_naming_the_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as refused:
            SignalRecord.from_csv(path)
        assert message in str(refused.value)

    @pytest.mark.parametrize("text", [
        "time_s,a\n0.0,1.0\n0.5,2.0\n1.0,3.0\n",
        "\n  time_s,a\r\n0.0,1.0\r\n\r\n0.5, 2.0\r\n1.0,3.0",
        "time_s,a\r0.0,1.0\r0.5,2.0\r1.0,3.0\r\n\n",
    ])
    def test_blank_lines_and_line_endings_read_alike(self, tmp_path, text):
        path = tmp_path / "ok.csv"
        path.write_bytes(text.encode())
        rec = SignalRecord.from_csv(path)
        assert rec.channels == ("a",) and rec.t_s == 0.5
        np.testing.assert_array_equal(rec.samples[:, 0], [1.0, 2.0, 3.0])

    def test_byte_order_mark_reads_as_the_plain_file(self, tmp_path):
        # spreadsheet exports often start with the UTF-8 byte-order mark
        text = "time_s,a,b\n0.0,1.0,-2.5\n0.1,2.0,0.5\n0.2,3.0,1e-3\n"
        (tmp_path / "plain.csv").write_bytes(text.encode())
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        plain, bom = (SignalRecord.from_csv(tmp_path / f) for f in ("plain.csv", "bom.csv"))
        assert (bom.t_s, bom.channels) == (plain.t_s, plain.channels) == (0.1, ("a", "b"))
        np.testing.assert_array_equal(bom.samples, plain.samples)

    def test_long_record_round_trips_across_blocks(self, tmp_path):
        samples = np.random.default_rng(3).normal(size=(5 * CSV_BLOCK + 3, 2))
        rec = SignalRecord(0.05, ("x", "y"), samples)
        rec.to_csv(tmp_path / "r.csv")
        back = SignalRecord.from_csv(tmp_path / "r.csv")
        assert back.t_s == rec.t_s and back.channels == rec.channels
        np.testing.assert_array_equal(back.samples, rec.samples)

    def test_write_holds_one_block(self, tmp_path):
        # the whole file as Python floats and text would hold ~1.2 KB a row, 25 MB here
        rec = SignalRecord(0.1, tuple(f"c{i}" for i in range(16)),
                           np.random.default_rng(0).normal(size=(20_001, 16)))
        assert traced_peak(rec.to_csv, tmp_path / "r.csv") < 2_000_000

    def test_read_holds_one_block_beside_the_samples(self, tmp_path):
        # every line and Python float of the file at once would hold ~430 B a row, 8.6 MB
        SignalRecord(0.1, ("a", "b", "c"), np.random.default_rng(0).normal(size=(20_001, 3))
                     ).to_csv(tmp_path / "r.csv")
        assert traced_peak(SignalRecord.from_csv, tmp_path / "r.csv") < 2_000_000
