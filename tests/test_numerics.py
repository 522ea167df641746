import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hvdcfr import numerics
from hvdcfr.numerics import (
    NumericsError,
    butter_lowpass_filter,
    care_residual,
    eig_real_parts,
    is_hurwitz,
    mat_exp,
    mat_log_principal,
    solve_care,
    solve_lyapunov,
    svd,
)


def frob(a):
    return np.linalg.norm(a, "fro")


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        np.testing.assert_allclose(res.singular_values, [1.0, 1.0, 1.0], atol=1e-14)

    def test_shuffled_diagonal_spectrum(self):
        a = np.diag([3.0, 2.0, 1.0])[[2, 0, 1]]
        np.testing.assert_allclose(svd(a).singular_values, [3.0, 2.0, 1.0], atol=1e-12)

    def test_random_reconstruction_and_eig_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 5))
        res = svd(a)
        assert frob(res.reconstruct() - a) <= 1e-9 * max(1.0, frob(a))
        # oracle: singular values are square roots of eigenvalues of a.T a
        # from an independent symmetric eigensolver
        expected = np.sqrt(np.sort(np.linalg.eigvalsh(a.T @ a))[::-1])
        np.testing.assert_allclose(res.singular_values, expected, atol=1e-10)

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_orthonormality_and_order(self, m, n, seed):
        a = np.random.default_rng(seed).normal(size=(m, n))
        res = svd(a)
        assert frob(res.left.T @ res.left - np.eye(res.left.shape[1])) <= 1e-9
        assert frob(res.right.T @ res.right - np.eye(res.right.shape[1])) <= 1e-9
        assert np.all(np.diff(res.singular_values) <= 1e-12)
        assert np.all(res.singular_values >= 0)
        assert frob(res.reconstruct() - a) <= 1e-9 * max(1.0, frob(a))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericsError):
            svd(np.array([[1.0, np.nan]]))


class TestMatExp:
    def test_zero_matrix(self):
        np.testing.assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        out = mat_exp(np.diag([-1.0, -2.0]), t=1.0)
        np.testing.assert_allclose(out, np.diag([np.exp(-1), np.exp(-2)]), rtol=1e-12)

    def test_against_taylor_series(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        a -= (max(np.linalg.eigvals(a).real) + 1.0) * np.eye(4)
        t = 0.01
        term = np.eye(4)
        total = np.eye(4)
        for k in range(1, 21):
            term = term @ (a * t) / k
            total = total + term
        np.testing.assert_allclose(mat_exp(a, t), total, atol=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_semigroup(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        s, t = rng.uniform(0.05, 0.8, size=2)
        lhs = mat_exp(a, s) @ mat_exp(a, t)
        rhs = mat_exp(a, s + t)
        assert frob(lhs - rhs) <= 1e-8 * max(1.0, frob(rhs))


class TestMatLog:
    def test_identity(self):
        np.testing.assert_allclose(mat_log_principal(np.eye(4)), np.zeros((4, 4)), atol=1e-12)

    def test_diagonal(self):
        out = mat_log_principal(np.diag([np.exp(-1), np.exp(-2)]))
        np.testing.assert_allclose(out, np.diag([-1.0, -2.0]), rtol=1e-10)

    def test_round_trip_recovers_scaled_generator(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        a -= (max(np.linalg.eigvals(a).real) + 1.0) * np.eye(4)
        recovered = mat_log_principal(mat_exp(a, 0.05))
        assert frob(recovered - 0.05 * a) <= 1e-7 * max(1.0, frob(0.05 * a))

    def test_exp_of_log_reconstructs(self):
        rng = np.random.default_rng(8)
        a = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        if np.any(np.linalg.eigvals(a).real <= 0):
            a = a @ a.T + 0.5 * np.eye(3)
        back = mat_exp(mat_log_principal(a), 1.0)
        assert frob(back - a) <= 1e-7 * max(1.0, frob(a))

    def test_negative_real_axis_rejected(self):
        with pytest.raises(NumericsError, match="T_s"):
            mat_log_principal(np.diag([-1.0, 2.0]))
        with pytest.raises(NumericsError, match="T_s"):
            mat_log_principal(np.diag([0.0, 1.0]))

    def test_defective_matrix_rejected(self):
        # a Jordan block has one eigenvector: no logarithm from the eigenpairs
        with pytest.raises(NumericsError, match="condition"):
            mat_log_principal(np.array([[0.9, 1.0], [0.0, 0.9]]))


class TestEig:
    def test_diagonal(self):
        assert sorted(eig_real_parts(np.diag([-1.0, -3.0]))) == [-3.0, -1.0]

    def test_rotation_pair(self):
        np.testing.assert_allclose(eig_real_parts(np.array([[0.0, 1.0], [-1.0, 0.0]])),
                                   [0.0, 0.0], atol=1e-14)

    def test_companion_of_known_polynomial(self):
        # (s+1)(s+2)(s+5) = s^3 + 8 s^2 + 17 s + 10
        comp = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-10.0, -17.0, -8.0]])
        np.testing.assert_allclose(sorted(eig_real_parts(comp)), [-5.0, -2.0, -1.0], atol=1e-9)


class TestLyapunov:
    def test_known_scalar(self):
        # a p + p a + c = 0 with a=-2, c=4 -> p = 1
        p = solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
        np.testing.assert_allclose(p, [[1.0]])

    def test_residual_random(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(5, 5)) - 3.0 * np.eye(5)
        c = rng.normal(size=(5, 5))
        c = c @ c.T
        p = solve_lyapunov(a, c)
        assert frob(a.T @ p + p @ a + c) <= 1e-9 * max(1.0, frob(p))

    @pytest.mark.parametrize("a", [np.diag([1.0, -1.0]), np.zeros((2, 2))])
    def test_singular_operator_rejected(self, a):
        # an eigenvalue pair summing to zero leaves no unique solution
        with pytest.raises(NumericsError, match="singular"):
            solve_lyapunov(a, np.eye(2))


def random_stabilizable(rng, n, m):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, m))
    # controllable almost surely, hence stabilizable
    return a, b


class TestCare:
    def test_scalar_already_optimal(self):
        p = solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                       np.array([[0.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(p, [[0.0]], atol=1e-12)

    def test_scalar_quadratic_formula(self):
        # 2 a p + q - p^2 / r = 0, a=b=q=r=1 -> p = 1 + sqrt(2)
        p = solve_care(np.array([[1.0]]), np.array([[1.0]]),
                       np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(p, [[1.0 + np.sqrt(2.0)]], rtol=1e-10)

    def test_random_six_state(self):
        rng = np.random.default_rng(17)
        a, b = random_stabilizable(rng, 6, 2)
        q = np.eye(6)
        r = np.eye(2)
        p = solve_care(a, b, q, r)
        assert care_residual(a, b, q, r, p) <= 1e-7 * max(1.0, frob(p))
        assert is_hurwitz(a - b @ np.linalg.solve(r, b.T @ p))
        assert np.all(np.linalg.eigvalsh(p) >= -1e-10)

    def test_hundred_random_systems(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, 4))
            a, b = random_stabilizable(rng, n, m)
            q_half = rng.normal(size=(n, n))
            q = q_half @ q_half.T
            r = np.diag(rng.uniform(0.5, 2.0, size=m))
            p = solve_care(a, b, q, r)
            assert care_residual(a, b, q, r, p) <= 1e-7 * max(1.0, frob(p))
            assert is_hurwitz(a - b @ np.linalg.solve(r, b.T @ p))

    def test_marginal_integrator_pair(self):
        # pure integrators stabilized through a wide input matrix, the
        # same structure the identified models carry
        a = np.zeros((3, 3))
        b = np.array([[1.0, 0.0, 0.5, 0.2],
                      [0.0, 1.0, 0.3, 0.1],
                      [0.2, 0.1, 1.0, 0.4]])
        p = solve_care(a, b, np.eye(3), np.eye(4))
        assert care_residual(a, b, np.eye(3), np.eye(4), p) <= 1e-7 * max(1.0, frob(p))

    def test_not_stabilizable_rejected(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0], [0.0]])
        with pytest.raises(NumericsError, match="stabiliz"):
            solve_care(a, b, np.eye(2), np.eye(1))

    def test_indefinite_q_rejected(self):
        with pytest.raises(NumericsError, match="semidefinite"):
            solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                       np.array([[-1.0]]), np.array([[1.0]]))


def care_test_systems():
    """The systems TestCare solves: scalar, six-state, 100 random, integrators."""
    yield np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]])
    yield np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
    a, b = random_stabilizable(np.random.default_rng(17), 6, 2)
    yield a, b, np.eye(6), np.eye(2)
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 4))
        a, b = random_stabilizable(rng, n, m)
        q_half = rng.normal(size=(n, n))
        yield a, b, q_half @ q_half.T, np.diag(rng.uniform(0.5, 2.0, size=m))
    b = np.array([[1.0, 0.0, 0.5, 0.2], [0.0, 1.0, 0.3, 0.1], [0.2, 0.1, 1.0, 0.4]])
    yield np.zeros((3, 3)), b, np.eye(3), np.eye(4)


def test_newton_refinement_stops_at_the_residual_floor(monkeypatch):
    # the Schur solution is at or near round-off, so refinement should
    # stop after a step or two, never ending worse than where it started
    counts = []

    def counted(a, c):
        counts[-1] += 1
        return solve_lyapunov(a, c)

    monkeypatch.setattr(numerics, "solve_lyapunov", counted)
    for a, b, q, r in care_test_systems():
        counts.append(0)
        p = solve_care(a, b, q, r)
        p_schur = scipy.linalg.solve_continuous_are(a, b, q, r)
        assert care_residual(a, b, q, r, p) <= care_residual(a, b, q, r, p_schur)
    assert max(counts) <= numerics.NEWTON_STEPS
    assert sum(counts) < 3 * len(counts)


class TestButterLowpass:
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("wn", [0.01, 0.4, 0.9])
    def test_matches_scipy_butter_sosfilt(self, order, wn):
        import scipy.signal

        x = np.random.default_rng(order).normal(size=(2001, 4))
        ref = scipy.signal.sosfilt(scipy.signal.butter(order, wn, output="sos"), x, axis=0)
        got = butter_lowpass_filter(x, order, wn)
        assert got.shape == x.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("wn", [0.0, 1.0, -0.1, float("nan"), float("inf")])
    def test_cutoff_outside_unit_interval_rejected(self, wn):
        with pytest.raises(NumericsError, match="cutoff"):
            butter_lowpass_filter(np.ones((10, 2)), 2, wn)

    def test_bad_order_and_input_rejected(self):
        with pytest.raises(NumericsError, match="order"):
            butter_lowpass_filter(np.ones((10, 2)), 0, 0.5)
        with pytest.raises(NumericsError, match="2-D"):
            butter_lowpass_filter(np.ones(10), 2, 0.5)
        with pytest.raises(NumericsError, match="non-finite"):
            butter_lowpass_filter(np.full((10, 2), np.nan), 2, 0.5)
