"""Dense linear-algebra kernels used by identification and control design.

Reduced QR, SVD, matrix exponential/logarithm, a continuous
algebraic Riccati solver and a digital Butterworth low-pass filter.
Everything operates on plain numpy arrays and raises ``NumericsError``
with a diagnostic message on failure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgemqrt, dgeqrt


# LAPACK panel width of reduced_qr's recursive-panel factorization
_QR_PANEL = 32


class NumericsError(RuntimeError):
    """Raised when a kernel cannot deliver its post-condition."""


def _as_matrix(a, name: str = "a") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise NumericsError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericsError(f"{name} contains non-finite entries")
    return a


def _as_square(a, name: str = "a") -> np.ndarray:
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise NumericsError(f"{name} must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = left @ diag(singular_values) @ right.T``.

    ``left`` and ``right`` have orthonormal columns; singular values are
    non-negative and sorted descending.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.T


def reduced_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR ``a = q @ r`` of an m x n matrix, k = min(m, n): ``q``
    (m x k) has orthonormal columns and ``r`` (k x n) is upper triangular.

    Householder QR with recursive panels and level-3 block updates (LAPACK
    ``dgeqrt``; Elmroth & Gustavson, IBM J. Res. Dev. 2000); ``q`` is the
    compact-WY product applied to the first k columns of the identity
    (``dgemqrt``). A non-finite entry is a ``NumericsError``.
    """
    a = _as_matrix(a)
    m, n = a.shape
    k = min(m, n)
    v, t, info = dgeqrt(min(_QR_PANEL, k), a)
    if info != 0:
        raise NumericsError(f"QR of a {m}x{n} matrix failed (info={info})")
    q, info = dgemqrt(v[:, :k], t, np.eye(m, k, order="F"), overwrite_c=True)
    if info != 0:
        raise NumericsError(f"forming Q of a {m}x{n} matrix failed (info={info})")
    return q, np.triu(v[:k])


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a real matrix.

    A tall input (more rows than columns) is first reduced by
    ``reduced_qr``, so the SVD runs on its square triangle and the left
    vectors are ``q`` times the triangle's.
    """
    a = _as_matrix(a)
    m, n = a.shape
    q = None
    if m > n:
        q, a = reduced_qr(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"SVD failed to converge on a {m}x{n} matrix") from exc
    return SvdResult(left=u if q is None else q @ u, singular_values=s, right=vt.T)


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``expm(a * t)`` (Pade scaling-and-squaring)."""
    a = _as_square(a)
    out = scipy.linalg.expm(a * t)
    if not np.all(np.isfinite(out)):
        raise NumericsError(
            f"matrix exponential overflowed for a {a.shape[0]}x{a.shape[0]} matrix with ||a*t||={np.linalg.norm(a) * abs(t):.3e}"
        )
    return out


def mat_log_principal(a) -> np.ndarray:
    """Principal matrix logarithm ``Re(V diag(log λ) V⁻¹)`` of a real
    square matrix from one eigendecomposition.

    Requires every eigenvalue off the closed negative real axis (and
    nonzero), else the caller should shrink its sample time, and an
    eigenvector matrix with condition at most 1e8 (not near-defective).
    """
    a = _as_square(a)
    eigs, vecs = np.linalg.eig(a)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    bad = (eigs.real <= 0.0) & (np.abs(eigs.imag) <= 1e-12 * scale)
    if np.any(bad):
        raise NumericsError(
            "matrix has an eigenvalue on the closed negative real axis "
            f"({eigs[bad][0]:.6g}); no principal logarithm - reduce the sample time T_s"
        )
    if not (cond := np.linalg.cond(vecs)) <= 1e8:  # NaN fails too
        raise NumericsError(f"eigenvector matrix condition {cond:.3g} is above 1e8")
    # X V = V diag(log λ), solved for X as V^T X^T = (V diag(log λ))^T
    out = np.linalg.solve(vecs.T, (vecs * np.log(eigs)).T).T
    if np.linalg.norm(np.imag(out)) > 1e-8 * max(1.0, np.linalg.norm(np.real(out))):
        raise NumericsError("matrix logarithm returned a significantly complex result")
    return np.real(out)


def eig_real_parts(a) -> np.ndarray:
    """Real parts of all eigenvalues (unordered)."""
    a = _as_square(a)
    try:
        return np.real(np.linalg.eigvals(a))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigenvalue iteration failed on a {a.shape[0]}x{a.shape[0]} matrix") from exc


def is_hurwitz(a, margin: float = 0.0) -> bool:
    """True when all eigenvalue real parts are below ``-margin``."""
    return bool(np.all(eig_real_parts(a) < -margin))


def solve_lyapunov(a, c) -> np.ndarray:
    """Solve ``a.T @ p + p @ a + c = 0`` by the Bartels-Stewart method.

    Raises ``NumericsError`` when ``a`` has an eigenvalue pair summing to
    zero: the equation then has no unique solution.
    """
    a = _as_square(a)
    c = _as_square(c, "c")
    n = a.shape[0]
    if c.shape[0] != n:
        raise NumericsError(f"dimension mismatch: a is {n}x{n}, c is {c.shape[0]}x{c.shape[1]}")
    with warnings.catch_warnings():
        # scipy perturbs a singular operator and only warns
        warnings.filterwarnings("error", message=".*eigenvalue pair", category=RuntimeWarning)
        try:
            p = scipy.linalg.solve_continuous_lyapunov(a.T, -c)
        except RuntimeWarning as exc:
            raise NumericsError("Lyapunov operator is singular (eigenvalue pair summing to zero)") from exc
    return 0.5 * (p + p.T)


def care_residual(a, b, q, r, p) -> float:
    """Frobenius norm of ``a.T p + p a + q - p b r^-1 b.T p``."""
    rinv_bt_p = np.linalg.solve(r, b.T @ p)
    res = a.T @ p + p @ a + q - p @ b @ rinv_bt_p
    return float(np.linalg.norm(res, "fro"))


class CareSolution(NamedTuple):
    """A Riccati solution ``p``, its gain ``r^-1 b.T p``, the Frobenius
    ``residual`` of the equation with ``q`` as the caller gave it (the solve
    uses its symmetric part) and ``abscissa``, the largest eigenvalue real
    part of ``a - b gain``."""

    p: np.ndarray
    gain: np.ndarray
    residual: float
    abscissa: float


def _care_candidate(a, b, q, r, p) -> CareSolution:
    """``p`` with its gain, residual and closed-loop abscissa."""
    gain = np.linalg.solve(r, b.T @ p)
    return CareSolution(p, gain, care_residual(a, b, q, r, p),
                        float(np.max(eig_real_parts(a - b @ gain))))


def solve_care(a, b, q, r, *, full_output: bool = False):
    """Stabilizing solution of ``a.T p + p a + q - p b r^-1 b.T p = 0``.

    Schur-method solution (scipy), then one Kleinman-Newton step (a
    Lyapunov solve on its closed loop, when that loop is Hurwitz), kept
    only if its own closed loop is Hurwitz and its residual is lower.
    With ``full_output`` the ``CareSolution`` gives the gain and the
    diagnostics the solve computed.

    The Schur solution alone can miss badly: on one random 10-state,
    1-input system of the test suite its residual is 4.4e3 against a bound
    of 7.3e2 (1e-7 of the solution's norm), and the step brings it to
    0.096. Where it does not miss, the step still takes the residual to
    round-off (2.4e-13 to 1.1e-15 on the identified jh model's estimator):
    without it, LQG loops designed on orthogonally similar jh models
    differed by up to 9.2e-12 of a trace column's peak, against 7.7e-13.
    """
    a = _as_square(a)
    b = _as_matrix(b, "b")
    q = _as_square(q, "q")
    r = _as_square(r, "r")
    n, m = b.shape
    if a.shape[0] != n or q.shape[0] != n or r.shape[0] != m:
        raise NumericsError(
            f"dimension mismatch: a {a.shape}, b {b.shape}, q {q.shape}, r {r.shape}"
        )
    q_sym = 0.5 * (q + q.T)
    r = 0.5 * (r + r.T)
    q_eigs = np.linalg.eigvalsh(q_sym)
    r_eigs = np.linalg.eigvalsh(r)
    if q_eigs.min() < -1e-10 * max(1.0, abs(q_eigs.max())):
        raise NumericsError(f"q must be positive semidefinite (min eigenvalue {q_eigs.min():.3e})")
    if r_eigs.min() <= 0.0:
        raise NumericsError(f"r must be positive definite (min eigenvalue {r_eigs.min():.3e})")

    # a badly scaled problem can overflow anywhere below (scipy's cast of the
    # pencil, the residual's norm): no warning escapes, and what overflowed
    # fails a check by name
    with np.errstate(all="ignore"):
        try:
            p = scipy.linalg.solve_continuous_are(a, b, q_sym, r)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(
                f"could not stabilize the pair (a, b): system appears not stabilizable ({exc})"
            ) from exc
        except ValueError as exc:  # the pencil's Schur reordering failed
            raise NumericsError(f"could not order the Hamiltonian pencil's Schur form ({exc})") from exc
        sol = _care_candidate(a, b, q, r, p)
        if sol.abscissa < 0.0:
            k = sol.gain
            step = _care_candidate(a, b, q, r, solve_lyapunov(a - b @ k, q_sym + k.T @ r @ k))
            if step.abscissa < 0.0 and step.residual < sol.residual:
                sol = step

        if not sol.residual <= 1e-7 * max(1.0, np.linalg.norm(sol.p, "fro")):
            raise NumericsError(
                f"Riccati solve did not converge: residual {sol.residual:.3e} is above its bound"
            )
    if not sol.abscissa < 0.0:
        raise NumericsError("Riccati solution is not stabilizing (detectability of (a, q) may fail)")
    return sol if full_output else sol.p


def butter_lowpass_filter(x, order: int, wn: float) -> np.ndarray:
    """Digital Butterworth low-pass of each column of ``x``, from rest.

    ``wn`` is the cutoff as a fraction of the Nyquist frequency, in
    (0, 1). The analog prototype's poles are prewarped to
    ``4 tan(pi wn / 2)`` and mapped by the bilinear transform
    ``z = (4 + s) / (4 - s)``, all zeros at z = -1 and unit gain at DC
    (Oppenheim & Schafer, Discrete-Time Signal Processing, 7.1). This is
    the design of ``scipy.signal.butter``. Each second-order section (one
    per conjugate pole pair, a first-order one for the real pole of an
    odd order) runs over every column at once as a lower-triangular
    banded solve.
    """
    if not (isinstance(order, int) and order >= 1):
        raise NumericsError(f"filter order must be a positive integer, got {order!r}")
    if not 0.0 < wn < 1.0:
        raise NumericsError(f"normalized cutoff must lie in (0, 1), got {wn}")
    y = _as_matrix(x, "x")
    n = y.shape[0]
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    m = np.arange(1 - order, order, 2)
    analog = -warped * np.exp(1j * np.pi * m / (2 * order))
    gain = warped ** order / np.real(np.prod(4.0 - analog))
    # one pole per section, m = 0 (the real pole of an odd order) first:
    # farthest from the unit circle first, which is scipy's section order
    for i, s in enumerate(analog[m >= 0]):
        pole = (4.0 + s) / (4.0 - s)
        if s.imag == 0.0:
            b, a = np.array([1.0, 1.0]), np.array([1.0, -pole.real])
        else:
            b, a = np.array([1.0, 2.0, 1.0]), np.array([1.0, -2.0 * pole.real, abs(pole) ** 2])
        if i == 0:
            b = gain * b
        rhs = b[0] * y
        for lag in range(1, len(b)):
            rhs[lag:] += b[lag] * y[:-lag]
        ab = np.repeat(a[:, None], n, axis=1)
        y, info = scipy.linalg.lapack.dtbtrs(ab, rhs, uplo="L")
        if info != 0:
            raise NumericsError(f"banded filter solve failed (LAPACK info {info})")
    return y
