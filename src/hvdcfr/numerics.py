"""Dense linear-algebra kernels used by identification and control design.

Reduced QR, matrix exponential/logarithm, a continuous
algebraic Riccati solver (Schur method on the Hamiltonian) and a digital
Butterworth low-pass filter.
Everything operates on plain numpy arrays and raises ``NumericsError``
with a diagnostic message on failure.

Each kernel imports its ``scipy.linalg`` routines when called: loading
``scipy.linalg`` takes about 0.2 s, most of a fresh ``import hvdcfr``, and
a process that never reaches LAPACK (an open-loop ``simulate``, a PI
``evaluate`` on step events) should not pay it.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np


# LAPACK panel width of reduced_qr's recursive-panel factorization
_QR_PANEL = 32


class NumericsError(RuntimeError):
    """Raised when a kernel cannot deliver its post-condition."""


class _SingularLyapunov(NumericsError):
    """``solve_lyapunov``'s operator has an eigenvalue pair summing to zero."""


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


def reduced_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR ``a = q @ r`` of an m x n matrix, k = min(m, n): ``q``
    (m x k) has orthonormal columns and ``r`` (k x n) is upper triangular.

    Householder QR with recursive panels and level-3 block updates (LAPACK
    ``dgeqrt``; Elmroth & Gustavson, IBM J. Res. Dev. 2000); ``q`` is the
    compact-WY product applied to the first k columns of the identity
    (``dgemqrt``). A non-finite entry is a ``NumericsError``.
    """
    from scipy.linalg.lapack import dgemqrt, dgeqrt

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


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``expm(a * t)`` (Pade scaling-and-squaring)."""
    from scipy.linalg import expm

    a = _as_square(a)
    out = expm(a * t)
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


def is_hurwitz(a) -> bool:
    """True when all eigenvalue real parts are negative."""
    return bool(np.all(eig_real_parts(a) < 0.0))


def solve_lyapunov(a, c) -> np.ndarray:
    """Solve ``a.T @ p + p @ a + c = 0`` by the Bartels-Stewart method.

    Raises ``NumericsError`` when ``a`` has an eigenvalue pair summing to
    zero: the equation then has no unique solution.
    """
    from scipy.linalg import solve_continuous_lyapunov

    a = _as_square(a)
    c = _as_square(c, "c")
    n = a.shape[0]
    if c.shape[0] != n:
        raise NumericsError(f"dimension mismatch: a is {n}x{n}, c is {c.shape[0]}x{c.shape[1]}")
    with warnings.catch_warnings():
        # scipy perturbs a singular operator and only warns
        warnings.filterwarnings("error", message=".*eigenvalue pair", category=RuntimeWarning)
        try:
            p = solve_continuous_lyapunov(a.T, -c)
        except RuntimeWarning as exc:
            raise _SingularLyapunov("Lyapunov operator is singular (eigenvalue pair summing to zero)") from exc
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


def _hamiltonian_schur_care(a, b, q, r) -> np.ndarray:
    """Laub's Schur-method solution (IEEE TAC 1979): ``p = U21 U11^-1``
    from the basis ``U`` of the stable invariant subspace of the
    Hamiltonian ``[[a, -b r^-1 b.T], [-q, -a.T]]``, taken from its real
    Schur form ordered left half-plane first (LAPACK ``dgees``/``dtrsen``).

    The Hamiltonian is first scaled by the symplectic ``diag(d, 1/d)``,
    ``d`` the square root of the ratio of the costate to the state factors
    that balancing its off-diagonal magnitudes gives (``dgebal``), the
    scaling scipy imposes on its extended pencil but not rounded to a power
    of two: rounded, a regulator on the identified jh model with r = 1e14
    (slowest closed-loop pole -1.2e-7) misses its residual bound after the
    Newton step, unrounded it meets it."""
    from scipy.linalg import matrix_balance, schur

    n = a.shape[0]
    h = np.block([[a, -b @ np.linalg.solve(r, b.T)], [-q, -a.T]])
    if not np.all(np.isfinite(h)):
        raise NumericsError("Hamiltonian matrix has non-finite entries (the weights overflow)")
    mag = np.abs(h)
    np.fill_diagonal(mag, 0.0)
    _, (scale, _) = matrix_balance(mag, permute=False, separate=True)
    s = np.sqrt(scale[n:] / scale[:n])
    d = np.concatenate([s, 1.0 / s])
    try:
        _, u, stable = schur(h * d[:, None] / d, sort="lhp")
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"could not order the Hamiltonian's Schur form ({exc})") from exc
    if stable != n:
        raise NumericsError(
            f"Hamiltonian has {stable} of its {2 * n} eigenvalues in the open left half-plane "
            f"where {n} are needed: one lies on the imaginary axis (to rounding), from a mode "
            "on it that (a, b) cannot control or q does not observe")
    u11 = u[:n, :n]
    if not np.linalg.cond(u11) < 1.0 / np.finfo(float).eps:  # NaN fails too
        raise NumericsError("could not stabilize the pair (a, b): system appears not stabilizable "
                            "(the stable subspace's first block is singular)")
    p = np.linalg.solve(u11.T, u[n:, :n].T).T * s[:, None] * s
    return 0.5 * (p + p.T)


def _not_stabilizing(a, b, q, sol: CareSolution, how: str) -> NumericsError:
    """Refusal of ``sol``, whose closed loop ``a - b gain`` is not Hurwitz, naming
    the cause the PBH rank tests (Hautus 1969) find at its rightmost mode s:
    rank [a - sI, b] < n (b cannot reach it) or rank [a - sI; q] < n."""
    poles = np.linalg.eigvals(a - b @ sol.gain)
    s = poles[np.argmax(poles.real)]
    shifted = a - s * np.eye(len(a))
    msg = f"Riccati solution is not stabilizing: its closed loop's abscissa {sol.abscissa:.2e} "
    for pencil, cause in ((np.hstack([shifted, b]), "(a, b) cannot reach it: not stabilizable"),
                          (np.vstack([shifted, q]), "q does not observe it: not detectable")):
        sv = np.linalg.svd(pencil, compute_uv=False)
        if sv[-1] <= 1e-8 * sv[0]:
            return NumericsError(f"{msg}{how}, at the mode {s:.4g}; {cause}")
    return NumericsError(msg + how)


def solve_care(a, b, q, r, *, full_output: bool = False):
    """Stabilizing solution of ``a.T p + p a + q - p b r^-1 b.T p = 0``.

    Schur-method solution from the 2n x 2n Hamiltonian
    (``_hamiltonian_schur_care``; ``r`` is positive definite here, so the
    extended pencil that a singular ``r`` needs is not formed), then one
    Kleinman-Newton step (a Lyapunov solve on its closed loop, when that
    loop is Hurwitz), kept only if its own closed loop is Hurwitz and its
    residual is lower. With ``full_output`` the ``CareSolution`` gives the
    gain and the diagnostics the solve computed.

    The Schur solution alone can miss badly: on one random 10-state,
    1-input system of the test suite its residual is 6.9e3 against a bound
    of 7.3e2 (1e-7 of the solution's norm), and the step brings it to 1.4.
    On the identified jh model both starts are at round-off already
    (residuals 1.7e-12 regulator, 6.7e-16 estimator) and the step is not
    kept.
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

    # a badly scaled problem can overflow anywhere below (the Hamiltonian,
    # the residual's norm): no warning escapes, and what overflowed fails a
    # check by name
    with np.errstate(all="ignore"):
        p = _hamiltonian_schur_care(a, b, q_sym, r)
        sol = _care_candidate(a, b, q, r, p)
        if sol.abscissa < 0.0:
            k = sol.gain
            try:
                p_step = solve_lyapunov(a - b @ k, q_sym + k.T @ r @ k)
            except _SingularLyapunov:  # a mode of the loop is at 0 to rounding
                raise _not_stabilizing(a, b, q_sym, sol, "is zero to rounding") from None
            step = _care_candidate(a, b, q, r, p_step)
            if step.abscissa < 0.0 and step.residual < sol.residual:
                sol = step

        if not sol.residual <= 1e-7 * max(1.0, np.linalg.norm(sol.p, "fro")):
            raise NumericsError(
                f"Riccati solve did not converge: residual {sol.residual:.3e} is above its bound"
            )
    if not sol.abscissa < 0.0:
        raise _not_stabilizing(a, b, q_sym, sol, "is not negative")
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
    from scipy.linalg.lapack import dtbtrs

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
        y, info = dtbtrs(ab, rhs, uplo="L")
        if info != 0:
            raise NumericsError(f"banded filter solve failed (LAPACK info {info})")
    return y
