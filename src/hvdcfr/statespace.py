"""LTI state-space quadruples and zero-order-hold discretization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, mat_exp
from .signals import sample_count


@dataclass(frozen=True)
class StateSpace:
    """LTI quadruple ``dx = a x + b u, y = c x + d u``.

    ``dt`` is None for continuous-time systems and the sample time in
    seconds otherwise.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    dt: float | None = None

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"state-space matrix {name} has non-finite entries")
            object.__setattr__(self, name, arr)
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise ValueError(f"a must be square, got {self.a.shape}")
        if self.b.shape[0] != n:
            raise ValueError(f"b has {self.b.shape[0]} rows, expected {n}")
        if self.c.shape[1] != n:
            raise ValueError(f"c has {self.c.shape[1]} cols, expected {n}")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise ValueError(f"d has shape {self.d.shape}, expected {(self.c.shape[0], self.b.shape[1])}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive or None, got {self.dt}")

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    @property
    def is_continuous(self) -> bool:
        return self.dt is None


def _generator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[a, b], [0, 0]]: ``dx = a x + b u`` with u held, whose exponential over
    a step is [[phi, gamma], [0, I]] for any ``a`` (Van Loan 1978)."""
    n, m = b.shape
    return np.block([[a, b], [np.zeros((m, n + m))]])


def zoh_step_matrices(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold propagation pair (a_d, b_d) over one step."""
    n = a.shape[0]
    phi = mat_exp(_generator(a, b), dt)
    return phi[:n, :n], phi[:n, n:]


def discretize_zoh(ss: StateSpace, dt: float) -> StateSpace:
    """Zero-order-hold discretization of a continuous-time system."""
    if not ss.is_continuous:
        raise NumericsError("discretize_zoh expects a continuous-time system")
    a_d, b_d = zoh_step_matrices(ss.a, ss.b, dt)
    return StateSpace(a=a_d, b=b_d, c=ss.c.copy(), d=ss.d.copy(), dt=dt)


def rk4_step_matrices(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 one-step pair (phi, gamma) for ``dx = a x + b u`` with u
    held: [[phi, gamma], [0, I]] is exactly the degree-4 Taylor polynomial
    (here by Horner's rule) of the exponential of ``_generator(a, b) dt``."""
    n = a.shape[0]
    gen = _generator(a, b) * dt
    eye = np.eye(len(gen))
    taylor = eye
    for k in (4, 3, 2, 1):
        taylor = eye + (gen / k) @ taylor
    return taylor[:n, :n], taylor[:n, n:]


def rk4_radius(poles: np.ndarray, dt: float) -> float:
    """Spectral radius of the RK4 ``phi`` of ``a`` over one step ``dt``, from the
    eigenvalues ``poles`` of ``a``: phi is a polynomial in ``a``, so its
    eigenvalues are that polynomial at ``dt`` times each pole."""
    z = np.asarray(poles) * dt
    return float(np.max(np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))), initial=0.0))


def compound_steps(phi: np.ndarray, gamma: np.ndarray, n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``n_sub`` identical hold-input steps into a single pair: the
    ``n_sub``-th power of [[phi, gamma], [0, I]], in O(log n_sub) products."""
    n, m = gamma.shape
    folded = np.linalg.matrix_power(np.block([[phi, gamma], [np.zeros((m, n)), np.eye(m)]]), n_sub)
    return folded[:n, :n], folded[:n, n:]


class SimulationDivergence(RuntimeError):
    """State norm exceeded the configured blow-up bound or became NaN."""


def check_divergence(states: np.ndarray, t_s: float, blow_up_bound: float) -> None:
    """Raise ``SimulationDivergence`` dated ``k * t_s`` at the first row k
    of ``states`` that is NaN or has an entry above ``blow_up_bound``."""
    with np.errstate(all="ignore"):
        bad = ~(np.max(np.abs(states), axis=1, initial=0.0) <= blow_up_bound)
    if bad.any():
        raise SimulationDivergence(f"state norm exceeded {blow_up_bound:g} or is NaN "
                                   f"at t={int(np.argmax(bad)) * t_s:.3f} s")


_LIFT = 32  # samples per lifted block of run_lti


def run_lti(a: np.ndarray, b: np.ndarray, u: np.ndarray, t_s: float,
            blow_up_bound: float = math.inf) -> np.ndarray:
    """States of ``x[k+1] = a x[k] + b u[k]`` from rest, one row per sample,
    checked by ``check_divergence`` once the run ends.

    The run is lifted (Bamieh & Pearson, IEEE TAC 1992): the samples form
    nb blocks of q = ``_LIFT``, the last one zero-padded, and three passes
    step every block at once with one matrix product per sample of a block
    instead of one matvec per sample of the record:

    1. the zero-state state at each block's end (q - 1 products by Horner);
    2. the block starts, x_(i+1) = a^q x_i + that state (one matvec each);
    3. every block's states from its start (q - 1 products).

    The input term is one matvec per sample, rounded as ``b @ u[k]``, and
    the first block is stepped by matvecs, so its rows are bit-identical to
    the per-sample recursion; later rows differ from it by rounding only.
    """
    n_samples, n = len(u), a.shape[0]
    q = _LIFT
    nb = max(1, -(-n_samples // q))  # one block even for an empty run
    bu = np.zeros((nb * q, n))
    np.matmul(b, u[:, :, None], out=bu[:n_samples, :, None])  # one matvec per sample
    states = np.zeros_like(bu)
    blk_bu, blk = bu.reshape(nb, q, n), states.reshape(nb, q, n)
    with np.errstate(all="ignore"):  # a diverging run may overflow before the check
        end = blk_bu[:-1, 0].copy()
        for j in range(1, q):
            end = end @ a.T + blk_bu[:-1, j]
        a_q = np.linalg.matrix_power(a, q)
        for i in range(nb - 1):
            blk[i + 1, 0] = a_q @ blk[i, 0] + end[i]
        for j in range(1, q):
            blk[0, j] = a @ blk[0, j - 1] + blk_bu[0, j - 1]
            blk[1:, j] = blk[1:, j - 1] @ a.T + blk_bu[1:, j - 1]
    states = states[:n_samples]
    check_divergence(states, t_s, blow_up_bound)
    return states


def simulate_discrete(ss: StateSpace, u: np.ndarray) -> np.ndarray:
    """Run a discrete-time system from rest over an input sequence.

    ``u`` has shape (n_samples, n_inputs); returns outputs of shape
    (n_samples, n_outputs). A NaN state raises ``SimulationDivergence``.
    """
    if ss.is_continuous:
        raise NumericsError("simulate_discrete expects a discrete-time system")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != ss.n_inputs:
        raise NumericsError(f"input has {u.shape[1]} channels, system expects {ss.n_inputs}")
    return run_lti(ss.a, ss.b, u, ss.dt) @ ss.c.T + u @ ss.d.T


def markov_parameters(ss: StateSpace, count: int) -> list[np.ndarray]:
    """Pulse-response blocks ``[d, c b, c a b, ...]`` (count blocks after d)."""
    blocks = [ss.d.copy()]
    ca = ss.c.copy()
    for _ in range(count):
        blocks.append(ca @ ss.b)
        ca = ca @ ss.a
    return blocks


def step_response(ss: StateSpace, channel: int, duration: float, dt: float,
                  magnitude: float = 1.0) -> np.ndarray:
    """Sampled response of one input channel to a step, other inputs zero.

    Continuous systems are ZOH-discretized at ``dt`` first, so the result
    is exact at the sample instants. Returns (n_samples, n_outputs).
    """
    dss = discretize_zoh(ss, dt) if ss.is_continuous else ss
    u = np.zeros((sample_count(duration, dt), dss.n_inputs))
    u[:, channel] = magnitude
    return simulate_discrete(dss, u)
