"""LTI state-space quadruples and zero-order-hold discretization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, mat_exp


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


def zoh_step_matrices(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold propagation pair (a_d, b_d) over one step.

    Computed from the exponential of the augmented matrix [[a, b], [0, 0]],
    which stays valid for singular ``a``.
    """
    n, m = b.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    phi = mat_exp(aug, dt)
    return phi[:n, :n], phi[:n, n:]


def discretize_zoh(ss: StateSpace, dt: float) -> StateSpace:
    """Zero-order-hold discretization of a continuous-time system."""
    if not ss.is_continuous:
        raise NumericsError("discretize_zoh expects a continuous-time system")
    a_d, b_d = zoh_step_matrices(ss.a, ss.b, dt)
    return StateSpace(a=a_d, b=b_d, c=ss.c.copy(), d=ss.d.copy(), dt=dt)


def rk4_step_matrices(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 one-step propagation pair for an LTI system with
    the input held constant over the step.

    For ``dx = a x + b u`` with constant u, one RK4 step is exactly
    ``x+ = phi x + gamma u`` with phi the degree-4 Taylor polynomial of
    ``expm(a dt)``.
    """
    n = a.shape[0]
    eye = np.eye(n)
    h = dt
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    phi = eye + h * a + (h**2 / 2.0) * a2 + (h**3 / 6.0) * a3 + (h**4 / 24.0) * a4
    gamma = (h * eye + (h**2 / 2.0) * a + (h**3 / 6.0) * a2 + (h**4 / 24.0) * a3) @ b
    return phi, gamma


def compound_steps(phi: np.ndarray, gamma: np.ndarray, n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``n_sub`` identical hold-input steps into a single pair."""
    phi_total = np.eye(phi.shape[0])
    gamma_total = np.zeros_like(gamma)
    for _ in range(n_sub):
        gamma_total = phi @ gamma_total + gamma
        phi_total = phi @ phi_total
    return phi_total, gamma_total


class SimulationDivergence(RuntimeError):
    """State norm exceeded the configured blow-up bound or became NaN."""


def run_lti(a: np.ndarray, b: np.ndarray, u: np.ndarray, t_s: float,
            blow_up_bound: float = math.inf) -> np.ndarray:
    """States of ``x[k+1] = a x[k] + b u[k]`` from rest, one row per sample.

    Raises ``SimulationDivergence`` dated ``k * t_s`` at the first sample
    k whose state is NaN or has an entry above ``blow_up_bound``.
    """
    bu = (b @ u[:, :, None])[:, :, 0]  # one matvec per sample, rounded as b @ u[k]
    states = np.zeros_like(bu)
    x = np.zeros(a.shape[0])
    with np.errstate(all="ignore"):  # a diverging run may overflow before the check
        for k in range(len(bu) - 1):
            x = a @ x + bu[k]
            states[k + 1] = x
        bad = ~(np.max(np.abs(states), axis=1, initial=0.0) <= blow_up_bound)
    if bad.any():
        k = int(np.argmax(bad))
        raise SimulationDivergence(
            f"state norm exceeded {blow_up_bound:g} or is NaN at t={k * t_s:.3f} s")
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
    n_samples = int(round(duration / dt)) + 1
    u = np.zeros((n_samples, dss.n_inputs))
    u[:, channel] = magnitude
    return simulate_discrete(dss, u)
