"""Secondary frequency controllers: LQG on the identified model and the
conventional PI baselines, plus the closed-loop interconnection runner.

The controller acts on the six measured outputs and produces the four
secondary references (generator power per side, inverter dc current,
rectifier dc voltage). It runs at the measurement sample time with
zero-order hold; the internal estimator integrates with the same
fixed-step scheme as the plant between samples.

Without saturation each controller is a discrete LTI map from the six
sampled outputs to the commands (``sampled_system``): the PI baselines a
static 4x6 gain, the LQG its estimator closed with ``-K``. ``closed_loop``
stacks plant and controller into one discrete system and runs it through
``statespace.run_lti``. Clipping is not linear, so a controller with
``saturation`` set is stepped sample by sample instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import NumericsError, is_hurwitz, solve_care
from .plant import (BLOW_UP_BOUND, ContinuousPlant, PlantError, SimulationDivergence,
                    sample_step_matrices)
from .signals import SignalRecord
from .statespace import StateSpace, compound_steps, rk4_step_matrices, run_lti

N_REFERENCES = 4
N_MEASUREMENTS = 6


class ControlDesignError(RuntimeError):
    """Raised when a gain cannot be designed for the given model."""


def _split_inputs(model: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Split the model's input matrix into reference and disturbance parts."""
    if model.n_inputs < N_REFERENCES:
        raise ControlDesignError(
            f"model has {model.n_inputs} inputs; expected the {N_REFERENCES} "
            "references first"
        )
    return model.b[:, :N_REFERENCES], model.b[:, N_REFERENCES:]


def design_lqr(model: StateSpace, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """State-feedback gain minimizing the output-weighted quadratic cost.

    The state weight is ``c.T @ diag(q) @ c`` (weights sit on the
    measured outputs, not on the abstract realized states).
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if q.shape != (model.n_outputs,) or np.any(q < 0):
        raise ControlDesignError(f"q must be {model.n_outputs} non-negative weights")
    if r.shape != (N_REFERENCES,) or np.any(r <= 0):
        raise ControlDesignError(f"r must be {N_REFERENCES} positive weights")
    b_r, _ = _split_inputs(model)
    q_x = model.c.T @ np.diag(q) @ model.c
    try:
        p = solve_care(model.a, b_r, q_x, np.diag(r))
    except NumericsError as exc:
        raise ControlDesignError(f"regulator Riccati solve failed: {exc}") from exc
    k = np.linalg.solve(np.diag(r), b_r.T @ p)
    if not is_hurwitz(model.a - b_r @ k):
        raise ControlDesignError("designed regulator does not stabilize the model")
    return k


def design_kalman(model: StateSpace, w_proc: np.ndarray, v_meas: np.ndarray) -> np.ndarray:
    """Steady-state Kalman gain via the dual Riccati equation."""
    w_proc = np.asarray(w_proc, dtype=float)
    v_meas = np.asarray(v_meas, dtype=float)
    n, z = model.n_states, model.n_outputs
    if w_proc.shape != (n, n):
        raise ControlDesignError(f"process covariance must be {n}x{n}")
    if v_meas.shape != (z, z):
        raise ControlDesignError(f"measurement covariance must be {z}x{z}")
    try:
        p_f = solve_care(model.a.T, model.c.T, w_proc, v_meas)
    except NumericsError as exc:
        raise ControlDesignError(f"estimator Riccati solve failed: {exc}") from exc
    k_f = p_f @ model.c.T @ np.linalg.inv(v_meas)
    if not is_hurwitz(model.a - k_f @ model.c):
        raise ControlDesignError("designed estimator is not stable")
    return k_f


@dataclass
class LqgController:
    """LQ state feedback on a Kalman estimate of the identified model.

    Mutable: ``x_hat`` advances with each step. One writer per instance.
    """

    model: StateSpace
    k: np.ndarray
    k_f: np.ndarray
    q_weights: np.ndarray
    r_weights: np.ndarray
    w_proc: np.ndarray
    v_meas: np.ndarray
    saturation: float | None = None
    substep: float = 0.001
    x_hat: np.ndarray = field(default=None)
    _step_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.x_hat is None:
            self.x_hat = np.zeros(self.model.n_states)

    def reset(self) -> None:
        self.x_hat = np.zeros(self.model.n_states)

    def _matrices(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        # the estimator can be stiff (tight measurement covariance), so a
        # dt-long advance is folded from RK4 substeps like the plant's
        if dt not in self._step_cache:
            b_r, _ = _split_inputs(self.model)
            a_est = self.model.a - self.k_f @ self.model.c
            b_est = np.hstack([b_r, self.k_f])  # input [r; y]
            n_sub = max(1, int(round(dt / self.substep)))
            phi, gamma = rk4_step_matrices(a_est, b_est, dt / n_sub)
            self._step_cache[dt] = compound_steps(phi, gamma, n_sub)
        return self._step_cache[dt]

    def sampled_system(self, t_s: float) -> StateSpace:
        """Estimator advanced over ``t_s``, closed with ``r = -K x_hat``."""
        phi, gamma = self._matrices(t_s)
        return StateSpace(a=phi - gamma[:, :N_REFERENCES] @ self.k,
                          b=gamma[:, N_REFERENCES:], c=-self.k,
                          d=np.zeros((N_REFERENCES, N_MEASUREMENTS)), dt=t_s)

    def command(self) -> np.ndarray:
        r = -self.k @ self.x_hat
        if self.saturation is not None:
            r = np.clip(r, -self.saturation, self.saturation)
        return r

    def step(self, y_meas: np.ndarray, dt: float) -> np.ndarray:
        if dt <= 0:
            raise ControlDesignError(f"dt must be positive, got {dt}")
        y_meas = np.asarray(y_meas, dtype=float)
        if not np.all(np.isfinite(y_meas)):
            raise ControlDesignError("measurement contains non-finite values")
        r = self.command()
        phi, gamma = self._matrices(dt)
        self.x_hat = phi @ self.x_hat + gamma @ np.concatenate([r, y_meas])
        return r


def make_lqg(model: StateSpace,
             q: np.ndarray = (100.0, 100.0, 10.0, 30.0, 30.0, 30.0),
             r: np.ndarray = (1.0, 1.0, 1.0, 1.0),
             sigma_process: float = 0.1,
             v_meas_scale: float = 1e-5,
             w_proc_floor: float = 1e-5,
             saturation: float | None = None,
             substep: float = 0.001) -> LqgController:
    """Design both LQG gains with disturbance-driven process noise.

    ``w_proc_floor`` adds a small diagonal term so states the disturbance
    matrix misses (the appended integrators) still receive corrections;
    otherwise their estimator poles sit at zero.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    _, b_w = _split_inputs(model)
    if b_w.shape[1] == 0:
        raise ControlDesignError("model carries no disturbance inputs for process noise")
    w_proc = (b_w @ b_w.T) * sigma_process**2 + w_proc_floor * np.eye(model.n_states)
    v_meas = v_meas_scale * np.eye(model.n_outputs)
    k = design_lqr(model, q, r)
    k_f = design_kalman(model, w_proc, v_meas)
    return LqgController(model=model, k=k, k_f=k_f, q_weights=q, r_weights=r,
                         w_proc=w_proc, v_meas=v_meas, saturation=saturation,
                         substep=substep)


@dataclass
class PiSfcController:
    """Conventional PI secondary control.

    Generator channels restore their own grid's frequency; the inverter
    current channel supports inverter-side frequency; the rectifier
    voltage channel restores the dc-link voltage (the rectifier is the
    voltage-keeping terminal, so its secondary reference tracks v_dc
    rather than a frequency). Integral action rides on the measured
    integral channels, so the controller holds no internal state.
    ``inverter_only`` zeroes the rectifier-frequency and dc-voltage
    references, leaving only inverter-side restoration.
    """

    kp_hvdc: float = 3.0
    ki_hvdc: float = 25.0
    kp_gen: float = 0.8
    ki_gen: float = 0.2
    inverter_only: bool = False
    saturation: float | None = None

    def reset(self) -> None:
        pass

    @property
    def gain(self) -> np.ndarray:
        """Static 4x6 gain from the six sampled outputs to the commands."""
        g = np.zeros((N_REFERENCES, N_MEASUREMENTS))
        g[0, [0, 3]] = -self.kp_gen, -self.ki_gen
        g[2, [0, 3]] = -self.kp_hvdc, -self.ki_hvdc
        if not self.inverter_only:
            g[1, [1, 4]] = -self.kp_gen, -self.ki_gen
            g[3, [2, 5]] = -self.kp_hvdc, -self.ki_hvdc
        return g

    def sampled_system(self, t_s: float) -> StateSpace:
        """The static gain as a discrete system with no state."""
        return StateSpace(a=np.zeros((0, 0)), b=np.zeros((0, N_MEASUREMENTS)),
                          c=np.zeros((N_REFERENCES, 0)), d=self.gain, dt=t_s)

    def step(self, y_meas: np.ndarray, dt: float) -> np.ndarray:
        r = self.gain @ np.asarray(y_meas, dtype=float)
        if self.saturation is not None:
            r = np.clip(r, -self.saturation, self.saturation)
        return r


def closed_loop(plant: ContinuousPlant, controller, disturbances: SignalRecord,
                dt: float) -> SignalRecord:
    """Run the feedback interconnection over a disturbance record.

    The controller sees the sampled model outputs and its command is held
    for one sample; the plant advances in RK4 substeps of size ``dt``.
    Plant and controller run as one discrete LTI system through
    ``run_lti``, unless ``controller.saturation`` is set: then per sample.
    A NaN state or one above ``BLOW_UP_BOUND`` raises ``SimulationDivergence``.
    Returns model outputs, auxiliary channels and the four commands.
    """
    if disturbances.channels != plant.disturbance_labels:
        raise PlantError(
            f"disturbance channels {disturbances.channels} != {plant.disturbance_labels}"
        )
    t_s, w = disturbances.t_s, disturbances.samples
    phi, gamma = sample_step_matrices(plant, t_s, dt)
    c = plant.state_space.c
    c_full = np.vstack([c, plant.aux_c])
    channels = plant.output_labels + plant.aux_labels + plant.input_labels
    if controller.saturation is not None:  # clipping is not LTI: step per sample
        controller.reset()
        x = np.zeros(phi.shape[0])
        out = np.empty((len(w), len(channels)))
        for k in range(len(w)):
            if not (np.max(np.abs(x)) <= BLOW_UP_BOUND):  # NaN counts as divergence
                raise SimulationDivergence(
                    f"state norm exceeded {BLOW_UP_BOUND:g} or is NaN at t={k * t_s:.3f} s")
            y_full = c_full @ x
            r = controller.step(y_full[:N_MEASUREMENTS], t_s)
            out[k] = np.concatenate([y_full, r])
            x = phi @ x + gamma @ np.concatenate([r, w[k]])
        return SignalRecord(t_s, channels, out)

    ctrl = controller.sampled_system(t_s)
    g_r, g_w = gamma[:, :N_REFERENCES], gamma[:, N_REFERENCES:]
    # state [x; xi] with r = ctrl.c xi + ctrl.d c x and xi+ = ctrl.a xi + ctrl.b c x
    a = np.block([[phi + g_r @ ctrl.d @ c, g_r @ ctrl.c],
                  [ctrl.b @ c, ctrl.a]])
    b = np.vstack([g_w, np.zeros((ctrl.n_states, g_w.shape[1]))])
    out_map = np.block([[c_full, np.zeros((len(c_full), ctrl.n_states))],
                        [ctrl.d @ c, ctrl.c]])
    return SignalRecord(t_s, channels, run_lti(a, b, w, t_s, BLOW_UP_BOUND) @ out_map.T)


def interconnection_matrix(model: StateSpace, k: np.ndarray, k_f: np.ndarray) -> np.ndarray:
    """Continuous closed-loop state matrix of model plus LQG estimator.

    Its spectrum is the union of the regulator and estimator spectra
    (separation principle), which the tests verify.
    """
    b_r, _ = _split_inputs(model)
    a, c = model.a, model.c
    top = np.hstack([a, -b_r @ k])
    bottom = np.hstack([k_f @ c, a - b_r @ k - k_f @ c])
    return np.vstack([top, bottom])
