"""Secondary frequency controllers: LQG on the identified model and the
conventional PI baselines, plus the closed-loop interconnection runner.

The controller acts on the six measured outputs and produces the four
secondary references (generator power per side, inverter dc current,
rectifier dc voltage). It runs at the measurement sample time with
zero-order hold; the internal estimator integrates with the same
fixed-step scheme as the plant between samples.

Controllers are frozen descriptions. Each gives one discrete system,
``sampled_system(t_s)``, from [applied commands; six sampled outputs]
to the command: the PI baselines a static 4x6 gain, the LQG
its Kalman estimator with output ``-K`` times the estimate.
``closed_loop`` is the only code that steps a controller. It describes
plant and controller once, as the open loop of their joint state driven
by the command, folds the command back in and runs the closed loop
through ``statespace.run_lti``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import CareSolution, NumericsError, solve_care
from .plant import (AUX_CHANNELS, DISTURBANCE_CHANNELS, OUTPUT_CHANNELS, REFERENCE_CHANNELS,
                    ContinuousPlant, PlantError, sample_step_matrices)
from .signals import SignalRecord
from .statespace import RADIUS_TOL, SimulationDivergence, StateSpace, run_lti

N_REFERENCES = len(REFERENCE_CHANNELS)
N_MEASUREMENTS = len(OUTPUT_CHANNELS)
# default LQG tuning of make_lqg and ControllerSpec: q per output, r per command
Q_WEIGHTS = (100.0, 100.0, 10.0, 30.0, 30.0, 30.0)
R_WEIGHTS = (1.0, 1.0, 1.0, 1.0)
SIGMA_PROCESS = 0.1
V_MEAS_SCALE = 1e-5
W_PROC_FLOOR = 1e-5
SUBSTEP = 0.001  # s; default RK4 substep of a run (Scenario.dt) and of make_lqg's estimator


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


def design_lqr(model: StateSpace, q: np.ndarray, r: np.ndarray) -> CareSolution:
    """State-feedback gain K (4 by n) minimizing the output-weighted quadratic cost,
    as the ``gain`` of the Riccati solve's ``CareSolution``.

    The state weight is ``c.T @ diag(q) @ c`` (weights sit on the
    measured outputs, not on the abstract realized states); the
    abscissa is that of ``a - b_r K``.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if q.shape != (model.n_outputs,) or np.any(q < 0):
        raise ControlDesignError(f"q must be {model.n_outputs} non-negative weights")
    if r.shape != (N_REFERENCES,) or np.any(r <= 0):
        raise ControlDesignError(f"r must be {N_REFERENCES} positive weights")
    b_r, _ = _split_inputs(model)
    q_x = model.c.T @ np.diag(q) @ model.c
    r_u = np.diag(r)
    try:
        sol = solve_care(model.a, b_r, q_x, r_u, full_output=True)
    except NumericsError as exc:
        raise ControlDesignError(f"regulator Riccati solve failed: {exc}") from exc
    # solve_care's closed loop a - b_r r^-1 b_r.T p is a - b_r K, already checked Hurwitz
    return sol


def design_kalman(model: StateSpace, w_proc: np.ndarray, v_meas: np.ndarray) -> CareSolution:
    """Steady-state Kalman gain K_f (n by z) via the dual Riccati equation: the
    dual solve's ``CareSolution`` with its ``gain`` transposed to K_f, and the
    abscissa that of ``a - K_f c``."""
    w_proc = np.asarray(w_proc, dtype=float)
    v_meas = np.asarray(v_meas, dtype=float)
    n, z = model.n_states, model.n_outputs
    if w_proc.shape != (n, n):
        raise ControlDesignError(f"process covariance must be {n}x{n}")
    if v_meas.shape != (z, z):
        raise ControlDesignError(f"measurement covariance must be {z}x{z}")
    for name, cov in (("w_proc", w_proc), ("v_meas", v_meas)):
        if not np.all(np.isfinite(cov)):
            raise ControlDesignError(f"estimator Riccati solve failed: {name} contains "
                                     "non-finite entries")
    try:
        sol = solve_care(model.a.T, model.c.T, w_proc, v_meas, full_output=True)
    except NumericsError as exc:
        raise ControlDesignError(f"estimator Riccati solve failed: {exc}") from exc
    # the dual gain v^-1 c p_f is K_f.T, and the dual closed loop the transpose of a - K_f c
    return sol._replace(gain=sol.gain.T)


def _noise_covariances(model: StateSpace, sigma_process: float, v_meas_scale: float,
                       w_proc_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Disturbance-driven process covariance plus a diagonal floor, and the
    diagonal measurement covariance."""
    _, b_w = _split_inputs(model)
    # an overflowing variance gives non-finite entries, which design_kalman refuses
    with np.errstate(over="ignore", invalid="ignore"):
        w_proc = ((b_w @ b_w.T) * np.float64(sigma_process) ** 2
                  + w_proc_floor * np.eye(model.n_states))
    return w_proc, v_meas_scale * np.eye(model.n_outputs)


@dataclass(frozen=True)
class LqgController:
    """LQ state feedback on a Kalman estimate of the identified model."""

    model: StateSpace
    k: np.ndarray
    k_f: np.ndarray
    q_weights: np.ndarray
    r_weights: np.ndarray
    # noise scalars: the ``w_proc`` and ``v_meas`` properties rebuild the
    # covariances the estimator was designed with from them
    sigma_process: float
    v_meas_scale: float
    w_proc_floor: float
    # design diagnostics: Frobenius CARE residuals of both Riccati
    # solutions and the largest eigenvalue real part of a - b_r K and
    # a - K_f c (negative: both loops stable)
    regulator_residual: float
    estimator_residual: float
    regulator_abscissa: float
    estimator_abscissa: float
    substep: float

    @property
    def w_proc(self) -> np.ndarray:
        """Process-noise covariance of the Kalman design."""
        return _noise_covariances(self.model, self.sigma_process, self.v_meas_scale,
                                  self.w_proc_floor)[0]

    @property
    def v_meas(self) -> np.ndarray:
        """Measurement-noise covariance of the Kalman design."""
        return _noise_covariances(self.model, self.sigma_process, self.v_meas_scale,
                                  self.w_proc_floor)[1]

    def sampled_system(self, t_s: float) -> StateSpace:
        """Estimator advanced over ``t_s`` from input [r; y]; output ``-K`` times its state."""
        b_r, _ = _split_inputs(self.model)
        # the estimator can be stiff (tight measurement covariance), so a
        # sample-long advance is folded from RK4 substeps like the plant's
        phi, gamma = sample_step_matrices(self.model.a - self.k_f @ self.model.c,
                                          np.hstack([b_r, self.k_f]), t_s, self.substep,
                                          "LQG estimator")
        return StateSpace(a=phi, b=gamma, c=-self.k,
                          d=np.zeros((N_REFERENCES, N_REFERENCES + N_MEASUREMENTS)), dt=t_s)


def make_lqg(model: StateSpace, q: np.ndarray = Q_WEIGHTS, r: np.ndarray = R_WEIGHTS,
             sigma_process: float = SIGMA_PROCESS, v_meas_scale: float = V_MEAS_SCALE,
             w_proc_floor: float = W_PROC_FLOOR, substep: float = SUBSTEP) -> LqgController:
    """Design both LQG gains with disturbance-driven process noise.

    ``w_proc_floor`` adds a small diagonal term so states the disturbance
    matrix misses (the appended integrators) still receive corrections;
    otherwise their estimator poles sit at zero. The design is continuous;
    ``substep`` is only stored for ``sampled_system``.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    _, b_w = _split_inputs(model)
    if b_w.shape[1] == 0:
        raise ControlDesignError("model carries no disturbance inputs for process noise")
    reg = design_lqr(model, q, r)
    est = design_kalman(model,
                        *_noise_covariances(model, sigma_process, v_meas_scale, w_proc_floor))
    return LqgController(model=model, k=reg.gain, k_f=est.gain, q_weights=q, r_weights=r,
                         sigma_process=sigma_process, v_meas_scale=v_meas_scale,
                         w_proc_floor=w_proc_floor, regulator_residual=reg.residual,
                         estimator_residual=est.residual, regulator_abscissa=reg.abscissa,
                         estimator_abscissa=est.abscissa, substep=substep)


@dataclass(frozen=True)
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

    @property
    def gain(self) -> np.ndarray:
        """Static 4x6 gain: each command acts on one output and its running integral."""
        loops = [("p_gi_ref", "f_i", self.kp_gen, self.ki_gen),
                 ("i_dci_ref", "f_i", self.kp_hvdc, self.ki_hvdc)]
        if not self.inverter_only:
            loops += [("p_gr_ref", "f_r", self.kp_gen, self.ki_gen),
                      ("v_dcr_ref", "v_dc", self.kp_hvdc, self.ki_hvdc)]
        g = np.zeros((N_REFERENCES, N_MEASUREMENTS))
        for command, output, kp, ki in loops:
            columns = [OUTPUT_CHANNELS.index(output), OUTPUT_CHANNELS.index(f"int_{output}")]
            g[REFERENCE_CHANNELS.index(command), columns] = -kp, -ki
        return g

    def sampled_system(self, t_s: float) -> StateSpace:
        """The static gain on y as a discrete system with no state."""
        d = np.hstack([np.zeros((N_REFERENCES, N_REFERENCES)), self.gain])
        return StateSpace(a=np.zeros((0, 0)), b=np.zeros((0, N_REFERENCES + N_MEASUREMENTS)),
                          c=np.zeros((N_REFERENCES, 0)), d=d, dt=t_s)


def closed_loop(plant: ContinuousPlant, controller, disturbances: SignalRecord,
                dt: float) -> SignalRecord:
    """Run the feedback interconnection over a disturbance record.

    The controller sees the sampled model outputs and its command is held
    for one sample; the plant advances in RK4 substeps of size ``dt``, and a
    ``dt`` at which RK4 cannot step the plant or the controller is a PlantError.
    Plant and ``controller.sampled_system`` start from rest and are run
    as one discrete LTI system by ``run_lti``. Before it starts, a closed
    loop with spectral radius above ``1 + RADIUS_TOL`` raises
    ``SimulationDivergence``, as a NaN state does at its first sample.
    Returns model outputs, auxiliary channels and the four commands.
    """
    if disturbances.channels != DISTURBANCE_CHANNELS:
        raise PlantError(f"disturbance channels {disturbances.channels} != {DISTURBANCE_CHANNELS}")
    t_s, w = disturbances.t_s, disturbances.samples
    ss = plant.state_space
    phi, gamma = sample_step_matrices(ss.a, ss.b, t_s, dt)
    g_r, g_w = gamma[:, :N_REFERENCES], gamma[:, N_REFERENCES:]
    c_full = np.vstack([ss.c, plant.aux_c])
    ctrl = controller.sampled_system(t_s)
    b_r, b_y, d_y = ctrl.b[:, :N_REFERENCES], ctrl.b[:, N_REFERENCES:], ctrl.d[:, N_REFERENCES:]
    # open loop of z = [x; xi] under the command r = c_cmd z (the command
    # never feeds through to itself: only the y columns of d are read)
    a_open = np.block([[phi, np.zeros((len(phi), ctrl.n_states))], [b_y @ ss.c, ctrl.a]])
    b_cmd, b_w = np.vstack([g_r, b_r]), np.vstack([g_w, np.zeros((ctrl.n_states, g_w.shape[1]))])
    c_cmd = np.hstack([d_y @ ss.c, ctrl.c])
    out_map = np.block([[c_full, np.zeros((len(c_full), ctrl.n_states))], [c_cmd]])
    closed = a_open + b_cmd @ c_cmd
    rho = float(np.max(np.abs(np.linalg.eigvals(closed)), initial=0.0))
    if rho > 1.0 + RADIUS_TOL:
        raise SimulationDivergence(f"sampled closed loop has spectral radius {rho:.6f} > 1")
    z = run_lti(closed, b_w, w, t_s)
    return SignalRecord(t_s, OUTPUT_CHANNELS + AUX_CHANNELS + REFERENCE_CHANNELS, z @ out_map.T)
