"""Small-signal truth plant: two AC grids coupled by an LCC HVDC link.

Each grid aggregates its generators into one swing equation fed by a
gas-turbine chain with governor droop. The HVDC converters carry
frequency/dc-voltage droop loops plus filtered-derivative inertia
emulation, with the rectifier regulating its terminal voltage and the
inverter its dc current through PI loops and a short actuator lag.
All quantities are per-unit on the declared power base; dc voltage and
current are normalized by their nominal values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .numerics import eig_real_parts
from .schema import FINITE, NON_NEGATIVE, POSITIVE, build, count, finite, read_json, validate
from .signals import SignalRecord
# SimulationDivergence is re-exported: simulate raises it
from .statespace import (RADIUS_TOL, SimulationDivergence, StateSpace, compound_steps, rk4_radius,
                         rk4_step_matrices, run_lti)


class PlantError(ValueError):
    """Bad parameter set or inconsistent simulation request."""


REFERENCE_CHANNELS = ("p_gi_ref", "p_gr_ref", "i_dci_ref", "v_dcr_ref")
DISTURBANCE_CHANNELS = ("p_li", "p_lr_net")  # p_lr_net = load minus wind on the rectifier side
OUTPUT_CHANNELS = ("f_i", "f_r", "v_dc", "int_f_i", "int_f_r", "int_v_dc")
AUX_CHANNELS = ("p_gi", "p_gr", "p_dci", "p_dcr", "i_dci", "v_dcr")
PRESETS = ("jh", "cigre")  # the parameter sets shipped under presets/


# field rules of PlantParams beside the shared ones in schema
_TIME_CONSTANT = (POSITIVE[0], "a positive, finite time constant")
_DROOP = (lambda v: (finite(v) or v == math.inf) and v > 0,
          "a positive droop constant (inf disables the loop)")
# a disabled droop is inf here and null in a JSON document
_DROOP_FIELDS = ("R_gi", "R_gr", "R_i", "R_r", "K_i", "K_r")


@dataclass(frozen=True)
class PlantParams:
    """Physical and control parameters of the two-grid HVDC system;
    ``build_plant`` reads every field.

    Droop fields store the droop constants themselves (gain = 1/value);
    ``math.inf`` disables a loop. ``B`` (bridge count) scales the dc
    current base ``I_dc0 * B``, and ``X_cr`` sets the rectifier's
    equivalent commutation resistance 3*X_cr/pi per bridge (0 leaves the
    dc-link LC mode undamped). Each field must pass its ``schema`` rule
    and the nominal dc power ``V_dcr0 * I_dc0 * B`` must lie within 1% of
    ``power_base_MW``; a bad value is a ``PlantError`` naming the field.
    """

    # grid aggregates
    M_i: float
    M_r: float
    D_i: float
    D_r: float
    N_i: int
    N_r: int
    # governor / valve / gas turbine
    X_g: float
    Y_g: float
    e_g: float
    u_g: float
    T_cr: float
    T_f: float
    T_cd: float
    R_gi: float
    R_gr: float
    # HVDC droop and inertia-emulation loops
    R_i: float
    R_r: float
    K_i: float
    K_r: float
    W_i: float
    W_r: float
    T_fi: float
    T_fr: float
    # dc link and converter control
    R_dc: float
    L_dc: float
    C_dc: float
    k_pr: float
    k_ir: float
    k_pi: float
    k_ii: float
    V_dcr0: float
    I_dc0: float
    power_base_MW: float
    B: int = 1
    T_c: float = 0.01
    T_ref: float = 0.05
    T_vm: float = 0.1
    X_cr: float = 0.0

    def __post_init__(self):
        validate(PlantError, "", self, {
            **dict.fromkeys(("N_i", "N_r", "B"), count(1)),
            **dict.fromkeys(("M_i", "M_r", "R_dc", "L_dc", "C_dc", "V_dcr0", "I_dc0",
                             "power_base_MW"), POSITIVE),
            **dict.fromkeys(("Y_g", "u_g", "T_cr", "T_f", "T_cd", "T_fi", "T_fr", "T_c",
                             "T_ref", "T_vm"), _TIME_CONSTANT),
            **dict.fromkeys(_DROOP_FIELDS, _DROOP),
            **dict.fromkeys(("D_i", "D_r", "W_i", "W_r", "X_g", "e_g", "X_cr"), NON_NEGATIVE),
            **dict.fromkeys(("k_pr", "k_ir", "k_pi", "k_ii"), FINITE)})
        nominal_mw = self.V_dcr0 * 1e3 * self.I_dc0 * self.B / 1e6
        if abs(nominal_mw / self.power_base_MW - 1.0) > 0.01:
            raise PlantError(f"nominal dc power {nominal_mw:.2f} MW is inconsistent with the "
                             f"{self.power_base_MW:.2f} MW base (>1% off)")

    @staticmethod
    def from_json(path: str | Path) -> "PlantParams":
        """Parameters from a JSON file of their fields; any defect is a ``PlantError`` naming it."""
        return _from_document(read_json(PlantError, path, "plant parameter"),
                              f"plant parameters {path}")


def _from_document(raw, section: str) -> PlantParams:
    """``PlantParams`` from a parsed JSON object; null is inf in a droop field only."""
    if isinstance(raw, dict):
        raw = {k: math.inf if k in _DROOP_FIELDS and v is None else v for k, v in raw.items()}
    return build(PlantError, PlantParams, raw, section)


def load_preset(name: str) -> PlantParams:
    """Load one of the shipped parameter sets (``jh`` or ``cigre``)."""
    ref = resources.files("hvdcfr.presets").joinpath(f"{name}.json")
    if not ref.is_file():
        raise PlantError(f"unknown plant preset {name!r}; shipped presets are {PRESETS}")
    return _from_document(json.loads(ref.read_text()), f"plant preset {name!r}")


# state layout of the assembled model
_STATE_LABELS = (
    "f_i", "f_r",
    "gov_i", "valve_i", "fuel_i", "comb_i", "p_gi",
    "gov_r", "valve_r", "fuel_r", "comb_r", "p_gr",
    "ire_filt_i", "ire_filt_r",
    "v_dc", "i_dcr",
    "ref_filt_vr", "pi_int_vr", "v_dcr",
    "ref_filt_ci", "pi_int_ci", "i_dci",
    "v_dc_meas",
    "int_f_i", "int_f_r", "int_v_dc",
)
_N_STATES = len(_STATE_LABELS)
_N_INPUTS = len(REFERENCE_CHANNELS) + len(DISTURBANCE_CHANNELS)
_INTEGRATOR_STATES = (_N_STATES - 3, _N_STATES - 2, _N_STATES - 1)


@dataclass(frozen=True)
class ContinuousPlant:
    """Assembled LTI truth plant.

    ``state_space`` maps [references; disturbances] to the six model
    outputs, each in its ``*_CHANNELS`` order; ``aux_c`` gives the
    ``AUX_CHANNELS`` used for metrics and traces (not model outputs).
    """

    state_space: StateSpace
    aux_c: np.ndarray


def build_plant(params: PlantParams) -> ContinuousPlant:
    """Assemble the continuous-time truth plant from its parameters.

    Raises ``PlantError`` when the autonomous dynamic core (everything
    except the three pure output integrators) is not Hurwitz.
    """
    n, m = _N_STATES, _N_INPUTS
    idx = {label: i for i, label in enumerate(_STATE_LABELS)}

    def state(label):
        e = np.zeros(n + m)
        e[idx[label]] = 1.0
        return e

    def ref(label):
        e = np.zeros(n + m)
        e[n + REFERENCE_CHANNELS.index(label)] = 1.0
        return e

    def dist(label):
        e = np.zeros(n + m)
        e[n + len(REFERENCE_CHANNELS) + DISTURBANCE_CHANNELS.index(label)] = 1.0
        return e

    p = params
    inv = lambda x: 0.0 if math.isinf(x) else 1.0 / x

    # per-unit dc-link constants (current base counts all bridges)
    i_base = p.I_dc0 * p.B
    v_base = p.V_dcr0 * 1e3
    t_cap = p.C_dc * 1e-6 * v_base / i_base
    t_ind = 0.5 * p.L_dc * i_base / v_base
    # the rectifier bridges contribute their equivalent commutation
    # resistance 3*X_c/pi each; this is what damps the dc-side LC mode
    r_comm = (3.0 / math.pi) * p.X_cr * p.B
    r_link = (0.5 * p.R_dc + r_comm) * i_base / v_base

    # filtered-derivative inertia emulation: gain * (f - filter_state) / T
    ire_i = (p.W_i / p.T_fi) * (state("f_i") - state("ire_filt_i"))
    ire_r = (p.W_r / p.T_fr) * (state("f_r") - state("ire_filt_r"))

    # converter reference assembly; every droop term opposes its deviation
    i_dci_ref = (ref("i_dci_ref") - inv(p.R_i) * state("f_i") - ire_i
                 + inv(p.K_i) * state("v_dc"))
    v_dcr_ref = (ref("v_dcr_ref") + inv(p.R_r) * state("f_r") + ire_r
                 - inv(p.K_r) * state("v_dc"))

    # linearized dc power transfers (pu): p = v + i on the common base
    p_dci = state("v_dc") + state("i_dci")
    p_dcr = state("v_dcr") + state("i_dcr")

    # governor inputs: secondary reference share minus primary droop
    gov_in_i = ref("p_gi_ref") - inv(p.R_gi) * state("f_i")
    gov_in_r = ref("p_gr_ref") - inv(p.R_gr) * state("f_r")
    # lead-lag (X_g s + 1)/(Y_g s + 1) output from its single lag state
    lead = p.X_g / p.Y_g
    ll_i = lead * gov_in_i + (1.0 - lead) * state("gov_i")
    ll_r = lead * gov_in_r + (1.0 - lead) * state("gov_r")

    rows = np.zeros((n, n + m))
    rows[idx["f_i"]] = (state("p_gi") + p_dci - dist("p_li") - p.D_i * state("f_i")) / p.M_i
    rows[idx["f_r"]] = (state("p_gr") - p_dcr - dist("p_lr_net") - p.D_r * state("f_r")) / p.M_r

    for side, gov_in, ll in (("i", gov_in_i, ll_i), ("r", gov_in_r, ll_r)):
        rows[idx[f"gov_{side}"]] = (gov_in - state(f"gov_{side}")) / p.Y_g
        rows[idx[f"valve_{side}"]] = (p.e_g * ll - state(f"valve_{side}")) / p.u_g
        rows[idx[f"fuel_{side}"]] = (state(f"valve_{side}") - state(f"fuel_{side}")) / p.T_f
        rows[idx[f"comb_{side}"]] = (state(f"fuel_{side}") - state(f"comb_{side}")) / p.T_cr
        rows[idx[f"p_g{side}"]] = (state(f"comb_{side}") - state(f"p_g{side}")) / p.T_cd

    rows[idx["ire_filt_i"]] = (state("f_i") - state("ire_filt_i")) / p.T_fi
    rows[idx["ire_filt_r"]] = (state("f_r") - state("ire_filt_r")) / p.T_fr

    rows[idx["v_dc"]] = (state("i_dcr") - state("i_dci")) / t_cap
    rows[idx["i_dcr"]] = (state("v_dcr") - state("v_dc") - r_link * state("i_dcr")) / t_ind

    # each converter band-limits its assembled local reference before the PI,
    # keeping droop/IRE action away from the dc-link LC resonance
    rows[idx["ref_filt_vr"]] = (v_dcr_ref - state("ref_filt_vr")) / p.T_ref
    rows[idx["ref_filt_ci"]] = (i_dci_ref - state("ref_filt_ci")) / p.T_ref
    # rectifier PI -> actuator lag -> terminal voltage
    err_v = state("ref_filt_vr") - state("v_dcr")
    rows[idx["pi_int_vr"]] = err_v
    rows[idx["v_dcr"]] = (p.k_pr * err_v + p.k_ir * state("pi_int_vr") - state("v_dcr")) / p.T_c
    # inverter PI -> actuator lag -> dc current
    err_c = state("ref_filt_ci") - state("i_dci")
    rows[idx["pi_int_ci"]] = err_c
    rows[idx["i_dci"]] = (p.k_pi * err_c + p.k_ii * state("pi_int_ci") - state("i_dci")) / p.T_c

    # the dc-voltage telemetry passes a transducer lag before any sampled
    # secondary controller sees it; the raw link state would alias its
    # lightly damped resonance into the slow control rate
    rows[idx["v_dc_meas"]] = (state("v_dc") - state("v_dc_meas")) / p.T_vm

    rows[idx["int_f_i"]] = state("f_i")
    rows[idx["int_f_r"]] = state("f_r")
    rows[idx["int_v_dc"]] = state("v_dc_meas")

    a = rows[:, :n]
    b = rows[:, n:]

    c = np.zeros((len(OUTPUT_CHANNELS), n))
    for row, label in enumerate(("f_i", "f_r", "v_dc_meas", "int_f_i", "int_f_r", "int_v_dc")):
        c[row, idx[label]] = 1.0
    d = np.zeros((len(OUTPUT_CHANNELS), m))

    aux_c = np.zeros((len(AUX_CHANNELS), n + m))
    aux_c[0] = state("p_gi")
    aux_c[1] = state("p_gr")
    aux_c[2] = p_dci
    aux_c[3] = p_dcr
    aux_c[4] = state("i_dci")
    aux_c[5] = state("v_dcr")
    aux_c = aux_c[:, :n]

    core = [i for i in range(n) if i not in _INTEGRATOR_STATES]
    core_eigs = eig_real_parts(a[np.ix_(core, core)])
    if np.any(core_eigs >= 0.0):
        unstable = sorted(float(v) for v in core_eigs if v >= 0.0)
        raise PlantError(
            f"assembled plant core is not Hurwitz; unstable eigenvalue real parts: {unstable}"
        )

    ss = StateSpace(a=a, b=b, c=c, d=d, dt=None)
    return ContinuousPlant(state_space=ss, aux_c=aux_c)


def without_rectifier_hvdc_loops(params: PlantParams) -> PlantParams:
    """Converter config with a fixed rectifier voltage: drops the
    rectifier frequency droop, rectifier inertia emulation and both
    dc-voltage droops, leaving only inverter-side frequency support."""
    return replace(params, R_r=math.inf, K_r=math.inf, K_i=math.inf, W_r=0.0)


def without_hvdc_droops(params: PlantParams) -> PlantParams:
    """Remove all four HVDC droop loops, keep inertia emulation."""
    return replace(params, R_i=math.inf, R_r=math.inf, K_i=math.inf, K_r=math.inf)


def without_hvdc_droops_and_ire(params: PlantParams) -> PlantParams:
    """Remove the HVDC droop loops and inertia emulation."""
    return replace(without_hvdc_droops(params), W_i=0.0, W_r=0.0)


def substep_count(t_s: float, dt: float) -> int:
    """RK4 substeps ``dt`` per sample ``t_s``; PlantError unless a whole number."""
    n_sub = t_s / dt
    if not (math.isfinite(n_sub) and n_sub > 0.5 and abs(n_sub - round(n_sub)) <= 1e-9):
        raise PlantError(f"dt={dt!r} s must divide t_s={t_s!r} s into a whole number of substeps")
    return int(round(n_sub))


def sample_step_matrices(a: np.ndarray, b: np.ndarray, t_s: float, dt: float,
                         system: str = "plant") -> tuple[np.ndarray, np.ndarray]:
    """Pair (phi, gamma) advancing ``dx = a x + b u`` one sample ``t_s``
    with u held, folded from RK4 substeps ``dt``. Every system a run samples
    passes here, so a reported divergence never comes from RK4: PlantError,
    naming ``system``, unless ``dt`` divides ``t_s`` and RK4 can step every
    mode of ``a`` (Hurwitz but for integrators: a plant or an estimator)."""
    n_sub = substep_count(t_s, dt)
    # each mode lies within the Frobenius norm of 0, and RK4 is stable on the
    # left half-disk of radius 2.5 / dt: only a larger norm needs the modes
    if np.linalg.norm(a) * dt > 2.5:
        rho = rk4_radius(np.linalg.eigvals(a), dt)
        if rho > 1.0 + RADIUS_TOL:
            raise PlantError(f"dt={dt:g} s makes the RK4 substep unstable on the {system} "
                             f"(spectral radius {rho:.6f} > 1); use a smaller dt")
    phi, gamma = rk4_step_matrices(a, b, dt)
    return compound_steps(phi, gamma, n_sub)


def simulate(plant: ContinuousPlant, refs: SignalRecord, disturbances: SignalRecord,
             dt: float) -> SignalRecord:
    """Fixed-step closed-form RK4 simulation with zero-order-hold inputs.

    Inputs are held over each sample interval; the state advances in
    RK4 substeps of size ``dt``; outputs (model plus auxiliary channels)
    are sampled on the input grid; a non-finite state raises ``SimulationDivergence``.
    """
    if refs.t_s != disturbances.t_s:
        raise PlantError(f"reference T_s {refs.t_s} != disturbance T_s {disturbances.t_s}")
    if refs.n_samples != disturbances.n_samples:
        raise PlantError(f"reference record has {refs.n_samples} samples, disturbance record "
                         f"{disturbances.n_samples}")
    if refs.channels != REFERENCE_CHANNELS:
        raise PlantError(f"reference channels {refs.channels} != {REFERENCE_CHANNELS}")
    if disturbances.channels != DISTURBANCE_CHANNELS:
        raise PlantError(f"disturbance channels {disturbances.channels} != {DISTURBANCE_CHANNELS}")

    ss = plant.state_space
    phi, gamma = sample_step_matrices(ss.a, ss.b, refs.t_s, dt)
    u = np.hstack([refs.samples, disturbances.samples])
    x = run_lti(phi, gamma, u, refs.t_s)
    c_full = np.vstack([ss.c, plant.aux_c])
    return SignalRecord(refs.t_s, OUTPUT_CHANNELS + AUX_CHANNELS, x @ c_full.T)


def dc_gain(plant: ContinuousPlant) -> np.ndarray:
    """Steady-state 3x6 gain from [references; disturbances] to
    (f_i, f_r, v_dc), computed on the non-integrator core."""
    ss = plant.state_space
    core = [i for i in range(ss.n_states) if i not in _INTEGRATOR_STATES]
    a_core = ss.a[np.ix_(core, core)]
    b_core = ss.b[core, :]
    c_core = ss.c[:3][:, core]
    try:
        sol = np.linalg.solve(a_core, b_core)
    except np.linalg.LinAlgError as exc:
        raise PlantError("non-integrator core of A is singular; no dc gain") from exc
    return -c_core @ sol + ss.d[:3]
