"""Scenario runner: disturbance protocols, per-case controller setup,
metric computation and cross-case comparison tables."""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .control import (N_MEASUREMENTS, N_REFERENCES, Q_WEIGHTS, R_WEIGHTS, SIGMA_PROCESS,
                      SUBSTEP, V_MEAS_SCALE, W_PROC_FLOOR, PiSfcController, closed_loop,
                      make_lqg)
from .plant import (
    DISTURBANCE_CHANNELS,
    OUTPUT_CHANNELS,
    PRESETS,
    REFERENCE_CHANNELS,
    ContinuousPlant,
    PlantError,
    PlantParams,
    build_plant,
    load_preset,
    sample_step_matrices,
    simulate,
    without_hvdc_droops,
    without_hvdc_droops_and_ire,
    without_rectifier_hvdc_loops,
)
from .numerics import butter_lowpass_filter
from .schema import (FINITE, NON_NEGATIVE, POSITIVE, between, build, count, entries, finite,
                     instance, object_fields, one_of, optional, validate)
from .signals import SignalRecord, csv_text, sample_count
from .sysid import (EraReport, IdentifyConfig, generate_excitation, hankel_bytes, identify,
                    observer_samples, observer_triangle_bytes)
from .statespace import SimulationDivergence, StateSpace

PROFILE_CHANNELS = ("p_li", "p_lr", "p_w")
MAX_SAMPLES = 1_000_000  # longest record a scenario may ask for; shipped ones use 2001
# largest single array identification may ask for (observer triangle, Hankel
# pair); shipped scenarios need 0.6 and 1.5 MB, and peak memory is a few such arrays
MAX_ARRAY_BYTES = 1 << 28
# largest |disturbance| in pu; the shipped loops' trace is at most 11.3 times
# the input, and the metrics' squares overflow past ~1.3e154, so runs stay finite
MAX_INPUT_PU = 1e100
_INPUT = (lambda v: finite(v) and abs(v) <= MAX_INPUT_PU, f"finite, magnitude <= {MAX_INPUT_PU:g}")
SETTLE_BAND = 1e-3  # pu; a frequency inside it for SETTLE_HOLD_S seconds has settled
SETTLE_HOLD_S = 5.0


class ScenarioError(ValueError):
    """Malformed scenario description."""


@dataclass(frozen=True)
class StepEvent:
    channel: str
    time_s: float
    magnitude_pu: float
    duration_s: float

    def __post_init__(self):
        validate(ScenarioError, "step.", self, {
            "channel": one_of(*PROFILE_CHANNELS), "time_s": NON_NEGATIVE,
            "magnitude_pu": _INPUT, "duration_s": POSITIVE})


@dataclass(frozen=True)
class ContinuousSpec:
    seed: int = 2024
    amplitude_pu: float = 0.3
    bandwidth_hz: float = 0.05
    duration_s: float = 200.0

    def __post_init__(self):
        validate(ScenarioError, "continuous.", self, {
            "seed": count(0), "bandwidth_hz": POSITIVE, "duration_s": POSITIVE,
            "amplitude_pu": (lambda v: _INPUT[0](v) and v > 0, "positive, " + _INPUT[1])})


@dataclass(frozen=True)
class IdentificationSpec:
    """Excitation plus pipeline configuration for the data-driven model."""

    seed: int = 1234
    duration_s: float = 200.0
    amplitude_pu: float = 0.05
    hold_s: float = 1.0
    l: int = IdentifyConfig.l
    p: int = IdentifyConfig.p
    energy_threshold: float = 1.0 - 1e-7
    r_override: int | None = None
    max_feedthrough: float | None = 1e-6
    prefilter_hz: float | None = 2.0

    def __post_init__(self):
        validate(ScenarioError, "identification.", self, {
            "seed": count(0), "duration_s": POSITIVE, "amplitude_pu": POSITIVE,
            "hold_s": POSITIVE, "l": count(1), "p": count(1),
            "energy_threshold": (lambda v: finite(v) and 0 < v <= 1, "in (0, 1]"),
            "r_override": optional(count(1)), "max_feedthrough": optional(POSITIVE),
            "prefilter_hz": optional(POSITIVE)})

    def to_config(self, t_s: float) -> IdentifyConfig:
        return IdentifyConfig(
            l=self.l, p=self.p, energy_threshold=self.energy_threshold, t_s=t_s,
            r_override=self.r_override, max_feedthrough=self.max_feedthrough,
            integral_outputs=True, prefilter_hz=self.prefilter_hz,
        )


# the LQG design forms squares of its weights and noise scales (the process
# variance sigma_process**2, weight-sized products in the Riccati solve and
# its residual): past 1e±154 a square overflows or underflows, so each must
# lie within 1e±150 (a q weight may also be 0)
DESIGN_SCALE = (1e-150, 1e150)


@dataclass(frozen=True)
class ControllerSpec:
    q: tuple[float, ...] = Q_WEIGHTS
    r: tuple[float, ...] = R_WEIGHTS
    sigma_process: float = SIGMA_PROCESS
    v_meas_scale: float = V_MEAS_SCALE
    w_proc_floor: float = W_PROC_FLOOR
    kp_hvdc: float = PiSfcController.kp_hvdc
    ki_hvdc: float = PiSfcController.ki_hvdc
    kp_gen: float = PiSfcController.kp_gen
    ki_gen: float = PiSfcController.ki_gen

    def __post_init__(self):
        scale = between(*DESIGN_SCALE)
        validate(ScenarioError, "controller.", self, {
            "q": entries(N_MEASUREMENTS, between(*DESIGN_SCALE, zero=True)),
            "r": entries(N_REFERENCES, scale), "sigma_process": scale, "v_meas_scale": scale,
            "w_proc_floor": scale, "kp_hvdc": FINITE, "ki_hvdc": FINITE, "kp_gen": FINITE,
            "ki_gen": FINITE})


# document keys under "disturbance" and the Scenario fields they fill
_DISTURBANCE_KEYS = {"steps": "steps", "continuous": "continuous", "file": "disturbance_file"}


@dataclass(frozen=True)
class Scenario:
    name: str
    plant: str = "jh"
    case: int = 1
    t_s: float = IdentifyConfig.t_s
    dt: float = SUBSTEP
    duration_s: float = 60.0
    steps: tuple[StepEvent, ...] = ()
    continuous: ContinuousSpec | None = None
    disturbance_file: str | None = None
    identification: IdentificationSpec = field(default_factory=IdentificationSpec)
    controller: ControllerSpec = field(default_factory=ControllerSpec)

    def __post_init__(self):
        validate(ScenarioError, "", self, {
            # the name is a metrics.csv cell, written as it is
            "name": (lambda v: isinstance(v, str) and not set(',"\r\n') & set(v),
                     "a string with no comma, double quote or line break"),
            "plant": one_of(*PRESETS),
            "case": one_of(1, 2, 3), "t_s": POSITIVE, "dt": POSITIVE, "duration_s": POSITIVE,
            "steps": (lambda v: isinstance(v, tuple) and all(isinstance(e, StepEvent) for e in v),
                      "a tuple of StepEvent"),
            "continuous": optional(instance(ContinuousSpec, "a ContinuousSpec")),
            "disturbance_file": optional(instance(str, "a string")),
            "identification": instance(IdentificationSpec, "an IdentificationSpec"),
            "controller": instance(ControllerSpec, "a ControllerSpec")})
        ident = self.identification
        records = [("duration_s", self.duration_s), ("identification.duration_s", ident.duration_s)]
        cutoffs = [("identification.prefilter_hz", ident.prefilter_hz)]
        if self.continuous:
            records.append(("continuous.duration_s", self.continuous.duration_s))
            cutoffs.append(("continuous.bandwidth_hz", self.continuous.bandwidth_hz))
        for name, duration in records:  # NaN fails the comparison too
            if not 0 < duration / self.t_s <= MAX_SAMPLES:
                raise ScenarioError(f"{name}={duration:g} s over t_s={self.t_s:g} s must "
                                    f"give between 1 and {MAX_SAMPLES} samples")
        n_ident = sample_count(ident.duration_s, self.t_s)
        if 2 * ident.p > n_ident:  # the Hankel pair reads 2p pulse blocks
            raise ScenarioError(f"identification.p={ident.p} needs 2p={2 * ident.p} pulse "
                                f"blocks, more than the {n_ident} identification samples")
        # the regression sees every input and the non-integral half of the outputs
        v, z = len(REFERENCE_CHANNELS + DISTURBANCE_CHANNELS), len(OUTPUT_CHANNELS) // 2
        needed = observer_samples(ident.l, v, z)
        if needed > n_ident:
            raise ScenarioError(f"identification.l={ident.l} needs {needed} samples, more "
                                f"than the {n_ident} identification samples")
        for name, value, array, size in (
                ("l", ident.l, "observer triangle", observer_triangle_bytes(ident.l, v, z)),
                ("p", ident.p, "Hankel pair", hankel_bytes(ident.p, v, z))):
            if size > MAX_ARRAY_BYTES:
                raise ScenarioError(f"identification.{name}={value} needs a {size}-byte "
                                    f"{array}, more than the {MAX_ARRAY_BYTES}-byte limit")
        if self.continuous and self.continuous.duration_s < self.duration_s:
            raise ScenarioError(f"continuous.duration_s={self.continuous.duration_s:g} s "
                                f"must cover duration_s={self.duration_s:g} s")
        nyquist = 0.5 / self.t_s
        for name, hz in cutoffs:
            if hz is not None and hz >= nyquist:
                raise ScenarioError(f"{name}={hz:g} Hz must be below the Nyquist "
                                    f"frequency {nyquist:g} Hz of t_s={self.t_s:g} s")
        sources = sum(bool(x) for x in (self.steps, self.continuous, self.disturbance_file))
        if sources != 1:
            raise ScenarioError("exactly one disturbance source required: "
                                "steps, continuous, or file")
        n = sample_count(self.duration_s, self.t_s)
        for ev in self.steps:
            if ev.time_s >= self.duration_s:
                raise ScenarioError(f"{ev} starts at or after the end of the run "
                                    f"(duration_s={self.duration_s})")
            k0, k1 = _step_samples(ev, self.t_s, n)
            if k1 <= k0:
                raise ScenarioError(f"{ev} covers no sample: duration_s={ev.duration_s:g} s "
                                    f"is too short at t_s={self.t_s:g} s")
        # ask the sampler, which refuses a dt that does not divide t_s or that RK4
        # cannot step, about the preset's plants: no accepted document fails there
        for case in (1, 3):
            ss = build_plant(case_plant_params(load_preset(self.plant), case)).state_space
            try:
                sample_step_matrices(ss.a, ss.b, self.t_s, self.dt,
                                     f"{self.plant} case-{case} plant")
            except PlantError as exc:
                raise ScenarioError(str(exc)) from None

    @staticmethod
    def from_json(path: str | Path) -> "Scenario":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ScenarioError(f"scenario file {path} is not JSON: {exc}") from exc
        return scenario_from_dict(raw)

    def to_json_dict(self) -> dict:
        """The JSON document ``scenario_from_dict`` reads back to this scenario."""
        d = asdict(self)
        d["disturbance"] = {key: v for key, f in _DISTURBANCE_KEYS.items() if (v := d.pop(f))}
        return d


def scenario_from_dict(raw) -> Scenario:
    """Scenario from a parsed JSON document of its fields, the disturbance source under
    ``disturbance``; any defect is a ``ScenarioError`` naming the key or field."""
    doc = object_fields(ScenarioError, raw, "scenario document",
                        ("name", "plant", "case", "t_s", "dt", "duration_s", "disturbance",
                         "identification", "controller"))
    dist = object_fields(ScenarioError, doc.pop("disturbance", {}), "disturbance",
                         tuple(_DISTURBANCE_KEYS))
    doc.update((_DISTURBANCE_KEYS[key], value) for key, value in dist.items())
    for key, cls in (("identification", IdentificationSpec), ("controller", ControllerSpec),
                     ("continuous", ContinuousSpec)):
        if key in doc:
            doc[key] = build(ScenarioError, cls, doc[key], key)
    if isinstance(doc.get("steps"), tuple):  # any other value is refused by Scenario
        doc["steps"] = tuple(build(ScenarioError, StepEvent, e, f"disturbance.steps[{i}]")
                             for i, e in enumerate(doc["steps"]))
    return build(ScenarioError, Scenario, doc, "scenario document")


def generate_continuous_profile(seed: int, amplitude_pu: float, bandwidth_hz: float,
                                duration_s: float, t_s: float) -> SignalRecord:
    """Band-limited zero-mean random profiles for load and wind variation.

    White noise through a third-order Butterworth low-pass with its
    cutoff at ``bandwidth_hz``, mean-removed, then scaled so each
    channel's peak magnitude equals ``amplitude_pu``. The bandwidth must
    be finite and lie strictly between 0 and the Nyquist frequency.
    """
    nyquist = 0.5 / t_s
    if not 0.0 < bandwidth_hz < nyquist:
        raise ScenarioError(
            f"bandwidth {bandwidth_hz} Hz must be positive and below Nyquist {nyquist} Hz")
    n = sample_count(duration_s, t_s)
    rng = np.random.default_rng(seed)
    white = rng.normal(size=(n, len(PROFILE_CHANNELS)))
    shaped = butter_lowpass_filter(white, 3, bandwidth_hz / nyquist)
    shaped -= shaped.mean(axis=0)
    peaks = np.max(np.abs(shaped), axis=0)
    peaks[peaks == 0] = 1.0
    return SignalRecord(t_s, PROFILE_CHANNELS, shaped * (amplitude_pu / peaks))


def _step_samples(ev: StepEvent, t_s: float, n: int) -> tuple[int, int]:
    """Samples ``[k0, k1)`` that a step holds on a grid of ``n`` samples of ``t_s``."""
    end = (ev.time_s + ev.duration_s) / t_s
    return int(round(ev.time_s / t_s)), n if end >= n else int(round(end))


def build_disturbance_profile(scenario: Scenario) -> SignalRecord:
    """Three-channel (load i, load r, wind) profile on the scenario grid."""
    n = sample_count(scenario.duration_s, scenario.t_s)
    if scenario.steps:
        samples = np.zeros((n, len(PROFILE_CHANNELS)))
        for ev in scenario.steps:
            k0, k1 = _step_samples(ev, scenario.t_s, n)
            samples[k0:k1, PROFILE_CHANNELS.index(ev.channel)] += ev.magnitude_pu
        return SignalRecord(scenario.t_s, PROFILE_CHANNELS, samples)
    if scenario.continuous:
        c = scenario.continuous
        profile = generate_continuous_profile(c.seed, c.amplitude_pu, c.bandwidth_hz,
                                              c.duration_s, scenario.t_s)
        return SignalRecord(scenario.t_s, PROFILE_CHANNELS, profile.samples[:n])
    try:
        record = SignalRecord.from_csv(scenario.disturbance_file)
    except ValueError as exc:
        raise ScenarioError(f"disturbance file {scenario.disturbance_file}: {exc}") from exc
    if record.channels != PROFILE_CHANNELS:
        raise ScenarioError(f"disturbance file channels {record.channels} != {PROFILE_CHANNELS}")
    if abs(record.t_s - scenario.t_s) > 1e-12:
        raise ScenarioError(f"disturbance file T_s {record.t_s} != scenario T_s {scenario.t_s}")
    if record.n_samples < n:
        raise ScenarioError("disturbance file shorter than scenario duration")
    for channel, peak in zip(PROFILE_CHANNELS, np.max(np.abs(record.samples[:n]), axis=0)):
        if peak > MAX_INPUT_PU:
            raise ScenarioError(f"disturbance file {scenario.disturbance_file}: |{channel}| "
                                f"reaches {peak:g} pu, more than {MAX_INPUT_PU:g}")
    # a copy, so the rows past the scenario's end are not kept
    return SignalRecord(scenario.t_s, PROFILE_CHANNELS, record.samples[:n].copy())


def to_plant_disturbance(profile: SignalRecord) -> SignalRecord:
    """Collapse (load i, load r, wind) into the plant's two inputs."""
    p_li = profile.channel("p_li")
    p_lr_net = profile.channel("p_lr") - profile.channel("p_w")
    return SignalRecord(profile.t_s, DISTURBANCE_CHANNELS,
                        np.column_stack([p_li, p_lr_net]))


@dataclass(frozen=True)
class ScenarioReport:
    """Metrics of one closed-loop run (per-unit unless noted)."""

    name: str
    case: int
    max_f_i: float
    max_f_r: float
    sum_max_f: float
    max_v_dc: float
    max_p_dci: float
    max_p_dcr: float
    max_p_gi: float
    max_p_gr: float
    rms_f_i: float
    rms_f_r: float
    rms_p_gi: float
    rms_p_gr: float
    settle_f_i_s: float | None
    settle_f_r_s: float | None
    disturbance_sha256: str
    trace: SignalRecord | None = None
    divergence: str | None = None  # why the run diverged; like trace, not a metric

    @property
    def sum_rms_f(self) -> float:
        return self.rms_f_i + self.rms_f_r

    @property
    def sum_rms_p_g(self) -> float:
        return self.rms_p_gi + self.rms_p_gr

    def to_json_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if k not in ("trace", "divergence")}
        d["sum_rms_f"] = self.sum_rms_f
        d["sum_rms_p_g"] = self.sum_rms_p_g
        return d


def _settling_time(signal: np.ndarray, t_s: float) -> float | None:
    """Earliest time after which |signal| stays within SETTLE_BAND for SETTLE_HOLD_S."""
    hold = max(1, int(round(SETTLE_HOLD_S / t_s)))
    # in_band[k]: in-band samples before sample k, so the hold samples
    # from k on are all in band when in_band[k + hold] - in_band[k] == hold
    in_band = np.concatenate(([0], np.cumsum(np.abs(signal) <= SETTLE_BAND)))
    starts = np.flatnonzero(in_band[hold:] - in_band[:-hold] == hold)
    return int(starts[0]) * t_s if starts.size else None


def compute_metrics(trace: SignalRecord, name: str = "", case: int = 0,
                    n_gens: tuple[int, int] = (1, 1),
                    disturbance_sha256: str = "",
                    keep_trace: bool = True) -> ScenarioReport:
    """Peak and rms metrics of a closed-loop trace.

    Generator rms values are per-generator: the aggregate trace is an
    equal N-way split, so the per-generator sum of squares equals the
    aggregate square divided by N.
    """
    if trace.n_samples == 0:
        raise ScenarioError("empty trace")
    f_i, f_r = trace.channel("f_i"), trace.channel("f_r")
    n_i, n_r = n_gens

    def rms(x):
        return float(np.sqrt(np.mean(x**2)))

    return ScenarioReport(
        name=name, case=case,
        max_f_i=float(np.max(np.abs(f_i))),
        max_f_r=float(np.max(np.abs(f_r))),
        sum_max_f=float(np.max(np.abs(f_i)) + np.max(np.abs(f_r))),
        max_v_dc=float(np.max(np.abs(trace.channel("v_dc")))),
        max_p_dci=float(np.max(np.abs(trace.channel("p_dci")))),
        max_p_dcr=float(np.max(np.abs(trace.channel("p_dcr")))),
        max_p_gi=float(np.max(np.abs(trace.channel("p_gi")))),
        max_p_gr=float(np.max(np.abs(trace.channel("p_gr")))),
        rms_f_i=rms(f_i),
        rms_f_r=rms(f_r),
        rms_p_gi=rms(trace.channel("p_gi")) / math.sqrt(n_i),
        rms_p_gr=rms(trace.channel("p_gr")) / math.sqrt(n_r),
        settle_f_i_s=_settling_time(f_i, trace.t_s),
        settle_f_r_s=_settling_time(f_r, trace.t_s),
        disturbance_sha256=disturbance_sha256,
        trace=trace if keep_trace else None,
    )


def case_plant_params(params: PlantParams, case: int) -> PlantParams:
    """Case 3 fixes the rectifier voltage: its converter loops drop out."""
    return without_rectifier_hvdc_loops(params) if case == 3 else params


def collect_identification_data(plant: ContinuousPlant, spec: IdentificationSpec,
                                t_s: float, dt: float) -> tuple[SignalRecord, SignalRecord]:
    """Excite every input channel and record the sampled outputs."""
    channels = REFERENCE_CHANNELS + DISTURBANCE_CHANNELS
    excitation = generate_excitation(spec.seed, channels, t_s, spec.duration_s,
                                     spec.amplitude_pu, spec.hold_s)
    refs = excitation.select(list(REFERENCE_CHANNELS))
    dist = excitation.select(list(DISTURBANCE_CHANNELS))
    trace = simulate(plant, refs, dist, dt=dt)
    return excitation, trace.select(list(OUTPUT_CHANNELS))


def identify_plant_model(plant: ContinuousPlant, spec: IdentificationSpec,
                         t_s: float, dt: float) -> tuple[EraReport, StateSpace]:
    u, y = collect_identification_data(plant, spec, t_s, dt)
    return identify(u, y, spec.to_config(t_s))


@contextmanager
def stage(name: str):
    """Run a block as the named stage of a run: any error in it but a
    ``ScenarioError`` becomes one, ``<name> stage failed (<type>): <message>``."""
    try:
        yield
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"{name} stage failed ({type(exc).__name__}): {exc}") from exc


def build_controller(scenario: Scenario, case: int, plant: ContinuousPlant):
    """Case 1: LQG on the model identified from ``plant``, in an identification
    and a controller stage. Cases 2-3: PI baselines."""
    c = scenario.controller
    if case != 1:
        return PiSfcController(kp_hvdc=c.kp_hvdc, ki_hvdc=c.ki_hvdc, kp_gen=c.kp_gen,
                               ki_gen=c.ki_gen, inverter_only=(case == 3))
    with stage("identification"):
        _, model = identify_plant_model(plant, scenario.identification, scenario.t_s, scenario.dt)
    with stage("controller"):
        return make_lqg(model, q=c.q, r=c.r, sigma_process=c.sigma_process, substep=scenario.dt,
                        v_meas_scale=c.v_meas_scale, w_proc_floor=c.w_proc_floor)


def _run_case(scenario: Scenario, case: int, name: str, params: PlantParams,
              w: SignalRecord, keep_trace: bool) -> ScenarioReport:
    """Case ``case`` of the scenario, reported as ``name``, on the plant from
    ``params`` (case 3 drops its rectifier loops here) under the plant
    disturbance ``w``, which every case of a run shares; a diverging closed
    loop gives all-inf metrics."""
    with stage("plant"):
        params = case_plant_params(params, case)
        plant = build_plant(params)
    controller = build_controller(scenario, case, plant)
    fingerprint = hashlib.sha256(w.samples.tobytes()).hexdigest()
    with stage("closed-loop"):
        try:
            trace = closed_loop(plant, controller, w, dt=scenario.dt)
        except SimulationDivergence as exc:
            # fixed-gain PI baselines can lose stability once the converter
            # droop/inertia loops are stripped; record that outcome as inf
            inf = {c: math.inf for c in METRIC_COLUMNS if c not in ("sum_rms_f", "sum_rms_p_g")}
            return ScenarioReport(name, case, **inf, settle_f_i_s=None, settle_f_r_s=None,
                                  disturbance_sha256=fingerprint, divergence=str(exc))
    return compute_metrics(trace, name=name, case=case, n_gens=(params.N_i, params.N_r),
                           disturbance_sha256=fingerprint, keep_trace=keep_trace)


METRIC_COLUMNS = (
    "max_f_i", "max_f_r", "sum_max_f", "max_v_dc",
    "max_p_dci", "max_p_dcr", "max_p_gi", "max_p_gr",
    "rms_f_i", "rms_f_r", "sum_rms_f", "rms_p_gi", "rms_p_gr", "sum_rms_p_g",
)


@dataclass(frozen=True)
class ComparisonTable:
    """Per-case metric values plus percent reductions of case 1."""

    rows: tuple[dict, ...]
    reductions: tuple[dict, ...]

    def to_csv_text(self) -> str:
        """The metric rows, a blank line, then the reduction rows."""
        def section(first, rows):
            return csv_text((first, *METRIC_COLUMNS),
                            [[row["case"], *(row[c] for c in METRIC_COLUMNS)] for row in rows])
        return section("case", self.rows) + "\n" + section("reduction_vs_case", self.reductions)

    def to_text(self) -> str:
        # 12: one more than the longest column name, so the header splits
        cells = _right_aligned([list(METRIC_COLUMNS)]
                               + [[f"{row[c]:.5f}" for c in METRIC_COLUMNS] for row in self.rows]
                               + [[f"{row[c]:.1f}" for c in METRIC_COLUMNS]
                                  for row in self.reductions], 12)
        labels = (["case"] + [str(row["case"]) for row in self.rows]
                  + [f"vs {row['case']}" for row in self.reductions])
        lines = [label.ljust(6) + text for label, text in zip(labels, cells)]
        n = 1 + len(self.rows)
        lines[n:n] = ["", "percent reduction of case 1 versus each baseline:"]
        return "\n".join(lines) + "\n"


def _right_aligned(rows: list[list[str]], width: int) -> list[str]:
    """Each row's cells right-aligned in columns of ``width`` characters, or of
    one more than the column's longest cell, so adjacent cells never touch."""
    widths = [max(width, 1 + max(map(len, column))) for column in zip(*rows)]
    return ["".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def compare_cases(reports: list[ScenarioReport]) -> ComparisonTable:
    """Tabulate metrics across cases run on the same disturbance."""
    if len(reports) < 2:
        raise ScenarioError("need at least two reports to compare")
    prints = {r.disturbance_sha256 for r in reports}
    if len(prints) != 1:
        raise ScenarioError("reports were produced on different disturbances")

    reports = sorted(reports, key=lambda r: r.case)
    for r in reports:
        if r.divergence is not None:
            raise ScenarioError(f"case {r.case}: the closed loop diverged: {r.divergence}")
        bad = [c for c in METRIC_COLUMNS if not math.isfinite(getattr(r, c))]
        if bad:
            raise ScenarioError(f"case {r.case} has non-finite metrics "
                                f"({', '.join(bad)}); its closed loop diverged")
    rows = tuple({**{c: getattr(r, c) for c in METRIC_COLUMNS}, "case": r.case} for r in reports)
    case1 = next((row for row in rows if row["case"] == 1), None)
    reductions = tuple(
        {"case": row["case"],
         **{c: 100.0 * (row[c] - case1[c]) / row[c] if row[c] != 0 else 0.0
            for c in METRIC_COLUMNS}}
        for row in rows if case1 is not None and row["case"] != 1)
    return ComparisonTable(rows=rows, reductions=reductions)


def run_cases(scenario: Scenario, cases=(1, 2, 3), keep_trace: bool = True) -> list[ScenarioReport]:
    """The given cases on one disturbance, built (a file read) once."""
    with stage("disturbance"):
        w = to_plant_disturbance(build_disturbance_profile(scenario))
    params = load_preset(scenario.plant)
    return [_run_case(scenario, c, scenario.name, params, w, keep_trace) for c in cases]


def run_scenario(scenario: Scenario, keep_trace: bool = True) -> ScenarioReport:
    """Execute the scenario's case end to end; deterministic given the scenario.
    A diverging closed loop gives all-inf metrics and no trace."""
    return run_cases(scenario, (scenario.case,), keep_trace)[0]


SWEEP_CONDITIONS = ("baseline", "no_pfc", "no_ire_no_pfc", "cigre")


def run_sweep(scenario: Scenario, conditions=SWEEP_CONDITIONS) -> dict[str, list[ScenarioReport]]:
    """Re-run the three cases under modified converter-loop conditions.

    The condition only changes the plant; each case keeps its own
    controller design flow (case 1 re-identifies the modified plant).
    Every case runs on one disturbance, built (a file read) once.
    A case whose closed loop diverges gives an all-inf report.
    """
    base = load_preset(scenario.plant)
    with stage("disturbance"):
        w = to_plant_disturbance(build_disturbance_profile(scenario))
    variants = {"baseline": base, "no_pfc": without_hvdc_droops(base),
                "no_ire_no_pfc": without_hvdc_droops_and_ire(base),
                "cigre": load_preset("cigre")}
    out: dict[str, list[ScenarioReport]] = {}
    for condition in conditions:
        if condition not in variants:
            raise ScenarioError(f"unknown sweep condition {condition!r}; have {SWEEP_CONDITIONS}")
        name = f"{scenario.name}[{condition}]"
        out[condition] = [_run_case(scenario, case, name, variants[condition], w,
                                    keep_trace=False) for case in (1, 2, 3)]
    return out


SWEEP_COLUMNS = ("rms_f_i", "rms_f_r", "sum_rms_f", "rms_p_gi", "rms_p_gr", "sum_rms_p_g")


def sweep_table_text(results: dict[str, list[ScenarioReport]]) -> str:
    rows = [(condition, r) for condition, reports in results.items()
            for r in sorted(reports, key=lambda r: r.case)]
    cells = _right_aligned([["rms_f_i", "rms_f_r", "sum", "rms_p_gi", "rms_p_gr", "sum"]]
                           + [[f"{getattr(r, c):.5f}" for c in SWEEP_COLUMNS] for _, r in rows], 10)
    labels = [f"{'condition':<16}{'case':<6}"] + [f"{c:<16}{r.case:<6}" for c, r in rows]
    return "".join(label + text + "\n" for label, text in zip(labels, cells))


def sweep_table_csv(results: dict[str, list[ScenarioReport]]) -> str:
    return csv_text(("condition", "case", *SWEEP_COLUMNS),
                    [[condition, r.case, *(getattr(r, c) for c in SWEEP_COLUMNS)]
                     for condition, reports in results.items()
                     for r in sorted(reports, key=lambda r: r.case)])
