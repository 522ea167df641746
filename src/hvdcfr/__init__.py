"""Data-driven frequency regulation for HVDC-linked grids.

A small-signal truth plant of two grids coupled by a line-commutated
HVDC link, pulse-response identification of a reduced model from I/O
records, an LQG secondary-frequency regulator designed on that model,
and a scenario harness comparing it against conventional PI baselines.

Importing ``hvdcfr`` before numpy makes one BLAS/OpenMP thread the default:
OpenBLAS reads its thread count once, when it loads, and on small machines
a second thread slows the dense kernels here and changes the last bits of
their results. A count the caller set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .control import (
    ControlDesignError,
    GainDesign,
    LqgController,
    PiSfcController,
    closed_loop,
    design_kalman,
    design_lqr,
    make_lqg,
)
from .harness import (
    ComparisonTable,
    ContinuousSpec,
    ControllerSpec,
    IdentificationSpec,
    Scenario,
    ScenarioError,
    ScenarioReport,
    StepEvent,
    compare_cases,
    compute_metrics,
    generate_continuous_profile,
    run_cases,
    run_scenario,
    run_sweep,
)
from .numerics import (
    NumericsError,
    SvdResult,
    eig_real_parts,
    mat_exp,
    mat_log_principal,
    reduced_qr,
    solve_care,
    svd,
)
from .plant import (
    ContinuousPlant,
    PlantError,
    PlantParams,
    SimulationDivergence,
    build_plant,
    dc_gain,
    load_preset,
    simulate,
)
from .signals import SignalRecord
from .statespace import StateSpace, discretize_zoh
from .sysid import (
    EraReport,
    IdentificationError,
    IdentifyConfig,
    MarkovSequence,
    ObserverMarkov,
    build_hankel,
    era_realize,
    estimate_observer_markov,
    generate_excitation,
    identify,
    recover_system_markov,
    to_continuous,
)

__version__ = "0.1.0"
