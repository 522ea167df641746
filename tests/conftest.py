import os

# one BLAS/OpenMP thread unless the caller set a count, as importing hvdcfr
# does; it must be in place before numpy loads, which this file does first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from hvdcfr.plant import (
    DISTURBANCE_CHANNELS,
    OUTPUT_CHANNELS,
    REFERENCE_CHANNELS,
    build_plant,
    load_preset,
    simulate,
)
from hvdcfr.signals import SignalRecord
from hvdcfr.statespace import StateSpace
from hvdcfr.sysid import IdentifyConfig, generate_excitation, identify


def random_stable_discrete(rng, n, v, z, radius=0.9, dt=0.1):
    """Random asymptotically stable discrete-time system with no feedthrough."""
    a = rng.normal(size=(n, n))
    rho = max(abs(np.linalg.eigvals(a)))
    a *= radius / rho * rng.uniform(0.6, 1.0)
    b = rng.normal(size=(n, v))
    c = rng.normal(size=(z, n))
    return StateSpace(a=a, b=b, c=c, d=np.zeros((z, v)), dt=dt)


def random_stable_continuous(rng, n, v=1, z=1):
    a = rng.normal(size=(n, n))
    a -= (max(np.linalg.eigvals(a).real) + rng.uniform(0.5, 1.5)) * np.eye(n)
    return StateSpace(a=a, b=rng.normal(size=(n, v)), c=rng.normal(size=(z, n)),
                      d=np.zeros((z, v)), dt=None)


def collect_jh_data(plant, seed=1234, t_s=0.1, noise=0.0, noise_rng=None):
    exc = generate_excitation(seed, REFERENCE_CHANNELS + DISTURBANCE_CHANNELS,
                              t_s, 200.0, 0.05, 1.0)
    refs = exc.select(list(REFERENCE_CHANNELS))
    dist = exc.select(list(DISTURBANCE_CHANNELS))
    trace = simulate(plant, refs, dist, dt=0.001)
    ys = trace.select(list(OUTPUT_CHANNELS)).samples.copy()
    if noise > 0:
        ys += noise_rng.normal(scale=noise, size=ys.shape)
    u = SignalRecord(t_s, REFERENCE_CHANNELS + DISTURBANCE_CHANNELS,
                     np.hstack([refs.samples, dist.samples]))
    return u, SignalRecord(t_s, OUTPUT_CHANNELS, ys)


@pytest.fixture(scope="session")
def jh_params():
    return load_preset("jh")


@pytest.fixture(scope="session")
def jh_plant(jh_params):
    return build_plant(jh_params)


@pytest.fixture(scope="session")
def jh_id_data(jh_plant):
    return collect_jh_data(jh_plant)


@pytest.fixture(scope="session")
def jh_identified(jh_id_data):
    u, y = jh_id_data
    cfg = IdentifyConfig(integral_outputs=True, energy_threshold=1 - 1e-7,
                         max_feedthrough=1e-6, prefilter_hz=2.0)
    return identify(u, y, cfg)
