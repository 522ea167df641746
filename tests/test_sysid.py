import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvdcfr import sysid
from hvdcfr.harness import IdentificationSpec, collect_identification_data
from hvdcfr.numerics import svd as numerics_svd
from hvdcfr.plant import OUTPUT_CHANNELS, build_plant, load_preset, without_hvdc_droops_and_ire
from hvdcfr.signals import SignalRecord
from hvdcfr.statespace import StateSpace, discretize_zoh, markov_parameters, simulate_discrete, step_response
from hvdcfr.sysid import (
    IdentificationError,
    IdentifyConfig,
    MarkovSequence,
    ObserverMarkov,
    _prefilter,
    augment_with_output_integrators,
    build_hankel,
    era_realize,
    estimate_observer_markov,
    generate_excitation,
    identify,
    recover_system_markov,
    to_continuous,
)

from conftest import collect_jh_data, random_stable_discrete, random_stable_continuous


def io_records(ss, u_samples, t_s=0.1):
    u = SignalRecord(t_s, tuple(f"u{i}" for i in range(ss.n_inputs)), u_samples)
    y = SignalRecord(t_s, tuple(f"y{i}" for i in range(ss.n_outputs)), simulate_discrete(ss, u_samples))
    return u, y


class TestExcitation:
    def test_deterministic(self):
        a = generate_excitation(7, ("a", "b"), 0.1, 10.0, 0.05, 1.0)
        b = generate_excitation(7, ("a", "b"), 0.1, 10.0, 0.05, 1.0)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_holds_and_amplitude(self):
        rec = generate_excitation(3, ("a",), 0.1, 20.0, 0.05, 1.0)
        assert np.max(np.abs(rec.samples)) <= 0.05
        # each 1 s hold spans 10 identical samples
        block = rec.samples[:10, 0]
        assert np.all(block == block[0])


class TestObserverMarkov:
    def test_zero_output_gives_zero_parameters(self):
        rng = np.random.default_rng(0)
        u = SignalRecord(0.1, ("u0",), rng.normal(size=(400, 1)))
        y = SignalRecord(0.1, ("y0",), np.zeros((400, 1)))
        obs = estimate_observer_markov(u, y, l=4)
        assert np.max(np.abs(obs.feedthrough)) < 1e-12
        for part_in, part_out in obs.blocks:
            assert np.max(np.abs(part_in)) < 1e-12
            assert np.max(np.abs(part_out)) < 1e-12

    def test_memoryless_system_recovers_feedthrough(self):
        rng = np.random.default_rng(1)
        d = np.array([[2.0, -1.0], [0.5, 3.0]])
        u_samples = rng.normal(size=(600, 2))
        u = SignalRecord(0.1, ("u0", "u1"), u_samples)
        y = SignalRecord(0.1, ("y0", "y1"), u_samples @ d.T)
        obs = estimate_observer_markov(u, y, l=5)
        np.testing.assert_allclose(obs.feedthrough, d, atol=1e-8)
        markov = recover_system_markov(obs, 10)
        for block in markov.pulse_blocks:
            assert np.max(np.abs(block)) < 1e-8

    def test_known_system_markov_recovery(self):
        rng = np.random.default_rng(2)
        ss = random_stable_discrete(rng, 4, 2, 2)
        u, y = io_records(ss, rng.normal(size=(800, 2)))
        obs = estimate_observer_markov(u, y, l=20)
        markov = recover_system_markov(obs, 20)
        truth = markov_parameters(ss, 20)
        for k in range(20):
            scale = max(1e-12, np.linalg.norm(truth[k + 1]))
            assert np.linalg.norm(markov.pulse_blocks[k] - truth[k + 1]) / scale < 1e-6

    def test_record_length_guard(self):
        u = SignalRecord(0.1, ("u0",), np.ones((10, 1)))
        y = SignalRecord(0.1, ("y0",), np.ones((10, 1)))
        with pytest.raises(IdentificationError, match="record too short"):
            estimate_observer_markov(u, y, l=5)

    def test_zero_excitation_rejected(self):
        u = SignalRecord(0.1, ("u0",), np.zeros((400, 1)))
        y = SignalRecord(0.1, ("y0",), np.zeros((400, 1)))
        with pytest.raises(IdentificationError, match="excitation"):
            estimate_observer_markov(u, y, l=4)


class TestRecovery:
    def test_feedthrough_only(self):
        d = np.array([[1.5]])
        obs = ObserverMarkov(t_s=0.1, feedthrough=d,
                             blocks=[(np.zeros((1, 1)), np.zeros((1, 1))) for _ in range(5)])
        markov = recover_system_markov(obs, 8)
        np.testing.assert_allclose(markov.feedthrough, d)
        assert all(np.all(b == 0.0) for b in markov.pulse_blocks)

    def test_scalar_geometric_sequence(self):
        # a=0.5, b=c=1, d=0: pulse response 0.5^(k-1)
        rng = np.random.default_rng(3)
        ss = StateSpace(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]], dt=0.1)
        u, y = io_records(ss, rng.normal(size=(500, 1)))
        obs = estimate_observer_markov(u, y, l=10)
        markov = recover_system_markov(obs, 15)
        for k, block in enumerate(markov.pulse_blocks, start=1):
            assert block[0, 0] == pytest.approx(0.5 ** (k - 1), abs=1e-6)

    def test_linearity_in_input_part(self):
        rng = np.random.default_rng(4)
        blocks = [(rng.normal(size=(2, 2)), np.zeros((2, 2))) for _ in range(4)]
        obs1 = ObserverMarkov(0.1, np.zeros((2, 2)), blocks)
        obs2 = ObserverMarkov(0.1, np.zeros((2, 2)),
                              [(2.0 * bi, bo) for bi, bo in blocks])
        m1 = recover_system_markov(obs1, 8)
        m2 = recover_system_markov(obs2, 8)
        for b1, b2 in zip(m1.pulse_blocks, m2.pulse_blocks):
            np.testing.assert_allclose(b2, 2.0 * b1, atol=1e-14)


def explicit_recursion(obs, m):
    """Y_k = Ybar1_k + sum_i Ybar2_i Y_{k-i}, one block product at a time."""
    seq = [obs.feedthrough]
    for k in range(1, m + 1):
        total = obs.blocks[k - 1][0].copy() if k <= len(obs) else np.zeros_like(obs.feedthrough)
        for i in range(1, min(k, len(obs)) + 1):
            total += obs.blocks[i - 1][1] @ seq[k - i]
        seq.append(total)
    return np.array(seq[1:])


class TestRecoveryAgainstRecursion:
    @pytest.mark.parametrize("m", [5, 12, 40])  # m < l, m = l, m > l for l = 12
    def test_random_observer(self, m):
        rng = np.random.default_rng(m)
        z, v, l = 3, 5, 12
        blocks = [(rng.normal(size=(z, v)), rng.normal(size=(z, z)) / (2.0 * z))
                  for _ in range(l)]
        obs = ObserverMarkov(0.1, rng.normal(size=(z, v)), blocks)
        ref = explicit_recursion(obs, m)
        markov = recover_system_markov(obs, m)
        assert markov.pulse_blocks.shape == (m, z, v)
        np.testing.assert_array_equal(markov.feedthrough, obs.feedthrough)
        assert np.max(np.abs(markov.pulse_blocks - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [10, 30, 200])  # l = 30
    def test_jh_record(self, jh_id_data, m):
        u, y = jh_id_data
        obs = estimate_observer_markov(u, y.select(list(OUTPUT_CHANNELS[:3])), l=30)
        ref = explicit_recursion(obs, m)
        got = recover_system_markov(obs, m).pulse_blocks
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def markov_from_system(ss, count):
    blocks = markov_parameters(ss, count)
    return MarkovSequence(t_s=ss.dt, feedthrough=blocks[0], pulse_blocks=blocks[1:])


class TestHankel:
    def test_degenerate_size_one(self):
        rng = np.random.default_rng(5)
        ss = random_stable_discrete(rng, 3, 2, 2)
        markov = markov_from_system(ss, 2)
        h, h_shift = build_hankel(markov, p=1)
        np.testing.assert_allclose(h, markov.pulse_blocks[0])
        np.testing.assert_allclose(h_shift, markov.pulse_blocks[1])

    def test_rank_equals_true_order(self):
        rng = np.random.default_rng(6)
        ss = random_stable_discrete(rng, 5, 2, 3)
        markov = markov_from_system(ss, 24)
        h, _ = build_hankel(markov, p=12)
        s = np.linalg.svd(h, compute_uv=False)
        assert int(np.sum(s > 1e-8 * s[0])) == 5

    def test_anti_diagonal_blocks_constant(self):
        rng = np.random.default_rng(7)
        ss = random_stable_discrete(rng, 3, 2, 2)
        markov = markov_from_system(ss, 12)
        h, _ = build_hankel(markov, p=6)
        z, v = 2, 2
        for i in range(5):
            for j in range(1, 6):
                np.testing.assert_array_equal(
                    h[i * z:(i + 1) * z, j * v:(j + 1) * v],
                    h[(i + 1) * z:(i + 2) * z, (j - 1) * v:j * v],
                )

    def test_insufficient_blocks_error(self):
        rng = np.random.default_rng(8)
        ss = random_stable_discrete(rng, 3, 2, 2)
        markov = markov_from_system(ss, 6)
        with pytest.raises(IdentificationError, match="need at least"):
            build_hankel(markov, p=5)

    def test_one_missing_block_is_refused(self):
        rng = np.random.default_rng(9)
        ss = random_stable_discrete(rng, 3, 2, 2)
        markov = markov_from_system(ss, 9)  # 2p-1 for p=5
        with pytest.raises(IdentificationError, match="need at least 10 pulse-response blocks"):
            build_hankel(markov, p=5)


class TestEra:
    def test_exact_three_state_poles(self):
        rng = np.random.default_rng(10)
        ss = random_stable_discrete(rng, 3, 2, 2)
        markov = markov_from_system(ss, 20)
        h, h_shift = build_hankel(markov, p=10)
        report = era_realize(h, h_shift, z=2, v=2, energy_threshold=0.999,
                             feedthrough=markov.feedthrough, t_s=ss.dt)
        assert report.retained_order == 3
        got = np.sort_complex(np.linalg.eigvals(report.realized.a))
        want = np.sort_complex(np.linalg.eigvals(ss.a))
        assert np.max(np.abs(got - want)) < 1e-7

    def test_full_rank_override_reproduces_markov(self):
        rng = np.random.default_rng(11)
        ss = random_stable_discrete(rng, 4, 2, 2)
        markov = markov_from_system(ss, 20)
        h, h_shift = build_hankel(markov, p=10)
        report = era_realize(h, h_shift, 2, 2, r_override=4,
                             feedthrough=markov.feedthrough, t_s=ss.dt)
        realized = markov_parameters(report.realized, 19)
        truth = markov_parameters(ss, 19)
        for got, want in zip(realized, truth):
            assert np.max(np.abs(got - want)) < 1e-9

    def test_truncation_monotonicity(self):
        rng = np.random.default_rng(12)
        ss = random_stable_discrete(rng, 6, 2, 2)
        markov = markov_from_system(ss, 24)
        h, h_shift = build_hankel(markov, p=12)
        prev_energy = 0.0
        prev_err = np.inf
        truth = markov_parameters(ss, 23)
        for r in range(1, 7):
            report = era_realize(h, h_shift, 2, 2, r_override=r,
                                 feedthrough=markov.feedthrough, t_s=ss.dt)
            assert report.cumulative_energy_at_r >= prev_energy
            prev_energy = report.cumulative_energy_at_r
            realized = markov_parameters(report.realized, 23)
            err = max(np.linalg.norm(g - w) for g, w in zip(realized, truth))
            assert err <= prev_err + 1e-9
            prev_err = err

    @pytest.mark.parametrize("seed", [14, 15, 16])
    def test_lower_orders_are_leading_slices(self, seed):
        rng = np.random.default_rng(seed)
        ss = random_stable_discrete(rng, 6, 2, 3)
        markov = markov_from_system(ss, 24)
        h, h_shift = build_hankel(markov, p=12)
        full = era_realize(h, h_shift, 3, 2, r_override=6, t_s=ss.dt).realized
        for r in range(1, 6):
            low = era_realize(h, h_shift, 3, 2, r_override=r, t_s=ss.dt).realized
            for got, want in ((full.a[:r, :r], low.a), (full.b[:r], low.b), (full.c[:, :r], low.c)):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_model_keeps_no_hankel_sized_array(self):
        rng = np.random.default_rng(17)
        ss = random_stable_discrete(rng, 4, 2, 3)
        markov = markov_from_system(ss, 40)
        h, h_shift = build_hankel(markov, p=20)
        realized = era_realize(h, h_shift, 3, 2, r_override=4, t_s=ss.dt).realized
        for arr in (realized.a, realized.b, realized.c):
            assert (arr if arr.base is None else arr.base).nbytes == arr.nbytes

    def test_zero_hankel_rejected(self):
        with pytest.raises(IdentificationError, match="achievable energy"):
            era_realize(np.zeros((4, 4)), np.zeros((4, 4)), 2, 2)

    def test_report_json_round_trip(self):
        rng = np.random.default_rng(13)
        ss = random_stable_discrete(rng, 3, 2, 2)
        markov = markov_from_system(ss, 20)
        h, h_shift = build_hankel(markov, p=10)
        report = era_realize(h, h_shift, 2, 2, feedthrough=markov.feedthrough, t_s=ss.dt)
        loaded = json.loads(json.dumps(report.to_json_dict()))
        assert loaded["retained_order"] == report.retained_order
        assert len(loaded["singular_values"]) == len(report.singular_values)
        cum = loaded["cumulative_energy"]
        assert all(b >= a - 1e-15 for a, b in zip(cum, cum[1:]))
        assert cum[-1] == pytest.approx(1.0)


class TestToContinuous:
    def test_sampled_integrator_series_path(self):
        # A_d = I with B_d = T_s b comes from a pure integrator bank
        t_s = 0.1
        dss = StateSpace(a=np.eye(2), b=t_s * np.array([[1.0], [2.0]]),
                         c=np.eye(2), d=np.zeros((2, 1)), dt=t_s)
        cont = to_continuous(dss)
        np.testing.assert_allclose(cont.a, np.zeros((2, 2)), atol=1e-9)
        np.testing.assert_allclose(cont.b, [[1.0], [2.0]], atol=1e-9)

    def test_round_trip_random_stable(self):
        rng = np.random.default_rng(14)
        cs = random_stable_continuous(rng, 5, v=2, z=2)
        back = to_continuous(discretize_zoh(cs, 0.05))
        assert np.linalg.norm(back.a - cs.a) / np.linalg.norm(cs.a) < 1e-6
        assert np.linalg.norm(back.b - cs.b) / np.linalg.norm(cs.b) < 1e-6

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_zoh_round_trip_returns_the_model(self, seed, n, v, z):
        cs = random_stable_continuous(np.random.default_rng(seed), n, v=v, z=z)
        back = to_continuous(discretize_zoh(cs, 0.1))
        assert np.linalg.norm(back.a - cs.a) <= 1e-12 * np.linalg.norm(cs.a)
        assert np.linalg.norm(back.b - cs.b) <= 1e-12 * np.linalg.norm(cs.b)

    def test_spectral_mapping(self):
        rng = np.random.default_rng(15)
        cs = random_stable_continuous(rng, 4, v=1, z=1)
        t_s = 0.05
        dss = discretize_zoh(cs, t_s)
        cont = to_continuous(dss)
        lhs = np.sort_complex(np.exp(np.linalg.eigvals(cont.a) * t_s))
        rhs = np.sort_complex(np.linalg.eigvals(dss.a))
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_rediscretization_recovers(self):
        rng = np.random.default_rng(16)
        cs = random_stable_continuous(rng, 4, v=2, z=2)
        dss = discretize_zoh(cs, 0.1)
        cont = to_continuous(dss)
        dss2 = discretize_zoh(cont, 0.1)
        assert np.linalg.norm(dss2.a - dss.a) / np.linalg.norm(dss.a) < 1e-6
        assert np.linalg.norm(dss2.b - dss.b) / np.linalg.norm(dss.b) < 1e-6

    def test_negative_axis_pole_rejected(self):
        dss = StateSpace(a=[[-0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]], dt=0.1)
        with pytest.raises(IdentificationError, match="T_s"):
            to_continuous(dss)


class TestAugmentation:
    def test_integrators_are_exact(self):
        rng = np.random.default_rng(17)
        cs = random_stable_continuous(rng, 3, v=2, z=2)
        aug = augment_with_output_integrators(cs)
        assert aug.n_states == 5
        assert aug.n_outputs == 4
        # appended states integrate the original outputs and never feed back
        np.testing.assert_array_equal(aug.a[:3, 3:], np.zeros((3, 2)))
        np.testing.assert_array_equal(aug.a[3:, :3], cs.c)
        eigs = np.linalg.eigvals(aug.a)
        assert np.sum(np.abs(eigs) < 1e-12) == 2


class TestIdentifyPipeline:
    def test_okid_exactness_property(self):
        # noise-free data from stable systems of order <= l reproduce
        # every pulse block within 1e-6 relative
        rng = np.random.default_rng(18)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            v = z = int(rng.integers(2, 4))
            ss = random_stable_discrete(rng, n, v, z)
            u, y = io_records(ss, rng.normal(size=(900, v)))
            obs = estimate_observer_markov(u, y, l=15)
            markov = recover_system_markov(obs, 40)
            truth = markov_parameters(ss, 40)
            scale = max(np.linalg.norm(b) for b in truth[1:])
            for k in range(40):
                assert np.linalg.norm(markov.pulse_blocks[k] - truth[k + 1]) / scale < 1e-6

    def test_hsv_tail_vanishes_beyond_true_order(self):
        rng = np.random.default_rng(19)
        ss = random_stable_discrete(rng, 4, 2, 2)
        u, y = io_records(ss, rng.normal(size=(900, 2)))
        obs = estimate_observer_markov(u, y, l=15)
        markov = recover_system_markov(obs, 30)
        h, _ = build_hankel(markov, p=15)
        s = np.linalg.svd(h, compute_uv=False)
        assert np.all(s[4:] <= 1e-8 * s[0])

    def test_identify_composition_on_random_system(self):
        # a sampled continuous system keeps its poles off the negative
        # real axis, so the continuous conversion runs at full order
        rng = np.random.default_rng(20)
        cs = random_stable_continuous(rng, 4, v=3, z=3)
        ss = discretize_zoh(cs, 0.1)
        u, y = io_records(ss, rng.normal(size=(1300, 3)))
        report, cont = identify(u, y, IdentifyConfig(l=10, p=15, t_s=0.1,
                                                     energy_threshold=1 - 1e-9))
        assert report.retained_order == 4
        got = np.sort_complex(np.exp(np.linalg.eigvals(cont.a) * 0.1))
        want = np.sort_complex(np.linalg.eigvals(ss.a))
        assert np.max(np.abs(got - want)) < 1e-6

    def test_self_consistency_fixed_point(self, jh_identified):
        _, model = jh_identified
        t_s = 0.1
        exc = generate_excitation(77, tuple(f"u{i}" for i in range(6)), t_s, 200.0, 0.05, 1.0)
        dss = discretize_zoh(model, t_s)
        y = SignalRecord(t_s, OUTPUT_CHANNELS, simulate_discrete(dss, exc.samples))
        cfg = IdentifyConfig(integral_outputs=True, energy_threshold=1 - 1e-7, prefilter_hz=2.0)
        _, model2 = identify(exc, y, cfg)
        step1 = step_response(model, 4, 40.0, t_s, 0.3)
        step2 = step_response(model2, 4, 40.0, t_s, 0.3)
        assert np.max(np.abs(step1[:, :3] - step2[:, :3])) < 1e-4

    def test_feedthrough_sanity_gate(self, jh_id_data):
        u, y = jh_id_data
        cfg = IdentifyConfig(integral_outputs=True, max_feedthrough=1e-15)
        with pytest.raises(IdentificationError, match="feedthrough"):
            identify(u, y, cfg)

    def test_noise_robustness_twenty_seeds(self, jh_plant):
        # noisy records use the documented noisy-data settings: causal
        # prefilter at 2 Hz and a longer observer horizon
        rng = np.random.default_rng(7)
        cfg = IdentifyConfig(integral_outputs=True, energy_threshold=1 - 1e-7,
                             l=40, prefilter_hz=2.0)
        truth = step_response(jh_plant.state_space, 4, 40.0, 0.1, 0.3)
        worst = 0.0
        for seed in range(20):
            u, y = collect_jh_data(jh_plant, seed=1234 + seed, noise=1e-3, noise_rng=rng)
            _, model = identify(u, y, cfg)
            got = step_response(model, 4, 40.0, 0.1, 0.3)
            for ch in range(3):
                err = got[:, ch] - truth[:, ch]
                nrmse = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(truth[:, ch] ** 2))
                worst = max(worst, nrmse)
        assert worst < 0.05

    def test_shedding_slices_one_svd(self, monkeypatch):
        # a noisy record whose 30-state realization sheds to 15 states
        # before its logarithm stays on the principal branch
        spec = IdentificationSpec(seed=20002)
        truth = build_plant(without_hvdc_droops_and_ire(load_preset("jh")))
        u, y = collect_identification_data(truth, spec, 0.1, 0.001)
        noise = np.random.default_rng(20002).normal(scale=1e-3, size=y.samples.shape)
        y = SignalRecord(y.t_s, y.channels, y.samples + noise)
        calls = {"svd": 0, "era": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sysid, "svd", counted("svd", sysid.svd))
        monkeypatch.setattr(sysid, "era_realize", counted("era", sysid.era_realize))
        cfg = IdentifyConfig(l=40, energy_threshold=1 - 1e-7, integral_outputs=True,
                             prefilter_hz=2.0, r_override=30)
        report, model = identify(u, y, cfg)
        assert calls == {"svd": 1, "era": 1}
        assert (report.threshold_order, report.retained_order) == (30, 15)
        assert report.realized.n_states == 15 and model.n_states == 18
        assert report.cumulative_energy_at_r == report.cumulative_energy[14]

    def test_decisions_are_data_not_warnings(self, jh_id_data):
        u, y = jh_id_data
        cfg = IdentifyConfig(integral_outputs=True, energy_threshold=1 - 1e-7,
                             max_feedthrough=1e-6, prefilter_hz=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = identify(u, y, cfg)
        assert report.regressor_rank == 204
        assert report.threshold_order == report.retained_order
        assert report.to_json_dict()["regressor_rank"] == 204

    def test_feedthrough_norm_is_reported(self):
        rng = np.random.default_rng(8)
        ss = StateSpace(a=np.diag([0.9, 0.6, 0.3]), b=rng.normal(size=(3, 2)),
                        c=rng.normal(size=(2, 3)), d=[[0.3, -0.1], [0.2, 0.4]], dt=0.1)
        u, y = io_records(ss, rng.normal(size=(600, 2)))
        report, _ = identify(u, y, IdentifyConfig(l=6, p=10, r_override=3))
        assert report.feedthrough_norm == pytest.approx(np.linalg.norm(ss.d, "fro"), rel=1e-8)
        assert report.to_json_dict()["feedthrough_norm"] == report.feedthrough_norm

    def test_config_sample_time_must_match_the_record(self):
        # ERA and the logarithm use config.t_s while the prefilter uses the
        # record's: a mismatch would scale every identified pole silently
        rng = np.random.default_rng(8)
        ss = StateSpace(a=np.diag([0.9, 0.6, 0.3]), b=rng.normal(size=(3, 2)),
                        c=rng.normal(size=(2, 3)), d=np.zeros((2, 2)), dt=0.05)
        u, y = io_records(ss, rng.normal(size=(600, 2)), t_s=0.05)
        with pytest.raises(IdentificationError, match=r"config T_s 0\.1 != record T_s 0\.05"):
            identify(u, y, IdentifyConfig(l=6, p=10, r_override=3, t_s=0.1))
        report, _ = identify(u, y, IdentifyConfig(l=6, p=10, r_override=3, t_s=0.05))
        assert report.realized.dt == 0.05

    def test_d2c_round_trip_under_default_config(self, jh_identified):
        _, model = jh_identified
        dss = discretize_zoh(model, 0.1)
        back = to_continuous(dss)
        assert np.linalg.norm(back.a - model.a) <= 1e-6 * max(1.0, np.linalg.norm(model.a))
        assert np.linalg.norm(back.b - model.b) <= 1e-6 * max(1.0, np.linalg.norm(model.b))


class TestPrefilter:
    @pytest.mark.parametrize("cutoff_hz", [5.0, 6.0, 0.0, float("nan")])
    def test_cutoff_outside_band_rejected(self, cutoff_hz):
        rec = SignalRecord(0.1, ("u",), np.ones((50, 1)))
        with pytest.raises(IdentificationError, match="prefilter cutoff"):
            _prefilter(rec, cutoff_hz)


def _hankel_pair(u, y, l, p=100):
    """The Hankel pair ``identify`` realizes for a jh record with integral
    outputs and the 2 Hz prefilter."""
    y = _prefilter(y.select(list(y.channels[:len(y.channels) // 2])), 2.0)
    obs = estimate_observer_markov(_prefilter(u, 2.0), y, l)
    return build_hankel(recover_system_markov(obs, 2 * p), p)


def _plain_realization(h, h_shift, z, v, r):
    """ERA on numpy's thin SVD of the whole Hankel matrix."""
    left, s, right_t = np.linalg.svd(h, full_matrices=False)
    sqrt_s = np.sqrt(s[:r])
    left, right = left[:, :r] / sqrt_s, right_t[:r].T / sqrt_s
    return s, StateSpace(a=left.T @ h_shift @ right, b=(right[:v] * s[:r]).T,
                         c=left[:z] * s[:r], d=np.zeros((z, v)), dt=0.1)


def _record_svd_shapes(monkeypatch) -> list:
    """Shapes of the matrices ``sysid`` hands to ``svd``, in call order."""
    shapes = []

    def recorded(a):
        shapes.append(a.shape)
        return numerics_svd(a)

    monkeypatch.setattr(sysid, "svd", recorded)
    return shapes


@pytest.fixture(scope="module")
def jh_noisy_data(jh_plant):
    return collect_jh_data(jh_plant, noise=1e-3, noise_rng=np.random.default_rng(7))


class TestRowSpaceEra:
    @pytest.mark.parametrize("record, l, settings", [
        ("jh_id_data", 30, {}),
        ("jh_noisy_data", 40, {"r_override": 30}),
    ])
    def test_matches_the_full_hankel_svd(self, request, record, l, settings):
        u, y = request.getfixturevalue(record)
        h, h_shift = _hankel_pair(u, y, l)
        report = era_realize(h, h_shift, 3, 6, energy_threshold=1 - 1e-7, t_s=0.1,
                             observer_blocks=l, **settings)
        s, plain = _plain_realization(h, h_shift, 3, 6, report.threshold_order)
        got = report.singular_values
        assert got.shape == s.shape == (300,)
        assert np.max(np.abs(got[:l * 3] - s[:l * 3])) <= 1e-13 * s[0]
        assert np.all(got[l * 3:] == 0.0)
        want = np.array(markov_parameters(plain, 200)[1:])
        realized = np.array(markov_parameters(report.realized, 200)[1:])
        assert np.max(np.abs(realized - want)) <= 1e-10 * np.max(np.abs(want))

    def test_observer_longer_than_hankel_uses_every_row(self, monkeypatch):
        rng = np.random.default_rng(21)
        ss = random_stable_discrete(rng, 4, 2, 3)
        u, y = io_records(ss, rng.normal(size=(900, 2)))
        markov = recover_system_markov(estimate_observer_markov(u, y, l=12), 16)
        h, h_shift = build_hankel(markov, p=8)
        shapes = _record_svd_shapes(monkeypatch)
        report = era_realize(h, h_shift, 3, 2, r_override=4, t_s=ss.dt, observer_blocks=12)
        every_row = era_realize(h, h_shift, 3, 2, r_override=4, t_s=ss.dt)
        assert shapes == [(24, 16), (24, 16)]
        np.testing.assert_array_equal(report.singular_values, every_row.singular_values)
        s, plain = _plain_realization(h, h_shift, 3, 2, 4)
        assert np.max(np.abs(report.singular_values - s)) <= 1e-13 * s[0]
        for got, want in zip(markov_parameters(report.realized, 16),
                             markov_parameters(plain, 16)):
            assert np.max(np.abs(got - want)) <= 1e-10 * s[0]

    def test_identify_decomposes_the_observer_row_space(self, monkeypatch):
        rng = np.random.default_rng(20)
        ss = discretize_zoh(random_stable_continuous(rng, 4, v=3, z=3), 0.1)
        u, y = io_records(ss, rng.normal(size=(1300, 3)))
        shapes = _record_svd_shapes(monkeypatch)
        report, _ = identify(u, y, IdentifyConfig(l=10, p=15, t_s=0.1,
                                                  energy_threshold=1 - 1e-9))
        assert shapes == [(15 * 3, 10 * 3)]
        assert len(report.singular_values) == 45 and np.all(report.singular_values[30:] == 0.0)

    def test_observer_blocks_must_be_positive(self):
        h = np.eye(4)
        with pytest.raises(IdentificationError, match="observer parameter block"):
            era_realize(h, h, 2, 2, observer_blocks=0)
