"""Data-driven reduced-order modeling from sampled input/output records.

The pipeline estimates observer pulse-response parameters by least
squares on a block-Toeplitz regressor, which is never formed whole: a
full-rank record is solved from the regressor's Gram matrix, built from
the lag products of the record and refined against the record itself,
and any other is folded into one upper triangle a block of samples at a
time (memory does not grow with record length in either). It then
unwinds them into the system's pulse-response sequence, stacks a
block-Hankel matrix, realizes a minimal discrete model from its dominant
singular directions, and converts the result to continuous time. The
Hankel matrix is decomposed once: ERA models nest (order r is the
leading block of any higher order), so a lower order is a slice. The
decomposition runs on the row space of the leading l block rows, which
the observer's l-term recursion makes the row space of the whole matrix
(rank at most l z); singular values past l z are reported as exact
zeros. ``EraReport`` records the orders chosen and which least-squares
solve ran.

``IdentifyConfig`` refuses a bad field when it is built, and ``check_limits``
is the one owner of the limits a record sets (length, array sizes): ``identify``
applies it before any LAPACK call, and ``harness.Scenario`` when a scenario is loaded.

The least-squares kernels import their BLAS and LAPACK routines when
called, as ``numerics`` does: loading ``scipy.linalg`` is most of a fresh
``import hvdcfr``, and a process that identifies nothing should not pay it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import NumericsError, butter_lowpass_filter, mat_log_principal, reduced_qr
from .schema import POSITIVE, count, finite, optional, validate
from .signals import SignalRecord, sample_count
from .statespace import StateSpace, zoh_step_matrices


class IdentificationError(RuntimeError):
    """Raised when a record cannot support the requested estimation."""


@dataclass(frozen=True)
class MarkovSequence:
    """Pulse-response blocks of a discrete system.

    ``feedthrough`` is the k=0 block; ``pulse_blocks`` is an (m, z, v)
    array whose entry k-1 is the z-by-v response block at step k.
    """

    feedthrough: np.ndarray
    pulse_blocks: np.ndarray

    @property
    def n_outputs(self) -> int:
        return self.feedthrough.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.feedthrough.shape[1]

    def __len__(self) -> int:
        return len(self.pulse_blocks)


@dataclass(frozen=True)
class ObserverMarkov:
    """Observer pulse-response parameters split into input/output parts.

    ``inputs[k-1]`` (z-by-v) and ``outputs[k-1]`` (z-by-z) are the parts at
    step k, stacked as (l, z, v) and (l, z, z) arrays; ``feedthrough`` is
    the direct z-by-v term. ``rank`` is the effective rank of the
    least-squares regressor (below its row count on noise-free records,
    where the minimum-norm estimate is exact). ``condition_bound`` is the
    certified bound ‖R‖_F ‖R⁻¹‖_F when the Gram solve gave the estimate,
    None when the QR fold and ``dgelsd`` did.
    """

    feedthrough: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    rank: int | None = None
    condition_bound: float | None = None

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class EraReport:
    """Realization summary: spectrum of the Hankel matrix and the model.

    ``threshold_order`` is the energy rule's (or clamped override's) order,
    ``retained_order`` the model's, lower if ``identify`` shed states.
    ``regressor_rank``, ``regressor_condition_bound`` (the observer
    solve's certified bound, None when the record went to the QR fold) and
    ``feedthrough_norm`` (Frobenius norm of the estimated direct term) are
    set by ``identify``.
    """

    hankel_size: int
    singular_values: np.ndarray
    threshold_order: int
    retained_order: int
    realized: StateSpace
    regressor_rank: int | None = None
    regressor_condition_bound: float | None = None
    feedthrough_norm: float | None = None

    @property
    def cumulative_energy(self) -> np.ndarray:
        e = self.singular_values**2
        return np.cumsum(e) / e.sum()

    @property
    def cumulative_energy_at_r(self) -> float:
        """``cumulative_energy`` at the retained order."""
        return float(self.cumulative_energy[self.retained_order - 1])

    def to_json_dict(self) -> dict:
        return {
            "hankel_size": self.hankel_size,
            "regressor_rank": self.regressor_rank,
            "regressor_condition_bound": self.regressor_condition_bound,
            "feedthrough_norm": self.feedthrough_norm,
            "threshold_order": self.threshold_order,
            "retained_order": self.retained_order,
            "cumulative_energy_at_r": self.cumulative_energy_at_r,
            "singular_values": [float(s) for s in self.singular_values],
            "cumulative_energy": [float(e) for e in self.cumulative_energy],
            "sample_time_s": self.realized.dt,
            "model_order": self.realized.n_states,
        }


@dataclass(frozen=True)
class IdentifyConfig:
    """Knobs for the full identification pipeline. The model order is the
    smallest whose cumulative Hankel energy reaches ``energy_threshold``
    (or ``r_override``); ``identify`` may then shed trailing states."""

    l: int = 30
    p: int = 100
    energy_threshold: float = 0.999
    t_s: float = 0.1
    r_override: int | None = None
    # reject records whose estimated direct feedthrough exceeds this
    # (None disables the check; plants modeled here have none)
    max_feedthrough: float | None = None
    # the trailing half of the outputs are exact running integrals of the
    # leading half: identify only the stable subsystem and reattach exact
    # integrator states, instead of estimating poles at z=1 from data
    integral_outputs: bool = False
    # identical causal low-pass on inputs and outputs: records starting
    # from rest keep their I/O relation exactly while measurement noise
    # above the system band is attenuated; None disables
    prefilter_hz: float | None = None

    def __post_init__(self):
        validate(IdentificationError, "", self, {
            "l": count(1), "p": count(1), "t_s": POSITIVE, "r_override": optional(count(1)),
            "energy_threshold": (lambda v: finite(v) and 0 < v <= 1, "in (0, 1]"),
            "max_feedthrough": optional(POSITIVE), "prefilter_hz": optional(POSITIVE)})
        hz, nyquist = self.prefilter_hz, 0.5 / self.t_s
        if hz is not None and hz >= nyquist:
            raise IdentificationError(f"prefilter_hz={hz:g} Hz must be below the Nyquist "
                                      f"frequency {nyquist:g} Hz of t_s={self.t_s:g} s")


def _prefilter(record: SignalRecord, cutoff_hz: float) -> SignalRecord:
    """Second-order Butterworth low-pass of every channel, run from rest
    (``IdentifyConfig`` keeps ``cutoff_hz`` below the Nyquist frequency)."""
    nyquist = 0.5 / record.t_s
    return SignalRecord(record.t_s, record.channels,
                        butter_lowpass_filter(record.samples, 2, cutoff_hz / nyquist))


def generate_excitation(seed: int, channels: tuple[str, ...], t_s: float,
                        duration: float, amplitude: float, hold: float) -> SignalRecord:
    """Zero-mean uniform random steps, held ``hold`` seconds per channel."""
    n = sample_count(duration, t_s)
    per_hold = max(1, int(round(hold / t_s)))
    n_levels = n // per_hold + 1
    rng = np.random.default_rng(seed)
    levels = rng.uniform(-amplitude, amplitude, size=(n_levels, len(channels)))
    samples = np.repeat(levels, per_hold, axis=0)[:n]
    return SignalRecord(t_s, channels, samples)


_QR_BLOCK = 32  # LAPACK blocking factor of the streamed QR, clipped to the triangle width
# regressor singular values at or below this fraction of the largest count as zero
_RANK_CUT = 1e-10
# largest condition bound the Gram solve certifies: kappa² u <= 1e-4 (see _gram_solve)
_GRAM_CONDITION = 1e6
_REFINE_STEPS = 2  # of the Gram solve


def observer_samples(l: int, n_inputs: int, n_outputs: int) -> int:
    """Fewest record samples the least-squares fit of ``l`` observer blocks accepts."""
    return 4 * l * (n_inputs + n_outputs)


def _check_observer_samples(l: int, n_samples: int, n_inputs: int, n_outputs: int) -> None:
    """Refuse ``n_samples`` samples, fewer than the fit of ``l`` blocks needs."""
    needed = observer_samples(l, n_inputs, n_outputs)
    if needed > n_samples:
        raise IdentificationError(f"l={l} needs {needed} samples, more than the "
                                  f"{n_samples} identification samples")


# largest single array identification may ask for (observer triangle, Hankel
# pair); shipped scenarios need 0.6 and 1.5 MB, and peak memory is a few such arrays
MAX_ARRAY_BYTES = 1 << 28


def check_limits(config: IdentifyConfig, n_samples: int, n_inputs: int, n_outputs: int) -> None:
    """Refuse a ``config`` that ``identify`` cannot run on ``n_samples`` samples of
    ``n_inputs`` inputs and ``n_outputs`` outputs (half of them fitted with
    ``integral_outputs``); the message starts with the field. The Hankel pair reads 2p
    pulse blocks, no more than the samples; the fit of l blocks needs ``observer_samples``;
    and neither its one square array (the Gram and its Cholesky factor, or the QR fold's
    triangle) nor the Hankel pair's may exceed ``MAX_ARRAY_BYTES``.
    """
    l, p, v = config.l, config.p, n_inputs
    z = n_outputs // 2 if config.integral_outputs else n_outputs
    if 2 * p > n_samples:
        raise IdentificationError(f"p={p} needs 2p={2 * p} pulse blocks, more than the "
                                  f"{n_samples} identification samples")
    _check_observer_samples(l, n_samples, v, z)
    width = v + l * (v + z) + z
    for name, value, array, size in (("l", l, "observer triangle", 8 * width * width),
                                     ("p", p, "Hankel pair", 8 * (p + 1) * z * p * v)):
        if size > MAX_ARRAY_BYTES:
            raise IdentificationError(f"{name}={value} needs a {size}-byte {array}, more "
                                      f"than the {MAX_ARRAY_BYTES}-byte limit")


def _lag_gram(x: np.ndarray, l: int) -> np.ndarray:
    """Upper triangle of the Gram matrix of the prewindowed lag matrix of ``x``.

    Row k of the lag matrix is [x_{k-l} ... x_{k-1} x_k] for k = 0..N-1
    (x is N by d, N > l, and zero outside its samples), so its
    ((l+1)d)² Gram never needs the matrix itself. Had the rows run on to
    k = N+l-1, block (r, c), c >= r, would be the whole record's lag
    product sum_m x_m x_{m+c-r}ᵀ: the Gram is that block-Toeplitz matrix
    less the Gram of those l extra rows (``dsyrk``, in place), the end
    terms the prewindowed sums leave out.
    """
    from scipy.linalg.blas import dsyrk

    n_samples, d = x.shape
    w = (l + 1) * d
    g = np.zeros((w, w), order="F")
    blocks = g.reshape(d, l + 1, d, l + 1, order="F")  # blocks[:, r, :, c] is block (r, c) of g
    for s in range(l + 1):
        rows = np.arange(l + 1 - s)
        blocks[:, rows, :, rows + s] = x[:n_samples - s].T @ x[s:]
    tail = np.zeros((2 * l + 1, d))
    tail[:l] = x[n_samples - l:]
    past_end = np.lib.stride_tricks.sliding_window_view(tail, l + 1, axis=0)[:l]
    return dsyrk(-1.0, past_end.transpose(0, 2, 1).reshape(l, w), beta=1.0, c=g,
                 trans=1, overwrite_c=True)


def _gram_solve(uy: np.ndarray, l: int, v: int) -> tuple[np.ndarray, float] | None:
    """Full-rank observer least squares from the regressor's Gram matrix.

    ``uy`` is [u y] after ``l`` zero rows. The unknowns are taken in
    reversed lag order, [lag l ... lag 1, u_k], so that with y_k appended
    they are the columns of the lag matrix of [u y] and ``_lag_gram`` gives
    the Gram of [regressorᵀ | y] in one array. Its Cholesky factor
    (``dpotrf``) holds R of the regressor in its leading block and R⁻ᵀ
    regressor y beside it. R is inverted in place (``dtrtri``) and
    certified by ‖R‖_F ‖R⁻¹‖_F >= κ₂(R) (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 8) below ``_GRAM_CONDITION``: then the
    Gram's rounding, about u of its largest eigenvalue and so at most
    κ₂² u <= 1e-4 of its smallest, cannot hide a singular value under the
    rank cut, and the solution is unique. Two steps of fixed-precision
    refinement, θ += G⁻¹ Φᵀ(y - Φθ) with the residual formed from lagged
    slices of the record, each shrink the error of the normal equations by
    about κ₂² u, down to the QR solve's (Björck,
    *Numerical Methods for Least Squares Problems*, SIAM 1996, §2.9 and
    §6.6). Returns θ (n by z, reversed lag order) and the bound, or None
    when the Gram overflows or underflows, is not positive definite, misses
    the bound, or the second correction exceeds ``_RANK_CUT`` of θ.
    """
    from scipy.linalg.lapack import dlange, dpotrf, dtrtri

    n_samples, d = uy.shape[0] - l, uy.shape[1]
    z = d - v
    n = (l + 1) * d - z
    with np.errstate(over="ignore", invalid="ignore"):
        g = _lag_gram(uy[l:], l)
    # a product that underflows loses at most tiny: N of them stay within
    # one rounding of the Gram while its largest entry is at least N tiny/eps
    limits = np.finfo(float)
    if not (np.isfinite(g).all() and g.diagonal().max() >= n_samples * limits.tiny / limits.eps):
        return None
    g, info = dpotrf(g, overwrite_a=True)  # the strict lower triangle is cleared
    if info != 0:
        return None
    qty = g[:n, n:].copy()
    # the first n columns hold R, then R⁻¹, over zeros: no copy for dlange
    # (which scales, so an overflowing norm is inf and fails the test)
    norm_r = dlange("F", g[:, :n])
    g, info = dtrtri(g, overwrite_c=True)
    bound = norm_r * dlange("F", g[:, :n])
    if info != 0 or not bound < _GRAM_CONDITION:
        return None
    r_inv = g[:n, :n]
    theta = r_inv @ qty
    fit = np.zeros((l + 1, d, z))  # θ as blocks of the lag matrix's columns; y_k's stays zero
    for _ in range(_REFINE_STEPS):
        fit.reshape(-1, z)[:n] = theta
        resid = uy[l:, v:] - sum(uy[c:c + n_samples] @ fit[c] for c in range(l + 1))
        grad = np.concatenate([uy[c:c + n_samples].T @ resid for c in range(l + 1)])[:n]
        correction = r_inv @ (r_inv.T @ grad)
        theta += correction
    if np.max(np.abs(correction)) > _RANK_CUT * np.max(np.abs(theta)):
        return None
    return theta, bound


def _fold_solve(uy: np.ndarray, l: int, v: int) -> tuple[np.ndarray, int]:
    """Minimum-norm observer least squares through the QR fold and ``dgelsd``.

    ``[regressorᵀ | y]`` is folded into one upper triangle a block of
    samples at a time by sequential Householder QR (LAPACK ``dtpqrt``), so
    memory does not grow with record length. The triangle's leading part
    is R of the regressor alone, with the regressor's singular values, and
    its trailing columns hold Qᵀy; ``dgelsd`` solves it through its SVD.
    Returns θᵀ (unknowns [u_k, lag 1 ... lag l] by z) and the rank.
    """
    from scipy.linalg.lapack import dgelsd, dgelsd_lwork, dtpqrt

    n_samples, d = uy.shape[0] - l, uy.shape[1]
    z = d - v
    n = v + l * d
    w = n + z
    tri = np.zeros((w, w), order="F")
    nb = min(_QR_BLOCK, w)
    for start in range(0, n_samples, w):
        stop = min(start + w, n_samples)
        block = np.empty((stop - start, w), order="F")
        block[:, :v] = uy[l + start:l + stop, :v]
        block[:, n:] = uy[l + start:l + stop, v:]
        for i in range(1, l + 1):
            col = v + (i - 1) * d
            block[:, col:col + d] = uy[l + start - i:l + stop - i]
        tri, _, _, info = dtpqrt(0, nb, tri, block, overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise NumericsError(f"QR update of the {n}-column observer regressor "
                                f"failed (info={info})")
    work, iwork, _ = dgelsd_lwork(n, n, z, cond=_RANK_CUT)
    theta_t, _, rank, info = dgelsd(tri[:n, :n], tri[:n, n:], int(work), iwork, cond=_RANK_CUT)
    if info != 0:
        raise NumericsError(f"SVD failed to converge on the {n}x{n} observer "
                            f"regressor triangle (info={info})")
    return theta_t, rank


def estimate_observer_markov(u: SignalRecord, y: SignalRecord, l: int) -> ObserverMarkov:
    """Least-squares observer pulse-response parameters from general I/O data.

    The regressor is block Toeplitz: its first block row holds the inputs
    and its following ``l`` block rows hold lagged input/output pairs
    (lag i is zero before sample i, so the record must start from rest).
    It is never formed whole. The estimate is the minimum-norm
    least-squares one, counting singular values at or below 1e-10 of the
    largest as zero, exactly as on the regressor itself, and one of two
    solves gives it, each in one square array of the regressor's row count
    plus z. A record with at least as many samples as unknowns first tries
    ``_gram_solve``: the Gram of [regressorᵀ | y] from the l+1 lag products
    of [u y], Cholesky, a certificate that the regressor has full rank
    (‖R‖_F ‖R⁻¹‖_F < 1e6) and two refinement steps. That takes noisy
    measured records, and ``condition_bound`` records the bound. Every
    other record (noise-free ones, whose regressor is rank-deficient, and
    records whose Gram overflows or underflows) goes to ``_fold_solve``:
    the QR fold of [regressorᵀ | y] a block of samples at a time, so memory
    does not grow with record length, and ``dgelsd`` on its triangle. A
    non-finite sample is refused before any LAPACK call.
    """
    if u.t_s != y.t_s:
        raise IdentificationError(f"input T_s {u.t_s} != output T_s {y.t_s}")
    if u.n_samples != y.n_samples:
        raise IdentificationError("input and output records differ in length")
    if l < 1:
        raise IdentificationError("need at least one observer parameter block")
    if not y.channels:
        raise IdentificationError("need at least one output channel")
    v, z, n_samples = len(u.channels), len(y.channels), u.n_samples
    _check_observer_samples(l, n_samples, v, z)
    for kind, record in (("input", u), ("output", y)):
        bad = np.argwhere(~np.isfinite(record.samples))
        if len(bad):
            k, c = bad[0]
            raise IdentificationError(
                f"{kind} record channel {record.channels[c]!r} is {record.samples[k, c]} "
                f"at sample {k}; identification needs finite records"
            )

    n = v + l * (v + z)  # regressor rows: the unknowns per output
    # [u y] after l zero rows: lag i of samples start..stop is rows l+start-i..l+stop-i
    uy = np.zeros((l + n_samples, v + z), order="F")
    uy[l:, :v], uy[l:, v:] = u.samples, y.samples
    solved = _gram_solve(uy, l, v) if n_samples >= n else None
    if solved is not None:
        theta_rev, bound = solved
        # back from [lag l ... lag 1, u_k] to [u_k, lag 1 ... lag l]
        theta_t = np.vstack([theta_rev[l * (v + z):],
                             theta_rev[:l * (v + z)].reshape(l, v + z, z)[::-1].reshape(-1, z)])
        rank = n
    else:
        bound = None
        theta_t, rank = _fold_solve(uy, l, v)
    if rank < v + z:
        raise IdentificationError(
            f"regressor rank {rank} is degenerate (need at least {v + z}); "
            "excitation carries no usable energy"
        )
    # θᵀ rows are [u_k, lag 1 ... lag l]; lag i's block is [input part | output part]ᵀ
    lagged = theta_t[v:].reshape(l, v + z, z).transpose(0, 2, 1)
    return ObserverMarkov(feedthrough=theta_t[:v].T, inputs=lagged[:, :, :v],
                          outputs=lagged[:, :, v:], rank=int(rank), condition_bound=bound)


def recover_system_markov(obs: ObserverMarkov, m: int) -> MarkovSequence:
    """Unwind observer parameters into ``m`` system pulse-response blocks.

    Block k is ``Ybar1_k + sum_{i=1..min(k,l)} Ybar2_i Y_{k-i}`` with
    ``Y_0`` the feedthrough. The blocks fill one (m+1, z, v) array, so
    the past blocks a step needs are the contiguous slice
    ``seq[k-q:k]`` (q = min(k, l)); reshaped to (q z, v) it meets the
    output parts stacked once as [Ybar2_l ... Ybar2_1] in a single
    matrix product per block. Blocks beyond the estimated horizon are
    treated as zero, which is what makes the recursion close (the
    implicit observer is deadbeat).
    """
    if m < 1:
        raise IdentificationError("need at least one pulse-response block")
    l = len(obs)
    z, v = obs.feedthrough.shape
    seq = np.empty((m + 1, z, v))
    seq[0] = obs.feedthrough
    # [Ybar2_l ... Ybar2_1]: the last q column blocks meet seq[k-q:k], oldest first
    out_parts = np.hstack(obs.outputs[::-1])
    for k in range(1, m + 1):
        q = min(k, l)
        seq[k] = out_parts[:, (l - q) * z:] @ seq[k - q:k].reshape(q * z, v)
        if k <= l:
            seq[k] += obs.inputs[k - 1]
    return MarkovSequence(feedthrough=obs.feedthrough.copy(), pulse_blocks=seq[1:])


def build_hankel(markov: MarkovSequence, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-Hankel matrix (p by p blocks) of the pulse response and its
    one-step shift: two overlapping views of one array of one more block
    row. Needs 2p pulse blocks.
    """
    if p < 1:
        raise IdentificationError("hankel size p must be at least 1")
    m = len(markov)
    if m < 2 * p:
        raise IdentificationError(
            f"need at least {2 * p} pulse-response blocks for p={p}, have {m}"
        )
    z, v = markov.n_outputs, markov.n_inputs
    # windows[i, :, :, j] is pulse block i + j, a view: one copy is made, by reshape
    windows = np.lib.stride_tricks.sliding_window_view(markov.pulse_blocks, p, axis=0)
    both = windows[:p + 1].transpose(0, 1, 3, 2).reshape((p + 1) * z, p * v)
    return both[:-z], both[z:]


def era_realize(h: np.ndarray, h_shift: np.ndarray, z: int, v: int,
                energy_threshold: float = IdentifyConfig.energy_threshold,
                r_override: int | None = None, feedthrough: np.ndarray | None = None,
                t_s: float = 1.0, observer_blocks: int | None = None) -> EraReport:
    """Minimal realization from the dominant Hankel singular directions.

    The retained order is the smallest one whose cumulative squared
    singular-value energy reaches ``energy_threshold`` (or
    ``r_override``), at most the numerical rank; ``threshold_order``
    records it. ``feedthrough`` becomes the model's direct term.

    The SVD runs on the row space of ``h``'s leading ``observer_blocks``
    block rows (all rows when None); pass the block count l of the
    observer whose pulse response ``h`` holds. That response obeys an
    l-term recursion past step l, so every block row after the first l
    combines the l before it and the leading l z rows span the whole
    row space (``h`` has rank at most l z): the reduced QR of their
    transpose (``numerics.reduced_qr``, recursive-panel Householder)
    gives an orthonormal basis Q (which spans them even when they are
    rank-deficient), the thin SVD of ``h @ Q`` (taken on the triangle of
    its own reduced QR when it is tall) gives the singular values and left
    vectors, and ``Q`` times its right vectors gives those of ``h``.
    Singular values past the basis size are exact zeros, so
    ``singular_values`` keeps the length of the full decomposition.
    """
    if not 0.0 < energy_threshold <= 1.0:
        raise IdentificationError(f"energy threshold must lie in (0,1], got {energy_threshold}")
    if h.shape != h_shift.shape:
        raise IdentificationError(f"hankel pair shapes differ: {h.shape} vs {h_shift.shape}")
    if observer_blocks is not None and observer_blocks < 1:
        raise IdentificationError("need at least one observer parameter block")
    n_basis = h.shape[0] if observer_blocks is None else min(observer_blocks * z, h.shape[0])
    basis, _ = reduced_qr(h[:n_basis].T)
    projected = h @ basis
    q = None
    if projected.shape[0] > projected.shape[1]:
        q, projected = reduced_qr(projected)
    try:
        u, s_basis, vt = np.linalg.svd(projected, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"SVD failed to converge on the {h.shape[0]}x{basis.shape[1]} "
                            "projected Hankel matrix") from exc
    s = np.zeros(min(h.shape))
    s[:len(s_basis)] = s_basis
    energy = s**2
    total = energy.sum()
    if total == 0.0:
        raise IdentificationError(
            "hankel matrix is numerically zero; maximum achievable energy is 0"
        )
    cumulative = np.cumsum(energy) / total
    numerical_rank = int(np.sum(s > 1e-12 * s[0]))
    if r_override is not None:
        if r_override < 1:
            raise IdentificationError("r_override must be positive")
        r = r_override
    else:
        r = int(np.searchsorted(cumulative, energy_threshold) + 1)
    r = min(r, numerical_rank)

    s_r = s[:r]
    left = (u if q is None else q @ u)[:, :r]
    right = basis @ vt.T[:, :r]
    sqrt_s = np.sqrt(s_r)
    a_d = (left / sqrt_s).T @ h_shift @ (right / sqrt_s)
    # scale only the rows kept, so the model holds no view of a Hankel-sized array
    b_d = (right[:v] * sqrt_s).T
    c_d = left[:z] * sqrt_s
    d_d = np.zeros((z, v)) if feedthrough is None else np.asarray(feedthrough, dtype=float)

    p_blocks = h.shape[1] // v
    realized = StateSpace(a=a_d, b=b_d, c=c_d, d=d_d, dt=t_s)
    return EraReport(
        hankel_size=p_blocks,
        singular_values=s,
        threshold_order=r,
        retained_order=r,
        realized=realized,
    )


def to_continuous(dss: StateSpace) -> StateSpace:
    """Continuous-time model whose zero-order-hold sampling (at ``dss.dt``) matches ``dss``.

    The state matrix is the scaled principal logarithm; the input matrix
    inverts the hold integral, computed through the augmented-exponential
    form so that poles at z=1 (pure integrators) stay well conditioned.
    """
    if dss.is_continuous:
        raise IdentificationError("to_continuous expects a discrete-time model")
    try:
        a = mat_log_principal(dss.a) / dss.dt
    except NumericsError as exc:
        raise IdentificationError(
            f"discrete state matrix has no principal logarithm ({exc}); "
            "reduce the sample time T_s"
        ) from exc
    # hold integral M = int_0^Ts expm(a tau) dtau; b solves M b = b_d
    _, hold = zoh_step_matrices(a, np.eye(a.shape[0]), dss.dt)
    b = np.linalg.solve(hold, dss.b)
    return StateSpace(a=a, b=b, c=dss.c.copy(), d=dss.d.copy(), dt=None)


def augment_with_output_integrators(cont: StateSpace) -> StateSpace:
    """Append one exact integrator state per output channel.

    The result measures the original outputs followed by their running
    integrals; the appended states never feed back.
    """
    if not cont.is_continuous:
        raise IdentificationError("integrator augmentation expects a continuous model")
    n, z = cont.n_states, cont.n_outputs
    a = np.block([[cont.a, np.zeros((n, z))], [cont.c, np.zeros((z, z))]])
    b = np.vstack([cont.b, cont.d])
    c = np.block([[cont.c, np.zeros((z, z))], [np.zeros((z, n)), np.eye(z)]])
    d = np.vstack([cont.d, np.zeros_like(cont.d)])
    return StateSpace(a=a, b=b, c=c, d=d, dt=None)


def _truncate(report: EraReport, r: int) -> EraReport:
    """The order-``r`` leading block of a realization: ERA models nest."""
    m = report.realized
    return replace(report, retained_order=r,
                   realized=StateSpace(a=m.a[:r, :r], b=m.b[:r], c=m.c[:, :r], d=m.d, dt=m.dt))


def identify(u: SignalRecord, y: SignalRecord,
             config: IdentifyConfig = IdentifyConfig()) -> tuple[EraReport, StateSpace]:
    """Full pipeline: observer regression, pulse-response recovery,
    Hankel realization, continuous conversion. ``check_limits`` refuses
    first a ``config`` the records cannot support (its own fields were checked when built).

    The Hankel pair is realized once, on the row space that the observer's
    ``config.l`` blocks fix. Weak trailing modes occasionally land on the
    negative real axis and block the principal logarithm; trailing states
    are then shed one at a time, each try a leading slice of that
    realization, until the conversion succeeds.

    With ``integral_outputs`` the regression sees only the leading half
    of the output channels; exact integrators for them are appended to
    the converted model. Estimating poles at z=1 from noisy data instead
    would leave them slightly off the unit circle with spurious residues
    that ramp under step inputs.
    """
    if config.t_s != u.t_s:
        raise IdentificationError(f"config T_s {config.t_s} != record T_s {u.t_s}")
    check_limits(config, u.n_samples, len(u.channels), len(y.channels))
    y_fit = y
    if config.integral_outputs:
        if len(y.channels) % 2 != 0:
            raise IdentificationError(
                "integral_outputs requires outputs split evenly into "
                "(signals, their integrals)"
            )
        y_fit = y.select(list(y.channels[: len(y.channels) // 2]))
    if config.prefilter_hz is not None:
        u = _prefilter(u, config.prefilter_hz)
        y_fit = _prefilter(y_fit, config.prefilter_hz)

    obs = estimate_observer_markov(u, y_fit, config.l)
    norm_d = float(np.linalg.norm(obs.feedthrough, "fro"))
    if config.max_feedthrough is not None and norm_d > config.max_feedthrough:
        raise IdentificationError(
            f"estimated direct feedthrough norm {norm_d:.3e} exceeds "
            f"{config.max_feedthrough:.1e}; data are inconsistent with a strictly "
            "proper plant"
        )
    markov = recover_system_markov(obs, 2 * config.p)
    h, h_shift = build_hankel(markov, config.p)
    report = replace(era_realize(
        h, h_shift, z=markov.n_outputs, v=markov.n_inputs,
        energy_threshold=config.energy_threshold, r_override=config.r_override,
        feedthrough=markov.feedthrough, t_s=config.t_s, observer_blocks=config.l,
    ), regressor_rank=obs.rank, regressor_condition_bound=obs.condition_bound,
        feedthrough_norm=norm_d)
    while True:
        try:
            continuous = to_continuous(report.realized)
            break
        except IdentificationError:
            if report.retained_order == 1:
                raise
            report = _truncate(report, report.retained_order - 1)

    if config.integral_outputs:
        continuous = augment_with_output_integrators(continuous)
    return report, continuous
