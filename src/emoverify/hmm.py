"""Left-to-right (Bakis) HMMs with diagonal-covariance GMM emissions.

States are numbered 1..N in all public surfaces (error messages, Viterbi
paths); internally arrays are 0-based.  The initial distribution is fixed:
state 1 with probability 1.  Transitions are restricted to self-loops and
forward jumps of at most ``max_skip`` states (default 1).

A model (``HmmModel``) is four float64 arrays: transitions (N, N), mixture
weights (N, M), means (N, M, D) and diagonal variances (N, M, D).  It is
loaded (``read_hmm``), stored (``write_hmm``), built
(``HmmModel.from_arrays``, which refuses non-finite values), trained and
scored as those arrays; one ``GmmEmission`` per state is only a way to
build a model and a view of one (``HmmModel.emissions``).

Scoring and training share one stacked representation: models of one
(N, M) shape are stacked along a leading model axis K (``_stack``), and
``_forward`` is the one forward recursion, run for many models at once
(the multiple-model form of Rabiner 1989, Proc. IEEE 77(2)).  An
``HmmBank`` holds a set's models as one stack per shape.  Its
``log_forward_batch`` scores a batch of utterances, each under its own
models, with one recursion per stack over every (utterance, model) pair,
the utterances padded to the longest (Rabiner's multiple-sequence form,
§V.B); ``HmmBank.log_forward`` is its one-utterance case and
``log_forward`` its one-model case.  EM trains a set of models in
lockstep (``train_models``): each iteration stacks the models still
training per shape, runs one E-step per stack over all of its (model,
utterance) pairs on one padded utterance axis (``_e_step``, the same
multiple-sequence form), and re-estimates the whole stack at once;
``train_baum_welch`` is its one-model case.  A padded run, in scoring or
training, holds at most ``PAIR_FRAMES`` pair-frames.

Both per-frame recursions, the forward one and the E-step's backward one,
reduce over the states that can reach (or be reached from) each state.  A
stack is *banded* when no model has a nonzero transition off the diagonal
and the first superdiagonal (``_banded``, decided once per stack), so only
"stay" and "move on" are candidates; such stacks take the two-candidate
kernel ``_log_add``, which gives ``logsumexp``'s bits on the pair, and
every other stack the general ``logsumexp`` over all N candidates.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binio import read_array, read_file, read_frame, write_file, write_frame
from .errors import FormatError

log = logging.getLogger(__name__)

ROW_SUM_TOL = 1e-9
# training floors every variance and mixture weight it estimates
VARIANCE_FLOOR = 1e-4
WEIGHT_FLOOR = 1e-8
KMEANS_ITERATIONS = 10
# A padded recursion stops taking (utterance, model) pairs before their
# count times its longest utterance's frames passes PAIR_FRAMES: a scoring
# chunk (stage_b.score_trials) and a training run (train_models) alike
# (pair_runs).  The padded forward arrays are then that many frames of N
# float64s, 2 MB at N = 4 (64 utterances of 12 models over 80 frames, or 5
# of 30 models over 430).  _log_densities takes PAIR_FRAMES // (K*N*M*D)
# frames a block, so its (K, frames, N, M, D) difference array holds at
# most PAIR_FRAMES float64s too.
PAIR_FRAMES = 65536
_LOG_2PI = float(np.log(2.0 * np.pi))
_LOG_2 = float(np.log(2.0))

_MODEL_MAGIC = b"EMVH"
_MODEL_VERSION = 1


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class GmmEmission:
    """Diagonal-covariance Gaussian mixture attached to one state.

    weights: (M,) nonnegative, summing to 1.
    means: (M, D).
    variances: (M, D) diagonal entries, positive.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_float_array(self.weights, "weights"))
        object.__setattr__(self, "means", np.atleast_2d(_as_float_array(self.means, "means")))
        object.__setattr__(
            self, "variances", np.atleast_2d(_as_float_array(self.variances, "variances"))
        )
        if self.means.shape != self.variances.shape:
            raise ValueError("means and variances must have the same shape")
        if self.weights.shape != (self.means.shape[0],):
            raise ValueError("weights length must match the number of components")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True, init=False)
class HmmModel:
    """Bakis HMM as four float64, C-contiguous arrays: transitions (N, N),
    mixture weights (N, M), means (N, M, D) and diagonal variances
    (N, M, D), plus max_skip.

    HmmModel(transitions, emissions, max_skip=...) builds one from one
    GmmEmission per state, refusing states of different component counts or
    dims; from_arrays holds the arrays as given, with no per-state object.
    Both refuse a non-finite value with the same ValueError.
    ``emissions`` is a per-state view of the arrays, built on first access.
    """

    transitions: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    max_skip: int = 1

    def __init__(self, transitions, emissions, max_skip: int = 1):
        transitions = _as_float_array(transitions, "transitions")
        emissions = tuple(emissions)
        n = len(emissions)
        if transitions.shape != (n, n):
            raise ValueError(f"transition matrix shape {transitions.shape} does not match "
                             f"{n} emission states")
        if max_skip < 1:
            raise ValueError("max_skip must be >= 1")
        if not emissions:
            raise ValueError("a model needs at least one state")
        m, d = emissions[0].n_components, emissions[0].dim
        for i, em in enumerate(emissions):
            if em.n_components != m:
                raise ValueError(f"state {i + 1} has {em.n_components} components, expected {m}")
            if em.dim != d:
                raise ValueError(f"state {i + 1} has dim {em.dim}, expected {d}")
        self._hold(np.ascontiguousarray(transitions),
                   *(np.array([getattr(em, f) for em in emissions])
                     for f in ("weights", "means", "variances")), max_skip)

    @classmethod
    def from_arrays(cls, transitions, weights, means, variances, max_skip: int = 1) -> HmmModel:
        """The model of four such arrays, not copied.  A non-finite value is
        refused as the per-state constructor refuses it: state by state the
        weights, means and variances, then the transitions.  Shapes and
        probabilities are the caller's to check (validate)."""
        if not all(np.isfinite(x).all() for x in (weights, means, variances)):
            for state in zip(weights, means, variances):
                for name, x in zip(("weights", "means", "variances"), state):
                    _as_float_array(x, name)
        _as_float_array(transitions, "transitions")
        return cls._of_finite(transitions, weights, means, variances, max_skip)

    @classmethod
    def _of_finite(cls, *values) -> HmmModel:
        """from_arrays for arrays already known to be finite (read_hmm)."""
        model = object.__new__(cls)
        model._hold(*values)
        return model

    def _hold(self, *values) -> None:
        for field, value in zip(("transitions", "weights", "means", "variances", "max_skip"),
                                values):
            object.__setattr__(self, field, value)

    @functools.cached_property
    def emissions(self) -> tuple[GmmEmission, ...]:
        return tuple(map(GmmEmission, self.weights, self.means, self.variances))

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(transitions, weights, means, variances)."""
        return self.transitions, self.weights, self.means, self.variances

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_mixtures(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.means.shape[2]


@dataclass(frozen=True)
class TrainConfig:
    """EM stopping rule and the k-means seed; the floors and the k-means
    iteration count are the module constants VARIANCE_FLOOR, WEIGHT_FLOOR
    and KMEANS_ITERATIONS."""

    max_iterations: int = 20
    convergence_delta: float = 1e-4  # per-utterance log-likelihood change
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1 or self.convergence_delta <= 0:
            raise ValueError("max_iterations and convergence_delta must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def validate(model: HmmModel, variance_floor: float = VARIANCE_FLOOR) -> list[str]:
    """Check every model invariant; return the list of violations (empty = ok)."""
    errors = []
    a = model.transitions
    if (a < 0).any():
        errors.append("negative transition probability")
    row_sums = a.sum(axis=1)
    for i in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        errors.append(f"transition row {i + 1} sums to {row_sums[i]:.10g}")
    for i, j in zip(*_off_band(a, model.max_skip).nonzero()):  # row-major order
        errors.append(f"non-Bakis transition ({i + 1}→{j + 1})")
    negative = (model.weights < 0).any(axis=1)
    wsums = model.weights.sum(axis=1)
    off_one = np.abs(wsums - 1.0) > ROW_SUM_TOL
    floored = (model.variances < variance_floor * (1 - 1e-12)).any(axis=(1, 2))
    for i in np.flatnonzero(negative | off_one | floored):
        if negative[i]:
            errors.append(f"state {i + 1} has a negative mixture weight")
        if off_one[i]:
            errors.append(f"state {i + 1} weights sum {wsums[i]:.10g}")
        if floored[i]:
            errors.append(f"state {i + 1} has a variance below the floor {variance_floor:g}")
    return errors


@functools.lru_cache(maxsize=64)
def _outside_band(n: int, max_skip: int) -> np.ndarray:
    """Read-only (N, N) mask of the moves outside the Bakis band, where state i
    reaches only states i .. i + max_skip; cached, since every model load,
    stack and bank asks for it."""
    outside = np.tri(n, n, -1, dtype=bool) | ~np.tri(n, n, max_skip, dtype=bool)
    outside.flags.writeable = False
    return outside


def _off_band(transitions: np.ndarray, max_skip: int) -> np.ndarray:
    """Mask of the nonzero entries of transitions (..., N, N) outside the Bakis band."""
    return (transitions != 0) & _outside_band(transitions.shape[-1], max_skip)


def _banded(transitions: np.ndarray) -> bool:
    """Whether every model of transitions (..., N, N) only stays or moves on to
    the next state, so each recursion step has at most two candidates."""
    return not np.count_nonzero(_off_band(transitions, 1))


def _check_valid(model: HmmModel) -> None:
    problems = validate(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))


def _check_obs(obs: np.ndarray, dim: int) -> np.ndarray:
    obs = _as_float_array(obs, "observation")
    if obs.ndim != 2 or obs.shape[0] == 0:
        raise ValueError("observation must be a nonempty (T, D) matrix")
    if obs.shape[1] != dim:
        raise ValueError(f"observation dim {obs.shape[1]} does not match model dim {dim}")
    return obs


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (None: every axis), computed stably.

    For real float64 input this gives SciPy 1.17's ``special.logsumexp``
    with ``b=None`` bit for bit, result type included.  It performs the
    operations that decide those bits, in SciPy's order, and leaves out
    the array-API dispatch and the sign and scale guards that are
    identities for real input: the tie count m is at least 1 unless the
    maximum is NaN, and the shifted sum s is at least 0 or NaN.
    The maximum is shifted out and its ties counted separately
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021); where
    that gives no finite value, the direct log(sum(exp(a))) is used.
    """
    a = np.atleast_1d(a)
    if axis is None:
        axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
        i_max = a == a_max
        masked = a.copy()
        masked[i_max] = -np.inf
        m = np.add.reduce(i_max, axis=axis, keepdims=True, dtype=np.float64)
        s = np.add.reduce(np.exp(masked - a_max), axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.add.reduce(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def _log_add(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(exp(u) + exp(v)) elementwise into ``out``, which overlaps neither
    input; the caller ignores invalid-value warnings (-inf - -inf).

    This is logsumexp(np.stack([u, v]), axis=0) bit for bit.  With two
    candidates, logsumexp's shifted sum holds at most one nonzero term, so a
    single maximum gives log1p(exp(lo - hi)) + hi, a tie log(2) + hi, two
    -inf give -inf (the tie form) and NaN propagates.  np.logaddexp would
    round differently: its exp and log1p are not numpy's vectorized ones.
    """
    hi = np.maximum(u, v)
    np.minimum(u, v, out=out)
    out -= hi
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += hi
    np.copyto(out, hi + _LOG_2, where=u == v)
    return out


@dataclass(frozen=True)
class _Stack:
    """K models of one (N, M) shape and feature dim, stacked on a leading axis."""

    means: np.ndarray  # (K, N, M, D)
    variances: np.ndarray  # (K, N, M, D)
    log_wn: np.ndarray  # (K, N, M): log mixture weight plus Gaussian log-normalizer
    log_trans: np.ndarray  # (K, N, N)
    running_sums: bool  # _running_sums of every model: sum frames, take no paths
    banded: bool  # _banded: the recursions take the two-candidate kernel

    def take(self, members) -> _Stack:
        return _Stack(self.means[members], self.variances[members], self.log_wn[members],
                      self.log_trans[members], self.running_sums, self.banded)


def _running_sums(transitions: np.ndarray) -> bool:
    """Whether every model of transitions (..., N, N) is one state whose self-loop
    is exactly 1.0, so both its recursions are running sums over the frames."""
    return transitions.shape[-2:] == (1, 1) and bool(np.all(transitions[..., 0, 0] == 1.0))


def _model_arrays(models: Sequence[HmmModel]) -> tuple[np.ndarray, ...]:
    """Transitions (K, N, N), weights (K, N, M), means and variances
    (K, N, M, D) of models of one (N, M) shape and feature dim."""
    return tuple(map(np.stack, zip(*(m.arrays for m in models))))


def _stack(transitions, weights, means, variances) -> _Stack:
    """The _Stack of K models' parameter arrays, shaped as _model_arrays returns them."""
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
        log_trans = np.log(transitions)
    log_norm = -0.5 * (means.shape[-1] * _LOG_2PI + np.sum(np.log(variances), axis=-1))
    return _Stack(means, variances, log_w + log_norm, log_trans,
                  _running_sums(transitions), _banded(transitions))


def _log_densities(stack: _Stack, obs: np.ndarray,
                   owner: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-model, per-frame component log-densities (K, T, N, M) and state
    log-densities (K, T, N) of a stack over one (T, D) observation; or,
    given owner (T,), each frame's under the stack's model owner[t] alone,
    (T, N, M) and (T, N), so frames of many utterances share one call.

    The Mahalanobis term is summed from squared differences of every state
    at once, along the contiguous last axis, never through a matrix
    product, whose bits would depend on the stack's shape.  Frames are
    taken in blocks whose (K, frames, N, M, D) or (frames, N, M, D)
    temporaries hold at most PAIR_FRAMES float64s; a frame's densities
    depend on no other frame, so the blocks move no bit.  The mixture
    reduction gives logsumexp's bits: with one component it is the
    component plus 0.0 (a one-element logsumexp turns -0.0 into +0.0),
    with two _log_add, and with more logsumexp itself.
    """
    k, n, m, d = stack.means.shape
    lead = (k,) if owner is None else ()
    comp = np.empty(lead + (len(obs), n, m))
    logb = np.empty(lead + (len(obs), n))
    step = max(1, PAIR_FRAMES // ((k if owner is None else 1) * n * m * d))
    for i in range(0, len(obs), step):
        at = (slice(None), None) if owner is None else (owner[i:i + step],)
        part = comp[..., i:i + step, :, :]
        diff = obs[i:i + step, None, None, :] - stack.means[at]
        diff *= diff
        diff /= stack.variances[at]
        np.sum(diff, axis=-1, out=part)
        part *= -0.5  # then log_wn - 0.5 * maha, bit for bit
        part += stack.log_wn[at]
        block = logb[..., i:i + step, :]
        if m == 1:
            np.add(part[..., 0], 0.0, out=block)
        elif m == 2:
            with np.errstate(invalid="ignore"):
                _log_add(part[..., 0], part[..., 1], out=block)
        else:
            block[...] = logsumexp(part, axis=-1)
    return comp, logb


def _forward(logb: np.ndarray, log_trans: np.ndarray, banded: bool) -> np.ndarray:
    """Log forward variables (P, T, N) of P models, each entering in state 1,
    over their frames' state log-densities logb (P, T, N): one utterance per
    model, padded to a common T.  Each row's arithmetic is elementwise, so
    its variables do not depend on the rows beside it, and its variables at
    frame t only on frames up to t, so padding past its end changes none of
    its own.  log_trans is (P, N, N), and banded whether the stack is _banded."""
    logb = logb.transpose(1, 0, 2)  # time-major views: one frame is one index
    alpha = np.full(logb.shape, -np.inf)
    alpha[0, :, 0] = logb[0, :, 0]
    if not banded:
        for t in range(1, len(logb)):
            alpha[t] = logsumexp(alpha[t - 1][:, :, None] + log_trans, axis=1) + logb[t]
        return alpha.transpose(1, 0, 2)
    stay = np.diagonal(log_trans, axis1=1, axis2=2)
    move = np.diagonal(log_trans, 1, axis1=1, axis2=2)
    moved = np.full(alpha.shape[1:], -np.inf)  # moved[:, j]: from state j - 1, none into 1
    with np.errstate(invalid="ignore"):
        for t in range(1, len(logb)):
            np.add(alpha[t - 1, :, :-1], move, out=moved[:, 1:])
            _log_add(alpha[t - 1] + stay, moved, out=alpha[t])
            alpha[t] += logb[t]
    return alpha.transpose(1, 0, 2)


def _backward(logb: np.ndarray, log_trans: np.ndarray, banded: bool,
              ends: np.ndarray) -> np.ndarray:
    """Log backward variables (P, T, N) of P models over logb (P, T, N), as
    _forward takes them, row p ending at its own last frame ends[p], where
    its variables are 0.  Frames past a row's end are computed and never
    read; its variables before the end depend only on its own frames."""
    logb = logb.transpose(1, 0, 2)
    beta = np.zeros(logb.shape)
    last: dict[int, list[int]] = {}  # frame -> rows whose last frame it is
    for p, t in enumerate(ends.tolist()):
        last.setdefault(t, []).append(p)
    stay = np.diagonal(log_trans, axis1=1, axis2=2)
    move = np.diagonal(log_trans, 1, axis1=1, axis2=2)
    moved = np.full(beta.shape[1:], -np.inf)  # moved[:, i]: on to state i + 1, none from N
    with np.errstate(invalid="ignore"):
        for t in range(len(logb) - 2, -1, -1):
            w = logb[t + 1] + beta[t + 1]
            if banded:
                np.add(move, w[:, 1:], out=moved[:, :-1])
                _log_add(stay + w, moved, out=beta[t])
            else:
                beta[t] = logsumexp(log_trans + w[:, None, :], axis=2)
            if t in last:
                beta[t, last[t]] = 0.0
    return beta.transpose(1, 0, 2)


class HmmBank:
    """HMMs of one feature dim, stacked for scoring: one _Stack per (N, M)
    shape and _running_sums and _banded flags, so a set that mixes shapes
    needs no padding and one unbanded model sends no other to the general path."""

    def __init__(self, models: Sequence[HmmModel]):
        models = tuple(models)
        if len({m.dim for m in models}) != 1:
            raise ValueError("a bank needs models of one feature dim")
        self.dim = models[0].dim
        groups: dict[tuple[int, int, bool, bool], list[int]] = {}
        for k, m in enumerate(models):
            key = (m.n_states, m.n_mixtures, _running_sums(m.transitions),
                   _banded(m.transitions))
            groups.setdefault(key, []).append(k)
        # per shape and flags: bank position -> place in the stack, and the stack
        self._stacks = [({k: j for j, k in enumerate(ks)},
                         _stack(*_model_arrays([models[k] for k in ks])))
                        for ks in groups.values()]
        self.size = len(models)

    def log_forward_batch(self, observations: Sequence[np.ndarray],
                          rows: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """log P(obs | model) for each observation of a batch, of the models at
        its bank positions (rows[b] for observations[b]), in that order.

        Every observation and position is checked before anything is scored.
        Emission densities are taken per utterance and stack; each stack then
        runs one forward recursion over all of the batch's (utterance, model)
        pairs, padded to the longest utterance, and reads each pair at its own
        last frame.  A running-sum stack sums each pair over its own frames.
        """
        if len(observations) != len(rows):
            raise ValueError(f"{len(observations)} observations but {len(rows)} row lists")
        observations = [_check_obs(obs, self.dim) for obs in observations]
        for r in rows:
            if not all(0 <= k < self.size for k in r):
                raise IndexError(f"bank positions {list(r)} outside 0..{self.size - 1}")
        out = [np.empty(len(r)) for r in rows]
        for place, stack in self._stacks:
            # per utterance that needs this stack: its places in out and in the stack
            hits = []
            for b, r in enumerate(rows):
                pairs = [(i, place[k]) for i, k in enumerate(r) if k in place]
                if pairs:
                    outs, members = (list(x) for x in zip(*pairs))
                    hits.append((b, outs, members))
            if not hits:
                continue
            whole = list(range(len(place)))
            if stack.running_sums:
                for b, outs, members in hits:
                    part = stack if members == whole else stack.take(members)
                    logb = _log_densities(part, observations[b])[1]
                    # frames summed along the last axis of a contiguous (K, T) array
                    out[b][outs] = np.sum(logb[:, :, 0], axis=1)
                continue
            members = [k for _, _, ks in hits for k in ks]
            ends = [len(observations[b]) - 1 for b, _, ks in hits for _ in ks]
            # padding frames hold 0.0: finite, run through the recursion, never read
            logb = np.zeros((len(members), max(ends) + 1, stack.log_wn.shape[1]))
            starts = list(itertools.accumulate((len(ks) for _, _, ks in hits), initial=0))
            for (b, _, ks), p in zip(hits, starts):
                obs = observations[b]
                part = stack if ks == whole else stack.take(ks)
                logb[p:p + len(ks), :len(obs)] = _log_densities(part, obs)[1]
            alpha = _forward(logb, stack.log_trans[members], stack.banded)
            scores = logsumexp(alpha[np.arange(len(members)), ends], axis=1)
            for (b, outs, ks), p in zip(hits, starts):
                out[b][outs] = scores[p:p + len(ks)]
        return out

    def log_forward(self, obs: np.ndarray, rows: Sequence[int] | None = None) -> np.ndarray:
        """log P(obs | model) of the models at bank positions ``rows`` (default
        all), in that order: log_forward_batch's one-utterance case."""
        return self.log_forward_batch([obs], [range(self.size) if rows is None else rows])[0]


def log_forward(model: HmmModel, obs: np.ndarray) -> float:
    """Total log-likelihood log P(O | model), summed over all state paths.

    Computed entirely in the log domain, so extremely small frame densities
    stay finite instead of underflowing.  This is HmmBank's one-model case.
    """
    return float(HmmBank((model,)).log_forward(obs)[0])


def avg_frame_ll(model: HmmModel, obs: np.ndarray) -> float:
    """Per-frame average log-likelihood: log_forward(model, obs) / T."""
    return log_forward(model, obs) / len(obs)


def viterbi(model: HmmModel, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """Most likely state path and its log-probability.

    Returns 1-based state indices.  Among equally likely paths the
    lexicographically smallest state sequence is returned, found by a
    backward max pass followed by a greedy forward selection of the
    smallest state that still attains the optimum.
    """
    obs = _check_obs(obs, model.dim)
    t_len = obs.shape[0]
    n = model.n_states
    stack = _stack(*_model_arrays((model,)))
    logb, la = _log_densities(stack, obs)[1][0], stack.log_trans[0]

    # tail[t, i] = best log-prob of transitions+emissions from (t, i) to the end
    tail = np.zeros((t_len, n))
    for t in range(t_len - 2, -1, -1):
        cand = la + logb[t + 1][None, :] + tail[t + 1][None, :]
        tail[t] = cand.max(axis=1)

    path = np.zeros(t_len, dtype=np.int64)
    best = logb[0, 0] + tail[0, 0]
    for t in range(1, t_len):
        prev = path[t - 1]
        target = tail[t - 1, prev]
        for j in range(prev, min(prev + model.max_skip, n - 1) + 1):
            # identical expression (and evaluation order) as the tail pass,
            # so the comparison is exact even among tied paths
            if la[prev, j] + logb[t, j] + tail[t, j] == target:
                path[t] = j
                break
    return path + 1, float(best)


def sample_sequence(model: HmmModel, t_len: int, seed: int) -> np.ndarray:
    """Draw a (t_len, D) observation matrix from the model, deterministically.

    Consumes the RNG in a fixed order: the full state path first, then one
    mixture draw plus D normal draws per frame.  Each draw picks the first
    index whose cumulative probability (np.cumsum's) exceeds it, the last
    when rounding leaves none.
    """
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    _check_valid(model)
    rng = np.random.default_rng(seed)
    n, m = model.n_states, model.n_mixtures
    transitions = np.cumsum(model.transitions, axis=-1).tolist()
    weights = np.cumsum(model.weights, axis=-1).tolist()
    scales = np.sqrt(model.variances)

    states = [0]
    for u in rng.random(t_len - 1).tolist():
        states.append(min(bisect.bisect_right(transitions[states[-1]], u), n - 1))

    out = np.empty((t_len, model.dim))
    for t, s in enumerate(states):
        k = min(bisect.bisect_right(weights[s], rng.random()), m - 1)
        out[t] = model.means[s, k] + rng.standard_normal(model.dim) * scales[s, k]
    return out


# ---------------------------------------------------------------------------
# training


def _canonical_order(utterances: list[np.ndarray]) -> list[int]:
    # accumulation order independent of how the caller happened to list them
    keys = [(u.shape[0], u.tobytes()) for u in utterances]
    return sorted(range(len(utterances)), key=lambda i: keys[i])


def _e_step(stack: _Stack, owner: np.ndarray, utterances: Sequence[np.ndarray]):
    """One E-step over a run of P pairs, pair p being utterances[p] under the
    stack's model owner[p]: each pair's log-likelihood (P,) and sufficient
    statistics, transition counts (P, N, N), occupancies (P, N, M) and
    first and second moments (P, N, M, D).

    Densities are taken frame by frame, each under its pair's model, and
    each recursion runs once over all pairs, padded to the longest.  Every
    statistic of a pair reads its own frames only: its backward pass and
    its running sums start at its own last frame, its transition counts
    stop there (a one-frame utterance counts none), and its occupancies and
    moments are reduced over exactly its frames.
    """
    lengths = np.array([len(u) for u in utterances])
    ends = lengths - 1
    rows = np.arange(len(utterances))
    comp, logb = _log_densities(stack, np.concatenate(utterances), np.repeat(owner, lengths))
    n, d = logb.shape[1], utterances[0].shape[1]
    frames = np.arange(lengths.max()) < lengths[:, None]  # (P, T): real, not padding
    trans = np.zeros((len(rows), n, n))
    if stack.running_sums:
        # one state that never leaves: both recursions are running sums, the
        # same additions that a one-element logsumexp (which returns its
        # input) and a 0.0 log-transition leave the general loops doing.
        # _reestimate pins the one row, so no transition count is taken.
        padded = np.zeros(frames.shape)
        padded[frames] = logb[:, 0]
        alpha = np.cumsum(padded, axis=1)
        ll = alpha[rows, ends]
        # backward sums run from the last frame down; -0.0 + x is x, so a
        # pair's sum starts at its own last frame
        padded[~frames] = -0.0
        beta = np.zeros(frames.shape)
        beta[:, :-1] = np.cumsum(padded[:, :0:-1], axis=1)[:, ::-1]
        beta[np.arange(frames.shape[1]) >= ends[:, None]] = 0.0
        alpha, beta = alpha[:, :, None], beta[:, :, None]
    else:
        padded = np.zeros(frames.shape + (n,))  # padding holds 0.0: finite, never read
        padded[frames] = logb
        la = stack.log_trans[owner]
        alpha = _forward(padded, la, stack.banded)
        ll = logsumexp(alpha[rows, ends], axis=1)
        beta = _backward(padded, la, stack.banded, ends)
        # transition counts: a running sum over the frames in frame order (a
        # pairwise reduce rounds otherwise), read at each pair's own last
        # transition; one (P, N, N) step at a time, so no (P, T, N, N) array
        last: dict[int, list[int]] = {}
        for p, t in enumerate(ends.tolist()):
            last.setdefault(t - 1, []).append(p)
        padded += beta  # now each frame's emission plus backward variables
        ahead = padded.transpose(1, 0, 2)
        total = np.zeros(trans.shape)
        for t, a_t in enumerate(alpha.transpose(1, 0, 2)[:-1]):
            xi = a_t[:, :, None] + la
            xi += ahead[t + 1][:, None, :]
            xi -= ll[:, None, None]
            total += np.exp(xi, out=xi)
            if t in last:
                trans[last[t]] = total[last[t]]

    log_gamma = alpha[frames] + beta[frames] - np.repeat(ll, lengths)[:, None]  # (F, N)
    with np.errstate(invalid="ignore"):
        comp -= logb[:, :, None]  # now within-state mixture responsibility
    comp[~np.isfinite(logb), :] = -np.inf
    comp += log_gamma[:, :, None]
    gamma_m = np.exp(comp, out=comp)  # (F, N, M)

    # per pair, over exactly its own frames: these reductions round by shape
    occ = np.empty((len(rows),) + comp.shape[1:])
    first = np.empty(occ.shape + (d,))
    second = np.empty(first.shape)
    start = 0
    for p, u in enumerate(utterances):
        g = gamma_m[start:start + len(u)]
        start += len(u)
        occ[p] = g.sum(axis=0)
        first[p] = np.einsum("tnm,td->nmd", g, u)
        second[p] = np.einsum("tnm,td->nmd", g, u * u)
    return ll, trans, occ, first, second


def pair_runs(pairs: Sequence[int], frames: Sequence[int], size: int | None = None) -> list[slice]:
    """Consecutive runs of items, item i holding pairs[i] (utterance, model)
    pairs of frames[i] frames: at most size items a run, and at most
    PAIR_FRAMES pairs times its longest item's frames; an item past that
    alone is a run.  Scoring chunks and training runs are cut alike."""
    starts, total, longest = [], 0, 0
    for i, (n, t) in enumerate(zip(pairs, frames)):
        total, longest = total + n, max(longest, t)
        if not starts or i - starts[-1] == size or total * longest > PAIR_FRAMES:
            starts.append(i)
            total, longest = n, t
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(pairs)])]


def _stack_statistics(stack: _Stack, sets: Sequence[Sequence[np.ndarray]]):
    """Each stack model's per-utterance log-likelihoods (a list per model)
    and its statistics summed over its utterances (sets[k], in canonical
    order), (K, ...) arrays.  The (model, utterance) pairs lie on one axis,
    cut into runs by PAIR_FRAMES, one _e_step each.  Each model's sums add
    its pairs in order from 0.0, as Python's sum does, across runs too."""
    owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    utterances = [u for s in sets for u in s]
    lls: list[list[float]] = [[] for _ in sets]
    totals = None
    for run in pair_runs([1] * len(utterances), [len(u) for u in utterances]):
        own = owner[run]
        ll, *stats = _e_step(stack, own, utterances[run])
        for k, x in zip(own.tolist(), ll.tolist()):
            lls[k].append(x)
        if totals is None:
            totals = [np.zeros((len(sets),) + s.shape[1:]) for s in stats]
        # a model's pairs are consecutive: rank is each pair's place among them
        rank = np.arange(len(own)) - np.searchsorted(own, own)
        for total, part in zip(totals, stats):
            # column 0 the model's sum so far, then its pairs, then 0.0s
            grid = np.zeros((len(sets), rank.max() + 2) + part.shape[1:])
            grid[:, 0] = total
            grid[own, rank + 1] = part
            total[...] = np.add.accumulate(grid, axis=1)[:, -1]
    return lls, totals


def _reestimate(params, trans, occ, first, second) -> tuple[np.ndarray, ...]:
    """M-step on the arrays (transitions, weights, means, variances) of one
    model, or of a stack of them on leading axes, from their statistics.

    A transition row with no counts keeps its probabilities, a state never
    visited keeps its whole emission, and a starved component keeps its
    mean and variance.
    """
    a, w, mu, var = params
    tiny = 1e-12
    total = trans.sum(axis=-1, keepdims=True)
    state_occ = occ.sum(axis=-1, keepdims=True)
    # "not starved", so a NaN statistic surfaces as a non-finite parameter;
    # occupancies are nonnegative, so an unvisited state's components all starve
    visited = ~(state_occ <= tiny)
    fed = ~(occ <= tiny)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        new_a = np.where(total > tiny, trans / total, a)
        new_w = np.maximum(occ / state_occ, WEIGHT_FLOOR)
        new_w = np.where(visited, new_w / new_w.sum(axis=-1, keepdims=True), w)
        new_mu = first / occ[..., None]
        new_var = np.maximum(second / occ[..., None] - new_mu * new_mu, VARIANCE_FLOOR)
    # structural zeros can only shrink (xi is zero outside the Bakis band);
    # pin the final row and renormalize defensively
    new_a[..., -1, :] = 0.0
    new_a[..., -1, -1] = 1.0
    new_a /= new_a.sum(axis=-1, keepdims=True)
    return new_a, new_w, np.where(fed, new_mu, mu), np.where(fed, new_var, var)


def train_models(jobs: Sequence[tuple[HmmModel, Sequence[np.ndarray]]],
                 cfg: TrainConfig | None = None) -> list[tuple[HmmModel, list[float]]]:
    """EM training of a set of models in lockstep: one (trained model,
    history) per (init, utterances) job, each train_baum_welch's result.

    Each iteration stacks the models still training per (N, M, D) shape and
    _running_sums and _banded flags, as HmmBank does, runs one E-step per
    run of the stack's (model, utterance) pairs (_stack_statistics) and one
    M-step over the whole stack.  Each model keeps its own history and
    stops at its own iteration, by the convergence_delta test.
    """
    cfg = cfg or TrainConfig()
    sets = []
    for init, utterances in jobs:
        if not utterances:
            raise ValueError("training set is empty")
        utterances = [_check_obs(u, init.dim) for u in utterances]
        _check_valid(init)
        sets.append([utterances[i] for i in _canonical_order(utterances)])
    params = [init.arrays for init, _ in jobs]
    histories: list[list[float]] = [[] for _ in jobs]
    training = list(range(len(jobs)))
    for _ in range(cfg.max_iterations):
        stacks: dict[tuple, list[int]] = {}
        for k in training:
            a, _, mu, _ = params[k]
            stacks.setdefault((mu.shape, _running_sums(a), _banded(a)), []).append(k)
        for ks in stacks.values():
            arrays = tuple(np.stack(x) for x in zip(*(params[k] for k in ks)))
            lls, totals = _stack_statistics(_stack(*arrays), [sets[k] for k in ks])
            for k, ll, new in zip(ks, lls, zip(*_reestimate(arrays, *totals))):
                histories[k].append(sum(ll))
                params[k] = new
        training = [k for k in training if not (
            len(histories[k]) >= 2
            and abs(histories[k][-1] - histories[k][-2]) < cfg.convergence_delta * len(sets[k]))]
        if not training:
            break
    return [(HmmModel.from_arrays(*arrays, max_skip=init.max_skip), history)
            for (init, _), arrays, history in zip(jobs, params, histories)]


def train_baum_welch(
    init: HmmModel, utterances: list[np.ndarray], cfg: TrainConfig | None = None
) -> tuple[HmmModel, list[float]]:
    """EM training over multiple utterances: train_models' one-model case.

    Returns the trained model and the per-iteration total log-likelihood
    history (evaluated before each update).  Sufficient statistics are
    accumulated in a canonical utterance order, so the result does not
    depend on how the training list was ordered.
    """
    return train_models([(init, utterances)], cfg)[0]


def _kmeans(frames: np.ndarray, k: int, iterations: int, rng: np.random.Generator):
    """Seeded Lloyd iterations; returns (centers, labels)."""
    n = frames.shape[0]
    centers = frames[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        d2 = ((frames[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = frames[mask].mean(axis=0)
            else:
                # farthest point from the existing centers, ties to the first
                centers[c] = frames[int(np.argmax(d2.min(axis=1)))]
    d2 = ((frames[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return centers, labels


def init_model(
    utterances: list[np.ndarray],
    n_states: int,
    n_mixtures: int,
    cfg: TrainConfig | None = None,
) -> HmmModel:
    """Flat-start initialization.

    Each utterance is cut into ``n_states`` equal time segments; the pooled
    frames of segment j seed state j's GMM through seeded k-means.  If some
    segment pool holds fewer frames than ``n_mixtures``, the mixture count
    is lowered to fit and the reduction logged.  Transitions start at
    self-loop 0.5 and next state 0.5 (final state self-loops with
    probability 1).
    """
    cfg = cfg or TrainConfig()
    if n_states < 1 or n_mixtures < 1:
        raise ValueError("model sizes must be positive")
    if not utterances:
        raise ValueError("training set is empty")
    utterances = [np.asarray(u, dtype=np.float64) for u in utterances]
    dim = utterances[0].shape[1]
    order = _canonical_order(utterances)

    pools: list[list[np.ndarray]] = [[] for _ in range(n_states)]
    for i in order:
        u = utterances[i]
        t_len = u.shape[0]
        bounds = np.floor(np.linspace(0, t_len, n_states + 1)).astype(int)
        for j in range(n_states):
            if bounds[j + 1] > bounds[j]:
                pools[j].append(u[bounds[j]:bounds[j + 1]])
    all_frames = np.concatenate([utterances[i] for i in order], axis=0)
    segments = [np.concatenate(p, axis=0) if p else all_frames for p in pools]

    m_eff = min(n_mixtures, min(seg.shape[0] for seg in segments))
    if m_eff < n_mixtures:
        log.warning("mixture count lowered from %d to %d (short segments)", n_mixtures, m_eff)

    rng = np.random.default_rng(cfg.seed)
    states = []
    for seg in segments:
        centers, labels = _kmeans(seg, m_eff, KMEANS_ITERATIONS, rng)
        weights = np.bincount(labels, minlength=m_eff).astype(np.float64)
        weights = np.maximum(weights / weights.sum(), WEIGHT_FLOOR)
        variances = np.empty((m_eff, dim))
        for c in range(m_eff):
            mask = labels == c
            variances[c] = seg[mask].var(axis=0) if mask.any() else 0.0
        states.append((weights / weights.sum(), centers, np.maximum(variances, VARIANCE_FLOOR)))

    a = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        a[i, i] = a[i, i + 1] = 0.5
    a[-1, -1] = 1.0
    # no frame was checked, so from_arrays refuses a non-finite one here
    return HmmModel.from_arrays(a, *map(np.array, zip(*states)))


# ---------------------------------------------------------------------------
# serialization: little-endian float64 payload behind a fixed header


def write_hmm(fp, model: HmmModel) -> None:
    """Write one model block: magic, version, N, M, D, then transitions,
    weights, means, variances as little-endian float64."""
    write_frame(fp, _MODEL_MAGIC, _MODEL_VERSION, (model.n_states, model.n_mixtures, model.dim))
    for x in model.arrays:
        fp.write(x.astype("<f8").tobytes())


def read_hmm(fp) -> HmmModel:
    """Read one model block written by write_hmm; FormatError unless it is
    structurally valid.  No training floor applies, so any positive variance loads."""
    n, m, d = read_frame(fp, _MODEL_MAGIC, _MODEL_VERSION, 3, "model")
    if min(n, m, d) < 1:
        raise FormatError(f"empty model shape N={n}, M={m}, D={d}")
    a = read_array(fp, (n, n), "model")
    weights = read_array(fp, (n, m), "model")
    means = read_array(fp, (n, m, d), "model")
    variances = read_array(fp, (n, m, d), "model")
    if not all(np.isfinite(x).all() for x in (a, weights, means, variances)):
        raise FormatError("model file holds non-finite values")
    if (variances <= 0).any():
        raise FormatError("model file holds non-positive variances")
    rows, cols = a.nonzero()
    skip = int((cols - rows).max(initial=1))
    model = HmmModel._of_finite(a, weights, means, variances, skip)
    problems = validate(model, variance_floor=0.0)
    if problems:
        raise FormatError("invalid model file: " + "; ".join(problems))
    return model


def save_hmm(model: HmmModel, path) -> None:
    write_file(path, lambda fp: write_hmm(fp, model))


def load_hmm(path) -> HmmModel:
    return read_file(path, read_hmm)
