"""Left-to-right (Bakis) HMMs with diagonal-covariance GMM emissions.

States are numbered 1..N in all public surfaces (error messages, Viterbi
paths); internally arrays are 0-based.  The initial distribution is fixed:
state 1 with probability 1.  Transitions are restricted to self-loops and
forward jumps of at most ``max_skip`` states (default 1).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .binio import read_array, read_exact, read_header
from .errors import FormatError

log = logging.getLogger(__name__)

ROW_SUM_TOL = 1e-9
DEFAULT_VARIANCE_FLOOR = 1e-4
DEFAULT_WEIGHT_FLOOR = 1e-8
_LOG_2PI = float(np.log(2.0 * np.pi))

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


@dataclass(frozen=True)
class HmmModel:
    """Bakis HMM: (N, N) transition matrix plus one GmmEmission per state."""

    transitions: np.ndarray
    emissions: tuple[GmmEmission, ...]
    max_skip: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "transitions", _as_float_array(self.transitions, "transitions")
        )
        object.__setattr__(self, "emissions", tuple(self.emissions))
        n = len(self.emissions)
        if self.transitions.shape != (n, n):
            raise ValueError(
                f"transition matrix shape {self.transitions.shape} does not match "
                f"{n} emission states"
            )
        if self.max_skip < 1:
            raise ValueError("max_skip must be >= 1")

    @property
    def n_states(self) -> int:
        return len(self.emissions)

    @property
    def n_mixtures(self) -> int:
        return self.emissions[0].n_components

    @property
    def dim(self) -> int:
        return self.emissions[0].dim


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for EM training and k-means initialization."""

    max_iterations: int = 20
    convergence_delta: float = 1e-4  # per-utterance log-likelihood change
    variance_floor: float = DEFAULT_VARIANCE_FLOOR
    weight_floor: float = DEFAULT_WEIGHT_FLOOR
    kmeans_iterations: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1 or self.kmeans_iterations < 1:
            raise ValueError("iteration counts must be positive")
        if self.convergence_delta <= 0 or self.variance_floor <= 0 or self.weight_floor <= 0:
            raise ValueError("convergence delta and floors must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def validate(model: HmmModel, variance_floor: float = DEFAULT_VARIANCE_FLOOR) -> list[str]:
    """Check every model invariant; return the list of violations (empty = ok)."""
    errors = []
    n = model.n_states
    a = model.transitions
    if np.any(a < 0):
        errors.append("negative transition probability")
    row_sums = a.sum(axis=1)
    for i in range(n):
        if abs(row_sums[i] - 1.0) > ROW_SUM_TOL:
            errors.append(f"transition row {i + 1} sums to {row_sums[i]:.10g}")
    for i in range(n):
        for j in range(n):
            if a[i, j] != 0.0 and not (i <= j <= i + model.max_skip):
                errors.append(f"non-Bakis transition ({i + 1}→{j + 1})")
    m = model.n_mixtures
    d = model.dim
    for i, em in enumerate(model.emissions):
        if em.n_components != m:
            errors.append(f"state {i + 1} has {em.n_components} components, expected {m}")
        if em.dim != d:
            errors.append(f"state {i + 1} has dim {em.dim}, expected {d}")
        if np.any(em.weights < 0):
            errors.append(f"state {i + 1} has a negative mixture weight")
        wsum = em.weights.sum()
        if abs(wsum - 1.0) > ROW_SUM_TOL:
            errors.append(f"state {i + 1} weights sum {wsum:.10g}")
        if np.any(em.variances < variance_floor * (1 - 1e-12)):
            errors.append(f"state {i + 1} has a variance below the floor {variance_floor:g}")
    return errors


def _check_valid(model: HmmModel) -> None:
    problems = validate(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))


def _check_obs(model: HmmModel, obs: np.ndarray) -> np.ndarray:
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[0] == 0:
        raise ValueError("observation must be a nonempty (T, D) matrix")
    if obs.shape[1] != model.dim:
        raise ValueError(
            f"observation dim {obs.shape[1]} does not match model dim {model.dim}"
        )
    return obs


def _component_log_densities(em: GmmEmission, obs: np.ndarray) -> np.ndarray:
    """Per-frame, per-component log (weight * gaussian density): (T, M)."""
    diff = obs[:, None, :] - em.means[None, :, :]
    maha = np.sum(diff * diff / em.variances[None, :, :], axis=2)
    log_norm = -0.5 * (em.dim * _LOG_2PI + np.sum(np.log(em.variances), axis=1))
    with np.errstate(divide="ignore"):
        log_w = np.log(em.weights)
    return log_w[None, :] + log_norm[None, :] - 0.5 * maha


def _state_log_densities(model: HmmModel, obs: np.ndarray) -> np.ndarray:
    """Per-frame emission log-densities for every state: (T, N)."""
    cols = [logsumexp(_component_log_densities(em, obs), axis=1) for em in model.emissions]
    return np.stack(cols, axis=1)


def _log_transitions(model: HmmModel) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(model.transitions)


def log_forward(model: HmmModel, obs: np.ndarray) -> float:
    """Total log-likelihood log P(O | model), summed over all state paths.

    Computed entirely in the log domain, so extremely small frame densities
    stay finite instead of underflowing.
    """
    obs = _check_obs(model, obs)
    logb = _state_log_densities(model, obs)
    if model.n_states == 1:  # single state: no paths to sum over
        return float(np.sum(logb))
    la = _log_transitions(model)
    alpha = np.full(model.n_states, -np.inf)
    alpha[0] = logb[0, 0]
    for t in range(1, obs.shape[0]):
        alpha = logsumexp(alpha[:, None] + la, axis=0) + logb[t]
    return float(logsumexp(alpha))


def avg_frame_ll(model: HmmModel, obs: np.ndarray) -> float:
    """Per-frame average log-likelihood: log_forward(model, obs) / T."""
    obs = _check_obs(model, obs)
    return log_forward(model, obs) / obs.shape[0]


def viterbi(model: HmmModel, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """Most likely state path and its log-probability.

    Returns 1-based state indices.  Among equally likely paths the
    lexicographically smallest state sequence is returned, found by a
    backward max pass followed by a greedy forward selection of the
    smallest state that still attains the optimum.
    """
    obs = _check_obs(model, obs)
    t_len = obs.shape[0]
    n = model.n_states
    logb = _state_log_densities(model, obs)
    la = _log_transitions(model)

    # tail[t, i] = best log-prob of transitions+emissions from (t, i) to the end
    tail = np.zeros((t_len, n))
    for t in range(t_len - 2, -1, -1):
        cand = la + logb[t + 1][None, :] + tail[t + 1][None, :]
        tail[t] = cand.max(axis=1)

    path = np.empty(t_len, dtype=np.int64)
    path[0] = 0
    best = logb[0, 0] + tail[0, 0]
    for t in range(1, t_len):
        prev = path[t - 1]
        target = tail[t - 1, prev]
        chosen = -1
        for j in range(prev, min(prev + model.max_skip, n - 1) + 1):
            # identical expression (and evaluation order) as the tail pass,
            # so the comparison is exact even among tied paths
            if la[prev, j] + logb[t, j] + tail[t, j] == target:
                chosen = j
                break
        if chosen < 0:  # float safety net; cannot trigger with the exact match above
            js = np.arange(prev, min(prev + model.max_skip, n - 1) + 1)
            chosen = js[np.argmax(la[prev, js] + logb[t, js] + tail[t, js])]
        path[t] = chosen
    return path + 1, float(best)


def sample_sequence(model: HmmModel, t_len: int, seed: int) -> np.ndarray:
    """Draw a (t_len, D) observation matrix from the model, deterministically.

    Consumes the RNG in a fixed order: the full state path first, then one
    mixture draw plus D normal draws per frame.
    """
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    _check_valid(model)
    rng = np.random.default_rng(seed)
    n = model.n_states

    states = np.empty(t_len, dtype=np.int64)
    states[0] = 0
    for t in range(1, t_len):
        row = np.cumsum(model.transitions[states[t - 1]])
        states[t] = min(int(np.searchsorted(row, rng.random(), side="right")), n - 1)

    out = np.empty((t_len, model.dim))
    for t in range(t_len):
        em = model.emissions[states[t]]
        m = min(int(np.searchsorted(np.cumsum(em.weights), rng.random(), side="right")),
                em.n_components - 1)
        out[t] = em.means[m] + rng.standard_normal(model.dim) * np.sqrt(em.variances[m])
    return out


# ---------------------------------------------------------------------------
# training


def _canonical_order(utterances: list[np.ndarray]) -> list[int]:
    # accumulation order independent of how the caller happened to list them
    keys = [(u.shape[0], u.tobytes()) for u in utterances]
    return sorted(range(len(utterances)), key=lambda i: keys[i])


def _accumulate_stats(model: HmmModel, obs: np.ndarray, la: np.ndarray):
    """One E-step on one utterance: log-likelihood plus sufficient statistics."""
    t_len = obs.shape[0]
    n = model.n_states
    m = model.n_mixtures

    comp = np.stack(
        [_component_log_densities(em, obs) for em in model.emissions], axis=1
    )  # (T, N, M)
    logb = logsumexp(comp, axis=2)  # (T, N)

    alpha = np.full((t_len, n), -np.inf)
    alpha[0, 0] = logb[0, 0]
    for t in range(1, t_len):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + la, axis=0) + logb[t]
    ll = float(logsumexp(alpha[-1]))

    beta = np.zeros((t_len, n))
    for t in range(t_len - 2, -1, -1):
        beta[t] = logsumexp(la + (logb[t + 1] + beta[t + 1])[None, :], axis=1)

    log_gamma = alpha + beta - ll  # (T, N)
    with np.errstate(invalid="ignore"):
        log_resp = comp - logb[:, :, None]  # within-state mixture responsibility
    log_resp[~np.isfinite(logb), :] = -np.inf
    gamma_m = np.exp(log_gamma[:, :, None] + log_resp)  # (T, N, M)

    trans = np.zeros((n, n))
    for t in range(t_len - 1):
        trans += np.exp(alpha[t][:, None] + la + (logb[t + 1] + beta[t + 1])[None, :] - ll)

    occ = gamma_m.sum(axis=0)  # (N, M)
    first = np.einsum("tnm,td->nmd", gamma_m, obs)
    second = np.einsum("tnm,td->nmd", gamma_m, obs * obs)
    return ll, trans, occ, first, second


def _reestimate(
    model: HmmModel,
    trans: np.ndarray,
    occ: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    cfg: TrainConfig,
) -> HmmModel:
    n = model.n_states
    tiny = 1e-12

    new_a = model.transitions.copy()
    for i in range(n):
        row = trans[i]
        total = row.sum()
        if total > tiny:
            new_a[i] = row / total
    # structural zeros can only shrink (xi is zero outside the Bakis band),
    # but renormalize defensively and pin the final row
    new_a[new_a < 0] = 0.0
    new_a[-1, :] = 0.0
    new_a[-1, -1] = 1.0
    new_a /= new_a.sum(axis=1, keepdims=True)

    emissions = []
    for j, em in enumerate(model.emissions):
        state_occ = occ[j].sum()
        if state_occ <= tiny:
            emissions.append(em)  # state never visited: keep previous parameters
            continue
        weights = np.maximum(occ[j] / state_occ, cfg.weight_floor)
        weights = weights / weights.sum()
        means = em.means.copy()
        variances = em.variances.copy()
        for k in range(em.n_components):
            if occ[j, k] <= tiny:
                continue  # starved component: keep previous parameters
            mu = first[j, k] / occ[j, k]
            var = second[j, k] / occ[j, k] - mu * mu
            means[k] = mu
            variances[k] = np.maximum(var, cfg.variance_floor)
        emissions.append(GmmEmission(weights, means, variances))
    return HmmModel(new_a, tuple(emissions), max_skip=model.max_skip)


def train_baum_welch(
    init: HmmModel, utterances: list[np.ndarray], cfg: TrainConfig | None = None
) -> tuple[HmmModel, list[float]]:
    """EM training over multiple utterances.

    Returns the trained model and the per-iteration total log-likelihood
    history (evaluated before each update).  Sufficient statistics are
    accumulated in a canonical utterance order, so the result does not
    depend on how the training list was ordered.
    """
    cfg = cfg or TrainConfig()
    if not utterances:
        raise ValueError("training set is empty")
    utterances = [_check_obs(init, u) for u in utterances]
    _check_valid(init)
    order = _canonical_order(utterances)

    model = init
    history: list[float] = []
    for _ in range(cfg.max_iterations):
        la = _log_transitions(model)
        per_utt = [_accumulate_stats(model, utterances[i], la) for i in order]
        total_ll = sum(s[0] for s in per_utt)
        trans = sum(s[1] for s in per_utt)
        occ = sum(s[2] for s in per_utt)
        first = sum(s[3] for s in per_utt)
        second = sum(s[4] for s in per_utt)
        history.append(total_ll)
        model = _reestimate(model, trans, occ, first, second, cfg)
        if len(history) >= 2 and abs(history[-1] - history[-2]) < cfg.convergence_delta * len(
            utterances
        ):
            break
    return model, history


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
    max_skip: int = 1,
) -> HmmModel:
    """Flat-start initialization.

    Each utterance is cut into ``n_states`` equal time segments; the pooled
    frames of segment j seed state j's GMM through seeded k-means.  If some
    segment pool holds fewer frames than ``n_mixtures``, the mixture count
    is lowered to fit and the reduction logged.  Transitions start at
    self-loop 0.5 with the remaining mass split over the allowed forward
    jumps (final state self-loops with probability 1).
    """
    cfg = cfg or TrainConfig()
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
    emissions = []
    for seg in segments:
        centers, labels = _kmeans(seg, m_eff, cfg.kmeans_iterations, rng)
        weights = np.array([(labels == c).sum() for c in range(m_eff)], dtype=np.float64)
        weights = np.maximum(weights / weights.sum(), cfg.weight_floor)
        weights = weights / weights.sum()
        variances = np.empty((m_eff, dim))
        for c in range(m_eff):
            mask = labels == c
            variances[c] = seg[mask].var(axis=0) if mask.any() else 0.0
        variances = np.maximum(variances, cfg.variance_floor)
        emissions.append(GmmEmission(weights, centers, variances))

    a = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        targets = list(range(i + 1, min(i + max_skip, n_states - 1) + 1))
        a[i, i] = 0.5
        for j in targets:
            a[i, j] = 0.5 / len(targets)
    a[-1, -1] = 1.0
    return HmmModel(a, tuple(emissions), max_skip=max_skip)


# ---------------------------------------------------------------------------
# serialization: little-endian float64 payload behind a fixed header


def write_hmm(fp, model: HmmModel) -> None:
    """Write one model block: magic, version, N, M, D, then transitions,
    weights, means, variances as little-endian float64."""
    n, m, d = model.n_states, model.n_mixtures, model.dim
    fp.write(_MODEL_MAGIC)
    fp.write(np.array([_MODEL_VERSION, n, m, d], dtype="<u4").tobytes())
    fp.write(model.transitions.astype("<f8").tobytes())
    fp.write(np.stack([em.weights for em in model.emissions]).astype("<f8").tobytes())
    fp.write(np.stack([em.means for em in model.emissions]).astype("<f8").tobytes())
    fp.write(np.stack([em.variances for em in model.emissions]).astype("<f8").tobytes())


def read_hmm(fp) -> HmmModel:
    """Read one model block written by write_hmm; FormatError unless it is
    structurally valid.  No training floor applies, so any positive variance loads."""
    magic = read_exact(fp, 4, "model")
    if magic != _MODEL_MAGIC:
        raise FormatError(f"bad model magic {magic!r}")
    version, n, m, d = read_header(fp, 4, "model")
    if version != _MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    if min(n, m, d) < 1:
        raise FormatError(f"empty model shape N={n}, M={m}, D={d}")
    a = read_array(fp, (n, n), "model")
    weights = read_array(fp, (n, m), "model")
    means = read_array(fp, (n, m, d), "model")
    variances = read_array(fp, (n, m, d), "model")
    if not all(np.all(np.isfinite(x)) for x in (a, weights, means, variances)):
        raise FormatError("model file holds non-finite values")
    if np.any(variances <= 0):
        raise FormatError("model file holds non-positive variances")
    nz = np.nonzero(a)
    skip = max(1, int(max((j - i for i, j in zip(*nz)), default=1)))
    emissions = tuple(GmmEmission(weights[j], means[j], variances[j]) for j in range(n))
    model = HmmModel(a, emissions, max_skip=skip)
    problems = validate(model, variance_floor=0.0)
    if problems:
        raise FormatError("invalid model file: " + "; ".join(problems))
    return model


def save_hmm(model: HmmModel, path) -> None:
    with open(path, "wb") as fp:
        write_hmm(fp, model)


def load_hmm(path) -> HmmModel:
    with open(path, "rb") as fp:
        return read_hmm(fp)
