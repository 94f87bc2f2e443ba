"""Suprasegmental layer: prosodic models over block-rate vectors, fused
with acoustic scores.

A SuprasegmentalModel is a small left-to-right HMM over the prosodic
stream, ceil(n / 3) states for n acoustic states, plus an optional
composite state that scores the whole-utterance prosodic mean with a
single Gaussian; its summary_map is metadata that no score reads.  Scores
from both streams are averaged per frame before the weighted fusion, so
the weight mixes commensurate quantities even though the streams run at
different rates.  SphmmModel is the one type a model set holds: a plain
(acoustic-only) model has no prosodic stream and weight 0.  ModelSet is
the labeled set of them that stage a and the one-stage baseline score.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .binio import read_array, read_exact, read_file, read_header
from .errors import FormatError
from .frontend import ObservationPair
from .hmm import (
    VARIANCE_FLOOR,
    HmmModel,
    TrainConfig,
    avg_frame_ll,
    init_model,
    read_hmm,
    train_baum_welch,
    write_hmm,
)
from .seeds import derive_seed

_LOG_2PI = float(np.log(2.0 * np.pi))

_MAGIC = b"EMVS"
_VERSION = 1

DEFAULT_PROSODIC_MIXTURES = 2


def make_summary_map(n_states: int) -> tuple[int, ...]:
    """Acoustic state i (1-based) -> suprasegmental state ceil(i/3)."""
    return tuple(i // 3 + 1 for i in range(n_states))


@dataclass(frozen=True)
class CompositeState:
    """Single Gaussian over the whole-utterance mean prosodic vector."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "variance", np.asarray(self.variance, dtype=np.float64))
        if self.mean.shape != self.variance.shape or self.mean.ndim != 1:
            raise ValueError("composite mean and variance must be matching vectors")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.variance))):
            raise ValueError("composite mean and variance must be finite")
        if np.any(self.variance <= 0):
            raise ValueError("composite variances must be positive")

    def log_density(self, x: np.ndarray) -> float:
        diff = np.asarray(x, dtype=np.float64) - self.mean
        return float(
            -0.5 * (self.mean.shape[0] * _LOG_2PI + np.sum(np.log(self.variance))
                    + np.sum(diff * diff / self.variance))
        )


@dataclass(frozen=True)
class SuprasegmentalModel:
    """Prosodic HMM plus the acoustic-to-suprasegmental state summary.

    summary_map is metadata: it is validated and stored, never scored.
    """

    hmm: HmmModel
    summary_map: tuple[int, ...]
    composite: CompositeState | None = None

    def __post_init__(self):
        object.__setattr__(self, "summary_map", tuple(int(s) for s in self.summary_map))
        n_s = self.hmm.n_states
        if not self.summary_map:
            raise ValueError("summary_map is empty")
        if list(self.summary_map) != sorted(self.summary_map):
            raise ValueError("summary_map must be monotone non-decreasing")
        if set(self.summary_map) != set(range(1, n_s + 1)):
            raise ValueError(f"summary_map must be onto 1..{n_s}")

    @property
    def n_states(self) -> int:
        return self.hmm.n_states


@dataclass(frozen=True)
class SphmmModel:
    """Acoustic model, prosodic model (None and alpha 0 if plain), weight, log-priors."""

    acoustic: HmmModel
    prosodic: SuprasegmentalModel | None
    alpha: float = 0.5
    log_priors: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.prosodic is None and self.alpha != 0.0:
            raise ValueError("a model without a prosodic stream needs alpha 0")
        object.__setattr__(self, "log_priors", tuple(float(p) for p in self.log_priors))
        if len(self.log_priors) != 2 or not all(math.isfinite(p) for p in self.log_priors):
            raise ValueError("log_priors must be two finite values")


def score_acoustic(model: SphmmModel, obs: ObservationPair) -> float:
    """Per-frame acoustic log score: avg_frame_ll plus the per-frame prior.

    With the default uniform priors the prior term is one shared constant,
    so every comparison between candidate models is likelihood-only.
    """
    t_len = obs.acoustic.shape[0]
    return avg_frame_ll(model.acoustic, obs.acoustic) + model.log_priors[0] / t_len


def score_prosodic(model: SphmmModel, obs: ObservationPair) -> float:
    """Per-frame prosodic log score over the block-rate stream.

    Adds the composite state's log-density of the utterance-mean prosodic
    vector (when present) and the prior, both averaged over T_p.
    """
    tp_len = obs.prosodic.shape[0]
    score = avg_frame_ll(model.prosodic.hmm, obs.prosodic)
    if model.prosodic.composite is not None:
        score += model.prosodic.composite.log_density(obs.prosodic.mean(axis=0)) / tp_len
    return score + model.log_priors[1] / tp_len


def fuse_scores(alpha: float, acoustic: float, prosodic: float | None) -> float:
    """(1 - alpha) * acoustic + alpha * prosodic, in the log domain.

    The endpoints bypass arithmetic entirely: alpha 0 returns the acoustic
    score unchanged and alpha 1 the prosodic score, bit for bit.  A weight
    above 0 needs a prosodic score, which a plain model does not have.
    """
    if alpha == 0.0:
        return acoustic
    if prosodic is None:
        raise ValueError(f"fusion weight {alpha!r} needs a prosodic stream; a plain model has none")
    if alpha == 1.0:
        return prosodic
    return (1.0 - alpha) * acoustic + alpha * prosodic


@dataclass(frozen=True)
class ModelSet:
    """Ordered label -> model: at least two, of one feature dim, one kind
    (plain or fused) and one fusion weight.

    Stage a's set is keyed by emotion and the one-stage baseline's pooled
    set by speaker; a speaker-emotion set checks its models through one.
    """

    models: dict[object, SphmmModel]

    def __post_init__(self):
        if len(self.models) < 2:
            raise ValueError(f"a model set needs at least 2 models, got {len(self.models)}")
        self.alpha  # fail fast on mixed dims, kinds or fusion weights

    @property
    def labels(self) -> tuple:
        return tuple(self.models)

    @property
    def alpha(self) -> float:
        """The fusion weight the models share: 0.0 for plain ones."""
        models = self.models.values()
        if len({m.acoustic.dim for m in models}) != 1:
            raise ValueError("models disagree on feature dim")
        if len({m.prosodic is None for m in models}) != 1:
            raise ValueError("models mix fused and plain kinds")
        alphas = {m.alpha for m in models}
        if len(alphas) != 1:
            raise ValueError("models disagree on alpha")
        return alphas.pop()


def stream_scores(model: SphmmModel, obs: ObservationPair) -> tuple[float, float | None]:
    """(acoustic, prosodic) scores of one model; prosodic is None for a plain model.

    fuse_scores of the pair at any weight is the fused score at that
    weight, so one pair serves every weight a decision applies.
    """
    acoustic = score_acoustic(model, obs)
    return acoustic, None if model.prosodic is None else score_prosodic(model, obs)


def score_fused(model: SphmmModel, obs: ObservationPair) -> float:
    """Fused stream scores at the model's own mixing weight."""
    return fuse_scores(model.alpha, *stream_scores(model, obs))


def train_sphmm(
    utterances: list[ObservationPair],
    n_states: int,
    n_mixtures: int,
    alpha: float = 0.5,
    cfg: TrainConfig | None = None,
    prosodic_mixtures: int = DEFAULT_PROSODIC_MIXTURES,
    composite: bool = True,
) -> SphmmModel:
    """Train both streams independently and assemble the fused model.

    The acoustic model gets n_states states; the prosodic model gets
    ceil(n_states / 3) states over block-rate vectors, plus (optionally)
    the composite Gaussian fit to per-utterance prosodic means.
    """
    cfg = cfg or TrainConfig()
    if not utterances:
        raise ValueError("training set is empty")
    acoustics = [u.acoustic for u in utterances]
    prosodics = [u.prosodic for u in utterances]

    ac_init = init_model(acoustics, n_states, n_mixtures, cfg)
    ac_model, _ = train_baum_welch(ac_init, acoustics, cfg)

    n_supra = math.ceil(n_states / 3)
    pr_cfg = replace(cfg, seed=derive_seed(cfg.seed, "prosodic"))
    pr_init = init_model(prosodics, n_supra, prosodic_mixtures, pr_cfg)
    pr_model, _ = train_baum_welch(pr_init, prosodics, pr_cfg)

    comp = None
    if composite:
        means = np.stack([p.mean(axis=0) for p in prosodics])
        comp = CompositeState(
            means.mean(axis=0),
            np.maximum(means.var(axis=0), VARIANCE_FLOOR),
        )
    supra = SuprasegmentalModel(pr_model, make_summary_map(n_states), comp)
    return SphmmModel(ac_model, supra, alpha=alpha)


# ---------------------------------------------------------------------------
# serialization


def write_sphmm(fp, model: SphmmModel) -> None:
    if model.prosodic is None:
        raise ValueError("a plain model has no prosodic stream to store in .emvs; "
                         "write its acoustic stream with write_hmm(model.acoustic)")
    fp.write(_MAGIC)
    n = model.acoustic.n_states
    comp = model.prosodic.composite
    dp = comp.mean.shape[0] if comp is not None else 0
    fp.write(np.array([_VERSION, n, 1 if comp is not None else 0, dp], dtype="<u4").tobytes())
    fp.write(np.array([model.alpha, *model.log_priors], dtype="<f8").tobytes())
    fp.write(np.array(model.prosodic.summary_map, dtype="<u4").tobytes())
    if comp is not None:
        fp.write(comp.mean.astype("<f8").tobytes())
        fp.write(comp.variance.astype("<f8").tobytes())
    write_hmm(fp, model.acoustic)
    write_hmm(fp, model.prosodic.hmm)


def read_sphmm(fp) -> SphmmModel:
    """Read a model written by write_sphmm; FormatError unless it is valid."""
    magic = read_exact(fp, 4, "model")
    if magic != _MAGIC:
        raise FormatError(f"bad model magic {magic!r}")
    version, n, has_comp, dp = read_header(fp, 4, "model")
    if version != _VERSION:
        raise FormatError(f"unsupported model version {version}")
    if has_comp not in (0, 1):
        raise FormatError(f"bad composite flag {has_comp}")
    alpha, prior_ac, prior_pr = (float(v) for v in read_array(fp, (3,), "model"))
    summary_map = tuple(int(s) for s in read_array(fp, (n,), "model", dtype="<u4"))
    comp = [read_array(fp, (dp,), "model") for _ in range(2)] if has_comp else None
    acoustic = read_hmm(fp)
    prosodic = read_hmm(fp)
    if n != acoustic.n_states or (comp is not None and dp != prosodic.dim):
        raise FormatError("model file header disagrees with its stream models")
    try:
        return SphmmModel(
            acoustic,
            SuprasegmentalModel(prosodic, summary_map, CompositeState(*comp) if comp else None),
            alpha=alpha,
            log_priors=(prior_ac, prior_pr),
        )
    except ValueError as exc:
        raise FormatError(f"invalid model file: {exc}") from None


def save_sphmm(model: SphmmModel, path) -> None:
    buf = io.BytesIO()
    write_sphmm(buf, model)  # a refused model leaves no file behind
    with open(path, "wb") as fp:
        fp.write(buf.getvalue())


def load_sphmm(path) -> SphmmModel:
    return read_file(path, read_sphmm)
