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
A ModelBank stacks a set's two streams (hmm.HmmBank) for scoring, so one
call scores a batch of utterances, each under any of its models.  Its
stream_scores_batch is the one score formula; stream_scores is its
one-utterance case, and score_acoustic, score_prosodic and score_fused its
one-model case.  train_set is the one trainer: each stream of its models
trains in lockstep through hmm.train_models, and train_sphmm is its
one-model case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .binio import read_array, read_file, read_frame, write_file, write_frame
from .errors import FormatError
from .frontend import ObservationPair
from .hmm import (
    VARIANCE_FLOOR,
    HmmBank,
    HmmModel,
    TrainConfig,
    init_model,
    read_hmm,
    train_models,
    write_hmm,
)
from .hmm import avg_frame_ll  # noqa: F401  benchmark/tracing.py wraps this name
from .hmm import train_baum_welch  # noqa: F401  benchmark/tracing.py wraps this name
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


def fuse_scores(alpha: float, acoustic: float, prosodic: float | None) -> float:
    """(1 - alpha) * acoustic + alpha * prosodic, in the log domain.

    The endpoints bypass arithmetic entirely: alpha 0 returns the acoustic
    score unchanged and alpha 1 the prosodic score, bit for bit.  A weight
    above 0 needs a prosodic score, which a plain model does not have.
    Scores are floats, or a score table's equal-shape stream arrays.
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


class ModelBank:
    """Models of one kind (plain or fused), stacked per stream for scoring,
    with each model's log-priors and composite state."""

    def __init__(self, models: Sequence[SphmmModel]):
        models = tuple(models)
        self.acoustic = HmmBank([m.acoustic for m in models])
        plain = models[0].prosodic is None
        self.prosodic = None if plain else HmmBank([m.prosodic.hmm for m in models])
        self.composites = tuple(None if plain else m.prosodic.composite for m in models)
        self.log_priors = np.array([m.log_priors for m in models])  # (K, 2)

    def stream_scores_batch(
        self, observations: Sequence[ObservationPair], rows: Sequence[Sequence[int]]
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """(acoustic, prosodic) scores of each utterance of a batch under the
        models at its bank positions (rows[b] for observations[b]), as arrays
        in that order; prosodic is None for a plain bank.  Each stream takes
        one bank call for the whole batch.  This is the one score formula: a
        stream's log-likelihood, plus (prosodic only) the composite state's
        log-density of the utterance-mean vector, plus the stream's log-prior,
        each over the stream's frame count.  fuse_scores of the pair gives
        the fused score at any weight.
        """
        acoustic = self.acoustic.log_forward_batch([o.acoustic for o in observations], rows)
        prosodic = (None if self.prosodic is None else
                    self.prosodic.log_forward_batch([o.prosodic for o in observations], rows))
        out = []
        for b, (obs, r) in enumerate(zip(observations, rows)):
            t_len = obs.acoustic.shape[0]
            priors = self.log_priors[list(r)]
            ac = acoustic[b] / t_len + priors[:, 0] / t_len
            if prosodic is None:
                out.append((ac, None))
                continue
            tp_len = obs.prosodic.shape[0]
            pr = prosodic[b] / tp_len
            mean = obs.prosodic.mean(axis=0)
            for i, k in enumerate(r):
                if self.composites[k] is not None:
                    pr[i] += self.composites[k].log_density(mean) / tp_len
            out.append((ac, pr + priors[:, 1] / tp_len))
        return out

    def stream_scores(self, obs: ObservationPair,
                      rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray | None]:
        """stream_scores_batch's one-utterance case."""
        return self.stream_scores_batch([obs], [rows])[0]


def score_acoustic(model: SphmmModel, obs: ObservationPair) -> float:
    """Per-frame acoustic log score of one model: the bank's one-model case.

    With the default uniform priors the prior term is one shared constant,
    so every comparison between candidate models is likelihood-only.
    """
    return float(ModelBank((model,)).stream_scores(obs, (0,))[0][0])


def score_prosodic(model: SphmmModel, obs: ObservationPair) -> float:
    """Per-frame prosodic log score of one fused model over the block-rate
    stream, composite state and prior included: the bank's one-model case."""
    if model.prosodic is None:
        raise ValueError("a plain model has no prosodic stream to score")
    return float(ModelBank((model,)).stream_scores(obs, (0,))[1][0])


def score_fused(model: SphmmModel, obs: ObservationPair) -> float:
    """Fused stream scores of one model at its own mixing weight."""
    return float(fuse_scores(model.alpha, *ModelBank((model,)).stream_scores(obs, (0,)))[0])


def _train_streams(samples: list[list[np.ndarray]], cfgs: list[TrainConfig], n_states: int,
                   n_mixtures: int, cfg: TrainConfig) -> list[HmmModel]:
    """One stream of a set's models: flat-start init per model from its own
    config (seeded k-means), then EM over the whole set in lockstep."""
    inits = [init_model(streams, n_states, n_mixtures, c) for streams, c in zip(samples, cfgs)]
    return [model for model, _ in train_models(list(zip(inits, samples)), cfg)]


def _train(samples: list[list[ObservationPair]], cfgs: list[TrainConfig], n_states: int,
           n_mixtures: int, cfg: TrainConfig, alpha: float | None,
           composite: bool) -> list[SphmmModel]:
    """A fused model (alpha a weight) or a plain one (alpha None) per list of
    utterances, each seeded from its config in cfgs; EM's stopping rule is cfg's."""
    acoustic = _train_streams([[o.acoustic for o in obs] for obs in samples], cfgs,
                              n_states, n_mixtures, cfg)
    if alpha is None:
        return [SphmmModel(model, None, alpha=0.0) for model in acoustic]
    prosodics = [[o.prosodic for o in obs] for obs in samples]
    pr_cfgs = [replace(c, seed=derive_seed(c.seed, "prosodic")) for c in cfgs]
    prosodic = _train_streams(prosodics, pr_cfgs, math.ceil(n_states / 3),
                              DEFAULT_PROSODIC_MIXTURES, cfg)
    models = []
    for ac_model, pr_model, streams in zip(acoustic, prosodic, prosodics):
        comp = None
        if composite:
            means = np.stack([p.mean(axis=0) for p in streams])
            comp = CompositeState(
                means.mean(axis=0),
                np.maximum(means.var(axis=0), VARIANCE_FLOOR),
            )
        supra = SuprasegmentalModel(pr_model, make_summary_map(n_states), comp)
        models.append(SphmmModel(ac_model, supra, alpha=alpha))
    return models


def train_sphmm(utterances: list[ObservationPair], n_states: int, n_mixtures: int,
                alpha: float = 0.5, cfg: TrainConfig | None = None,
                composite: bool = True) -> SphmmModel:
    """Train both streams independently and assemble the fused model.

    The acoustic model gets n_states states; the prosodic model gets
    ceil(n_states / 3) states of DEFAULT_PROSODIC_MIXTURES components over
    block-rate vectors, plus (optionally) the composite Gaussian fit to
    per-utterance prosodic means.  This is train_set's one-model case.
    """
    cfg = cfg or TrainConfig()
    return _train([utterances], [cfg], n_states, n_mixtures, cfg, alpha, composite)[0]


def train_set(groups: dict, features, n_states: int, n_mixtures: int,
              cfg: TrainConfig | None = None, fused: bool = True, alpha: float = 0.5,
              composite: bool = True) -> dict[object, SphmmModel]:
    """One model per key of groups (key -> (training rows, seed labels)),
    each seeded from cfg.seed and its labels, so no key perturbs another.

    features maps utterance id to ObservationPair.  A plain model
    (fused=False ignores alpha and composite) is a fused one's acoustic
    stream bit for bit.  Each stream's models train in lockstep
    (hmm.train_models), and each model is what training it alone gives.
    """
    cfg = cfg or TrainConfig()
    cfgs = [replace(cfg, seed=derive_seed(cfg.seed, *labels)) for _, labels in groups.values()]
    samples = [[features[u.id] for u in rows] for rows, _ in groups.values()]
    models = _train(samples, cfgs, n_states, n_mixtures, cfg, alpha if fused else None, composite)
    return dict(zip(groups, models))


# ---------------------------------------------------------------------------
# serialization


def write_sphmm(fp, model: SphmmModel) -> None:
    if model.prosodic is None:
        raise ValueError("a plain model has no prosodic stream to store in .emvs; "
                         "write its acoustic stream with write_hmm(model.acoustic)")
    comp = model.prosodic.composite
    dp = comp.mean.shape[0] if comp is not None else 0
    write_frame(fp, _MAGIC, _VERSION, (model.acoustic.n_states, comp is not None, dp))
    fp.write(np.array([model.alpha, *model.log_priors], dtype="<f8").tobytes())
    fp.write(np.array(model.prosodic.summary_map, dtype="<u4").tobytes())
    if comp is not None:
        fp.write(comp.mean.astype("<f8").tobytes())
        fp.write(comp.variance.astype("<f8").tobytes())
    write_hmm(fp, model.acoustic)
    write_hmm(fp, model.prosodic.hmm)


def read_sphmm(fp) -> SphmmModel:
    """Read a model written by write_sphmm; FormatError unless it is valid."""
    n, has_comp, dp = read_frame(fp, _MAGIC, _VERSION, 3, "model")
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
    write_file(path, lambda fp: write_sphmm(fp, model))


def load_sphmm(path) -> SphmmModel:
    return read_file(path, read_sphmm)
