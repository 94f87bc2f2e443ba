"""Emotion identification: one speaker-pooled model per emotion.

Each emotion's model is trained on every speaker's training utterances for
that emotion.  An utterance is identified as the emotion whose model gives
the maximal fused score; the hmm_only variant compares acoustic scores
instead.  Ties go to the earlier emotion in the declared order, so results
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .frontend import ObservationPair
from .hmm import TrainConfig
from .manifest import CorpusManifest
from .seeds import derive_seed
from .sphmm import SphmmModel, score_acoustic, score_fused, train_sphmm

MODES = ("sphmm", "hmm_only")


@dataclass(frozen=True)
class EmotionModelSet:
    """Ordered emotion label -> model, plus the scoring mode."""

    models: dict[str, SphmmModel]
    mode: str = "sphmm"

    def __post_init__(self):
        if len(self.models) < 2:
            raise ValueError("need models for at least 2 emotions")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        dims = {m.acoustic.dim for m in self.models.values()}
        alphas = {m.alpha for m in self.models.values()}
        if len(dims) != 1:
            raise ValueError("emotion models disagree on feature dim")
        if len(alphas) != 1:
            raise ValueError("emotion models disagree on alpha")

    @property
    def emotions(self) -> tuple[str, ...]:
        return tuple(self.models)

    @property
    def alpha(self) -> float:
        return next(iter(self.models.values())).alpha

    @property
    def score_alpha(self) -> float:
        """The fusion weight identification scores at: hmm_only is alpha 0."""
        return 0.0 if self.mode == "hmm_only" else self.alpha

    def with_mode(self, mode: str) -> "EmotionModelSet":
        return replace(self, mode=mode)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with rows = predicted emotion, columns = true emotion."""

    emotions: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        m = len(self.emotions)
        if self.counts.shape != (m, m):
            raise ValueError("counts must be m x m")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def percentages(self) -> np.ndarray:
        """Column-normalized: cell (i, j) = % of true-j utterances read as i."""
        totals = self.counts.sum(axis=0)
        if np.any(totals == 0):
            missing = [self.emotions[j] for j in np.flatnonzero(totals == 0)]
            raise ValueError(f"no test utterances for emotion(s) {missing}")
        return 100.0 * self.counts / totals[None, :]

    @property
    def accuracy(self) -> float:
        """Mean of the diagonal percentages."""
        return float(np.mean(np.diag(self.percentages)))

    def to_csv(self) -> str:
        header = "model," + ",".join(self.emotions)
        lines = ["# counts (rows = identified, columns = portrayed)", header]
        for i, emotion in enumerate(self.emotions):
            lines.append(emotion + "," + ",".join(str(c) for c in self.counts[i]))
        lines.append("# percentages (columns sum to 100)")
        lines.append(header)
        pct = self.percentages
        for i, emotion in enumerate(self.emotions):
            lines.append(emotion + "," + ",".join(repr(float(p)) for p in pct[i]))
        return "\n".join(lines) + "\n"


def train_emotion_models(
    manifest: CorpusManifest,
    features,
    n_states: int,
    n_mixtures: int,
    alpha: float = 0.5,
    cfg: TrainConfig | None = None,
    mode: str = "sphmm",
    **train_kwargs,
) -> EmotionModelSet:
    """Train one model per declared emotion on the pooled train split.

    features maps utterance id to ObservationPair.  Each emotion trains
    with its own seed derived from cfg.seed, so adding an emotion never
    perturbs the others.
    """
    cfg = cfg or TrainConfig()
    models: dict[str, SphmmModel] = {}
    for emotion in manifest.emotion_set:
        rows = manifest.subset(split="train", emotion=emotion)
        if not rows:
            raise ValueError(f"emotion {emotion!r} has no training utterances")
        pooled = [features[u.id] for u in rows]
        emotion_cfg = replace(cfg, seed=derive_seed(cfg.seed, "stage_a", emotion))
        models[emotion] = train_sphmm(
            pooled, n_states, n_mixtures, alpha=alpha, cfg=emotion_cfg, **train_kwargs
        )
    return EmotionModelSet(models, mode=mode)


def identify_emotion(
    models: EmotionModelSet, obs: ObservationPair
) -> tuple[str, dict[str, float]]:
    """The argmax emotion and the full per-emotion score vector."""
    score = score_fused if models.mode == "sphmm" else score_acoustic
    scores = {emotion: score(model, obs) for emotion, model in models.models.items()}
    best = max(scores, key=lambda e: scores[e])  # max() keeps the earliest tie
    return best, scores


def confusion(models: EmotionModelSet, labeled) -> ConfusionMatrix:
    """Classify (true_emotion, obs) pairs into an m x m count matrix.

    Every declared emotion must appear among the true labels, otherwise
    the percentage columns would be undefined.
    """
    emotions = models.emotions
    index = {e: i for i, e in enumerate(emotions)}
    counts = np.zeros((len(emotions), len(emotions)), dtype=np.int64)
    for true_emotion, obs in labeled:
        if true_emotion not in index:
            raise ValueError(f"unknown true emotion {true_emotion!r}")
        predicted, _ = identify_emotion(models, obs)
        counts[index[predicted], index[true_emotion]] += 1
    matrix = ConfusionMatrix(emotions, counts)
    matrix.percentages  # force the missing-emotion check
    return matrix
