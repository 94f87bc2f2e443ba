"""Emotion identification: one speaker-pooled model per emotion.

Each emotion's model is trained on every speaker's training utterances for
that emotion, and the models form one sphmm.ModelSet keyed by emotion.
An utterance is identified as the emotion whose model gives the maximal
fused score at the models' shared weight alpha.  The acoustic-only (HMM)
identifier is the same set at alpha 0, whose fused score is the acoustic
score bit for bit.  Ties go to the earlier emotion in the declared order,
so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .frontend import ObservationPair
from .hmm import TrainConfig
from .manifest import CorpusManifest
from .seeds import derive_seed
from .sphmm import ModelSet, SphmmModel, score_fused, train_sphmm
from .sphmm import score_acoustic  # noqa: F401  benchmark/tracing.py wraps this name


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
    **train_kwargs,
) -> ModelSet:
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
    return ModelSet(models)


def identify_emotion(
    models: ModelSet, obs: ObservationPair
) -> tuple[str, dict[str, float]]:
    """The argmax emotion and the full per-emotion score vector."""
    scores = {emotion: score_fused(model, obs) for emotion, model in models.models.items()}
    best = max(scores, key=lambda e: scores[e])  # max() keeps the earliest tie
    return best, scores


def tally(emotions, pairs) -> ConfusionMatrix:
    """Count (identified, true) emotion pairs into an m x m matrix.

    Every declared emotion must appear among the true labels, otherwise
    the percentage columns would be undefined.
    """
    index = {e: i for i, e in enumerate(emotions)}
    counts = np.zeros((len(emotions), len(emotions)), dtype=np.int64)
    for identified, true_emotion in pairs:
        if true_emotion not in index:
            raise ValueError(f"unknown true emotion {true_emotion!r}")
        counts[index[identified], index[true_emotion]] += 1
    matrix = ConfusionMatrix(tuple(emotions), counts)
    matrix.percentages  # force the missing-emotion check
    return matrix


def confusion(models: ModelSet, labeled) -> ConfusionMatrix:
    """Classify (true_emotion, obs) pairs and tally the identifications."""
    return tally(models.labels,
                 ((identify_emotion(models, obs)[0], true) for true, obs in labeled))
