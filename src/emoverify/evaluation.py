"""Metrics and experiment drivers for verification runs.

The metric layer turns target and nontarget trial scores into FAR/FRR
curves, equal error rates, and DET points by an exact threshold sweep,
and compares per-emotion error vectors with an equal-size pooled-SD
Student t-test at the one-sided 5% critical value.  The driver layer
trains the pipeline on a corpus, runs one of the trial modes, tabulates
per-emotion results, and writes byte-reproducible report files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .hmm import TrainConfig
from .manifest import CorpusManifest
from .stage_a import ConfusionMatrix, train_emotion_models
from .stage_b import TrialConfig, TrialRecord, decide_trials, enroll, enroll_pooled, score_trials
from .stage_b import run_trials  # noqa: F401  benchmark/tracing.py wraps this name

# One-sided 5% critical value for the equal-n pooled-SD t-test.
CRITICAL_T = 1.645

ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(11))

# kind -> (trial mode, stage-a weight override, compared kinds).  The
# hmm_only identifier is stage a at weight 0.  alpha_sweep always enrolls
# fused stage-b models and also decides two_stage at every ALPHA_GRID
# weight, fusing both stages at that weight.
_EXPERIMENTS = {
    "two_stage": ("two_stage", None, ()),
    "one_stage": ("one_stage", None, ("two_stage",)),
    "hmm_only_stage_a": ("two_stage", 0.0, ("two_stage",)),
    "worst_case": ("worst_case", None, ("two_stage", "one_stage")),
    "oracle_emotion": ("oracle_emotion", None, ()),
    "alpha_sweep": ("two_stage", None, ()),
}

KINDS = tuple(_EXPERIMENTS)


@dataclass(frozen=True)
class ScoreSet:
    """Target and nontarget trial scores under one grouping label."""

    label: str
    target: tuple[float, ...]
    nontarget: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(float(s) for s in self.target))
        object.__setattr__(self, "nontarget", tuple(float(s) for s in self.nontarget))
        if not all(math.isfinite(s) for s in self.target + self.nontarget):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class StatSummary:
    """Mean, population standard deviation (divisor n), and sample size."""

    mean: float
    sd: float
    n: int

    def __post_init__(self):
        if self.sd < 0:
            raise ValueError("sd must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class TTestResult:
    """Magnitude-only t value, its significance flag, and which mean won."""

    t: float
    significant: bool
    larger: str

    def __post_init__(self):
        if self.larger not in ("first", "second", "equal"):
            raise ValueError(f"unknown direction {self.larger!r}")
        if self.t < 0:
            raise ValueError("t is reported as a magnitude, >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob an experiment run depends on; seed pins them all.

    seed overrides both the training seed and the trial-plan seed, so one
    number reproduces a whole run.  workers only changes how scoring is
    scheduled, never what it computes, and is left out of report echoes.
    """

    n_states: int = 2
    n_mixtures: int = 1
    alpha: float = 0.5
    stage_b_fused: bool = False
    prosodic_mixtures: int = 2
    composite: bool = True
    theta: float = 0.0
    adapt_window: int | None = None
    imposters_per_utterance: int = 1
    seed: int = 0
    workers: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.n_states < 1 or self.n_mixtures < 1 or self.prosodic_mixtures < 1:
            raise ValueError("model sizes must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        self.trial_config  # fail fast on bad theta/window/imposters/workers

    @property
    def train_config(self) -> TrainConfig:
        return replace(self.train, seed=self.seed)

    @property
    def trial_config(self) -> TrialConfig:
        return TrialConfig(
            theta=self.theta,
            adapt_window=self.adapt_window,
            imposters_per_utterance=self.imposters_per_utterance,
            seed=self.seed,
            workers=self.workers,
        )

    def echo(self, kind: str) -> dict[str, object]:
        """Report header: the full result-affecting config, in a fixed order."""
        return {
            "kind": kind,
            "n_states": self.n_states,
            "n_mixtures": self.n_mixtures,
            "alpha": self.alpha,
            "stage_b_fused": self.stage_b_fused,
            "prosodic_mixtures": self.prosodic_mixtures,
            "composite": self.composite,
            "theta": self.theta,
            "adapt_window": self.adapt_window,
            "imposters_per_utterance": self.imposters_per_utterance,
            "max_iterations": self.train.max_iterations,
            "convergence_delta": self.train.convergence_delta,
            "variance_floor": self.train.variance_floor,
            "weight_floor": self.train.weight_floor,
            "kmeans_iterations": self.train.kmeans_iterations,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class EvalReport:
    """One experiment's tables: per-emotion EERs, DET points, comparisons.

    comparisons holds other kinds' per-emotion EER tables computed on the
    same corpus and seed; ttests pairs this report's EER vector (first
    sample) against each comparison's (second sample).
    """

    kind: str
    emotions: tuple[str, ...]
    eer_by_emotion: dict[str, float]
    average_eer: float
    det_by_emotion: dict[str, tuple[tuple[float, float, float], ...]]
    confusion: ConfusionMatrix | None
    comparisons: dict[str, dict[str, float]]
    ttests: dict[str, TTestResult]
    alpha_rows: tuple[tuple[float, float], ...]
    config: dict[str, object]

    def __post_init__(self):
        object.__setattr__(self, "emotions", tuple(self.emotions))
        object.__setattr__(self, "alpha_rows", tuple(self.alpha_rows))
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.emotions:
            raise ValueError("report needs at least one emotion")
        if set(self.eer_by_emotion) != set(self.emotions):
            raise ValueError("per-emotion table keys must match the emotion set")
        if set(self.det_by_emotion) != set(self.emotions):
            raise ValueError("DET table keys must match the emotion set")
        for other, table in self.comparisons.items():
            if set(table) != set(self.emotions):
                raise ValueError(f"comparison table {other!r} keys must match the emotion set")
        expected = float(np.mean([self.eer_by_emotion[e] for e in self.emotions]))
        if abs(self.average_eer - expected) > 1e-9:
            raise ValueError("average EER must equal the mean of the per-emotion EERs")


def far_frr_curve(scores: ScoreSet) -> list[tuple[float, float, float]]:
    """(threshold, FAR, FRR) rows over sorted distinct scores plus +-inf.

    FAR is the fraction of nontarget scores >= threshold and FRR the
    fraction of target scores < threshold, matching the accept-on-the-
    boundary rule, so FAR never increases and FRR never decreases along
    the emitted sequence.
    """
    if not scores.target or not scores.nontarget:
        raise ValueError(f"score set {scores.label!r} has an empty class")
    target = np.sort(np.asarray(scores.target))
    nontarget = np.sort(np.asarray(scores.nontarget))
    thresholds = np.unique(np.concatenate([target, nontarget]))
    thresholds = np.concatenate(([-np.inf], thresholds, [np.inf]))
    far = (nontarget.size - np.searchsorted(nontarget, thresholds, side="left")) / nontarget.size
    frr = np.searchsorted(target, thresholds, side="left") / target.size
    return [(float(t), float(fa), float(fr)) for t, fa, fr in zip(thresholds, far, frr)]


def eer(scores: ScoreSet) -> tuple[float, float]:
    """(EER%, threshold) at the operating point where FAR and FRR meet.

    Exact sweep over the distinct scores, no interpolation: at the
    |FAR - FRR|-minimizing threshold (ties go to the smaller one) the
    rate is (FAR + FRR)/2 in percent.
    """
    interior = far_frr_curve(scores)[1:-1]
    theta, fa, fr = min(interior, key=lambda row: (abs(row[1] - row[2]), row[0]))
    return 50.0 * (fa + fr), theta


def stat_summary(values: Sequence[float]) -> StatSummary:
    """Mean and population standard deviation (divisor n) of a sample."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return StatSummary(float(arr.mean()), float(arr.std()), int(arr.size))


def pooled_sd(sd1: float, sd2: float) -> float:
    """Root mean square of two standard deviations."""
    if sd1 < 0 or sd2 < 0:
        raise ValueError("standard deviations must be >= 0")
    return math.sqrt((sd1 * sd1 + sd2 * sd2) / 2.0)


def t_statistic(a: StatSummary, b: StatSummary) -> TTestResult:
    """Equal-n pooled-SD comparison of two sample means.

    t = (larger mean - smaller mean) / pooled SD, flagged significant when
    it exceeds CRITICAL_T.  A zero pooled SD with unequal means yields an
    infinite t; with equal means, t = 0.
    """
    if a.n != b.n:
        raise ValueError("samples must have equal size")
    if a.mean > b.mean:
        larger = "first"
    elif b.mean > a.mean:
        larger = "second"
    else:
        larger = "equal"
    pooled = pooled_sd(a.sd, b.sd)
    diff = abs(a.mean - b.mean)
    if pooled == 0.0:
        t = math.inf if diff > 0.0 else 0.0
    else:
        t = diff / pooled
    return TTestResult(t, t > CRITICAL_T, larger)


def scores_by_emotion(
    records: Sequence[TrialRecord], emotions: Sequence[str]
) -> dict[str, ScoreSet]:
    """Group trial scores by the utterance's portrayed emotion."""
    target: dict[str, list[float]] = {e: [] for e in emotions}
    nontarget: dict[str, list[float]] = {e: [] for e in emotions}
    for r in records:
        if r.utterance.emotion not in target:
            raise ValueError(f"record for undeclared emotion {r.utterance.emotion!r}")
        bucket = target if r.truth == "target" else nontarget
        bucket[r.utterance.emotion].append(r.llr)
    return {e: ScoreSet(e, tuple(target[e]), tuple(nontarget[e])) for e in emotions}


def _tables(records, emotions):
    """Per-emotion EER values and DET curves from one trial run."""
    sets = scores_by_emotion(records, emotions)
    table = {e: eer(sets[e])[0] for e in emotions}
    det = {e: tuple(far_frr_curve(sets[e])) for e in emotions}
    return table, det


def _average(table: Mapping[str, float], emotions: Sequence[str]) -> float:
    return float(np.mean([table[e] for e in emotions]))


def _confusion_from_records(records, emotions) -> ConfusionMatrix:
    """Stage-a decisions replayed from trial records, one per utterance."""
    index = {e: i for i, e in enumerate(emotions)}
    counts = np.zeros((len(emotions), len(emotions)), dtype=np.int64)
    seen: set[str] = set()
    for r in records:
        if r.utterance.id in seen:
            continue
        seen.add(r.utterance.id)
        counts[index[r.e_star], index[r.utterance.emotion]] += 1
    matrix = ConfusionMatrix(tuple(emotions), counts)
    matrix.percentages  # force the missing-emotion check
    return matrix


def _vector_ttest(main: Mapping[str, float], other: Mapping[str, float], emotions) -> TTestResult:
    """Main table's EER vector (first sample) against another's (second)."""
    return t_statistic(
        stat_summary([main[e] for e in emotions]),
        stat_summary([other[e] for e in emotions]),
    )


def run_experiment(kind: str, manifest: CorpusManifest, features, cfg: ExperimentConfig | None = None) -> EvalReport:
    """Train, run trials, and tabulate one experiment over a corpus.

    two_stage runs the full pipeline; hmm_only_stage_a swaps the emotion
    identifier to acoustic-only scoring; oracle_emotion and worst_case
    replace the identified label with the true one and a seeded wrong one;
    one_stage drops emotion conditioning entirely; alpha_sweep decides the
    fused pipeline at the eleven grid weights.  Baseline kinds carry the
    two_stage table (worst_case also the one_stage table) plus the t-test
    between per-emotion EER vectors, all on the same seed so the trial
    plans pair up.  Each model set is trained once and scored once; every
    table, comparison and sweep row is a decision over those scores.
    """
    cfg = cfg or ExperimentConfig()
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    mode, stage_a_alpha, compared = _EXPERIMENTS[kind]
    stage_a_alpha = cfg.alpha if stage_a_alpha is None else stage_a_alpha
    modes = {mode, *compared}
    grid = ALPHA_GRID if kind == "alpha_sweep" else ()
    emotions = manifest.emotion_set
    trial_cfg = cfg.trial_config
    common = (manifest, features, cfg.n_states, cfg.n_mixtures)
    sphmm = dict(alpha=cfg.alpha, prosodic_mixtures=cfg.prosodic_mixtures, composite=cfg.composite)

    def stage_b_set(trainer, fused):
        return trainer(*common, cfg=cfg.train_config, fused=fused, **(sphmm if fused else {}))

    emotion_models = None
    if "two_stage" in modes:
        emotion_models = train_emotion_models(*common, cfg=cfg.train_config, **sphmm)
    speaker_models = stage_b_set(enroll, cfg.stage_b_fused or bool(grid))
    table = score_trials(speaker_models, emotion_models, manifest, features, trial_cfg,
                         (speaker_models.alpha, *grid), (stage_a_alpha, cfg.alpha, *grid))
    if "one_stage" in modes:
        pooled = stage_b_set(enroll_pooled, cfg.stage_b_fused)
        pooled_table = score_trials(pooled, None, manifest, features, trial_cfg, (pooled.alpha,))

    def decide(mode, a_alpha=cfg.alpha, b_alpha=speaker_models.alpha):
        if mode == "one_stage":
            return decide_trials(pooled_table, mode, trial_cfg, pooled.alpha)
        return decide_trials(table, mode, trial_cfg, b_alpha, a_alpha)

    records = decide(mode, stage_a_alpha)
    eer_table, det = _tables(records, emotions)
    comparisons = {other: _tables(decide(other), emotions)[0] for other in compared}
    return EvalReport(
        kind=kind,
        emotions=emotions,
        eer_by_emotion=eer_table,
        average_eer=_average(eer_table, emotions),
        det_by_emotion=det,
        confusion=_confusion_from_records(records, emotions) if mode == "two_stage" else None,
        comparisons=comparisons,
        ttests={other: _vector_ttest(eer_table, t, emotions) for other, t in comparisons.items()},
        alpha_rows=tuple(
            (a, _average(_tables(decide(mode, a, a), emotions)[0], emotions)) for a in grid
        ),
        config=cfg.echo(kind),
    )


def _eer_lines(emotions: Sequence[str], table: Mapping[str, float]) -> list[str]:
    lines = ["emotion,eer"]
    lines += [f"{e},{table[e]!r}" for e in emotions]
    lines.append(f"average,{_average(table, emotions)!r}")
    return lines


def write_report(report: EvalReport, directory) -> tuple[Path, ...]:
    """Write the report as CSV tables plus a key-value summary.

    Every kind gets summary.txt, eer.csv, and one det_<emotion>.csv;
    confusion.csv, eer_<other>.csv, ttests.csv, and alpha_sweep.csv appear
    when the report carries them.  Floats are written in repr form and
    nothing is timestamped, so equal reports produce equal bytes.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, lines: list[str]) -> None:
        path = directory / name
        with open(path, "w", newline="\n") as fp:
            fp.write("\n".join(lines) + "\n")
        written.append(path)

    summary = [f"{key} = {value!r}" for key, value in report.config.items()]
    summary.append(f"average_eer = {report.average_eer!r}")
    emit("summary.txt", summary)
    emit("eer.csv", _eer_lines(report.emotions, report.eer_by_emotion))
    for emotion in report.emotions:
        rows = ["theta,far,frr"]
        rows += [f"{t!r},{fa!r},{fr!r}" for t, fa, fr in report.det_by_emotion[emotion]]
        emit(f"det_{emotion}.csv", rows)
    if report.confusion is not None:
        path = directory / "confusion.csv"
        with open(path, "w", newline="\n") as fp:
            fp.write(report.confusion.to_csv())
        written.append(path)
    for other, comparison in report.comparisons.items():
        emit(f"eer_{other}.csv", _eer_lines(report.emotions, comparison))
    if report.ttests:
        rows = ["comparison,t,significant,larger"]
        rows += [f"{other},{r.t!r},{r.significant},{r.larger}" for other, r in report.ttests.items()]
        emit("ttests.csv", rows)
    if report.alpha_rows:
        rows = ["alpha,average_eer"]
        rows += [f"{a!r},{v!r}" for a, v in report.alpha_rows]
        emit("alpha_sweep.csv", rows)
    return tuple(written)
