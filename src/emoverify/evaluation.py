"""Metrics and experiment drivers for verification runs.

The metric layer turns target and nontarget trial scores into FAR/FRR
curves, equal error rates, and DET points by an exact threshold sweep,
and compares per-emotion error vectors with an equal-size pooled-SD
Student t-test at the one-sided 5% critical value.  The driver layer
trains the pipeline on a corpus, runs one of the trial modes, tabulates
per-emotion results, and writes byte-reproducible report files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .binio import write_text
from .hmm import KMEANS_ITERATIONS, VARIANCE_FLOOR, WEIGHT_FLOOR, TrainConfig
from .manifest import CorpusManifest
from .sphmm import DEFAULT_PROSODIC_MIXTURES
from .stage_a import ConfusionMatrix, tally, train_emotion_models
from .stage_b import (
    TrialConfig, TrialRecord, enroll, enroll_pooled, score_trials, trial_plan, trial_ratios)
from .stage_b import run_trials  # noqa: F401  benchmark/tracing.py wraps this name

# One-sided 5% critical value for the equal-n pooled-SD t-test.
CRITICAL_T = 1.645

ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(11))

# The one mode table: kind -> (trial mode, stage-a weight override or None
# for the models' own weight, compared kinds).  The acoustic-only (HMM)
# identifier is stage a at weight 0.  alpha_sweep always enrolls fused
# stage-b models and also decides two_stage at every ALPHA_GRID weight,
# fusing both stages at that weight.
EXPERIMENTS = {
    "two_stage": ("two_stage", None, ()),
    "one_stage": ("one_stage", None, ("two_stage",)),
    "hmm_only_stage_a": ("two_stage", 0.0, ("two_stage",)),
    "worst_case": ("worst_case", None, ("two_stage", "one_stage")),
    "oracle_emotion": ("oracle_emotion", None, ()),
    "alpha_sweep": ("two_stage", None, ()),
}

KINDS = tuple(EXPERIMENTS)


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
    The prosodic mixture count, the variance and weight floors and the
    k-means iteration count are fixed (sphmm.DEFAULT_PROSODIC_MIXTURES and
    the hmm module's constants); echo still reports them, and the fixed
    TrialConfig threshold too, since a report's EERs sweep every threshold.
    """

    n_states: int = 2
    n_mixtures: int = 1
    alpha: float = 0.5
    stage_b_fused: bool = False
    composite: bool = True
    imposters_per_utterance: int = 1
    seed: int = 0
    workers: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.n_states < 1 or self.n_mixtures < 1:
            raise ValueError("model sizes must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.imposters_per_utterance < 1:
            raise ValueError("imposters_per_utterance must be >= 1: EERs need nontarget trials")
        self.trial_config  # fail fast on bad workers

    @property
    def train_config(self) -> TrainConfig:
        return replace(self.train, seed=self.seed)

    @property
    def trial_config(self) -> TrialConfig:
        return TrialConfig(
            imposters_per_utterance=self.imposters_per_utterance,
            seed=self.seed,
            workers=self.workers,
        )

    def fused_for(self, kind: str) -> bool:  # a sweep always enrolls fused stage-b models
        return self.stage_b_fused or kind == "alpha_sweep"

    def echo(self, kind: str) -> dict[str, object]:
        """Report header: the full result-affecting config, in a fixed order."""
        trials = self.trial_config
        return {
            "kind": kind,
            "n_states": self.n_states,
            "n_mixtures": self.n_mixtures,
            "alpha": self.alpha,
            "stage_b_fused": self.fused_for(kind),
            "prosodic_mixtures": DEFAULT_PROSODIC_MIXTURES,
            "composite": self.composite,
            "theta": trials.theta,
            "adapt_window": trials.adapt_window,
            "imposters_per_utterance": self.imposters_per_utterance,
            "max_iterations": self.train.max_iterations,
            "convergence_delta": self.train.convergence_delta,
            "variance_floor": VARIANCE_FLOOR,
            "weight_floor": WEIGHT_FLOOR,
            "kmeans_iterations": KMEANS_ITERATIONS,
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


def far_frr_arrays(target: Sequence[float], nontarget: Sequence[float],
                   label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thresholds, FAR and FRR as float64 arrays, far_frr_curve's columns,
    from the finite target and nontarget scores of the set named label.

    The thresholds are the sorted distinct scores between -inf and +inf,
    so they strictly increase.
    """
    if not len(target) or not len(nontarget):
        raise ValueError(f"score set {label!r} has an empty class")
    target = np.sort(target)
    nontarget = np.sort(nontarget)
    thresholds = np.unique(np.concatenate([target, nontarget]))
    thresholds = np.concatenate(([-np.inf], thresholds, [np.inf]))
    far = (nontarget.size - np.searchsorted(nontarget, thresholds, side="left")) / nontarget.size
    frr = np.searchsorted(target, thresholds, side="left") / target.size
    return thresholds, far, frr


def _eer_point(thresholds: np.ndarray, far: np.ndarray, frr: np.ndarray) -> tuple[float, float]:
    """(EER%, threshold) of far_frr_arrays' columns: the first inner row of
    least |FAR - FRR|, which is the smallest such threshold."""
    i = 1 + int(np.argmin(np.abs(far[1:-1] - frr[1:-1])))
    return float(50.0 * (far[i] + frr[i])), float(thresholds[i])


def _curve_rows(curve) -> list[tuple[float, float, float]]:
    """far_frr_arrays' columns as (threshold, FAR, FRR) rows of Python floats."""
    return list(zip(*(column.tolist() for column in curve)))


def far_frr_curve(scores: ScoreSet) -> list[tuple[float, float, float]]:
    """(threshold, FAR, FRR) rows over sorted distinct scores plus +-inf.

    FAR is the fraction of nontarget scores >= threshold and FRR the
    fraction of target scores < threshold, matching the accept-on-the-
    boundary rule, so FAR never increases and FRR never decreases along
    the emitted sequence.
    """
    return _curve_rows(far_frr_arrays(scores.target, scores.nontarget, scores.label))


def eer(scores: ScoreSet) -> tuple[float, float]:
    """(EER%, threshold) at the operating point where FAR and FRR meet.

    Exact sweep over the distinct scores, no interpolation: at the
    |FAR - FRR|-minimizing threshold (ties go to the smaller one) the
    rate is (FAR + FRR)/2 in percent.
    """
    return _eer_point(*far_frr_arrays(scores.target, scores.nontarget, scores.label))


def stat_summary(values: Sequence[float]) -> StatSummary:
    """Mean and population standard deviation (divisor n) of a finite sample."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if not np.isfinite(arr).all():
        raise ValueError("sample values must be finite")
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


def _emotion_rows(plan, emotions: Sequence[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per emotion, the plan rows of its target and of its nontarget trials."""
    emotion = np.array([emotions.index(utt.emotion) for utt, _ in plan], dtype=np.intp)
    target = np.array([claimed == utt.speaker_id for utt, claimed in plan], dtype=bool)
    return {e: (np.flatnonzero((emotion == i) & target), np.flatnonzero((emotion == i) & ~target))
            for i, e in enumerate(emotions)}


def _average(table: Mapping[str, float], emotions: Sequence[str]) -> float:
    return float(np.mean([table[e] for e in emotions]))


def _vector_ttest(main: Mapping[str, float], other: Mapping[str, float], emotions) -> TTestResult:
    """Main table's EER vector (first sample) against another's (second)."""
    return t_statistic(
        stat_summary([main[e] for e in emotions]),
        stat_summary([other[e] for e in emotions]),
    )


# One memo slot: the features mapping it was filled for, the corpus and
# config key, and the score tables under literal names.  A call on another
# mapping, corpus or config empties it.  The slot still holds the mapping,
# so a finished run keeps its corpus alive until the next call.
_MEMO: dict = {"features": None, "key": None, "entries": {}}


def _memo_entries(manifest: CorpusManifest, features, cfg: ExperimentConfig) -> dict:
    """The memo entries for this mapping, corpus content and config.

    The mapping is matched by identity and its streams by digest, so an
    in-place edit or an equal rebuilt corpus both start fresh.
    """
    digest = hashlib.sha256()
    for u in manifest.utterances:
        obs = features[u.id]
        for stream in (obs.acoustic, obs.prosodic):
            digest.update(repr((stream.shape, stream.dtype.str)).encode())
            digest.update(np.ascontiguousarray(stream).tobytes())
    key = (manifest.emotion_set, manifest.utterances, tuple(manifest.roles.items()),
           digest.hexdigest(), cfg)
    if _MEMO["features"] is not features or _MEMO["key"] != key:
        _MEMO.update(features=features, key=key, entries={})
    return _MEMO["entries"]


def run_experiment(kind: str, manifest: CorpusManifest, features, cfg: ExperimentConfig | None = None) -> EvalReport:
    """Train, run trials, and tabulate one experiment over a corpus.

    two_stage runs the full pipeline; hmm_only_stage_a identifies emotions
    at stage-a weight 0, the acoustic score; oracle_emotion and worst_case
    replace the identified label with the true one and a seeded wrong one;
    one_stage drops emotion conditioning entirely; alpha_sweep decides the
    fused pipeline at the eleven grid weights.  Baseline kinds carry the
    two_stage table (worst_case also the one_stage table) plus the t-test
    between per-emotion EER vectors, all on one trial plan over the
    manifest's claimants.  Each model set is scored into its own table as
    soon as it is trained, every stream of every model, with no fusion
    weight, and only the table is kept; every table, comparison and sweep
    row applies its weights when it decides over those tables, as arrays
    with no trial record (stage_b.trial_ratios), and takes each emotion's
    EER from one FAR/FRR curve over that emotion's plan rows.  Kinds run
    one after another on the same features mapping with an equal config
    share those tables, so a paper table trains and scores each set once;
    a new mapping, an edited stream or another config starts fresh.
    """
    cfg = cfg or ExperimentConfig()
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    mode, stage_a_alpha, compared = EXPERIMENTS[kind]
    stage_a_alpha = cfg.alpha if stage_a_alpha is None else stage_a_alpha
    modes = {mode, *compared}
    grid = ALPHA_GRID if kind == "alpha_sweep" else ()
    emotions = manifest.emotion_set
    trial_cfg = cfg.trial_config
    common = (manifest, features, cfg.n_states, cfg.n_mixtures)
    training = dict(cfg=cfg.train_config, alpha=cfg.alpha, composite=cfg.composite)
    memo = _memo_entries(manifest, features, cfg)
    fused = cfg.fused_for(kind)
    speaker_alpha = cfg.alpha if fused else 0.0  # the stage-b and pooled sets' weight
    plan = trial_plan(manifest, manifest.claimants, trial_cfg)

    def table(name, trainer, **options):
        if name not in memo:
            memo[name] = score_trials(plan, trainer(*common, **options, **training), features, trial_cfg)
        return memo[name]

    speaker_table = table(("enroll", fused), enroll, fused=fused)
    stage_a = table("stage_a", train_emotion_models) if "two_stage" in modes else None
    if "one_stage" in modes:
        pooled_table = table(("pooled", fused), enroll_pooled, fused=fused)

    def ratios(mode, a_alpha=cfg.alpha, b_alpha=speaker_alpha):
        if mode == "one_stage":
            return trial_ratios(pooled_table, mode, trial_cfg, speaker_alpha)
        return trial_ratios(speaker_table, mode, trial_cfg, b_alpha, stage_a, a_alpha)

    rows = _emotion_rows(plan, emotions)

    def curves(llr):
        return {e: far_frr_arrays(llr[t], llr[n], e) for e, (t, n) in rows.items()}

    def eers(curve_table):
        return {e: _eer_point(*curve)[0] for e, curve in curve_table.items()}

    e_stars, llr = ratios(mode, stage_a_alpha)
    main = curves(llr)
    eer_table = eers(main)
    identified = {utt.id: (e_star, utt.emotion) for (utt, _), e_star in zip(plan, e_stars)}
    comparisons = {other: eers(curves(ratios(other)[1])) for other in compared}
    return EvalReport(
        kind=kind,
        emotions=emotions,
        eer_by_emotion=eer_table,
        average_eer=_average(eer_table, emotions),
        det_by_emotion={e: tuple(_curve_rows(curve)) for e, curve in main.items()},
        confusion=tally(emotions, identified.values()) if mode == "two_stage" else None,
        comparisons=comparisons,
        ttests={other: _vector_ttest(eer_table, t, emotions) for other, t in comparisons.items()},
        alpha_rows=tuple(
            (a, _average(eers(curves(ratios(mode, a, a)[1])), emotions)) for a in grid),
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
    nothing is timestamped, so equal reports produce equal bytes.  Every
    file is formatted before the first is written.
    """
    def text(lines: list[str]) -> str:
        return "\n".join(lines) + "\n"

    summary = [f"{key} = {value!r}" for key, value in report.config.items()]
    summary.append(f"average_eer = {report.average_eer!r}")
    files = {"summary.txt": text(summary),
             "eer.csv": text(_eer_lines(report.emotions, report.eer_by_emotion))}
    for emotion in report.emotions:
        rows = ["theta,far,frr"]
        rows += [f"{t!r},{fa!r},{fr!r}" for t, fa, fr in report.det_by_emotion[emotion]]
        files[f"det_{emotion}.csv"] = text(rows)
    if report.confusion is not None:
        files["confusion.csv"] = report.confusion.to_csv()
    for other, comparison in report.comparisons.items():
        files[f"eer_{other}.csv"] = text(_eer_lines(report.emotions, comparison))
    if report.ttests:
        rows = ["comparison,t,significant,larger"]
        rows += [f"{other},{r.t!r},{r.significant},{r.larger}" for other, r in report.ttests.items()]
        files["ttests.csv"] = text(rows)
    if report.alpha_rows:
        rows = ["alpha,average_eer"]
        rows += [f"{a!r},{v!r}" for a, v in report.alpha_rows]
        files["alpha_sweep.csv"] = text(rows)
    directory = Path(directory)
    for name, content in files.items():
        write_text(directory / name, content)
    return tuple(directory / name for name in files)
