"""Speaker verification against same-speaker other-emotion backgrounds.

Each claimant enrolls one model per emotion.  A claim on an utterance with
identified emotion e* is scored as a log-likelihood ratio: the claimed
speaker's e* model versus the mean log score under that same speaker's
other-emotion models.  The claim is accepted when the ratio clears the
threshold, which may optionally track the running mean of recent trial
scores.  A one-stage baseline drops the emotion conditioning: one pooled
model per speaker, scored against the mean of the other speakers' pooled
models.  The pooled models form a sphmm.ModelSet keyed by speaker, as
stage a's form one keyed by emotion; a SpeakerEmotionModelSet keys its
models (speaker, emotion) and checks them through a ModelSet.

Trials run in two passes.  score_trials scores one model set over a
trial plan into a ScoreTable, one (P, K) array per stream with no fusion
weight: the set's models are stacked once into a sphmm.ModelBank, and the
plan's utterances are scored in chunks of at most SCORE_CHUNK utterances
and hmm.PAIR_FRAMES pair-frames, one bank call per chunk, each
utterance over the models its claims need.
decide_trials fuses the tables at their weights and decides all rows at
once: two_stage's e* is a row's argmax over the stage-a table, and
every ratio is the keyed column minus the mean of the row's others.  So
every mode and weight is decided from one scoring pass per model set.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .binio import write_text
from .hmm import TrainConfig, pair_runs
from .hmm import avg_frame_ll  # noqa: F401  benchmark/tracing.py wraps this name
from .hmm import init_model, train_baum_welch  # noqa: F401  benchmark/tracing.py wraps this name
from .manifest import CorpusManifest, UtteranceRef
from .seeds import derive_seed
from .sphmm import ModelBank, ModelSet, SphmmModel, fuse_scores, train_set
from .sphmm import score_fused, train_sphmm  # noqa: F401  benchmark/tracing.py wraps this name
from .stage_a import identify_emotion  # noqa: F401  benchmark/tracing.py wraps this name

MODES = ("two_stage", "oracle_emotion", "worst_case", "one_stage")

TRIAL_CSV_HEADER = "utterance,claimed,true,e_star,mode,lambda,theta,decision,truth"

# A bank call in score_trials takes at most SCORE_CHUNK utterances, and
# stops taking them before its (utterance, model) pairs times its longest
# utterance's frames pass hmm.PAIR_FRAMES, the budget EM training's padded
# runs keep too.
SCORE_CHUNK = 64


@dataclass(frozen=True)
class SpeakerEmotionModelSet:
    """(speaker, emotion) -> model, complete over the emotion set."""

    emotion_set: tuple[str, ...]
    models: dict[tuple[str, str], SphmmModel]

    def __post_init__(self):
        object.__setattr__(self, "emotion_set", tuple(self.emotion_set))
        if len(self.emotion_set) < 2:
            raise ValueError("need at least 2 emotions for a background")
        if not self.models:
            raise ValueError("no speakers enrolled")
        for speaker, emotion in self.models:
            if emotion not in self.emotion_set:
                raise ValueError(f"model for undeclared emotion {emotion!r}")
        for speaker in self.speakers:
            for emotion in self.emotion_set:
                if (speaker, emotion) not in self.models:
                    raise ValueError(f"({speaker}, {emotion}) unenrolled")
        self.alpha  # fail fast on mixed dims, kinds or fusion weights

    @property
    def speakers(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(speaker for speaker, _ in self.models))

    @property
    def alpha(self) -> float:
        """Stage-b fusion weight: the fused models' shared alpha, 0.0 for plain ones."""
        return ModelSet(self.models).alpha


@dataclass(frozen=True)
class TrialConfig:
    """Trial-plan and decision knobs; seed pins the whole run."""

    theta: float = 0.0
    adapt_window: int | None = None
    imposters_per_utterance: int = 1
    seed: int = 0
    workers: int = 0

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.adapt_window is not None and self.adapt_window < 1:
            raise ValueError("adapt_window must be >= 1")
        if self.imposters_per_utterance < 0:
            raise ValueError("imposters_per_utterance must be >= 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")


@dataclass(frozen=True)
class TrialRecord:
    """One verification attempt, with its score, decision, and ground truth."""

    utterance: UtteranceRef
    claimed_speaker: str
    true_speaker: str
    e_star: str
    mode: str
    llr: float
    theta: float
    decision: str
    truth: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.decision != ("accept" if self.llr >= self.theta else "reject"):
            raise ValueError("decision contradicts llr >= theta")
        if self.truth != ("target" if self.claimed_speaker == self.true_speaker else "nontarget"):
            raise ValueError("truth contradicts claimed vs true speaker")


def enroll(manifest: CorpusManifest, features, n_states: int, n_mixtures: int,
           cfg: TrainConfig | None = None, fused: bool = False, alpha: float = 0.5,
           composite: bool = True) -> SpeakerEmotionModelSet:
    """Train one model per (claimant, emotion) from that pair's train split.

    features maps utterance id to ObservationPair.  Every pair trains with
    its own seed derived from cfg.seed, so the acoustic model of a fused
    enrollment matches the plain enrollment bit for bit.  fused=False
    (the default) trains acoustic-only models, which ignore alpha and
    composite; fused=True trains full two-stream models scored at alpha.
    """
    if not manifest.claimants:
        raise ValueError("manifest declares no claimants")
    groups = {}
    for speaker in manifest.claimants:
        for emotion in manifest.emotion_set:
            rows = manifest.subset(split="train", speaker=speaker, emotion=emotion)
            if not rows:
                raise ValueError(f"({speaker}, {emotion}) unenrolled")
            groups[speaker, emotion] = (rows, ("stage_b", speaker, emotion))
    return SpeakerEmotionModelSet(manifest.emotion_set, train_set(
        groups, features, n_states, n_mixtures, cfg, fused, alpha, composite))


def enroll_pooled(manifest: CorpusManifest, features, n_states: int, n_mixtures: int,
                  cfg: TrainConfig | None = None, fused: bool = False, alpha: float = 0.5,
                  composite: bool = True) -> ModelSet:
    """Train one emotion-pooled model per claimant for the one-stage baseline."""
    groups = {}
    for speaker in manifest.claimants:
        rows = manifest.subset(split="train", speaker=speaker)
        if not rows:
            raise ValueError(f"speaker {speaker!r} has no training utterances")
        groups[speaker] = (rows, ("pooled", speaker))
    return ModelSet(train_set(groups, features, n_states, n_mixtures, cfg, fused, alpha, composite))


def decide(llr_value: float, theta: float) -> str:
    """Accept iff the ratio clears the threshold; the boundary accepts."""
    if not (math.isfinite(llr_value) and math.isfinite(theta)):
        raise ValueError("score and threshold must both be finite")
    return "accept" if llr_value >= theta else "reject"


def adapt_threshold(theta_init: float, history: Sequence[float], window: int) -> float:
    """Mean of the most recent min(window, len(history)) scores.

    An empty history keeps the initial threshold, so the first trial of a
    run always decides against theta_init.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    recent = history[-window:]
    if len(recent) == 0:
        return theta_init
    return float(np.mean(recent))


def trial_plan(
    manifest: CorpusManifest, enrolled: Sequence[str], cfg: TrialConfig
) -> tuple[tuple[UtteranceRef, str], ...]:
    """(test utterance, claimed speaker) pairs in deterministic order.

    Each test utterance contributes one target claim when its speaker is
    enrolled, then imposters_per_utterance distinct false claims drawn with
    a per-utterance seed, so the plan never depends on iteration order.
    """
    enrolled = list(dict.fromkeys(enrolled))
    enrolled_set = set(enrolled)
    plan: list[tuple[UtteranceRef, str]] = []
    for utt in manifest.subset(split="test"):
        if utt.speaker_id in enrolled_set:
            plan.append((utt, utt.speaker_id))
        candidates = [s for s in enrolled if s != utt.speaker_id]
        n_claims = min(cfg.imposters_per_utterance, len(candidates))
        if n_claims:
            rng = np.random.default_rng(derive_seed(cfg.seed, "plan", utt.id))
            picks = rng.permutation(len(candidates))[:n_claims]
            plan.extend((utt, candidates[i]) for i in picks)
    return tuple(plan)


def _wrong_emotion(emotion_set: Sequence[str], utt: UtteranceRef, seed: int) -> str:
    """A seeded uniform draw over the labels other than the true one."""
    others = [e for e in emotion_set if e != utt.emotion]
    rng = np.random.default_rng(derive_seed(seed, "worst", utt.id))
    return others[int(rng.integers(len(others)))]


@dataclass(frozen=True)
class ScoreTable:
    """Stream scores of one model set over a trial plan, as (P, K) arrays.

    Row p holds plan row p's scores and column k label k's: the claimed
    speaker's emotion models for a SpeakerEmotionModelSet, every model for
    a ModelSet (speakers pooled, or stage a's emotions).  prosodic is None
    only for a plain set.
    """

    plan: tuple[tuple[UtteranceRef, str], ...]
    labels: tuple
    acoustic: np.ndarray
    prosodic: np.ndarray | None


def _score_chunk(bank: ModelBank, tasks):
    """Stream scores of a chunk of (observation, rows) tasks: one bank call."""
    return bank.stream_scores_batch([obs for obs, _ in tasks], [rows for _, rows in tasks])


def _chunks(tasks, size: int) -> list[list]:
    """The (observation, rows) tasks in order, cut into runs of at most size
    whose rows times longest stream stay within hmm.PAIR_FRAMES; a task
    past that alone is a run."""
    frames = [max(len(obs.acoustic), len(obs.prosodic)) for obs, _ in tasks]
    return [tasks[run] for run in pair_runs([len(rows) for _, rows in tasks], frames, size)]


def score_trials(
    plan: Sequence[tuple[UtteranceRef, str]],
    models,
    features,
    cfg: TrialConfig,
) -> ScoreTable:
    """Scoring pass: one model set over each planned utterance, read once.

    The set's models form one ModelBank, and each utterance is scored over
    the models its claims need: the claimed speakers' emotion models for a
    SpeakerEmotionModelSet, every model for a ModelSet (the pooled or the
    stage-a set), whose one score row fills each of the utterance's plan
    rows.  Utterances are scored in chunks of at most SCORE_CHUNK, and of at
    most hmm.PAIR_FRAMES (utterance, model) pair-frames, one bank call per
    chunk, in this process at workers 0 and over a process pool otherwise.
    Every stream is kept, so the table decides at any fusion weight.  A
    score depends only on its utterance and model, so neither the worker
    count nor the chunking changes the outcome.
    """
    position = {key: k for k, key in enumerate(models.models)}
    if isinstance(models, SpeakerEmotionModelSet):
        labels = models.emotion_set
        columns = {c: [position[c, e] for e in labels] for c in dict.fromkeys(c for _, c in plan)}
    else:
        labels = models.labels
        columns = dict.fromkeys((c for _, c in plan), list(range(len(labels))))
    rows_by_utt: dict[str, dict[int, None]] = {}
    for utt, claimed in plan:
        rows_by_utt.setdefault(utt.id, {}).update(dict.fromkeys(columns[claimed]))
    tasks = [(features[utt_id], tuple(rows)) for utt_id, rows in rows_by_utt.items()]
    bank = ModelBank(models.models.values())
    score = partial(_score_chunk, bank)
    size = SCORE_CHUNK
    if cfg.workers:
        size = min(size, max(1, len(tasks) // (4 * cfg.workers)))
    chunks = _chunks(tasks, size)
    if cfg.workers == 0 or not tasks:
        scored = list(map(score, chunks))
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            scored = list(pool.map(score, chunks))
    scores = [s for chunk in scored for s in chunk]
    # each utterance's scores at their bank positions, then each plan row's columns
    streams = 1 if bank.prosodic is None else 2
    by_position = np.full((streams, len(tasks), len(position)), np.nan)
    for u, ((_, rows), pair) in enumerate(zip(tasks, scores)):
        by_position[:, u, list(rows)] = pair[:streams]
    utt_index = {utt_id: u for u, utt_id in enumerate(rows_by_utt)}
    row_utts = np.array([utt_index[utt.id] for utt, _ in plan], dtype=np.intp)
    row_cols = np.array([columns[c] for _, c in plan], dtype=np.intp).reshape(len(plan), len(labels))
    table = [stream[row_utts[:, None], row_cols] for stream in by_position]
    return ScoreTable(tuple(plan), labels, table[0], table[1] if streams == 2 else None)


def best_labels(table: ScoreTable, alpha: float) -> list:
    """Each row's label of highest score at weight alpha; a tie goes to the earlier label."""
    fused = fuse_scores(alpha, table.acoustic, table.prosodic)
    return [table.labels[k] for k in np.argmax(fused, axis=1)]


def decide_trials(
    table: ScoreTable,
    mode: str,
    cfg: TrialConfig,
    alpha: float,
    stage_a: ScoreTable | None = None,
    emotion_alpha: float | None = None,
) -> list[TrialRecord]:
    """Decision pass: one mode's trial records from a scored stage-b table.

    alpha fuses the stage-b streams; two_stage identifies e* from the
    stage-a table over the same plan fused at emotion_alpha and is
    undecidable without both.  The tables hold every stream, so any weight
    decides; a plain set decides only at weight 0.  A non-finite score or
    threshold stops the run with an error naming the trial, since dropping
    the trial would move the error rates unseen.
    """
    plan, labels = table.plan, table.labels
    if mode == "one_stage":
        e_stars, keys = [""] * len(plan), [claimed for _, claimed in plan]
    elif mode == "oracle_emotion":
        e_stars = keys = [utt.emotion for utt, _ in plan]
    elif mode == "worst_case":
        e_stars = keys = [_wrong_emotion(labels, utt, cfg.seed) for utt, _ in plan]
    elif stage_a is None or emotion_alpha is None or stage_a.plan != plan:
        raise ValueError("two_stage mode needs stage-a scores over the same plan and a weight")
    else:
        e_stars = keys = best_labels(stage_a, emotion_alpha)
    if not set(keys) <= set(labels):
        raise ValueError(f"no score for {next(k for k in keys if k not in labels)!r}")
    # each row's keyed column, and the mean of its others over a contiguous row
    keyed = np.arange(len(labels)) == np.array([labels.index(key) for key in keys])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite ratio is refused below
        fused = fuse_scores(alpha, table.acoustic, table.prosodic)
        background = fused[~keyed].reshape(len(plan), len(labels) - 1).mean(axis=1)
        llrs = (fused[keyed] - background).tolist()
    records: list[TrialRecord] = []
    history: list[float] = []
    for (utt, claimed), e_star, lam in zip(plan, e_stars, llrs):
        theta = cfg.theta
        if cfg.adapt_window is not None:
            theta = adapt_threshold(cfg.theta, history, cfg.adapt_window)
        try:
            decision = decide(lam, theta)
        except ValueError as exc:
            raise ValueError(f"utterance {utt.id} claimed as {claimed}: {exc}") from None
        records.append(
            TrialRecord(
                utterance=utt,
                claimed_speaker=claimed,
                true_speaker=utt.speaker_id,
                e_star=e_star,
                mode=mode,
                llr=lam,
                theta=theta,
                decision=decision,
                truth="target" if claimed == utt.speaker_id else "nontarget",
            )
        )
        history.append(lam)
    return records


def run_trials(
    models,
    emotion_models: ModelSet | None,
    manifest: CorpusManifest,
    features,
    mode: str = "two_stage",
    cfg: TrialConfig | None = None,
) -> list[TrialRecord]:
    """Execute the deterministic trial plan in the given mode.

    two_stage identifies each utterance's emotion with the stage-a models;
    oracle_emotion uses the true label; worst_case draws a seeded wrong
    label once per utterance; one_stage scores the pooled ModelSet with no
    emotion conditioning (e_star left empty).  The records are a pure
    function of (models, manifest, mode, cfg.seed): the decision pass over
    one scoring pass per model set, stage a only in two_stage mode, at the
    model sets' own fusion weights.
    """
    cfg = cfg or TrialConfig()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "one_stage":
        if not isinstance(models, ModelSet) or not set(models.labels) <= set(manifest.speakers):
            raise ValueError("one_stage mode needs a ModelSet keyed by manifest speakers")
        speakers = models.labels
    else:
        if not isinstance(models, SpeakerEmotionModelSet):
            raise ValueError(f"{mode} mode needs a SpeakerEmotionModelSet")
        if models.emotion_set != manifest.emotion_set:
            raise ValueError("model and manifest emotion sets differ")
        speakers = models.speakers
    if mode == "two_stage":
        if emotion_models is None:
            raise ValueError("two_stage mode needs stage-a emotion models")
        if emotion_models.labels != manifest.emotion_set:
            raise ValueError("stage-a and manifest emotion sets differ")
    plan = trial_plan(manifest, speakers, cfg)
    table = score_trials(plan, models, features, cfg)
    if mode != "two_stage":
        return decide_trials(table, mode, cfg, models.alpha)
    stage_a = score_trials(plan, emotion_models, features, cfg)
    return decide_trials(table, mode, cfg, models.alpha, stage_a, emotion_models.alpha)


def write_trials(records: Sequence[TrialRecord], path) -> None:
    """One CSV row per trial, floats in repr form so reruns match byte-wise."""
    lines = [TRIAL_CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    r.utterance.id,
                    r.claimed_speaker,
                    r.true_speaker,
                    r.e_star,
                    r.mode,
                    repr(r.llr),
                    repr(r.theta),
                    r.decision,
                    r.truth,
                )
            )
        )
    write_text(path, "\n".join(lines) + "\n")
