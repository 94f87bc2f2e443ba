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
trial plan: every stream of every model a planned utterance meets,
acoustic and prosodic apart, with no fusion weight.  decide_trials fuses
the stage-b table's streams, and for two_stage the stage-a table's, at
their weights into one mode's records, so every mode and weight over the
same models and plan is decided from one scoring pass per model set.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .frontend import ObservationPair
from .hmm import TrainConfig, init_model, train_baum_welch
from .hmm import avg_frame_ll  # noqa: F401  benchmark/tracing.py wraps this name
from .manifest import CorpusManifest, UtteranceRef
from .seeds import derive_seed
from .sphmm import ModelSet, SphmmModel, fuse_scores, stream_scores, train_sphmm
from .sphmm import score_fused  # noqa: F401  benchmark/tracing.py wraps this name
from .stage_a import identify_emotion  # noqa: F401  benchmark/tracing.py wraps this name

MODES = ("two_stage", "oracle_emotion", "worst_case", "one_stage")

TRIAL_CSV_HEADER = "utterance,claimed,true,e_star,mode,lambda,theta,decision,truth"


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


def _train_models(groups, features, n_states, n_mixtures, cfg, fused, alpha, sphmm_kwargs):
    """One model per key of groups: key -> (training rows, seed labels)."""
    if sphmm_kwargs and not fused:
        raise ValueError("sphmm options need fused=True")
    cfg = cfg or TrainConfig()
    models = {}
    for key, (rows, labels) in groups.items():
        key_cfg = replace(cfg, seed=derive_seed(cfg.seed, *labels))
        obs_list = [features[u.id] for u in rows]
        if fused:
            models[key] = train_sphmm(
                obs_list, n_states, n_mixtures, alpha=alpha, cfg=key_cfg, **sphmm_kwargs
            )
        else:
            acoustics = [o.acoustic for o in obs_list]
            init = init_model(acoustics, n_states, n_mixtures, key_cfg)
            acoustic, _ = train_baum_welch(init, acoustics, key_cfg)
            models[key] = SphmmModel(acoustic, None, alpha=0.0)
    return models


def enroll(
    manifest: CorpusManifest,
    features,
    n_states: int,
    n_mixtures: int,
    cfg: TrainConfig | None = None,
    fused: bool = False,
    alpha: float = 0.5,
    **sphmm_kwargs,
) -> SpeakerEmotionModelSet:
    """Train one model per (claimant, emotion) from that pair's train split.

    features maps utterance id to ObservationPair.  Every pair trains with
    its own seed derived from cfg.seed, so the acoustic model of a fused
    enrollment matches the plain enrollment bit for bit.  fused=False
    (the default) trains acoustic-only models; fused=True trains full
    two-stream models scored at the given alpha.
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
    models = _train_models(groups, features, n_states, n_mixtures, cfg, fused, alpha, sphmm_kwargs)
    return SpeakerEmotionModelSet(manifest.emotion_set, models)


def enroll_pooled(
    manifest: CorpusManifest,
    features,
    n_states: int,
    n_mixtures: int,
    cfg: TrainConfig | None = None,
    fused: bool = False,
    alpha: float = 0.5,
    **sphmm_kwargs,
) -> ModelSet:
    """Train one emotion-pooled model per claimant for the one-stage baseline."""
    groups = {}
    for speaker in manifest.claimants:
        rows = manifest.subset(split="train", speaker=speaker)
        if not rows:
            raise ValueError(f"speaker {speaker!r} has no training utterances")
        groups[speaker] = (rows, ("pooled", speaker))
    models = _train_models(groups, features, n_states, n_mixtures, cfg, fused, alpha, sphmm_kwargs)
    return ModelSet(models)


def background_ratio(scores: Mapping, key) -> float:
    """The keyed score (emotion e*, or claimed speaker) minus the other keys' mean."""
    if key not in scores:
        raise ValueError(f"no score for {key!r}")
    others = [s for k, s in scores.items() if k != key]
    if not others:
        raise ValueError("need at least 2 scores for a background")
    return scores[key] - float(np.mean(others))


def _fused(streams: Mapping, alpha: float) -> dict:
    return {key: fuse_scores(alpha, *pair) for key, pair in streams.items()}


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
    """(acoustic, prosodic) stream scores of one model set over a trial plan.

    scores[utt][key] is keyed (claimed speaker, emotion) for a
    SpeakerEmotionModelSet and by label for a ModelSet: speaker for the
    pooled set, emotion for the stage-a set.  The prosodic score is None
    only for a plain model.
    """

    plan: tuple[tuple[UtteranceRef, str], ...]
    emotion_set: tuple[str, ...]
    scores: dict


# Scoring tasks run in worker processes; the models travel once per worker
# through the initializer instead of once per task.
_WORKER: dict = {}


def _init_worker(models) -> None:
    _WORKER["models"] = models


def _score_utterance(task, models=None):
    """One utterance's scores under models, by default the worker's set."""
    utt_id, obs, claims = task
    models = models or _WORKER["models"]
    keys = models.models
    if isinstance(models, SpeakerEmotionModelSet):
        keys = [(c, e) for c in claims for e in models.emotion_set]
    return utt_id, {key: stream_scores(models.models[key], obs) for key in keys}


def score_trials(
    plan: Sequence[tuple[UtteranceRef, str]],
    models,
    manifest: CorpusManifest,
    features,
    cfg: TrialConfig,
) -> ScoreTable:
    """Scoring pass: one model set over each planned utterance, read once.

    A SpeakerEmotionModelSet scores the claimed speakers' emotion models
    only; a ModelSet (the pooled or the stage-a set) scores every model.
    Every stream of every scored model is kept, so the table decides at
    any fusion weight.  Results are keyed by utterance, so the worker
    count never changes the outcome.
    """
    claims_by_utt: dict[str, list[str]] = {}
    for utt, claimed in plan:
        claims_by_utt.setdefault(utt.id, []).append(claimed)
    tasks = [(utt_id, features[utt_id], tuple(c)) for utt_id, c in claims_by_utt.items()]
    if cfg.workers == 0 or not tasks:
        results = [_score_utterance(t, models) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (4 * cfg.workers))
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_init_worker, initargs=(models,)
        ) as pool:
            results = list(pool.map(_score_utterance, tasks, chunksize=chunk))
    return ScoreTable(tuple(plan), manifest.emotion_set, dict(results))


def _e_star(mode: str, utt: UtteranceRef, seed: int, emotion_set, stage_a, emotion_alpha) -> str:
    if mode == "oracle_emotion":
        return utt.emotion
    if mode == "worst_case":
        return _wrong_emotion(emotion_set, utt, seed)
    if stage_a is None or not stage_a.scores.get(utt.id) or emotion_alpha is None:
        raise ValueError(f"two_stage mode needs stage-a scores and weight (utterance {utt.id})")
    scores = _fused(stage_a.scores[utt.id], emotion_alpha)
    return max(scores, key=lambda e: scores[e])  # max() keeps the earliest tie


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
    stage-a table fused at emotion_alpha and is undecidable without both.
    The tables hold every stream, so any weight decides; a plain set
    decides only at weight 0.  A non-finite score or threshold stops the
    run with an error naming the trial, since dropping the trial would
    move the error rates unseen.
    """
    records: list[TrialRecord] = []
    history: list[float] = []
    for utt, claimed in table.plan:
        streams = table.scores[utt.id]
        if mode == "one_stage":
            e_star, key = "", claimed
        else:
            e_star = key = _e_star(mode, utt, cfg.seed, table.emotion_set, stage_a, emotion_alpha)
            streams = {e: streams[claimed, e] for e in table.emotion_set}
        lam = background_ratio(_fused(streams, alpha), key)
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
    table = score_trials(plan, models, manifest, features, cfg)
    if mode != "two_stage":
        return decide_trials(table, mode, cfg, models.alpha)
    stage_a = score_trials(plan, emotion_models, manifest, features, cfg)
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
    with open(path, "w", newline="\n") as fp:
        fp.write("\n".join(lines) + "\n")
