"""Speaker verification against same-speaker other-emotion backgrounds.

Each claimant enrolls one model per emotion.  A claim on an utterance with
identified emotion e* is scored as a log-likelihood ratio: the claimed
speaker's e* model versus the mean log score under that same speaker's
other-emotion models.  The claim is accepted when the ratio clears the
threshold, which may optionally track the running mean of recent trial
scores.  A one-stage baseline drops the emotion conditioning: one pooled
model per speaker, scored against the mean of the other speakers' pooled
models.

Trials run in two passes: score_trials keeps each model's acoustic and
prosodic scores per planned utterance, and decide_trials fuses them at
given weights into one mode's records, so every mode and weight over the
same models and plan is decided from one scoring pass.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .frontend import ObservationPair
from .hmm import HmmModel, TrainConfig, avg_frame_ll, init_model, train_baum_welch
from .manifest import CorpusManifest, UtteranceRef
from .seeds import derive_seed
from .sphmm import SphmmModel, fuse_scores, score_acoustic, score_prosodic, train_sphmm
from .sphmm import score_fused  # noqa: F401  benchmark/tracing.py wraps this name
from .stage_a import EmotionModelSet
from .stage_a import identify_emotion  # noqa: F401  benchmark/tracing.py wraps this name

MODES = ("two_stage", "oracle_emotion", "worst_case", "one_stage")

TRIAL_CSV_HEADER = "utterance,claimed,true,e_star,mode,lambda,theta,decision,truth"


def _set_alpha(models, what: str) -> float:
    """The one stage-b fusion weight a model set decides at; 0.0 for plain models."""
    if len({(m.acoustic if isinstance(m, SphmmModel) else m).dim for m in models}) != 1:
        raise ValueError(f"{what} models disagree on feature dim")
    if len({isinstance(m, SphmmModel) for m in models}) != 1:
        raise ValueError(f"{what} models mix fused and plain kinds")
    alphas = {m.alpha if isinstance(m, SphmmModel) else 0.0 for m in models}
    if len(alphas) != 1:
        raise ValueError(f"{what} models disagree on alpha")
    return alphas.pop()


@dataclass(frozen=True)
class SpeakerEmotionModelSet:
    """(speaker, emotion) -> model, complete over the emotion set."""

    emotion_set: tuple[str, ...]
    models: dict[tuple[str, str], HmmModel | SphmmModel]

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
        return _set_alpha(self.models.values(), "enrolled")

    def model(self, speaker: str, emotion: str):
        try:
            return self.models[speaker, emotion]
        except KeyError:
            raise ValueError(f"({speaker}, {emotion}) unenrolled") from None


@dataclass(frozen=True)
class PooledSpeakerModels:
    """speaker -> emotion-pooled model, for the one-stage baseline."""

    models: dict[str, HmmModel | SphmmModel]

    def __post_init__(self):
        if len(self.models) < 2:
            raise ValueError("need at least 2 pooled speakers for a background")
        self.alpha  # fail fast on mixed dims, kinds or fusion weights

    @property
    def speakers(self) -> tuple[str, ...]:
        return tuple(self.models)

    @property
    def alpha(self) -> float:
        """Stage-b fusion weight: the fused models' shared alpha, 0.0 for plain ones."""
        return _set_alpha(self.models.values(), "pooled")


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
            models[key], _ = train_baum_welch(init, acoustics, key_cfg)
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
) -> PooledSpeakerModels:
    """Train one emotion-pooled model per claimant for the one-stage baseline."""
    groups = {}
    for speaker in manifest.claimants:
        rows = manifest.subset(split="train", speaker=speaker)
        if not rows:
            raise ValueError(f"speaker {speaker!r} has no training utterances")
        groups[speaker] = (rows, ("pooled", speaker))
    models = _train_models(groups, features, n_states, n_mixtures, cfg, fused, alpha, sphmm_kwargs)
    return PooledSpeakerModels(models)


def llr_from_scores(scores: Mapping[str, float], e_star: str) -> float:
    """Claimed-emotion score minus the mean of the other emotions' scores."""
    if e_star not in scores:
        raise ValueError(f"unknown emotion {e_star!r}")
    others = [s for e, s in scores.items() if e != e_star]
    if not others:
        raise ValueError("need at least 2 emotions for a background")
    return scores[e_star] - float(np.mean(others))


def _streams(model, obs: ObservationPair, weights) -> tuple[float | None, float | None]:
    """(acoustic, prosodic) scores of one model, each only if some weight reads it.

    A plain HmmModel has the acoustic stream only, which is its score at
    weight 0.  fuse_scores of the pair at any of the weights equals
    score_fused at that weight bit for bit.
    """
    if not isinstance(model, SphmmModel):
        return avg_frame_ll(model, obs.acoustic), None
    acoustic = score_acoustic(model, obs) if min(weights) < 1.0 else None
    prosodic = score_prosodic(model, obs) if max(weights) > 0.0 else None
    return acoustic, prosodic


def _fused(streams: Mapping, alpha: float) -> dict:
    return {key: fuse_scores(alpha, *pair) for key, pair in streams.items()}


def speaker_scores(
    models: SpeakerEmotionModelSet, claimed: str, obs: ObservationPair
) -> dict[str, float]:
    """The claimed speaker's score under each of their emotion models."""
    if claimed not in set(models.speakers):
        raise ValueError(f"claimed speaker {claimed!r} is not enrolled")
    alpha = models.alpha
    streams = {e: _streams(models.model(claimed, e), obs, (alpha,)) for e in models.emotion_set}
    return _fused(streams, alpha)


def llr(models: SpeakerEmotionModelSet, claimed: str, e_star: str, obs: ObservationPair) -> float:
    """Log-likelihood ratio of the claim (claimed speaker, emotion e_star)."""
    return llr_from_scores(speaker_scores(models, claimed, obs), e_star)


def pooled_llr(scores: Mapping[str, float], claimed: str) -> float:
    """One-stage ratio: claimed pooled score minus the other speakers' mean."""
    if claimed not in scores:
        raise ValueError(f"claimed speaker {claimed!r} is not enrolled")
    others = [s for sp, s in scores.items() if sp != claimed]
    if not others:
        raise ValueError("need at least 2 speakers for a background")
    return scores[claimed] - float(np.mean(others))


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
    """(acoustic, prosodic) stream scores of one trial plan, by utterance id.

    speaker[utt][key] is keyed (claimed speaker, emotion), or speaker for
    PooledSpeakerModels; emotion[utt][e] holds the stage-a models' pairs
    when they were scored.  A stream no scored weight reads is None.
    """

    plan: tuple[tuple[UtteranceRef, str], ...]
    emotion_set: tuple[str, ...]
    speaker: dict
    emotion: dict


# Scoring tasks run in worker processes; the models travel once per worker
# through the initializer instead of once per task.
_WORKER: dict = {}


def _init_worker(payload) -> None:
    _WORKER["payload"] = payload


def _score_utterance(task):
    utt_id, obs, claims = task
    models, emotion_models, weights, emotion_weights = _WORKER["payload"]
    keys = models.models
    if isinstance(models, SpeakerEmotionModelSet):
        keys = [(c, e) for c in claims for e in models.emotion_set]
    speaker = {key: _streams(models.models[key], obs, weights) for key in keys}
    emotion = {}
    if emotion_models is not None:
        emotion = {e: _streams(m, obs, emotion_weights) for e, m in emotion_models.models.items()}
    return utt_id, speaker, emotion


def score_trials(
    models,
    emotion_models: EmotionModelSet | None,
    manifest: CorpusManifest,
    features,
    cfg: TrialConfig,
    weights,
    emotion_weights=(),
) -> ScoreTable:
    """Scoring pass: each planned utterance once under every model it meets.

    weights and emotion_weights are the stage-b and stage-a fusion weights
    the table will be decided at.  Results are keyed by utterance, so the
    worker count never changes the outcome.
    """
    plan = trial_plan(manifest, models.speakers, cfg)
    claims_by_utt: dict[str, list[str]] = {}
    for utt, claimed in plan:
        claims_by_utt.setdefault(utt.id, []).append(claimed)
    tasks = [(utt_id, features[utt_id], tuple(c)) for utt_id, c in claims_by_utt.items()]
    payload = (models, emotion_models, tuple(weights), tuple(emotion_weights))
    if cfg.workers == 0 or not tasks:
        _init_worker(payload)
        results = [_score_utterance(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (4 * cfg.workers))
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            results = list(pool.map(_score_utterance, tasks, chunksize=chunk))
    return ScoreTable(
        plan=plan,
        emotion_set=manifest.emotion_set,
        speaker={utt_id: speaker for utt_id, speaker, _ in results},
        emotion={utt_id: emotion for utt_id, _, emotion in results},
    )


def _e_star(table: ScoreTable, mode: str, utt: UtteranceRef, seed: int, emotion_alpha) -> str:
    if mode == "oracle_emotion":
        return utt.emotion
    if mode == "worst_case":
        return _wrong_emotion(table.emotion_set, utt, seed)
    scores = _fused(table.emotion[utt.id], emotion_alpha)
    return max(scores, key=lambda e: scores[e])  # max() keeps the earliest tie


def decide_trials(
    table: ScoreTable,
    mode: str,
    cfg: TrialConfig,
    alpha: float,
    emotion_alpha: float | None = None,
) -> list[TrialRecord]:
    """Decision pass: one mode's trial records from a scored table.

    alpha fuses the stage-b streams and emotion_alpha the stage-a streams
    two_stage mode identifies with; each must be a weight the table was
    scored for.  A plain set and the hmm_only identifier are weight 0.
    """
    records: list[TrialRecord] = []
    history: list[float] = []
    for utt, claimed in table.plan:
        scores = table.speaker[utt.id]
        if mode == "one_stage":
            e_star = ""
            lam = pooled_llr(_fused(scores, alpha), claimed)
        else:
            e_star = _e_star(table, mode, utt, cfg.seed, emotion_alpha)
            fused = {e: fuse_scores(alpha, *scores[claimed, e]) for e in table.emotion_set}
            lam = llr_from_scores(fused, e_star)
        theta = cfg.theta
        if cfg.adapt_window is not None:
            theta = adapt_threshold(cfg.theta, history, cfg.adapt_window)
        records.append(
            TrialRecord(
                utterance=utt,
                claimed_speaker=claimed,
                true_speaker=utt.speaker_id,
                e_star=e_star,
                mode=mode,
                llr=lam,
                theta=theta,
                decision=decide(lam, theta),
                truth="target" if claimed == utt.speaker_id else "nontarget",
            )
        )
        history.append(lam)
    return records


def run_trials(
    models,
    emotion_models: EmotionModelSet | None,
    manifest: CorpusManifest,
    features,
    mode: str = "two_stage",
    cfg: TrialConfig | None = None,
) -> list[TrialRecord]:
    """Execute the deterministic trial plan in the given mode.

    two_stage identifies each utterance's emotion with the stage-a models;
    oracle_emotion uses the true label; worst_case draws a seeded wrong
    label once per utterance; one_stage scores PooledSpeakerModels with no
    emotion conditioning (e_star left empty).  The records are a pure
    function of (models, manifest, mode, cfg.seed): the decision pass over
    the scoring pass, at the model sets' own fusion weights.
    """
    cfg = cfg or TrialConfig()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "one_stage":
        if not isinstance(models, PooledSpeakerModels):
            raise ValueError("one_stage mode needs PooledSpeakerModels")
    else:
        if not isinstance(models, SpeakerEmotionModelSet):
            raise ValueError(f"{mode} mode needs a SpeakerEmotionModelSet")
        if models.emotion_set != manifest.emotion_set:
            raise ValueError("model and manifest emotion sets differ")
    emotion_alpha = None
    if mode == "two_stage":
        if emotion_models is None:
            raise ValueError("two_stage mode needs stage-a emotion models")
        if emotion_models.emotions != manifest.emotion_set:
            raise ValueError("stage-a and manifest emotion sets differ")
        emotion_alpha = emotion_models.score_alpha
    else:
        emotion_models = None
    table = score_trials(models, emotion_models, manifest, features, cfg,
                         (models.alpha,), (emotion_alpha,))
    return decide_trials(table, mode, cfg, models.alpha, emotion_alpha)


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
