"""Seeded synthetic corpus: feature streams sampled from known generators.

Every (speaker, emotion) cell gets an acoustic HMM and a prosodic HMM whose
state means sit at a shared base plus seeded per-emotion and per-speaker
offsets.  A single separability knob scales all offsets, so separability 0
collapses every generator onto the base model.  Feature streams, not
waveforms, are the synthetic unit: downstream scoring consumes features
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featureio import features_path, save_features
from .frontend import D_PROSODIC, ObservationPair
from .hmm import GmmEmission, HmmModel, sample_sequence, validate
from .manifest import DEFAULT_EMOTIONS, CorpusManifest, UtteranceRef, grid_manifest
from .seeds import derive_seed

SELF_LOOP = 0.8  # every generator state's self-loop probability


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic corpus.

    The emotion/speaker scales weight how far apart emotions and speakers
    sit in each stream; separability multiplies all of them at once.

    floor_weight > 0 mixes one shared broad component (std floor_scale,
    centered on the base ramp) into every generator.  Scores then bottom
    out at a common level far from a model's core instead of tracking
    squared distance forever, so ratio detectors that subtract background
    models keep their sensitivity local to the claimed model's core.
    Training such data needs one extra mixture to pick the floor up.
    """

    n_speakers: int = 10
    emotion_set: tuple[str, ...] = DEFAULT_EMOTIONS
    n_groups: int = 8
    n_reps: int = 9
    train_groups: tuple[int, ...] = (1, 2, 3, 4)
    n_claimants: int | None = None
    n_states: int = 2
    n_mixtures: int = 1
    acoustic_dim: int = 8
    prosodic_dim: int = D_PROSODIC
    block_size: int = 10
    length_range: tuple[int, int] = (40, 80)
    separability: float = 1.0
    acoustic_emotion_scale: float = 1.0
    acoustic_speaker_scale: float = 0.4
    prosodic_emotion_scale: float = 1.0
    prosodic_speaker_scale: float = 1.0
    floor_weight: float = 0.0
    floor_scale: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2 or self.n_groups < 2 or self.n_reps < 1:
            raise ValueError("need >= 2 speakers, >= 2 sentence groups, >= 1 repetition")
        if len(self.emotion_set) < 2:
            raise ValueError("need >= 2 emotions")
        if self.n_states < 1 or self.n_mixtures < 1:
            raise ValueError("model shape must be positive")
        lo, hi = self.length_range
        if not 1 <= lo <= hi:
            raise ValueError("length_range must satisfy 1 <= lo <= hi")
        if self.separability < 0:
            raise ValueError("separability must be >= 0")
        for scale in (self.acoustic_emotion_scale, self.acoustic_speaker_scale,
                      self.prosodic_emotion_scale, self.prosodic_speaker_scale):
            if scale < 0:
                raise ValueError("stream scales must be >= 0")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not 0.0 <= self.floor_weight < 1.0:
            raise ValueError("floor_weight must be in [0, 1)")
        if self.floor_scale <= 0.0:
            raise ValueError("floor_scale must be > 0")

    @property
    def prosodic_states(self) -> int:
        return max(1, math.ceil(self.n_states / 3))


def _bakis(n_states: int) -> np.ndarray:
    a = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        a[i, i] = SELF_LOOP
        a[i, i + 1] = 1.0 - SELF_LOOP
    a[-1, -1] = 1.0
    return a


def _offsets(spec: SyntheticSpec, *key, shape) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(spec.seed, "offset", *key))
    return rng.standard_normal(shape)


def _stream_model(spec: SyntheticSpec, stream: str, n_states: int, dim: int,
                  emotion_scale: float, speaker_scale: float,
                  speaker: str, emotion: str) -> HmmModel:
    base = 2.0 * np.arange(n_states)[:, None] * np.ones(dim)
    eps = _offsets(spec, stream, "emotion", emotion, shape=(n_states, dim))
    sig = _offsets(spec, stream, "speaker", speaker, shape=(n_states, dim))
    centers = base + spec.separability * (emotion_scale * eps + speaker_scale * sig)
    comp = _offsets(spec, stream, "components", shape=(spec.n_mixtures, dim))
    core_weight = (1.0 - spec.floor_weight) / spec.n_mixtures
    emissions = []
    for i in range(n_states):
        weights = np.full(spec.n_mixtures, core_weight)
        means = centers[i][None, :] + comp
        variances = np.ones((spec.n_mixtures, dim))
        if spec.floor_weight > 0.0:
            weights = np.append(weights, spec.floor_weight)
            means = np.vstack([means, base[i][None, :]])
            variances = np.vstack([variances, np.full((1, dim), spec.floor_scale**2)])
        emissions.append(GmmEmission(weights, means, variances))
    return HmmModel(_bakis(n_states), tuple(emissions))


def generator_models(spec: SyntheticSpec) -> dict[tuple[str, str], tuple[HmmModel, HmmModel]]:
    """(speaker, emotion) -> (acoustic generator, prosodic generator)."""
    manifest = base_manifest(spec)
    out = {}
    for speaker in manifest.speakers:
        for emotion in spec.emotion_set:
            acoustic = _stream_model(
                spec, "acoustic", spec.n_states, spec.acoustic_dim,
                spec.acoustic_emotion_scale, spec.acoustic_speaker_scale,
                speaker, emotion,
            )
            prosodic = _stream_model(
                spec, "prosodic", spec.prosodic_states, spec.prosodic_dim,
                spec.prosodic_emotion_scale, spec.prosodic_speaker_scale,
                speaker, emotion,
            )
            for model in (acoustic, prosodic):
                problems = validate(model)
                if problems:
                    raise ValueError("bad generator: " + "; ".join(problems))
            out[(speaker, emotion)] = (acoustic, prosodic)
    return out


def base_manifest(spec: SyntheticSpec) -> CorpusManifest:
    return grid_manifest(
        n_speakers=spec.n_speakers,
        emotion_set=spec.emotion_set,
        n_groups=spec.n_groups,
        n_reps=spec.n_reps,
        train_groups=spec.train_groups,
        n_claimants=spec.n_claimants,
    )


def utterance_lengths(spec: SyntheticSpec, utterance_id: str) -> tuple[int, int]:
    """Acoustic and prosodic frame counts for one utterance."""
    lo, hi = spec.length_range
    rng = np.random.default_rng(derive_seed(spec.seed, utterance_id, "len"))
    t_len = int(rng.integers(lo, hi + 1))
    return t_len, -(-t_len // spec.block_size)


def synthesize_utterance(
    spec: SyntheticSpec,
    models: dict[tuple[str, str], tuple[HmmModel, HmmModel]],
    utt: UtteranceRef,
) -> ObservationPair:
    acoustic_model, prosodic_model = models[(utt.speaker_id, utt.emotion)]
    t_len, tp_len = utterance_lengths(spec, utt.id)
    return ObservationPair(
        acoustic=sample_sequence(acoustic_model, t_len, derive_seed(spec.seed, utt.id, "ac")),
        prosodic=sample_sequence(prosodic_model, tp_len, derive_seed(spec.seed, utt.id, "pr")),
    )


def generate_synthetic(spec: SyntheticSpec, features_dir) -> CorpusManifest:
    """Sample every utterance's feature pair and write it under features_dir.

    Pure function of (spec, seed): running twice produces bit-identical
    files.  Each utterance draws from its own derived seed, so generation
    order can never leak into the output.  The returned manifest records
    the per-utterance seed in the source column.
    """
    models = generator_models(spec)
    skeleton = base_manifest(spec)
    rows = []
    for utt in skeleton.utterances:
        pair = synthesize_utterance(spec, models, utt)
        save_features(pair, features_path(features_dir, utt.id))
        rows.append(
            UtteranceRef(
                utt.id, f"seed:{derive_seed(spec.seed, utt.id)}", utt.speaker_id,
                utt.emotion, utt.sentence_group, utt.repetition, utt.split,
            )
        )
    return CorpusManifest(
        skeleton.emotion_set, tuple(rows), dict(skeleton.roles), skeleton.audio_format
    )
