"""Train per-emotion models and identify emotions on held-out utterances.

The fused models score both streams; the same set at fusion weight 0
scores the acoustic stream only and shows what the prosodic stream adds.
The corpus carries weak emotion cues in the acoustic stream, so the
acoustic-only identifier misreads utterances the fused one gets right.
"""

from emoverify.hmm import TrainConfig
from emoverify.stage_a import identify_emotion, tally, train_emotion_models
from emoverify.stage_b import TrialConfig, best_labels, score_trials
from emoverify.synthetic import SyntheticSpec, base_manifest, generator_models, synthesize_utterance

spec = SyntheticSpec(
    n_speakers=4,
    emotion_set=("neutral", "angry", "sad"),
    n_groups=4,
    n_reps=4,
    train_groups=(1, 2),
    n_states=1,
    acoustic_dim=4,
    prosodic_dim=3,
    block_size=3,
    length_range=(12, 20),
    separability=2.5,
    acoustic_emotion_scale=0.3,
    prosodic_emotion_scale=2.0,
    floor_weight=0.25,
    seed=3,
)

# in-memory corpus: manifest plus {utterance id -> ObservationPair}
models = generator_models(spec)
manifest = base_manifest(spec)
features = {u.id: synthesize_utterance(spec, models, u) for u in manifest.utterances}

emotion_models = train_emotion_models(
    manifest, features, n_states=1, n_mixtures=2, cfg=TrainConfig(max_iterations=5, seed=1)
)

# single utterance: the argmax label plus the full score vector
probe = next(u for u in manifest.utterances if u.split == "test")
label, scores = identify_emotion(emotion_models, features[probe.id])
print(f"{probe.id}: identified {label!r} (true {probe.emotion!r})")
for emotion, score in sorted(scores.items(), key=lambda kv: -kv[1]):
    print(f"  {emotion:<8} {score:8.3f}")

# whole test split: one score table (every stream of every emotion model
# per utterance), identified at a fusion weight and tallied into a
# confusion matrix with column percentages
test = [(u, u.speaker_id) for u in manifest.utterances if u.split == "test"]
table = score_trials(test, emotion_models, features, TrialConfig())
portrayed = [u.emotion for u, _ in test]
matrix = tally(emotion_models.labels, zip(best_labels(table, emotion_models.alpha), portrayed))
print()
print(matrix.to_csv())
print(f"fused accuracy: {matrix.accuracy:.1f}%")

# the same table at weight 0 is the acoustic-only identifier, with no rescoring
acoustic_only = tally(emotion_models.labels, zip(best_labels(table, 0.0), portrayed))
print(f"acoustic-only accuracy: {acoustic_only.accuracy:.1f}%")
