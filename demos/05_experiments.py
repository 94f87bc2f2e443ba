"""Compare pipelines with run_experiment and write a report directory.

two_stage conditions verification on the identified emotion; one_stage
pools each speaker's emotions into a single model.  The alpha sweep
scores the fused pipeline once and decides it at eleven fusion weights
from those stream scores.  The corpus here
makes emotions sit further apart than speakers in the acoustic stream
(pooling them hurts) and gives the prosodic stream the stronger speaker
separation, so both published orderings show up.
"""

import tempfile
from pathlib import Path

from emoverify import ExperimentConfig, run_experiment, write_report
from emoverify.hmm import TrainConfig
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
    block_size=2,
    length_range=(12, 20),
    separability=2.5,
    acoustic_emotion_scale=1.0,
    acoustic_speaker_scale=0.3,
    prosodic_emotion_scale=8.0,
    prosodic_speaker_scale=1.6,
    floor_weight=0.25,
    floor_scale=12.0,
    seed=2024,
)

models = generator_models(spec)
manifest = base_manifest(spec)
features = {u.id: synthesize_utterance(spec, models, u) for u in manifest.utterances}
cfg = ExperimentConfig(n_states=1, n_mixtures=2, seed=7, train=TrainConfig(max_iterations=3))

# one_stage reports embed a two_stage reference table plus the t-test
# pairing the two per-emotion EER vectors
report = run_experiment("one_stage", manifest, features, cfg)
print(f"one_stage average EER: {report.average_eer:.2f}%")
reference = report.comparisons["two_stage"]
print(f"two_stage average EER: {sum(reference.values()) / len(reference):.2f}%")
ttest = report.ttests["two_stage"]
print(f"paired t: {ttest.t:.3f}, significant at 1.645: {ttest.significant}, "
      f"larger: {ttest.larger}")

print("\nfusion-weight sweep (average EER):")
sweep = run_experiment("alpha_sweep", manifest, features, cfg)
for alpha, value in sweep.alpha_rows:
    print(f"  alpha {alpha:.1f}: {value:5.2f}%  " + "#" * round(value / 2))

out = Path(tempfile.mkdtemp(prefix="emoverify_demo_")) / "report"
written = write_report(sweep, out)
print(f"\nreport files in {out}:")
for p in written:
    print(f"  {p.name}")
