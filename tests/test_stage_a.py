"""Emotion identification over synthetic corpora with known generators."""

import dataclasses
import io

import numpy as np
import pytest
from corpus_util import make_corpus

from emoverify.hmm import TrainConfig
from emoverify.manifest import UtteranceRef
from emoverify.seeds import derive_seed
from emoverify.sphmm import ModelSet, train_sphmm, write_sphmm
from emoverify.stage_a import (
    ConfusionMatrix,
    identify_emotion,
    tally,
    train_emotion_models,
)
from emoverify.stage_b import TrialConfig, best_labels, score_trials
from emoverify.synthetic import SyntheticSpec, synthesize_utterance

FAST = TrainConfig(max_iterations=3, seed=7)

SEPARABLE = SyntheticSpec(
    n_speakers=4,
    n_groups=2,
    n_reps=3,
    train_groups=(1,),
    n_states=1,
    acoustic_dim=4,
    length_range=(12, 20),
    separability=2.5,
    seed=31,
)


def identify_test_split(models, manifest, features, keep=lambda u: True):
    """Score the kept test utterances into one table, identify each at the
    models' weight and tally the identifications."""
    test = [(u, u.speaker_id) for u in manifest.subset(split="test") if keep(u)]
    table = score_trials(test, models, features, TrialConfig())
    return tally(models.labels, zip(best_labels(table, models.alpha), (u.emotion for u, _ in test)))


@pytest.fixture(scope="module")
def separable():
    manifest, features, gen = make_corpus(SEPARABLE)
    models = train_emotion_models(manifest, features, n_states=1, n_mixtures=1, cfg=FAST)
    return manifest, features, gen, models


class TestTraining:
    def test_pooled_counts(self, separable):
        manifest, features, _, models = separable
        assert models.labels == manifest.emotion_set
        # 4 speakers x 1 train group x 3 reps pooled per emotion
        assert len(manifest.subset(split="train", emotion="sad")) == 12

    def test_missing_emotion_errors(self, separable):
        manifest, features, _, _ = separable
        trimmed = dataclasses.replace(
            manifest,
            utterances=tuple(u for u in manifest.utterances if u.emotion != "fear"),
        )
        with pytest.raises(ValueError, match="fear"):
            train_emotion_models(trimmed, features, 1, 1, cfg=FAST)

    def test_each_model_trains_on_its_emotion_with_its_own_seed(self, separable):
        # the seed labels ("stage_a", emotion) are what the golden record pins
        manifest, features, _, models = separable
        for emotion in manifest.emotion_set:
            rows = manifest.subset(split="train", emotion=emotion)
            cfg = dataclasses.replace(FAST, seed=derive_seed(FAST.seed, "stage_a", emotion))
            want = train_sphmm([features[u.id] for u in rows], 1, 1, cfg=cfg)
            got, expected = io.BytesIO(), io.BytesIO()
            write_sphmm(got, models.models[emotion])
            write_sphmm(expected, want)
            assert got.getvalue() == expected.getvalue(), emotion

    def test_own_emotion_scores_higher_on_average(self, separable):
        manifest, features, _, models = separable
        for emotion in manifest.emotion_set:
            own, other = [], []
            for u in manifest.subset(split="test"):
                _, scores = identify_emotion(models, features[u.id])
                (own if u.emotion == emotion else other).append(scores[emotion])
            assert np.mean(own) > np.mean(other)


class TestIdentify:
    def test_identifies_sad_generator(self, separable):
        manifest, _, gen, models = separable
        hits = 0
        trials = 0
        for i in range(250):
            speaker = manifest.speakers[i % len(manifest.speakers)]
            ref = UtteranceRef(f"extra_sad_{i}", "synthetic", speaker, "sad", 2, 1, "test")
            obs = synthesize_utterance(SEPARABLE, gen, ref)
            best, _ = identify_emotion(models, obs)
            hits += best == "sad"
            trials += 1
        assert hits / trials >= 0.95

    def test_score_vector_covers_all_emotions(self, separable):
        manifest, features, _, models = separable
        _, scores = identify_emotion(models, features[manifest.utterances[0].id])
        assert tuple(scores) == manifest.emotion_set
        assert all(np.isfinite(v) for v in scores.values())

    def test_constant_shift_keeps_argmax(self, separable):
        manifest, features, _, models = separable
        shifted = ModelSet(
            {
                e: dataclasses.replace(m, log_priors=(m.log_priors[0] + 3.5,
                                                      m.log_priors[1] + 3.5))
                for e, m in models.models.items()
            }
        )
        for u in manifest.subset(split="test")[:20]:
            assert identify_emotion(models, features[u.id])[0] == \
                identify_emotion(shifted, features[u.id])[0]

    def test_identical_models_tie_to_the_earlier_emotion(self, separable):
        manifest, features, _, models = separable
        model = models.models["sad"]
        obs = features[manifest.utterances[0].id]
        for order in (("happy", "sad", "angry"), ("angry", "sad", "happy")):
            twins = ModelSet({e: model for e in order})
            best, scores = identify_emotion(twins, obs)
            assert best == order[0] and tuple(scores) == order
            assert len(set(scores.values())) == 1

    def test_two_emotion_set_minimum(self):
        with pytest.raises(ValueError, match="at least 2"):
            ModelSet({})


class TestConfusion:
    def test_counts_and_percentages(self, separable):
        manifest, features, _, models = separable
        cm = identify_test_split(models, manifest, features)
        assert cm.counts.sum() == len(manifest.subset(split="test"))
        np.testing.assert_allclose(cm.percentages.sum(axis=0), 100.0, atol=1e-9)
        assert cm.accuracy > 80.0

    def test_perfect_classifier_diagonal(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[5, 0], [0, 7]]))
        assert np.all(np.diag(cm.percentages) == 100.0)
        assert cm.accuracy == 100.0

    def test_constant_prediction_first_row(self):
        cm = ConfusionMatrix(("a", "b", "c"), np.array([[4, 6, 2], [0, 0, 0], [0, 0, 0]]))
        assert np.all(cm.percentages[0] == 100.0)
        np.testing.assert_allclose(cm.percentages.sum(axis=0), 100.0)

    def test_missing_emotion_in_test_set(self, separable):
        manifest, features, _, models = separable
        with pytest.raises(ValueError, match="angry"):
            identify_test_split(models, manifest, features, keep=lambda u: u.emotion != "angry")

    def test_csv_layout(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[3, 1], [1, 4]]))
        text = cm.to_csv()
        assert "model,a,b" in text
        assert text.count("model,a,b") == 2
        assert "# counts" in text and "# percentages" in text


class TestChanceLevel:
    def test_zero_separability_is_chance(self):
        # With identical generators the trained models induce one fixed
        # partition of feature space, so predictions are independent of
        # the true label: columns agree within multinomial noise and the
        # diagonal mean sits at 100/m.  Individual cells equal the region
        # masses, which are not uniform, so cells are not asserted at
        # 100/m.
        spec = SyntheticSpec(
            n_speakers=6,
            n_groups=2,
            n_reps=100,
            train_groups=(1,),
            n_states=1,
            acoustic_dim=2,
            prosodic_dim=2,
            length_range=(2, 4),
            separability=0.0,
            seed=5,
        )
        manifest, features, _ = make_corpus(spec)
        models = train_emotion_models(manifest, features, 1, 1,
                                      cfg=TrainConfig(max_iterations=2, seed=3),
                                      composite=False)
        m = len(manifest.emotion_set)
        assert len(manifest.subset(split="test")) == 600 * m
        cm = identify_test_split(models, manifest, features)
        assert abs(cm.accuracy - 100.0 / m) < 2.5
        pct = cm.percentages
        for i in range(m):
            for j in range(i + 1, m):
                assert np.abs(pct[:, i] - pct[:, j]).max() < 10.0
