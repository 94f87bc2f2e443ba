"""Synthetic corpus generation: determinism, separability, provenance."""

import numpy as np
import pytest

from emoverify.featureio import features_path, load_features
from emoverify.hmm import avg_frame_ll
from emoverify.seeds import derive_seed
from emoverify.synthetic import (
    SyntheticSpec,
    base_manifest,
    generate_synthetic,
    generator_models,
    synthesize_utterance,
    utterance_lengths,
)

SMALL = SyntheticSpec(
    n_speakers=2,
    emotion_set=("neutral", "angry"),
    n_groups=2,
    n_reps=1,
    train_groups=(1,),
    acoustic_dim=3,
    prosodic_dim=2,
    length_range=(5, 9),
    seed=11,
)


class TestSeeds:
    def test_derive_seed_stable_and_sensitive(self):
        a = derive_seed(5, "u1", "ac")
        assert a == derive_seed(5, "u1", "ac")
        assert a != derive_seed(5, "u1", "pr")
        assert a != derive_seed(6, "u1", "ac")
        assert derive_seed(5, "ab", "c") != derive_seed(5, "a", "bc")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(0) < 2**64


class TestDeterminism:
    def test_same_spec_same_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        m1 = generate_synthetic(SMALL, d1)
        m2 = generate_synthetic(SMALL, d2)
        assert [u.id for u in m1.utterances] == [u.id for u in m2.utterances]
        for u in m1.utterances:
            assert features_path(d1, u.id).read_bytes() == features_path(d2, u.id).read_bytes()

    def test_order_free_per_utterance_sampling(self):
        models = generator_models(SMALL)
        manifest = base_manifest(SMALL)
        first, last = manifest.utterances[0], manifest.utterances[-1]
        again = synthesize_utterance(SMALL, models, first)
        np.testing.assert_array_equal(
            again.acoustic, synthesize_utterance(SMALL, models, first).acoustic
        )
        assert not np.array_equal(
            again.acoustic[: 3], synthesize_utterance(SMALL, models, last).acoustic[: 3]
        )

    def test_different_seed_different_features(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        m1 = generate_synthetic(SMALL, d1)
        import dataclasses

        generate_synthetic(dataclasses.replace(SMALL, seed=12), d2)
        u = m1.utterances[0].id
        assert features_path(d1, u).read_bytes() != features_path(d2, u).read_bytes()


class TestManifestOutput:
    def test_shapes_and_splits(self, tmp_path):
        m = generate_synthetic(SMALL, tmp_path)
        assert len(m.utterances) == 2 * 2 * 2 * 1
        assert {u.split for u in m.subset(speaker="s1") if u.sentence_group == 1} == {"train"}
        assert {u.split for u in m.subset(speaker="s1") if u.sentence_group == 2} == {"test"}

    def test_source_records_seed(self, tmp_path):
        m = generate_synthetic(SMALL, tmp_path)
        u = m.utterances[0]
        assert u.source == f"seed:{derive_seed(SMALL.seed, u.id)}"

    def test_lengths_respect_spec(self, tmp_path):
        m = generate_synthetic(SMALL, tmp_path)
        for u in m.utterances:
            pair = load_features(features_path(tmp_path, u.id))
            t, tp = pair.acoustic.shape[0], pair.prosodic.shape[0]
            assert SMALL.length_range[0] <= t <= SMALL.length_range[1]
            assert tp == -(-t // SMALL.block_size)
            assert (t, tp) == utterance_lengths(SMALL, u.id)


class TestSeparability:
    def test_zero_scale_collapses_generators(self):
        import dataclasses

        spec = dataclasses.replace(SMALL, separability=0.0)
        models = generator_models(spec)
        keys = list(models)
        ref_ac, ref_pr = models[keys[0]]
        for key in keys[1:]:
            ac, pr = models[key]
            for a, b in zip(ac.emissions, ref_ac.emissions):
                np.testing.assert_array_equal(a.means, b.means)
            for a, b in zip(pr.emissions, ref_pr.emissions):
                np.testing.assert_array_equal(a.means, b.means)

    def test_high_separability_own_generator_wins(self):
        spec = SyntheticSpec(
            n_speakers=10,
            n_groups=2,
            n_reps=1,
            train_groups=(1,),
            acoustic_dim=6,
            length_range=(20, 30),
            separability=3.0,
            acoustic_speaker_scale=1.0,
            seed=21,
        )
        models = generator_models(spec)
        manifest = base_manifest(spec)
        test_utts = manifest.subset(split="test")
        wins = 0
        for u in test_utts:
            pair = synthesize_utterance(spec, models, u)
            own = avg_frame_ll(models[(u.speaker_id, u.emotion)][0], pair.acoustic)
            others = [
                avg_frame_ll(ac, pair.acoustic)
                for key, (ac, _) in models.items()
                if key != (u.speaker_id, u.emotion)
            ]
            wins += own > max(others)
        assert wins / len(test_utts) >= 0.99

    def test_negative_separability_rejected(self):
        import dataclasses

        with pytest.raises(ValueError, match="separability"):
            dataclasses.replace(SMALL, separability=-1.0)

    def test_overflowing_separability_rejected(self):
        # the spec bounds its scales below only; the generators refuse the
        # non-finite means that a huge separability gives
        import dataclasses

        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^means contains non-finite values$"):
            generator_models(dataclasses.replace(SMALL, separability=1e308))

    def test_bad_length_range_rejected(self):
        import dataclasses

        with pytest.raises(ValueError, match="length_range"):
            dataclasses.replace(SMALL, length_range=(9, 5))


class TestFloorComponent:
    def test_disabled_by_default(self):
        models = generator_models(SMALL)
        acoustic, prosodic = models[("s1", "neutral")]
        assert acoustic.n_mixtures == SMALL.n_mixtures
        assert prosodic.n_mixtures == SMALL.n_mixtures

    def test_shared_broad_component(self):
        import dataclasses

        spec = dataclasses.replace(SMALL, floor_weight=0.25, floor_scale=5.0, n_states=2)
        models = generator_models(spec)
        floors = []
        for acoustic, _ in models.values():
            assert acoustic.n_mixtures == spec.n_mixtures + 1
            for i, em in enumerate(acoustic.emissions):
                assert em.weights[-1] == 0.25
                np.testing.assert_allclose(em.weights.sum(), 1.0, atol=1e-12)
                np.testing.assert_array_equal(em.variances[-1], np.full(3, 25.0))
                np.testing.assert_array_equal(em.means[-1], np.full(3, 2.0 * i))
            floors.append(acoustic.emissions[0].means[-1])
        # One floor for everyone: it carries no speaker or emotion offset.
        for floor in floors[1:]:
            np.testing.assert_array_equal(floor, floors[0])

    def test_bad_floor_fields_rejected(self):
        import dataclasses

        with pytest.raises(ValueError, match="floor_weight"):
            dataclasses.replace(SMALL, floor_weight=1.0)
        with pytest.raises(ValueError, match="floor_scale"):
            dataclasses.replace(SMALL, floor_scale=0.0)
