"""Suprasegmental models: stream scores, fusion algebra, serialization."""

import dataclasses
import io
import itertools
import math

import numpy as np
import pytest
from corpus_util import reference_stream_scores

from emoverify.errors import FormatError
from emoverify.frontend import ObservationPair
from emoverify.hmm import GmmEmission, HmmModel, TrainConfig, avg_frame_ll, log_forward
from emoverify.sphmm import (
    CompositeState,
    ModelBank,
    ModelSet,
    SphmmModel,
    SuprasegmentalModel,
    fuse_scores,
    load_sphmm,
    make_summary_map,
    read_sphmm,
    save_sphmm,
    score_acoustic,
    score_fused,
    score_prosodic,
    train_sphmm,
    write_sphmm,
)


def toy_hmm(rng, n_states, dim, n_mixtures=1):
    a = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        a[i, i] = 0.6
        a[i, i + 1] = 0.4
    a[-1, -1] = 1.0
    w = np.full(n_mixtures, 1.0 / n_mixtures)
    emissions = tuple(
        GmmEmission(w, rng.normal(size=(n_mixtures, dim)), rng.uniform(0.5, 1.5, (n_mixtures, dim)))
        for _ in range(n_states)
    )
    return HmmModel(a, emissions)


def toy_model(rng, alpha=0.5, composite=True, priors=(0.0, 0.0)):
    acoustic = toy_hmm(rng, 3, 4)
    prosodic = toy_hmm(rng, 1, 2)
    comp = CompositeState(rng.normal(size=2), rng.uniform(0.5, 2.0, 2)) if composite else None
    supra = SuprasegmentalModel(prosodic, make_summary_map(3), comp)
    return SphmmModel(acoustic, supra, alpha=alpha, log_priors=priors)


def toy_obs(rng, t=12, tp=3):
    return ObservationPair(rng.normal(size=(t, 4)), rng.normal(size=(tp, 2)))


class TestSummaryMap:
    def test_six_states_two_supra(self):
        assert make_summary_map(6) == (1, 1, 1, 2, 2, 2)

    def test_three_states_one_supra(self):
        assert make_summary_map(3) == (1, 1, 1)

    def test_onto_and_monotone_for_many_sizes(self):
        for n in range(1, 12):
            m = make_summary_map(n)
            assert list(m) == sorted(m)
            assert set(m) == set(range(1, math.ceil(n / 3) + 1))

    def test_bad_map_rejected(self):
        rng = np.random.default_rng(0)
        hmm = toy_hmm(rng, 2, 2)
        with pytest.raises(ValueError, match="monotone"):
            SuprasegmentalModel(hmm, (2, 1, 1, 2))
        with pytest.raises(ValueError, match="onto"):
            SuprasegmentalModel(hmm, (1, 1, 1))


class TestStreamScores:
    def test_acoustic_is_avg_frame_ll_plus_prior(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = toy_model(rng, priors=(float(rng.normal()), 0.0))
            obs = toy_obs(rng, t=int(rng.integers(2, 15)))
            expected = (
                log_forward(model.acoustic, obs.acoustic) / obs.acoustic.shape[0]
                + model.log_priors[0] / obs.acoustic.shape[0]
            )
            np.testing.assert_allclose(score_acoustic(model, obs), expected, atol=1e-12, rtol=0)

    def test_plain_model_is_bitwise_avg_frame_ll(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            plain = SphmmModel(toy_hmm(rng, 3, 4), None, alpha=0.0)
            obs = toy_obs(rng, t=int(rng.integers(2, 15)))
            want = avg_frame_ll(plain.acoustic, obs.acoustic)
            assert ModelBank((plain,)).stream_scores(obs, (0,))[1] is None
            assert score_acoustic(plain, obs) == want
            assert score_fused(plain, obs) == want

    def test_plain_model_has_no_prosodic_score(self):
        rng = np.random.default_rng(5)
        plain = SphmmModel(toy_hmm(rng, 1, 4), None, alpha=0.0)
        with pytest.raises(ValueError, match="plain model has no prosodic stream"):
            score_prosodic(plain, toy_obs(rng))

    def test_fused_model_keeps_both_streams_at_every_weight(self):
        rng = np.random.default_rng(4)
        for alpha in (0.0, 0.5, 1.0):
            model = toy_model(rng, alpha=alpha)
            obs = toy_obs(rng)
            acoustic, prosodic = ModelBank((model,)).stream_scores(obs, (0,))
            pair = (float(acoustic[0]), float(prosodic[0]))
            assert pair == (score_acoustic(model, obs), score_prosodic(model, obs))
            assert fuse_scores(alpha, *pair) == score_fused(model, obs)

    def test_single_state_single_gaussian_closed_form(self):
        mean = np.array([1.0, -2.0])
        var = np.array([0.5, 2.0])
        acoustic = HmmModel(np.array([[1.0]]), (GmmEmission([1.0], [mean], [var]),))
        rng = np.random.default_rng(2)
        supra = SuprasegmentalModel(toy_hmm(rng, 1, 2), (1,))
        model = SphmmModel(acoustic, supra)
        obs = ObservationPair(rng.normal(size=(9, 2)), rng.normal(size=(1, 2)))
        diff = obs.acoustic - mean
        per_frame = -0.5 * (2 * np.log(2 * np.pi) + np.log(var).sum()
                            + (diff * diff / var).sum(axis=1))
        np.testing.assert_allclose(score_acoustic(model, obs), per_frame.mean(), atol=1e-12)

    def test_prosodic_with_composite_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = toy_model(rng, priors=(0.0, float(rng.normal())))
            obs = toy_obs(rng, tp=int(rng.integers(1, 6)))
            tp = obs.prosodic.shape[0]
            comp = model.prosodic.composite
            m = obs.prosodic.mean(axis=0)
            diff = m - comp.mean
            comp_ll = -0.5 * (2 * np.log(2 * np.pi) + np.log(comp.variance).sum()
                              + (diff * diff / comp.variance).sum())
            expected = (
                log_forward(model.prosodic.hmm, obs.prosodic) / tp
                + comp_ll / tp
                + model.log_priors[1] / tp
            )
            np.testing.assert_allclose(score_prosodic(model, obs), expected, atol=1e-12, rtol=0)

    def test_composite_disabled_equals_plain_avg(self):
        rng = np.random.default_rng(4)
        model = toy_model(rng, composite=False)
        obs = toy_obs(rng)
        assert score_prosodic(model, obs) == avg_frame_ll(model.prosodic.hmm, obs.prosodic)

    def test_single_prosodic_frame_forced_initial_state(self):
        rng = np.random.default_rng(5)
        model = toy_model(rng, composite=False)
        obs = toy_obs(rng, tp=1)
        em = model.prosodic.hmm.emissions[0]
        diff = obs.prosodic[0] - em.means[0]
        expected = -0.5 * (2 * np.log(2 * np.pi) + np.log(em.variances[0]).sum()
                           + (diff * diff / em.variances[0]).sum())
        np.testing.assert_allclose(score_prosodic(model, obs), expected, atol=1e-12)


def bakis_hmm(rng, n_states, n_mixtures, dim, max_skip=1, far=False):
    """Random Bakis model; far puts every mean at 1e10 with variance 1e-300,
    so each frame density overflows to 0 and the model scores -inf."""
    a = np.zeros((n_states, n_states))
    for i in range(n_states):
        end = min(i + max_skip, n_states - 1) + 1
        a[i, i:end] = rng.uniform(0.1, 1.0, end - i)
    a /= a.sum(axis=1, keepdims=True)
    shape = (n_mixtures, dim)
    emissions = tuple(
        GmmEmission(rng.dirichlet(np.ones(n_mixtures)),
                    np.full(shape, 1e10) if far else rng.normal(size=shape),
                    np.full(shape, 1e-300) if far else rng.uniform(0.3, 2.0, shape))
        for _ in range(n_states))
    return HmmModel(a, emissions, max_skip=max_skip)


def bank_models(rng, n_states, max_skip, kind):
    """Four models of one kind: two of shape (n_states, 2), one of another
    shape, and one whose acoustic stream scores -inf, stacked with the
    first two at even n_states."""
    far = (n_states, 2) if n_states % 2 == 0 else (2, 1)
    sizes = [(n_states, 2), (n_states, 2), (7 - n_states, 1 + n_states % 3), far]
    models = []
    for k, (n, m) in enumerate(sizes):
        acoustic = bakis_hmm(rng, n, m, 3, min(max_skip, n), far=k == 3)
        if kind == "plain":
            models.append(SphmmModel(acoustic, None, alpha=0.0))
            continue
        comp = None
        if kind == "composite" and k != 1:
            comp = CompositeState(rng.normal(size=2), rng.uniform(0.5, 2.0, 2))
        supra = SuprasegmentalModel(bakis_hmm(rng, math.ceil(n / 3), 1 + k % 2, 2),
                                    make_summary_map(n), comp)
        models.append(SphmmModel(acoustic, supra, 0.5, tuple(rng.normal(0.0, 3.0, 2))))
    return models


class TestModelBank:
    @pytest.mark.parametrize("kind", ["composite", "no_composite", "plain"])
    @pytest.mark.parametrize("max_skip", [1, 2])
    @pytest.mark.parametrize("n_states", range(1, 7))
    def test_every_subset_and_order_scores_as_each_model_alone(self, n_states, max_skip, kind):
        rng = np.random.default_rng(1000 * n_states + 10 * max_skip + len(kind))
        models = bank_models(rng, n_states, max_skip, kind)
        bank = ModelBank(models)
        for t, tp in ((1, 1), (2, 1), (17, 4)):
            obs = ObservationPair(rng.normal(size=(t, 3)), rng.normal(size=(tp, 2)))
            with np.errstate(over="ignore"):
                alone = [reference_stream_scores(m, obs) for m in models]
                assert alone[3][0] == -np.inf and np.isfinite(alone[0][0])
                for size in range(1, len(models) + 1):
                    for rows in itertools.permutations(range(len(models)), size):
                        acoustic, prosodic = bank.stream_scores(obs, rows)
                        assert acoustic.tobytes() == np.array([alone[k][0] for k in rows]).tobytes()
                        if kind == "plain":
                            assert prosodic is None
                        else:
                            want = np.array([alone[k][1] for k in rows])
                            assert prosodic.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["composite", "no_composite", "plain"])
    @pytest.mark.parametrize("n_states", [1, 3, 5])
    def test_batch_scores_as_each_model_alone(self, n_states, kind):
        # one bank call per stream over utterances of mixed lengths, each with
        # its own rows (repeats included), gives the reference chain's bits
        rng = np.random.default_rng(2000 + 10 * n_states + len(kind))
        models = bank_models(rng, n_states, 2, kind)
        bank = ModelBank(models)
        observations = [ObservationPair(rng.normal(size=(t, 3)), rng.normal(size=(tp, 2)))
                        for t, tp in ((17, 4), (1, 1), (40, 8), (2, 1), (9, 2))]
        rows = [(0, 1, 2, 3), (2,), (3, 3, 1), (1, 0), (2, 0, 1)]
        with np.errstate(over="ignore"):
            got = bank.stream_scores_batch(observations, rows)
            for obs, r, (acoustic, prosodic) in zip(observations, rows, got):
                alone = [reference_stream_scores(models[k], obs) for k in r]
                assert acoustic.tobytes() == np.array([a for a, _ in alone]).tobytes()
                if kind == "plain":
                    assert prosodic is None
                else:
                    assert prosodic.tobytes() == np.array([p for _, p in alone]).tobytes()

    def test_out_of_range_position_is_rejected(self):
        rng = np.random.default_rng(9)
        bank = ModelBank(bank_models(rng, 2, 1, "composite"))
        obs = ObservationPair(rng.normal(size=(5, 3)), rng.normal(size=(2, 2)))
        for rows in ([4], [-1], [0, -4]):
            with pytest.raises(IndexError):
                bank.stream_scores(obs, rows)

    @pytest.mark.parametrize("kind", ["composite", "no_composite", "plain"])
    @pytest.mark.parametrize("n_states", range(1, 7))
    def test_one_model_scorers_are_the_reference_chain(self, n_states, kind):
        # score_acoustic, score_prosodic and score_fused are the bank's
        # one-model case, returned as Python floats with the bits of the
        # per-model chain, -inf scores and the fusion endpoints included
        rng = np.random.default_rng(100 * n_states + len(kind))
        models = bank_models(rng, n_states, 1, kind)
        for t, tp in ((1, 1), (2, 1), (17, 4)):
            obs = ObservationPair(rng.normal(size=(t, 3)), rng.normal(size=(tp, 2)))
            for k, model in enumerate(models):
                alphas = (0.0,) if kind == "plain" else (0.0, 0.3, 0.5, 1.0)
                for alpha in alphas:
                    model = dataclasses.replace(model, alpha=alpha)
                    with np.errstate(over="ignore"):
                        acoustic, prosodic = reference_stream_scores(model, obs)
                        got = [score_acoustic(model, obs), score_fused(model, obs)]
                        want = [acoustic, fuse_scores(alpha, acoustic, prosodic)]
                        if kind != "plain":
                            got.append(score_prosodic(model, obs))
                            want.append(prosodic)
                    assert all(type(x) is float for x in got)
                    assert np.array(got).tobytes() == np.array(want).tobytes()
                    assert (acoustic == -np.inf) == (k == 3)


class TestFusion:
    def test_alpha_zero_is_bitwise_acoustic(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = toy_model(rng, alpha=0.0)
            obs = toy_obs(rng)
            assert score_fused(model, obs) == score_acoustic(model, obs)

    def test_alpha_one_is_bitwise_prosodic(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = toy_model(rng, alpha=1.0)
            obs = toy_obs(rng)
            assert score_fused(model, obs) == score_prosodic(model, obs)

    def test_half_is_arithmetic_mean(self):
        rng = np.random.default_rng(8)
        base = toy_model(rng, alpha=0.5)
        obs = toy_obs(rng)
        a = score_acoustic(base, obs)
        p = score_prosodic(base, obs)
        np.testing.assert_allclose(score_fused(base, obs), 0.5 * (a + p), atol=1e-15)

    def test_fixed_values(self):
        # stream scores -4 and -2 at alpha 0.5 must fuse to exactly -3;
        # set priors so each stream's score lands on the target value
        acoustic = HmmModel(np.array([[1.0]]), (GmmEmission([1.0], [[0.0]], [[1.0]]),))
        prosodic = HmmModel(np.array([[1.0]]), (GmmEmission([1.0], [[0.0]], [[1.0]]),))
        supra = SuprasegmentalModel(prosodic, (1,))
        obs = ObservationPair(np.zeros((1, 1)), np.zeros((1, 1)))
        gauss = -0.5 * np.log(2 * np.pi)
        model = SphmmModel(acoustic, supra, alpha=0.5,
                           log_priors=(-4.0 - gauss, -2.0 - gauss))
        assert score_acoustic(model, obs) == -4.0
        assert score_prosodic(model, obs) == -2.0
        assert score_fused(model, obs) == -3.0

    def test_affine_in_alpha(self):
        rng = np.random.default_rng(11)
        import dataclasses

        for _ in range(10):
            model = toy_model(rng, alpha=0.0)
            obs = toy_obs(rng)
            ends = [
                score_fused(dataclasses.replace(model, alpha=0.0), obs),
                score_fused(dataclasses.replace(model, alpha=1.0), obs),
            ]
            mid = score_fused(dataclasses.replace(model, alpha=0.5), obs)
            assert abs(mid - 0.5 * (ends[0] + ends[1])) < 1e-12

    def test_alpha_out_of_range_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="alpha"):
            toy_model(rng, alpha=1.5)

    def test_infinite_prior_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="finite"):
            toy_model(rng, priors=(float("-inf"), 0.0))

    def test_plain_model_needs_alpha_zero(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="without a prosodic stream needs alpha 0"):
            SphmmModel(toy_hmm(rng, 3, 4), None, alpha=0.5)


class TestSharedAlpha:
    """ModelSet: the one set check and the fusion weight its models share."""

    def test_set_weight(self):
        rng = np.random.default_rng(15)
        fused = ModelSet({"a": toy_model(rng, alpha=0.25), "b": toy_model(rng, alpha=0.25)})
        assert fused.alpha == 0.25 and fused.labels == ("a", "b")
        plain = ModelSet({k: SphmmModel(toy_hmm(rng, 3, 4), None, alpha=0.0) for k in "ba"})
        assert plain.alpha == 0.0 and plain.labels == ("b", "a")

    def test_one_check_per_inconsistency(self):
        rng = np.random.default_rng(16)
        fused = toy_model(rng)
        cases = [
            (SphmmModel(toy_hmm(rng, 3, 5), fused.prosodic), "models disagree on feature dim"),
            (SphmmModel(fused.acoustic, None, alpha=0.0), "models mix fused and plain kinds"),
            (dataclasses.replace(fused, alpha=0.75), "models disagree on alpha"),
        ]
        for other, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                ModelSet({"s1": fused, "s2": other})
        for too_few in ({}, {"s1": fused}):
            with pytest.raises(ValueError, match="^a model set needs at least 2 models"):
                ModelSet(too_few)


class TestTraining:
    def train_pairs(self, rng, n=8):
        return [
            ObservationPair(rng.normal(size=(int(rng.integers(9, 16)), 3)),
                            rng.normal(size=(2, 2)))
            for _ in range(n)
        ]

    def test_shapes_and_summary_map(self):
        rng = np.random.default_rng(14)
        pairs = self.train_pairs(rng)
        model = train_sphmm(pairs, n_states=6, n_mixtures=1, alpha=0.3,
                            cfg=TrainConfig(max_iterations=3, seed=1))
        assert model.acoustic.n_states == 6
        assert model.prosodic.n_states == 2
        assert model.prosodic.summary_map == (1, 1, 1, 2, 2, 2)
        assert model.alpha == 0.3
        assert model.prosodic.composite is not None

    def test_three_states_one_supra(self):
        rng = np.random.default_rng(15)
        model = train_sphmm(self.train_pairs(rng), 3, 1, cfg=TrainConfig(max_iterations=2, seed=2))
        assert model.prosodic.n_states == 1
        assert model.prosodic.summary_map == (1, 1, 1)

    def test_composite_fit(self):
        rng = np.random.default_rng(16)
        pairs = self.train_pairs(rng)
        model = train_sphmm(pairs, 3, 1, cfg=TrainConfig(max_iterations=2, seed=3))
        means = np.stack([p.prosodic.mean(axis=0) for p in pairs])
        np.testing.assert_allclose(model.prosodic.composite.mean, means.mean(axis=0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(17)
        pairs = self.train_pairs(rng)
        cfg = TrainConfig(max_iterations=3, seed=5)
        b1, b2 = io.BytesIO(), io.BytesIO()
        write_sphmm(b1, train_sphmm(pairs, 3, 2, cfg=cfg))
        write_sphmm(b2, train_sphmm(pairs, 3, 2, cfg=cfg))
        assert b1.getvalue() == b2.getvalue()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_sphmm([], 3, 1)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        model = toy_model(rng, alpha=0.25, priors=(-1.5, -0.5))
        p = tmp_path / "m.emvs"
        save_sphmm(model, p)
        back = load_sphmm(p)
        assert back.alpha == 0.25
        assert back.log_priors == (-1.5, -0.5)
        assert back.prosodic.summary_map == model.prosodic.summary_map
        np.testing.assert_array_equal(back.acoustic.transitions, model.acoustic.transitions)
        np.testing.assert_array_equal(
            back.prosodic.composite.mean, model.prosodic.composite.mean
        )
        rng2 = np.random.default_rng(19)
        obs = toy_obs(rng2)
        assert score_fused(back, obs) == score_fused(model, obs)

    def test_round_trip_without_composite(self, tmp_path):
        rng = np.random.default_rng(20)
        model = toy_model(rng, composite=False)
        p = tmp_path / "m.emvs"
        save_sphmm(model, p)
        assert load_sphmm(p).prosodic.composite is None

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_sphmm(io.BytesIO(b"EMVH" + b"\x00" * 64))

    def test_plain_model_points_to_write_hmm(self, tmp_path):
        rng = np.random.default_rng(21)
        plain = SphmmModel(toy_hmm(rng, 3, 4), None, alpha=0.0)
        fp = io.BytesIO()
        with pytest.raises(ValueError, match=r"write_hmm\(model\.acoustic\)"):
            write_sphmm(fp, plain)
        assert fp.getvalue() == b""
        with pytest.raises(ValueError, match=r"write_hmm\(model\.acoustic\)"):
            save_sphmm(plain, tmp_path / "m.emvs")
        assert not (tmp_path / "m.emvs").exists()
