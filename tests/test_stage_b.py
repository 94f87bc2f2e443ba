"""Verification trials: enrollment, ratio arithmetic, plans, execution."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest

from corpus_util import make_corpus, reference_stream_scores
from emoverify import hmm, sphmm, stage_b
from emoverify.evaluation import ALPHA_GRID
from emoverify.hmm import GmmEmission, HmmModel, TrainConfig, avg_frame_ll, write_hmm
from emoverify.manifest import CorpusManifest, UtteranceRef, grid_manifest
from emoverify.sphmm import ModelSet, SphmmModel, SuprasegmentalModel, make_summary_map
from emoverify.stage_a import identify_emotion, train_emotion_models
from emoverify.stage_b import (
    MODES,
    TRIAL_CSV_HEADER,
    ScoreTable,
    SpeakerEmotionModelSet,
    TrialConfig,
    TrialRecord,
    _wrong_emotion,
    adapt_threshold,
    decide,
    decide_trials,
    enroll,
    enroll_pooled,
    run_trials,
    score_trials,
    trial_plan,
    write_trials,
)
from emoverify.synthetic import SyntheticSpec

FAST = TrainConfig(max_iterations=3, seed=7)


def hmm_bytes(model):
    buf = io.BytesIO()
    write_hmm(buf, model)
    return buf.getvalue()

# Strong speaker and emotion separation so score orderings are decisive.
# The shared floor component keeps background scores from tracking speaker
# mismatch, so the ratio detector has something to detect; training uses
# one extra mixture to absorb it.
TRIALS_SPEC = SyntheticSpec(
    n_speakers=4,
    emotion_set=("calm", "angry", "sad"),
    n_groups=2,
    n_reps=45,
    train_groups=(1,),
    n_states=1,
    n_mixtures=1,
    acoustic_dim=4,
    prosodic_dim=2,
    block_size=5,
    length_range=(12, 20),
    separability=2.5,
    acoustic_speaker_scale=1.0,
    floor_weight=0.25,
    seed=13,
)


@pytest.fixture(scope="module")
def corpus():
    manifest, features, _ = make_corpus(TRIALS_SPEC)
    return manifest, features


@pytest.fixture(scope="module")
def enrolled(corpus):
    manifest, features = corpus
    return enroll(manifest, features, n_states=1, n_mixtures=2, cfg=FAST)


@pytest.fixture(scope="module")
def pooled(corpus):
    manifest, features = corpus
    return enroll_pooled(manifest, features, n_states=1, n_mixtures=2, cfg=FAST)


@pytest.fixture(scope="module")
def emotion_models(corpus):
    manifest, features = corpus
    return train_emotion_models(manifest, features, n_states=1, n_mixtures=2, cfg=FAST)


@pytest.fixture(scope="module")
def oracle_records(corpus, enrolled):
    manifest, features = corpus
    return run_trials(enrolled, None, manifest, features, mode="oracle_emotion",
                      cfg=TrialConfig(seed=3))


def toy_hmm(mu: float, dim: int = 2) -> HmmModel:
    em = GmmEmission(np.array([1.0]), np.full((1, dim), mu), np.ones((1, dim)))
    return HmmModel(np.array([[1.0]]), (em,))


def toy_plain(mu: float, dim: int = 2) -> SphmmModel:
    return SphmmModel(toy_hmm(mu, dim), None, alpha=0.0)


def toy_sphmm(mu: float, dim: int = 2) -> SphmmModel:
    supra = SuprasegmentalModel(toy_hmm(mu, dim), make_summary_map(1))
    return SphmmModel(toy_hmm(mu, dim), supra)


def toy_obs(rng, t_len: int = 5, dim: int = 2):
    from emoverify.frontend import ObservationPair

    return ObservationPair(rng.normal(size=(t_len, dim)), rng.normal(size=(2, dim)))


def tiny_manifest(rows, emotions=("a", "b"), roles=None):
    """rows: (speaker, emotion, split) triples, one utterance each."""
    utterances = tuple(
        UtteranceRef(f"u{i}", "synthetic", sp, e, 1, i + 1, split)
        for i, (sp, e, split) in enumerate(rows)
    )
    if roles is None:
        roles = {sp: "claimant" for sp, _, _ in rows}
    return CorpusManifest(tuple(emotions), utterances, roles)


class RecordingFeatures:
    """Feature store that remembers which utterances were requested."""

    def __init__(self, dim=2, prosodic_dim=2):
        self.dim = dim
        self.prosodic_dim = prosodic_dim
        self.requested = []

    def __getitem__(self, uid):
        from emoverify.seeds import derive_seed

        self.requested.append(uid)
        rng = np.random.default_rng(derive_seed(0, uid))
        return toy_obs(rng, t_len=4, dim=self.dim)


class TestModelSets:
    def test_missing_pair_named(self):
        models = {("S07", e): toy_plain(0.0) for e in ("neutral", "angry")}
        del models["S07", "angry"]
        models["S07", "neutral"] = toy_plain(0.0)
        with pytest.raises(ValueError, match=r"\(S07, angry\) unenrolled"):
            SpeakerEmotionModelSet(("neutral", "angry"), models)

    def test_undeclared_emotion_rejected(self):
        models = {("s1", e): toy_plain(0.0) for e in ("a", "b", "c")}
        with pytest.raises(ValueError, match="undeclared emotion"):
            SpeakerEmotionModelSet(("a", "b"), models)

    def test_single_emotion_rejected(self):
        with pytest.raises(ValueError, match="at least 2 emotions"):
            SpeakerEmotionModelSet(("a",), {("s1", "a"): toy_plain(0.0)})

    def test_mixed_kinds_rejected(self):
        models = {("s1", "a"): toy_plain(0.0), ("s1", "b"): toy_sphmm(0.0)}
        with pytest.raises(ValueError, match="mix"):
            SpeakerEmotionModelSet(("a", "b"), models)

    def test_backgrounds_one_per_other_emotion(self):
        models = {("s1", e): toy_plain(0.0) for e in ("a", "b", "c")}
        model_set = SpeakerEmotionModelSet(("a", "b", "c"), models)
        assert model_set.speakers == ("s1",)
        assert model_set.alpha == 0.0

    def test_fused_set_decides_at_its_alpha(self):
        models = {("s1", e): dataclasses.replace(toy_sphmm(0.0), alpha=0.25) for e in ("a", "b")}
        assert SpeakerEmotionModelSet(("a", "b"), models).alpha == 0.25

    def test_mixed_fused_alpha_rejected(self):
        models = {("s1", "a"): toy_sphmm(0.0),
                  ("s1", "b"): dataclasses.replace(toy_sphmm(0.0), alpha=0.25)}
        with pytest.raises(ValueError, match="disagree on alpha"):
            SpeakerEmotionModelSet(("a", "b"), models)
        pooled = {"s1": toy_sphmm(0.0), "s2": dataclasses.replace(toy_sphmm(1.0), alpha=0.75)}
        with pytest.raises(ValueError, match="disagree on alpha"):
            ModelSet(pooled)

    def test_pooled_needs_two_speakers(self):
        with pytest.raises(ValueError, match="at least 2"):
            ModelSet({"s1": toy_plain(0.0)})


class TestEnroll:
    def test_one_speaker_two_emotions_two_models(self):
        manifest = tiny_manifest(
            [("s1", "a", "train"), ("s1", "b", "train"),
             ("s1", "a", "test"), ("s1", "b", "test")]
        )
        feats = RecordingFeatures()
        models = enroll(manifest, feats, n_states=1, n_mixtures=1, cfg=FAST)
        assert set(models.models) == {("s1", "a"), ("s1", "b")}

    def test_grid_protocol_pools_36_per_pair(self):
        # 8 sentence groups, 4 in train, 9 repetitions: 36 recordings feed
        # each (speaker, emotion) model.
        manifest = grid_manifest(n_speakers=1, emotion_set=("a", "b"))
        feats = RecordingFeatures()
        enroll(manifest, feats, n_states=1, n_mixtures=1,
               cfg=TrainConfig(max_iterations=1, seed=1))
        per_pair = {}
        for uid in set(feats.requested):
            speaker, emotion = uid.split("_")[:2]
            per_pair[speaker, emotion] = per_pair.get((speaker, emotion), 0) + 1
        assert per_pair == {("s1", "a"): 36, ("s1", "b"): 36}

    def test_missing_training_pair_is_an_error(self):
        manifest = tiny_manifest(
            [("S07", "a", "train"), ("S07", "a", "test"), ("S07", "b", "test")]
        )
        with pytest.raises(ValueError, match=r"\(S07, b\) unenrolled"):
            enroll(manifest, RecordingFeatures(), n_states=1, n_mixtures=1, cfg=FAST)

    @pytest.mark.parametrize("trainer", [enroll, enroll_pooled], ids=lambda f: f.__name__)
    def test_fused_enrollment_shares_acoustic_model(self, corpus, trainer):
        manifest, features = corpus
        claimants = manifest.claimants[:2]
        sub = CorpusManifest(
            manifest.emotion_set,
            tuple(u for u in manifest.utterances if u.speaker_id in claimants),
            {c: "claimant" for c in claimants},
        )
        plain = trainer(sub, features, n_states=1, n_mixtures=1, cfg=FAST)
        fused = trainer(sub, features, n_states=1, n_mixtures=1, cfg=FAST, fused=True)
        assert (fused.alpha, plain.alpha) == (0.5, 0.0)
        assert list(fused.models) == list(plain.models)
        for key, model in plain.models.items():
            assert hmm_bytes(fused.models[key].acoustic) == hmm_bytes(model.acoustic), key

    def test_plain_enrollment_ignores_composite(self, corpus):
        manifest, features = corpus
        claimant = manifest.claimants[0]
        sub = CorpusManifest(
            manifest.emotion_set, manifest.subset(speaker=claimant), {claimant: "claimant"})
        default = enroll(sub, features, n_states=1, n_mixtures=1, cfg=FAST)
        without = enroll(sub, features, n_states=1, n_mixtures=1, cfg=FAST, composite=False)
        assert list(without.models) == list(default.models)
        for key, model in default.models.items():
            assert without.models[key].prosodic is None
            assert hmm_bytes(without.models[key].acoustic) == hmm_bytes(model.acoustic), key

    def test_pooled_speaker_without_training_data(self):
        manifest = tiny_manifest(
            [("s1", "a", "train"), ("s1", "b", "train"),
             ("s2", "a", "test"), ("s2", "b", "test")]
        )
        with pytest.raises(ValueError, match="'s2' has no training utterances"):
            enroll_pooled(manifest, RecordingFeatures(), n_states=1, n_mixtures=1, cfg=FAST)


def hand_table(scores, emotion="a", claimed="s1"):
    """A one-row ScoreTable of plain scores by label, over one test
    utterance of speaker s1 portraying emotion, claimed as claimed."""
    utt = UtteranceRef("u0", "synthetic", "s1", emotion, 1, 1, "test")
    return ScoreTable(((utt, claimed),), tuple(scores),
                      np.array([list(scores.values())], dtype=np.float64), None)


def oracle_llr(scores, key):
    """The oracle_emotion ratio of a row whose utterance portrays key."""
    table = hand_table(scores, emotion=key)
    return decide_trials(table, "oracle_emotion", TrialConfig(), 0.0)[0].llr


def reference_llr(scores, key):
    """The ratio by its definition: the keyed score minus the others' mean."""
    return scores[key] - float(np.mean([s for k, s in scores.items() if k != key]))


class TestLlrArithmetic:
    def test_true_score_at_imposter_mean_is_zero(self):
        assert oracle_llr({"a": -4.0, "b": -5.0, "c": -3.0}, "a") == 0.0

    def test_five_background_example(self):
        scores = {"n": -2.0, "a": -3.0, "s": -4.0, "h": -5.0, "d": -3.0, "f": -5.0}
        assert oracle_llr(scores, "n") == 2.0

    def test_two_emotions_reduce_to_difference(self):
        assert oracle_llr({"a": -1.25, "b": -4.75}, "a") == -1.25 - (-4.75)

    def test_constant_shift_cancels(self):
        rng = np.random.default_rng(5)
        scores = {f"e{i}": float(v) for i, v in enumerate(rng.normal(size=6))}
        base = oracle_llr(scores, "e2")
        shifted = {e: s + 17.5 for e, s in scores.items()}
        assert oracle_llr(shifted, "e2") == pytest.approx(base, abs=1e-12)

    def test_unknown_emotion_rejected(self):
        with pytest.raises(ValueError, match="no score for 'z'"):
            oracle_llr({"a": 0.0, "b": 1.0}, "z")

    def test_single_emotion_has_no_background(self):
        # No table has one column: every model set holds at least two models.
        with pytest.raises(ValueError, match="at least 2 emotions"):
            SpeakerEmotionModelSet(("a",), {("s1", "a"): toy_plain(0.0)})
        with pytest.raises(ValueError, match="at least 2 models"):
            ModelSet({"a": toy_plain(0.0)})

    def test_llr_composes_model_scores(self, corpus, enrolled, oracle_records):
        # A plain set decides at weight 0: each trial's ratio is built from
        # the claimed speaker's per-emotion acoustic scores alone.
        _, features = corpus
        for r in oracle_records[:5]:
            obs = features[r.utterance.id]
            scores = {e: avg_frame_ll(enrolled.models[r.claimed_speaker, e].acoustic, obs.acoustic)
                      for e in enrolled.emotion_set}
            assert r.llr == reference_llr(scores, r.e_star)

    def test_pooled_llr(self):
        scores = {"s1": -2.0, "s2": -4.0, "s3": -6.0}
        one_stage = decide_trials(hand_table(scores), "one_stage", TrialConfig(), 0.0)
        assert one_stage[0].llr == -2.0 - (-5.0) and one_stage[0].e_star == ""
        with pytest.raises(ValueError, match="no score for 's9'"):
            decide_trials(hand_table(scores, claimed="s9"), "one_stage", TrialConfig(), 0.0)


class TestDecide:
    def test_boundary_accepts(self):
        assert decide(0.3, 0.3) == "accept"

    def test_just_below_rejects(self):
        assert decide(0.3 - 1e-12, 0.3) == "reject"

    def test_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam1, lam2, theta = rng.normal(size=3)
            low, high = min(lam1, lam2), max(lam1, lam2)
            if decide(low, theta) == "accept":
                assert decide(high, theta) == "accept"

    def test_infinite_inputs_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                decide(bad, 0.0)
            with pytest.raises(ValueError, match="finite"):
                decide(0.0, bad)


class TestAdaptThreshold:
    def test_single_score(self):
        assert adapt_threshold(0.0, [2.5], 4) == 2.5

    def test_mean_of_history(self):
        assert adapt_threshold(0.0, [1.0, 2.0, 3.0], 3) == 2.0
        assert adapt_threshold(0.0, [1.0, 2.0, 3.0], 10) == 2.0

    def test_empty_history_keeps_initial(self):
        assert adapt_threshold(-1.5, [], 4) == -1.5

    def test_window_slices_most_recent(self):
        rng = np.random.default_rng(9)
        history = list(rng.normal(size=10))
        got = adapt_threshold(0.0, history, 4)
        assert got == float(np.mean(history[-4:]))

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            adapt_threshold(0.0, [1.0], 0)


class TestTrialPlan:
    def plan_manifest(self):
        return grid_manifest(n_speakers=3, emotion_set=("a", "b"), n_groups=2,
                             n_reps=2, train_groups=(1,), n_claimants=2)

    def test_targets_and_imposter_claims(self):
        manifest = self.plan_manifest()
        plan = trial_plan(manifest, ["s1", "s2"], TrialConfig(seed=0))
        targets = [(u, c) for u, c in plan if u.speaker_id == c]
        nontargets = [(u, c) for u, c in plan if u.speaker_id != c]
        # 8 claimant-owned test utterances, 12 test utterances in all.
        assert len(targets) == 8
        assert len(nontargets) == 12
        for utt, claimed in nontargets:
            assert claimed in {"s1", "s2"} and claimed != utt.speaker_id
        for utt, _ in plan:
            assert utt.split == "test"

    def test_no_imposter_claims_when_disabled(self):
        manifest = self.plan_manifest()
        plan = trial_plan(manifest, ["s1", "s2"],
                          TrialConfig(seed=0, imposters_per_utterance=0))
        assert all(u.speaker_id == c for u, c in plan)
        assert len(plan) == 8

    def test_imposter_count_caps_at_candidates(self):
        manifest = self.plan_manifest()
        plan = trial_plan(manifest, ["s1", "s2"],
                          TrialConfig(seed=0, imposters_per_utterance=5))
        for utt in manifest.subset(split="test"):
            claims = [c for u, c in plan if u.id == utt.id and c != u.speaker_id]
            expected = 1 if utt.speaker_id in {"s1", "s2"} else 2
            assert len(claims) == expected
            assert len(set(claims)) == len(claims)

    def test_seed_changes_imposter_assignment(self):
        manifest = grid_manifest(n_speakers=4, emotion_set=("a", "b"), n_groups=2,
                                 n_reps=2, train_groups=(1,))
        speakers = list(manifest.claimants)
        plan_a = trial_plan(manifest, speakers, TrialConfig(seed=0))
        plan_b = trial_plan(manifest, speakers, TrialConfig(seed=1))
        assert plan_a == trial_plan(manifest, speakers, TrialConfig(seed=0))
        assert plan_a != plan_b


class TestRunTrials:
    def test_empty_test_set(self):
        manifest = tiny_manifest([("s1", "a", "train"), ("s1", "b", "train"),
                                  ("s2", "a", "train"), ("s2", "b", "train")])
        models = SpeakerEmotionModelSet(
            ("a", "b"), {(s, e): toy_plain(0.0) for s in ("s1", "s2") for e in ("a", "b")}
        )
        assert run_trials(models, None, manifest, {}, mode="oracle_emotion") == []

    def test_non_finite_score_names_the_trial(self):
        # A tiny stored variance far from every frame scores -inf; the run
        # stops on the first trial that meets it instead of dropping it.
        manifest = tiny_manifest([("s1", "a", "train"), ("s1", "b", "train"),
                                  ("s2", "a", "train"), ("s2", "b", "train"),
                                  ("s2", "a", "test"), ("s1", "a", "test")])
        models = {(s, e): toy_plain(0.0) for s in ("s1", "s2") for e in ("a", "b")}
        em = GmmEmission(np.array([1.0]), np.full((1, 2), 1e10), np.full((1, 2), 1e-300))
        models["s1", "b"] = SphmmModel(HmmModel(np.array([[1.0]]), (em,)), None, alpha=0.0)
        model_set = SpeakerEmotionModelSet(("a", "b"), models)
        features = {u.id: toy_obs(np.random.default_rng(i))
                    for i, u in enumerate(manifest.utterances)}
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^utterance u4 claimed as s1: score and threshold must both be finite$"
        ):
            run_trials(model_set, None, manifest, features, mode="oracle_emotion")

    def test_mode_validation(self, corpus, enrolled, pooled, emotion_models):
        manifest, features = corpus
        with pytest.raises(ValueError, match="unknown mode"):
            run_trials(enrolled, None, manifest, features, mode="zero_stage")
        for not_pooled in (enrolled, emotion_models):  # the stage-a set is keyed by emotion
            with pytest.raises(ValueError, match="needs a ModelSet keyed by manifest speakers"):
                run_trials(not_pooled, None, manifest, features, mode="one_stage")
        with pytest.raises(ValueError, match="needs a SpeakerEmotionModelSet"):
            run_trials(pooled, None, manifest, features, mode="oracle_emotion")
        with pytest.raises(ValueError, match="stage-a emotion models"):
            run_trials(enrolled, None, manifest, features, mode="two_stage")

    def test_oracle_records_shape(self, corpus, oracle_records):
        manifest, _ = corpus
        test_utts = manifest.subset(split="test")
        assert len(oracle_records) == 2 * len(test_utts)
        for r in oracle_records:
            assert r.mode == "oracle_emotion"
            assert r.e_star == r.utterance.emotion
            assert r.true_speaker == r.utterance.speaker_id
            assert r.theta == 0.0
            assert (r.truth == "target") == (r.claimed_speaker == r.true_speaker)
            assert (r.decision == "accept") == (r.llr >= r.theta)

    def test_target_scores_dominate(self, oracle_records):
        # The separation property behind the whole detector: genuine claims
        # outscore false ones.
        targets = [r.llr for r in oracle_records if r.truth == "target"]
        nontargets = [r.llr for r in oracle_records if r.truth == "nontarget"]
        assert len(targets) >= 500 and len(nontargets) >= 500
        assert np.median(targets) > np.median(nontargets)

    def test_reruns_and_workers_are_identical(self, corpus, enrolled, oracle_records):
        manifest, features = corpus
        again = run_trials(enrolled, None, manifest, features, mode="oracle_emotion",
                           cfg=TrialConfig(seed=3))
        parallel = run_trials(enrolled, None, manifest, features, mode="oracle_emotion",
                              cfg=TrialConfig(seed=3, workers=2))
        assert again == oracle_records
        assert parallel == oracle_records

    def test_two_stage_uses_identified_emotion(self, corpus, enrolled, emotion_models):
        manifest, features = corpus
        records = run_trials(enrolled, emotion_models, manifest, features,
                             mode="two_stage", cfg=TrialConfig(seed=3))
        seen = set()
        for r in records:
            if r.utterance.id in seen:
                continue
            seen.add(r.utterance.id)
            best, _ = identify_emotion(emotion_models, features[r.utterance.id])
            assert r.e_star == best
            if len(seen) == 10:
                break

    def test_worst_case_forces_wrong_emotion(self, corpus, enrolled, oracle_records):
        manifest, features = corpus
        records = run_trials(enrolled, None, manifest, features, mode="worst_case",
                             cfg=TrialConfig(seed=3))
        by_utt = {}
        for r in records:
            assert r.e_star != r.utterance.emotion
            assert by_utt.setdefault(r.utterance.id, r.e_star) == r.e_star
        # Uniform draw over the other labels reaches both of them.
        wrong_for_calm = {e for u, e in by_utt.items() if u.split("_")[1] == "calm"}
        assert wrong_for_calm == {"angry", "sad"}
        # Feeding the verifier a wrong emotion depresses genuine claims.
        worst_targets = np.median([r.llr for r in records if r.truth == "target"])
        oracle_targets = np.median([r.llr for r in oracle_records if r.truth == "target"])
        assert worst_targets < oracle_targets

    def test_one_stage_scores(self, corpus, pooled):
        manifest, features = corpus
        records = run_trials(pooled, None, manifest, features, mode="one_stage",
                             cfg=TrialConfig(seed=3))
        assert all(r.e_star == "" and r.mode == "one_stage" for r in records)
        for r in records[:5]:
            obs = features[r.utterance.id]
            scores = {s: avg_frame_ll(pooled.models[s].acoustic, obs.acoustic)
                      for s in pooled.labels}
            assert r.llr == reference_llr(scores, r.claimed_speaker)

    def test_threshold_adaptation_replays(self, corpus, enrolled):
        manifest, features = corpus
        cfg = TrialConfig(seed=3, adapt_window=4, theta=-1.0)
        records = run_trials(enrolled, None, manifest, features,
                             mode="oracle_emotion", cfg=cfg)
        lams = [r.llr for r in records]
        for k, r in enumerate(records):
            want = -1.0 if k == 0 else float(np.mean(lams[max(0, k - 4):k]))
            assert r.theta == want
            assert r.decision == ("accept" if r.llr >= want else "reject")

    def test_record_invariants_enforced(self, corpus):
        utt = UtteranceRef("u0", "synthetic", "s1", "a", 1, 1, "test")
        with pytest.raises(ValueError, match="decision"):
            TrialRecord(utt, "s1", "s1", "a", "oracle_emotion", 1.0, 2.0,
                        "accept", "target")
        with pytest.raises(ValueError, match="truth"):
            TrialRecord(utt, "s2", "s1", "a", "oracle_emotion", 1.0, 0.0,
                        "accept", "target")
        with pytest.raises(ValueError, match="unknown mode"):
            TrialRecord(utt, "s1", "s1", "a", "three_stage", 1.0, 0.0,
                        "accept", "target")


def toy_table(models=None):
    """A model set (by default a plain two-speaker one) scored over two test
    utterances, and the config."""
    manifest = tiny_manifest([("s1", "a", "train"), ("s1", "b", "train"),
                              ("s2", "a", "train"), ("s2", "b", "train"),
                              ("s2", "a", "test"), ("s1", "b", "test")])
    models = models or SpeakerEmotionModelSet(
        ("a", "b"), {(s, e): toy_plain(0.0) for s in ("s1", "s2") for e in ("a", "b")})
    features = {u.id: toy_obs(np.random.default_rng(i)) for i, u in enumerate(manifest.utterances)}
    cfg = TrialConfig()
    plan = trial_plan(manifest, ("s1", "s2"), cfg)
    return score_trials(plan, models, features, cfg), cfg


class TestDecideTrials:
    def test_two_stage_without_stage_a_scores_is_undecidable(self):
        table, cfg = toy_table()
        stage_a, _ = toy_table(ModelSet({e: toy_plain(0.0) for e in ("a", "b")}))
        assert len(decide_trials(table, "oracle_emotion", cfg, 0.0)) == 4
        assert len(decide_trials(table, "two_stage", cfg, 0.0, stage_a, 0.0)) == 4
        for missing in ((None, 0.0), (stage_a, None)):
            with pytest.raises(ValueError, match="two_stage mode needs stage-a scores"):
                decide_trials(table, "two_stage", cfg, 0.0, *missing)

    def test_weight_above_zero_on_a_plain_set_is_undecidable(self):
        table, cfg = toy_table()
        for alpha in (0.1, 0.5, 1.0):
            with pytest.raises(ValueError, match="needs a prosodic stream"):
                decide_trials(table, "oracle_emotion", cfg, alpha)


# Few test utterances: each grid weight is decided from one table and by a fresh run.
SWEEP_SPEC = dataclasses.replace(TRIALS_SPEC, n_speakers=3, n_reps=3)


def at_alpha(models, alpha):
    return {key: dataclasses.replace(m, alpha=alpha) for key, m in models.items()}


class TestScoreOnceDecideMany:
    @pytest.fixture(scope="class")
    def fused_sets(self):
        manifest, features, _ = make_corpus(SWEEP_SPEC)
        shape = dict(n_states=1, n_mixtures=2, cfg=FAST)
        return (manifest, features,
                enroll(manifest, features, fused=True, **shape),
                enroll_pooled(manifest, features, fused=True, **shape),
                train_emotion_models(manifest, features, **shape))

    def test_one_table_decides_every_grid_weight(self, fused_sets):
        # Scored once, from the sets at weight 0 so that no scoring weight
        # can shape the table.  Each grid weight then decides bit for bit
        # what a fresh run makes with every model's alpha set to it; stage
        # a runs the grid backwards so the two stages' weights differ.
        manifest, features, enrolled, pooled, emotion_models = fused_sets
        cfg = TrialConfig(seed=3, adapt_window=2)
        plan = trial_plan(manifest, enrolled.speakers, cfg)
        table = score_trials(
            plan, SpeakerEmotionModelSet(manifest.emotion_set, at_alpha(enrolled.models, 0.0)),
            features, cfg)
        stage_a = score_trials(plan, ModelSet(at_alpha(emotion_models.models, 0.0)), features, cfg)
        pooled_table = score_trials(plan, ModelSet(at_alpha(pooled.models, 0.0)), features, cfg)
        for alpha, a_alpha in zip(ALPHA_GRID, ALPHA_GRID[::-1]):
            speakers = SpeakerEmotionModelSet(manifest.emotion_set, at_alpha(enrolled.models, alpha))
            emotions = ModelSet(at_alpha(emotion_models.models, a_alpha))
            records = decide_trials(table, "two_stage", cfg, alpha, stage_a, a_alpha)
            assert records == run_trials(speakers, emotions, manifest, features, "two_stage", cfg)
            assert [r.e_star for r in records] == [
                identify_emotion(emotions, features[u.id])[0] for u, _ in plan]
            one_stage = ModelSet(at_alpha(pooled.models, alpha))
            assert decide_trials(pooled_table, "one_stage", cfg, alpha) == run_trials(
                one_stage, None, manifest, features, "one_stage", cfg), alpha

    def test_table_rows_do_not_depend_on_the_plan_around_them(self, fused_sets):
        # each plan row scored alone equals its row in the whole plan's
        # table, and each cell is its model's reference chain bit for bit
        manifest, features, enrolled, pooled, emotion_models = fused_sets
        cfg = TrialConfig(seed=3)
        plan = trial_plan(manifest, enrolled.speakers, cfg)
        for models in (enrolled, pooled, emotion_models):
            table = score_trials(plan, models, features, cfg)
            for p, (utt, claimed) in enumerate(plan):
                keys = ([(claimed, e) for e in table.labels]
                        if isinstance(models, SpeakerEmotionModelSet) else table.labels)
                alone = [reference_stream_scores(models.models[key], features[utt.id])
                         for key in keys]
                one = score_trials(plan[p:p + 1], models, features, cfg)
                streams = ((table.acoustic, one.acoustic), (table.prosodic, one.prosodic))
                for s, (whole, single) in enumerate(streams):
                    want = np.array([pair[s] for pair in alone]).tobytes()
                    assert whole[p].tobytes() == single[0].tobytes() == want

    def test_identify_emotion_is_its_stage_a_row(self, fused_sets):
        # identify_emotion's score dict is its utterance's stage-a table row
        # fused at the set's weight, bit for bit, and its label that row's argmax
        manifest, features, enrolled, _, emotion_models = fused_sets
        cfg = TrialConfig(seed=3)
        plan = trial_plan(manifest, enrolled.speakers, cfg)
        for alpha in (0.0, 0.3, 1.0):
            emotions = ModelSet(at_alpha(emotion_models.models, alpha))
            table = score_trials(plan, emotions, features, cfg)
            fused = sphmm.fuse_scores(alpha, table.acoustic, table.prosodic)
            for p, (utt, _) in enumerate(plan):
                best, scores = identify_emotion(emotions, features[utt.id])
                assert tuple(scores) == table.labels
                assert np.array(list(scores.values())).tobytes() == fused[p].tobytes()
                assert best == table.labels[int(np.argmax(fused[p]))]

    def test_stage_a_table_scores_every_emotion_once(self, fused_sets, monkeypatch):
        manifest, features, enrolled, _, emotion_models = fused_sets
        calls = []  # one entry per (model, utterance, stream) a bank call scores
        real = hmm.HmmBank.log_forward_batch
        monkeypatch.setattr(hmm.HmmBank, "log_forward_batch",
                            lambda bank, obs, rows: calls.extend(
                                k for r in rows for k in r) or real(bank, obs, rows))
        cfg = TrialConfig(seed=3)
        plan = trial_plan(manifest, enrolled.speakers, cfg)
        table = score_trials(plan, emotion_models, features, cfg)
        assert table.plan == plan and table.labels == manifest.emotion_set
        shape = (len(plan), len(manifest.emotion_set))
        assert table.acoustic.shape == table.prosodic.shape == shape
        # both streams of every stage-a model, once per test utterance; an
        # utterance's plan rows (its target and imposter claims) repeat one row
        utt_ids = {u.id for u, _ in plan}
        assert len(calls) == 2 * len(emotion_models.models) * len(utt_ids)
        first = {}
        for p, (utt, _) in enumerate(plan):
            row = first.setdefault(utt.id, p)
            for stream in (table.acoustic, table.prosodic):
                assert stream[p].tobytes() == stream[row].tobytes()


@pytest.fixture(scope="module")
def three_state(corpus):
    """Fused 3-state enrollment: every stream scores through the padded recursion."""
    manifest, features = corpus
    return enroll(manifest, features, n_states=3, n_mixtures=2, cfg=FAST, fused=True)


class TestChunkedScoring:
    def test_chunk_size_and_workers_move_no_bit(self, corpus, three_state, emotion_models,
                                                monkeypatch):
        # Utterances of 12-20 frames, scored in chunks of one, five, all of
        # them and the default, serially and over two processes: every table
        # has the same bytes, and each cell is its model's reference chain.
        # The 1-state stage-a set takes the running-sum path.
        manifest, features = corpus
        cfg = TrialConfig(seed=3)
        keep = {u.id for u in manifest.subset(split="test")[::18]}
        plan = tuple(row for row in trial_plan(manifest, three_state.speakers, cfg)
                     if row[0].id in keep)
        calls = []
        real = sphmm.ModelBank.stream_scores_batch
        monkeypatch.setattr(sphmm.ModelBank, "stream_scores_batch",
                            lambda bank, obs, rows: calls.append(len(obs)) or real(bank, obs, rows))
        for models in (three_state, emotion_models):
            tables = []
            for chunk in (1, 5, len(keep), stage_b.SCORE_CHUNK):
                monkeypatch.setattr(stage_b, "SCORE_CHUNK", chunk)
                calls.clear()
                tables.append(score_trials(plan, models, features, cfg))
                assert calls == [min(chunk, len(keep) - i) for i in range(0, len(keep), chunk)]
                tables.append(score_trials(plan, models, features,
                                           dataclasses.replace(cfg, workers=2)))
            for table in tables[1:]:
                assert table.acoustic.tobytes() == tables[0].acoustic.tobytes()
                assert table.prosodic.tobytes() == tables[0].prosodic.tobytes()
            for p, (utt, claimed) in enumerate(plan):
                keys = ([(claimed, e) for e in tables[0].labels]
                        if isinstance(models, SpeakerEmotionModelSet) else tables[0].labels)
                alone = [reference_stream_scores(models.models[key], features[utt.id])
                         for key in keys]
                for s, stream in enumerate((tables[0].acoustic, tables[0].prosodic)):
                    assert stream[p].tobytes() == np.array([pair[s] for pair in alone]).tobytes()

    def test_pair_frame_budget_cuts_chunks(self, corpus, three_state, monkeypatch):
        # A chunk closes before its (utterance, model) pairs times its
        # longest stream would pass hmm.PAIR_FRAMES, and a lone utterance
        # past it is a chunk of its own; no budget moves a bit.
        manifest, features = corpus
        cfg = TrialConfig(seed=3)
        keep = {u.id for u in manifest.subset(split="test")[::9]}
        plan = tuple(row for row in trial_plan(manifest, three_state.speakers, cfg)
                     if row[0].id in keep)
        calls = []
        real = sphmm.ModelBank.stream_scores_batch
        monkeypatch.setattr(sphmm.ModelBank, "stream_scores_batch",
                            lambda bank, obs, rows: calls.append(
                                [(max(len(o.acoustic), len(o.prosodic)), len(r))
                                 for o, r in zip(obs, rows)]) or real(bank, obs, rows))
        reference = score_trials(plan, three_state, features, cfg)
        assert len(calls) == 1
        sizes = []
        for budget in (1, 300, 1000, 4000):
            monkeypatch.setattr(hmm, "PAIR_FRAMES", budget)
            calls.clear()
            table = score_trials(plan, three_state, features, cfg)
            for chunk, after in zip(calls, calls[1:] + [None]):
                frames, pairs = max(f for f, _ in chunk), sum(r for _, r in chunk)
                assert len(chunk) == 1 or frames * pairs <= budget
                if after:
                    assert max(frames, after[0][0]) * (pairs + after[0][1]) > budget
            sizes.append([len(chunk) for chunk in calls])
            workers = score_trials(plan, three_state, features,
                                   dataclasses.replace(cfg, workers=2))
            for t in (table, workers):
                assert t.acoustic.tobytes() == reference.acoustic.tobytes()
                assert t.prosodic.tobytes() == reference.prosodic.tobytes()
        assert sizes[0] == [1] * len(keep)
        assert all(sum(s) == len(keep) for s in sizes)
        assert [len(s) for s in sizes] == sorted({len(s) for s in sizes}, reverse=True)


def scalar_decide(table, mode, cfg, alpha, stage_a, emotion_alpha):
    """The per-trial path the array pass replaced: each row's scores fused
    one at a time, e* by max() over the fused stage-a row, and the ratio by
    reference_llr.  Returns (e*, repr(llr)) per row, or the error message
    for the first row whose ratio is not finite."""
    def fused(t, p, weight):
        rows = zip(t.labels, t.acoustic[p].tolist(), t.prosodic[p].tolist())
        return {label: sphmm.fuse_scores(weight, a, pr) for label, a, pr in rows}

    out = []
    for p, (utt, claimed) in enumerate(table.plan):
        if mode == "one_stage":
            e_star, key = "", claimed
        elif mode == "oracle_emotion":
            e_star = key = utt.emotion
        elif mode == "worst_case":
            e_star = key = _wrong_emotion(table.labels, utt, cfg.seed)
        else:
            scores = fused(stage_a, p, emotion_alpha)
            e_star = key = max(scores, key=lambda e: scores[e])
        with np.errstate(over="ignore", invalid="ignore"):
            lam = reference_llr(fused(table, p, alpha), key)
        if not math.isfinite(lam):
            return (f"utterance {utt.id} claimed as {claimed}: "
                    "score and threshold must both be finite")
        out.append((e_star, repr(lam)))
    return out


class TestArrayPassMatchesScalarReference:
    def test_every_mode_and_weight_bit_for_bit(self):
        rng = np.random.default_rng(61)
        covered = {"tie": 0, "non_finite": 0, "empty": 0}

        def random_table(plan, labels, p, k):
            scale = 10.0 ** rng.uniform(-1, 2)
            acoustic, prosodic = rng.normal(-20.0, scale, size=(2, p, k))
            if rng.random() < 0.3:  # integer scores tie often
                acoustic, prosodic = np.round(acoustic), np.round(prosodic)
            return ScoreTable(plan, labels, acoustic, prosodic)

        for case in range(80):
            k, p = int(rng.integers(2, 14)), int(rng.integers(0, 30))
            emotions = tuple(f"e{i}" for i in range(k))
            speakers = tuple(f"s{i}" for i in range(k))
            plan = tuple(
                (UtteranceRef(f"u{i}", "synthetic", str(rng.choice(speakers)),
                              str(rng.choice(emotions)), 1, i + 1, "test"),
                 str(rng.choice(speakers)))
                for i in range(p))
            tables = {"emotion": random_table(plan, emotions, p, k),
                      "speaker": random_table(plan, speakers, p, k)}
            stage_a = random_table(plan, emotions, p, k)
            for row in range(p):
                if rng.random() < 0.3:  # two columns tie at the top of both streams
                    cols = rng.choice(k, size=2, replace=False)
                    for stream in (stage_a.acoustic, stage_a.prosodic):
                        stream[row, cols] = stream[row].max() + 1.0
                elif rng.random() < 0.1:  # every column ties
                    stage_a.acoustic[row], stage_a.prosodic[row] = rng.normal(size=2)
            if p and case % 5 == 0:
                for table in tables.values():
                    stream = (table.acoustic, table.prosodic)[int(rng.integers(2))]
                    stream[int(rng.integers(p)), int(rng.integers(k))] = (-np.inf, np.nan)[case % 2]
            cfg = TrialConfig(seed=case)
            for mode in MODES:
                table = tables["speaker" if mode == "one_stage" else "emotion"]
                for alpha, a_alpha in zip(ALPHA_GRID, ALPHA_GRID[::-1]):
                    want = scalar_decide(table, mode, cfg, alpha, stage_a, a_alpha)
                    if isinstance(want, str):
                        covered["non_finite"] += 1
                        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                            decide_trials(table, mode, cfg, alpha, stage_a, a_alpha)
                        continue
                    got = decide_trials(table, mode, cfg, alpha, stage_a, a_alpha)
                    assert all(type(r.llr) is float for r in got)
                    assert [(r.e_star, repr(r.llr)) for r in got] == want, (case, mode, alpha)
            fused_a = stage_a.acoustic + stage_a.prosodic
            at_top = fused_a == fused_a.max(axis=1, keepdims=True)
            covered["tie"] += int(np.sum(at_top.sum(axis=1) > 1))
            covered["empty"] += p == 0
        assert min(covered.values()) > 0, covered


class TestWriteTrials:
    def test_csv_layout_and_roundtrip(self, tmp_path, oracle_records):
        path = tmp_path / "trials.csv"
        write_trials(oracle_records[:20], path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRIAL_CSV_HEADER
        assert lines[0] == "utterance,claimed,true,e_star,mode,lambda,theta,decision,truth"
        assert len(lines) == 21
        first = lines[1].split(",")
        r = oracle_records[0]
        assert first[0] == r.utterance.id
        assert first[1] == r.claimed_speaker and first[2] == r.true_speaker
        assert first[3] == r.e_star and first[4] == r.mode
        assert float(first[5]) == r.llr and float(first[6]) == r.theta
        assert first[7] == r.decision and first[8] == r.truth

    def test_byte_identical_rewrites(self, tmp_path, oracle_records):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials(oracle_records, a)
        write_trials(oracle_records, b)
        assert a.read_bytes() == b.read_bytes()


def test_modes_tuple():
    assert MODES == ("two_stage", "oracle_emotion", "worst_case", "one_stage")
