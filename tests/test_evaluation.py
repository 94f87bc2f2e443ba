"""Threshold-sweep metrics, t-test arithmetic, and experiment drivers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from corpus_util import make_corpus, reference_eer, reference_far_frr_curve
from emoverify.evaluation import (
    ALPHA_GRID,
    CRITICAL_T,
    KINDS,
    EvalReport,
    ExperimentConfig,
    ScoreSet,
    StatSummary,
    TTestResult,
    eer,
    far_frr_curve,
    pooled_sd,
    run_experiment,
    scores_by_emotion,
    stat_summary,
    t_statistic,
    write_report,
)
from emoverify.frontend import ObservationPair
from emoverify.hmm import TrainConfig
from emoverify.manifest import CorpusManifest, UtteranceRef
from emoverify.stage_a import ConfusionMatrix, train_emotion_models
from emoverify import evaluation, hmm, sphmm, stage_b
from emoverify.stage_b import TrialConfig, TrialRecord, enroll, run_trials, trial_plan
from emoverify.synthetic import SyntheticSpec

# Six-emotion EER vectors with hand-checked population statistics.
KNOWN_SAMPLES = (
    ((1.5, 10.5, 8.0, 8.5, 9.5, 8.5), 7.75, 2.91),
    ((2.0, 12.0, 7.5, 9.0, 10.5, 8.0), 8.17, 3.14),
    ((6.0, 18.5, 13.5, 15.5, 16.5, 18.5), 14.75, 4.28),
    ((6.0, 18.0, 13.5, 15.5, 16.5, 18.0), 14.58, 4.14),
    ((8.0, 20.5, 15.5, 15.0, 16.5, 18.0), 15.58, 3.85),
    ((7.0, 18.5, 14.5, 14.0, 15.5, 17.5), 14.50, 3.71),
)

# (first summary, second summary, |t|, larger side); all significant at 1.645.
KNOWN_TTESTS = (
    ((7.75, 2.91), (14.75, 4.28), 1.913, "second"),
    ((8.17, 3.14), (14.58, 4.14), 1.745, "second"),
    ((15.58, 3.85), (7.75, 2.91), 2.294, "first"),
    ((14.50, 3.71), (8.17, 3.14), 1.842, "first"),
)

# Small but separable corpus: shared floor component plus one extra
# training mixture, so verification scores order sensibly.
SPEC = SyntheticSpec(
    n_speakers=3,
    emotion_set=("calm", "angry", "sad"),
    n_groups=2,
    n_reps=6,
    train_groups=(1,),
    n_states=1,
    n_mixtures=1,
    acoustic_dim=4,
    prosodic_dim=2,
    block_size=5,
    length_range=(12, 18),
    separability=2.5,
    acoustic_speaker_scale=1.0,
    floor_weight=0.25,
    seed=29,
)

CFG = ExperimentConfig(
    n_states=1,
    n_mixtures=2,
    alpha=0.5,
    seed=11,
    train=TrainConfig(max_iterations=3),
)


@pytest.fixture(scope="module")
def corpus():
    manifest, features, _ = make_corpus(SPEC)
    return manifest, features


@pytest.fixture(scope="module")
def two_stage_report(corpus):
    manifest, features = corpus
    return run_experiment("two_stage", manifest, features, CFG)


@pytest.fixture(scope="module")
def one_stage_report(corpus):
    manifest, features = corpus
    return run_experiment("one_stage", manifest, features, CFG)


@pytest.fixture(scope="module")
def worst_report(corpus):
    manifest, features = corpus
    return run_experiment("worst_case", manifest, features, CFG)


@pytest.fixture(scope="module")
def oracle_report(corpus):
    manifest, features = corpus
    return run_experiment("oracle_emotion", manifest, features, CFG)


@pytest.fixture(scope="module")
def sweep_report(corpus):
    manifest, features = corpus
    return run_experiment("alpha_sweep", manifest, features, CFG)


def random_scoreset(rng):
    t = rng.normal(0.0, 1.0, int(rng.integers(1, 120)))
    n = rng.normal(-0.5, 1.2, int(rng.integers(1, 120)))
    if rng.random() < 0.5:  # heavy ties exercise the smaller-theta rule
        t, n = np.round(t * 2) / 2, np.round(n * 2) / 2
    return ScoreSet("x", tuple(float(v) for v in t), tuple(float(v) for v in n))


def brute_force_eer(scores):
    """Independent sweep: count both error rates at every distinct score."""
    target = np.asarray(scores.target)
    nontarget = np.asarray(scores.nontarget)
    best = None
    for theta in np.unique(np.concatenate([target, nontarget])):
        far = np.count_nonzero(nontarget >= theta) / nontarget.size
        frr = np.count_nonzero(target < theta) / target.size
        key = (abs(far - frr), theta)
        if best is None or key < best[0]:
            best = (key, (50.0 * (far + frr), float(theta)))
    return best[1]


class TestFarFrrCurve:
    def test_sentinel_rows(self):
        curve = far_frr_curve(ScoreSet("x", (0.5, 1.5), (-1.0, 0.0)))
        assert curve[0] == (-math.inf, 1.0, 0.0)
        assert curve[-1] == (math.inf, 0.0, 1.0)

    def test_separated_classes_meet_at_zero(self):
        curve = far_frr_curve(ScoreSet("x", (3.0, 4.0), (1.0, 2.0)))
        by_theta = {row[0]: row for row in curve}
        assert by_theta[3.0] == (3.0, 0.0, 0.0)

    def test_matches_counting_at_every_threshold(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            s = random_scoreset(rng)
            t, n = np.asarray(s.target), np.asarray(s.nontarget)
            for theta, fa, fr in far_frr_curve(s):
                assert fa == np.count_nonzero(n >= theta) / n.size
                assert fr == np.count_nonzero(t < theta) / t.size

    def test_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            rows = np.array(far_frr_curve(random_scoreset(rng)))
            assert np.all(np.diff(rows[:, 1]) <= 0)
            assert np.all(np.diff(rows[:, 2]) >= 0)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="empty class"):
            far_frr_curve(ScoreSet("calm", (1.0,), ()))

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreSet("x", (math.inf,), (0.0,))


class TestEer:
    def test_disjoint_classes(self):
        value, theta = eer(ScoreSet("x", (3.0, 4.0), (1.0, 2.0)))
        assert value == 0.0
        assert theta == 3.0

    def test_identical_multisets(self):
        value, _ = eer(ScoreSet("x", (1.0, 2.0), (1.0, 2.0)))
        assert value == 50.0

    def test_interleaved_against_brute_force(self):
        s = ScoreSet("x", (1.0, 3.0, 5.0, 7.0), (2.0, 4.0, 6.0, 8.0))
        assert eer(s) == brute_force_eer(s)
        assert eer(s) == (50.0, 5.0)

    def test_tie_takes_smaller_threshold(self):
        # thetas 5 and 10 both give |FAR - FRR| = 0.5; 5 must win
        value, theta = eer(ScoreSet("x", (0.0, 10.0), (5.0,)))
        assert (value, theta) == (75.0, 5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            s = random_scoreset(rng)
            assert eer(s) == brute_force_eer(s)


class TestOneCurveRule:
    """far_frr_curve, eer and run_experiment's EERs all read one array curve
    (far_frr_arrays); its first argmin is the row-list curve's lexicographic
    (|FAR - FRR|, threshold) choice, kept in corpus_util."""

    @staticmethod
    def score_sets(rng, count):
        """Random sets: one-score classes, heavy ties and repeats across
        classes, signed zeros, and plain normal draws."""
        for trial in range(count):
            sizes = rng.integers(1, (2, 6, 40)[trial % 3], size=2)
            t, n = rng.normal(0.0, 1.0, sizes[0]), rng.normal(-0.3, 1.2, sizes[1])
            if trial % 2:  # few distinct values: ties within and across classes
                t, n = np.round(t * 2) / 2, np.round(n * 2) / 2
            if trial % 4 == 1:  # zeros of both signs
                t[rng.random(t.size) < 0.4] = -0.0
                n[rng.random(n.size) < 0.4] = 0.0
            yield ScoreSet("x", tuple(t.tolist()), tuple(n.tolist()))

    def test_array_eer_is_the_lexicographic_choice(self):
        zeros = 0
        for s in self.score_sets(np.random.default_rng(43), 600):
            want = reference_eer(s)
            arrays = evaluation.far_frr_arrays(np.asarray(s.target), np.asarray(s.nontarget), "x")
            for got in (eer(s), evaluation._eer_point(*arrays)):
                assert all(type(x) is float for x in got)
                assert repr(got) == repr(want), (s, got, want)
            assert repr(far_frr_curve(s)) == repr(reference_far_frr_curve(s))
            zeros += want[1] == 0.0
        assert zeros  # some sets meet at a signed-zero threshold


class TestStatSummary:
    @pytest.mark.parametrize("values,mean,sd", KNOWN_SAMPLES)
    def test_known_samples(self, values, mean, sd):
        summary = stat_summary(values)
        np.testing.assert_allclose(summary.mean, mean, atol=0.005)
        np.testing.assert_allclose(summary.sd, sd, atol=0.005)
        assert summary.n == 6

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(59)
        values = list(rng.normal(5.0, 3.0, 37))
        summary = stat_summary(values)
        mean = math.fsum(values) / len(values)
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
        np.testing.assert_allclose(summary.mean, mean, rtol=1e-12)
        np.testing.assert_allclose(summary.sd, sd, rtol=1e-12)

    def test_constant_sample(self):
        assert stat_summary([4.2, 4.2, 4.2]).sd == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stat_summary([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^sample values must be finite$"):
            stat_summary([1.0, bad, 3.0])

    def test_summary_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            StatSummary(1.0, -0.1, 3)
        with pytest.raises(ValueError, match=">= 1"):
            StatSummary(1.0, 0.1, 0)


class TestPooledSd:
    def test_zero(self):
        assert pooled_sd(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("s", [0.3, 1.7, 42.0])
    def test_equal_inputs(self, s):
        np.testing.assert_allclose(pooled_sd(s, s), s, rtol=1e-15)

    def test_known_value(self):
        np.testing.assert_allclose(pooled_sd(2.91, 4.28), 3.6597, atol=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            pooled_sd(-1.0, 2.0)


class TestTTest:
    @pytest.mark.parametrize("first,second,t,larger", KNOWN_TTESTS)
    def test_known_comparisons(self, first, second, t, larger):
        result = t_statistic(StatSummary(*first, 6), StatSummary(*second, 6))
        np.testing.assert_allclose(result.t, t, atol=1e-3)
        assert result.larger == larger
        assert result.significant

    def test_swap_preserves_magnitude(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            a = StatSummary(float(rng.normal()), float(rng.random() + 0.1), 6)
            b = StatSummary(float(rng.normal()), float(rng.random() + 0.1), 6)
            ab, ba = t_statistic(a, b), t_statistic(b, a)
            assert ab.t == ba.t
            assert ab.significant == ba.significant
            flipped = {"first": "second", "second": "first", "equal": "equal"}
            assert ba.larger == flipped[ab.larger]

    def test_significance_boundary_is_strict(self):
        at = t_statistic(StatSummary(0.0, 1.0, 6), StatSummary(CRITICAL_T, 1.0, 6))
        assert at.t == CRITICAL_T and not at.significant
        above = t_statistic(StatSummary(0.0, 1.0, 6), StatSummary(CRITICAL_T + 0.01, 1.0, 6))
        assert above.significant

    def test_equal_means(self):
        result = t_statistic(StatSummary(3.0, 1.0, 4), StatSummary(3.0, 2.0, 4))
        assert result == TTestResult(0.0, False, "equal")

    def test_zero_spread_unequal_means(self):
        result = t_statistic(StatSummary(1.0, 0.0, 4), StatSummary(2.0, 0.0, 4))
        assert result.t == math.inf
        assert result.significant and result.larger == "second"

    def test_unequal_n_rejected(self):
        with pytest.raises(ValueError, match="equal size"):
            t_statistic(StatSummary(1.0, 1.0, 4), StatSummary(2.0, 1.0, 5))

    def test_result_validation(self):
        with pytest.raises(ValueError, match="direction"):
            TTestResult(1.0, False, "both")
        with pytest.raises(ValueError, match="magnitude"):
            TTestResult(-1.0, False, "first")


def record(utt_id, emotion, claimed, true, llr_value):
    utt = UtteranceRef(utt_id, "synthetic", true, emotion, 1, 1, "test")
    return TrialRecord(
        utterance=utt, claimed_speaker=claimed, true_speaker=true,
        e_star=emotion, mode="oracle_emotion", llr=llr_value, theta=0.0,
        decision="accept" if llr_value >= 0.0 else "reject",
        truth="target" if claimed == true else "nontarget",
    )


class TestScoresByEmotion:
    def test_grouping(self):
        records = [
            record("u1", "calm", "s1", "s1", 2.0),
            record("u2", "calm", "s2", "s1", -1.0),
            record("u3", "sad", "s1", "s1", 3.0),
            record("u4", "sad", "s2", "s1", -4.0),
            record("u5", "sad", "s3", "s1", -5.0),
        ]
        sets = scores_by_emotion(records, ("calm", "sad"))
        assert sets["calm"] == ScoreSet("calm", (2.0,), (-1.0,))
        assert sets["sad"] == ScoreSet("sad", (3.0,), (-4.0, -5.0))

    def test_undeclared_emotion_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            scores_by_emotion([record("u1", "calm", "s1", "s1", 2.0)], ("sad",))


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(alpha=1.5)
        with pytest.raises(ValueError, match="positive"):
            ExperimentConfig(n_states=0)
        with pytest.raises(ValueError, match="finite"):
            TrialConfig(theta=math.inf)  # the threshold is a trial setting only
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=-1)

    def test_experiment_needs_nontarget_trials(self):
        # Every EER needs nontarget trials, so an experiment rejects zero
        # imposter claims up front; a bare trial run still accepts them.
        with pytest.raises(ValueError, match="imposters_per_utterance must be >= 1"):
            ExperimentConfig(imposters_per_utterance=0)
        assert TrialConfig(imposters_per_utterance=0).imposters_per_utterance == 0

    def test_seed_overrides_training_seed(self):
        cfg = ExperimentConfig(seed=9, train=TrainConfig(max_iterations=5, seed=2))
        assert cfg.train_config.seed == 9
        assert cfg.train_config.max_iterations == 5
        assert cfg.trial_config.seed == 9

    def test_echo_says_every_sweep_enrolls_fused_models(self):
        # one rule decides whether stage b is fused, for the run and its echo
        for cfg in (ExperimentConfig(), ExperimentConfig(stage_b_fused=True)):
            want = [cfg.stage_b_fused or kind == "alpha_sweep" for kind in KINDS]
            assert [cfg.fused_for(kind) for kind in KINDS] == want
            assert [cfg.echo(kind)["stage_b_fused"] for kind in KINDS] == want

    def test_echo_omits_workers(self):
        echoed = ExperimentConfig(workers=3).echo("two_stage")
        assert "workers" not in echoed
        assert echoed["kind"] == "two_stage"
        assert echoed["seed"] == 0


class TestRunExperiment:
    def test_unknown_kind(self, corpus):
        manifest, features = corpus
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment("three_stage", manifest, features, CFG)

    def test_two_stage_report_shape(self, two_stage_report, corpus):
        manifest, _ = corpus
        report = two_stage_report
        assert report.kind == "two_stage"
        assert report.emotions == SPEC.emotion_set
        assert set(report.eer_by_emotion) == set(SPEC.emotion_set)
        assert all(0.0 <= v <= 100.0 for v in report.eer_by_emotion.values())
        assert report.comparisons == {} and report.ttests == {}
        assert report.alpha_rows == ()
        for curve in report.det_by_emotion.values():
            assert curve[0] == (-math.inf, 1.0, 0.0)
            assert curve[-1] == (math.inf, 0.0, 1.0)
        assert isinstance(report.confusion, ConfusionMatrix)
        assert int(report.confusion.counts.sum()) == len(manifest.subset(split="test"))
        assert report.config["seed"] == 11
        assert "workers" not in report.config

    def test_one_stage_carries_two_stage_reference(self, one_stage_report, two_stage_report):
        assert set(one_stage_report.comparisons) == {"two_stage"}
        assert one_stage_report.comparisons["two_stage"] == two_stage_report.eer_by_emotion
        result = one_stage_report.ttests["two_stage"]
        assert result.t >= 0.0 and result.larger in ("first", "second", "equal")
        assert one_stage_report.confusion is None

    def test_hmm_only_carries_fused_reference(self, corpus, two_stage_report):
        manifest, features = corpus
        report = run_experiment("hmm_only_stage_a", manifest, features, CFG)
        assert set(report.comparisons) == {"two_stage"}
        assert report.comparisons["two_stage"] == two_stage_report.eer_by_emotion
        assert isinstance(report.confusion, ConfusionMatrix)

    def test_worst_case_tabulates_both_baselines(self, worst_report, two_stage_report, one_stage_report):
        assert set(worst_report.comparisons) == {"two_stage", "one_stage"}
        assert worst_report.comparisons["two_stage"] == two_stage_report.eer_by_emotion
        assert worst_report.comparisons["one_stage"] == one_stage_report.eer_by_emotion
        assert set(worst_report.ttests) == {"two_stage", "one_stage"}

    def test_oracle_is_bare_and_no_harder_than_worst(self, oracle_report, worst_report):
        assert oracle_report.comparisons == {} and oracle_report.confusion is None
        assert oracle_report.average_eer <= worst_report.average_eer

    def test_alpha_sweep_rows(self, sweep_report):
        assert tuple(a for a, _ in sweep_report.alpha_rows) == ALPHA_GRID
        assert all(0.0 <= v <= 100.0 for _, v in sweep_report.alpha_rows)
        by_alpha = dict(sweep_report.alpha_rows)
        assert by_alpha[0.5] == sweep_report.average_eer
        assert isinstance(sweep_report.confusion, ConfusionMatrix)
        assert sweep_report.config["stage_b_fused"] is True

    def test_alpha_sweep_scores_each_pair_once(self, corpus, monkeypatch):
        # Forward evaluations: the (model, utterance, stream) scorings each
        # bank call performs; training never calls the bank.  Fresh mappings
        # keep the module fixtures' memoized scores out of the count.
        manifest, features = corpus
        calls = []
        real = hmm.HmmBank.log_forward_batch
        monkeypatch.setattr(hmm.HmmBank, "log_forward_batch",
                            lambda bank, obs, rows: calls.extend(
                                k for r in rows for k in r) or real(bank, obs, rows))
        run_experiment("alpha_sweep", manifest, dict(features), CFG)
        sweep = len(calls)
        calls.clear()
        run_experiment("two_stage", manifest, dict(features), replace(CFG, stage_b_fused=True))
        assert sweep == len(calls)
        # both streams of every stage-a model per test utterance, and of
        # the claimed speaker's emotion models per claim
        n_claims = len(trial_plan(manifest, manifest.claimants, CFG.trial_config))
        n_test = len(manifest.subset(split="test"))
        assert sweep == 2 * len(manifest.emotion_set) * (n_test + n_claims)

    def test_average_invariant_enforced(self):
        with pytest.raises(ValueError, match="average"):
            EvalReport(
                kind="two_stage", emotions=("a", "b"),
                eer_by_emotion={"a": 10.0, "b": 20.0}, average_eer=16.0,
                det_by_emotion={"a": (), "b": ()}, confusion=None,
                comparisons={}, ttests={}, alpha_rows=(), config={},
            )


class TestDecisionPath:
    """run_experiment decides as arrays; trial records are only run_trials'."""

    @pytest.fixture(scope="class")
    def plain_sets(self, corpus):
        manifest, features = corpus
        shape = dict(n_states=1, n_mixtures=1, cfg=TrainConfig(max_iterations=2))
        return enroll(manifest, features, **shape), train_emotion_models(manifest, features, **shape)

    @staticmethod
    def count_records(monkeypatch):
        built = []
        real = TrialRecord.__post_init__
        monkeypatch.setattr(TrialRecord, "__post_init__", lambda r: built.append(r) or real(r))
        return built

    def test_no_kind_builds_a_trial_record(self, corpus, plain_sets, monkeypatch):
        manifest, features = corpus
        built = self.count_records(monkeypatch)
        for kind in KINDS:
            run_experiment(kind, manifest, dict(features), CFG)
        assert built == []
        records = run_trials(*plain_sets, manifest, features, "two_stage")
        assert built == records and records  # the counter sees every record built

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_both_paths_name_the_same_trial(self, corpus, plain_sets, monkeypatch, bad):
        # one claim's stage-b score is poisoned wherever a claimant table is scored
        manifest, features = corpus
        plan = trial_plan(manifest, manifest.claimants, CFG.trial_config)
        assert plan == trial_plan(manifest, plain_sets[0].speakers, TrialConfig(seed=CFG.seed))
        utt, claimed = plan[len(plan) // 2]
        real = stage_b.score_trials

        def poisoned(plan, models, features, cfg):
            table = real(plan, models, features, cfg)
            if isinstance(models, stage_b.SpeakerEmotionModelSet):
                table.acoustic[plan.index((utt, claimed)), 0] = bad
            return table

        monkeypatch.setattr(stage_b, "score_trials", poisoned)
        monkeypatch.setattr(evaluation, "score_trials", poisoned)
        message = f"^utterance {utt.id} claimed as {claimed}: score and threshold must both be finite$"
        with pytest.raises(ValueError, match=message):
            run_experiment("two_stage", manifest, dict(features), CFG)
        with pytest.raises(ValueError, match=message):
            run_trials(*plain_sets, manifest, features, "two_stage", TrialConfig(seed=CFG.seed))


def report_bytes(report, directory):
    return {p.name: p.read_bytes() for p in write_report(report, directory)}


def count_training(monkeypatch):
    """Record each init_model call as its job: config and training arrays.
    Training inits every (group, stream) once, then trains a set's streams
    together, so each init is one model trained."""
    jobs = []
    for module in (sphmm, stage_b):
        real = module.init_model

        def counted(utterances, n_states, n_mixtures, cfg=None, real=real):
            jobs.append((cfg, tuple((u.shape, u.tobytes()) for u in utterances)))
            return real(utterances, n_states, n_mixtures, cfg)

        monkeypatch.setattr(module, "init_model", counted)
    return jobs


class TestExperimentMemo:
    """Kinds on one features mapping and config share trained sets and scores."""

    def test_shared_runs_match_fresh_runs_byte_for_byte(self, corpus, tmp_path):
        manifest, features = corpus
        fresh = {kind: report_bytes(run_experiment(kind, manifest, dict(features), CFG),
                                    tmp_path / "fresh" / kind) for kind in KINDS}
        for order in (KINDS, KINDS[::-1]):
            shared = dict(features)
            for kind in order:
                report = run_experiment(kind, manifest, shared, CFG)
                assert report_bytes(report, tmp_path / "shared" / kind) == fresh[kind], kind

    def test_stage_a_scores_are_shared_at_every_weight(self, corpus, tmp_path):
        # The stage-a table holds both streams of every model, so the one
        # two_stage fills at alpha 1 also decides hmm_only_stage_a, which
        # identifies at stage-a weight 0.
        manifest, features = corpus
        cfg = replace(CFG, alpha=1.0)
        fresh = run_experiment("hmm_only_stage_a", manifest, dict(features), cfg)
        shared = dict(features)
        run_experiment("two_stage", manifest, shared, cfg)
        report = run_experiment("hmm_only_stage_a", manifest, shared, cfg)
        assert report_bytes(report, tmp_path / "shared") == report_bytes(fresh, tmp_path / "fresh")

    def test_paper_table_trains_each_job_once(self, corpus, monkeypatch):
        manifest, features = corpus
        jobs = count_training(monkeypatch)
        table = ("two_stage", "hmm_only_stage_a", "oracle_emotion", "worst_case")
        for kind in table:
            run_experiment(kind, manifest, dict(features), CFG)
        distinct = set(jobs)
        assert len(jobs) > len(distinct)
        jobs.clear()
        shared = dict(features)
        for kind in table:
            run_experiment(kind, manifest, shared, CFG)
        assert len(jobs) == len(distinct) and set(jobs) == distinct

    @pytest.mark.parametrize("change", ["in_place", "seed", "workers", "manifest", "mapping"])
    def test_any_change_retrains(self, corpus, monkeypatch, change):
        manifest, features = corpus
        mapping = {k: ObservationPair(o.acoustic.copy(), o.prosodic.copy())
                   for k, o in features.items()}
        run_experiment("oracle_emotion", manifest, mapping, CFG)
        jobs = count_training(monkeypatch)
        run_experiment("oracle_emotion", manifest, mapping, CFG)
        assert jobs == []
        cfg = CFG
        if change == "in_place":
            mapping[manifest.utterances[0].id].acoustic[0, 0] += 1.0
        elif change == "seed":
            cfg = replace(CFG, seed=CFG.seed + 1)
        elif change == "workers":
            cfg = replace(CFG, workers=1)
        elif change == "manifest":  # same streams, one test utterance moved to train
            moved = manifest.subset(split="test")[0]
            utterances = tuple(replace(u, split="train") if u == moved else u
                               for u in manifest.utterances)
            manifest = CorpusManifest(manifest.emotion_set, utterances, dict(manifest.roles))
        else:
            mapping = dict(mapping)
        run_experiment("oracle_emotion", manifest, mapping, cfg)
        assert len(jobs) == len(manifest.claimants) * len(manifest.emotion_set)

    def test_wrapped_trainers_keep_their_own_sets(self, corpus, worst_report, monkeypatch):
        # Wrappers that share one __name__, as a call tracer installs them:
        # the memo keys the emotion-conditioned and pooled sets apart anyway.
        manifest, features = corpus

        def wrap(real):
            def traced(*args, **kwargs):
                return real(*args, **kwargs)
            return traced

        monkeypatch.setattr(evaluation, "enroll", wrap(evaluation.enroll))
        monkeypatch.setattr(evaluation, "enroll_pooled", wrap(evaluation.enroll_pooled))
        assert evaluation.enroll.__name__ == evaluation.enroll_pooled.__name__
        assert run_experiment("worst_case", manifest, dict(features), CFG) == worst_report


class TestWriteReport:
    def test_files_and_round_trip(self, sweep_report, tmp_path):
        written = write_report(sweep_report, tmp_path / "report")
        names = {p.name for p in written}
        assert {"summary.txt", "eer.csv", "alpha_sweep.csv", "confusion.csv"} <= names
        assert {f"det_{e}.csv" for e in SPEC.emotion_set} <= names

        eer_lines = (tmp_path / "report" / "eer.csv").read_text().splitlines()
        assert eer_lines[0] == "emotion,eer"
        parsed = dict(line.split(",") for line in eer_lines[1:])
        assert float(parsed["average"]) == sweep_report.average_eer
        for emotion in SPEC.emotion_set:
            assert float(parsed[emotion]) == sweep_report.eer_by_emotion[emotion]

        det = (tmp_path / "report" / "det_calm.csv").read_text().splitlines()
        assert det[0] == "theta,far,frr"
        assert det[1].startswith("-inf,1.0,")

        sweep = (tmp_path / "report" / "alpha_sweep.csv").read_text().splitlines()
        assert len(sweep) == 12 and sweep[0] == "alpha,average_eer"

        summary = (tmp_path / "report" / "summary.txt").read_text().splitlines()
        assert "seed = 11" in summary
        assert not any(line.startswith("workers") for line in summary)

    def test_ttest_table_written(self, worst_report, tmp_path):
        write_report(worst_report, tmp_path)
        lines = (tmp_path / "ttests.csv").read_text().splitlines()
        assert lines[0] == "comparison,t,significant,larger"
        assert {line.split(",")[0] for line in lines[1:]} == {"two_stage", "one_stage"}

    def test_rewrite_is_byte_identical(self, two_stage_report, tmp_path):
        first = write_report(two_stage_report, tmp_path / "a")
        second = write_report(two_stage_report, tmp_path / "b")
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()

    def test_worker_count_never_changes_bytes(self, corpus, two_stage_report, tmp_path):
        manifest, features = corpus
        parallel = run_experiment("two_stage", manifest, features, replace(CFG, workers=2))
        serial_paths = write_report(two_stage_report, tmp_path / "serial")
        parallel_paths = write_report(parallel, tmp_path / "parallel")
        assert [p.name for p in serial_paths] == [p.name for p in parallel_paths]
        for ps, pp in zip(serial_paths, parallel_paths):
            assert ps.read_bytes() == pp.read_bytes()


def test_kind_and_grid_constants():
    assert KINDS == ("two_stage", "one_stage", "hmm_only_stage_a",
                     "worst_case", "oracle_emotion", "alpha_sweep")
    assert ALPHA_GRID[0] == 0.0 and ALPHA_GRID[-1] == 1.0 and len(ALPHA_GRID) == 11
