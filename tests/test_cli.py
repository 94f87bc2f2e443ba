"""Command-line subcommands: determinism, exit codes, file outputs."""

import argparse
import io
import os
import re
import shutil
import subprocess
import sys
import wave
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emoverify import cli, featureio
from emoverify.cli import CLI_MODES, main
from emoverify.featureio import FeatureDir
from emoverify.hmm import GmmEmission, HmmModel, TrainConfig, load_hmm, save_hmm, write_hmm
from emoverify.manifest import CorpusManifest, load_manifest, save_manifest
from emoverify.sphmm import ModelSet, load_sphmm, write_sphmm
from emoverify.stage_a import tally
from emoverify.stage_b import TrialConfig, best_labels, enroll, score_trials

# One pipeline workspace shared by the read-only CLI tests below.
SYNTH_ARGS = [
    "--speakers", "3", "--emotions", "calm,angry,sad",
    "--groups", "2", "--reps", "4", "--train-groups", "1",
    "--states", "1", "--mixtures", "1",
    "--separability", "2.5", "--floor-weight", "0.25", "--seed", "5",
]
TRAIN_ARGS = ["--states", "1", "--mixtures", "2", "--max-iterations", "3", "--seed", "5"]


def run_ok(argv):
    assert main(argv) == 0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    manifest = str(root / "manifest.csv")
    features = str(root / "features")
    models = str(root / "models")
    run_ok(["synth", "--manifest", manifest, "--features-dir", features] + SYNTH_ARGS)
    run_ok(["train-emotions", "--manifest", manifest, "--features-dir", features,
            "--models-dir", models] + TRAIN_ARGS)
    run_ok(["train-speakers", "--manifest", manifest, "--features-dir", features,
            "--models-dir", models] + TRAIN_ARGS)
    return {"manifest": manifest, "features": features, "models": models, "root": root}


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            run_ok(["synth", "--manifest", str(tmp_path / f"{name}.csv"),
                    "--features-dir", str(tmp_path / name)] + SYNTH_ARGS)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        a_files = sorted((tmp_path / "a").iterdir())
        b_files = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in a_files] == [p.name for p in b_files]
        assert all(pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a_files, b_files))

    def test_manifest_round_trips(self, workspace):
        manifest = load_manifest(workspace["manifest"])
        assert manifest.emotion_set == ("calm", "angry", "sad")
        assert len(manifest.utterances) == 3 * 3 * 2 * 4
        assert len(manifest.subset(split="train")) == len(manifest.subset(split="test"))

    def test_seed_is_mandatory(self, tmp_path, capsys):
        code = main(["synth", "--manifest", str(tmp_path / "m.csv"),
                     "--features-dir", str(tmp_path / "f")])
        capsys.readouterr()
        assert code == 2


class TestTraining:
    def test_model_files_on_disk(self, workspace):
        models = workspace["root"] / "models"
        assert {p.name for p in models.glob("emotion_*.emvs")} == {
            f"emotion_{e}.emvs" for e in ("calm", "angry", "sad")
        }
        assert len(list(models.glob("speaker_*__*.emvh"))) == 9
        assert len(list(models.glob("pooled_*.emvh"))) == 3

    def test_fused_enrollment_uses_other_suffix(self, workspace, tmp_path):
        fused_dir = str(tmp_path / "fused")
        run_ok(["train-speakers", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--models-dir", fused_dir,
                "--fused"] + TRAIN_ARGS)
        assert len(list((tmp_path / "fused").glob("speaker_*__*.emvs"))) == 9
        assert len(list((tmp_path / "fused").glob("pooled_*.emvs"))) == 3

    @pytest.mark.parametrize("command", ["train-emotions", "train-speakers"])
    @pytest.mark.parametrize("size", ["--states", "--mixtures"])
    def test_zero_model_size_is_domain_error(self, workspace, tmp_path, capsys, command, size):
        code = main([command, "--manifest", workspace["manifest"],
                     "--features-dir", workspace["features"],
                     "--models-dir", str(tmp_path / "models")] + TRAIN_ARGS + [size, "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: model sizes must be positive\n"
        assert list(tmp_path.iterdir()) == []

    def test_stored_models_round_trip_byte_for_byte(self, workspace, tmp_path):
        # In memory every stage-b model is an SphmmModel; on disk a plain one
        # is still the acoustic stream's .emvh and a fused one an .emvs.
        fused_dir = tmp_path / "fused"
        run_ok(["train-speakers", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--models-dir", str(fused_dir),
                "--fused"] + TRAIN_ARGS)
        manifest = load_manifest(workspace["manifest"])
        labels = {"speaker": [(s, e) for s in manifest.claimants for e in manifest.emotion_set],
                  "pooled": manifest.claimants}
        for models_dir, suffix, write in (
            (workspace["root"] / "models", "emvh", lambda fp, m: write_hmm(fp, m.acoustic)),
            (fused_dir, "emvs", write_sphmm),
        ):
            assert len(list(models_dir.glob(f"*_*.{suffix}"))) == 12
            for kind, kind_labels in labels.items():
                for label, model in cli._load_models(models_dir, kind, kind_labels).items():
                    path = models_dir / f"{cli._stem(kind, label)}.{suffix}"
                    buf = io.BytesIO()
                    write(buf, model)
                    assert buf.getvalue() == path.read_bytes(), path.name

        enrolled = enroll(manifest, FeatureDir(workspace["features"]), n_states=1, n_mixtures=2,
                          cfg=TrainConfig(max_iterations=3, seed=5))
        for (speaker, emotion), model in enrolled.models.items():
            buf = io.BytesIO()
            write_hmm(buf, model.acoustic)
            path = workspace["root"] / "models" / f"speaker_{speaker}__{emotion}.emvh"
            assert buf.getvalue() == path.read_bytes(), path.name


class TestLabelsNameFiles:
    def test_speaker_outside_the_models_dir_is_domain_error(self, workspace, tmp_path, capsys):
        # speaker_<s>__<e> with s = x/../../esc would land two levels above the models
        text = Path(workspace["manifest"]).read_text(encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text.replace(",s1,", ",x/../../esc,"), encoding="utf-8")
        code = main(["train-speakers", "--manifest", str(manifest),
                     "--features-dir", workspace["features"],
                     "--models-dir", str(tmp_path / "a" / "models")] + TRAIN_ARGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "speaker id 'x/../../esc' is not a plain file name" in err
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]

    def test_speaker_holding_the_stem_separator_is_domain_error(self, workspace, tmp_path,
                                                                 monkeypatch, capsys):
        # speaker a__b's model for emotion c and speaker a's for b__c would share one file
        monkeypatch.setattr(cli, "enroll", lambda *a, **k: pytest.fail("enrollment ran"))
        text = Path(workspace["manifest"]).read_text(encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text.replace(",s1,", ",s__1,"), encoding="utf-8")
        code = main(["train-speakers", "--manifest", str(manifest),
                     "--features-dir", workspace["features"],
                     "--models-dir", str(tmp_path / "models")] + TRAIN_ARGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "speaker id 's__1' holds '__'" in err
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]


class TestRetraining:
    """Retraining into a models dir replaces each stored model, whatever its kind."""

    ORDERS = {"plain": [[]], "fused": [["--fused"]],
              "fused_then_plain": [["--fused"], []], "plain_then_fused": [[], ["--fused"]]}

    @pytest.fixture(scope="class")
    def dirs(self, workspace, tmp_path_factory):
        root = tmp_path_factory.mktemp("retrain")
        dirs = {}
        for name, runs in self.ORDERS.items():
            models = root / name
            models.mkdir()
            for path in (workspace["root"] / "models").glob("emotion_*.emvs"):
                shutil.copy(path, models)
            for extra in runs:
                run_ok(["train-speakers", "--manifest", workspace["manifest"],
                        "--features-dir", workspace["features"], "--models-dir", str(models)]
                       + TRAIN_ARGS + extra)
            dirs[name] = models
        return dirs

    def trials(self, workspace, models, report):
        return main(["trials", "--manifest", workspace["manifest"],
                     "--features-dir", workspace["features"], "--models-dir", str(models),
                     "--report-dir", str(report), "--seed", "1"])

    @pytest.mark.parametrize("retrained, clean", [("fused_then_plain", "plain"),
                                                  ("plain_then_fused", "fused")])
    def test_retrain_leaves_only_the_new_kind(self, dirs, retrained, clean):
        names = sorted(p.name for p in dirs[retrained].iterdir())
        assert names == sorted(p.name for p in dirs[clean].iterdir())

    def test_trials_after_retrain_match_a_clean_dir(self, workspace, dirs, tmp_path):
        for retrained, clean in (("fused_then_plain", "plain"), ("plain_then_fused", "fused")):
            for name in (retrained, clean):
                assert self.trials(workspace, dirs[name], tmp_path / name) == 0
            want = (tmp_path / clean / "trials.csv").read_bytes()
            assert (tmp_path / retrained / "trials.csv").read_bytes() == want, retrained

    def test_model_stored_twice_is_domain_error(self, workspace, dirs, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(dirs["plain"], models)
        speaker, emotion = load_manifest(workspace["manifest"]).claimants[0], "angry"
        stem = f"speaker_{speaker}__{emotion}"
        shutil.copy(dirs["fused"] / f"{stem}.emvs", models)
        report = tmp_path / "report"
        assert self.trials(workspace, models, report) == 1
        err = capsys.readouterr().err
        assert f"{models / stem}.emvh" in err and f"{models / stem}.emvs" in err
        assert not report.exists()


class TestIdentify:
    def test_confusion_written(self, workspace, tmp_path, capsys):
        run_ok(["identify", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--models-dir", workspace["models"],
                "--report-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "accuracy = " in out
        lines = (tmp_path / "confusion.csv").read_text().splitlines()
        assert lines[1] == "model,calm,angry,sad"

    def test_hmm_only_identifies_at_alpha_zero(self, workspace, tmp_path, capsys):
        run_ok(["identify", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--models-dir", workspace["models"],
                "--report-dir", str(tmp_path), "--mode", "hmm_only"])
        assert "alpha = 0.0\n" in capsys.readouterr().out
        # the stored fused models' table, decided at weight 0: the acoustic scores
        manifest = load_manifest(workspace["manifest"])
        stored = ModelSet({e: load_sphmm(workspace["root"] / "models" / f"emotion_{e}.emvs")
                           for e in manifest.emotion_set})
        assert stored.alpha == 0.5
        test = [(u, u.speaker_id) for u in manifest.subset(split="test")]
        table = score_trials(test, stored, FeatureDir(workspace["features"]), TrialConfig())
        matrix = tally(stored.labels, zip(best_labels(table, 0.0), (u.emotion for u, _ in test)))
        assert (tmp_path / "confusion.csv").read_text() == matrix.to_csv()


@pytest.fixture(scope="module")
def blurred(tmp_path_factory):
    """A corpus whose emotions overlap, with stored emotion models: stage a errs on it."""
    root = tmp_path_factory.mktemp("blurred")
    common = ["--manifest", str(root / "manifest.csv"), "--features-dir", str(root / "features")]
    run_ok(["synth"] + common + [
        "--speakers", "3", "--emotions", "neutral,angry,sad", "--groups", "3", "--reps", "2",
        "--train-groups", "1", "--states", "2", "--separability", "0.3", "--seed", "3"])
    shape = ["--states", "2", "--mixtures", "1", "--max-iterations", "4", "--seed", "5"]
    run_ok(["train-emotions", "--models-dir", str(root / "models")] + common + shape)
    return root, common, shape


class TestIdentifyMatchesEval:
    """identify (a stage-a table over the test split) and eval (a stage-a table
    over the trial plan) identify alike."""

    @pytest.mark.parametrize("mode", ["two_stage", "hmm_only"])
    def test_same_confusion(self, blurred, mode, capsys):
        root, common, shape = blurred
        run_ok(["identify", "--models-dir", str(root / "models"), "--mode", mode,
                "--report-dir", str(root / f"identify_{mode}")] + common)
        assert "accuracy = 100.0\n" not in capsys.readouterr().out  # the matrix is not diagonal
        run_ok(["eval", "--mode", mode, "--report-dir", str(root / f"eval_{mode}")]
               + common + shape)
        identified = (root / f"identify_{mode}" / "confusion.csv").read_bytes()
        assert identified == (root / f"eval_{mode}" / "confusion.csv").read_bytes()


class TestTrials:
    @pytest.mark.parametrize("mode", CLI_MODES)
    def test_every_mode_writes_trials(self, workspace, tmp_path, mode):
        report = tmp_path / mode
        run_ok(["trials", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--models-dir", workspace["models"],
                "--report-dir", str(report), "--mode", mode, "--seed", "3"])
        lines = (report / "trials.csv").read_text().splitlines()
        assert lines[0] == "utterance,claimed,true,e_star,mode,lambda,theta,decision,truth"
        assert len(lines) > 1

    def test_oracle_mode_uses_true_labels(self, workspace, tmp_path):
        report = tmp_path / "oracle"
        run_ok(["trials", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--models-dir", workspace["models"],
                "--report-dir", str(report), "--mode", "oracle", "--seed", "3"])
        for line in (report / "trials.csv").read_text().splitlines()[1:]:
            utterance, _, _, e_star = line.split(",")[:4]
            assert e_star == utterance.split("_")[1]

    def test_worker_pool_keeps_bytes(self, workspace, tmp_path):
        base = ["trials", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--models-dir", workspace["models"],
                "--seed", "3"]
        for workers in ("0", "2"):
            run_ok(base + ["--report-dir", str(tmp_path / workers), "--workers", workers])
        serial = (tmp_path / "0" / "trials.csv").read_bytes()
        assert (tmp_path / "2" / "trials.csv").read_bytes() == serial

    def test_non_finite_score_is_domain_error(self, workspace, tmp_path, capsys):
        # A stored model with a tiny variance far from every frame scores
        # -inf; the run names the trial it met and writes no trials.csv.
        manifest = load_manifest(workspace["manifest"])
        speaker, emotion = manifest.claimants[0], manifest.emotion_set[1]
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        path = models / f"speaker_{speaker}__{emotion}.emvh"
        dim = load_hmm(path).dim
        em = GmmEmission(np.array([1.0]), np.full((1, dim), 1e10), np.full((1, dim), 1e-300))
        save_hmm(HmmModel(np.array([[1.0]]), (em,)), path)
        report = tmp_path / "report"
        with np.errstate(over="ignore"):
            code = main(["trials", "--manifest", workspace["manifest"],
                         "--features-dir", workspace["features"], "--models-dir", str(models),
                         "--report-dir", str(report), "--mode", "oracle", "--seed", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(rf"error: utterance \S+ claimed as {speaker}: "
                            r"score and threshold must both be finite\n", err), err
        assert not (report / "trials.csv").exists()

    @pytest.mark.parametrize("command", ["trials", "eval", "identify"])
    def test_missing_feature_file_is_domain_error(self, workspace, tmp_path, capsys, command):
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        utt = load_manifest(workspace["manifest"]).subset(split="test")[0]
        missing = features / f"{utt.id}.emvf"
        missing.unlink()
        report = tmp_path / "report"
        argv = [command, "--manifest", workspace["manifest"], "--features-dir", str(features),
                "--report-dir", str(report)]
        argv += TRAIN_ARGS if command == "eval" else ["--models-dir", workspace["models"]]
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == f"error: missing feature file {missing}\n"
        assert not report.exists()

    def test_missing_models_is_domain_error(self, workspace, tmp_path, capsys):
        code = main(["trials", "--manifest", workspace["manifest"],
                     "--features-dir", workspace["features"], "--models-dir", str(tmp_path / "none"),
                     "--report-dir", str(tmp_path), "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: missing model file")


    @pytest.mark.parametrize("command", ["identify", "trials"])
    def test_missing_emotion_model_is_domain_error(self, workspace, tmp_path, capsys, command):
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        (models / "emotion_angry.emvs").unlink()
        report = tmp_path / "report"
        code = main([command, "--manifest", workspace["manifest"],
                     "--features-dir", workspace["features"], "--models-dir", str(models),
                     "--report-dir", str(report), "--mode", "two_stage"])
        assert code == 1
        missing = models / "emotion_angry"
        assert capsys.readouterr().err == (
            f"error: missing model file {missing}.emvh (or {missing}.emvs)\n")
        assert not report.exists()


class TestEval:
    def test_oracle_experiment_report(self, workspace, tmp_path, capsys):
        report = tmp_path / "report"
        run_ok(["eval", "--mode", "oracle", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--report-dir", str(report)]
               + TRAIN_ARGS)
        out = capsys.readouterr().out
        assert "average_eer = " in out and "seed = 5" in out
        assert (report / "summary.txt").exists()
        assert (report / "eer.csv").read_text().startswith("emotion,eer\n")

    def test_no_imposters_fails_before_training(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", lambda *a: pytest.fail("experiment ran"))
        code = main(["eval", "--manifest", workspace["manifest"],
                     "--features-dir", workspace["features"], "--report-dir", str(tmp_path),
                     "--imposters-per-utterance", "0"] + TRAIN_ARGS)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: imposters_per_utterance")
        assert captured.out == ""

    def test_two_stage_reads_each_feature_file_once(self, workspace, tmp_path, monkeypatch):
        calls = []
        real = featureio.load_features
        monkeypatch.setattr(featureio, "load_features",
                            lambda path: calls.append(path) or real(path))
        run_ok(["eval", "--mode", "two_stage", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--report-dir", str(tmp_path)]
               + TRAIN_ARGS)
        assert len(calls) == len(set(calls)) == 72

    def test_sweep_alpha_emits_eleven_rows(self, workspace, tmp_path):
        report = tmp_path / "sweep"
        run_ok(["sweep-alpha", "--manifest", workspace["manifest"],
                "--features-dir", workspace["features"], "--report-dir", str(report)]
               + TRAIN_ARGS)
        lines = (report / "alpha_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,average_eer"
        assert len(lines) == 12
        assert [line.split(",")[0] for line in lines[1:]] == [
            "0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1.0"
        ]


def run_in_c_locale(argv):
    """The CLI in a child process whose locale encodes file names as ASCII."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "emoverify.cli", *argv],
                          env=env, capture_output=True, text=True, errors="replace")


class TestLocale:
    """Every input and output is UTF-8 with UTF-8 file names, whatever the locale says."""

    def test_c_locale_reads_a_non_ascii_wav_name(self, tmp_path):
        (tmp_path / "audio").mkdir()
        write_wav(tmp_path / "audio" / "col\u00e8re_a.wav", seed=0)
        write_wav(tmp_path / "audio" / "calm_a.wav", seed=1)
        manifest = wav_manifest(tmp_path, [("u0", "audio/calm_a.wav", "s1", "calm"),
                                           ("u1", "audio/col\u00e8re_a.wav", "s1", "angry")])
        argv = ["features", "--manifest", str(manifest), "--features-dir"]
        run_ok(argv + [str(tmp_path / "utf8")])
        done = run_in_c_locale(argv + [str(tmp_path / "c")])
        assert done.returncode == 0, done.stderr
        want = sorted((tmp_path / "utf8").iterdir())
        got = sorted((tmp_path / "c").iterdir())
        assert [p.name for p in got] == [p.name for p in want] == ["u0.emvf", "u1.emvf"]
        assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]

    def test_c_locale_writes_the_same_bytes(self, tmp_path):
        synth = tmp_path / "synth.csv"
        features = str(tmp_path / "features")
        models = str(tmp_path / "models")
        run_ok(["synth", "--manifest", str(synth), "--features-dir", features] + SYNTH_ARGS)
        ascii_manifest = load_manifest(synth)
        label = {"angry": "col\u00e8re"}  # the ids stay ASCII
        manifest = str(tmp_path / "manifest.csv")
        save_manifest(CorpusManifest(
            tuple(label.get(e, e) for e in ascii_manifest.emotion_set),
            tuple(replace(u, emotion=label.get(u.emotion, u.emotion))
                  for u in ascii_manifest.utterances),
            dict(ascii_manifest.roles),
        ), manifest)
        common = ["--manifest", manifest, "--features-dir", features]
        run_ok(["train-emotions", "--models-dir", models] + common + TRAIN_ARGS)
        run_ok(["train-speakers", "--models-dir", models] + common + TRAIN_ARGS)
        commands = {
            "eval": ["eval"] + common + TRAIN_ARGS,
            "trials": ["trials", "--models-dir", models, "--mode", "oracle"] + common,
            "identify": ["identify", "--models-dir", models] + common,
        }
        for name, argv in commands.items():
            run_ok(argv + ["--report-dir", str(tmp_path / "utf8" / name)])
            done = run_in_c_locale(argv + ["--report-dir", str(tmp_path / "c" / name)])
            assert done.returncode == 0, (name, done.stderr)
            want = sorted((tmp_path / "utf8" / name).iterdir())
            got = sorted((tmp_path / "c" / name).iterdir())
            assert [p.name for p in got] == [p.name for p in want], name
            assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want], name
        assert (tmp_path / "c" / "eval" / "det_col\u00e8re.csv").exists()


class TestTTest:
    def test_known_comparison(self, tmp_path, capsys):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        first.write_text("".join(f"{v}\n" for v in (1.5, 10.5, 8.0, 8.5, 9.5, 8.5)))
        second.write_text("".join(f"{v}\n" for v in (6.0, 18.5, 13.5, 15.5, 16.5, 18.5)))
        run_ok(["ttest", str(first), str(second)])
        out = capsys.readouterr().out
        assert "t = 1.913" in out
        assert "larger = second" in out
        assert "significant at 1.645 = True" in out

    def test_junk_line_is_domain_error(self, tmp_path, capsys):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        first.write_text("1.0\ntwo\n")
        second.write_text("1.0\n2.0\n")
        code = main(["ttest", str(first), str(second)])
        captured = capsys.readouterr()
        assert code == 1
        assert "every line must hold one number" in captured.err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_line_is_domain_error(self, tmp_path, capsys, bad):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        first.write_text(f"1\n{bad}\n3\n")
        second.write_text("1\n2\n3\n")
        code = main(["ttest", str(first), str(second)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: sample values must be finite\n"
        assert not any(line.startswith("t = ") for line in captured.out.splitlines())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["first.txt", "second.txt"]


def write_wav(path, rate=16000, seconds=0.3, seed=0):
    rng = np.random.default_rng(seed)
    samples = (rng.normal(0.0, 0.1, int(rate * seconds)) * 32767).clip(-32768, 32767)
    with wave.open(str(path), "wb") as fp:
        fp.setnchannels(1)
        fp.setsampwidth(2)
        fp.setframerate(rate)
        fp.writeframes(samples.astype("<i2").tobytes())


def wav_manifest(root, rows, rate=16000):
    lines = ["#emotions: calm,angry", f"#audio: {rate},16",
             "id,source,speaker,emotion,sentence_group,repetition,split,role"]
    lines += [f"{uid},{src},{sp},{emo},1,1,train,claimant" for uid, src, sp, emo in rows]
    path = root / "manifest.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestFeatures:
    def test_sources_resolve_relative_to_manifest(self, tmp_path, capsys):
        (tmp_path / "audio").mkdir()
        rows = []
        for i, (sp, emo) in enumerate([("s1", "calm"), ("s1", "angry"),
                                       ("s2", "calm"), ("s2", "angry")]):
            write_wav(tmp_path / "audio" / f"u{i}.wav", seed=i)
            rows.append((f"u{i}", f"audio/u{i}.wav", sp, emo))
        manifest = wav_manifest(tmp_path, rows)
        run_ok(["features", "--manifest", str(manifest),
                "--features-dir", str(tmp_path / "feats")])
        assert "wrote 4 feature files" in capsys.readouterr().out
        pair = FeatureDir(tmp_path / "feats")["u0"]
        assert pair.acoustic.ndim == 2 and pair.prosodic.ndim == 2

    def test_sample_rate_mismatch_is_domain_error(self, tmp_path, capsys):
        write_wav(tmp_path / "slow.wav", rate=8000)
        manifest = wav_manifest(tmp_path, [("u0", "slow.wav", "s1", "calm"),
                                           ("u1", "slow.wav", "s1", "angry")])
        code = main(["features", "--manifest", str(manifest),
                     "--features-dir", str(tmp_path / "feats")])
        captured = capsys.readouterr()
        assert code == 1
        assert "sample rate" in captured.err

    def test_short_clip_names_its_source(self, tmp_path, capsys):
        write_wav(tmp_path / "short.wav", seconds=100 / 16000)
        manifest = wav_manifest(tmp_path, [("u0", "short.wav", "s1", "calm"),
                                           ("u1", "short.wav", "s1", "angry")])
        code = main(["features", "--manifest", str(manifest),
                     "--features-dir", str(tmp_path / "feats")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: short.wav: clip of 100 samples is shorter than one frame (256)\n")

    def test_failing_clip_writes_no_feature_file(self, tmp_path, capsys):
        write_wav(tmp_path / "good.wav", seconds=0.5)
        write_wav(tmp_path / "short.wav", seconds=100 / 16000)
        manifest = wav_manifest(tmp_path, [("u0", "good.wav", "s1", "calm"),
                                           ("u1", "short.wav", "s1", "angry")])
        feats = tmp_path / "feats"
        code = main(["features", "--manifest", str(manifest), "--features-dir", str(feats)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "short.wav" in err
        assert list(feats.glob("*.emvf")) == []

    def test_rate_too_low_to_frame_names_its_source(self, tmp_path, capsys):
        write_wav(tmp_path / "hum.wav", rate=60, seconds=1.0)
        manifest = wav_manifest(tmp_path, [("u0", "hum.wav", "s1", "calm"),
                                           ("u1", "hum.wav", "s1", "angry")], rate=60)
        code = main(["features", "--manifest", str(manifest),
                     "--features-dir", str(tmp_path / "feats")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: hum.wav: sample rate 60 Hz is too low: "
            "16 ms frames with 9 ms overlap advance by 0 samples\n")


    def test_id_outside_the_features_dir_is_domain_error(self, tmp_path, capsys):
        write_wav(tmp_path / "u.wav")
        manifest = wav_manifest(tmp_path, [("../escaped", "u.wav", "s1", "calm"),
                                           ("u1", "u.wav", "s1", "angry")])
        code = main(["features", "--manifest", str(manifest),
                     "--features-dir", str(tmp_path / "feats")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "utterance id '../escaped' is not a plain file name" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.csv", "u.wav"]


def parser_options(subcommand):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {o for a in sub.choices[subcommand]._actions for o in a.option_strings}


EXPERIMENT_OPTIONS = {"-h", "--help", "--manifest", "--features-dir", "--report-dir",
                      "--states", "--mixtures", "--alpha", "--max-iterations",
                      "--imposters-per-utterance", "--workers", "--seed"}


class TestOptionSurface:
    """Every option of the experiment and trial commands, so a new knob shows in review."""

    @pytest.mark.parametrize("subcommand, options", [
        ("eval", EXPERIMENT_OPTIONS | {"--mode", "--fused"}),
        ("sweep-alpha", EXPERIMENT_OPTIONS),
        ("trials", {"-h", "--help", "--manifest", "--features-dir", "--models-dir",
                    "--report-dir", "--mode", "--theta", "--adapt-window",
                    "--imposters-per-utterance", "--workers", "--seed"}),
    ])
    def test_exact_options(self, subcommand, options):
        assert parser_options(subcommand) == options

    # a report's EERs sweep every threshold, and a sweep always enrolls fused models
    @pytest.mark.parametrize("subcommand, flag", [
        ("eval", ["--theta", "1"]), ("eval", ["--adapt-window", "3"]),
        ("sweep-alpha", ["--theta", "1"]), ("sweep-alpha", ["--adapt-window", "3"]),
        ("sweep-alpha", ["--fused"]),
    ])
    def test_setting_that_changes_no_report_is_usage_error(self, workspace, tmp_path, capsys,
                                                           subcommand, flag):
        code = main([subcommand, "--manifest", workspace["manifest"],
                     "--features-dir", workspace["features"],
                     "--report-dir", str(tmp_path / "report")] + TRAIN_ARGS + flag)
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestParserBuiltOnce:
    def test_patched_command_is_reached_by_a_later_call(self, monkeypatch, tmp_path, capsys):
        # main builds its parser once per process; each subcommand looks its
        # _cmd_* up when it runs, so a patch made after the first call counts
        assert main(["ttest", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "error:" in capsys.readouterr().err
        seen = []
        monkeypatch.setattr(cli, "_cmd_ttest", lambda args: seen.append(args.first) or 7)
        assert main(["ttest", "x", "y"]) == 7
        assert seen == ["x"]
        assert cli._parser() is cli._parser()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--bogus", "1"]) == 2
        capsys.readouterr()

    def test_missing_manifest_file(self, tmp_path, capsys):
        code = main(["identify", "--manifest", str(tmp_path / "absent.csv"),
                     "--features-dir", str(tmp_path), "--models-dir", str(tmp_path),
                     "--report-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
