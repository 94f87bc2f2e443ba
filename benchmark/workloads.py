"""The four workloads: inputs built in set-up, then rounds of operations.

A workload's set-up builds its inputs from the workload seed alone.  A
round is a list of operations; each operation pairs the timed call into
the program with the check of its output, which runs untimed.  Rounds that
train or plan draw their seed from the workload seed and the round index,
so nothing kept between rounds can stand in for a round's work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from emoverify import cli, evaluation, featureio, frontend
from emoverify.evaluation import ExperimentConfig
from emoverify.hmm import TrainConfig, load_hmm
from emoverify.manifest import save_manifest
from emoverify.sphmm import load_sphmm
from emoverify.synthetic import (
    SyntheticSpec, base_manifest, generate_synthetic, generator_models, synthesize_utterance)

import audio
import checks

# The acceptance corpus's shape (six emotions, 4-dim acoustic and 3-dim
# prosodic streams, its separability and stream scales), with two speakers
# and one training utterance per (speaker, emotion) cell so one table
# takes seconds, not minutes.  Without the broad shared floor, stage a
# identifies every test utterance on nearly every seed, so the
# oracle_emotion identity is checked in nearly every table.  Utterances
# are 16 frames, the middle of the acceptance corpus's 12-20: with seeded
# lengths the training frames of a table moved by up to 19% between seeds.
TABLE_SPEC = SyntheticSpec(
    n_speakers=2, n_groups=3, n_reps=1, train_groups=(1,), n_states=1, n_mixtures=1,
    acoustic_dim=4, prosodic_dim=3, block_size=2, length_range=(16, 16), separability=2.5,
    acoustic_emotion_scale=1.0, acoustic_speaker_scale=0.3, prosodic_emotion_scale=8.0,
    prosodic_speaker_scale=1.6,
)
# The acceptance tests' PIPELINE_CFG: single-state models, 2 mixtures, 3 EM iterations.
PIPELINE_CFG = ExperimentConfig(n_states=1, n_mixtures=2, train=TrainConfig(max_iterations=3))
TABLE_KINDS = ("two_stage", "hmm_only_stage_a", "oracle_emotion", "worst_case")

# Four emotions, three training and six test utterances per (speaker,
# emotion) cell.  Emotions live in the prosodic stream only, as the
# suprasegmental models assume, and the prosodic stream also separates
# speakers well past a tight shared floor, so the alpha = 1 row beats the
# chance-level acoustic-only alpha = 0 row by at least 22 points on each of
# 48 corpus seeds tried.  The composite state is off: fit to a few
# per-utterance means, it swamps the prosodic score.
SWEEP_SPEC = replace(TABLE_SPEC, emotion_set=("neutral", "angry", "sad", "happy"), n_reps=3,
                     prosodic_dim=7, acoustic_emotion_scale=0.0, prosodic_speaker_scale=3.0,
                     floor_weight=0.5, floor_scale=4.0)
SWEEP_CFG = replace(PIPELINE_CFG, composite=False)

# Stored four-state models.  Utterances are 60 frames, the middle of the
# synth default range of 40-80, so an operation's work does not depend on
# the seed: with lengths drawn from 40-80 the frames of the 12 test
# utterances moved the round time by up to 12% between seeds.
VERIFY_SPEC = SyntheticSpec(n_speakers=2, n_groups=2, n_reps=1, train_groups=(1,),
                            n_states=4, n_mixtures=1, length_range=(60, 60))
VERIFY_TRAIN = ("--states", "4", "--mixtures", "1", "--max-iterations", "2")
VERIFY_SAMPLE = 2  # trials per round rescored by the independent scorer

INGEST_SEEDED = 22


def op_seed(seed: int, index: int) -> int:
    """A 31-bit seed for round `index` of a run at workload seed `seed`."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class Op:
    """One timed call and the check of its result.

    check returns False when the operation failed through a known fault of
    the program, and raises checks.CheckError when the output is wrong.
    """

    run: Callable[[], object]
    check: Callable[[object], bool]


def n_test_utterances(spec: SyntheticSpec) -> int:
    return (spec.n_speakers * len(spec.emotion_set)
            * (spec.n_groups - len(spec.train_groups)) * spec.n_reps)


class _InMemoryCorpus:
    """Set-up shared by the experiment workloads: a corpus held in memory."""

    spec: SyntheticSpec

    def setup(self, workdir: Path, seed: int) -> None:
        self.seed, self.workdir = seed, workdir
        spec = replace(self.spec, seed=seed)
        models = generator_models(spec)
        self.manifest = base_manifest(spec)
        self.features = {u.id: synthesize_utterance(spec, models, u)
                         for u in self.manifest.utterances}


class PaperTable(_InMemoryCorpus):
    """The four experiment kinds of the paper's table, each with its report."""

    spec = TABLE_SPEC

    def __init__(self):
        self.perfect_stage_a = 0

    def check_once(self) -> None:
        pass

    def round(self, index: int) -> list[Op]:
        """One table: an operation per experiment kind, all at one seed.

        The cross-kind identities are checked with the last kind, once
        every report of the table exists.
        """
        cfg = replace(PIPELINE_CFG, seed=op_seed(self.seed, index))
        dirs = {kind: self.workdir / "reports" / kind for kind in TABLE_KINDS}
        reports = {}

        def op(kind):
            def run():
                reports[kind] = evaluation.run_experiment(kind, self.manifest, self.features, cfg)
                evaluation.write_report(reports[kind], dirs[kind])
                return reports

            def check(_) -> bool:
                if kind == TABLE_KINDS[-1]:
                    self.perfect_stage_a += checks.check_paper_table(
                        reports, dirs, n_test_utterances(self.spec))
                return True

            return Op(run, check)

        return [op(kind) for kind in TABLE_KINDS]

    def notes(self) -> str:
        return f"stage a perfect (oracle identity checked) in {self.perfect_stage_a} tables"


class AlphaSweep(_InMemoryCorpus):
    """One alpha_sweep experiment and its report per operation."""

    spec = SWEEP_SPEC

    def check_once(self) -> None:
        cfg = replace(SWEEP_CFG, seed=op_seed(self.seed, 0))
        self.hmm_only_eer = evaluation.run_experiment(
            "hmm_only_stage_a", self.manifest, self.features, cfg).average_eer

    def round(self, index: int) -> list[Op]:
        cfg = replace(SWEEP_CFG, seed=op_seed(self.seed, index))
        report_dir = self.workdir / "sweep"

        def run():
            report = evaluation.run_experiment("alpha_sweep", self.manifest, self.features, cfg)
            evaluation.write_report(report, report_dir)
            return report

        def check(report) -> bool:
            checks.check_alpha_sweep(report, report_dir, cfg.alpha,
                                     self.hmm_only_eer if index == 0 else None)
            return True

        return [Op(run, check)]

    def notes(self) -> str:
        return f"hmm_only identity checked against operation 0 ({self.hmm_only_eer!r})"


class Verify:
    """The `emoverify trials` command over stored features and models."""

    def __init__(self):
        self.rescored = 0

    def _cli(self, *argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"emoverify {argv[0]} exited with {code}")

    def setup(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.manifest = workdir / "manifest.csv"
        self.features = workdir / "features"
        self.models = workdir / "models"
        self.report = workdir / "report"
        self.features.mkdir()
        save_manifest(generate_synthetic(replace(VERIFY_SPEC, seed=seed), self.features),
                      self.manifest)
        data = ("--manifest", self.manifest, "--features-dir", self.features)
        for command in ("train-emotions", "train-speakers"):
            self._cli(command, *data, "--models-dir", self.models, "--seed", seed, *VERIFY_TRAIN)

    def check_once(self) -> None:
        self.rows, self.claimants, self.emotions = checks.read_manifest(self.manifest)
        self.emotion_models = {e: load_sphmm(self.models / f"emotion_{e}.emvs")
                               for e in self.emotions}
        self.speaker_models = {(s, e): load_hmm(self.models / f"speaker_{s}__{e}.emvh")
                               for s in self.claimants for e in self.emotions}

    def round(self, index: int) -> list[Op]:
        seed = op_seed(self.seed, index)

        def run():
            self._cli("trials", "--manifest", self.manifest, "--features-dir", self.features,
                      "--models-dir", self.models, "--report-dir", self.report,
                      "--mode", "two_stage", "--seed", seed, "--workers", 0)

        def check(_) -> bool:
            trials = checks.read_trials(self.report / "trials.csv")
            checks.check_trials(trials, self.rows, self.claimants, imposters=1, theta=0.0)
            rng = np.random.default_rng(seed)
            for i in rng.choice(len(trials), size=VERIFY_SAMPLE, replace=False):
                trial = trials[int(i)]
                obs = featureio.load_features(featureio.features_path(self.features, trial["utterance"]))
                e_star, llr = checks.recompute_trial(
                    trial, self.emotions, self.emotion_models, self.speaker_models, obs)
                checks.check_recomputed(trial, e_star, llr)
                self.rescored += 1
            return True

        return [Op(run, check)]

    def notes(self) -> str:
        return f"{self.rescored} trials rescored by the scaled forward recursion"


class Ingest:
    """WAV file to feature file, one utterance per operation."""

    def setup(self, workdir: Path, seed: int) -> None:
        self.utterances = audio.plan_corpus(seed, INGEST_SEEDED)
        self.wav_dir = workdir / "wav"
        self.out_dir = workdir / "features"
        self.wav_dir.mkdir(parents=True)
        self.out_dir.mkdir()
        for utt in self.utterances:
            audio.write_wav(self.wav_dir / f"{utt.name}.wav", audio.render(utt))

    def check_once(self) -> None:
        pass

    def round(self, index: int) -> list[Op]:
        return [self._op(utt) for utt in self.utterances]

    def _op(self, utt: audio.Utterance) -> Op:
        out = self.out_dir / f"{utt.name}.emvf"

        def run():
            pair = frontend.extract(frontend.load_wav(self.wav_dir / f"{utt.name}.wav"))
            featureio.save_features(pair, out)
            return pair

        def check(pair) -> bool:
            checks.check_features(pair, featureio.load_features(out), utt.n_samples)
            problems = checks.pitch_problems(pair.prosodic, utt.segments)
            if problems and not utt.fault:
                raise checks.CheckError(f"{utt.name}: " + "; ".join(problems[:3]))
            return not problems

        return Op(run, check)

    def notes(self) -> str:
        audio_s = sum(u.n_samples for u in self.utterances) / audio.RATE
        faults = sum(u.fault for u in self.utterances)
        return f"{len(self.utterances)} utterances per round ({faults} fault tones), {audio_s:.1f} s of audio"


WORKLOADS = {"paper_table": PaperTable, "alpha_sweep": AlphaSweep, "verify": Verify, "ingest": Ingest}
