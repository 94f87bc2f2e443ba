"""Golden record: the numbers that define the reproduction, pinned.

On one tiny seeded corpus (3 speakers x 3 emotions, 18 test utterances)
the record holds every experiment kind's write_report files, plus a
fused-stage-b run with two imposter claims per utterance, all on
single-state models, and the two_stage and alpha_sweep reports again on
three-state models.  It also holds the trials.csv of every CLI trial mode
on stored two-state plain models, and of the two_stage and one_stage
modes on fused models with an adaptive threshold and two imposter
claims, so the forward recursion is pinned too, and the identify
command's confusion.csv in both of its modes on the stored plain models.
Three fixed seeded 16 kHz clips (two noisy four-harmonic tones and one
noise-only clip) pin the front end's extract output.  A test rebuilds
each and compares it with the record field by field: labels, decisions, flags and integer counts (confusion
counts included) must match exactly; every float must match to a
relative tolerance of 1e-9, with an absolute floor of 1e-12 for values
at zero.

The record is data, not a second implementation: rewrite it only when a
change is meant to move the numbers, and say by how much.  To rewrite
it, run ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import json
import math
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus_util import make_corpus  # noqa: E402
from emoverify.cli import CLI_MODES, main  # noqa: E402
from emoverify.evaluation import KINDS, ExperimentConfig, run_experiment, write_report  # noqa: E402
from emoverify.frontend import AudioClip, extract  # noqa: E402
from emoverify.hmm import TrainConfig  # noqa: E402
from emoverify.manifest import save_manifest  # noqa: E402
from emoverify.synthetic import SyntheticSpec, generate_synthetic  # noqa: E402

RECORD = Path(__file__).resolve().parent / "golden" / "record.json"

REL_TOL = 1e-9
ABS_TOL = 1e-12

# 3 speakers x 3 emotions; one training and one test sentence group of two
# repetitions, so 18 training and 18 test utterances.
GOLDEN_SPEC = SyntheticSpec(
    n_speakers=3,
    emotion_set=("calm", "angry", "sad"),
    n_groups=2,
    n_reps=2,
    train_groups=(1,),
    n_states=2,
    n_mixtures=1,
    acoustic_dim=3,
    prosodic_dim=2,
    block_size=4,
    length_range=(10, 14),
    separability=2.0,
    floor_weight=0.25,
    seed=21,
)

BASE_CFG = ExperimentConfig(n_states=1, n_mixtures=2, seed=5, train=TrainConfig(max_iterations=3))
FUSED_CFG = replace(BASE_CFG, stage_b_fused=True, imposters_per_utterance=2)

# report case -> (experiment kind, config)
REPORT_CASES = {kind: (kind, BASE_CFG) for kind in KINDS}
REPORT_CASES["worst_case_fused"] = ("worst_case", FUSED_CFG)
# multi-state EM, so the forward/backward recursion of training is pinned too
STATE3_CFG = replace(BASE_CFG, n_states=3)
REPORT_CASES["two_stage_3state"] = ("two_stage", STATE3_CFG)
REPORT_CASES["alpha_sweep_3state"] = ("alpha_sweep", STATE3_CFG)

TRAIN_ARGS = ("--states", "2", "--mixtures", "2", "--max-iterations", "3", "--seed", "5")
FUSED_TRIAL_ARGS = ("--adapt-window", "3", "--imposters-per-utterance", "2")
IDENTIFY_MODES = ("two_stage", "hmm_only")

# clip -> (fundamental in Hz or None for noise only, seed); 0.25 s at 16 kHz
CLIPS = {"tone_150hz": (150.0, 1), "tone_220hz": (220.0, 2), "noise": (None, 3)}
CLIP_RATE = 16000
CLIP_SAMPLES = 4000


def build_reports(root: Path) -> dict[str, dict[str, str]]:
    manifest, features, _ = make_corpus(GOLDEN_SPEC)
    out = {}
    for case, (kind, cfg) in REPORT_CASES.items():
        report = run_experiment(kind, manifest, features, cfg)
        out[case] = {p.name: p.read_text() for p in write_report(report, root / case)}
    return out


def _cli(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def build_trials(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(trials.csv by case, identify confusion.csv by mode) from stored models."""
    manifest = root / "manifest.csv"
    features = root / "features"
    features.mkdir(parents=True)
    save_manifest(generate_synthetic(GOLDEN_SPEC, features), manifest)
    data = ("--manifest", manifest, "--features-dir", features)
    out, identify = {}, {}
    for variant, train_extra, trial_extra, modes in (
        ("plain", (), (), CLI_MODES),
        ("fused", ("--fused",), FUSED_TRIAL_ARGS, ("two_stage", "one_stage")),
    ):
        models = root / f"models_{variant}"
        _cli("train-emotions", *data, "--models-dir", models, *TRAIN_ARGS)
        _cli("train-speakers", *data, "--models-dir", models, *TRAIN_ARGS, *train_extra)
        for mode in modes:
            report = root / f"trials_{variant}_{mode}"
            _cli("trials", *data, "--models-dir", models, "--report-dir", report,
                 "--mode", mode, "--seed", "9", *trial_extra)
            out[f"{variant}_{mode}"] = (report / "trials.csv").read_text()
        if variant == "plain":
            for mode in IDENTIFY_MODES:
                report = root / f"identify_{mode}"
                _cli("identify", *data, "--models-dir", models, "--report-dir", report,
                     "--mode", mode)
                identify[f"{variant}_{mode}"] = (report / "confusion.csv").read_text()
    return out, identify


def _clip(f0, seed) -> AudioClip:
    """A noisy four-harmonic (1, 1/2, 1/3, 1/4) tone at f0, or noise alone."""
    rng = np.random.default_rng(seed)
    t = np.arange(CLIP_SAMPLES) / CLIP_RATE
    x = rng.normal(0.0, 0.02, CLIP_SAMPLES)
    if f0 is not None:
        x += sum(0.3 / k * np.sin(2.0 * np.pi * k * f0 * t) for k in range(1, 5))
    return AudioClip(x, CLIP_RATE)


def _matrix_lines(name: str, matrix: np.ndarray) -> list[str]:
    return [f"# {name} {matrix.shape[0]}x{matrix.shape[1]}"] + [
        ",".join(repr(float(v)) for v in row) for row in matrix
    ]


def build_extract() -> dict[str, str]:
    """Both feature streams of each fixed clip, one CSV row per frame or block."""
    out = {}
    for name, (f0, seed) in CLIPS.items():
        pair = extract(_clip(f0, seed))
        lines = _matrix_lines("acoustic", pair.acoustic) + _matrix_lines("prosodic", pair.prosodic)
        out[name] = "\n".join(lines) + "\n"
    return out


_SEPARATORS = re.compile(r"(,| = |\n)")


def _tokens(text: str) -> list[str]:
    return [t for t in _SEPARATORS.split(text) if t]


def _number(token: str):
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return None


def mismatches(want: str, got: str) -> list[str]:
    """Fields of got that differ from want beyond the stated tolerance."""
    want_t, got_t = _tokens(want), _tokens(got)
    if len(want_t) != len(got_t):
        return [f"{len(got_t)} fields, record has {len(want_t)}"]
    bad = []
    for i, (w, g) in enumerate(zip(want_t, got_t)):
        wn, gn = _number(w), _number(g)
        if isinstance(wn, float) and isinstance(gn, float):
            same = math.isclose(wn, gn, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        else:
            same = w == g
        if not same:
            bad.append(f"field {i}: {g!r}, record has {w!r}")
    return bad


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_compare_exact_labels_and_tolerant_floats():
    assert mismatches("a,1,0.5\n", "a,1,0.5000000000001\n") == []
    assert mismatches("a,1,0.5\n", "a,1,0.5001\n")
    assert mismatches("a,1,0.5\n", "a,2,0.5\n")  # integer counts are exact
    assert mismatches("accept,-inf\n", "reject,-inf\n")
    assert mismatches("x = True\n", "x = True\n") == []


def test_reports_match_record(record, tmp_path):
    built = build_reports(tmp_path)
    assert sorted(built) == sorted(record["reports"])
    for case, files in record["reports"].items():
        assert sorted(built[case]) == sorted(files), case
        for name, text in files.items():
            assert mismatches(text, built[case][name]) == [], f"{case}/{name}"


def _match(want: dict[str, str], got: dict[str, str]) -> None:
    assert sorted(got) == sorted(want)
    for case, text in want.items():
        assert mismatches(text, got[case]) == [], case


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    return build_trials(tmp_path_factory.mktemp("golden_cli"))


def test_trials_match_record(record, cli_outputs):
    _match(record["trials"], cli_outputs[0])


def test_identify_matches_record(record, cli_outputs):
    _match(record["identify"], cli_outputs[1])


def test_extract_matches_record(record):
    _match(record["extract"], build_extract())


def _write(path: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        trials, identify = build_trials(root / "cli")
        record = {"reports": build_reports(root / "reports"), "trials": trials,
                  "identify": identify, "extract": build_extract()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write(RECORD)
    print(f"wrote {RECORD}")
