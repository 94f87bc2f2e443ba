"""Command line wiring the pipeline into reproducible runs.

Subcommands: features (WAV corpus -> feature files), synth (seeded
synthetic corpus), train-emotions, train-speakers, identify, trials,
eval, sweep-alpha, and ttest.  Every run prints a key = value echo of
its effective configuration, seed included, before doing work.  Exit
codes: 0 on success, 1 with a one-line diagnostic on a domain error,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .binio import exists, read_file, remove, write_text
from .errors import EmoverifyError
from .evaluation import (
    CRITICAL_T,
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
    stat_summary,
    t_statistic,
    write_report,
)
from .featureio import FeatureDir, features_path, save_features
from .frontend import extract, load_wav
from .hmm import TrainConfig, load_hmm, save_hmm
from .manifest import load_manifest, save_manifest
from .sphmm import ModelSet, SphmmModel, load_sphmm, save_sphmm
from .stage_a import tally, train_emotion_models
from .stage_b import (
    SpeakerEmotionModelSet,
    TrialConfig,
    best_labels,
    enroll,
    enroll_pooled,
    run_trials,
    score_trials,
    write_trials,
)
from .synthetic import SyntheticSpec, generate_synthetic

# Public mode vocabulary: CLI mode -> experiment kind.  EXPERIMENTS says
# what each kind does: its trial mode and the stage-a weight it runs at.
_MODES = {
    "two_stage": "two_stage",
    "one_stage": "one_stage",
    "hmm_only": "hmm_only_stage_a",
    "worst_case": "worst_case",
    "oracle": "oracle_emotion",
}
CLI_MODES = tuple(_MODES)


def _echo(pairs: dict) -> None:
    for key, value in pairs.items():
        print(f"{key} = {value!r}")


def _stem(kind: str, label) -> str:
    """A stored model's file stem: emotion_<e>, speaker_<s>__<e> or pooled_<s>."""
    return f"{kind}_{'__'.join(label) if isinstance(label, tuple) else label}"


def _save_models(models_dir, kind: str, models: dict) -> None:
    """Store each label's model under its stem: fused in .emvs, plain in .emvh.

    The stem's file of the other kind is removed, so a model left by an
    earlier run never shadows the one stored now.
    """
    for label, model in models.items():
        stem = Path(models_dir) / _stem(kind, label)
        if model.prosodic is None:
            save_hmm(model.acoustic, f"{stem}.emvh")
            remove(f"{stem}.emvs")
        else:
            save_sphmm(model, f"{stem}.emvs")
            remove(f"{stem}.emvh")


def _load_models(models_dir, kind: str, labels, alpha: float | None = None) -> dict:
    """label -> stored model, in the order of labels, set to weight alpha unless it is None."""
    models = {}
    for label in labels:
        stem = Path(models_dir) / _stem(kind, label)
        fused, plain = f"{stem}.emvs", f"{stem}.emvh"
        has_fused, has_plain = exists(fused), exists(plain)
        if has_fused and has_plain:
            raise EmoverifyError(f"model {stem} is stored twice: {plain} and {fused}")
        if has_fused:
            model = load_sphmm(fused)
        elif has_plain:
            model = SphmmModel(load_hmm(plain), None, alpha=0.0)
        else:
            raise EmoverifyError(f"missing model file {plain} (or {fused})")
        models[label] = model if alpha is None else replace(model, alpha=alpha)
    return models


def _train_config(args) -> TrainConfig:
    return TrainConfig(max_iterations=args.max_iterations, seed=args.seed)


def _cmd_features(args) -> int:
    manifest = load_manifest(args.manifest)
    base = Path(args.manifest).resolve().parent
    features_dir = Path(args.features_dir)
    _echo({
        "subcommand": "features",
        "manifest": str(args.manifest),
        "features_dir": str(features_dir),
        "sample_rate": manifest.audio_format.sample_rate,
    })
    # extract every clip before writing any file, so a failing clip leaves
    # no mix of old and new feature files behind
    pairs = {}
    for utt in manifest.utterances:
        clip = load_wav(base / utt.source)
        if clip.sample_rate != manifest.audio_format.sample_rate:
            raise EmoverifyError(
                f"{utt.source}: sample rate {clip.sample_rate} does not match "
                f"the manifest's {manifest.audio_format.sample_rate}"
            )
        try:
            pairs[utt.id] = extract(clip)
        except ValueError as exc:
            raise EmoverifyError(f"{utt.source}: {exc}") from None
    for uid, pair in pairs.items():
        save_features(pair, features_path(features_dir, uid))
    print(f"wrote {len(manifest.utterances)} feature files")
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n_speakers=args.speakers,
        emotion_set=tuple(e.strip() for e in args.emotions.split(",") if e.strip()),
        n_groups=args.groups,
        n_reps=args.reps,
        train_groups=tuple(int(g) for g in args.train_groups.split(",")),
        n_claimants=args.claimants,
        n_states=args.states,
        n_mixtures=args.mixtures,
        separability=args.separability,
        floor_weight=args.floor_weight,
        seed=args.seed,
    )
    _echo({
        "subcommand": "synth",
        "n_speakers": spec.n_speakers,
        "emotion_set": spec.emotion_set,
        "n_groups": spec.n_groups,
        "n_reps": spec.n_reps,
        "train_groups": spec.train_groups,
        "n_claimants": spec.n_claimants,
        "n_states": spec.n_states,
        "n_mixtures": spec.n_mixtures,
        "separability": spec.separability,
        "floor_weight": spec.floor_weight,
        "seed": spec.seed,
    })
    manifest = generate_synthetic(spec, args.features_dir)
    save_manifest(manifest, args.manifest)
    print(f"wrote {len(manifest.utterances)} utterances")
    return 0


def _cmd_train_emotions(args) -> int:
    manifest = load_manifest(args.manifest)
    features = FeatureDir(args.features_dir)
    _echo({
        "subcommand": "train-emotions",
        "n_states": args.states,
        "n_mixtures": args.mixtures,
        "alpha": args.alpha,
        "max_iterations": args.max_iterations,
        "seed": args.seed,
    })
    models = train_emotion_models(
        manifest, features, args.states, args.mixtures,
        alpha=args.alpha, cfg=_train_config(args),
    )
    _save_models(args.models_dir, "emotion", models.models)
    print(f"wrote {len(models.models)} emotion models")
    return 0


def _cmd_train_speakers(args) -> int:
    manifest = load_manifest(args.manifest)
    features = FeatureDir(args.features_dir)
    _echo({
        "subcommand": "train-speakers",
        "n_states": args.states,
        "n_mixtures": args.mixtures,
        "fused": args.fused,
        "alpha": args.alpha,
        "max_iterations": args.max_iterations,
        "seed": args.seed,
    })
    common = (manifest, features, args.states, args.mixtures)
    training = dict(cfg=_train_config(args), fused=args.fused, alpha=args.alpha)
    speaker_models = enroll(*common, **training)
    pooled = enroll_pooled(*common, **training)
    _save_models(args.models_dir, "speaker", speaker_models.models)
    _save_models(args.models_dir, "pooled", pooled.models)
    print(
        f"wrote {len(speaker_models.models)} speaker-emotion models "
        f"and {len(pooled.models)} pooled models"
    )
    return 0


def _cmd_identify(args) -> int:
    manifest = load_manifest(args.manifest)
    features = FeatureDir(args.features_dir)
    stage_a_alpha = EXPERIMENTS[_MODES[args.mode]][1]
    models = ModelSet(_load_models(args.models_dir, "emotion", manifest.emotion_set, stage_a_alpha))
    _echo({"subcommand": "identify", "mode": args.mode, "alpha": models.alpha})
    test = [(u, u.speaker_id) for u in manifest.subset(split="test")]
    identified = best_labels(score_trials(test, models, features, TrialConfig()), models.alpha)
    matrix = tally(models.labels, zip(identified, (u.emotion for u, _ in test)))
    write_text(Path(args.report_dir) / "confusion.csv", matrix.to_csv())
    print(f"accuracy = {matrix.accuracy!r}")
    return 0


def _cmd_trials(args) -> int:
    manifest = load_manifest(args.manifest)
    features = FeatureDir(args.features_dir)
    cfg = TrialConfig(
        theta=args.theta,
        adapt_window=args.adapt_window,
        imposters_per_utterance=args.imposters_per_utterance,
        seed=args.seed,
        workers=args.workers,
    )
    _echo({
        "subcommand": "trials",
        "mode": args.mode,
        "theta": cfg.theta,
        "adapt_window": cfg.adapt_window,
        "imposters_per_utterance": cfg.imposters_per_utterance,
        "seed": cfg.seed,
    })
    trial_mode, stage_a_alpha, _ = EXPERIMENTS[_MODES[args.mode]]
    emotion_models = None
    if trial_mode == "one_stage":
        models = ModelSet(_load_models(args.models_dir, "pooled", manifest.claimants))
    else:
        pairs = [(sp, e) for sp in manifest.claimants for e in manifest.emotion_set]
        models = SpeakerEmotionModelSet(
            manifest.emotion_set, _load_models(args.models_dir, "speaker", pairs))
        if trial_mode == "two_stage":
            emotion_models = ModelSet(
                _load_models(args.models_dir, "emotion", manifest.emotion_set, stage_a_alpha))
    records = run_trials(models, emotion_models, manifest, features, mode=trial_mode, cfg=cfg)
    write_trials(records, Path(args.report_dir) / "trials.csv")
    targets = sum(1 for r in records if r.truth == "target")
    print(f"wrote {len(records)} trials ({targets} target, {len(records) - targets} nontarget)")
    return 0


def _run_and_write(kind: str, args, stage_b_fused: bool) -> int:
    manifest = load_manifest(args.manifest)
    features = FeatureDir(args.features_dir)
    cfg = ExperimentConfig(
        n_states=args.states,
        n_mixtures=args.mixtures,
        alpha=args.alpha,
        stage_b_fused=stage_b_fused,
        imposters_per_utterance=args.imposters_per_utterance,
        seed=args.seed,
        workers=args.workers,
        train=TrainConfig(max_iterations=args.max_iterations),
    )
    _echo(cfg.echo(kind))
    report = run_experiment(kind, manifest, features, cfg)
    written = write_report(report, args.report_dir)
    for alpha, value in report.alpha_rows:
        print(f"alpha {alpha!r}: average_eer = {value!r}")
    print(f"average_eer = {report.average_eer!r}")
    print(f"wrote {len(written)} report files to {args.report_dir}")
    return 0


def _cmd_eval(args) -> int:
    return _run_and_write(_MODES[args.mode], args, stage_b_fused=args.fused)


def _cmd_sweep_alpha(args) -> int:
    # a sweep always enrolls fused stage-b models, so it takes no --fused
    return _run_and_write("alpha_sweep", args, stage_b_fused=False)


def _read_vector(fp) -> list[float]:
    """One number per line of UTF-8 text; blank lines are skipped."""
    try:
        return [float(line) for line in fp.read().decode("utf-8").splitlines() if line.strip()]
    except ValueError:  # UnicodeDecodeError included
        raise EmoverifyError("every line must hold one number") from None


def _cmd_ttest(args) -> int:
    _echo({"subcommand": "ttest", "first": str(args.first), "second": str(args.second)})
    result = t_statistic(stat_summary(read_file(args.first, _read_vector)),
                         stat_summary(read_file(args.second, _read_vector)))
    print(f"t = {result.t:.3f}")
    print(f"larger = {result.larger}")
    print(f"significant at {CRITICAL_T} = {result.significant}")
    return 0


def _add_manifest(p):
    p.add_argument("--manifest", required=True, help="corpus manifest path")


def _add_features_dir(p):
    p.add_argument("--features-dir", required=True, help="feature file directory")


def _add_models_dir(p):
    p.add_argument("--models-dir", required=True, help="model file directory")


def _add_report_dir(p):
    p.add_argument("--report-dir", required=True, help="report output directory")


def _add_seed(p, required):
    p.add_argument("--seed", type=int, required=required,
                   default=None if required else 0, help="run seed")


def _add_model_shape(p):
    p.add_argument("--states", type=int, default=2, help="HMM states per model")
    p.add_argument("--mixtures", type=int, default=1, help="mixture components per state")


def _add_training(p):
    p.add_argument("--alpha", type=float, default=0.5, help="prosodic stream weight")
    p.add_argument("--max-iterations", type=int, default=20, help="EM iteration cap")


def _add_trial_plan(p):
    p.add_argument("--imposters-per-utterance", type=int, default=1,
                   help="false claims drawn per test utterance")
    p.add_argument("--workers", type=int, default=0, help="scoring processes")


def _command(name: str):
    """A subcommand's func: it looks its _cmd_* function up when called, so
    a wrapper installed after the parser was built is still reached."""
    return lambda args: globals()[name](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoverify",
        description="Two-stage speaker verification for emotional speech.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("features", help="extract feature pairs from a WAV corpus")
    _add_manifest(p)
    _add_features_dir(p)
    p.set_defaults(func=_command("_cmd_features"))

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    _add_manifest(p)
    _add_features_dir(p)
    _add_seed(p, required=True)
    p.add_argument("--speakers", type=int, default=10, help="number of speakers")
    p.add_argument("--emotions", default=",".join(SyntheticSpec().emotion_set),
                   help="comma-separated emotion labels")
    p.add_argument("--groups", type=int, default=8, help="sentence groups per cell")
    p.add_argument("--reps", type=int, default=9, help="repetitions per sentence group")
    p.add_argument("--train-groups", default="1,2,3,4",
                   help="comma-separated sentence groups forming the train split")
    p.add_argument("--claimants", type=int, default=None,
                   help="enrolled speakers (default: all)")
    _add_model_shape(p)
    p.add_argument("--separability", type=float, default=1.0,
                   help="how far apart speakers and emotions sit")
    p.add_argument("--floor-weight", type=float, default=0.0,
                   help="weight of the shared broad mixture component")
    p.set_defaults(func=_command("_cmd_synth"))

    p = sub.add_parser("train-emotions", help="train one model per emotion")
    _add_manifest(p)
    _add_features_dir(p)
    _add_models_dir(p)
    _add_model_shape(p)
    _add_training(p)
    _add_seed(p, required=True)
    p.set_defaults(func=_command("_cmd_train_emotions"))

    p = sub.add_parser("train-speakers", help="enroll per-speaker models")
    _add_manifest(p)
    _add_features_dir(p)
    _add_models_dir(p)
    _add_model_shape(p)
    _add_training(p)
    p.add_argument("--fused", action="store_true",
                   help="enroll two-stream models instead of acoustic-only")
    _add_seed(p, required=True)
    p.set_defaults(func=_command("_cmd_train_speakers"))

    p = sub.add_parser("identify", help="classify test utterances by emotion")
    _add_manifest(p)
    _add_features_dir(p)
    _add_models_dir(p)
    _add_report_dir(p)
    p.add_argument("--mode", choices=("two_stage", "hmm_only"), default="two_stage",
                   help="two_stage scores fused streams, hmm_only acoustic only")
    p.set_defaults(func=_command("_cmd_identify"))

    p = sub.add_parser("trials", help="run verification trials with stored models")
    _add_manifest(p)
    _add_features_dir(p)
    _add_models_dir(p)
    _add_report_dir(p)
    p.add_argument("--mode", choices=CLI_MODES, default="two_stage", help="trial mode")
    p.add_argument("--theta", type=float, default=0.0, help="decision threshold")
    p.add_argument("--adapt-window", type=int, default=None,
                   help="adapt the threshold to the mean of this many recent scores")
    _add_trial_plan(p)
    _add_seed(p, required=False)
    p.set_defaults(func=_command("_cmd_trials"))

    for name, fn, with_mode in (("eval", "_cmd_eval", True),
                                ("sweep-alpha", "_cmd_sweep_alpha", False)):
        p = sub.add_parser(
            name,
            help="train and evaluate one experiment" if with_mode
            else "train once, evaluate the full mixing-weight grid",
        )
        _add_manifest(p)
        _add_features_dir(p)
        _add_report_dir(p)
        if with_mode:
            p.add_argument("--mode", choices=CLI_MODES, default="two_stage",
                           help="experiment kind")
            p.add_argument("--fused", action="store_true",
                           help="verify with two-stream speaker models")
        _add_model_shape(p)
        _add_training(p)
        _add_trial_plan(p)
        _add_seed(p, required=True)
        p.set_defaults(func=_command(fn))

    p = sub.add_parser("ttest", help="compare two files of one number per line")
    p.add_argument("first", help="first sample file")
    p.add_argument("second", help="second sample file")
    p.set_defaults(func=_command("_cmd_ttest"))

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: its 81 options take
    milliseconds, as long as a small command's own work."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EmoverifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
