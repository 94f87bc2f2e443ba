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
import os
import sys
from dataclasses import replace
from pathlib import Path

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
from .manifest import CorpusManifest, load_manifest, save_manifest
from .sphmm import ModelSet, SphmmModel, load_sphmm, save_sphmm
from .stage_a import confusion, train_emotion_models
from .stage_b import (
    SpeakerEmotionModelSet,
    TrialConfig,
    enroll,
    enroll_pooled,
    run_trials,
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


def _workers(args) -> int:
    """--workers, falling back to the EMOVERIFY_WORKERS environment variable."""
    if args.workers is not None:
        return args.workers
    raw = os.environ.get("EMOVERIFY_WORKERS", "0")
    try:
        return int(raw)
    except ValueError:
        raise EmoverifyError(f"EMOVERIFY_WORKERS must be an integer, got {raw!r}") from None


def _emotion_stems(manifest: CorpusManifest) -> dict[str, str]:
    return {emotion: f"emotion_{emotion}" for emotion in manifest.emotion_set}


def _speaker_stem(speaker: str, emotion: str) -> str:
    return f"speaker_{speaker}__{emotion}"


def _load_either(models_dir, stem: str) -> SphmmModel:
    """Load <stem>.emvs (fused) or <stem>.emvh (plain), whichever exists."""
    fused = Path(models_dir) / f"{stem}.emvs"
    plain = Path(models_dir) / f"{stem}.emvh"
    if fused.exists():
        return load_sphmm(fused)
    if plain.exists():
        return SphmmModel(load_hmm(plain), None, alpha=0.0)
    raise EmoverifyError(f"missing model file {plain} (or {fused})")


def _load_model_set(models_dir, stems: dict, alpha: float | None = None) -> ModelSet:
    """The stored models of a label -> file stem map, set to weight alpha unless it is None."""
    models = {label: _load_either(models_dir, stem) for label, stem in stems.items()}
    if alpha is not None:
        models = {label: replace(m, alpha=alpha) for label, m in models.items()}
    return ModelSet(models)


def _load_speaker_models(models_dir, manifest: CorpusManifest) -> SpeakerEmotionModelSet:
    models = {}
    for speaker in manifest.claimants:
        for emotion in manifest.emotion_set:
            models[speaker, emotion] = _load_either(models_dir, _speaker_stem(speaker, emotion))
    return SpeakerEmotionModelSet(manifest.emotion_set, models)


def _train_config(args) -> TrainConfig:
    return TrainConfig(max_iterations=args.max_iterations, seed=args.seed)


def _cmd_features(args) -> int:
    manifest = load_manifest(args.manifest)
    base = Path(args.manifest).resolve().parent
    features_dir = Path(args.features_dir)
    features_dir.mkdir(parents=True, exist_ok=True)
    _echo({
        "subcommand": "features",
        "manifest": str(args.manifest),
        "features_dir": str(features_dir),
        "sample_rate": manifest.audio_format.sample_rate,
    })
    for utt in manifest.utterances:
        clip = load_wav(base / utt.source)
        if clip.sample_rate != manifest.audio_format.sample_rate:
            raise EmoverifyError(
                f"{utt.source}: sample rate {clip.sample_rate} does not match "
                f"the manifest's {manifest.audio_format.sample_rate}"
            )
        try:
            pair = extract(clip)
        except ValueError as exc:
            raise EmoverifyError(f"{utt.source}: {exc}") from None
        save_features(pair, features_path(features_dir, utt.id))
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
    Path(args.features_dir).mkdir(parents=True, exist_ok=True)
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
    models_dir = Path(args.models_dir)
    models_dir.mkdir(parents=True, exist_ok=True)
    stems = _emotion_stems(manifest)
    for emotion, model in models.models.items():
        save_sphmm(model, models_dir / f"{stems[emotion]}.emvs")
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
    cfg = _train_config(args)
    speaker_models = enroll(
        manifest, features, args.states, args.mixtures,
        cfg=cfg, fused=args.fused, alpha=args.alpha,
    )
    pooled = enroll_pooled(
        manifest, features, args.states, args.mixtures,
        cfg=cfg, fused=args.fused, alpha=args.alpha,
    )
    models_dir = Path(args.models_dir)
    models_dir.mkdir(parents=True, exist_ok=True)
    stems = [(_speaker_stem(*key), m) for key, m in speaker_models.models.items()]
    for stem, model in stems + [(f"pooled_{sp}", m) for sp, m in pooled.models.items()]:
        if args.fused:
            save_sphmm(model, models_dir / f"{stem}.emvs")
        else:  # a plain model is stored as its acoustic stream
            save_hmm(model.acoustic, models_dir / f"{stem}.emvh")
    print(
        f"wrote {len(speaker_models.models)} speaker-emotion models "
        f"and {len(pooled.models)} pooled models"
    )
    return 0


def _cmd_identify(args) -> int:
    manifest = load_manifest(args.manifest)
    features = FeatureDir(args.features_dir)
    stage_a_alpha = EXPERIMENTS[_MODES[args.mode]][1]
    models = _load_model_set(args.models_dir, _emotion_stems(manifest), stage_a_alpha)
    _echo({"subcommand": "identify", "mode": args.mode, "alpha": models.alpha})
    labeled = ((u.emotion, features[u.id]) for u in manifest.subset(split="test"))
    matrix = confusion(models, labeled)
    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    with open(report_dir / "confusion.csv", "w", newline="\n") as fp:
        fp.write(matrix.to_csv())
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
        workers=_workers(args),
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
        models = _load_model_set(args.models_dir, {sp: f"pooled_{sp}" for sp in manifest.claimants})
    else:
        models = _load_speaker_models(args.models_dir, manifest)
        if trial_mode == "two_stage":
            emotion_models = _load_model_set(
                args.models_dir, _emotion_stems(manifest), stage_a_alpha)
    records = run_trials(models, emotion_models, manifest, features, mode=trial_mode, cfg=cfg)
    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    write_trials(records, report_dir / "trials.csv")
    targets = sum(1 for r in records if r.truth == "target")
    print(f"wrote {len(records)} trials ({targets} target, {len(records) - targets} nontarget)")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        n_states=args.states,
        n_mixtures=args.mixtures,
        alpha=args.alpha,
        stage_b_fused=args.fused,
        theta=args.theta,
        adapt_window=args.adapt_window,
        imposters_per_utterance=args.imposters_per_utterance,
        seed=args.seed,
        workers=_workers(args),
        train=TrainConfig(max_iterations=args.max_iterations),
    )


def _run_and_write(kind: str, args) -> int:
    manifest = load_manifest(args.manifest)
    features = FeatureDir(args.features_dir)
    cfg = _experiment_config(args)
    _echo(cfg.echo(kind))
    report = run_experiment(kind, manifest, features, cfg)
    written = write_report(report, args.report_dir)
    for alpha, value in report.alpha_rows:
        print(f"alpha {alpha!r}: average_eer = {value!r}")
    print(f"average_eer = {report.average_eer!r}")
    print(f"wrote {len(written)} report files to {args.report_dir}")
    return 0


def _cmd_eval(args) -> int:
    return _run_and_write(_MODES[args.mode], args)


def _cmd_sweep_alpha(args) -> int:
    return _run_and_write("alpha_sweep", args)


def _read_vector(path) -> list[float]:
    values = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise EmoverifyError(f"{path}: every line must hold one number") from None
    return values


def _cmd_ttest(args) -> int:
    _echo({"subcommand": "ttest", "first": str(args.first), "second": str(args.second)})
    result = t_statistic(stat_summary(_read_vector(args.first)),
                         stat_summary(_read_vector(args.second)))
    print(f"t = {result.t:.3f}")
    print(f"larger = {result.larger}")
    print(f"significant at {CRITICAL_T} = {result.significant}")
    return 0


def _add_manifest(p, required=True):
    p.add_argument("--manifest", required=required, help="corpus manifest path")


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


def _add_trial_knobs(p):
    p.add_argument("--theta", type=float, default=0.0, help="decision threshold")
    p.add_argument("--adapt-window", type=int, default=None,
                   help="adapt the threshold to the mean of this many recent scores")
    p.add_argument("--imposters-per-utterance", type=int, default=1,
                   help="false claims drawn per test utterance")
    p.add_argument("--workers", type=int, default=None,
                   help="scoring processes (default: EMOVERIFY_WORKERS or 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoverify",
        description="Two-stage speaker verification for emotional speech.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("features", help="extract feature pairs from a WAV corpus")
    _add_manifest(p)
    _add_features_dir(p)
    p.set_defaults(func=_cmd_features)

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
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-emotions", help="train one model per emotion")
    _add_manifest(p)
    _add_features_dir(p)
    _add_models_dir(p)
    _add_model_shape(p)
    _add_training(p)
    _add_seed(p, required=True)
    p.set_defaults(func=_cmd_train_emotions)

    p = sub.add_parser("train-speakers", help="enroll per-speaker models")
    _add_manifest(p)
    _add_features_dir(p)
    _add_models_dir(p)
    _add_model_shape(p)
    _add_training(p)
    p.add_argument("--fused", action="store_true",
                   help="enroll two-stream models instead of acoustic-only")
    _add_seed(p, required=True)
    p.set_defaults(func=_cmd_train_speakers)

    p = sub.add_parser("identify", help="classify test utterances by emotion")
    _add_manifest(p)
    _add_features_dir(p)
    _add_models_dir(p)
    _add_report_dir(p)
    p.add_argument("--mode", choices=("two_stage", "hmm_only"), default="two_stage",
                   help="two_stage scores fused streams, hmm_only acoustic only")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("trials", help="run verification trials with stored models")
    _add_manifest(p)
    _add_features_dir(p)
    _add_models_dir(p)
    _add_report_dir(p)
    p.add_argument("--mode", choices=CLI_MODES, default="two_stage", help="trial mode")
    _add_trial_knobs(p)
    _add_seed(p, required=False)
    p.set_defaults(func=_cmd_trials)

    for name, fn, with_mode in (("eval", _cmd_eval, True), ("sweep-alpha", _cmd_sweep_alpha, False)):
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
        _add_model_shape(p)
        _add_training(p)
        p.add_argument("--fused", action="store_true",
                       help="verify with two-stream speaker models")
        _add_trial_knobs(p)
        _add_seed(p, required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("ttest", help="compare two files of one number per line")
    p.add_argument("first", help="first sample file")
    p.add_argument("second", help="second sample file")
    p.set_defaults(func=_cmd_ttest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
