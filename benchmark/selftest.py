"""Self-tests of the benchmark: every correctness check rejects a planted
wrong output, the independent scorer agrees with the program, and a
tiny-size run of every workload finishes with the metrics BENCHMARK.json
names.

    python3 benchmark/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import run

run._import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from emoverify import featureio, frontend  # noqa: E402
from emoverify.hmm import GmmEmission, HmmModel, log_forward  # noqa: E402
from emoverify.stage_a import ConfusionMatrix  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SCRATCH = run.BENCH_DIR / "work" / "selftest"


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


def first_round(workload, name: str):
    """Set up a workload in SCRATCH/name, run and check round 0; return
    the last operation's result."""
    path = SCRATCH / name
    path.mkdir(parents=True)
    workload.setup(path, seed=3)
    workload.check_once()
    ops = workload.round(0)
    results = [op.run() for op in ops]
    assert all(op.check(result) for op, result in zip(ops, results))
    return results[-1]


def test_paper_table_checks():
    table = workloads.PaperTable()
    reports = first_round(table, "table")
    dirs = {k: SCRATCH / "table" / "reports" / k for k in workloads.TABLE_KINDS}
    n_test = workloads.n_test_utterances(table.spec)
    two = reports["two_stage"]

    swapped = dict(two.eer_by_emotion)
    pairs = [(x, y) for x in swapped for y in swapped if swapped[x] != swapped[y]]
    if pairs:
        a, b = pairs[0]
        swapped[a], swapped[b] = swapped[b], swapped[a]
    else:  # every emotion has the same EER: alter one entry instead
        first = next(iter(swapped))
        swapped[first] += 1.0
    hmm_only = reports["hmm_only_stage_a"]
    planted = dict(reports, hmm_only_stage_a=replace(
        hmm_only, comparisons=dict(hmm_only.comparisons, two_stage=swapped)))
    assert rejects(checks.check_paper_table, planted, dirs, n_test), "swapped EER entry"

    assert rejects(checks.check_eer_table, "x", {"neutral": 100.5}), "EER above 100"
    assert rejects(checks.check_eer_table, "x", {"neutral": -0.5}), "EER below 0"

    counts = two.confusion.counts.copy()
    counts[0, 0] += 1
    planted = dict(reports, two_stage=replace(two, confusion=ConfusionMatrix(two.emotions, counts)))
    assert rejects(checks.check_paper_table, planted, dirs, n_test), "confusion count off by one"

    perfect = ConfusionMatrix(two.emotions, np.diag(two.confusion.counts.sum(axis=0)))
    oracle = reports["oracle_emotion"]
    planted = dict(reports, two_stage=replace(two, confusion=perfect),
                   oracle_emotion=replace(oracle, eer_by_emotion=swapped))
    assert rejects(checks.check_paper_table, planted, dirs, n_test), "oracle differs under perfect stage a"

    path = dirs["worst_case"] / "eer.csv"
    lines = path.read_text().splitlines()
    emotion, value = lines[1].split(",")
    lines[1] = f"{emotion},{float(value) + 1.0!r}"
    path.write_text("\n".join(lines) + "\n")
    assert rejects(checks.check_paper_table, reports, dirs, n_test), "altered eer.csv"


def test_alpha_sweep_checks():
    sweep = workloads.AlphaSweep()
    report = first_round(sweep, "sweep")
    path = SCRATCH / "sweep" / "sweep"
    rows = list(report.alpha_rows)
    check = checks.check_alpha_sweep

    assert rejects(check, replace(report, alpha_rows=rows[:-1]), path, 0.5, None), "10 rows"
    moved = [(a, v + 1.0 if a == 0.5 else v) for a, v in rows]
    assert rejects(check, replace(report, alpha_rows=moved), path, 0.5, None), "row at alpha != average"
    ends = dict(rows)
    flipped = [(a, ends[1.0] if a == 0.0 else ends[0.0] if a == 1.0 else v) for a, v in rows]
    assert rejects(check, replace(report, alpha_rows=flipped), path, 0.5, None), "alpha 1 not below 0"
    assert rejects(check, report, path, 0.5, ends[0.0] + 1e-9), "hmm_only identity"

    csv_path = path / "alpha_sweep.csv"
    lines = csv_path.read_text().splitlines()
    lines[1] = "0.0," + repr(ends[0.0] + 0.5)
    csv_path.write_text("\n".join(lines) + "\n")
    assert rejects(check, report, path, 0.5, None), "altered alpha_sweep.csv"


def test_verify_checks():
    verify = workloads.Verify()
    first_round(verify, "verify")
    trials = checks.read_trials(verify.report / "trials.csv")
    args = (verify.rows, verify.claimants, 1, 0.0)
    assert rejects(checks.check_trials, trials[:-1], *args), "missing row"

    def planted(i, **changes):
        copy = [dict(t) for t in trials]
        copy[i].update(changes)
        return copy

    t0 = trials[0]
    flipped = "reject" if t0["decision"] == "accept" else "accept"
    assert rejects(checks.check_trials, planted(0, decision=flipped), *args), "decision flipped"
    truth = "nontarget" if t0["truth"] == "target" else "target"
    assert rejects(checks.check_trials, planted(0, truth=truth), *args), "truth flipped"
    other = next(c for c in verify.claimants if c != t0["true"])
    assert rejects(checks.check_trials, planted(0, true=other), *args), "true speaker changed"

    obs = featureio.load_features(featureio.features_path(verify.features, t0["utterance"]))
    e_star, llr = checks.recompute_trial(
        t0, verify.emotions, verify.emotion_models, verify.speaker_models, obs)
    checks.check_recomputed(t0, e_star, llr)
    altered = dict(t0, **{"lambda": repr(float(t0["lambda"]) * (1 + 1e-7) + 1e-7)})
    assert rejects(checks.check_recomputed, altered, e_star, llr), "one llr altered"
    wrong = next(e for e in verify.emotions if e != t0["e_star"])
    assert rejects(checks.check_recomputed, dict(t0, e_star=wrong), e_star, llr), "e_star changed"


def test_ingest_checks():
    ingest = workloads.Ingest()
    path = SCRATCH / "ingest"
    path.mkdir(parents=True)
    ingest.setup(path, seed=3)
    utt = next(u for u in ingest.utterances if not u.fault)
    op = ingest._op(utt)
    pair = op.run()
    assert op.check(pair)
    out = ingest.out_dir / f"{utt.name}.emvf"

    doubled = pair.prosodic.copy()
    doubled[:, checks.F0_MEAN] *= 2
    assert checks.pitch_problems(doubled, utt.segments), "doubled F0"
    unvoiced = pair.prosodic.copy()
    unvoiced[:, checks.VOICED_FRACTION] = 0.0
    assert checks.pitch_problems(unvoiced, utt.segments), "unvoiced blocks"

    read_back = featureio.load_features(out)
    short = frontend.ObservationPair(pair.acoustic[:-1], pair.prosodic)
    assert rejects(checks.check_features, short, featureio.load_features(out), utt.n_samples), \
        "read-back differs"
    featureio.save_features(short, out)
    assert rejects(checks.check_features, short, featureio.load_features(out), utt.n_samples), \
        "one frame short"
    durations = pair.prosodic.copy()
    durations[-1, checks.DURATION] += 1
    bad = frontend.ObservationPair(pair.acoustic, durations)
    assert rejects(checks.check_features, bad, bad, utt.n_samples), "durations do not sum to T"
    assert checks.check_features(pair, read_back, utt.n_samples) is None


def test_scaled_forward_matches_log_forward():
    rng = np.random.default_rng(11)
    for n_states in (1, 2, 4):
        a = np.zeros((n_states, n_states))
        for i in range(n_states):
            hi = min(i + 1, n_states - 1)
            row = rng.uniform(0.2, 1.0, size=hi - i + 1)
            a[i, i:hi + 1] = row / row.sum()
        emissions = tuple(
            GmmEmission(np.array([0.3, 0.7]), rng.normal(0, 3, (2, 3)), rng.uniform(0.05, 2, (2, 3)))
            for _ in range(n_states))
        model = HmmModel(a, emissions)
        obs = rng.normal(0, 3, (60, 3))
        ours, theirs = checks.scaled_forward(model, obs), log_forward(model, obs)
        assert abs(ours - theirs) <= 1e-9 * abs(theirs), (n_states, ours, theirs)


def test_tiny_runs_finish():
    """Every workload, traced and untraced, on tiny inputs for one round."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    assert names[1] == [name for name, _ in PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    saved = (workloads.PaperTable.spec, workloads.VERIFY_SPEC, workloads.VERIFY_TRAIN,
             workloads.INGEST_SEEDED)
    workloads.PaperTable.spec = replace(workloads.TABLE_SPEC, emotion_set=("neutral", "angry", "sad"))
    workloads.VERIFY_SPEC = replace(workloads.VERIFY_SPEC, emotion_set=("neutral", "angry", "sad"),
                                    n_states=2, length_range=(20, 20))
    workloads.VERIFY_TRAIN = ("--states", "2", "--mixtures", "1", "--max-iterations", "1")
    workloads.INGEST_SEEDED = 2
    try:
        # alpha_sweep keeps its own size, the one its endpoint property is shown on
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                result = run.run(name, seed=5, seconds=0, trace=bool(trace))
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["correct"] and result["attempted"] >= 1, (name, trace, result)
                assert list(result["metrics"]) == names[trace], (name, trace)
    finally:
        (workloads.PaperTable.spec, workloads.VERIFY_SPEC, workloads.VERIFY_TRAIN,
         workloads.INGEST_SEEDED) = saved


def main() -> int:
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
