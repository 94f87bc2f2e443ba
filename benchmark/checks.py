"""Correctness checks on the program's outputs.

Each check is computed apart from the program, or is a property the method
must have; none compares against a stored copy of earlier output.  A check
raises CheckError with the reason when an output is wrong.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from audio import RAMP

EER_RANGE = (0.0, 100.0)
ALPHA_GRID = tuple(i / 10 for i in range(11))
LLR_REL_TOL = 1e-9
F0_REL_TOL = 0.05

# Front-end framing at 16 kHz, from the 16 ms frame and 9 ms overlap the
# front end is configured with, and its 10-frame prosodic blocks.
FRAME_LEN = 256
HOP = 256 - 144
BLOCK = 10
F0_MEAN, VOICED_FRACTION, DURATION = 0, 5, 6


class CheckError(AssertionError):
    """An output that the method could not have produced."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# paper_table and alpha_sweep


def read_eer_csv(path) -> dict[str, float]:
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    require(rows[0] == ["emotion", "eer"], f"{path}: bad header {rows[0]}")
    return {emotion: float(value) for emotion, value in rows[1:] if emotion != "average"}


def check_eer_table(label: str, table: dict[str, float]) -> None:
    for emotion, value in table.items():
        require(EER_RANGE[0] <= value <= EER_RANGE[1],
                f"{label}: EER {value!r} for {emotion} outside [0, 100]")


def check_paper_table(reports: dict, report_dirs: dict, n_test: int) -> bool:
    """The four kinds of one table: ranges, counts and cross-kind identities.

    Returns whether stage a identified every test utterance correctly, the
    condition under which oracle_emotion must equal two_stage exactly.
    """
    two = reports["two_stage"]
    for kind, report in reports.items():
        check_eer_table(kind, report.eer_by_emotion)
        for other, table in report.comparisons.items():
            check_eer_table(f"{kind}/{other}", table)
        require(read_eer_csv(report_dirs[kind] / "eer.csv") == report.eer_by_emotion,
                f"{kind}: eer.csv differs from the report's table")
        if report.confusion is not None:
            total = int(report.confusion.counts.sum())
            require(total == n_test, f"{kind}: confusion counts sum to {total}, not {n_test}")
    for kind in ("hmm_only_stage_a", "worst_case"):
        require(reports[kind].comparisons["two_stage"] == two.eer_by_emotion,
                f"{kind}: embedded two_stage table differs from the two_stage report")
    counts = two.confusion.counts
    perfect = bool(np.count_nonzero(counts - np.diag(np.diag(counts))) == 0)
    if perfect:
        require(reports["oracle_emotion"].eer_by_emotion == two.eer_by_emotion,
                "stage a was perfect, yet oracle_emotion differs from two_stage")
    return perfect


def check_alpha_sweep(report, report_dir, alpha: float, hmm_only_eer: float | None) -> None:
    """Grid, endpoint and identity properties of one sweep.

    hmm_only_eer, when given, is the hmm_only_stage_a average EER on the
    same corpus and seed; the alpha = 0 row must equal it exactly.
    """
    rows = report.alpha_rows
    require(tuple(a for a, _ in rows) == ALPHA_GRID, f"sweep rows are not the grid: {rows}")
    check_eer_table("alpha_sweep", {str(a): v for a, v in rows})
    by_alpha = dict(rows)
    require(by_alpha[alpha] == report.average_eer,
            f"row at alpha {alpha} is {by_alpha[alpha]!r}, average_eer {report.average_eer!r}")
    require(by_alpha[1.0] < by_alpha[0.0],
            f"alpha 1 row {by_alpha[1.0]!r} is not below alpha 0 row {by_alpha[0.0]!r}")
    if hmm_only_eer is not None:
        require(by_alpha[0.0] == hmm_only_eer,
                f"alpha 0 row {by_alpha[0.0]!r} differs from hmm_only {hmm_only_eer!r}")
    with open(report_dir / "alpha_sweep.csv", newline="") as fp:
        written = [(float(a), float(v)) for a, v in list(csv.reader(fp))[1:]]
    require(written == list(rows), "alpha_sweep.csv differs from the report's rows")


# ---------------------------------------------------------------------------
# verify: trials.csv against the manifest and an independent scorer


def read_manifest(path) -> tuple[dict[str, dict], list[str], list[str]]:
    """(utterance id -> row, claimant ids, emotions) parsed straight from the file."""
    with open(path, encoding="utf-8") as fp:
        lines = [line for line in fp.read().splitlines() if line]
    emotions = next(line for line in lines if line.startswith("#emotions:"))[10:].split(",")
    lines = [line for line in lines if not line.startswith("#")]
    header = lines[0].split(",")
    rows = {}
    claimants = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows[row["id"]] = row
        if row["role"] == "claimant" and row["speaker"] not in claimants:
            claimants.append(row["speaker"])
    return rows, claimants, emotions


def read_trials(path) -> list[dict]:
    with open(path, newline="") as fp:
        return list(csv.DictReader(fp))


def check_trials(trials: list[dict], manifest_rows: dict, claimants: list[str],
                 imposters: int, theta: float) -> None:
    """Plan size and make-up, decisions and truth labels of trials.csv."""
    tests = [row for row in manifest_rows.values() if row["split"] == "test"]
    expected = sum(
        (row["speaker"] in claimants) + min(imposters, len([c for c in claimants if c != row["speaker"]]))
        for row in tests
    )
    require(len(trials) == expected, f"trials.csv has {len(trials)} rows, expected {expected}")
    claims = set()
    for t in trials:
        utt = manifest_rows.get(t["utterance"])
        require(utt is not None and utt["split"] == "test", f"{t['utterance']}: not a test utterance")
        require(t["true"] == utt["speaker"], f"{t['utterance']}: true speaker {t['true']!r}")
        require(t["claimed"] in claimants, f"{t['utterance']}: claimed {t['claimed']!r} not enrolled")
        require((t["utterance"], t["claimed"]) not in claims, f"{t['utterance']}: repeated claim")
        claims.add((t["utterance"], t["claimed"]))
        truth = "target" if t["claimed"] == t["true"] else "nontarget"
        require(t["truth"] == truth, f"{t['utterance']}: truth {t['truth']!r}, expected {truth}")
        decision = "accept" if float(t["lambda"]) >= float(t["theta"]) else "reject"
        require(t["decision"] == decision, f"{t['utterance']}: decision {t['decision']!r}, expected {decision}")
        require(float(t["theta"]) == theta, f"{t['utterance']}: theta {t['theta']}")
        require(t["mode"] == "two_stage", f"{t['utterance']}: mode {t['mode']!r}")
    for row in tests:
        if row["speaker"] in claimants:
            require((row["id"], row["speaker"]) in claims, f"{row['id']}: no target claim")


def _log_emissions(hmm, obs: np.ndarray) -> np.ndarray:
    """(T, N) log emission densities of a diagonal-covariance GMM per state."""
    out = np.empty((obs.shape[0], len(hmm.emissions)))
    for j, em in enumerate(hmm.emissions):
        d = obs.shape[1]
        comp = (np.log(em.weights)[None, :]
                - 0.5 * (d * math.log(2 * math.pi) + np.log(em.variances).sum(axis=1))[None, :]
                - 0.5 * (((obs[:, None, :] - em.means[None, :, :]) ** 2) / em.variances[None]).sum(axis=2))
        top = comp.max(axis=1)
        out[:, j] = top + np.log(np.exp(comp - top[:, None]).sum(axis=1))
    return out


def scaled_forward(hmm, obs: np.ndarray) -> float:
    """log P(obs | hmm) by the scaled (probability-domain) forward recursion.

    Each frame's emissions are shifted by their maximum over the states the
    predicted mass can reach, exponentiated, and the forward vector is
    renormalized; the log-likelihood is the sum of the log scale factors.
    The chain starts in state 1.  The recursion runs in extended precision:
    a state whose variances sit at the floor can trail the best reachable
    state by more than the 745 nats a double can hold, and still carry the
    best path once the chain passes through it.
    """
    logb = _log_emissions(hmm, np.asarray(obs, dtype=np.float64)).astype(np.longdouble)
    a = hmm.transitions.astype(np.longdouble)
    pred = np.zeros(a.shape[0], dtype=np.longdouble)
    pred[0] = 1
    total = 0.0
    for t in range(logb.shape[0]):
        if t:
            pred = alpha @ a
        reach = pred > 0
        shift = logb[t, reach].max()
        alpha = pred * np.exp(np.where(reach, logb[t] - shift, 0))
        scale = alpha.sum()
        alpha = alpha / scale
        total += float(np.log(scale) + shift)
    return total


def fused_score(model, acoustic: np.ndarray, prosodic: np.ndarray) -> float:
    """The two-stream score of a stored emotion model, from its parameters."""
    t, tp = acoustic.shape[0], prosodic.shape[0]
    ac = scaled_forward(model.acoustic, acoustic) / t + model.log_priors[0] / t
    pr = scaled_forward(model.prosodic.hmm, prosodic) / tp
    comp = model.prosodic.composite
    if comp is not None:
        diff = prosodic.mean(axis=0) - comp.mean
        pr += -0.5 * (diff.size * math.log(2 * math.pi) + np.log(comp.variance).sum()
                      + (diff * diff / comp.variance).sum()) / tp
    pr += model.log_priors[1] / tp
    if model.alpha == 0.0:
        return ac
    if model.alpha == 1.0:
        return pr
    return (1.0 - model.alpha) * ac + model.alpha * pr


def recompute_trial(trial: dict, emotions: list[str], emotion_models: dict,
                    speaker_models: dict, features) -> tuple[str, float]:
    """(identified emotion, llr) of one trial from the stored models."""
    scores = {e: fused_score(emotion_models[e], features.acoustic, features.prosodic)
              for e in emotions}
    e_star = max(emotions, key=lambda e: scores[e])  # first emotion wins a tie
    claimed = {e: scaled_forward(speaker_models[trial["claimed"], e], features.acoustic)
               / features.acoustic.shape[0] for e in emotions}
    others = [claimed[e] for e in emotions if e != e_star]
    return e_star, claimed[e_star] - sum(others) / len(others)


def check_recomputed(trial: dict, e_star: str, llr: float) -> None:
    require(trial["e_star"] == e_star,
            f"{trial['utterance']}: identified {trial['e_star']!r}, recomputed {e_star!r}")
    written = float(trial["lambda"])
    err = abs(written - llr) / max(abs(written), abs(llr), 1.0)
    require(err <= LLR_REL_TOL,
            f"{trial['utterance']}/{trial['claimed']}: llr {written!r}, recomputed {llr!r}")


# ---------------------------------------------------------------------------
# ingest


def check_features(pair, read_back, n_samples: int) -> None:
    """Round trip, frame counts and block durations of one extraction."""
    require(np.array_equal(read_back.acoustic, pair.acoustic)
            and np.array_equal(read_back.prosodic, pair.prosodic),
            ".emvf file does not read back equal to the extraction")
    t = 1 + (n_samples - FRAME_LEN) // HOP
    require(pair.acoustic.shape[0] == t, f"{pair.acoustic.shape[0]} frames, expected {t}")
    tp = math.ceil(t / BLOCK)
    require(pair.prosodic.shape[0] == tp, f"{pair.prosodic.shape[0]} blocks, expected {tp}")
    require(pair.prosodic[:, DURATION].sum() == t, "block durations do not sum to T")


def pitch_problems(prosodic: np.ndarray, segments) -> list[str]:
    """Blocks wholly inside a steady voiced segment that read unvoiced or off-pitch.

    A block is inside when every sample of every frame in it lies between
    the segment's onset and offset ramps.
    """
    problems = []
    for b in range(prosodic.shape[0]):
        n_frames = int(prosodic[b, DURATION])
        first = (b * BLOCK) * HOP
        last = (b * BLOCK + n_frames - 1) * HOP + FRAME_LEN
        for seg in segments:
            if seg.start + RAMP <= first and last <= seg.end - RAMP:
                f0 = prosodic[b, F0_MEAN]
                if prosodic[b, VOICED_FRACTION] != 1.0:
                    problems.append(f"block {b}: voiced fraction {prosodic[b, VOICED_FRACTION]:.2f} "
                                    f"inside a {seg.f0:.1f} Hz segment")
                elif abs(f0 - seg.f0) > F0_REL_TOL * seg.f0:
                    problems.append(f"block {b}: F0 {f0:.1f} Hz inside a {seg.f0:.1f} Hz segment")
    return problems
