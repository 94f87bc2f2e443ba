"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload paper_table --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
src/.  Set-up runs SETUP_REPEATS times and reports its median.  Then whole
rounds of operations run until --seconds have passed, each operation
timed alone (wall time) and its output checked untimed; a round's time
is the sum of its operations' times.  --trace 0 reports the end-to-end
metrics; --trace 1 alternates traced and untraced rounds and reports the
per-layer metrics, including the tracing overhead.  The benchmark runs in
this one process, pinned to one core, with BLAS pinned to one thread.

The shared host's speed moves by a quarter or more between runs, the same
for every workload, as neighbours come and go.  So before every set-up and
every round, never while the program runs, a helper process on the same
core times a fixed calibration kernel CALIBRATION_SAMPLES times
(calibration.py), and every time the run reports is multiplied by
CALIBRATION_REF_S / median(kernel times of the run): the time the program
would have taken on a host where the kernel takes CALIBRATION_REF_S.  The
unscaled median round and the kernel's median are printed on the line
before the result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
TRACED_MIN = 1  # untraced rounds a traced run makes at least

CALIBRATION_SAMPLES = 9  # kernel times taken before every set-up and round
CALIBRATION_REF_S = 1.0e-3


def _import_program():
    if not (ROOT / "src" / "emoverify" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {ROOT / 'src' / 'emoverify'}; "
                 "run from the root of an emoverify checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import emoverify  # noqa: F401


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, run whole rounds for `seconds`, check every output.

    With a tracer, set-ups and even-numbered rounds are traced, odd rounds
    are not; the first set-up and round 0 are recorded in full.  Returns
    (scaled seconds, scaled self seconds by span name) per set-up and per
    traced and untraced round.
    """
    from calibration import SpeedProbe
    from checks import CheckError

    workdir = BENCH_DIR / "work" / f"{workload.__class__.__name__.lower()}-{os.getpid()}"
    groups = {"setup": {}, "untraced": {}, "traced": {}}  # group -> [seconds, self seconds]
    kernel = []
    attempted = failed = rounds = 0
    problems = []

    def sample_speed():
        kernel.extend(probe.sample(CALIBRATION_SAMPLES))

    def timed(kind: str, group: int, scope: str, fn):
        traced = tracer is not None and kind != "untraced"
        with tracer.scoped(scope, record=group == 0) if traced else nullcontext():
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        total = groups[kind].setdefault(group, [0.0, {}])
        total[0] += t1 - t0
        for name, s in (tracer.self_seconds.pop(scope) if traced else {}).items():
            total[1][name] = total[1].get(name, 0.0) + s
        return result

    # One core for the operations and the probe, so the probe measures the
    # core the operations run on, and they never migrate mid-run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with SpeedProbe() as probe:
            for rep in range(SETUP_REPEATS):
                path = workdir / f"setup{rep}"
                path.mkdir(parents=True)
                sample_speed()
                timed("setup", rep, f"setup{rep}", lambda: workload.setup(path, seed))
            workload.check_once()

            start = time.perf_counter()
            while (rounds == 0 or time.perf_counter() - start < seconds
                   or (tracer and len(groups["untraced"]) < TRACED_MIN)):
                kind = "traced" if tracer and rounds % 2 == 0 else "untraced"
                ops = workload.round(rounds)
                sample_speed()
                results = [timed(kind, rounds, f"op{attempted + i}", op.run)
                           for i, op in enumerate(ops)]
                for op, result in zip(ops, results):
                    try:
                        failed += not op.check(result)
                    except CheckError as exc:
                        problems.append(f"operation {attempted}: {exc}")
                    attempted += 1
                rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speed = CALIBRATION_REF_S / statistics.median(kernel)
    out = {kind: [(s * speed, {name: v * speed for name, v in layers.items()})
                  for s, layers in g.values()]
           for kind, g in groups.items()}
    out.update(attempted=attempted, failed=failed, problems=problems, rounds=rounds,
               kernel_s=statistics.median(kernel), raw_round_s=_median(groups["untraced"].values()))
    return out


def _median(pairs) -> float:
    return statistics.median(seconds for seconds, _ in pairs)


def end_to_end(m: dict) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (_median(m["setup"]), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "round_s": (_median(m["untraced"]), "s"),
    }


def per_layer(m: dict, tracer) -> dict:
    """Self times are the median set-up's plus the median traced round's;
    counts, bytes and ratios are those of the first set-up plus round 0."""
    from tracing import PER_LAYER

    values = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in PER_LAYER}
    for part in ("setup", "traced"):
        scopes = [layers for _, layers in m[part]]
        for name in {n for layers in scopes for n in layers}:
            values[name + ".s"] = values.get(name + ".s", 0.0) + statistics.median(
                layers.get(name, 0.0) for layers in scopes)
    values.update(tracer.counts)
    values.update(tracer.useful_ratios())
    untraced = _median(m["untraced"])
    values["trace.overhead_s"] = _median(m["traced"]) - untraced
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / untraced
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, write its result (and spans) under results/,
    print notes and wrong outputs; return the result object."""
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if trace else None
    workload = WORKLOADS[name]()
    m = measure(workload, seed, seconds, tracer)
    for problem in m["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    print(f"{name} seed {seed}: {m['attempted']} operations in {m['rounds']} rounds, "
          f"{m['failed']} failed; {workload.notes()}; unscaled median round "
          f"{m['raw_round_s']:.4f} s, calibration kernel {m['kernel_s'] * 1e3:.4f} ms")
    metrics = per_layer(m, tracer) if trace else end_to_end(m)
    result = {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(result) + "\n")
    if trace:
        (out / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS  # after the program is importable

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
