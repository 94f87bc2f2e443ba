"""Span tracing around the program's public functions, from outside it.

A Tracer replaces module attributes with timing wrappers, under the name
each caller looks the function up by (``emoverify.stage_b.train_baum_welch``
as well as ``emoverify.sphmm.train_baum_welch``), so every call into a
layer is seen no matter which module makes it.  Self time is a span's
duration minus the durations of its child spans; children never overlap
because the pipeline runs in one thread.

Work is grouped into scopes: one set-up or one benchmark operation.  Self
times are summed per scope for every traced scope.  Spans, counters and
the keys behind the useful-work ratios are kept only for the recorded
scopes (the first set-up and the operations of round 0), which keeps
memory flat and makes every count a pure function of the workload seed.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Per-layer metrics with their units, in report order.  Names ending in
# ".s" are summed self times; the rest are counters, byte totals, ratios
# and the tracing overhead.
PER_LAYER = (
    ("hmm.train_baum_welch.s", "s"),
    ("hmm.train_baum_welch.calls", "count"),
    ("hmm.em_iterations", "count"),
    ("hmm.train_frames", "count"),
    ("hmm.init_model.s", "s"),
    ("hmm.init_model.calls", "count"),
    ("hmm.train.useful_ratio", "ratio"),
    ("sphmm.train_sphmm.s", "s"),
    ("stage_a.train_emotion_models.s", "s"),
    ("stage_b.enroll.s", "s"),
    ("stage_b.enroll.calls", "count"),
    ("stage_b.enroll_pooled.s", "s"),
    ("stage_b.enroll_pooled.calls", "count"),
    ("hmm.score.s", "s"),
    ("hmm.score.calls", "count"),
    ("hmm.score.frames", "count"),
    ("hmm.score.useful_ratio", "ratio"),
    ("sphmm.score.s", "s"),
    ("sphmm.score.calls", "count"),
    ("stage_a.identify_emotion.s", "s"),
    ("stage_a.identify_emotion.calls", "count"),
    ("stage_b.run_trials.s", "s"),
    ("stage_b.run_trials.calls", "count"),
    ("stage_b.trials", "count"),
    ("featureio.read.s", "s"),
    ("featureio.read.bytes", "B"),
    ("hmm.load.s", "s"),
    ("sphmm.load.s", "s"),
    ("manifest.load.s", "s"),
    ("stage_b.write_trials.s", "s"),
    ("cli.trials.s", "s"),
    ("hmm.save.s", "s"),
    ("sphmm.save.s", "s"),
    ("frontend.load_wav.s", "s"),
    ("frontend.mfcc.s", "s"),
    ("frontend.prosody.s", "s"),
    ("frontend.frames", "count"),
    ("featureio.write.s", "s"),
    ("featureio.write.bytes", "B"),
    ("evaluation.metrics.s", "s"),
    ("evaluation.write_report.s", "s"),
    ("evaluation.write_report.bytes", "B"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _path_size(path) -> int:
    return os.path.getsize(path)


def _training(args, kwargs, result):
    init, utterances = args[0], args[1]
    iterations = len(result[1])
    frames = sum(int(np.shape(u)[0]) for u in utterances)
    counts = {"hmm.em_iterations": iterations, "hmm.train_frames": frames * iterations}
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return counts, (init, tuple(utterances), cfg)


def _scoring(args, kwargs, result):
    model, obs = args[0], args[1]
    return {"hmm.score.frames": int(np.shape(obs)[0])}, (model, obs)


# span name -> (attributes to wrap, counter function or None).  Each
# attribute is "module:function" under the name its callers use.
WRAPS = {
    "hmm.train_baum_welch": (
        ("emoverify.stage_b:train_baum_welch", "emoverify.sphmm:train_baum_welch"), _training),
    "hmm.init_model": (("emoverify.stage_b:init_model", "emoverify.sphmm:init_model"), None),
    "hmm.score": (("emoverify.stage_b:avg_frame_ll", "emoverify.sphmm:avg_frame_ll"), _scoring),
    "hmm.load": (("emoverify.cli:load_hmm",), None),
    "hmm.save": (("emoverify.cli:save_hmm",), None),
    "sphmm.train_sphmm": (("emoverify.stage_a:train_sphmm", "emoverify.stage_b:train_sphmm"), None),
    "sphmm.score": (
        ("emoverify.stage_b:score_fused", "emoverify.stage_a:score_fused",
         "emoverify.stage_a:score_acoustic"), None),
    "sphmm.load": (("emoverify.cli:load_sphmm",), None),
    "sphmm.save": (("emoverify.cli:save_sphmm",), None),
    "stage_a.train_emotion_models": (
        ("emoverify.evaluation:train_emotion_models", "emoverify.cli:train_emotion_models"), None),
    "stage_a.identify_emotion": (("emoverify.stage_b:identify_emotion",), None),
    "stage_b.enroll": (("emoverify.evaluation:enroll", "emoverify.cli:enroll"), None),
    "stage_b.enroll_pooled": (
        ("emoverify.evaluation:enroll_pooled", "emoverify.cli:enroll_pooled"), None),
    "stage_b.run_trials": (
        ("emoverify.evaluation:run_trials", "emoverify.cli:run_trials"),
        lambda a, k, r: ({"stage_b.trials": len(r)}, None)),
    "stage_b.write_trials": (("emoverify.cli:write_trials",), None),
    "cli.trials": (("emoverify.cli:_cmd_trials",), None),
    "featureio.read": (
        ("emoverify.featureio:load_features",),
        lambda a, k, r: ({"featureio.read.bytes": _path_size(a[0])}, None)),
    "featureio.write": (
        ("emoverify.featureio:save_features",),
        lambda a, k, r: ({"featureio.write.bytes": _path_size(a[1])}, None)),
    "manifest.load": (("emoverify.cli:load_manifest",), None),
    "frontend.load_wav": (("emoverify.frontend:load_wav",), None),
    "frontend.mfcc": (
        ("emoverify.frontend:mfcc",), lambda a, k, r: ({"frontend.frames": int(r.shape[0])}, None)),
    "frontend.prosody": (("emoverify.frontend:prosody",), None),
    "evaluation.metrics": (("emoverify.evaluation:eer", "emoverify.evaluation:far_frr_curve"), None),
    "evaluation.write_report": (
        ("emoverify.evaluation:write_report",),
        lambda a, k, r: ({"evaluation.write_report.bytes": sum(_path_size(p) for p in r)}, None)),
}

# Ratios of distinct work to calls, from the keys the counter functions return.
USEFUL_RATIOS = {"hmm.train.useful_ratio": "hmm.train_baum_welch",
                 "hmm.score.useful_ratio": "hmm.score"}


class _Digests:
    """Content digests of the arrays and models behind a work key.

    Digests are cached by object identity; the cache holds a reference to
    each object so an identity is never reused while the cache lives.
    """

    def __init__(self):
        self._cache: dict[int, tuple[object, bytes]] = {}

    def of(self, obj) -> bytes:
        hit = self._cache.get(id(obj))
        if hit is not None:
            return hit[1]
        h = hashlib.blake2b(digest_size=16)
        self._feed(h, obj)
        digest = h.digest()
        self._cache[id(obj)] = (obj, digest)
        return digest

    def _feed(self, h, obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(str((obj.dtype, obj.shape)).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (tuple, list)):
            h.update(b"(")
            for item in obj:
                h.update(self.of(item))
            h.update(b")")
        elif hasattr(obj, "__dataclass_fields__"):
            h.update(type(obj).__name__.encode())
            for name in obj.__dataclass_fields__:
                h.update(self.of(getattr(obj, name)))
        else:
            h.update(repr(obj).encode())


class Tracer:
    """In-memory span recorder over wrapped module attributes."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, start, child_seconds, span index]
        self.recording = False
        self.scope = None
        self.self_seconds: dict[str, dict[str, float]] = {}  # scope -> span name -> s
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, list] = defaultdict(list)

    def _install(self) -> None:
        for name, (targets, counter) in WRAPS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))

    def _uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if self.recording:
                self.counts[name + ".calls"] += 1
                if counter is not None:
                    counts, key = counter(args, kwargs, result)
                    for metric, value in counts.items():
                        self.counts[metric] += value
                    if key is not None:
                        self.keys[name].append(key)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def scoped(self, scope: str, record: bool):
        """Trace one set-up or operation; record its spans and counts if asked.

        The wrappers are in place only inside the scope, so untraced
        operations run the program exactly as it is.
        """
        self.scope, self.recording = scope, record
        self.self_seconds[scope] = defaultdict(float)
        self._install()
        try:
            with self.span(scope.rstrip("0123456789")):
                yield
        finally:
            self._uninstall()
            self.recording = False

    @contextmanager
    def span(self, name: str):
        index = None
        if self.recording:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append({"name": name, "scope": self.scope, "parent": parent})
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.self_seconds[self.scope][name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            if index is not None:
                self.spans[index].update(start=frame[1], end=end)

    def useful_ratios(self) -> dict[str, float]:
        """Distinct work over calls for the recorded scopes; 1.0 when no call was made."""
        digests = _Digests()
        out = {}
        for metric, name in USEFUL_RATIOS.items():
            keys = self.keys.get(name, [])
            distinct = {tuple(digests.of(part) for part in key) for key in keys}
            out[metric] = len(distinct) / len(keys) if keys else 1.0
        return out
