"""The package's export list names only what the package defines, and the
package runs on numpy and the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import emoverify

WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import emoverify
for info in pkgutil.walk_packages(emoverify.__path__, "emoverify."):
    importlib.import_module(info.name)
from emoverify.hmm import TrainConfig, init_model, log_forward, train_baum_welch
rng = np.random.default_rng(0)
utts = [rng.normal(size=(12, 2)) for _ in range(3)]
cfg = TrainConfig(max_iterations=3)
model, history = train_baum_welch(init_model(utts, 3, 1, cfg), utts, cfg)
assert model.n_states == 3 and len(history) >= 2
from emoverify.hmm import _model_arrays, _stack
assert _stack(*_model_arrays([model])).banded  # the two-candidate kernel ran on numpy alone
assert np.isfinite(log_forward(model, utts[0]))
from emoverify.frontend import ObservationPair
from emoverify.sphmm import ModelSet, score_fused, train_sphmm
from emoverify.stage_a import identify_emotion
pairs = [ObservationPair(u, rng.normal(size=(3, 2))) for u in utts]
fused = train_sphmm(pairs, 3, 1, cfg=cfg)
assert np.isfinite(score_fused(fused, pairs[0]))
best, scores = identify_emotion(ModelSet({"a": fused, "b": fused}), pairs[0])
assert best == "a" and scores["a"] == scores["b"] == score_fused(fused, pairs[0])
import io
from emoverify.featureio import read_features, write_features
from emoverify.hmm import read_hmm, write_hmm
from emoverify.sphmm import read_sphmm, write_sphmm
for write, read, obj in ((write_hmm, read_hmm, model), (write_sphmm, read_sphmm, fused),
                         (write_features, read_features, pairs[0])):
    buf = io.BytesIO()
    write(buf, obj)
    again = io.BytesIO()
    write(again, read(io.BytesIO(buf.getvalue())))
    assert again.getvalue() == buf.getvalue()
print("ok")
"""


def test_every_exported_name_resolves():
    assert [name for name in emoverify.__all__ if not hasattr(emoverify, name)] == []


def test_runs_without_scipy():
    src = str(Path(emoverify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
