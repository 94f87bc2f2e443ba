"""Arrays-first models match the per-state objects they replaced.

A model built from its arrays (read_hmm, HmmModel.from_arrays) and the same
model built from one GmmEmission per state hold the same four arrays, bit
for bit, with the dtype and C-contiguity that the stacking of per-state
objects gave; they score, store and sample alike, and validate reports
what the per-state loop reported, in its order.
"""

import io
import re

import numpy as np
import pytest

from corpus_util import reference_sample_sequence, reference_validate
from emoverify import hmm
from emoverify.errors import FormatError
from emoverify.hmm import (
    GmmEmission,
    HmmBank,
    HmmModel,
    read_hmm,
    sample_sequence,
    validate,
    write_hmm,
)

FIELDS = ("transitions", "weights", "means", "variances")


def random_model(rng):
    """A random valid model: N 1-5, M 1-3, D 1-4, max_skip 1-2; a 1-state
    model has the self-loop 1.0."""
    n, m, d = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    skip = int(rng.integers(1, 3))
    a = np.zeros((n, n))
    for i in range(n):
        hi = min(i + skip, n - 1)
        row = rng.uniform(0.2, 1.0, size=hi - i + 1)
        a[i, i:hi + 1] = row / row.sum()
    emissions = []
    for _ in range(n):
        w = rng.uniform(0.2, 1.0, size=m)
        emissions.append(GmmEmission(w / w.sum(), rng.normal(0.0, 2.0, (m, d)),
                                     rng.uniform(0.3, 1.5, (m, d))))
    return HmmModel(a, tuple(emissions), max_skip=skip)


def model_bytes(model):
    buf = io.BytesIO()
    write_hmm(buf, model)
    return buf.getvalue()


def stacked_per_state(models):
    """The arrays of same-shape models stacked from their per-state objects,
    as the model bank stacked them before models held arrays."""
    return (np.array([m.transitions for m in models]),
            np.array([[em.weights for em in m.emissions] for m in models]),
            np.array([[em.means for em in m.emissions] for m in models]),
            np.array([[em.variances for em in m.emissions] for m in models]))


def assert_same_array(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def models(seed, count=60):
    rng = np.random.default_rng(seed)
    return [random_model(rng) for _ in range(count)]


def test_random_models_cover_the_stated_shapes():
    shapes = {(m.n_states, m.n_mixtures, m.dim, m.max_skip) for m in models(1)}
    assert {n for n, _, _, _ in shapes} == {1, 2, 3, 4, 5}
    assert {k for _, k, _, _ in shapes} == {1, 2, 3}
    assert {d for _, _, d, _ in shapes} == {1, 2, 3, 4}
    assert {s for _, _, _, s in shapes} == {1, 2}
    one = [m for m in models(1) if m.n_states == 1]
    assert one and all(m.transitions[0, 0] == 1.0 for m in one)


def test_a_loaded_model_holds_the_constructed_arrays():
    for model in models(2):
        loaded = read_hmm(io.BytesIO(model_bytes(model)))
        for field in FIELDS:
            got, want = getattr(loaded, field), getattr(model, field)
            assert_same_array(got, want)
            assert got.flags.c_contiguous and got.dtype == np.float64
        assert model_bytes(loaded) == model_bytes(model)


def test_fields_stack_as_the_per_state_objects_did():
    for model in models(3):
        loaded = read_hmm(io.BytesIO(model_bytes(model)))
        for form in (model, loaded):
            want = stacked_per_state([form])
            for got, w in zip(hmm._model_arrays([form]), want):
                assert_same_array(got, w)
            for field, w in zip(FIELDS, want):
                assert_same_array(getattr(form, field), w[0])


def test_emissions_view_equals_the_field_slices():
    for model in models(4):
        loaded = read_hmm(io.BytesIO(model_bytes(model)))
        for form in (model, loaded):
            assert len(form.emissions) == form.n_states
            assert form.emissions is form.emissions  # built once
            for i, em in enumerate(form.emissions):
                assert_same_array(em.weights, form.weights[i])
                assert_same_array(em.means, form.means[i])
                assert_same_array(em.variances, form.variances[i])


def test_both_forms_score_alike():
    rng = np.random.default_rng(5)
    for model in models(5, count=30):
        loaded = read_hmm(io.BytesIO(model_bytes(model)))
        direct = HmmModel.from_arrays(*model.arrays, max_skip=model.max_skip)
        observations = [rng.normal(0.0, 2.0, (int(rng.integers(1, 30)), model.dim))
                        for _ in range(3)]
        rows = [[0]] * len(observations)
        want = HmmBank([model]).log_forward_batch(observations, rows)
        for form in (loaded, direct):
            got = HmmBank([form]).log_forward_batch(observations, rows)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert model_bytes(form) == model_bytes(model)


def with_zeros(model, rng):
    """The model with one in-band transition of each row that has two and
    one mixture weight of each state set to 0.0, rows renormalized: its
    cumulative rows hold plateaus, which a draw's search must step over."""
    a, w, mu, var = (x.copy() for x in model.arrays)
    for i, row in enumerate(a):
        if np.count_nonzero(row) > 1:
            row[rng.choice(np.flatnonzero(row))] = 0.0
            row /= row.sum()
    if w.shape[1] > 1:
        w[np.arange(len(w)), rng.integers(w.shape[1], size=len(w))] = 0.0
        w /= w.sum(axis=1, keepdims=True)
    return HmmModel.from_arrays(a, w, mu, var, max_skip=model.max_skip)


def test_sample_sequence_matches_the_per_state_loop():
    # the reference sums and searches each draw's cumulative row inside its
    # frame loop; the sampler takes them, and the path's draws, up front
    rng = np.random.default_rng(6)
    for model in models(6, count=40):
        for target in (model, with_zeros(model, rng)):
            loaded = read_hmm(io.BytesIO(model_bytes(target)))
            for t_len in (1, int(rng.integers(2, 60)), 300):
                seed = int(rng.integers(1 << 30))
                want = reference_sample_sequence(target, t_len, seed)
                for form in (target, loaded):
                    assert sample_sequence(form, t_len, seed).tobytes() == want.tobytes()


def test_validate_reports_what_the_per_state_loop_reported():
    rng = np.random.default_rng(7)
    for model in models(7, count=80):
        a, w, mu, var = (x.copy() for x in model.arrays)
        n, m, _ = mu.shape
        for _ in range(int(rng.integers(0, 4))):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            a[i, j] += rng.choice([-0.5, 0.25, 0.0])
        for _ in range(int(rng.integers(0, 4))):
            w[int(rng.integers(n)), int(rng.integers(m))] += rng.choice([-1.5, 0.2, 1e-12])
        if rng.random() < 0.5:
            var[int(rng.integers(n))] = 1e-5
        broken = HmmModel.from_arrays(a, w, mu, var, max_skip=model.max_skip)
        for floor in (hmm.VARIANCE_FLOOR, 0.0):
            assert validate(broken, floor) == reference_validate(broken, floor)


def test_from_arrays_refuses_what_the_per_state_constructor_refused():
    rng = np.random.default_rng(11)
    for model in models(11, count=80):
        arrays = [x.copy() for x in model.arrays]
        for _ in range(int(rng.integers(1, 4))):
            x = arrays[int(rng.integers(4))]
            x[tuple(int(rng.integers(k)) for k in x.shape)] = rng.choice([np.nan, np.inf, -np.inf])
        a, w, mu, var = arrays
        with pytest.raises(ValueError) as want:
            HmmModel(a, tuple(map(GmmEmission, w, mu, var)), max_skip=model.max_skip)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            HmmModel.from_arrays(a, w, mu, var, max_skip=model.max_skip)


@pytest.mark.parametrize("train", [
    lambda init, utts: hmm.train_baum_welch(init, utts),
    lambda init, utts: hmm.train_models([(init, utts), (init, utts[:2])]),
])
def test_training_that_overflows_returns_no_model(train):
    # a dim constant at 1e155 passes the frame checks and, its k-means
    # variance floored, init_model; its second-moment statistic overflows,
    # and the per-state constructor refused the weights that followed
    rng = np.random.default_rng(3)
    utterances = [rng.normal(size=(t_len, 3)) for t_len in (9, 12, 7)]
    for u in utterances:
        u[:, 1] = 1e155
    init = hmm.init_model(utterances, 3, 2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="^weights contains non-finite values$"):
        train(init, utterances)


def emvh(a, w, mu, var) -> bytes:
    a, w, mu, var = (np.asarray(x, dtype="<f8") for x in (a, w, mu, var))
    n, m, d = mu.shape
    head = b"EMVH" + np.array([1, n, m, d], dtype="<u4").tobytes()
    return head + b"".join(x.tobytes() for x in (a, w, mu, var))


W2, MU2, VAR2 = np.array([[0.5, 0.5], [0.25, 0.75]]), np.zeros((2, 2, 1)), np.ones((2, 2, 1))


@pytest.mark.parametrize("arrays, message", [
    (([[1.25, -0.25], [0.0, 1.0]], W2, MU2, VAR2),
     "invalid model file: negative transition probability"),
    (([[0.5, 0.6], [0.0, 1.0]], W2, MU2, VAR2),
     "invalid model file: transition row 1 sums to 1.1"),
    (([[0.5, 0.5], [0.0, 1.0]], [[0.6, 0.6], [0.25, 0.75]], MU2, VAR2),
     "invalid model file: state 1 weights sum 1.2"),
    (([[0.5, 0.5], [0.0, 1.0]], [[0.5, 0.5], [1.5, -0.5]], MU2, VAR2),
     "invalid model file: state 2 has a negative mixture weight"),
    (([[1.0, 0.0], [0.5, 0.5]], W2, MU2, VAR2),
     "invalid model file: non-Bakis transition (2→1)"),
    (([[0.5, 0.25, 0.5], [0.5, 0.5, 0.0], [0.0, -0.5, 1.5]],
      [[0.5, 0.5], [0.6, 0.6], [1.5, -0.25]], np.zeros((3, 2, 1)), np.ones((3, 2, 1))),
     "invalid model file: negative transition probability; transition row 1 sums to 1.25; "
     "non-Bakis transition (2→1); non-Bakis transition (3→2); state 2 weights sum 1.2; "
     "state 3 has a negative mixture weight; state 3 weights sum 1.25"),
    (([[0.5, 0.5], [0.0, 1.0]], W2, np.full((2, 2, 1), np.nan), VAR2),
     "model file holds non-finite values"),
    (([[0.5, 0.5], [0.0, 1.0]], W2, MU2, np.zeros((2, 2, 1))),
     "model file holds non-positive variances"),
], ids=["negative", "row-sum", "weight-sum", "negative-weight", "non-bakis", "many",
        "non-finite", "non-positive"])
def test_read_hmm_refusals_keep_their_messages(arrays, message):
    with pytest.raises(FormatError) as info:
        read_hmm(io.BytesIO(emvh(*arrays)))
    assert str(info.value) == message


@pytest.mark.parametrize("emissions, message", [
    ((GmmEmission([0.5, 0.5], np.zeros((2, 1)), np.ones((2, 1))),
      GmmEmission([1.0], np.zeros((1, 1)), np.ones((1, 1)))),
     "state 2 has 1 components, expected 2"),
    ((GmmEmission([1.0], np.zeros((1, 2)), np.ones((1, 2))),
      GmmEmission([1.0], np.zeros((1, 3)), np.ones((1, 3)))),
     "state 2 has dim 3, expected 2"),
])
def test_ragged_models_are_refused_at_construction(emissions, message):
    with pytest.raises(ValueError) as info:
        HmmModel(np.array([[0.5, 0.5], [0.0, 1.0]]), emissions)
    assert str(info.value) == message
