"""Binary file boundaries: every read returns a valid object or raises FormatError."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoverify.errors import FormatError
from emoverify.featureio import read_features, write_features
from emoverify.frontend import ObservationPair
from emoverify.hmm import GmmEmission, HmmModel, read_hmm, validate, write_hmm
from emoverify.sphmm import (
    CompositeState,
    SphmmModel,
    SuprasegmentalModel,
    make_summary_map,
    read_sphmm,
    write_sphmm,
)


def _hmm(rng, n, m, d) -> HmmModel:
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i], a[i, i + 1] = 0.5, 0.5
    a[-1, -1] = 1.0
    emissions = tuple(
        GmmEmission(np.full(m, 1.0 / m), rng.normal(size=(m, d)), rng.uniform(0.5, 2.0, (m, d)))
        for _ in range(n)
    )
    return HmmModel(a, emissions)


def _bytes(write, obj) -> bytes:
    buf = io.BytesIO()
    write(buf, obj)
    return buf.getvalue()


_RNG = np.random.default_rng(41)
HMM = _hmm(_RNG, 3, 2, 2)
SPHMM = SphmmModel(
    _hmm(_RNG, 3, 1, 2),
    SuprasegmentalModel(_hmm(_RNG, 1, 2, 3), make_summary_map(3),
                        CompositeState(np.zeros(3), np.ones(3))),
    alpha=0.4,
)
PAIR = ObservationPair(_RNG.normal(size=(4, 2)), _RNG.normal(size=(2, 3)))

FILES = {
    "emvh": (_bytes(write_hmm, HMM), read_hmm),
    "emvs": (_bytes(write_sphmm, SPHMM), read_sphmm),
    "emvf": (_bytes(write_features, PAIR), read_features),
}


def _valid_hmm(model: HmmModel) -> bool:
    return not validate(model, variance_floor=0.0) and all(
        np.all(np.isfinite(em.means)) and np.all(em.variances > 0) for em in model.emissions
    )


def _valid(obj) -> bool:
    if isinstance(obj, HmmModel):
        return _valid_hmm(obj)
    if isinstance(obj, SphmmModel):
        comp = obj.prosodic.composite
        return (_valid_hmm(obj.acoustic) and _valid_hmm(obj.prosodic.hmm)
                and 0.0 <= obj.alpha <= 1.0 and np.all(np.isfinite(obj.log_priors))
                and (comp is None or (np.all(np.isfinite(comp.mean)) and np.all(comp.variance > 0))))
    return (isinstance(obj, ObservationPair) and obj.acoustic.ndim == obj.prosodic.ndim == 2
            and np.all(np.isfinite(obj.acoustic)) and np.all(np.isfinite(obj.prosodic)))


def _read_or_format_error(read, data: bytes) -> None:
    try:
        obj = read(io.BytesIO(data))
    except FormatError:
        return
    assert _valid(obj)


@pytest.mark.parametrize("kind", sorted(FILES))
def test_intact_file_reads_back_valid(kind):
    data, read = FILES[kind]
    assert _valid(read(io.BytesIO(data)))


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(max_examples=150, deadline=None)
@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_truncated_file_raises_format_error(kind, cut):
    data, read = FILES[kind]
    with pytest.raises(FormatError):
        read(io.BytesIO(data[: int(cut * len(data))]))


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(max_examples=300, deadline=None)
@given(position=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       bit=st.integers(min_value=0, max_value=7))
def test_bit_flip_reads_valid_or_raises_format_error(kind, position, bit):
    data, read = FILES[kind]
    flipped = bytearray(data)
    flipped[int(position * len(data))] ^= 1 << bit
    _read_or_format_error(read, bytes(flipped))


def _with_field(data: bytes, offset: int, value: int) -> bytes:
    out = bytearray(data)
    out[offset:offset + 4] = np.array([value], dtype="<u4").tobytes()
    return bytes(out)


def test_huge_state_count_is_a_format_error():
    # 8 * N * N wrapped around in uint32 arithmetic and failed in reshape
    data = _with_field(FILES["emvh"][0], 8, 2**31)
    with pytest.raises(FormatError, match="truncated"):
        read_hmm(io.BytesIO(data))


def test_huge_frame_count_is_a_format_error():
    data = _with_field(FILES["emvf"][0], 8, 2**30)
    with pytest.raises(FormatError, match="truncated"):
        read_features(io.BytesIO(data))


def _emvh_with(transitions=None, variances=None) -> bytes:
    model = _hmm(np.random.default_rng(3), 2, 1, 2)
    a = model.transitions if transitions is None else np.asarray(transitions, dtype=float)
    head = b"EMVH" + np.array([1, 2, 1, 2], dtype="<u4").tobytes()
    var = np.stack([em.variances for em in model.emissions]) if variances is None else variances
    return head + b"".join(np.asarray(x, dtype="<f8").tobytes() for x in (
        a, np.ones((2, 1)), np.zeros((2, 1, 2)), var))


@pytest.mark.parametrize("variance", [-1.0, 0.0, np.nan, np.inf])
def test_bad_variance_is_a_format_error(variance):
    var = np.ones((2, 1, 2))
    var[1, 0, 1] = variance
    with pytest.raises(FormatError):
        read_hmm(io.BytesIO(_emvh_with(variances=var)))


@pytest.mark.parametrize("transitions, problem", [
    ([[0.5, 0.6], [0.0, 1.0]], "sums to"),
    ([[1.0, 0.0], [0.5, 0.5]], "non-Bakis"),
])
def test_bad_transitions_are_a_format_error(transitions, problem):
    with pytest.raises(FormatError, match=problem):
        read_hmm(io.BytesIO(_emvh_with(transitions=transitions)))


def test_custom_variance_floor_models_still_load():
    var = np.full((2, 1, 2), 1e-7)  # below the default training floor
    model = read_hmm(io.BytesIO(_emvh_with(variances=var)))
    assert model.emissions[0].variances[0, 0] == 1e-7
