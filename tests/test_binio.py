"""Binary file boundaries: every read returns a valid object or raises FormatError."""

import errno
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoverify import binio
from emoverify.errors import FormatError, ManifestError
from emoverify.featureio import load_features, read_features, write_features
from emoverify.frontend import ObservationPair
from emoverify.hmm import GmmEmission, HmmModel, load_hmm, read_hmm, save_hmm, validate, write_hmm
from emoverify.sphmm import (
    CompositeState,
    SphmmModel,
    SuprasegmentalModel,
    load_sphmm,
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


LOADERS = {"emvh": load_hmm, "emvs": load_sphmm, "emvf": load_features}


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
def test_loader_names_the_failing_file(kind, tmp_path):
    path = tmp_path / f"cut.{kind}"
    path.write_bytes(FILES[kind][0][:-3])
    with pytest.raises(FormatError, match="truncated") as info:
        LOADERS[kind](path)
    assert str(info.value).startswith(f"{path}: truncated ")


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(max_examples=300, deadline=None)
@given(position=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       bit=st.integers(min_value=0, max_value=7))
def test_bit_flip_reads_valid_or_raises_format_error(kind, position, bit):
    data, read = FILES[kind]
    flipped = bytearray(data)
    flipped[int(position * len(data))] ^= 1 << bit
    _read_or_format_error(read, bytes(flipped))


# each format's frame: magic, shape fields after the version, and the name
# its messages use
FRAMES = {
    "emvh": (b"EMVH", (3, 2, 2), "model"),
    "emvs": (b"EMVS", (3, 1, 3), "model"),
    "emvf": (b"EMVF", (4, 2, 2, 3), "feature"),
}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_writer_opens_with_the_frame(kind):
    magic, fields, _ = FRAMES[kind]
    head = magic + np.array([1, *fields], dtype="<u4").tobytes()
    assert FILES[kind][0][:len(head)] == head


@pytest.mark.parametrize("kind", sorted(FILES))
@pytest.mark.parametrize("position", range(4))
def test_changed_magic_byte_is_a_format_error(kind, position):
    data, read = FILES[kind]
    changed = bytearray(data)
    changed[position] ^= 0x20
    with pytest.raises(FormatError, match=f"bad {FRAMES[kind][2]} magic"):
        read(io.BytesIO(bytes(changed)))


@pytest.mark.parametrize("kind", sorted(FILES))
def test_other_version_is_a_format_error(kind):
    data, read = FILES[kind]
    with pytest.raises(FormatError, match=f"unsupported {FRAMES[kind][2]} version 2$"):
        read(io.BytesIO(_with_field(data, 4, 2)))


@pytest.mark.parametrize("kind", sorted(FILES))
@pytest.mark.parametrize("cut", [0, 3, 4, 9])
def test_short_frame_names_the_bytes_declared_and_left(kind, cut):
    data, read = FILES[kind]
    _, fields, what = FRAMES[kind]
    declared, left = (4, cut) if cut < 4 else (4 * (len(fields) + 1), cut - 4)
    with pytest.raises(FormatError) as info:
        read(io.BytesIO(data[:cut]))
    assert str(info.value) == f"truncated {what} file: {declared} bytes declared, {left} left"


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


def test_refused_save_leaves_no_file_and_keeps_an_old_one(tmp_path):
    # write_hmm refuses states with different component counts
    ragged = HmmModel(
        np.array([[0.5, 0.5], [0.0, 1.0]]),
        (GmmEmission([0.5, 0.5], np.zeros((2, 1)), np.ones((2, 1))),
         GmmEmission([1.0], np.zeros((1, 1)), np.ones((1, 1)))),
    )
    path = tmp_path / "model.emvh"
    with pytest.raises(ValueError):
        save_hmm(ragged, path)
    assert not path.exists()
    save_hmm(_hmm(np.random.default_rng(3), 2, 1, 1), path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_hmm(ragged, path)
    assert path.read_bytes() == before


def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "model.emvh"
    save_hmm(HMM, path)
    before = path.read_bytes()

    class DiskFull:
        """A file whose write stores one byte, then fails as a full disk does."""

        def __init__(self, fp):
            self.fp = fp

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fp.close()

        def write(self, data):
            self.fp.write(data[:1])
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = open
    monkeypatch.setattr(binio, "open", lambda *a, **k: DiskFull(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError) as caught:
        save_hmm(_hmm(np.random.default_rng(3), 2, 1, 1), path)
    assert caught.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.emvh"]


def test_write_makes_the_missing_directories_once_the_bytes_are_ready(tmp_path, monkeypatch):
    path = tmp_path / "a" / "b" / "out.csv"

    def refuse(fp):
        raise ValueError("refused")

    with pytest.raises(ValueError):
        binio.write_file(path, refuse)
    assert list(tmp_path.iterdir()) == []
    binio.write_text(path, "x\n")
    assert path.read_bytes() == b"x\n"
    monkeypatch.chdir(tmp_path)
    binio.write_text("here.csv", "y\n")  # a bare file name: its directory is the working one
    assert (tmp_path / "here.csv").read_bytes() == b"y\n"


def test_read_file_names_the_path_and_keeps_the_error_type(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"")

    def refuse(fp):
        raise ManifestError("bad row")

    with pytest.raises(ManifestError) as info:
        binio.read_file(path, refuse)
    assert str(info.value) == f"{path}: bad row"
