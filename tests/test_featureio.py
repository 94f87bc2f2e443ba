"""Binary feature-file round trips and format guards."""

import io

import numpy as np
import pytest

from emoverify import featureio
from emoverify.errors import FormatError
from emoverify.featureio import (
    FeatureDir,
    features_path,
    load_features,
    read_features,
    save_features,
    write_features,
)
from emoverify.frontend import ObservationPair


def sample_pair(rng):
    return ObservationPair(rng.normal(size=(17, 13)), rng.normal(size=(2, 7)))


class TestRoundTrip:
    def test_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        pair = sample_pair(rng)
        p = features_path(tmp_path, "u1")
        save_features(pair, p)
        back = load_features(p)
        np.testing.assert_array_equal(back.acoustic, pair.acoustic)
        np.testing.assert_array_equal(back.prosodic, pair.prosodic)

    def test_path_naming(self, tmp_path):
        assert features_path(tmp_path, "abc").name == "abc.emvf"

    def test_bytes_deterministic(self):
        rng = np.random.default_rng(3)
        pair = sample_pair(rng)
        b1, b2 = io.BytesIO(), io.BytesIO()
        write_features(b1, pair)
        write_features(b2, pair)
        assert b1.getvalue() == b2.getvalue()


class TestGuards:
    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_features(io.BytesIO(b"WAVE" + b"\x00" * 40))

    def test_bad_version(self):
        buf = io.BytesIO()
        write_features(buf, ObservationPair(np.zeros((1, 2)), np.zeros((1, 2))))
        data = bytearray(buf.getvalue())
        data[4] = 99
        with pytest.raises(FormatError, match="version"):
            read_features(io.BytesIO(bytes(data)))

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(4)
        p = features_path(tmp_path, "u3")
        save_features(sample_pair(rng), p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_features(p)


class TestFeatureDir:
    def test_each_file_is_read_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        for uid in ("u0", "u1"):
            save_features(sample_pair(rng), features_path(tmp_path, uid))
        calls = []
        monkeypatch.setattr(featureio, "load_features",
                            lambda path: calls.append(path) or load_features(path))
        view = FeatureDir(tmp_path)
        first = view["u0"]
        assert view["u0"] is first
        view["u1"]
        view["u1"]
        assert calls == [features_path(tmp_path, "u0"), features_path(tmp_path, "u1")]
