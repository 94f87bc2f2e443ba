"""Binary storage for feature-stream pairs.

Layout: magic ``EMVF``, then format version, acoustic frame count T,
acoustic dim D, prosodic frame count T_p, prosodic dim D_p as little-endian
uint32, then the acoustic and prosodic matrices row-major as little-endian
float64.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .binio import read_array, read_exact, read_header
from .errors import FormatError
from .frontend import ObservationPair

_MAGIC = b"EMVF"
_VERSION = 1

FEATURE_SUFFIX = ".emvf"


def features_path(directory, utterance_id: str) -> Path:
    return Path(directory) / (utterance_id + FEATURE_SUFFIX)


def write_features(fp, pair: ObservationPair) -> None:
    t, d = pair.acoustic.shape
    tp, dp = pair.prosodic.shape
    fp.write(_MAGIC)
    fp.write(np.array([_VERSION, t, d, tp, dp], dtype="<u4").tobytes())
    fp.write(pair.acoustic.astype("<f8").tobytes())
    fp.write(pair.prosodic.astype("<f8").tobytes())


def read_features(fp, source=None) -> ObservationPair:
    magic = read_exact(fp, 4, "feature")
    if magic != _MAGIC:
        raise FormatError(f"bad feature magic {magic!r}")
    version, t, d, tp, dp = read_header(fp, 5, "feature")
    if version != _VERSION:
        raise FormatError(f"unsupported feature version {version}")
    acoustic = read_array(fp, (t, d), "feature")
    prosodic = read_array(fp, (tp, dp), "feature")
    try:
        return ObservationPair(acoustic, prosodic, source=source)
    except ValueError as exc:
        raise FormatError(f"invalid feature file: {exc}") from None


def save_features(pair: ObservationPair, path) -> None:
    with open(path, "wb") as fp:
        write_features(fp, pair)


def load_features(path, source=None) -> ObservationPair:
    with open(path, "rb") as fp:
        return read_features(fp, source=source)


class FeatureDir:
    """Mapping-style view of a directory of feature files, keyed by id."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def __getitem__(self, utterance_id: str) -> ObservationPair:
        path = features_path(self.directory, utterance_id)
        if not path.exists():
            raise KeyError(utterance_id)
        return load_features(path, source=utterance_id)

    def __contains__(self, utterance_id: str) -> bool:
        return features_path(self.directory, utterance_id).exists()
