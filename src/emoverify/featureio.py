"""Binary storage for feature-stream pairs.

Layout: magic ``EMVF``, then format version, acoustic frame count T,
acoustic dim D, prosodic frame count T_p, prosodic dim D_p as little-endian
uint32, then the acoustic and prosodic matrices row-major as little-endian
float64.
"""

from __future__ import annotations

from pathlib import Path

from .binio import exists, read_array, read_file, read_frame, write_file, write_frame
from .errors import EmoverifyError, FormatError
from .frontend import ObservationPair

_MAGIC = b"EMVF"
_VERSION = 1

FEATURE_SUFFIX = ".emvf"


def features_path(directory, utterance_id: str) -> Path:
    return Path(directory) / (utterance_id + FEATURE_SUFFIX)


def write_features(fp, pair: ObservationPair) -> None:
    write_frame(fp, _MAGIC, _VERSION, (*pair.acoustic.shape, *pair.prosodic.shape))
    fp.write(pair.acoustic.astype("<f8").tobytes())
    fp.write(pair.prosodic.astype("<f8").tobytes())


def read_features(fp) -> ObservationPair:
    t, d, tp, dp = read_frame(fp, _MAGIC, _VERSION, 4, "feature")
    acoustic = read_array(fp, (t, d), "feature")
    prosodic = read_array(fp, (tp, dp), "feature")
    try:
        return ObservationPair(acoustic, prosodic)
    except ValueError as exc:
        raise FormatError(f"invalid feature file: {exc}") from None


def save_features(pair: ObservationPair, path) -> None:
    write_file(path, lambda fp: write_features(fp, pair))


def load_features(path) -> ObservationPair:
    return read_file(path, read_features)


class FeatureDir:
    """Mapping-style view of a directory of feature files, keyed by id.
    Each file is read on its first lookup and its pair kept for the view's life."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self._pairs: dict[str, ObservationPair] = {}

    def __getitem__(self, utterance_id: str) -> ObservationPair:
        if utterance_id not in self._pairs:
            path = features_path(self.directory, utterance_id)
            if not exists(path):
                raise EmoverifyError(f"missing feature file {path}")
            self._pairs[utterance_id] = load_features(path)
        return self._pairs[utterance_id]
