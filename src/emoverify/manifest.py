"""Corpus manifests: utterance coordinates, roles, and train/test splits.

The on-disk format is line-based UTF-8: two pragma lines (ordered emotion
set, optional audio format), a fixed header, then one comma-separated row
per utterance.  Saving a loaded manifest reproduces the file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ManifestError

DEFAULT_EMOTIONS = ("neutral", "angry", "sad", "happy", "disgust", "fear")

SPLITS = ("train", "test")
ROLES = ("claimant", "imposter")

_EMOTIONS_PRAGMA = "#emotions:"
_AUDIO_PRAGMA = "#audio:"
_HEADER = "id,source,speaker,emotion,sentence_group,repetition,split,role"
GRID_SOURCE = "synthetic"  # the source column of every grid_manifest row


@dataclass(frozen=True)
class AudioFormat:
    sample_rate: int = 16000
    bit_depth: int = 16

    def __post_init__(self):
        if self.sample_rate <= 0 or self.bit_depth <= 0:
            raise ManifestError("audio format values must be positive")


@dataclass(frozen=True)
class UtteranceRef:
    """One utterance's coordinates: who said it, how, and which split."""

    id: str
    source: str
    speaker_id: str
    emotion: str
    sentence_group: int
    repetition: int
    split: str


@dataclass(frozen=True)
class CorpusManifest:
    """Validated corpus description.

    emotion_set is ordered; downstream tie-breaks and report rows follow
    this order.  speakers maps each speaker id to its role and preserves
    first-appearance order.
    """

    emotion_set: tuple[str, ...]
    utterances: tuple[UtteranceRef, ...]
    roles: dict[str, str] = field(default_factory=dict)
    audio_format: AudioFormat = AudioFormat()

    def __post_init__(self):
        object.__setattr__(self, "emotion_set", tuple(self.emotion_set))
        object.__setattr__(self, "utterances", tuple(self.utterances))
        _validate(self)

    @property
    def n_emotions(self) -> int:
        return len(self.emotion_set)

    @property
    def speakers(self) -> tuple[str, ...]:
        return tuple(self.roles)

    @property
    def claimants(self) -> tuple[str, ...]:
        return tuple(s for s, r in self.roles.items() if r == "claimant")

    @property
    def imposters(self) -> tuple[str, ...]:
        return tuple(s for s, r in self.roles.items() if r == "imposter")

    def subset(self, split: str | None = None, speaker: str | None = None,
               emotion: str | None = None) -> tuple[UtteranceRef, ...]:
        out = self.utterances
        if split is not None:
            out = tuple(u for u in out if u.split == split)
        if speaker is not None:
            out = tuple(u for u in out if u.speaker_id == speaker)
        if emotion is not None:
            out = tuple(u for u in out if u.emotion == emotion)
        return out


def _validate(manifest: CorpusManifest) -> None:
    if len(manifest.emotion_set) < 2:
        raise ManifestError("emotion set must name at least 2 emotions")
    if len(set(manifest.emotion_set)) != len(manifest.emotion_set):
        raise ManifestError("emotion set contains duplicates")
    for role in manifest.roles.values():
        if role not in ROLES:
            raise ManifestError(f"unknown role {role!r}")
    seen: set[str] = set()
    for u in manifest.utterances:
        if u.id in ("", ".", "..") or "/" in u.id or "\\" in u.id:
            raise ManifestError(f"utterance id {u.id!r} is not a plain file name")
        if u.id in seen:
            raise ManifestError(f"duplicate utterance id {u.id!r}")
        seen.add(u.id)
        if u.emotion not in manifest.emotion_set:
            raise ManifestError(
                f"utterance {u.id!r}: emotion {u.emotion!r} not in declared set"
            )
        if u.split not in SPLITS:
            raise ManifestError(f"utterance {u.id!r}: unknown split {u.split!r}")
        if u.speaker_id not in manifest.roles:
            raise ManifestError(f"utterance {u.id!r}: speaker {u.speaker_id!r} has no role")
        if u.sentence_group < 1 or u.repetition < 1:
            raise ManifestError(
                f"utterance {u.id!r}: sentence_group and repetition must be >= 1"
            )


def load_manifest(path) -> CorpusManifest:
    """Parse and validate a manifest file; errors carry 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as fp:
        lines = fp.read().splitlines()

    emotions: tuple[str, ...] | None = None
    audio = AudioFormat()
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        line = lines[idx]
        if line.startswith(_EMOTIONS_PRAGMA):
            emotions = tuple(
                e.strip() for e in line[len(_EMOTIONS_PRAGMA):].split(",") if e.strip()
            )
        elif line.startswith(_AUDIO_PRAGMA):
            parts = line[len(_AUDIO_PRAGMA):].split(",")
            try:
                audio = AudioFormat(int(parts[0]), int(parts[1]))
            except (ValueError, IndexError):
                raise ManifestError(f"line {idx + 1}: bad audio pragma {line!r}") from None
        else:
            raise ManifestError(f"line {idx + 1}: unknown pragma {line!r}")
        idx += 1
    if emotions is None:
        raise ManifestError("missing #emotions: pragma before the header")
    if idx >= len(lines) or lines[idx] != _HEADER:
        raise ManifestError(f"line {idx + 1}: expected header {_HEADER!r}")
    idx += 1

    utterances = []
    roles: dict[str, str] = {}
    for lineno in range(idx, len(lines)):
        line = lines[lineno]
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise ManifestError(f"line {lineno + 1}: expected 8 columns, got {len(parts)}")
        uid, source, speaker, emotion, group, rep, split, role = parts
        try:
            group_i, rep_i = int(group), int(rep)
        except ValueError:
            raise ManifestError(
                f"line {lineno + 1}: sentence_group and repetition must be integers"
            ) from None
        if emotion not in emotions:
            raise ManifestError(
                f"line {lineno + 1}: emotion {emotion!r} not in declared set"
            )
        if role not in ROLES:
            raise ManifestError(f"line {lineno + 1}: unknown role {role!r}")
        if speaker in roles and roles[speaker] != role:
            raise ManifestError(
                f"line {lineno + 1}: speaker {speaker!r} listed as both "
                f"{roles[speaker]} and {role}"
            )
        roles.setdefault(speaker, role)
        utterances.append(
            UtteranceRef(uid, source, speaker, emotion, group_i, rep_i, split)
        )
    try:
        return CorpusManifest(emotions, tuple(utterances), roles, audio)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def save_manifest(manifest: CorpusManifest, path) -> None:
    """Write the canonical text form (LF line endings, no padding)."""
    lines = [
        _EMOTIONS_PRAGMA + ",".join(manifest.emotion_set),
        _AUDIO_PRAGMA + f"{manifest.audio_format.sample_rate},{manifest.audio_format.bit_depth}",
        _HEADER,
    ]
    for u in manifest.utterances:
        lines.append(
            f"{u.id},{u.source},{u.speaker_id},{u.emotion},"
            f"{u.sentence_group},{u.repetition},{u.split},{manifest.roles[u.speaker_id]}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("\n".join(lines) + "\n")


def grid_manifest(
    n_speakers: int = 40,
    emotion_set: tuple[str, ...] = DEFAULT_EMOTIONS,
    n_groups: int = 8,
    n_reps: int = 9,
    train_groups=(1, 2, 3, 4),
    n_claimants: int | None = None,
) -> CorpusManifest:
    """Full factorial manifest: every speaker utters every sentence group in
    every emotion, repeated n_reps times.  The first n_claimants speakers
    are claimants, the rest imposters (default: all claimants).
    """
    if n_claimants is None:
        n_claimants = n_speakers
    if not 0 < n_claimants <= n_speakers:
        raise ManifestError("n_claimants must be in 1..n_speakers")
    train = frozenset(train_groups)
    width = len(str(n_speakers))
    roles = {}
    utterances = []
    for s in range(1, n_speakers + 1):
        speaker = f"s{s:0{width}d}"
        roles[speaker] = "claimant" if s <= n_claimants else "imposter"
        for emotion in emotion_set:
            for g in range(1, n_groups + 1):
                split = "train" if g in train else "test"
                for r in range(1, n_reps + 1):
                    uid = f"{speaker}_{emotion}_g{g}_r{r}"
                    utterances.append(
                        UtteranceRef(uid, GRID_SOURCE, speaker, emotion, g, r, split)
                    )
    return CorpusManifest(tuple(emotion_set), tuple(utterances), roles)
