"""Manifest parsing, validation, splitting, and the factorial factory."""

import pytest

from emoverify.errors import ManifestError
from emoverify.manifest import (
    AudioFormat,
    CorpusManifest,
    UtteranceRef,
    grid_manifest,
    load_manifest,
    save_manifest,
)

MINIMAL = """\
#emotions:neutral,angry
#audio:16000,16
id,source,speaker,emotion,sentence_group,repetition,split,role
u1,x.wav,s1,neutral,1,1,train,claimant
u2,x.wav,s1,angry,1,1,train,claimant
u3,y.wav,s2,neutral,2,1,test,claimant
u4,y.wav,s2,angry,2,1,test,imposter
"""


def write(tmp_path, text, name="m.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8", newline="\n")
    return p


class TestLoad:
    def test_minimal_manifest(self, tmp_path):
        m = load_manifest(write(tmp_path, MINIMAL.replace("u4,y.wav,s2,angry,2,1,test,imposter\n", "")))
        assert m.n_emotions == 2
        assert m.emotion_set == ("neutral", "angry")
        assert m.speakers == ("s1", "s2")
        assert m.audio_format == AudioFormat(16000, 16)
        assert len(m.utterances) == 3

    def test_undeclared_emotion_names_row(self, tmp_path):
        bad = MINIMAL.replace("u3,y.wav,s2,neutral", "u3,y.wav,s2,bored")
        with pytest.raises(ManifestError, match=r"line 6.*bored"):
            load_manifest(write(tmp_path, bad))

    def test_conflicting_role_rejected(self, tmp_path):
        with pytest.raises(ManifestError, match=r"line 7.*both"):
            load_manifest(write(tmp_path, MINIMAL))

    def test_duplicate_id_rejected(self, tmp_path):
        bad = MINIMAL.replace("u2,x.wav,s1,angry", "u1,x.wav,s1,angry").replace(
            "u4,y.wav,s2,angry,2,1,test,imposter\n", ""
        )
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(write(tmp_path, bad))

    @pytest.mark.parametrize("uid", ["../x", "a/b", "..", "", ".", "a\\b"])
    def test_id_that_is_not_a_plain_file_name_rejected(self, tmp_path, uid):
        # the id names the utterance's feature file, so it must not leave its directory
        bad = MINIMAL.replace("u1,x.wav", f"{uid},x.wav").replace("s2,angry,2,1,test,imposter",
                                                                   "s2,angry,2,1,test,claimant")
        with pytest.raises(ManifestError, match="is not a plain file name"):
            load_manifest(write(tmp_path, bad))

    def test_missing_emotions_pragma(self, tmp_path):
        bad = MINIMAL.split("\n", 1)[1]
        with pytest.raises(ManifestError, match="#emotions"):
            load_manifest(write(tmp_path, bad))

    def test_bad_header(self, tmp_path):
        bad = MINIMAL.replace("id,source", "id;source")
        with pytest.raises(ManifestError, match="line 3.*header"):
            load_manifest(write(tmp_path, bad))

    def test_bad_column_count(self, tmp_path):
        bad = MINIMAL.replace("u2,x.wav,s1,angry,1,1,train,claimant", "u2,x.wav,s1")
        with pytest.raises(ManifestError, match="line 5.*columns"):
            load_manifest(write(tmp_path, bad))

    def test_bad_integer_column(self, tmp_path):
        bad = MINIMAL.replace("u1,x.wav,s1,neutral,1,1", "u1,x.wav,s1,neutral,one,1")
        with pytest.raises(ManifestError, match="line 4.*integer"):
            load_manifest(write(tmp_path, bad))

    def test_bad_audio_pragma(self, tmp_path):
        bad = MINIMAL.replace("#audio:16000,16", "#audio:fast")
        with pytest.raises(ManifestError, match="line 2.*audio"):
            load_manifest(write(tmp_path, bad))

    def test_round_trip_is_byte_identical(self, tmp_path):
        good = MINIMAL.replace("u4,y.wav,s2,angry,2,1,test,imposter", "u4,y.wav,s3,angry,2,1,test,imposter")
        p1 = write(tmp_path, good)
        m = load_manifest(p1)
        p2 = tmp_path / "again.csv"
        save_manifest(m, p2)
        save_manifest(load_manifest(p2), tmp_path / "thrice.csv")
        assert p2.read_bytes() == (tmp_path / "thrice.csv").read_bytes()


class TestValidation:
    def test_single_emotion_rejected(self):
        with pytest.raises(ManifestError, match="at least 2"):
            CorpusManifest(("neutral",), (), {})

    @pytest.mark.parametrize("uid", ["../x", "a/b", "..", ""])
    def test_id_that_is_not_a_plain_file_name_rejected(self, uid):
        u = UtteranceRef(uid, "x", "s1", "neutral", 1, 1, "train")
        with pytest.raises(ManifestError, match="is not a plain file name"):
            CorpusManifest(("neutral", "angry"), (u,), {"s1": "claimant"})

    def test_unknown_split_rejected(self):
        u = UtteranceRef("u1", "x", "s1", "neutral", 1, 1, "dev")
        with pytest.raises(ManifestError, match="split"):
            CorpusManifest(("neutral", "angry"), (u,), {"s1": "claimant"})


class TestSplit:
    """grid_manifest's train_groups: every sentence group lands in one split."""

    def test_first_four_of_eight(self):
        out = grid_manifest(n_speakers=2, n_groups=8, n_reps=1, train_groups={1, 2, 3, 4})
        test_groups = {u.sentence_group for u in out.subset(split="test")}
        assert test_groups == {5, 6, 7, 8}
        train_groups = {u.sentence_group for u in out.subset(split="train")}
        assert train_groups == {1, 2, 3, 4}

    def test_partition_no_group_in_both(self):
        out = grid_manifest(n_speakers=3, n_groups=5, n_reps=2, train_groups={2, 4})
        both = {u.sentence_group for u in out.subset(split="train")} & {
            u.sentence_group for u in out.subset(split="test")
        }
        assert both == set()
        assert len(out.subset(split="train")) + len(out.subset(split="test")) == len(
            out.utterances
        )

    def test_sizes_proportional_to_group_population(self):
        out = grid_manifest(n_speakers=2, n_groups=2, n_reps=3, train_groups={1})
        assert len(out.subset(split="train")) == len(out.subset(split="test"))


class TestGrid:
    def test_full_protocol_counts(self):
        m = grid_manifest(n_speakers=40, n_groups=8, n_reps=9, n_claimants=34)
        assert len(m.utterances) == 17280
        assert len(m.subset(split="test")) == 8640
        for emotion in m.emotion_set:
            assert len(m.subset(split="train", emotion=emotion)) == 1440
        assert len(m.claimants) == 34
        assert len(m.imposters) == 6
        assert set(m.claimants) & set(m.imposters) == set()

    def test_ids_unique_and_ordered(self):
        m = grid_manifest(n_speakers=3, n_groups=2, n_reps=2)
        ids = [u.id for u in m.utterances]
        assert len(set(ids)) == len(ids)
        assert ids[0] == "s1_neutral_g1_r1"
