"""On-disk formats: pose records, score-map blobs, models, config."""
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseboot import fileio
from poseboot.heatmaps import Heatmap
from poseboot.skeleton import ActionLabel, JointId
from poseboot.svm import TrainSet, train


@pytest.fixture
def keypoints():
    return np.arange(28, dtype=float).reshape(14, 2)


class TestPoseRecords:
    def test_round_trip(self, tmp_path, keypoints):
        recs = [
            fileio.PoseRecord("a", keypoints, ActionLabel.TENNIS, score=0.5,
                              provenance="svm"),
            fileio.PoseRecord("b", keypoints * 2),
        ]
        path = tmp_path / "r.jsonl"
        fileio.write_pose_records(path, recs)
        assert list(fileio.read_pose_index(path).values()) == recs

    def test_candidate_sets_are_runs_of_one_image(self, tmp_path, keypoints):
        """Each run of one image's lines is its set, rows in file order; a
        missing score reads as 0, and a run with no action has actions None."""
        path = tmp_path / "r.jsonl"
        fileio.write_pose_records(path, [
            fileio.PoseRecord("a", keypoints, score=0.5),
            fileio.PoseRecord("a", keypoints * 2),
            fileio.PoseRecord("b", keypoints, ActionLabel.TENNIS),
        ])
        a, b = fileio.read_candidate_sets(path)
        assert (a.image_id, a.scores.tolist(), a.actions) == ("a", [0.5, 0.0], None)
        np.testing.assert_array_equal(a.keypoints, [keypoints, keypoints * 2])
        assert (b.image_id, b.scores.tolist(), b.actions) == ("b", [0.0], (ActionLabel.TENNIS,))

    def test_line_bytes(self, tmp_path):
        """Each coordinate is written as the shortest repr of its double,
        negative zero and subnormals included, in fixed key order."""
        kp = np.zeros((14, 2))
        kp[0] = (-0.0, 0.1)
        kp[1] = (5e-324, 1e22)
        kp[2] = (123456789.123, 3.0)
        path = tmp_path / "p.jsonl"
        fileio.write_pose_records(path, [fileio.PoseRecord("a", kp, ActionLabel.TENNIS, 0.5, "svm")])
        coords = ",".join(["[-0.0,0.1]", "[5e-324,1e+22]", "[123456789.123,3.0]"] + ["[0.0,0.0]"] * 11)
        assert path.read_text() == (
            f'{{"image_id":"a","keypoints":[{coords}],"action":"tennis","score":0.5,"provenance":"svm"}}\n'
        )

    def test_blank_lines_skipped(self, tmp_path, keypoints):
        path = tmp_path / "r.jsonl"
        fileio.write_pose_records(path, [fileio.PoseRecord("a", keypoints)])
        path.write_text(path.read_text() + "\n\n")
        assert len(fileio.read_pose_index(path)) == 1

    def test_error_messages_carry_line_numbers(self, tmp_path, keypoints):
        path = tmp_path / "r.jsonl"
        fileio.write_pose_records(path, [fileio.PoseRecord("a", keypoints)])
        good = path.read_text()
        path.write_text(good + "{not json\n")
        with pytest.raises(ValueError, match="line 2: invalid JSON"):
            list(fileio.read_candidate_sets(path))

    def test_missing_field_rejected(self, tmp_path):
        (tmp_path / "r.jsonl").write_text(json.dumps({"image_id": "a"}) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            list(fileio.read_candidate_sets(tmp_path / "r.jsonl"))

    def test_wrong_joint_count_rejected(self, tmp_path):
        rec = {"image_id": "a", "keypoints": [[0.0, 0.0]] * 13}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="14"):
            list(fileio.read_candidate_sets(tmp_path / "r.jsonl"))

    def test_unknown_action_rejected(self, tmp_path, keypoints):
        rec = {"image_id": "a", "keypoints": keypoints.tolist(), "action": "chess"}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            list(fileio.read_candidate_sets(tmp_path / "r.jsonl"))

    def test_non_finite_score_rejected(self, tmp_path, keypoints):
        rec = {"image_id": "a", "keypoints": keypoints.tolist(), "score": float("inf")}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            list(fileio.read_candidate_sets(tmp_path / "r.jsonl"))

    def test_boolean_score_rejected(self, tmp_path, keypoints):
        rec = {"image_id": "a", "keypoints": keypoints.tolist(), "score": True}
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError) as e:
            list(fileio.read_candidate_sets(path))
        assert str(e.value) == f"{path}: line 1: score must be numeric"

    def test_invalid_utf8_names_the_line(self, tmp_path):
        data = _valid_pose_bytes().splitlines(keepends=True)
        data[1] = data[1].replace(b"bg_002", b"bg_\xff02")
        (tmp_path / "r.jsonl").write_bytes(b"".join(data))
        with pytest.raises(ValueError, match="line 2: invalid UTF-8 at byte 16"):
            list(fileio.read_candidate_sets(tmp_path / "r.jsonl"))

    def test_non_string_action_rejected(self, tmp_path, keypoints):
        rec = {"image_id": "a", "keypoints": keypoints.tolist(), "action": 5}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="line 1: action must be a string"):
            list(fileio.read_candidate_sets(tmp_path / "r.jsonl"))

    def test_skeleton_view(self, keypoints):
        rec = fileio.PoseRecord("a", keypoints)
        np.testing.assert_array_equal(rec.skeleton().keypoints, keypoints)


class TestHeatmapBlobs:
    def test_round_trip_multiple_maps(self, tmp_path, rng):
        h1 = Heatmap(JointId.HEAD, rng.uniform(0, 1, (5, 7)), stride=4.0,
                     origin=(1.5, 2.5))
        h2 = Heatmap(JointId.R_ANKLE, rng.uniform(0, 1, (3, 4)))
        path = tmp_path / "m.hm"
        fileio.write_heatmaps(path, [h1, h2])
        back = fileio.read_heatmaps(path)
        assert [h.joint for h in back] == [JointId.HEAD, JointId.R_ANKLE]
        np.testing.assert_allclose(back[0].grid, h1.grid, atol=1e-7)
        assert back[0].stride == 4.0 and back[0].origin == (1.5, 2.5)

    def test_single_map_accepted(self, tmp_path, rng):
        h = Heatmap(JointId.NECK, rng.uniform(0, 1, (4, 4)))
        fileio.write_heatmaps(tmp_path / "m.hm", [h])
        assert len(fileio.read_heatmaps(tmp_path / "m.hm")) == 1

    def test_concatenated_files_stream(self, tmp_path, rng):
        """Two blob files appended byte-wise read back as all their maps."""
        a, b = tmp_path / "a.hm", tmp_path / "b.hm"
        fileio.write_heatmaps(a, [Heatmap(JointId.HEAD, rng.uniform(0, 1, (3, 3)))])
        fileio.write_heatmaps(b, [Heatmap(JointId.NECK, rng.uniform(0, 1, (2, 2)))])
        cat = tmp_path / "cat.hm"
        cat.write_bytes(a.read_bytes() + b.read_bytes())
        assert [h.joint for h in fileio.read_heatmaps(cat)] == [
            JointId.HEAD, JointId.NECK,
        ]

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "m.hm").write_bytes(b"NOTMAGIC" + b"\0" * 40)
        with pytest.raises(ValueError, match="magic"):
            fileio.read_heatmaps(tmp_path / "m.hm")

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "m.hm"
        fileio.write_heatmaps(path, [Heatmap(JointId.HEAD, rng.uniform(0, 1, (4, 4)))])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            fileio.read_heatmaps(path)

    def test_unknown_joint_id_rejected(self, tmp_path, rng):
        path = tmp_path / "m.hm"
        fileio.write_heatmaps(path, [Heatmap(JointId.HEAD, rng.uniform(0, 1, (2, 2)))])
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 99)  # joint field follows the magic
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="joint"):
            fileio.read_heatmaps(path)

    @pytest.mark.parametrize(
        "field_offset, value, named",
        [(20, float("nan"), "stride must be finite and positive"),
         (28, float("inf"), "origin must be finite")],
    )
    def test_bad_second_header_names_its_offset(self, tmp_path, field_offset, value, named):
        data = bytearray(_valid_heatmap_bytes())
        second = data.index(b"PBHMAP01", 1)
        struct.pack_into("<d", data, second + field_offset, value)
        (tmp_path / "m.hm").write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"heatmap at offset {second}: {named}"):
            fileio.read_heatmaps(tmp_path / "m.hm")

    @pytest.mark.parametrize(
        "bits",
        [0x7F800001, 0x7FC00000, 0x7F800000, 0xFF800000],
        ids=["signalling-nan", "quiet-nan", "+inf", "-inf"],
    )
    def test_non_finite_cell_names_its_offset(self, tmp_path, bits):
        """A NaN or infinite float32 cell, in the first map or the second, is
        rejected by the range check and named by its map's offset. Widening
        a signalling NaN raises NumPy's invalid flag, which is not an error."""
        data = _valid_heatmap_bytes()
        second = data.index(b"PBHMAP01", 1)
        # the first map's last cell, then the second map's first
        for cell, offset in ((second - 4, 0), (second + fileio._HM_HEADER.size, second)):
            bad = bytearray(data)
            struct.pack_into("<I", bad, cell, bits)
            (tmp_path / "m.hm").write_bytes(bytes(bad))
            named = f"^heatmap at offset {offset}: grid values must lie in"
            with pytest.raises(ValueError, match=named):
                fileio.read_heatmaps(tmp_path / "m.hm")


class TestModelBlob:
    def test_round_trip(self, tmp_path, rng):
        X = rng.normal(size=(20, 5))
        y = np.where(X[:, 0] + X[:, 2] > 0, 1.0, -1.0)
        m = train(TrainSet(X, y), reg=0.7, tol=1e-6, max_iter=1000)
        fileio.save_svm_model(tmp_path / "m.svm", m)
        back = fileio.load_svm_model(tmp_path / "m.svm")
        np.testing.assert_array_equal(back.weights, m.weights)
        np.testing.assert_array_equal(back.mean, m.mean)
        np.testing.assert_array_equal(back.std, m.std)
        assert back.bias == m.bias and back.reg == m.reg

    def test_file_length_is_exact(self, tmp_path, rng):
        X = rng.normal(size=(10, 5))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        m = train(TrainSet(X, y), tol=1e-4, max_iter=1000)
        fileio.save_svm_model(tmp_path / "m.svm", m)
        # header (magic + dim + reg) + 3 arrays of dim doubles + bias
        assert (tmp_path / "m.svm").stat().st_size == 20 + 8 * (3 * 5 + 1)

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        X = rng.normal(size=(10, 3))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        fileio.save_svm_model(tmp_path / "m.svm", train(TrainSet(X, y), tol=1e-4, max_iter=1000))
        with open(tmp_path / "m.svm", "ab") as f:
            f.write(b"xx")
        with pytest.raises(ValueError):
            fileio.load_svm_model(tmp_path / "m.svm")


class TestConfig:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# setup\nreg = 2.5\niters=300\nscheme=weakC\naudit=true\n\n")
        cfg = fileio.load_config(p)
        assert cfg == {"reg": "2.5", "iters": "300", "scheme": "weakC", "audit": "true"}

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("reg=1.0\nnot a pair\n")
        with pytest.raises(ValueError, match="line 2"):
            fileio.load_config(p)


class TestAtomicWrite:
    def test_failure_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "out.txt"

        with pytest.raises(TypeError):
            fileio.atomic_write(target, object())  # not bytes/str: write blows up
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        fileio.atomic_write(target, "one")
        fileio.atomic_write(target, "two")
        assert target.read_text() == "two"

    def test_chunks_are_written_in_order(self, tmp_path):
        target = tmp_path / "out.txt"
        fileio.atomic_write(target, (c for c in ["é,", b"two,", "three"]))
        assert target.read_text(encoding="utf-8") == "é,two,three"

    def test_failure_midway_through_chunks_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        fileio.atomic_write(target, "old")

        def chunks():
            yield "new"
            raise ValueError("bad image")

        with pytest.raises(ValueError, match="bad image"):
            fileio.atomic_write(target, chunks())
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]


def _valid_pose_bytes() -> bytes:
    kp = np.arange(28, dtype=float).reshape(14, 2) * 1.5 + 0.25
    recs = [
        fileio.PoseRecord("a_001", kp, ActionLabel.TENNIS, score=0.5, provenance="svm"),
        fileio.PoseRecord("bg_002", kp[::-1], score=1e-3),
        fileio.PoseRecord("c", kp + 100.0, ActionLabel.GYMNASTICS),
    ]
    return "".join(json.dumps(r.to_dict(), separators=(",", ":")) + "\n" for r in recs).encode()


def _valid_heatmap_bytes() -> bytes:
    g = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    maps = [
        Heatmap(JointId.HEAD, g, stride=4.0, origin=(1.5, -2.5)),
        Heatmap(JointId.R_ANKLE, g[:2, :2] * 0.5),
    ]
    return b"".join(fileio._pack_heatmap(h) for h in maps)


@st.composite
def _damaged(draw, data: bytes) -> bytes:
    """The file cut at some length, then up to 8 bytes overwritten."""
    buf = bytearray(data[: draw(st.integers(0, len(data)))])
    if buf:
        for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(buf) - 1),
                                                 st.integers(0, 255)), max_size=8)):
            buf[pos] = byte
    return bytes(buf)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestReadersUnderDamage:
    """A damaged file either parses or raises a ValueError naming where."""

    @settings(max_examples=300, deadline=None)
    @given(_damaged(_valid_pose_bytes()))
    def test_pose_records(self, fuzz_dir, data):
        path = fuzz_dir / "r.jsonl"
        path.write_bytes(data)
        try:
            list(fileio.read_candidate_sets(path))
        except ValueError as e:
            assert re.search(r"\bline \d+", str(e)), str(e)

    @settings(max_examples=300, deadline=None)
    @given(_damaged(_valid_heatmap_bytes()))
    def test_heatmaps(self, fuzz_dir, data):
        path = fuzz_dir / "m.hm"
        path.write_bytes(data)
        try:
            fileio.read_heatmaps(path)
        except ValueError as e:
            assert re.search(r"\boffset \d+", str(e)), str(e)
