"""Skeleton model, action labels, and dataset-split validation."""
import numpy as np
import pytest

from poseboot.skeleton import (
    LIMBS,
    N_JOINTS,
    ActionLabel,
    CandidateSet,
    DatasetSplit,
    FsExample,
    JointId,
    Skeleton,
    WsExample,
    torso_lengths,
)

from _oracles import torso_length_per_pose
from conftest import random_skeleton


class TestJointLayout:
    def test_fourteen_joints(self):
        assert N_JOINTS == 14
        assert len(list(JointId)) == 14
        assert JointId.HEAD == 0 and JointId.R_ANKLE == 13

    def test_limbs_form_a_tree(self):
        """13 edges over 14 joints, connected, acyclic."""
        assert len(LIMBS) == 13
        parent = list(range(N_JOINTS))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in LIMBS:
            ra, rb = find(int(a)), find(int(b))
            assert ra != rb, "limb list contains a cycle"
            parent[ra] = rb
        assert len({find(i) for i in range(N_JOINTS)}) == 1


class TestSkeleton:
    def test_keypoints_copied_and_frozen(self, rng):
        pts = rng.uniform(0, 100, (14, 2))
        s = Skeleton(pts)
        pts[0, 0] = -1.0
        assert s.keypoints[0, 0] != -1.0
        with pytest.raises(ValueError):
            s.keypoints[0, 0] = 5.0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Skeleton(np.zeros((13, 2)))
        with pytest.raises(ValueError):
            Skeleton(np.zeros((14, 3)))

    def test_limb_lengths_match_direct_norms(self, rng):
        s = random_skeleton(rng)
        lengths = s.limb_lengths()
        for k, (a, b) in enumerate(LIMBS):
            expect = np.linalg.norm(s.keypoints[a] - s.keypoints[b])
            assert lengths[k] == pytest.approx(expect)

    def test_torso_length_neck_to_hip_midpoint(self, rng):
        pts = np.zeros((14, 2))
        pts[JointId.NECK] = (0.0, 0.0)
        pts[JointId.L_HIP] = (-2.0, 8.0)
        pts[JointId.R_HIP] = (2.0, 8.0)
        assert torso_lengths(pts[None])[0] == pytest.approx(8.0)
        # each row is its own norm, to the last bit
        many = rng.normal(0.0, 50.0, size=(300, N_JOINTS, 2))
        assert torso_lengths(many).tolist() == [torso_length_per_pose(p) for p in many]


class TestActionLabel:
    def test_eight_actions(self):
        assert len(list(ActionLabel)) == 8

    def test_parse_round_trip(self):
        for a in ActionLabel:
            assert ActionLabel.parse(a.value) is a

    def test_parse_alias_and_unknown(self):
        assert ActionLabel.parse("parkour") is ActionLabel.GYMNASTICS
        with pytest.raises(ValueError):
            ActionLabel.parse("snooker")


class TestCandidateSet:
    def test_rejects_non_finite_score(self, rng):
        s = random_skeleton(rng)
        with pytest.raises(ValueError, match="candidate score must be finite"):
            CandidateSet.from_keypoints("a", [s.keypoints, s.keypoints], [1.0, float("nan")])

    def test_rejects_degenerate_torso_naming_the_first_row(self, rng):
        kp = np.stack([random_skeleton(rng).keypoints for _ in range(4)])
        kp[[1, 3], JointId.NECK] = 0.5 * (kp[[1, 3], JointId.L_HIP] + kp[[1, 3], JointId.R_HIP])
        with pytest.raises(
            ValueError, match="^image 'a': cannot normalize: degenerate torso in row 1$"
        ):
            CandidateSet.from_keypoints("a", kp, np.zeros(4))

    def test_positions_are_held_once_and_rows_keep_their_bits(self, rng):
        kp = np.stack([random_skeleton(rng).keypoints for _ in range(2)] * 3)
        kp[1, JointId.HEAD] = -0.0
        kp[3, JointId.HEAD] = 0.0
        cands = CandidateSet.from_keypoints("a", kp, np.zeros(6))
        assert cands.points.shape == (30, 2) and cands.index.dtype == np.uint8
        assert cands.keypoints.tobytes() == kp.tobytes()  # -0.0 and 0.0 stay apart
        assert cands.take(3).tobytes() == kp[3].tobytes()
        assert cands.take([5, 0]).tobytes() == kp[[5, 0]].tobytes()
        assert not cands.points.flags.writeable and not cands.index.flags.writeable

    def test_index_takes_the_smallest_unsigned_dtype(self, rng):
        """uint8 holds the indices of 256 points, and 257 need uint16."""
        points = rng.uniform(10.0, 150.0, (257, 2))
        index = np.arange(14 * 18).reshape(18, 14)
        assert CandidateSet("a", points[:256], index, np.zeros(18)).index.dtype == np.uint8
        assert CandidateSet("a", points, index, np.zeros(18)).index.dtype == np.uint16

    @pytest.mark.parametrize("bad", [-1, 30])
    def test_index_outside_the_points_is_rejected(self, rng, bad):
        index = np.arange(14).reshape(1, 14) + np.zeros((2, 1), dtype=int)
        index[1, 3] = bad
        with pytest.raises(ValueError, match=r"index must lie in \[0, 30\)"):
            CandidateSet("a", rng.uniform(10.0, 150.0, (30, 2)), index, np.zeros(2))


class TestValidateSplit:
    def _split(self, rng, ws_ids=("w1", "w2"), fs_ids=("f1",), us=("u1",),
               backgrounds=("b1",)):
        fs = tuple(
            FsExample(i, random_skeleton(rng), ActionLabel.ATHLETICS) for i in fs_ids
        )
        ws = tuple(WsExample(i, ActionLabel.TENNIS) for i in ws_ids)
        return DatasetSplit(fs=fs, ws=ws, us=tuple(us), backgrounds=tuple(backgrounds))

    def test_clean_split_passes(self, rng):
        split = self._split(rng)
        assert split.fs_ids() == ("f1",) and split.ws_ids() == ("w1", "w2")

    def test_overlap_between_sets_reported(self, rng):
        with pytest.raises(ValueError, match="^invalid split: image 'u1' is in both ws and us$"):
            self._split(rng, ws_ids=("w1", "u1"))

    def test_duplicate_within_set_reported(self, rng):
        with pytest.raises(ValueError, match="^invalid split: image 'w1' appears twice in ws$"):
            self._split(rng, ws_ids=("w1", "w1"))

    def test_non_finite_annotation_names_the_joint(self, rng):
        pts = rng.uniform(0, 10, (14, 2))
        pts[int(JointId.L_KNEE), 0] = np.inf
        with pytest.raises(
            ValueError,
            match="^annotation for image 'f1' has a non-finite coordinate at joint L_KNEE$",
        ):
            FsExample("f1", Skeleton(pts), ActionLabel.SOCCER)

    def test_degenerate_torso_annotation_names_the_image(self, rng):
        pts = rng.uniform(0, 10, (14, 2))
        pts[int(JointId.NECK)] = 0.5 * (pts[int(JointId.L_HIP)] + pts[int(JointId.R_HIP)])
        with pytest.raises(
            ValueError,
            match="^annotation for image 'f1' has a degenerate torso: "
            "its neck is on its hip midpoint$",
        ):
            FsExample("f1", Skeleton(pts), ActionLabel.SOCCER)
