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
            CandidateSet("a", [s.keypoints, s.keypoints], [1.0, float("nan")])


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
        fs = (FsExample("f1", Skeleton(pts), ActionLabel.SOCCER),)
        with pytest.raises(
            ValueError,
            match="^invalid split: annotation for image 'f1' has a non-finite "
            "coordinate at joint L_KNEE$",
        ):
            DatasetSplit(fs=fs, ws=(), us=(), backgrounds=())
