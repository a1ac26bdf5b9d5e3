"""Limb/keypoint correctness measures and selection precision/recall."""
import numpy as np
import pytest

from poseboot import metrics
from poseboot.metrics import (
    ReferenceLength,
    format_pck_table,
    pck_correct,
    pck_report,
    pcp_correct,
    selection_stats,
)
from poseboot.skeleton import (
    LIMBS,
    ActionLabel,
    CandidateSet,
    JointId,
    Skeleton,
)

from conftest import random_skeleton


def displaced(gt: Skeleton, joint: JointId, dx: float, dy: float = 0.0) -> Skeleton:
    pts = gt.keypoints.copy()
    pts[int(joint)] += (dx, dy)
    return Skeleton(pts)


class TestPcp:
    def test_identity_all_correct(self, rng):
        gt = random_skeleton(rng)
        flags, all_ok = pcp_correct(gt, gt, eps=0.7)
        assert flags.shape == (13,)
        assert flags.all() and all_ok

    def test_displacement_above_threshold_fails_that_limb(self, rng):
        gt = random_skeleton(rng)
        limb = LIMBS.index((JointId.L_ELBOW, JointId.L_WRIST))
        forearm = gt.limb_lengths()[limb]
        est = displaced(gt, JointId.L_WRIST, 0.71 * forearm)
        flags, all_ok = pcp_correct(gt, est, eps=0.7)
        assert not flags[limb]
        assert not all_ok

    def test_half_length_displacements_all_pass_at_07(self, rng):
        gt = random_skeleton(rng)
        lengths = gt.limb_lengths()
        pts = gt.keypoints.copy()
        for j in range(14):
            incident = [lengths[k] for k, (a, b) in enumerate(LIMBS) if j in (a, b)]
            pts[j] += (0.5 * min(incident) / np.sqrt(2),) * 2
        flags, all_ok = pcp_correct(gt, Skeleton(pts), eps=0.7)
        assert all_ok, flags

    def test_boundary_is_inclusive(self):
        """Endpoint error exactly eps * length counts as correct."""
        pts = np.zeros((14, 2))
        pts[:, 0] = np.arange(14) * 10.0
        gt = Skeleton(pts)
        limb = 0
        a, b = LIMBS[limb]
        length = gt.limb_lengths()[limb]
        est = displaced(gt, a, 0.7 * length)
        flags, _ = pcp_correct(gt, est, eps=0.7)
        assert flags[limb]

    def test_zero_length_limb_needs_exact_match(self):
        pts = np.arange(28, dtype=float).reshape(14, 2)
        a, b = LIMBS[0]
        pts[int(b)] = pts[int(a)]  # collapse the first limb
        gt = Skeleton(pts)
        flags, _ = pcp_correct(gt, gt, eps=0.7)
        assert flags[0]
        est = displaced(gt, a, 1e-9)
        flags, _ = pcp_correct(gt, est, eps=0.7)
        assert not flags[0]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 150.0, 1e6])
    def test_tolerances_match_one_dimensional_norm(self, rng, scale):
        """Each limb's tolerance is eps times its 1-D np.linalg.norm, bit for
        bit (norm(axis=1) differs by an ulp on some limbs)."""
        for _ in range(200):
            pts = rng.normal(0.0, scale, (14, 2))
            want = [0.7 * float(np.linalg.norm(pts[int(a)] - pts[int(b)])) for a, b in LIMBS]
            assert metrics._pcp_tolerances(Skeleton(pts), 0.7).tolist() == want


class TestPck:
    def test_identity(self, rng):
        gt = random_skeleton(rng)
        flags = pck_correct(gt, gt, 0.2, ReferenceLength.BBOX_MAX_SIDE)
        assert flags.shape == (14,) and flags.all()

    def test_one_joint_beyond_fraction(self, rng):
        gt = random_skeleton(rng)
        side = np.ptp(gt.keypoints, axis=0).max()
        est = displaced(gt, JointId.L_ANKLE, 0.25 * side)
        flags = pck_correct(gt, est, 0.2, ReferenceLength.BBOX_MAX_SIDE)
        assert flags.sum() == 13
        assert not flags[int(JointId.L_ANKLE)]

    def test_head_reference_arithmetic(self):
        """With a 20 px head segment at frac 0.5, a 9 px error passes (9 <= 10)."""
        pts = np.zeros((14, 2))
        pts[:, 0] = np.arange(14) * 30.0
        pts[int(JointId.HEAD)] = (0.0, 0.0)
        pts[int(JointId.NECK)] = (0.0, 20.0)
        gt = Skeleton(pts)
        est = displaced(gt, JointId.L_ELBOW, 9.0)
        flags = pck_correct(gt, est, 0.5, ReferenceLength.HEAD_SEGMENT)
        assert flags[int(JointId.L_ELBOW)]
        est = displaced(gt, JointId.L_ELBOW, 10.5)
        flags = pck_correct(gt, est, 0.5, ReferenceLength.HEAD_SEGMENT)
        assert not flags[int(JointId.L_ELBOW)]

    def test_degenerate_reference_rejected(self):
        pts = np.zeros((14, 2))  # bbox collapses to a point
        with pytest.raises(ValueError, match="degenerate reference"):
            pck_correct(Skeleton(pts), Skeleton(pts), 0.2, ReferenceLength.BBOX_MAX_SIDE)

    def test_huge_fraction_accepts_anything(self, rng):
        gt, est = random_skeleton(rng), random_skeleton(rng)
        flags = pck_correct(gt, est, 1e9, ReferenceLength.BBOX_MAX_SIDE)
        assert flags.all()


class TestPckReport:
    def test_identity_report_is_all_ones(self, rng):
        pairs = [(s, s) for s in (random_skeleton(rng) for _ in range(5))]
        report = pck_report(pairs, 0.2, ReferenceLength.BBOX_MAX_SIDE)
        assert report.mean_pck == 1.0
        assert all(v == 1.0 for v in report.per_joint_pck.values())

    def test_per_action_breakdown(self, rng):
        good = random_skeleton(rng)
        bad_est = Skeleton(good.keypoints + 1e6)
        pairs = [(good, good), (good, bad_est)]
        actions = [ActionLabel.TENNIS, ActionLabel.SOCCER]
        report = pck_report(pairs, 0.2, ReferenceLength.BBOX_MAX_SIDE, actions=actions)
        assert report.per_action[ActionLabel.TENNIS] == 1.0
        assert report.per_action[ActionLabel.SOCCER] == 0.0
        assert report.mean_pck == pytest.approx(0.5)

    def test_table_shape(self, rng):
        pairs = [(s, s) for s in (random_skeleton(rng) for _ in range(3))]
        report = pck_report(pairs, 0.2, ReferenceLength.BBOX_MAX_SIDE)
        table = format_pck_table(report, title="PCK@0.2")
        lines = table.strip().splitlines()
        header = lines[1].split()
        assert header == ["Head", "Shoulder", "Elbow", "Wrist", "Hip", "Knee", "Ankle", "Mean"]
        assert lines[2].split() == ["100.0"] * 8


def make_set(image_id, skels, scores=None):
    """The candidate set of one image from skeletons, in order."""
    scores = [1.0] * len(skels) if scores is None else scores
    return CandidateSet.from_keypoints(image_id, [s.keypoints for s in skels], scores)


class TestSelectionStats:
    """Per-image true-positive bookkeeping behind precision and recall."""

    def _fixture(self, rng, n=6):
        truth = {f"i{k}": random_skeleton(rng) for k in range(n)}
        return truth

    def test_perfect_selection(self, rng):
        truth = self._fixture(rng)
        candidates = {i: make_set(i, [s]) for i, s in truth.items()}
        r = selection_stats(list(truth.items()), candidates, dict(truth), eps=0.7)
        assert r.detected_tp_rate == 1.0
        assert r.selected_tp_rate == 1.0
        assert r.precision == 1.0
        assert r.recall == 1.0
        assert r.counts == (6, 6, 6, 6)

    def test_counts_drive_the_ratios(self, rng):
        """10 images: 8 selections are correct, 2 are wrong poses."""
        truth = self._fixture(rng, n=10)
        ids = sorted(truth)
        candidates, selected = {}, {}
        for k, i in enumerate(ids):
            junk = Skeleton(truth[i].keypoints + 1e5)
            candidates[i] = make_set(i, [truth[i], junk], [1.0, 2.0])
            selected[i] = junk if k < 2 else truth[i]
        r = selection_stats(list(truth.items()), candidates, selected, eps=0.7)
        atp, stp, both, cp_atp = r.counts
        assert (atp, stp, both, cp_atp) == (10, 10, 8, 10)
        assert r.precision == pytest.approx(8 / 10)
        assert r.recall == pytest.approx(8 / 10)

    def test_no_selections_makes_precision_absent(self, rng):
        truth = self._fixture(rng)
        candidates = {i: make_set(i, [s]) for i, s in truth.items()}
        r = selection_stats(list(truth.items()), candidates, {}, eps=0.7)
        assert r.selected_tp_rate == 0.0
        assert r.precision is None
        assert r.recall == 0.0

    def test_selected_rate_never_exceeds_detected(self, rng):
        """A selected true positive implies one existed among candidates."""
        truth = self._fixture(rng, n=8)
        ids = sorted(truth)
        candidates, selected = {}, {}
        for k, i in enumerate(ids):
            skels = [Skeleton(truth[i].keypoints + 1e5)]
            if k % 2 == 0:
                skels.append(truth[i])
            candidates[i] = make_set(i, skels)
            selected[i] = skels[-1]
        r = selection_stats(list(truth.items()), candidates, selected, eps=0.7)
        assert r.selected_tp_rate <= r.detected_tp_rate

    def test_detection_equals_pcp_of_each_candidate(self, rng):
        """The batched coverage test agrees with pcp_correct row by row,
        including candidates on the tolerance boundary."""
        gt = random_skeleton(rng)
        rows = [gt.keypoints + rng.normal(0.0, s, (14, 2)) for s in (0.5, 2.0, 5.0, 20.0)]
        edge = gt.keypoints.copy()
        limb = LIMBS.index((JointId.L_ELBOW, JointId.L_WRIST))
        edge[int(JointId.L_WRIST), 0] += 0.7 * gt.limb_lengths()[limb]
        rows.append(edge)
        for k in range(len(rows)):
            one = CandidateSet.from_keypoints("i", rows[k : k + 1], [1.0])
            r = selection_stats([("i", gt)], {"i": one}, {}, eps=0.7)
            assert r.counts[3] == int(pcp_correct(gt, Skeleton(rows[k]), 0.7)[1])

    def test_tolerances_computed_once_per_image(self, rng, monkeypatch):
        """Row 0, the other rows and the selected pose of an image share one
        tolerance computation; an image without truth makes none."""
        calls = []
        tolerances = metrics._pcp_tolerances

        def counted(gt, eps):
            calls.append(gt)
            return tolerances(gt, eps)

        monkeypatch.setattr(metrics, "_pcp_tolerances", counted)
        truth = self._fixture(rng, n=4)
        junk = {i: Skeleton(s.keypoints + 1e5) for i, s in truth.items()}
        candidates = {i: make_set(i, [junk[i], s]) for i, s in truth.items()}
        ws = list(truth.items()) + [("none", None)]
        candidates["none"] = make_set("none", [junk["i0"]])
        r = selection_stats(ws, candidates, dict(truth, none=junk["i0"]), eps=0.7)
        assert r.counts == (4, 5, 4, 4)
        assert [id(gt) for gt in calls] == [id(s) for s in truth.values()]
