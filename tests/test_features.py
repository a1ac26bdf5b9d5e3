"""Relational pose configuration features."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poseboot.features import relational_feature, relational_features, relational_length
from poseboot.skeleton import N_JOINTS, JointId, Skeleton

from _oracles import relational_config_per_pose, torso_length_per_pose
from conftest import random_skeleton

DIST, ORI, ANG = slice(0, 91), slice(91, 182), slice(182, 1274)


@st.composite
def point_sets(draw):
    """Random well-separated joint locations, keyed by an RNG seed so that
    hypothesis can still shrink failures."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).uniform(-200.0, 200.0, size=(N_JOINTS, 2))


class TestDimensionality:
    def test_component_counts(self):
        """14 joints give C(14,2)=91 pairs and 3*C(14,3)=1092 inner angles."""
        assert relational_length(14) == 1274 == 91 + 91 + 1092

    def test_general_formula(self):
        for n in (3, 5, 10):
            pairs = n * (n - 1) // 2
            triples = n * (n - 1) * (n - 2) // 6
            assert relational_length(n) == 2 * pairs + 3 * triples

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            relational_features(np.zeros((2, 2))[None])[0]


class TestRelationalComponents:
    def test_distances_match_pairwise_norms(self, rng):
        pts = rng.uniform(0, 50, (14, 2))
        f = relational_features(pts[None])[0]
        k = 0
        for i in range(14):
            for j in range(i + 1, 14):
                assert f[DIST][k] == pytest.approx(np.linalg.norm(pts[i] - pts[j]))
                k += 1

    def test_orientation_of_a_known_pair(self):
        pts = np.zeros((3, 2))
        pts[1] = (1.0, 1.0)
        pts[2] = (5.0, 0.0)
        f = relational_features(pts[None])[0]
        n_pairs = 3
        assert f[n_pairs] == pytest.approx(np.pi / 4)  # pair (0,1)

    def test_triangle_angles_sum_to_pi(self, rng):
        pts = rng.uniform(0, 50, (3, 2))
        f = relational_features(pts[None])[0]
        angles = f[2 * 3:]
        assert angles.shape == (3,)
        assert angles.sum() == pytest.approx(np.pi)

    def test_right_triangle_angles(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        f = relational_features(pts[None])[0]
        np.testing.assert_allclose(
            np.sort(f[6:]), [np.pi / 4, np.pi / 4, np.pi / 2], atol=1e-12
        )

    def test_coincident_points_give_zero_not_nan(self):
        pts = np.zeros((3, 2))
        pts[2] = (1.0, 0.0)
        f = relational_features(pts[None])[0]
        assert np.isfinite(f).all()
        assert f[0] == 0.0  # distance between the coincident pair


def circular_diff(a, b):
    """Smallest signed angular difference; orientations live on a circle."""
    return np.angle(np.exp(1j * (a - b)))


class TestInvariances:
    @settings(max_examples=150, deadline=None)
    @given(point_sets(), st.floats(-500, 500), st.floats(-500, 500))
    def test_translation_invariance(self, pts, dx, dy):
        f0 = relational_features(pts[None])[0]
        f1 = relational_features((pts + np.array([dx, dy]))[None])[0]
        atol = 1e-6 * (1 + np.abs(f0).max())
        np.testing.assert_allclose(f1[DIST], f0[DIST], rtol=0, atol=atol)
        np.testing.assert_allclose(circular_diff(f1[ORI], f0[ORI]), 0, atol=atol)
        np.testing.assert_allclose(f1[ANG], f0[ANG], rtol=0, atol=atol)

    @settings(max_examples=150, deadline=None)
    @given(point_sets(), st.floats(0.1, 10.0))
    def test_uniform_scaling_scales_distances_only(self, pts, k):
        f0 = relational_features(pts[None])[0]
        f1 = relational_features((pts * k)[None])[0]
        np.testing.assert_allclose(f1[DIST], k * f0[DIST], rtol=1e-9)
        np.testing.assert_allclose(f1[ANG], f0[ANG], rtol=0, atol=1e-7)

    @settings(max_examples=150, deadline=None)
    @given(point_sets(), st.floats(0, 2 * np.pi))
    def test_rotation_preserves_distances_and_angles(self, pts, theta):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        f0 = relational_features(pts[None])[0]
        f1 = relational_features((pts @ R.T)[None])[0]
        np.testing.assert_allclose(f1[DIST], f0[DIST], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(f1[ANG], f0[ANG], rtol=0, atol=1e-7)

    def test_rotation_shifts_orientations(self, rng):
        pts = rng.uniform(10, 100, (14, 2))
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        f0, f1 = relational_features(pts[None])[0], relational_features((pts @ R.T)[None])[0]
        shift = np.angle(np.exp(1j * (f1[ORI] - f0[ORI] - theta)))
        np.testing.assert_allclose(shift, 0.0, atol=1e-9)


class TestNormalization:
    def test_torso_normalization_removes_scale(self, rng):
        s = random_skeleton(rng)
        k = 3.7
        scaled = Skeleton(s.keypoints * k)
        f0 = relational_feature(s, normalize=True)
        f1 = relational_feature(scaled, normalize=True)
        np.testing.assert_allclose(f1[DIST], f0[DIST], rtol=1e-9)

    def test_degenerate_torso_rejected(self):
        pts = np.zeros((14, 2))  # neck == hip midpoint
        with pytest.raises(ValueError):
            relational_feature(Skeleton(pts), normalize=True)

    def test_raw_mode_keeps_pixel_distances(self, rng):
        s = random_skeleton(rng)
        f = relational_feature(s, normalize=False)
        d01 = np.linalg.norm(s.keypoints[0] - s.keypoints[1])
        assert f[0] == pytest.approx(d01)


@st.composite
def point_stacks(draw):
    """(m, n, 2) point stacks: random, with coincident points, or snapped to
    a coarse grid so that collinear triples and zero-length rays are common."""
    n = draw(st.sampled_from([3, 5, 10, 14]))
    m = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.uniform(-200.0, 200.0, size=(m, n, 2))
    kind = draw(st.sampled_from(["random", "coincident", "grid"]))
    if kind == "coincident":
        src = rng.integers(0, n, size=(m, n))
        copy = rng.random((m, n)) < 0.4
        rows = np.arange(m)[:, None]
        pts = np.where(copy[..., None], pts[rows, src], pts)
    elif kind == "grid":
        pts = np.round(pts / 100.0) * 25.0
    return pts


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBatched:
    @given(point_stacks(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_pose_reference_bit_for_bit(self, pts, normalize):
        n = pts.shape[1]
        normalize = normalize and n == N_JOINTS
        if normalize:
            # degenerate torsos are covered by test_degenerate_torso_names_the_row
            assume(min(torso_length_per_pose(p) for p in pts) > 0.0)
        F = relational_features(pts, normalize=normalize)
        assert F.shape == (pts.shape[0], relational_length(n))
        for row, p in zip(F, pts):
            ref = relational_config_per_pose(p, torso_length_per_pose(p) if normalize else None)
            assert same_bits(row, ref)

    @given(m=st.integers(1, 200), k=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
    @example(m=64, k=64, seed=0)
    @example(m=65, k=65, seed=1)
    @example(m=200, k=1, seed=2)
    @example(m=129, k=70, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_rows_do_not_depend_on_their_batch(self, m, k, seed):
        """Any rows, in any order, featurized together are those rows of the
        whole stack, bit for bit, across the internal block edges too."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 40.0, size=(m, N_JOINTS, 2))
        pts[::3, 4] = pts[::3, 5]  # zero-length segments and rays
        idx = rng.choice(m, size=min(k, m), replace=False)
        whole = relational_features(pts, normalize=True)
        assert same_bits(relational_features(pts[idx], normalize=True), whole[idx])

    def test_large_batch_matches_reference(self, rng):
        # more poses than one internal block, so block edges are crossed
        pts = rng.normal(0.0, 40.0, size=(300, N_JOINTS, 2))
        pts[::3, 4] = pts[::3, 5]
        F = relational_features(pts, normalize=True)
        for row, p in zip(F, pts):
            assert same_bits(row, relational_config_per_pose(p, torso_length_per_pose(p)))

    def test_torso_lengths_match_skeleton(self, rng):
        pts = rng.normal(0.0, 50.0, size=(2000, N_JOINTS, 2))
        F = relational_features(pts, normalize=True)
        raw = relational_features(pts)
        for f, r, p in zip(F, raw, pts):
            assert same_bits(f[DIST], r[DIST] / torso_length_per_pose(p))

    def test_single_pose_entry_points_are_rows(self, rng):
        pts = rng.normal(0.0, 40.0, size=(4, N_JOINTS, 2))
        F = relational_features(pts, normalize=True)
        for row, p in zip(F, pts):
            assert same_bits(row, relational_feature(Skeleton(p), normalize=True))
        assert same_bits(relational_features(pts)[2], relational_features(pts[2][None])[0])

    def test_degenerate_torso_names_the_row(self, rng):
        pts = rng.normal(0.0, 40.0, size=(5, N_JOINTS, 2))
        pts[3, JointId.NECK] = 0.5 * (pts[3, JointId.L_HIP] + pts[3, JointId.R_HIP])
        with pytest.raises(ValueError, match="degenerate torso in row 3"):
            relational_features(pts, normalize=True)
        relational_features(pts)  # raw mode does not need a torso

    def test_empty_stack(self):
        assert relational_features(np.zeros((0, N_JOINTS, 2)), normalize=True).shape == (0, 1274)

    def test_out_receives_the_rows_bit_for_bit(self, rng):
        """Rows written into a strided out, all but the last column of a
        wider array as pipeline.training_set passes it, over more than one
        internal block, are those of a fresh array; the rest is untouched."""
        pts = rng.normal(0.0, 40.0, size=(70, N_JOINTS, 2))
        buf = np.full((70, 1275), 7.0)
        got = relational_features(pts, normalize=True, out=buf[:, :-1])
        assert got.base is buf
        assert buf[:, :-1].tobytes() == relational_features(pts, normalize=True).tobytes()
        assert (buf[:, -1] == 7.0).all()

    def test_scratch_is_bounded_whatever_the_pose_count(self, rng):
        """Featurizing 1,356 poses into a given out allocates at most 1.5 MiB
        of scratch (0.94 MiB measured): blocks of 64 poses, and a block's
        angle columns in ranges of triples. Computing a block's 1,092 angle
        columns at once took 4.03 MiB."""
        pts = rng.uniform(10.0, 150.0, size=(1356, N_JOINTS, 2))
        out = np.empty((1356, 1274))
        relational_features(pts, normalize=True, out=out)  # one-time index tables
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            relational_features(pts, normalize=True, out=out)
            scratch = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert scratch <= 1.5 * 2 ** 20, scratch / 2 ** 20

    @pytest.mark.parametrize("out", [np.empty((4, 1274)), np.empty((5, 1274), np.float32)])
    def test_out_of_another_shape_or_type_is_rejected(self, rng, out):
        with pytest.raises(ValueError, match="out must be a float64 array of shape"):
            relational_features(rng.normal(0.0, 40.0, size=(5, N_JOINTS, 2)), out=out)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            relational_features(np.zeros((N_JOINTS, 2)))
        with pytest.raises(ValueError):
            relational_features(np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match="needs 14 joints"):
            relational_features(np.ones((2, 5, 2)), normalize=True)

