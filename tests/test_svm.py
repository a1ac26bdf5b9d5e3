"""Max-margin pose selector: training, solver quality, selection rules."""
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poseboot import svm
from poseboot.features import relational_feature, relational_features, relational_length
from poseboot.metrics import pcp_correct
from poseboot.skeleton import N_JOINTS, CandidateSet, JointId, Skeleton
from poseboot.svm import (
    SvmModel,
    TrainSet,
    select,
    synthesize_positives,
    train,
)

from _oracles import (
    effective_bias,
    effective_weights,
    select_reference,
    svm_grid_minimum,
    svm_objective,
    svm_train_reference,
    svm_train_shrinking_reference,
)
from conftest import random_skeleton

# two tiny benchmark problems with brute-force-verified optima
X_SEP = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
Y_SEP = np.array([-1.0, -1.0, 1.0, 1.0])
X_XOR = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
Y_XOR = np.array([1.0, 1.0, -1.0, -1.0])
# the same instances in the space train optimizes, Z = (X - m.mean) / m.std
Z_SEP = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
Z_XOR = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])

# frozen outputs of svm_grid_minimum (step 0.05, limit 5) on the Z instances
GRID_J_SEP = 0.5
GRID_J_XOR = 4.0


def trained_in_z(X, y, **kw):
    """The model train fits to (X, y), and X in the space it was fit in."""
    m = train(TrainSet(X, y), **kw)
    return m, (X - m.mean) / m.std


class TestTrainSet:
    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(4, 2))
        with pytest.raises(ValueError, match="one class"):
            train(TrainSet(X, np.ones(4)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="one class"):
            TrainSet(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_the_row(self, rng, bad):
        X = rng.normal(size=(6, 3))
        X[4, 1] = bad
        X[5, 0] = bad
        with pytest.raises(ValueError, match="row 4"):
            TrainSet(X, np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]))


class TestBuffer:
    """A TrainSet's features are the first d columns of an (n, d + 1)
    buffer, which train standardizes in place."""

    def test_a_view_of_such_a_buffer_is_kept(self, rng):
        buf = rng.normal(size=(6, 4))
        assert TrainSet(buf[:, :3], np.array([1.0, -1.0] * 3)).features.base is buf

    @pytest.mark.parametrize("make", [
        lambda X: X,  # owns its data
        lambda X: np.hstack([X, X])[:, :3],  # a view with more than one spare column
        lambda X: np.asfortranarray(np.hstack([X, X[:, :1]]))[:, :3],  # not C-ordered
    ])
    def test_other_layouts_are_copied_once_and_left_alone(self, rng, make):
        X = make(rng.normal(size=(6, 3)))
        before = X.copy()
        ts = TrainSet(X, np.array([1.0, -1.0] * 3))
        assert ts.features.base.shape == (6, 4) and not np.shares_memory(ts.features, X)
        assert np.array_equal(ts.features, X)
        train(ts)
        assert np.array_equal(X, before)

    @pytest.mark.parametrize("n", [2, 129, 300])
    @pytest.mark.parametrize("d", [1, 2, 65, 1274])
    def test_trains_in_place_with_the_whole_matrix_statistics(self, rng, n, d):
        """train's mean and std, its squares summed by chunks of rows (129
        leaves a one-row chunk), are np.mean's and np.std's over the whole
        matrix bit for bit, and the buffer ends as y_i * [z_i, 1]. Rounding
        differences show in some draws only, so there are eight."""
        y = np.resize([1.0, -1.0], n)
        for _ in range(8):
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 50.0, d) + 20.0 * rng.normal(size=d)
            buf = np.empty((n, d + 1))
            buf[:, :d] = X
            m = train(TrainSet(buf[:, :d], y), max_iter=1)
            assert m.mean.tobytes() == X.mean(axis=0).tobytes()
            assert m.std.tobytes() == X.std(axis=0).tobytes()
            want = y[:, None] * np.column_stack([(X - m.mean) / m.std, np.ones(n)])
            assert buf.tobytes() == want.tobytes()
            copied = train(TrainSet(X, y), max_iter=1)
            assert copied.weights.tobytes() == m.weights.tobytes() and copied.bias == m.bias

    def test_subset_copies_its_rows_into_a_buffer_of_their_own(self, rng):
        buf = rng.normal(size=(6, 4))
        y = np.array([1.0, -1.0] * 3)
        keep = np.array([True, True, False, True, False, False])
        sub = TrainSet(buf[:, :3], y).subset(keep)
        assert sub.features.base.shape == (3, 4) and not np.shares_memory(sub.features, buf)
        assert np.array_equal(sub.features, buf[keep, :3])
        np.testing.assert_array_equal(sub.labels, y[keep])


@pytest.fixture(scope="module")
def noisy_set():
    """300 overlapping samples in 20 dims: many bounded and free duals."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 20))
    beta = rng.normal(size=20)
    y = np.where(X @ beta + rng.normal(scale=2.0, size=300) > 0, 1.0, -1.0)
    return X, y


class TestSolver:
    def test_grid_oracle_frozen_values_still_hold(self):
        """Re-derive the frozen constants from the brute-force grid."""
        assert svm_grid_minimum(Z_SEP, Y_SEP) == pytest.approx(GRID_J_SEP, abs=1e-9)
        assert svm_grid_minimum(Z_XOR, Y_XOR) == pytest.approx(GRID_J_XOR, abs=1e-9)

    @pytest.mark.parametrize(
        "X,y,Z,grid_j",
        [(X_SEP, Y_SEP, Z_SEP, GRID_J_SEP), (X_XOR, Y_XOR, Z_XOR, GRID_J_XOR)],
        ids=["separable", "xor"],
    )
    def test_objective_at_most_grid_minimum(self, X, y, Z, grid_j):
        """The continuous optimum can only undercut the 0.05-step grid, so the
        solver must land at or below the grid value (within tolerance)."""
        m, Z_fit = trained_in_z(X, y, reg=1.0, tol=1e-8, max_iter=100000)
        np.testing.assert_array_equal(Z_fit, Z)
        j = svm_objective(m.weights, m.bias, Z, y)
        assert j <= grid_j + 1e-2
        assert m.gap_history[-1] <= 1e-8

    def test_separable_reaches_zero_errors(self):
        m = train(TrainSet(X_SEP, Y_SEP), tol=1e-8, max_iter=100000)
        preds = np.sign(m.decisions(X_SEP))
        np.testing.assert_array_equal(preds, Y_SEP)

    def test_objective_history_monotone(self):
        for X, y in [(X_SEP, Y_SEP), (X_XOR, Y_XOR)]:
            m = train(TrainSet(X, y), tol=1e-8, max_iter=100000)
            diffs = np.diff(m.objective_history)
            assert np.all(diffs <= 1e-12), diffs[diffs > 0]

    def test_xor_collapses_to_zero_weights(self):
        """No linear separator helps on XOR; the optimum is w = 0, objective 4."""
        m, Z = trained_in_z(X_XOR, Y_XOR, tol=1e-10, max_iter=100000)
        assert svm_objective(m.weights, m.bias, Z, Y_XOR) == pytest.approx(4.0, abs=1e-8)
        np.testing.assert_allclose(m.weights, 0.0, atol=1e-8)

    def test_dual_never_decreases(self, noisy_set):
        """Every coordinate step maximizes the dual along its coordinate, so
        the dual cannot fall, whichever samples an epoch visits."""
        X, y = noisy_set
        for reg in (0.1, 1.0):
            m = train(TrainSet(X, y), reg=reg, tol=1e-6, max_iter=1000)
            dual = np.array(m.objective_history) - np.array(m.gap_history)
            assert np.all(np.diff(dual) >= -1e-12), np.diff(dual).min()

    def test_agrees_with_unshrunk_reference(self, noisy_set):
        X, y = noisy_set
        tol = 1e-6
        m = train(TrainSet(X, y), reg=0.1, tol=tol, max_iter=1000)
        ref = svm_train_reference(X, y, reg=0.1, tol=tol)
        assert m.gap_history[-1] <= tol and ref.gap_history[-1] <= tol
        assert len(m.objective_history) < 1000 and len(ref.objective_history) < 1000
        assert abs(m.objective_history[-1] - ref.objective_history[-1]) <= tol

    def test_without_shrinking_matches_reference_bit_for_bit(self, noisy_set):
        """A copy of train that resets the active set every epoch never skips
        a sample, so folding the labels into the rows changes no bit."""
        X, y = noisy_set
        unshrunk = types.FunctionType(
            train.__code__, {**vars(svm), "_FULL_SWEEP_EVERY": 1}, "train", train.__defaults__
        )
        for reg, max_iter in ((1.0, 200), (0.1, 1000)):
            m = unshrunk(TrainSet(X, y), reg=reg, tol=1e-6, max_iter=max_iter)
            ref = svm_train_reference(X, y, reg=reg, tol=1e-6, max_iter=max_iter)
            assert np.array_equal(m.weights, ref.weights)
            assert m.bias == ref.bias
            assert m.objective_history == ref.objective_history
            assert m.gap_history == ref.gap_history
        # whereas the shipped solver skips samples, and its path departs
        shrunk = train(TrainSet(X, y), reg=1.0, tol=1e-6, max_iter=200)
        ref = svm_train_reference(X, y, reg=1.0, tol=1e-6, max_iter=200)
        assert not np.array_equal(shrunk.weights, ref.weights)

    @pytest.mark.parametrize(
        "reg, tol, max_iter, epochs",
        [(0.1, 1e-6, 1000, 120), (1.0, 1e3, 1000, 1), (1.0, 1e-9, 1, 1), (1.0, 1e-6, 200, 200)],
        ids=["stop-before-cap", "stop-at-epoch-1", "max-iter-1", "cap"],
    )
    def test_gap_check_matches_sequential_reference(
        self, noisy_set, reg, tol, max_iter, epochs
    ):
        """Each epoch's gap is computed right after its sweep; the result is
        the sequential reference's, bit for bit, with that epoch's weights
        on a stop."""
        X, y = noisy_set
        m = train(TrainSet(X, y), reg=reg, tol=tol, max_iter=max_iter)
        ref = svm_train_shrinking_reference(X, y, reg=reg, tol=tol, max_iter=max_iter)
        assert len(ref.gap_history) == epochs
        assert np.array_equal(m.weights, ref.weights)
        assert m.bias == ref.bias
        assert m.objective_history == ref.objective_history
        assert m.gap_history == ref.gap_history

    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_iter_below_one_rejected(self, bad):
        with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {bad}"):
            train(TrainSet(X_SEP, Y_SEP), max_iter=bad)

    @pytest.mark.parametrize("field", ["reg", "tol"])
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_non_positive_or_nan_option_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be positive, got {bad}"):
            train(TrainSet(X_SEP, Y_SEP), **{field: bad})

    @pytest.mark.parametrize("field", ["reg", "tol"])
    def test_infinite_option_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite, got inf"):
            train(TrainSet(X_SEP, Y_SEP), **{field: np.inf})

    def test_standardization_stored_and_applied(self, rng):
        X = rng.normal(size=(30, 4)) * np.array([1.0, 10.0, 0.1, 5.0]) + 7.0
        y = np.where(X[:, 1] > 7.0, 1.0, -1.0)
        m = train(TrainSet(X, y), tol=1e-6, max_iter=1000)
        assert m.mean.shape == (4,) and m.std.shape == (4,)
        # decision must agree with the effective raw-space form
        d1 = m.decisions(X)
        d2 = X @ effective_weights(m) + effective_bias(m)
        np.testing.assert_allclose(d1, d2, atol=1e-9)

    def test_decisions_equal_decision_exactly(self, rng):
        d = 1274
        m = SvmModel(
            mean=rng.normal(size=d),
            std=rng.uniform(0.5, 2.0, d),
            weights=rng.normal(size=d),
            bias=0.3,
            reg=1.0,
        )
        X = rng.normal(size=(500, d))
        got = m.decisions(X)
        for row, x in zip(got, X):
            # the dot product of one row alone, to the last bit
            assert row == m.decisions(x[None])[0]
            assert row == float(m.weights @ ((x - m.mean) / m.std) + m.bias)
        # a row's value does not depend on the rows scored with it
        assert np.array_equal(m.decisions(X[7:9]), got[7:9])

    def test_constant_feature_does_not_crash(self, rng):
        X = np.column_stack([rng.normal(size=10), np.full(10, 3.0)])
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        m = train(TrainSet(X, y), tol=1e-6, max_iter=1000)
        assert np.isfinite(m.weights).all()

    def test_dimension_mismatch_rejected(self, rng):
        m = train(TrainSet(X_SEP, Y_SEP), tol=1e-6, max_iter=1000)
        with pytest.raises(ValueError):
            m.decisions(np.zeros((1, 5)))


class TestSynthesizePositives:
    def test_count_and_pcp(self, rng):
        base = random_skeleton(rng)
        out = synthesize_positives(base, 25, eps=0.7, rng=rng)
        assert out.shape == (25, N_JOINTS, 2)
        for kp in out:
            assert pcp_correct(base, Skeleton(kp), 0.7)[1]

    def test_zero_eps_reproduces_annotation(self, rng):
        base = random_skeleton(rng)
        (kp,) = synthesize_positives(base, 1, eps=0.0, rng=rng)
        np.testing.assert_array_equal(kp, base.keypoints)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_eps_must_be_finite_and_non_negative(self, rng, bad):
        with pytest.raises(ValueError, match="eps must be finite and non-negative"):
            synthesize_positives(random_skeleton(rng), 1, eps=bad, rng=rng)

    def test_jitter_strictly_inside_radius(self, rng):
        base = random_skeleton(rng)
        lengths = base.limb_lengths()
        from poseboot.skeleton import LIMBS

        radii = np.array(
            [
                0.7 * min(lengths[k] for k, (a, b) in enumerate(LIMBS) if j in (a, b))
                for j in range(14)
            ]
        )
        for kp in synthesize_positives(base, 50, eps=0.7, rng=rng):
            d = np.linalg.norm(kp - base.keypoints, axis=1)
            assert np.all(d < radii)


class TestSelect:
    """The pick rule on two-entry rows: a stand-in featurizer reads row j's
    feature from its head joint, which no torso length involves."""

    @pytest.fixture(autouse=True)
    def head_features(self, monkeypatch):
        def featurize(points, normalize):
            assert normalize
            return points[:, JointId.HEAD].copy()

        monkeypatch.setattr(svm, "relational_features", featurize)

    def _model_preferring_positive_x(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        return train(TrainSet(X, y), tol=1e-8, max_iter=1000)

    def _cands(self, rng, image_id, scored_xs):
        """A set with the given scores whose row j has feature (x_j, 0)."""
        kp = np.array([random_skeleton(rng).keypoints for _ in scored_xs])
        kp[:, JointId.HEAD] = [(x, 0.0) for _, x in scored_xs]
        return CandidateSet.from_keypoints(image_id, kp, [score for score, _ in scored_xs])

    def test_picks_highest_score_among_accepted(self, rng):
        m = self._model_preferring_positive_x()
        # the third has the best score but is rejected by the margin
        cands = self._cands(rng, "a", [(0.3, 5.0), (0.9, 4.0), (2.0, -5.0)])
        assert select(m, cands, 0.0)[0] == 1

    def test_none_when_all_below_margin(self, rng):
        m = self._model_preferring_positive_x()
        cands = self._cands(rng, "a", [(1.0, -3.0), (2.0, -1.0)])
        pick, feats = select(m, cands, 0.0)
        assert pick is None
        # every row was scored, best first
        np.testing.assert_array_equal(feats, [[-1.0, 0.0], [-3.0, 0.0]])

    def test_margin_raises_the_bar(self, rng):
        m = self._model_preferring_positive_x()
        cands = self._cands(rng, "a", [(1.0, 0.5)])
        d = m.decisions(np.array([[0.5, 0.0]]))[0]
        assert select(m, cands, margin=0.0)[0] == 0
        assert select(m, cands, margin=d + 1.0)[0] is None

    def test_score_tie_keeps_first(self, rng):
        m = self._model_preferring_positive_x()
        cands = self._cands(rng, "a", [(1.0, 3.0), (1.0, 4.0)])
        assert select(m, cands, 0.0)[0] == 0

    def test_score_tie_keeps_first_row_above_margin(self, rng):
        # rows 0 and 3 tie with 1 and 2 on score, but their decisions do not
        # clear the margin; of the two that do, the earlier row wins
        m = self._model_preferring_positive_x()
        cands = self._cands(
            rng, "a", [(1.0, -3.0), (1.0, 3.0), (1.0, 4.0), (1.0, -4.0), (0.5, 9.0)]
        )
        assert select(m, cands, 0.0)[0] == 1

    def test_empty_set_gives_none(self):
        m = self._model_preferring_positive_x()
        empty = CandidateSet.from_keypoints("a", np.zeros((0, 14, 2)), np.zeros(0))
        pick, feats = select(m, empty, 0.0)
        assert pick is None and feats.shape == (0, 2)


def _random_model(rng, d):
    return SvmModel(
        mean=rng.normal(0.0, 1.0, d),
        std=rng.uniform(0.5, 2.0, d),
        weights=rng.normal(0.0, 1.0, d) / np.sqrt(d),
        bias=float(rng.normal()),
        reg=1.0,
    )


@given(m=st.integers(1, 200), k=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
@example(m=64, k=64, seed=0)
@example(m=65, k=65, seed=1)
@example(m=200, k=1, seed=2)
@settings(max_examples=60, deadline=None)
def test_decisions_do_not_depend_on_their_batch(m, k, seed):
    """Any rows, in any order, scored together get the decision values
    those rows get in the whole matrix, bit for bit."""
    rng = np.random.default_rng(seed)
    d = relational_length(N_JOINTS)
    model = _random_model(rng, d)
    X = rng.normal(0.0, 2.0, size=(m, d))
    idx = rng.choice(m, size=min(k, m), replace=False)
    whole = model.decisions(X)
    assert np.array_equal(model.decisions(X[idx]).view(np.uint64), whole[idx].view(np.uint64))


class TestBestFirst:
    """select featurizes best first and stops at the pick; the pick is the
    one of the full scan in _oracles.select_reference."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 12),
        sorted_set=st.booleans(),
        cut=st.sampled_from(["below_all", "at_value", "above_all"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_pick_matches_full_scan(self, seed, m, sorted_set, cut, data):
        rng = np.random.default_rng(seed)
        kp = np.array([random_skeleton(rng).keypoints for _ in range(m)])
        # few distinct scores, so ties fall on both sides of the margin
        scores = rng.integers(0, 3, m).astype(float)
        if sorted_set:
            scores = -np.sort(-scores)
        cands = CandidateSet.from_keypoints("img", kp, scores)
        model = _random_model(rng, relational_length(N_JOINTS))
        d = np.sort(model.decisions(relational_features(kp, normalize=True)))
        if cut == "below_all":
            margin = float(d[0]) - 1.0
        elif cut == "above_all":
            margin = float(d[-1])
        else:  # rows above the k-th smallest decision clear it
            margin = float(d[data.draw(st.integers(0, m - 1))])
        got, scored = select(model, cands, margin)
        want, feats = select_reference(model, cands, margin)
        assert got == want
        # the rows scored lead the best-first order: the first alone when it
        # is the pick, every row otherwise
        order = np.argsort(-scores, kind="stable")
        assert len(scored) == (1 if want == order[0] else m)
        assert np.array_equal(scored, feats[order][: len(scored)])

    def _count_rows(self, monkeypatch):
        rows = []
        real = svm.relational_features

        def counting(points, normalize=False):
            rows.append(len(points))
            return real(points, normalize)

        monkeypatch.setattr(svm, "relational_features", counting)
        return rows

    def test_first_row_clearing_the_margin_is_the_only_row_featurized(self, rng, monkeypatch):
        rows = self._count_rows(monkeypatch)
        kp = np.array([random_skeleton(rng).keypoints for _ in range(50)])
        cands = CandidateSet.from_keypoints("img", kp, np.linspace(1.0, 0.0, 50))
        d = relational_length(N_JOINTS)
        accept_all = SvmModel(np.zeros(d), np.ones(d), np.zeros(d), 1.0, 1.0)
        assert select(accept_all, cands, 0.0)[0] == 0
        assert rows == [1]

    def test_rest_is_one_call_when_the_first_row_falls_short(self, rng, monkeypatch):
        rows = self._count_rows(monkeypatch)
        kp = np.array([random_skeleton(rng).keypoints for _ in range(150)])
        cands = CandidateSet.from_keypoints("img", kp, rng.random(150))
        d = relational_length(N_JOINTS)
        reject_all = SvmModel(np.zeros(d), np.ones(d), np.zeros(d), -1.0, 1.0)
        pick, feats = select(reject_all, cands, 0.0)
        assert pick is None and len(feats) == 150
        assert rows == [1, 149]


class TestEndToEndSeparation:
    def test_pose_features_separate_from_noise(self, rng):
        """Real-ish check: torso-normalized features of smooth skeletons vs
        uniformly scattered joints must be linearly separable."""
        good = [random_skeleton(rng) for _ in range(15)]
        # anatomy-free noise: joints huddled in a tiny box, then one far joint
        junk = []
        for _ in range(15):
            pts = rng.uniform(0, 5, size=(14, 2))
            pts[0] = (500.0, 500.0)
            junk.append(Skeleton(pts))
        feats = lambda ss: np.stack([relational_feature(s, normalize=True) for s in ss])
        X, y = np.concatenate([feats(good), feats(junk)]), np.repeat([1.0, -1.0], 15)
        m = train(TrainSet(X, y), tol=1e-6, max_iter=1000)
        preds = np.sign(m.decisions(X))
        np.testing.assert_array_equal(preds, y)
