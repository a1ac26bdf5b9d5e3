"""Self-training driver: model specialization, iteration semantics, files."""
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poseboot.pipeline as pipeline
import poseboot.svm as svm
from poseboot.dpmm import DpmmConfig
from poseboot.features import relational_features
from poseboot.fileio import PoseRecord, read_pose_index, write_pose_records
from poseboot.heatmaps import CandidateGenConfig, enumerate_candidates
from poseboot.metrics import PCP_THRESHOLD, pcp_correct
from poseboot.pipeline import (
    AcceptedPose,
    IterationState,
    PipelineConfig,
    Scheme,
    negative_keypoints,
    read_candidate_dir,
    run_iteration,
    run_pipeline,
    stop_check,
    write_iteration_files,
)
from poseboot.skeleton import (
    ActionLabel,
    CandidateSet,
    DatasetSplit,
    FsExample,
    JointId,
    Skeleton,
    WsExample,
)
from poseboot.svm import select
from poseboot.synth import SynthConfig, action_template, synth_corpus


@pytest.fixture(autouse=True)
def two_annotations_specialize(monkeypatch):
    """Actions with two annotations get a selector of their own, so the small
    corpora here exercise the per-action selectors."""
    monkeypatch.setattr(pipeline, "MIN_ACTION_ANNOTATIONS", 2)


@pytest.fixture
def trained(monkeypatch):
    """The (general, {action: model}) of every _train_selectors call, in order."""
    out = []
    real = pipeline._train_selectors

    def recording(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(pipeline, "_train_selectors", recording)
    return out


def fast_cfg(**kw):
    base = dict(
        scheme=Scheme.WEAK,
        dpmm=DpmmConfig(gibbs_iters=40, burn_in=10),
    )
    base.update(kw)
    return PipelineConfig(**base)


def tiny_corpus(**kw):
    base = dict(n_actions=2, poses_per_action=8, n_backgrounds=4, seed=3,
                outlier_rate=0.2)
    base.update(kw)
    corpus = synth_corpus(SynthConfig(**base))
    gen = CandidateGenConfig()
    cands = {
        i: enumerate_candidates(list(maps.values()), gen, image_id=i)
        for i, maps in corpus.heatmaps.items()
    }
    return corpus, cands


class TestScheme:
    def test_parse(self):
        assert Scheme.parse("semi") is Scheme.SEMI
        assert Scheme.parse(" WEAK ") is Scheme.WEAK
        assert Scheme.parse("weakc") is Scheme.WEAKC

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            Scheme.parse("full")


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [dict(max_iterations=0), dict(n_synth=-1), dict(eps=-0.1),
         dict(eps=float("nan")), dict(eps=float("inf")),
         dict(margin=float("nan")), dict(margin=float("inf")),
         dict(reg=0.0), dict(reg=float("nan")), dict(reg=float("inf"))],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            PipelineConfig(**kw)


def background_sets(keypoints, lengths):
    """keypoints (n, 14, 2) cut into consecutive sets of the given lengths."""
    cuts = np.cumsum([0, *lengths])
    assert cuts[-1] == len(keypoints)
    return [CandidateSet.from_keypoints(f"bg_{k}", keypoints[lo:hi], np.zeros(hi - lo))
            for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]


@st.composite
def set_lengths(draw):
    """Lengths of background sets, one of them 0 between others, whose total
    is at most MAX_NEGATIVES, one more, or far above it."""
    cap = pipeline.MAX_NEGATIVES
    total = draw(st.one_of(st.integers(1, cap), st.just(cap + 1), st.integers(cap + 2, 12 * cap)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=1, max_size=4)))
    lengths = np.diff([0, *cuts, total]).tolist()
    lengths.insert(draw(st.integers(1, len(lengths) - 1)), 0)
    return lengths


class TestThinNegatives:
    """The one thinning rule, negative_keypoints, over background sets."""

    @settings(max_examples=40, deadline=None)
    @given(lengths=set_lengths(), seed=st.integers(0, 2**32 - 1))
    def test_the_thinned_rows_of_the_sets_joined(self, lengths, seed):
        keypoints = np.random.default_rng(seed).uniform(0, 100, (sum(lengths), 14, 2))
        want = keypoints[pipeline._thinned_rows(len(keypoints), pipeline.MAX_NEGATIVES)]
        got = negative_keypoints(background_sets(keypoints, lengths))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_at_most_cap_rows_returned_unchanged(self, rng, monkeypatch, n):
        monkeypatch.setattr(pipeline, "MAX_NEGATIVES", 4)
        keypoints = rng.uniform(0, 100, (n, 14, 2))
        assert negative_keypoints(background_sets(keypoints, [n])).tobytes() == keypoints.tobytes()

    @pytest.mark.parametrize("n, cap", [(5, 4), (10, 4), (3000, 256), (7, 2)])
    def test_cap_distinct_rows_in_order_first_and_last_kept(self, rng, monkeypatch, n, cap):
        monkeypatch.setattr(pipeline, "MAX_NEGATIVES", cap)
        keypoints = rng.uniform(0, 100, (n, 14, 2))
        kept = negative_keypoints(background_sets(keypoints, [n // 3, 0, n - n // 3]))
        assert kept.shape == (cap, 14, 2)
        rows = [int(np.flatnonzero((keypoints == k).all(axis=(1, 2)))[0]) for k in kept]
        assert rows == sorted(set(rows))
        assert rows[0] == 0 and rows[-1] == n - 1

    @pytest.mark.parametrize("lengths", [[], [0], [0, 0]], ids=["no-set", "empty", "two-empty"])
    def test_no_row_is_an_error_that_says_why(self, lengths):
        with pytest.raises(ValueError, match="no background image has a candidate"):
            negative_keypoints(background_sets(np.empty((0, 14, 2)), lengths))


class TestTrainingSet:
    def test_each_annotation_then_its_jitters_then_the_negatives(self, rng):
        """The rng draw order that every pipeline output and train-svm's
        model depend on: annotation k's row, then its n_synth jitters, in
        annotation order, labeled +1; then the negatives, labeled -1."""
        skels = [Skeleton(action_template(a).keypoints + rng.normal(0, 2.0, (14, 2)))
                 for a in range(3)]
        negatives = rng.uniform(10, 150, (6, 14, 2))
        ts = pipeline.training_set(skels, background_sets(negatives, [2, 4]),
                                   PipelineConfig(n_synth=4, eps=0.5), np.random.default_rng(7))
        g = np.random.default_rng(7)
        poses = [np.concatenate([s.keypoints[None], svm.synthesize_positives(s, 4, 0.5, g)])
                 for s in skels]
        want = relational_features(np.concatenate([*poses, negatives]), normalize=True)
        assert ts.features.tobytes() == want.tobytes()
        np.testing.assert_array_equal(ts.labels, [1.0] * 15 + [-1.0] * 6)

    def test_negatives_thinned_to_max_negatives(self, rng, monkeypatch):
        """The negatives are negative_keypoints' rows of the sets: rows 0, 3,
        6 and 9 of their 10, thinned across the sets' bounds."""
        monkeypatch.setattr(pipeline, "MAX_NEGATIVES", 4)
        skels = [Skeleton(action_template(0).keypoints)]
        negatives = rng.uniform(10, 150, (10, 14, 2))
        ts = pipeline.training_set(skels, background_sets(negatives, [5, 0, 5]),
                                   PipelineConfig(n_synth=0), rng)
        want = relational_features(negatives[[0, 3, 6, 9]], normalize=True)
        assert ts.features[1:].tobytes() == want.tobytes()
        np.testing.assert_array_equal(ts.labels, [1.0, -1.0, -1.0, -1.0, -1.0])


def first_round(scheme, labels, targets=()):
    """(split, candidates, cfg) of a first round on eight fixed annotations,
    alternating between two action templates and labeled labels[k], with
    an action-only image of each action in targets, against fixed junk."""
    rng = np.random.default_rng(11)
    fs = [FsExample(f"fs_{k}", Skeleton(action_template(k % 2).keypoints
                                        + rng.normal(0, 2.0, (14, 2))), a)
          for k, a in enumerate(labels)]
    ws = [WsExample(f"target_{a.value}", a) for a in targets]
    split = DatasetSplit(fs=tuple(fs), ws=tuple(ws), backgrounds=("bg",))
    cands = {"bg": CandidateSet.from_keypoints("bg", rng.uniform(10, 150, (30, 14, 2)),
                                               np.zeros(30))}
    return split, cands, fast_cfg(scheme=scheme, n_synth=2)


def first_selectors(scheme, labels, targets=()):
    """(general, models) of first_round's selectors."""
    split, cands, cfg = first_round(scheme, labels, targets)
    return pipeline._train_selectors(IterationState(), split, cands, cfg,
                                     [e.image_id for e in split.ws])


def same_model(m1, m2):
    return all(getattr(m1, f).tobytes() == getattr(m2, f).tobytes()
               for f in ("mean", "std", "weights")) and m1.bias == m2.bias


class TestSelectorsReadOnlyTheirLabels:
    """A selector's rows do not move when labels it does not read change."""

    A, B, C, D = list(ActionLabel)[:4]

    def test_semi_selector_ignores_action_labels(self):
        interleaved = [self.A, self.B] * 4
        general, _ = first_selectors(Scheme.SEMI, interleaved)
        relabeled, _ = first_selectors(Scheme.SEMI, [self.A] * 8)  # every second one
        assert same_model(general, relabeled)

    def test_weak_selectors_ignore_other_actions_labels(self):
        """Relabeling every second B annotation C leaves A's selector and
        the general one, which the unannotated target D needs, unchanged."""
        before = first_selectors(Scheme.WEAK, [self.A, self.B] * 4, targets=[self.D])
        after = first_selectors(Scheme.WEAK, [self.A, self.B, self.A, self.C] * 2,
                                targets=[self.D])
        assert set(before[1]) == {self.A, self.B} and set(after[1]) == {self.A, self.B, self.C}
        assert same_model(before[1][self.A], after[1][self.A])
        assert same_model(before[0], after[0])


A, B, _, D = list(ActionLabel)[:4]


@pytest.mark.parametrize("targets", [(), (D,)], ids=["per-selector", "every-row"])
def test_each_selector_trains_on_its_rows_of_the_training_set(monkeypatch, targets):
    """Each per-action selector's features and labels are, bit for bit, the
    rows of training_set, drawn from the round's rng, that keep its own
    positives and every negative; general's are every row. The unannotated
    target D needs general, so the round builds that matrix; without it
    each selector gets a buffer of its own."""
    inputs = []
    real = pipeline.train
    monkeypatch.setattr(pipeline, "train", lambda ts, **kw: inputs.append(
        (ts.features.tobytes(), ts.labels.tobytes())) or real(ts, **kw))
    labels = [A, B] * 4
    split, cands, cfg = first_round(Scheme.WEAK, labels, targets)
    general, _ = pipeline._train_selectors(IterationState(), split, cands, cfg,
                                           [e.image_id for e in split.ws])
    assert (general is not None) == bool(targets)
    ts = pipeline.training_set([e.skeleton for e in split.fs], [cands["bg"]], cfg,
                               np.random.default_rng([cfg.seed, 1]))
    negative = ts.labels < 0
    keeps = [negative | np.r_[np.repeat([b is a for b in labels], 1 + cfg.n_synth),
                              np.zeros(negative.sum(), bool)]
             for a in (A, B)]
    keeps += [np.ones_like(negative)] if targets else []
    assert inputs == [(ts.features[k].tobytes(), ts.labels[k].tobytes()) for k in keeps]


def round_peak(monkeypatch, scheme, split=None):
    """(traced peak of one first-round _train_selectors call, bytes of the
    buffer of each training_set it built, bytes of each buffer train was
    given, in order) on a corpus whose every-row matrix (2,068 x 1,275)
    dwarfs featurization's block temporaries; split, when given, replaces
    the corpus's."""
    corpus, cands = tiny_corpus(poses_per_action=12)
    split = split or corpus.split
    sets, trained = [], []
    real_set, real_train = pipeline.training_set, pipeline.train
    monkeypatch.setattr(pipeline, "training_set", lambda *a: sets.append(real_set(*a)) or sets[-1])
    monkeypatch.setattr(
        pipeline, "train", lambda ts, **kw: trained.append(ts.features.base.nbytes) or real_train(ts, **kw)
    )
    tracemalloc.start()
    try:
        pipeline._train_selectors(IterationState(), split, cands,
                                  fast_cfg(scheme=scheme, n_synth=150),
                                  [e.image_id for e in split.ws])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, [ts.features.base.nbytes for ts in sets], trained


def test_semi_round_holds_its_training_matrix_once(monkeypatch):
    """A semi round peaks below 1.35 times its training buffer (1.23
    measured): train standardizes the featurized rows in place, so the
    rest is featurization's block temporaries. Standardizing a copy, as
    train once did, read 2.04; holding the unthinned background keypoints
    through the round read 1.27."""
    peak, [matrix], trained = round_peak(monkeypatch, Scheme.SEMI)
    assert trained == [matrix]
    assert peak < 1.35 * matrix, peak / matrix


def test_weak_round_without_general_holds_one_selector_buffer(monkeypatch):
    """A weak round whose actions all have selectors of their own builds no
    every-row matrix: it peaks below 1.8 times its largest buffer (1.64
    measured), that buffer plus the negatives' features and featurization's
    temporaries. Building the every-row matrix and copying each subset out
    of it, as the round once did, read 2.95."""
    peak, sets, trained = round_peak(monkeypatch, Scheme.WEAK)
    assert sets == [] and len(trained) == 2  # two actions, no general selector
    assert peak < 1.8 * max(trained), peak / max(trained)


def test_weak_round_with_a_sparse_action_holds_its_matrix_and_one_subset(monkeypatch):
    """An action with too few annotations for a selector of its own needs
    general, which trains on every row, so the round builds the every-row
    matrix: it peaks at that matrix plus less than 1.25 times the subset it
    copies (1.13 measured), trained before general in place."""
    corpus, _ = tiny_corpus(poses_per_action=12)
    sparse = corpus.split.fs[-1].action
    fs = [e for e in corpus.split.fs if e.action is not sparse]
    split = replace(corpus.split, fs=(*fs, next(e for e in corpus.split.fs if e.action is sparse)))
    peak, [matrix], trained = round_peak(monkeypatch, Scheme.WEAK, split)
    assert len(trained) == 2 and trained[1] == matrix > trained[0]
    assert peak - matrix < 1.25 * trained[0], (peak - matrix) / trained[0]


def test_recovery_pool_holds_its_rows_not_every_scored_row(monkeypatch):
    """An abstained image's pool rows are copied out of the rows select
    scored, and those rows die with the selection stage. So when recovery
    starts, a round on the hard corpus with every image abstaining holds
    its pools twice (the rows and their concatenation), below 1.5 times
    that (1.28 measured). Keeping the last image's scored rows alive read
    11.7, and pooling views that pinned every scored row of every
    abstained image more still."""
    corpus, cands = tiny_corpus(outlier_rate=0.6, base_noise=6.0)
    held = []
    real = pipeline.recover_poses

    def recording(arrays, *args):
        held.append((tracemalloc.get_traced_memory()[0], sum(a[0].nbytes for a in arrays)))
        return real(arrays, *args)

    monkeypatch.setattr(pipeline, "recover_poses", recording)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state = run_iteration(IterationState(), corpus.split, cands,
                              fast_cfg(scheme=Scheme.WEAKC, margin=1e3))
    finally:
        tracemalloc.stop()
    [(now, pool)] = held
    assert {a.provenance for a in state.accepted} <= {"cluster"}
    assert now - start < 1.5 * 2 * pool, (now - start) / (2 * pool)


def test_degenerate_background_torso_names_the_image_and_row(tmp_path):
    """A refreshed background set with a row that has no torso is an error
    naming its file, the line of its first record, its image and the row,
    before any round trains."""
    corpus, cands = tiny_corpus()
    bg = corpus.split.backgrounds[1]
    kp = cands[bg].keypoints.copy()
    kp[2, JointId.NECK] = 0.5 * (kp[2, JointId.L_HIP] + kp[2, JointId.R_HIP])
    refresh = tmp_path / "candidates_iter1"
    refresh.mkdir()
    path = refresh / f"{bg}.jsonl"
    write_pose_records(path, [PoseRecord(bg, k, score=s) for k, s in zip(kp, cands[bg].scores)])
    with pytest.raises(ValueError) as e:
        run_pipeline(corpus.split, cands, fast_cfg(), tmp_path)
    assert str(e.value) == (
        f"{path}: line 1: image {bg!r}: cannot normalize: degenerate torso in row 2"
    )
    assert not (tmp_path / "annotations_iter1.jsonl").exists()


class TestSpecializeModels:
    """The selectors _train_selectors returns: one per action with enough
    annotations, and a general one only where some action needs it."""

    def selectors(self, rng, annotated, targets=()):
        """(general, models) for a split with annotated[a] annotations near
        action a's template and an action-only image of each action in
        targets, against junk background candidates; no jitter."""
        fs = [
            FsExample(f"{a.value}_{k}",
                      Skeleton(action_template(ai).keypoints + rng.normal(0, 2.0, (14, 2))), a)
            for ai, (a, n) in enumerate(annotated.items())
            for k in range(n)
        ]
        ws = [WsExample(f"target_{a.value}", a) for a in targets]
        split = DatasetSplit(fs=tuple(fs), ws=tuple(ws), backgrounds=("bg",))
        cands = {"bg": CandidateSet.from_keypoints("bg", rng.uniform(10, 150, (30, 14, 2)),
                                               np.zeros(30))}
        return pipeline._train_selectors(
            IterationState(), split, cands, fast_cfg(n_synth=0), [e.image_id for e in ws]
        )

    @staticmethod
    def cap_epochs(monkeypatch, epochs):
        """Every selector is trained for at most epochs epochs."""
        monkeypatch.setattr(pipeline, "train", partial(svm.train, max_iter=epochs))

    def test_eight_actions_give_distinct_selectors(self, rng, monkeypatch):
        self.cap_epochs(monkeypatch, 60)
        actions = list(ActionLabel)[:8]
        general, models = self.selectors(rng, {a: 6 for a in actions})
        weights = [models.get(a, general).weights for a in actions]
        for i in range(8):
            for k in range(i + 1, 8):
                assert np.linalg.norm(weights[i] - weights[k]) > 0.0, (i, k)

    def test_sparse_action_falls_back_to_general(self, rng, monkeypatch):
        self.cap_epochs(monkeypatch, 40)
        monkeypatch.setattr(pipeline, "MIN_ACTION_ANNOTATIONS", 5)
        rich, sparse = list(ActionLabel)[:2]
        general, models = self.selectors(rng, {rich: 8, sparse: 2})
        assert sparse not in models and general is not None
        assert models[rich] is not general

    def test_general_label_never_specializes(self, rng, monkeypatch):
        self.cap_epochs(monkeypatch, 40)
        general, models = self.selectors(rng, {ActionLabel.GENERAL: 8})
        assert models == {} and general is not None

    def test_general_trained_only_when_used(self, rng, monkeypatch):
        self.cap_epochs(monkeypatch, 40)
        monkeypatch.setattr(pipeline, "MIN_ACTION_ANNOTATIONS", 5)
        rich, unseen = list(ActionLabel)[:2]
        general, models = self.selectors(rng, {rich: 8})
        assert general is None and models[rich] is not None
        # a target action without positives of its own needs the general model
        general, models = self.selectors(rng, {rich: 8}, targets=[unseen])
        assert general is not None and models[rich] is not general

    def test_no_positives_rejected(self, rng):
        with pytest.raises(ValueError, match="no positive features"):
            self.selectors(rng, {})


class TestRunIteration:
    def test_acceptance_is_append_only(self):
        corpus, cands = tiny_corpus()
        cfg = fast_cfg()
        s1 = run_iteration(IterationState(), corpus.split, cands, cfg)
        s2 = run_iteration(s1, corpus.split, cands, cfg)
        assert s1.iteration == 1 and s2.iteration == 2
        assert s2.accepted[: len(s1.accepted)] == s1.accepted
        assert s1.accepted_ids() <= s2.accepted_ids()

    def test_weak_requires_action_grouping(self):
        corpus, cands = tiny_corpus()
        skel = corpus.truth[corpus.split.ws[0].image_id][0]
        cands["mystery_0001"] = CandidateSet.from_keypoints("mystery_0001", [skel.keypoints], [1.0])
        with pytest.raises(ValueError, match="missing action grouping for image"):
            run_iteration(IterationState(), corpus.split, cands, fast_cfg())

    def test_semi_needs_no_action_grouping(self, trained):
        corpus, cands = tiny_corpus()
        skel = corpus.truth[corpus.split.ws[0].image_id][0]
        cands["mystery_0001"] = CandidateSet.from_keypoints("mystery_0001", [skel.keypoints], [1.0])
        run_iteration(IterationState(), corpus.split, cands, fast_cfg(scheme=Scheme.SEMI))
        [(general, models)] = trained
        assert general is not None
        assert models == {}

    def test_weak_trains_one_selector_per_action_and_no_general(self, monkeypatch, trained):
        corpus, cands = tiny_corpus()
        counts = {}
        for e in corpus.split.fs:
            counts[e.action] = counts.get(e.action, 0) + 1
        cfg = fast_cfg()
        assert min(counts.values()) >= pipeline.MIN_ACTION_ANNOTATIONS
        calls = []
        real_train = pipeline.train

        def counting_train(*args, **kwargs):
            calls.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train", counting_train)
        run_iteration(IterationState(), corpus.split, cands, cfg)
        general, models = trained[-1]
        assert len(calls) == len(counts) == len(models)
        assert general is None
        # with every action below the threshold only the general model is trained
        calls.clear()
        monkeypatch.setattr(pipeline, "MIN_ACTION_ANNOTATIONS", max(counts.values()) + 1)
        run_iteration(IterationState(), corpus.split, cands, cfg)
        general, models = trained[-1]
        assert len(calls) == 1
        assert general is not None and models == {}

    def test_weak_trains_per_action_models(self, trained):
        corpus, cands = tiny_corpus()
        run_iteration(IterationState(), corpus.split, cands, fast_cfg())
        actions = {e.action for e in corpus.split.fs}
        assert set(trained[-1][1]) == actions

    def test_accepted_carry_action_and_provenance(self):
        corpus, cands = tiny_corpus()
        state = run_iteration(IterationState(), corpus.split, cands, fast_cfg())
        assert state.accepted, "selector accepted nothing on an easy corpus"
        ws_action = corpus.split.ws_actions()
        for a in state.accepted:
            assert a.provenance == "svm"
            assert a.action == ws_action[a.image_id]

    def test_report_appended_when_gt_given(self):
        corpus, cands = tiny_corpus()
        gt = {i: skel for i, (skel, _) in corpus.truth.items()}
        state = run_iteration(IterationState(), corpus.split, cands, fast_cfg(), gt=gt)
        assert state.report is not None
        atp, stp, atp_stp, cp_atp = state.report.counts
        n_targets = len(corpus.split.ws)
        assert 0 <= stp <= n_targets and 0 <= atp <= n_targets


    def test_report_scores_the_accepted_pose(self, trained):
        # an earlier round accepted a wrong pose for one image although its
        # candidates hold the true pose, which the selector would pick
        corpus, cands = tiny_corpus()
        gt = {i: skel for i, (skel, _) in corpus.truth.items()}
        cfg = fast_cfg()
        ws = corpus.split.ws[0]
        truth = gt[ws.image_id]
        wrong = Skeleton(truth.keypoints[::-1].copy())
        assert not pcp_correct(truth, wrong, cfg.eps)[1]
        cands[ws.image_id] = CandidateSet.from_keypoints(ws.image_id, [truth.keypoints], [1.0])
        state = IterationState(
            iteration=1, accepted=(AcceptedPose(ws.image_id, wrong, ws.action, "svm"),)
        )
        s2 = run_iteration(state, corpus.split, cands, cfg, gt=gt)
        general, models = trained[-1]
        model = models.get(ws.action, general)
        assert select(model, cands[ws.image_id], cfg.margin)[0] == 0

        atp, stp, atp_stp, _ = s2.report.counts
        assert stp == len(s2.accepted)
        correct = sum(pcp_correct(gt[a.image_id], a.skeleton, cfg.eps)[1] for a in s2.accepted)
        assert atp_stp == correct <= stp - 1

    def test_report_scores_at_the_fixed_pcp_threshold(self):
        """eps sets only the jitter: at eps 0.3 the report still scores at
        PCP_THRESHOLD (0.7), where an accepted pose whose head is off by half
        the head-neck length is correct; at 0.3 it would not be."""
        corpus, cands = tiny_corpus()
        gt = {i: skel for i, (skel, _) in corpus.truth.items()}
        ws = corpus.split.ws[0]
        truth = gt[ws.image_id]
        near = truth.keypoints.copy()
        near[JointId.HEAD] += 0.5 * (near[JointId.NECK] - near[JointId.HEAD])
        near = Skeleton(near)
        assert PCP_THRESHOLD == 0.7
        assert pcp_correct(truth, near, 0.7)[1] and not pcp_correct(truth, near, 0.3)[1]
        state = IterationState(
            iteration=1, accepted=(AcceptedPose(ws.image_id, near, ws.action, "svm"),)
        )
        s2 = run_iteration(state, corpus.split, cands, fast_cfg(eps=0.3), gt=gt)
        _, stp, atp_stp, _ = s2.report.counts
        assert stp == len(s2.accepted)
        assert atp_stp == sum(pcp_correct(gt[a.image_id], a.skeleton, 0.7)[1] for a in s2.accepted)
        assert atp_stp > sum(pcp_correct(gt[a.image_id], a.skeleton, 0.3)[1] for a in s2.accepted)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_hand_built_sets(self, scheme):
        """Each target's set holds a junk pose above its true pose on score:
        the selector takes the true row, by value. Under weakC at a margin no
        pose clears, every target goes to recovery with its top two rows."""
        corpus, _ = tiny_corpus()
        rng = np.random.default_rng(7)
        split = corpus.split
        cands = {
            i: CandidateSet.from_keypoints(i, rng.uniform(10, 150, (3, 14, 2)), [0.5, 0.4, 0.3])
            for i in split.backgrounds
        }
        for e in split.ws:
            junk = rng.uniform(10, 150, (14, 2))
            truth = corpus.truth[e.image_id][0].keypoints
            cands[e.image_id] = CandidateSet.from_keypoints(e.image_id, [junk, truth], [0.9, 0.6])
        state = run_iteration(IterationState(), split, cands, fast_cfg(scheme=scheme))
        assert state.accepted
        for a in state.accepted:
            assert a.provenance == "svm" and a.action is split.ws_actions()[a.image_id]
            np.testing.assert_array_equal(a.skeleton.keypoints, cands[a.image_id].keypoints[1])

        if scheme is not Scheme.WEAKC:
            return
        pools = []
        real = pipeline.recover_poses
        cfg = fast_cfg(scheme=scheme, margin=1e9)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "RECOVER_PER_IMAGE", 2)
            mp.setattr(pipeline, "recover_poses", lambda p, *rest: pools.extend(p) or real(p, *rest))
            state = run_iteration(IterationState(), split, cands, cfg)
        rows = [row for X, scores, ids in pools for row in zip(ids, scores.tolist(), X)]
        assert sorted((i, s) for i, s, _ in rows) == sorted(
            (e.image_id, s) for e in split.ws for s in (0.9, 0.6)
        )
        for i, s, feature in rows:
            kp = cands[i].keypoints[[0.9, 0.6].index(s)]
            assert np.array_equal(feature, relational_features(kp[None], normalize=True)[0])
        assert all(a.provenance == "cluster" for a in state.accepted)

    def test_weakc_featurizes_no_row_twice(self, monkeypatch):
        """At the margin where every selector abstains, each open image's
        rows are featurized by select, and its recovery pool reuses those
        features: no pose is featurized twice in the round."""
        corpus, cands = tiny_corpus()
        featurized = Counter()
        real = pipeline.relational_features

        def counting(points, normalize=False, out=None):
            featurized.update(kp.tobytes() for kp in np.ascontiguousarray(points))
            return real(points, normalize, out)

        monkeypatch.setattr(pipeline, "relational_features", counting)
        monkeypatch.setattr(svm, "relational_features", counting)
        cfg = fast_cfg(scheme=Scheme.WEAKC, margin=10.0)
        state = run_iteration(IterationState(), corpus.split, cands, cfg)
        assert {a.provenance for a in state.accepted} == {"cluster"}
        rows = [kp.tobytes() for e in corpus.split.ws for kp in cands[e.image_id].keypoints]
        assert [featurized[kp] for kp in rows] == [1] * len(rows)
        assert max(featurized.values()) == 1

    def test_weakc_pool_rows_are_full_set_feature_rows(self):
        """With every selector abstaining, each pool holds an image's three
        best rows, whose features equal those rows of featurizing the whole
        set at once."""
        corpus, cands = tiny_corpus()
        pools = []
        real = pipeline.recover_poses
        cfg = fast_cfg(scheme=Scheme.WEAKC, margin=1e9)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "RECOVER_PER_IMAGE", 3)
            mp.setattr(pipeline, "recover_poses", lambda p, *rest: pools.extend(p) or real(p, *rest))
            run_iteration(IterationState(), corpus.split, cands, cfg)
        members = [member for X, scores, ids in pools for member in zip(ids, scores, X)]
        assert len(members) == sum(min(len(cands[e.image_id]), 3) for e in corpus.split.ws)
        full = {e.image_id: relational_features(cands[e.image_id].keypoints, normalize=True)
                for e in corpus.split.ws}
        seen: dict[str, int] = {}
        for image_id, score, feature in members:
            # enumerated sets are best first, so an image's pool rows are
            # its rows 0, 1 and 2, in that order
            row = seen[image_id] = seen.get(image_id, -1) + 1
            assert score == cands[image_id].scores[row]
            assert np.array_equal(feature, full[image_id][row])

    def test_set_must_carry_its_image_id(self):
        corpus, cands = tiny_corpus()
        i = corpus.split.ws[0].image_id
        cands[i] = CandidateSet.from_keypoints("other", cands[i].keypoints, cands[i].scores)
        with pytest.raises(ValueError, match=f"candidates for image '{i}' carry image_id 'other'"):
            run_iteration(IterationState(), corpus.split, cands, fast_cfg())

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_no_open_image_trains_and_selects_nothing(self, tmp_path, monkeypatch, trained, scheme):
        corpus, cands = tiny_corpus()
        gt = {i: skel for i, (skel, _) in corpus.truth.items()}
        state = IterationState(
            iteration=1,
            accepted=tuple(
                AcceptedPose(e.image_id, gt[e.image_id], e.action, "svm") for e in corpus.split.ws
            ),
        )
        calls = []

        def forbidden(name):
            return lambda *args, **kwargs: calls.append(name)

        monkeypatch.setattr(pipeline, "train", forbidden("train"))
        monkeypatch.setattr(pipeline, "select", forbidden("select"))
        cfg = fast_cfg(scheme=scheme)
        s2 = run_iteration(state, corpus.split, cands, cfg, gt=gt)
        assert calls == []
        assert s2.accepted == state.accepted
        assert trained == []
        write_iteration_files(tmp_path, s2, corpus.split, cfg)
        recs = read_pose_index(tmp_path / "annotations_iter2.jsonl")
        assert len(recs) == len(corpus.split.fs) + len(state.accepted)
        assert "counts atp=" in (tmp_path / "report_iter2.txt").read_text()


class TestStopCheck:
    def pose(self, image_id):
        skel = Skeleton(np.zeros((14, 2)) + np.arange(14)[:, None])
        return AcceptedPose(image_id, skel, ActionLabel.GENERAL, "svm")

    def test_no_new_acceptances_stops(self):
        a = self.pose("x")
        prev = IterationState(iteration=1, accepted=(a,))
        cur = IterationState(iteration=2, accepted=(a,))
        assert stop_check(prev, cur, PipelineConfig(max_iterations=9))

    def test_cap_stops(self):
        prev = IterationState(iteration=1, accepted=(self.pose("x"),))
        cur = IterationState(iteration=2, accepted=(self.pose("x"), self.pose("y")))
        assert stop_check(prev, cur, PipelineConfig(max_iterations=2))

    def test_progress_under_cap_continues(self):
        prev = IterationState(iteration=1, accepted=(self.pose("x"),))
        cur = IterationState(iteration=2, accepted=(self.pose("x"), self.pose("y")))
        assert not stop_check(prev, cur, PipelineConfig(max_iterations=5))


class TestExchangeFiles:
    def test_iteration_files_round_trip(self, tmp_path):
        corpus, cands = tiny_corpus()
        gt = {i: skel for i, (skel, _) in corpus.truth.items()}
        cfg = fast_cfg()
        state = run_iteration(IterationState(), corpus.split, cands, cfg, gt=gt)
        write_iteration_files(tmp_path, state, corpus.split, cfg)

        recs = read_pose_index(tmp_path / "annotations_iter1.jsonl").values()
        assert len(recs) == len(corpus.split.fs) + len(state.accepted)
        assert {r.provenance for r in recs} <= {"fs", "svm", "cluster"}
        fs_ids = set(corpus.split.fs_ids())
        assert {r.image_id for r in recs if r.provenance == "fs"} == fs_ids

        report = (tmp_path / "report_iter1.txt").read_text()
        assert report.startswith("iteration 1 scheme weak\n")
        assert f"accepted_total {len(state.accepted)}" in report
        assert "counts atp=" in report

    def test_read_candidate_dir(self, tmp_path):
        corpus, _ = tiny_corpus()
        image_id = corpus.split.ws[0].image_id
        skel, action = corpus.truth[image_id]
        write_pose_records(
            tmp_path / f"{image_id}.jsonl",
            [PoseRecord(image_id, skel.keypoints, action, score=0.75)],
        )
        out = read_candidate_dir(tmp_path, corpus.split)
        assert list(out) == [image_id] and len(out[image_id]) == 1
        cands = out[image_id]
        assert cands.image_id == image_id
        assert cands.scores.tolist() == [0.75] and cands.actions == (action,)

    def test_record_of_another_image_is_rejected(self, tmp_path):
        corpus, _ = tiny_corpus()
        mine, other = (e.image_id for e in corpus.split.ws[:2])
        skel, action = corpus.truth[other]
        path = tmp_path / f"{mine}.jsonl"
        write_pose_records(path, [PoseRecord(mine, skel.keypoints, action),
                                  PoseRecord(other, skel.keypoints, action)])
        with pytest.raises(ValueError) as e:
            read_candidate_dir(tmp_path, corpus.split)
        assert str(e.value) == f"{path}: record for image {other!r} in the file of image {mine!r}"

    def test_file_of_an_image_the_split_does_not_list_is_rejected(self, tmp_path):
        corpus, _ = tiny_corpus()
        skel, action = corpus.truth[corpus.split.ws[0].image_id]
        path = tmp_path / "stranger.jsonl"
        write_pose_records(path, [PoseRecord("stranger", skel.keypoints, action)])
        with pytest.raises(ValueError) as e:
            read_candidate_dir(tmp_path, corpus.split)
        assert str(e.value) == f"{path}: names no image of the split"

    def test_empty_file_gives_an_empty_set(self, tmp_path):
        corpus, _ = tiny_corpus()
        image_id = corpus.split.ws[0].image_id
        (tmp_path / f"{image_id}.jsonl").write_text("")
        (cands,) = read_candidate_dir(tmp_path, corpus.split).values()
        assert cands.image_id == image_id and cands.keypoints.shape == (0, 14, 2)

    def test_read_candidate_dir_empty(self, tmp_path):
        assert read_candidate_dir(tmp_path, tiny_corpus()[0].split) == {}


class TestRunPipeline:
    def test_invalid_split_rejected(self):
        corpus, _ = tiny_corpus()
        e = corpus.split.fs[0]
        with pytest.raises(
            ValueError, match=f"^invalid split: image {e.image_id!r} is in both fs and ws$"
        ):
            replace(corpus.split, ws=corpus.split.ws + (WsExample(e.image_id, e.action),))

    def test_two_iterations_and_files(self, tmp_path):
        corpus, cands = tiny_corpus()
        gt = {i: skel for i, (skel, _) in corpus.truth.items()}
        states = run_pipeline(corpus.split, cands, fast_cfg(), tmp_path, gt=gt)
        assert states[0].iteration == 0
        assert states[-1].iteration <= 2
        for t in range(1, states[-1].iteration + 1):
            assert (tmp_path / f"annotations_iter{t}.jsonl").exists()
            assert (tmp_path / f"report_iter{t}.txt").exists()
        # later reports score every pose accepted so far
        if len(states) > 2:
            assert states[-1].report.counts[1] >= states[1].report.counts[1]

    def test_candidate_refresh_is_ingested(self, tmp_path):
        """An unlabeled image of the split with no candidates at first gets
        its first ones from the refresh before iteration 2."""
        corpus, cands = tiny_corpus()
        split = replace(corpus.split, us=corpus.split.us + ("extra_0000",))
        donor = corpus.split.ws[0].image_id
        skel, _ = corpus.truth[donor]
        refresh = tmp_path / "candidates_iter2"
        refresh.mkdir(parents=True)
        write_pose_records(
            refresh / "extra_0000.jsonl",
            [PoseRecord("extra_0000", skel.keypoints, score=0.9)],
        )
        states = run_pipeline(split, cands, fast_cfg(scheme=Scheme.SEMI), tmp_path)
        assert "extra_0000" not in {a.image_id for a in states[1].accepted}
        assert "extra_0000" in {a.image_id for a in states[-1].accepted}

    def test_weakc_recovers_as_one_chain_per_action_alone(self, monkeypatch):
        """Every action's pool goes to recover_poses in one call; the cluster
        poses, in order, equal those of recovering each pool alone with its
        action's seed."""
        corpus, cands = tiny_corpus(n_actions=3, poses_per_action=12)
        cfg = fast_cfg(scheme=Scheme.WEAKC, margin=10.0)  # every selector abstains
        calls = []
        recover = pipeline.recover_poses

        def spy(pools, dp, seeds):
            calls.append((pools, dp, seeds))
            return recover(pools, dp, seeds)

        monkeypatch.setattr(pipeline, "recover_poses", spy)
        state = run_iteration(IterationState(), corpus.split, cands, cfg)
        assert len(calls) == 1
        pools, dp, seeds = calls[0]
        assert dp == cfg.dpmm and len(pools) == 3 and all(len(X) >= 4 for X, _, _ in pools)
        expected = []
        for ai, pool in enumerate(pools):
            seed = int(np.random.SeedSequence([cfg.seed, 1, ai]).generate_state(1)[0])
            assert seeds[ai] == seed
            expected += [(pool, row) for _, row in recover([pool], cfg.dpmm, [seed])]
        got = [a for a in state.accepted if a.provenance == "cluster"]
        assert len({a.action for a in got}) == 3
        assert [a.image_id for a in got] == [ids[row] for (_, _, ids), row in expected]
        for a, ((X, _, _), row) in zip(got, expected):
            # the accepted keypoints are those of the row clustered
            feature = relational_features(a.skeleton.keypoints[None], normalize=True)[0]
            assert np.array_equal(feature, X[row])
            assert a.action is corpus.split.ws_actions()[a.image_id]

    def test_weakc_runs_and_respects_append_only(self, tmp_path):
        corpus, cands = tiny_corpus()
        states = run_pipeline(
            corpus.split, cands, fast_cfg(scheme=Scheme.WEAKC), tmp_path
        )
        seen = [a.image_id for a in states[-1].accepted]
        assert len(seen) == len(set(seen))
        for a in states[-1].accepted:
            assert a.provenance in ("svm", "cluster")
