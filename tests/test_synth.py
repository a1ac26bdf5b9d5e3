"""Synthetic corpus generator: determinism, split shape, signal quality."""
import numpy as np
import pytest

from poseboot.heatmaps import CandidateGenConfig, enumerate_candidates
from poseboot.metrics import pcp_correct
from poseboot.skeleton import JointId, N_JOINTS, Skeleton
from poseboot.synth import SynthConfig, SynthCorpus, action_template, synth_corpus


def small(**kw):
    base = dict(n_actions=3, poses_per_action=6, n_backgrounds=4, seed=11)
    base.update(kw)
    return SynthConfig(**base)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a, b = synth_corpus(small()), synth_corpus(small())
        assert [e.image_id for e in a.split.fs] == [e.image_id for e in b.split.fs]
        assert a.split.ws == b.split.ws
        assert a.split.backgrounds == b.split.backgrounds
        for ea, eb in zip(a.split.fs, b.split.fs):
            np.testing.assert_array_equal(ea.skeleton.keypoints, eb.skeleton.keypoints)
        assert set(a.heatmaps) == set(b.heatmaps)
        for image_id, maps in a.heatmaps.items():
            for j in JointId:
                np.testing.assert_array_equal(maps[j].grid, b.heatmaps[image_id][j].grid)
        for image_id, (skel, action) in a.truth.items():
            np.testing.assert_array_equal(skel.keypoints, b.truth[image_id][0].keypoints)
            assert action == b.truth[image_id][1]

    def test_seed_changes_poses(self):
        a = synth_corpus(small(seed=1))
        b = synth_corpus(small(seed=2))
        image_id = a.split.fs[0].image_id
        assert not np.array_equal(
            a.truth[image_id][0].keypoints, b.truth[image_id][0].keypoints
        )


    def test_sink_gets_each_image_as_drawn_and_nothing_is_kept(self):
        """With a sink, every image's maps go to it in corpus order, equal to
        the maps kept without one, and the corpus keeps none of them."""
        kept = synth_corpus(small())
        got = []
        streamed = synth_corpus(small(), lambda image_id, maps: got.append((image_id, maps)))
        assert streamed.heatmaps == {}
        assert [i for i, _ in got] == list(kept.heatmaps)
        for image_id, maps in got:
            for j in JointId:
                assert maps[j].grid.tobytes() == kept.heatmaps[image_id][j].grid.tobytes()
        assert streamed.split.fs_ids() == kept.split.fs_ids()
        assert streamed.split.ws == kept.split.ws
        assert streamed.split.backgrounds == kept.split.backgrounds
        for image_id, (skel, action) in kept.truth.items():
            assert streamed.truth[image_id][0].keypoints.tobytes() == skel.keypoints.tobytes()
            assert streamed.truth[image_id][1] is action


class TestSplitShape:
    def test_counts_and_rounding(self):
        corpus = synth_corpus(small(poses_per_action=7, ws_fraction=0.5))
        # 7 poses, half weak: round(7 * 0.5) = 4 fully supervised per action
        assert len(corpus.split.fs) == 3 * 4
        assert len(corpus.split.ws) == 3 * 3
        assert len(corpus.split.us) == 0
        assert len(corpus.split.backgrounds) == 4

    def test_fs_comes_first_within_action(self):
        corpus = synth_corpus(small())
        fs_ids = {e.image_id for e in corpus.split.fs}
        ws_ids = {e.image_id for e in corpus.split.ws}
        for action in {e.action for e in corpus.split.fs}:
            fs_idx = [int(i.rsplit("_", 1)[1]) for i in fs_ids if i.startswith(action.value)]
            ws_idx = [int(i.rsplit("_", 1)[1]) for i in ws_ids if i.startswith(action.value)]
            assert max(fs_idx) < min(ws_idx)

    def test_id_formats(self):
        corpus = synth_corpus(small())
        assert corpus.split.fs[0].image_id.endswith("_0000")
        assert all(b.startswith("bg_") for b in corpus.split.backgrounds)

    def test_split_validates_clean(self):
        # a DatasetSplit checks itself when built, so building it is the test
        synth_corpus(small())

    def test_ws_fraction_one_means_no_fs(self):
        corpus = synth_corpus(small(ws_fraction=1.0))
        assert len(corpus.split.fs) == 0
        assert len(corpus.split.ws) == 3 * 6


class TestSignalQuality:
    def test_heatmap_values_unit_interval(self):
        corpus = synth_corpus(small(outlier_rate=1.0))
        for maps in corpus.heatmaps.values():
            for h in maps.values():
                assert h.grid.min() >= 0.0 and h.grid.max() <= 1.0

    def test_clean_corpus_top_candidate_matches_truth(self):
        """With no distractors the best assembly is the true pose everywhere."""
        corpus = synth_corpus(small(outlier_rate=0.0, n_backgrounds=0))
        cfg = CandidateGenConfig()
        for image_id, maps in corpus.heatmaps.items():
            cands = enumerate_candidates(list(maps.values()), cfg, image_id=image_id)
            assert cands, image_id
            truth = corpus.truth[image_id][0]
            assert pcp_correct(truth, Skeleton(cands.keypoints[0]), eps=0.7)[1], image_id

    def test_distractor_peak_stays_secondary(self):
        """The true bump outranks any distractor: argmax sits on the joint."""
        corpus = synth_corpus(small(outlier_rate=1.0, n_backgrounds=0))
        for image_id, maps in corpus.heatmaps.items():
            truth = corpus.truth[image_id][0]
            for j in JointId:
                h = maps[j]
                r, c = np.unravel_index(np.argmax(h.grid), h.grid.shape)
                px = np.array(h.origin) + h.stride * np.array([c, r], dtype=float)
                assert np.linalg.norm(px - truth.joint(j)) < 3.0 * h.stride

    def test_templates_pairwise_distinct(self):
        templates = [action_template(i) for i in range(8)]
        for i in range(8):
            for k in range(i + 1, 8):
                gap = np.abs(templates[i].keypoints - templates[k].keypoints).max()
                assert gap > 1.0, (i, k)

    def test_template_independent_of_corpus_seed(self):
        np.testing.assert_array_equal(
            action_template(2).keypoints, action_template(2).keypoints
        )
        a = synth_corpus(small(seed=3))
        b = synth_corpus(small(seed=4))
        assert set(a.truth) == set(b.truth)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_actions=0),
            dict(n_actions=99),
            dict(poses_per_action=0),
            dict(n_backgrounds=-1),
            dict(outlier_rate=1.5),
            dict(outlier_rate=-0.1),
            dict(ws_fraction=2.0),
            dict(base_noise=-1.0),
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            small(**kw)

    def test_corpus_is_frozen_shape(self):
        corpus = synth_corpus(small())
        assert isinstance(corpus, SynthCorpus)
        assert all(len(s.keypoints) == N_JOINTS for s, _ in corpus.truth.values())
