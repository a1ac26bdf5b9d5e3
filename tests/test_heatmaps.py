"""Per-joint score maps: peak finding and assembly."""
import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseboot import cli, fileio
from poseboot.heatmaps import CandidateGenConfig, Heatmap, _joint_peaks, enumerate_candidates
from poseboot.skeleton import N_JOINTS, JointId

from _oracles import (
    beam_assemble_reference,
    enumerate_candidates_reference,
    exhaustive_assemblies,
    local_maxima_reference,
    torso_length_per_pose,
)
from conftest import assemble


def grid_map(values, joint=JointId.HEAD, stride=1.0, origin=(0.0, 0.0)):
    return Heatmap(joint, np.asarray(values, dtype=float), stride=stride, origin=origin)


def local_maxima(h, cfg):
    """The peaks heatmaps._joint_peaks keeps on one map, best first, each
    with x, y, value, row and col as local_maxima_reference gives them."""
    _, row, col, xy, value = _joint_peaks([h], cfg)
    return [
        SimpleNamespace(x=x, y=y, value=v, row=r, col=c)
        for (x, y), v, r, c in zip(xy.tolist(), value.tolist(), row.tolist(), col.tolist())
    ]


class TestHeatmap:
    def test_values_must_be_unit_interval(self):
        with pytest.raises(ValueError):
            grid_map([[0.0, 1.2]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        g = np.full((3, 3), 0.5)
        g[1, 2] = bad
        with pytest.raises(ValueError, match="grid values must lie in"):
            grid_map(g)

    def test_float32_grid_widened_to_a_copy(self):
        g = np.full((2, 3), 0.1, dtype=np.float32)
        h = grid_map(g)
        assert h.grid.dtype == np.float64 and h.grid.tolist() == g.astype(np.float64).tolist()
        g[0, 0] = 0.9
        assert h.grid[0, 0] == np.float32(0.1)

    def test_grid_read_only(self):
        h = grid_map(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            h.grid[0, 0] = 0.5


class TestLocalMaxima:
    def test_interior_strict_maximum_found(self):
        g = np.zeros((7, 7))
        g[3, 4] = 0.9
        peaks = local_maxima(grid_map(g), CandidateGenConfig(threshold=0.5))
        assert len(peaks) == 1
        assert (peaks[0].row, peaks[0].col) == (3, 4)
        assert peaks[0].value == 0.9

    def test_plateau_is_not_strict(self):
        g = np.zeros((5, 5))
        g[2, 2] = g[2, 3] = 0.8
        peaks = local_maxima(grid_map(g), CandidateGenConfig(threshold=0.1))
        assert peaks == []

    def test_border_maxima_allowed(self):
        g = np.zeros((5, 5))
        g[0, 0] = 0.7
        peaks = local_maxima(grid_map(g), CandidateGenConfig(threshold=0.1))
        assert (peaks[0].row, peaks[0].col) == (0, 0)

    def test_threshold_filters(self):
        g = np.zeros((5, 5))
        g[2, 2] = 0.05
        assert local_maxima(grid_map(g), CandidateGenConfig(threshold=0.1)) == []

    def test_nms_suppresses_close_seconds(self):
        g = np.zeros((7, 9))
        g[3, 3] = 0.9
        g[3, 4] = 0.0  # make (3,5) a strict max
        g[3, 5] = 0.8
        g[3, 8] = 0.7
        cfg = CandidateGenConfig(threshold=0.1, nms_radius=2.5, top_k=5)
        peaks = local_maxima(grid_map(g), cfg)
        cols = [p.col for p in peaks]
        assert 3 in cols and 8 in cols and 5 not in cols

    def test_top_k_caps_output(self):
        g = np.zeros((5, 11))
        for k, c in enumerate((1, 4, 7, 9)):
            g[2, c] = 0.9 - 0.1 * k
        cfg = CandidateGenConfig(threshold=0.1, top_k=2, nms_radius=1.0)
        peaks = local_maxima(grid_map(g), cfg)
        assert len(peaks) == 2
        assert [p.col for p in peaks] == [1, 4]

    def test_subcell_interpolation_shifts_toward_heavier_neighbor(self):
        g = np.zeros((5, 5))
        g[2, 1], g[2, 2], g[2, 3] = 0.4, 0.8, 0.6
        peaks = local_maxima(grid_map(g), CandidateGenConfig(threshold=0.1))
        assert 2.0 < peaks[0].x < 2.5  # pulled toward column 3
        assert peaks[0].y == 2.0

    def test_interpolation_offset_clamped_to_half_cell(self):
        g = np.zeros((3, 3))
        g[1, 0], g[1, 1], g[1, 2] = 0.799999, 0.8, 0.0
        peaks = local_maxima(grid_map(g), CandidateGenConfig(threshold=0.1))
        assert abs(peaks[0].x - 1.0) <= 0.5

    def test_stride_and_origin_map_to_pixels(self):
        g = np.zeros((5, 5))
        g[2, 3] = 0.9
        h = grid_map(g, stride=4.0, origin=(10.0, 20.0))
        peaks = local_maxima(h, CandidateGenConfig(threshold=0.1))
        assert peaks[0].x == pytest.approx(10.0 + 3 * 4.0)
        assert peaks[0].y == pytest.approx(20.0 + 2 * 4.0)


class TestBeamAssemble:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64))
    def test_matches_exhaustive_enumeration(self, seed, beam):
        rng = np.random.default_rng(seed)
        per_joint = [
            list(rng.uniform(0.05, 1.0, size=rng.integers(1, 4))) for _ in range(4)
        ]
        got = assemble(per_joint, beam)
        want = exhaustive_assemblies(per_joint)[:beam]
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([t for _, t in got], [t for _, t in want])

    def test_empty_joint_empties_output(self):
        assert assemble([[0.5], [], [0.3]], beam=10) == []

    def test_deterministic_tie_order(self):
        got = assemble([[0.5, 0.5], [0.2]], beam=10)
        assert [i for i, _ in got] == [(0, 0), (1, 0)]

    @pytest.mark.parametrize("beam", [1, 2, 5, 7, 26, 80, 81, 200])
    @pytest.mark.parametrize(
        "per_joint",
        [
            [[0.5] * 3] * 4,  # every total ties
            [[0.5, 0.25, 0.5], [0.25, 0.5, 0.25], [0.5, 0.5, 0.25], [0.25, 0.25, 0.5]],
        ],
        ids=["all-equal", "two-levels"],
    )
    def test_ties_straddling_the_cut(self, per_joint, beam):
        """The cut keeps the lowest-index partials among those tied at the
        beam-th largest total, as the reference's sort does."""
        assert assemble(per_joint, beam) == beam_assemble_reference(per_joint, beam)

    @pytest.mark.parametrize("seed", range(4))
    def test_bench_scale_beam(self, seed):
        """14 joints of 5 peaks on a few levels and beam 500: expansions of
        2,500 partials with many ties at each cut."""
        rng = np.random.default_rng(seed)
        levels = np.array([0.25, 0.5, 0.625, 0.75, 0.9, 1.0])
        per_joint = [list(rng.choice(levels, size=5)) for _ in range(N_JOINTS)]
        got = assemble(per_joint, 500)
        assert len(got) == 500
        assert got == beam_assemble_reference(per_joint, 500)


class TestEnumerateCandidates:
    def _maps(self, peak_cols, size=9):
        maps = []
        for j in JointId:
            g = np.zeros((size, size))
            for c, v in peak_cols.get(j, [(4, 0.8)]):
                g[int(j) % (size - 2) + 1, c] = v
            maps.append(Heatmap(j, g))
        return maps

    def test_single_peak_per_joint_gives_one_candidate(self):
        cands = enumerate_candidates(self._maps({}), CandidateGenConfig(), "img")
        assert len(cands) == 1
        assert cands.image_id == "img"
        assert cands.scores[0] == pytest.approx(0.8 * 14)
        assert cands.keypoints.shape == (1, 14, 2)
        assert not cands.keypoints.flags.writeable and not cands.scores.flags.writeable

    def test_best_first_ordering(self):
        maps = self._maps({JointId.HEAD: [(2, 0.9), (6, 0.5)]})
        cands = enumerate_candidates(maps, CandidateGenConfig(), "img")
        assert len(cands) == 2
        assert cands.scores[0] > cands.scores[1]

    def test_missing_joint_rejected(self):
        maps = [h for h in self._maps({}) if h.joint is not JointId.L_WRIST]
        with pytest.raises(ValueError, match="missing joint map for L_WRIST"):
            enumerate_candidates(maps, CandidateGenConfig(), "img")

    def test_duplicate_joint_rejected(self):
        maps = self._maps({})
        maps.append(maps[0])
        with pytest.raises(ValueError, match="duplicate"):
            enumerate_candidates(maps, CandidateGenConfig(), "img")

    def test_beam_caps_candidate_count(self):
        maps = self._maps({j: [(2, 0.9), (5, 0.8), (7, 0.7)] for j in JointId})
        cfg = CandidateGenConfig(threshold=0.1, top_k=3, beam=500)
        cands = enumerate_candidates(maps, cfg, "img")
        assert len(cands) == 500
        scores = cands.scores.tolist()
        assert scores == sorted(scores, reverse=True)

    def test_joint_without_peak_gives_empty_set(self):
        maps = self._maps({JointId.R_ANKLE: []})
        cands = enumerate_candidates(maps, CandidateGenConfig(), "img")
        assert len(cands) == 0 and cands.image_id == "img"
        assert cands.keypoints.shape == (0, 14, 2) and cands.scores.shape == (0,)


# levels of a coarse grid: equal neighbours make ties and plateaus
_LEVELS = (0.0, 0.05, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0)


@st.composite
def joint_maps(draw):
    """14 maps of assorted shapes, strides and origins. Each is a low
    background of a few levels with up to four raised cells drawn from a few
    more, so peaks tie in value, sit on the border or merge into plateaus;
    sometimes one joint has no peak at all (a flat map). In four draws of
    five the first raised cell of every map is its strict top, so that
    every map has a peak and most draws assemble candidates; in the fifth
    the other raised cells may tie with it or replace it."""
    maps = []
    flat = draw(st.sampled_from(range(-5 * N_JOINTS, N_JOINTS)))  # a joint about one time in six
    strict_top = draw(st.integers(0, 4)) > 0
    for j in JointId:
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        n = rows * cols
        cells = draw(st.lists(st.sampled_from(_LEVELS[:4]), min_size=n, max_size=n))
        grid = np.array(cells).reshape(rows, cols)
        top = None
        for k in range(draw(st.integers(1, 4))):
            r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            if top is None:
                top = (r, c)
                grid[r, c] = draw(st.sampled_from(_LEVELS[7:]))
            elif not strict_top:  # may tie with the top cell, or overwrite it
                grid[r, c] = draw(st.sampled_from(_LEVELS[5:8]))
            elif (r, c) != top:  # below the top cell; the others still tie often
                grid[r, c] = draw(st.sampled_from([v for v in _LEVELS[5:8] if v < grid[top]]))
        if int(j) == flat:
            grid = np.full((rows + 1, cols), draw(st.sampled_from(_LEVELS)))
        stride = draw(st.sampled_from([1.0, 0.5, 3.0, 2.75, 4.0]))
        origin = (
            draw(st.sampled_from([0.0, -3.5, 10.25])),
            draw(st.sampled_from([0.0, 7.0, -1.125])),
        )
        maps.append(Heatmap(j, grid, stride=stride, origin=origin))
    return maps


class TestBatchedAgainstReference:
    """The array code is the per-map, per-tuple search, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        joint_maps(),
        st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.5]),
        st.integers(1, 5),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]) | st.floats(0.0, 3.0),
        st.integers(1, 600),
    )
    def test_enumerate_candidates(self, maps, threshold, top_k, nms_radius, beam):
        cfg = CandidateGenConfig(threshold=threshold, top_k=top_k, nms_radius=nms_radius, beam=beam)
        want = enumerate_candidates_reference(maps, cfg)
        # tiny grids often put a neck on its hips' midpoint, which CandidateSet rejects
        no_torso = [k for k, (kp, _) in enumerate(want) if not torso_length_per_pose(kp) > 0.0]
        if no_torso:
            with pytest.raises(ValueError, match=f"^image 'img': cannot normalize: "
                                                 f"degenerate torso in row {no_torso[0]}$"):
                enumerate_candidates(maps, cfg, "img")
        else:
            got = enumerate_candidates(maps, cfg, "img")
            assert len(got) == len(want)
            assert got.scores.tolist() == [score for _, score in want]
            want_kp = np.array([kp for kp, _ in want]).reshape(-1, 14, 2)
            assert np.array_equal(got.keypoints, want_kp)
        for h in maps:
            peaks = local_maxima(h, cfg)
            ref = local_maxima_reference(h, cfg)
            assert [(p.x, p.y, p.value, p.row, p.col) for p in peaks] == [
                (p.x, p.y, p.value, p.row, p.col) for p in ref
            ]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(_LEVELS[1:]), min_size=0, max_size=5), min_size=0, max_size=14
        ),
        st.integers(1, 600),
    )
    def test_beam_assemble(self, per_joint, beam):
        assert assemble(per_joint, beam) == beam_assemble_reference(per_joint, beam)


class TestHardCorpusDigests:
    """Candidates at the benchmark's scale: the property tests stop at 7 x 7
    maps and 5 peaks per joint, while a hard corpus (distractor rate 0.6,
    noise 6 px) makes 48 x 48 maps and beam expansions of 1,500 partials."""

    # (candidates, SHA-256 of the keypoint then the score bytes) per image,
    # computed with the per-step argsort beam that the partition beam replaced
    DIGESTS = {
        "athletics_0000": (500, "5bbf18b62583af6b268bd80f588567efc683dc6b848f8560803079b44da3bef0"),
        "athletics_0001": (500, "0cde5ba44aad9c66dc56a600ae10d5296bef1d64e30adf827ac23b2be360e140"),
        "athletics_0002": (32, "f3ed91900a85355facc94f3f5dcf5d557c4a1bbb94c13d3cfd9ef50619ba89fc"),
        "badminton_0000": (256, "1a5a378b94b2a8765a5a737d2e1e0d2cb591628c7c76a64f1347079ed66eb3bf"),
        "badminton_0001": (500, "736e1b1840ca1ecde7330e24e460a61e7f416dcf6cd185af9e4de383a1f7215d"),
        "badminton_0002": (256, "d60353eaab7c51894025144097c04f612b14323e1ec22ba86b5fc8f052b8e171"),
        "bg_0000": (500, "6376b7945be982903f9f7d7eb5963e26f91b775e12d56ccc9fab7c06809cbfb9"),
    }

    @pytest.fixture(scope="class")
    def maps(self, tmp_path_factory):
        """Each image's maps, by image id."""
        out = tmp_path_factory.mktemp("hard")
        assert cli.main(["synth", "--out", str(out), "--actions", "2", "--poses", "3",
                         "--backgrounds", "1", "--seed", "4", "--outlier-rate", "0.6",
                         "--noise", "6"]) == 0
        return {p.stem: fileio.read_heatmaps(p) for p in sorted((out / "heatmaps").glob("*.hm"))}

    def test_candidates_keep_their_bytes(self, maps):
        got = {}
        for image_id, image_maps in maps.items():
            cands = enumerate_candidates(image_maps, CandidateGenConfig(), image_id)
            digest = hashlib.sha256(cands.keypoints.tobytes() + cands.scores.tobytes())
            got[image_id] = (len(cands), digest.hexdigest())
        assert got == self.DIGESTS

    def test_sets_hold_few_bytes_per_candidate(self, maps):
        """A set holds each image's kept peaks once and a candidate as 14
        uint8 peak indices and a float64 score: at most 48 traced bytes per
        candidate over these images, set overheads included (27.6 measured).
        Holding (14, 2) float64 keypoints per candidate took 236."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sets = [enumerate_candidates(m, CandidateGenConfig(), i) for i, m in maps.items()]
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert all(s.index.dtype == np.uint8 for s in sets)
        assert held <= 48 * sum(map(len, sets)), held / sum(map(len, sets))
