"""Acceptance gate: eleven numbered guarantees, one pass/fail line each.

Each test checks one stated tolerance and prints
    [criterion NN] PASS|FAIL — <what was measured> (<elapsed>)
directly to the terminal, bypassing capture, then enforces the criterion's
wall-clock budget.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import logsumexp

from _oracles import (
    crp_log_prior,
    crp_seating_probability,
    exhaustive_assemblies,
    nig_marginal_quadrature,
    set_partitions,
    svm_grid_minimum,
    svm_objective,
)
from conftest import assemble, random_skeleton
from poseboot.dpmm import (
    DpmmConfig,
    NigBase,
    Partition,
    cluster_log_marginal,
    detect_outliers,
    gibbs_cluster,
    sample_partitions,
)
from poseboot.features import relational_feature
from poseboot.heatmaps import CandidateGenConfig, Heatmap, enumerate_candidates
from poseboot.metrics import (
    ReferenceLength,
    pck_correct,
    pcp_correct,
    selection_stats,
)
from poseboot.pipeline import PipelineConfig, Scheme, run_pipeline
from poseboot.skeleton import LIMBS, CandidateSet, JointId, Skeleton
from poseboot.svm import TrainSet, synthesize_positives, train
from poseboot.synth import SynthConfig, synth_corpus

DIST, ORI, ANG = slice(0, 91), slice(91, 182), slice(182, 1274)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(num, budget, desc):
        t0 = time.perf_counter()
        note = {"detail": ""}
        failed = False
        try:
            yield note
        except BaseException:
            failed = True
            raise
        finally:
            elapsed = time.perf_counter() - t0
            status = "FAIL" if failed or elapsed >= budget else "PASS"
            text = desc + (f"; {note['detail']}" if note["detail"] else "")
            with capsys.disabled():
                print(f"[criterion {num:02d}] {status} — {text} ({elapsed:.1f}s)")
        assert elapsed < budget, f"over the {budget}s budget: {elapsed:.1f}s"

    return run


def circular_gap(a, b):
    return np.abs(np.angle(np.exp(1j * (a - b))))


def test_criterion_01(criterion, rng):
    with criterion(1, 1.0, "1274 relational components split 91/91/1092") as note:
        skel = random_skeleton(rng)
        f = relational_feature(skel)  # warm
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            f = relational_feature(skel)
            times.append(time.perf_counter() - t0)
        assert f.shape == (1274,)
        assert f[DIST].shape == (91,)
        assert f[ORI].shape == (91,)
        assert f[ANG].shape == (1092,)
        call_ms = 1e3 * sorted(times)[len(times) // 2]
        assert call_ms < 1.0, f"feature call took {call_ms:.3f} ms"
        note["detail"] = f"call {call_ms:.2f} ms"


def test_criterion_02(criterion):
    with criterion(
        2, 1.0, "translation/scale/rotation behavior on 1000 skeletons"
    ) as note:
        gen = np.random.default_rng(202)
        kps = gen.uniform(10.0, 150.0, (1000, 14, 2))
        k, theta = 1.75, 0.6
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        base = np.stack([relational_feature(Skeleton(p)) for p in kps])
        moved = np.stack(
            [relational_feature(Skeleton(p + (37.5, -12.25))) for p in kps]
        )
        scaled = np.stack([relational_feature(Skeleton(p * k)) for p in kps])
        turned = np.stack([relational_feature(Skeleton(p @ rot.T)) for p in kps])

        rel = np.abs(moved - base) / np.abs(base)
        assert rel[:, DIST].max() <= 1e-9
        assert circular_gap(moved[:, ORI], base[:, ORI]).max() <= 1e-9
        assert np.abs(moved[:, ANG] - base[:, ANG]).max() <= 1e-9

        assert np.abs(scaled[:, DIST] / base[:, DIST] - k).max() <= 1e-9
        assert circular_gap(scaled[:, ORI], base[:, ORI]).max() <= 1e-9
        assert np.abs(scaled[:, ANG] - base[:, ANG]).max() <= 1e-9

        assert (np.abs(turned[:, DIST] - base[:, DIST]) / base[:, DIST]).max() <= 1e-9
        assert np.abs(turned[:, ANG] - base[:, ANG]).max() <= 1e-9
        assert circular_gap(turned[:, ORI], base[:, ORI] + theta).max() <= 1e-9
        note["detail"] = "invariances hold at 1e-9"


def test_criterion_03(criterion):
    with criterion(
        3, 60.0, "partition prior vs enumeration (n<=8) and Gibbs posterior TV"
    ) as note:
        worst = 0.0
        for alpha in (0.5, 1.0, 3.0):
            for n in range(1, 9):
                parts = set_partitions(n)
                total = 0.0
                for z in parts:
                    p = np.exp(crp_log_prior(Partition(z), alpha))
                    worst = max(worst, abs(p - crp_seating_probability(z, alpha)))
                    total += p
                worst = max(worst, abs(total - 1.0))
        assert len(set_partitions(8)) == 4140
        assert worst <= 1e-10, worst

        xs = np.array([-2.0, -1.9, 0.0, 1.9, 2.0])[:, None]
        base = NigBase()
        parts = set_partitions(5)
        logps = []
        for z in parts:
            p = Partition(z)
            lp = crp_log_prior(p, 1.0)
            for c in range(p.n_clusters):
                lp += cluster_log_marginal(xs[p.members(c)], base)
            logps.append(lp)
        exact = np.exp(np.array(logps) - logsumexp(logps))
        cfg = DpmmConfig(gamma=1.0, base=base, gibbs_iters=20500, burn_in=500, seed=7)
        (samples,) = sample_partitions(xs, cfg, [(len(xs), cfg.seed)])
        assert len(samples) == 20000
        freq: dict[tuple, int] = {}
        for z, _ in samples:
            freq[z] = freq.get(z, 0) + 1
        emp = np.array([freq.get(z, 0) for z in parts], dtype=float) / len(samples)
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv <= 0.05, tv
        note["detail"] = f"enum gap {worst:.1e}, TV {tv:.4f} over 20000 samples"


def test_criterion_04(criterion):
    with criterion(4, 10.0, "closed-form marginal vs quadrature, 1-5 points") as note:
        xs_full = [0.4, -1.3, 2.2, 0.9, -0.5]
        bases = [NigBase(), NigBase(mu0=0.3, kappa0=0.5, a0=2.0, b0=1.5)]
        worst = 0.0
        for base in bases:
            for n in range(1, 6):
                xs = np.array(xs_full[:n])
                got = cluster_log_marginal(xs[:, None], base)
                want = nig_marginal_quadrature(
                    xs, float(base.mu0), base.kappa0, base.a0, float(base.b0)
                )
                worst = max(worst, abs(got - want))
                assert abs(got - want) <= 1e-6, (n, got, want)
        note["detail"] = f"worst gap {worst:.1e}"


def test_criterion_05(criterion):
    with criterion(
        5, 60.0, "planted outliers flagged, clean control untouched, 20 seeds each"
    ) as note:
        for seed in range(20):
            gen = np.random.default_rng(1000 + seed)
            xs = np.concatenate(
                [gen.normal(-10, 0.3, 50), gen.normal(10, 0.3, 50), [200.0, 200.5]]
            )[:, None]
            scores = np.concatenate([gen.uniform(0.5, 1.0, 100), [0.2, 0.2]])
            cfg = DpmmConfig(alpha=1 / 3, gibbs_iters=80, burn_in=30, seed=seed)
            report = detect_outliers(xs, scores, gibbs_cluster(xs, cfg), cfg)
            assert report.outlier_indices == (100, 101), (seed, report.outlier_indices)

            gen = np.random.default_rng(2000 + seed)
            xs = np.concatenate(
                [gen.normal(-10, 0.3, 50), gen.normal(10, 0.3, 50)]
            )[:, None]
            scores = gen.uniform(0.5, 1.0, 100)
            report = detect_outliers(xs, scores, gibbs_cluster(xs, cfg), cfg)
            assert report.outlier_indices == (), (seed, report.outlier_indices)
        note["detail"] = "2/2 planted flagged, 0 false flags, 40 runs"


def test_criterion_06(criterion):
    with criterion(6, 10.0, "solver vs grid oracle on the 4-point instances") as note:
        X_sep = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
        y_sep = np.array([-1.0, -1.0, 1.0, 1.0])
        X_xor = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y_xor = np.array([1.0, 1.0, -1.0, -1.0])
        # train optimizes in Z = (X - m.mean) / m.std, where both instances
        # are exactly the +/-1 ones; the oracle and the objective are read there
        m = train(TrainSet(X_sep, y_sep), tol=1e-8, max_iter=100000)
        Z_sep = (X_sep - m.mean) / m.std
        assert np.array_equal(np.abs(Z_sep), np.ones((4, 2)))
        grid_sep = svm_grid_minimum(Z_sep, y_sep)
        assert grid_sep == pytest.approx(0.5, abs=1e-12)
        j_sep = svm_objective(m.weights, m.bias, Z_sep, y_sep)
        # the grid value upper-bounds the continuum optimum (1/2), so the
        # solver may only undercut it; it must land within 1e-2 of the oracle
        assert j_sep <= grid_sep + 1e-2, (j_sep, grid_sep)
        assert j_sep >= 0.5 - 1e-9
        preds = np.sign(Z_sep @ m.weights + m.bias)
        assert np.array_equal(preds, y_sep), "separable data must reach zero errors"
        assert np.all(np.diff(m.objective_history) <= 1e-12)

        m = train(TrainSet(X_xor, y_xor), tol=1e-8, max_iter=100000)
        Z_xor = (X_xor - m.mean) / m.std
        assert np.array_equal(np.abs(Z_xor), np.ones((4, 2)))
        grid_xor = svm_grid_minimum(Z_xor, y_xor)
        assert grid_xor == pytest.approx(4.0, abs=1e-12)
        j_xor = svm_objective(m.weights, m.bias, Z_xor, y_xor)
        assert abs(j_xor - grid_xor) <= 1e-2, (j_xor, grid_xor)
        assert np.all(np.diff(m.objective_history) <= 1e-12)
        note["detail"] = (
            f"separable {j_sep:.4f} vs grid {grid_sep:.3f}, xor {j_xor:.4f} vs 4.0"
        )


def test_criterion_07(criterion):
    with criterion(
        7, 10.0, "10000 synthesized positives at eps 0.7 all PCP-correct at 0.7"
    ) as note:
        gen = np.random.default_rng(77)
        checked = 0
        for _ in range(10):
            gt = random_skeleton(gen)
            for jittered in synthesize_positives(gt, 1000, 0.7, gen):
                assert pcp_correct(gt, Skeleton(jittered), eps=0.7)[1]
                checked += 1
        assert checked == 10000
        note["detail"] = f"{checked} jitters checked"


def test_criterion_08(criterion):
    with criterion(
        8, 1.0, "beam search equals exhaustive enumeration, 4 joints x top 3"
    ) as note:
        gen = np.random.default_rng(8)
        for _ in range(25):
            per_joint = [list(gen.uniform(0.0, 1.0, 3)) for _ in range(4)]
            assert assemble(per_joint, beam=500) == exhaustive_assemblies(per_joint)

        maps = []
        for j in JointId:
            grid = np.zeros((12, 12))
            grid[2 + int(j) % 8, 3 + int(j) % 7] = 1.0
            maps.append(Heatmap(joint=j, grid=grid, stride=4.0))
        cands = enumerate_candidates(maps, CandidateGenConfig(top_k=3), image_id="x")
        assert len(cands) == 1
        note["detail"] = "25 instances exact; single-peak image gives 1 candidate"


_FULL_CORPUS: dict = {}


def _full_corpus():
    """Shared 8x50 corpus with candidates; built once, inside a timed block."""
    if not _FULL_CORPUS:
        corpus = synth_corpus(SynthConfig())
        gen = CandidateGenConfig()
        cands = {
            i: enumerate_candidates(list(maps.values()), gen, image_id=i)
            for i, maps in corpus.heatmaps.items()
        }
        _FULL_CORPUS["corpus"] = corpus
        _FULL_CORPUS["cands"] = cands
    return _FULL_CORPUS["corpus"], _FULL_CORPUS["cands"]


def _run_scheme(scheme):
    corpus, cands = _full_corpus()
    gt = {i: skel for i, (skel, _) in corpus.truth.items()}
    cfg = PipelineConfig(scheme=scheme, dpmm=DpmmConfig(), seed=0)
    return run_pipeline(corpus.split, cands, cfg, gt=gt)


def test_criterion_09(criterion):
    with criterion(
        9, 300.0, "scheme dominance, rate ordering, 2-iteration cap, determinism"
    ) as note:
        runs = {s: _run_scheme(s) for s in (Scheme.SEMI, Scheme.WEAK, Scheme.WEAKC)}

        def accepted_ids(states):
            return {a.image_id for a in states[-1].accepted}

        semi, weak, weakc = (
            accepted_ids(runs[s]) for s in (Scheme.SEMI, Scheme.WEAK, Scheme.WEAKC)
        )
        assert semi <= weak <= weakc

        for states in runs.values():
            assert states[-1].iteration == 2 and len(states) == 3
            for st in states[1:]:
                r = st.report
                assert r.selected_tp_rate <= r.detected_tp_rate + 1e-12

        again = _run_scheme(Scheme.WEAK)
        first = runs[Scheme.WEAK][-1].accepted
        second = again[-1].accepted
        assert [a.image_id for a in first] == [a.image_id for a in second]
        assert [a.provenance for a in first] == [a.provenance for a in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.skeleton.keypoints, b.skeleton.keypoints)
        note["detail"] = (
            f"accepted semi {len(semi)} <= weak {len(weak)} <= weakC {len(weakc)}"
        )


def test_criterion_10(criterion):
    with criterion(10, 300.0, "selection precision at conservative defaults") as note:
        states = _run_scheme(Scheme.WEAK)
        report = states[-1].report
        assert report.precision is not None
        assert report.precision >= 0.9, report.precision
        recall = "absent" if report.recall is None else f"{report.recall:.3f}"
        note["detail"] = f"precision {report.precision:.3f} (recall {recall})"


def test_criterion_11(criterion):
    with criterion(11, 1.0, "precision/recall and PCP/PCK fixture arithmetic") as note:
        gen = np.random.default_rng(11)
        truth = {f"i{k}": random_skeleton(gen) for k in range(10)}
        candidates, selected = {}, {}
        for k, i in enumerate(sorted(truth)):
            junk = truth[i].keypoints + 1e5
            candidates[i] = CandidateSet.from_keypoints(i, [truth[i].keypoints, junk], [1.0, 2.0])
            selected[i] = Skeleton(candidates[i].keypoints[1 if k < 2 else 0])
        r = selection_stats(list(truth.items()), candidates, selected, eps=0.7)
        assert r.counts == (10, 10, 8, 10)
        assert r.precision == 8 / 10 and r.recall == 8 / 10

        perfect = {i: CandidateSet.from_keypoints(i, [truth[i].keypoints], [1.0]) for i in truth}
        r = selection_stats(
            list(truth.items()), perfect, dict(truth), eps=0.7
        )
        assert (
            r.detected_tp_rate == r.selected_tp_rate == r.precision == r.recall == 1.0
        )
        r = selection_stats(list(truth.items()), perfect, {}, eps=0.7)
        assert r.selected_tp_rate == 0.0 and r.precision is None

        gt = random_skeleton(gen)
        assert pcp_correct(gt, gt, eps=0.7)[1]
        limb = LIMBS.index((JointId.L_ELBOW, JointId.L_WRIST))
        bad = gt.keypoints.copy()
        bad[int(JointId.L_WRIST), 0] += 0.71 * gt.limb_lengths()[limb]
        flags, all_ok = pcp_correct(gt, Skeleton(bad), eps=0.7)
        assert not flags[limb] and not all_ok
        near = gt.keypoints.copy()
        lengths = gt.limb_lengths()
        for j in range(14):
            incident = min(lengths[k] for k, (a, b) in enumerate(LIMBS) if j in (a, b))
            near[j] += (0.5 * incident / np.sqrt(2),) * 2
        assert pcp_correct(gt, Skeleton(near), eps=0.7)[1]

        assert pck_correct(gt, gt, 0.2, ReferenceLength.BBOX_MAX_SIDE).all()
        side = np.ptp(gt.keypoints, axis=0).max()
        off = gt.keypoints.copy()
        off[int(JointId.L_ANKLE), 1] += 0.25 * side
        flags = pck_correct(gt, Skeleton(off), 0.2, ReferenceLength.BBOX_MAX_SIDE)
        assert flags.sum() == 13 and not flags[int(JointId.L_ANKLE)]

        pts = np.zeros((14, 2))
        pts[:, 0] = np.arange(14) * 30.0
        pts[int(JointId.HEAD)] = (0.0, 0.0)
        pts[int(JointId.NECK)] = (0.0, 20.0)
        head_gt = Skeleton(pts)
        for err, ok in ((9.0, True), (10.5, False)):
            est = pts.copy()
            est[int(JointId.L_ELBOW), 1] += err
            flags = pck_correct(
                head_gt, Skeleton(est), 0.5, ReferenceLength.HEAD_SEGMENT
            )
            assert flags[int(JointId.L_ELBOW)] == ok
        note["detail"] = "count, PCP, PCK, PCKh fixtures exact"
