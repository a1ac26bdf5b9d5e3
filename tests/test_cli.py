"""Command-line behavior: exit codes, subcommand flows, config merging."""
import hashlib
import json
import os
import re
import shutil
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from poseboot import cli, fileio, pipeline
from poseboot.skeleton import ActionLabel, JointId
from poseboot.pipeline import PipelineConfig
from poseboot.svm import TOL, SvmModel, train
from poseboot.synth import action_template


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    rc = cli.main(
        ["synth", "--out", str(d), "--actions", "2", "--poses", "6",
         "--backgrounds", "3", "--outlier-rate", "0.3", "--seed", "5"]
    )
    assert rc == 0
    return d


def write_junk_poses(path, rng, n, score=0.3, prefix="junk"):
    recs = [
        fileio.PoseRecord(
            f"{prefix}_{i:03d}", rng.uniform(10, 150, (14, 2)), score=score
        )
        for i in range(n)
    ]
    fileio.write_pose_records(path, recs)
    return recs


def write_template_poses(path, rng, n, action_index=0, score=0.9, prefix="good"):
    t = action_template(action_index)
    recs = [
        fileio.PoseRecord(
            f"{prefix}_{i:03d}",
            t.keypoints + rng.normal(0, 2.0, (14, 2)),
            ActionLabel.TENNIS,
            score=score,
        )
        for i in range(n)
    ]
    fileio.write_pose_records(path, recs)
    return recs


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["synth", "--out", "x", "--bogus"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        assert cli.main(["synth"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        rc = cli.main(
            ["features", "--poses", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "o.npz")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_corrupt_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        rc = cli.main(
            ["features", "--poses", str(bad), "--out", str(tmp_path / "o.npz")]
        )
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_nan_keypoints_are_data_error_naming_the_line(self, tmp_path, rng, capsys):
        poses = tmp_path / "p.jsonl"
        write_template_poses(poses, rng, 12)
        lines = poses.read_text().splitlines(keepends=True)
        rec = json.loads(lines[6])
        rec["keypoints"][3][0] = float("nan")  # json.dumps writes the NaN literal
        lines[6] = json.dumps(rec) + "\n"
        poses.write_text("".join(lines))
        rc = cli.main(["outliers", "--poses", str(poses), "--out", str(tmp_path / "r.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {poses}: line 7:") and "finite" in err

    def test_keypoints_object_is_data_error_naming_the_line(self, tmp_path, rng, capsys):
        poses = tmp_path / "p.jsonl"
        write_template_poses(poses, rng, 12)
        lines = poses.read_text().splitlines(keepends=True)
        rec = json.loads(lines[4])
        rec["keypoints"] = {"x": 1}
        lines[4] = json.dumps(rec) + "\n"
        poses.write_text("".join(lines))
        rc = cli.main(["outliers", "--poses", str(poses), "--out", str(tmp_path / "r.txt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {poses}: line 5: keypoints must be")


class TestSeed:
    @pytest.mark.parametrize("command", ["synth", "pipeline", "train-svm", "outliers"])
    def test_negative_seed_is_usage_error_naming_the_option(self, tmp_path, capsys, command):
        required = {
            "synth": ["--out", "c"],
            "pipeline": ["--corpus", "c", "--exchange", "x", "--scheme", "weak"],
            "train-svm": ["--positives", "p", "--negatives", "n", "--out", "m"],
            "outliers": ["--poses", "p", "--out", "o"],
        }[command]
        rc = cli.main([command, *required, "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"poseboot {command}: argument --seed: must be a non-negative integer, got -1\n"
        )

    def test_zero_seed_is_accepted(self, tmp_path):
        rc = cli.main(["synth", "--out", str(tmp_path / "c"), "--actions", "1",
                       "--poses", "2", "--backgrounds", "0", "--seed", "0"])
        assert rc == 0


class TestSynth:
    def test_writes_corpus_layout(self, corpus_dir, capsys):
        manifest = json.loads((corpus_dir / "split.json").read_text())
        assert set(manifest) == {"fs", "ws", "us", "backgrounds"}
        assert len(manifest["fs"]) == 2 * 3  # round(6 * 0.5) fs per action
        assert len(manifest["ws"]) == 2 * 3
        assert len(manifest["backgrounds"]) == 3
        truth = fileio.read_pose_records(corpus_dir / "truth.jsonl")
        assert len(truth) == 12
        hm_files = sorted((corpus_dir / "heatmaps").glob("*.hm"))
        assert len(hm_files) == 12 + 3

    def test_deterministic_output(self, tmp_path):
        args = ["synth", "--actions", "1", "--poses", "4", "--backgrounds", "2",
                "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "split.json").read_bytes() == (b / "split.json").read_bytes()
        assert (a / "truth.jsonl").read_bytes() == (b / "truth.jsonl").read_bytes()
        for f in sorted((a / "heatmaps").iterdir()):
            assert f.read_bytes() == (b / "heatmaps" / f.name).read_bytes()

    # SHA-256 of every file of two small corpora, as written before synth
    # streamed its maps to disk (x86-64, NumPy 2.4): the streamed writer
    # keeps their bytes
    DIGESTS = {
        "easy": {
            "heatmaps/athletics_0000.hm": "e0efe8b1ee2caf38b29c3d273f8a1d034a4ab84ff0b1166402cb153664999b75",
            "heatmaps/athletics_0001.hm": "d97a24b6e0991e84610e28ee0698dad741d74bf33f460e0b9625670fea1796ec",
            "heatmaps/athletics_0002.hm": "7acf831577b250b0b181835dcdbf8d395147606a2d78a0b5f3fa093d5390ba19",
            "heatmaps/badminton_0000.hm": "d84e59bb9e703a44a7a382153a94db4b847f9745e9bd3857c08445fc118ea1b6",
            "heatmaps/badminton_0001.hm": "863a757cbd4128af910afae9ff64c3b6156ac59e8fa61e8fcea5307fc33b3abb",
            "heatmaps/badminton_0002.hm": "3908d2d7f7bbfccdbc330961c45649168f5a4af7082576613f7c68ed157e3672",
            "heatmaps/bg_0000.hm": "45dbee7090183adb26a7c7787a6f3561555e6fda4b7bd0f7a4d598d1f217d2c0",
            "split.json": "75ef5d02d01bc39de4bf7fef22e374070e6292ac818606b289ab9e568a40af3b",
            "truth.jsonl": "408a149b0eab31e58287b9869c5ddbabc818bd21102cd696a005aaec0c683ac9",
        },
        "hard": {
            "heatmaps/athletics_0000.hm": "8be93abb9c894c064228bff4aadc3a275a4b72163a8bedf0f8f086cd1eda64eb",
            "heatmaps/athletics_0001.hm": "6ea0352cbd40683f25f5179cada5c4ca6f9737d4fdc5c129fa37dbb152dc8f2e",
            "heatmaps/athletics_0002.hm": "2f30692c33d8b7a9942cb994d22344c33f4d3b39a5966d2bdea6a2d1c19ae2ba",
            "heatmaps/badminton_0000.hm": "3dc88ef90bbe68231356c22d1d65c10b61d79cb9ed5c2968d92e7b4c815b12f1",
            "heatmaps/badminton_0001.hm": "95b79b044513b2fdc49a9e4c4578e11a214b7ec9471a47633b72782e18185431",
            "heatmaps/badminton_0002.hm": "11811cae15022a6efb04259e70d8d54227b25d769c46d4aaafd2141759f15594",
            "heatmaps/bg_0000.hm": "f3eacc69db1b38ab6519f645ab4d652bdb46bdf15598d78a84f1a0b8e5132827",
            "split.json": "75ef5d02d01bc39de4bf7fef22e374070e6292ac818606b289ab9e568a40af3b",
            "truth.jsonl": "c948785e9f69d54d7029a7ba1e5c30f5558cbffb200a9f5591db95f0cd9f9bfe",
        },
    }

    @pytest.mark.parametrize("corpus, extra", [
        ("easy", []), ("hard", ["--outlier-rate", "0.6", "--noise", "6"])
    ])
    def test_files_keep_their_bytes(self, tmp_path, corpus, extra):
        out = tmp_path / corpus
        assert cli.main(["synth", "--out", str(out), "--actions", "2", "--poses", "3",
                         "--backgrounds", "1", "--seed", "4", *extra]) == 0
        written = {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in out.rglob("*") if f.is_file()}
        assert written == self.DIGESTS[corpus]

    def test_traced_peak_does_not_grow_with_the_corpus(self, tmp_path, monkeypatch):
        """synth holds one image's maps at a time: 40 more images raise its
        traced peak by less than one image's 14 float64 maps (258 KB),
        where holding them all would add 10 MB."""
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        peaks = []
        # the first run also pays one-time costs, so it is not compared
        for k, poses in enumerate((2, 2, 22)):
            tracemalloc.start()
            try:
                assert cli.main(["synth", "--out", str(tmp_path / str(k)), "--actions", "2",
                                 "--poses", str(poses), "--backgrounds", "1"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < 14 * 48 * 48 * 8, peaks

    def test_a_corpus_cut_short_does_not_load(self, corpus_dir, tmp_path, monkeypatch, capsys):
        """split.json is written last, and an earlier one is removed first,
        so a synth that fails midway leaves a directory pipeline rejects."""
        out = tmp_path / "c"
        shutil.copytree(corpus_dir, out)
        written = []

        def fail_third(path, maps):
            written.append(path)
            if len(written) == 3:
                raise OSError("disk full")

        monkeypatch.setattr(fileio, "write_heatmaps", fail_third)
        assert cli.main(["synth", "--out", str(out), "--actions", "2", "--poses", "6"]) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert not (out / "split.json").exists()
        assert cli.main(["pipeline", "--corpus", str(out), "--exchange", str(tmp_path / "x"),
                         "--scheme", "semi"]) == 2

    def test_nan_noise_is_data_error_naming_the_field(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc = cli.main(["synth", "--out", str(out), "--actions", "1", "--poses", "2",
                       "--noise", "nan"])
        assert rc == 2
        assert "error: base_noise must be finite and non-negative, got nan" in capsys.readouterr().err
        assert not out.exists()


class TestFeatures:
    def test_relational_matrix(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "f.npz"
        rc = cli.main(
            ["features", "--poses", str(corpus_dir / "truth.jsonl"), "--out", str(out)]
        )
        assert rc == 0
        data = np.load(out)
        assert data["features"].shape == (12, 1274)
        assert len(data["ids"]) == 12
        assert "dim 1274" in capsys.readouterr().out

    def test_raw_skips_normalization(self, corpus_dir, tmp_path):
        norm, raw = tmp_path / "n.npz", tmp_path / "r.npz"
        base = ["features", "--poses", str(corpus_dir / "truth.jsonl")]
        assert cli.main(base + ["--out", str(norm)]) == 0
        assert cli.main(base + ["--out", str(raw), "--raw"]) == 0
        assert not np.allclose(np.load(norm)["features"], np.load(raw)["features"])

    def test_writes_exactly_the_out_path(self, corpus_dir, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        out = tmp_path / "dir" / "feats"
        rc = cli.main(["features", "--poses", str(corpus_dir / "truth.jsonl"), "--out", str(out)])
        assert rc == 0
        data = np.load(out)
        assert data["features"].shape == (12, 1274) and len(data["ids"]) == 12
        assert sorted(p.name for p in out.parent.iterdir()) == ["feats"]
        assert capsys.readouterr().out.endswith(f"-> {out}\n")


class TestSelectionFlow:
    def test_candidates_train_select_eval(self, corpus_dir, tmp_path, rng, capsys):
        cands = tmp_path / "cands.jsonl"
        rc = cli.main(
            ["candidates", "--heatmaps", str(corpus_dir / "heatmaps"),
             "--out", str(cands)]
        )
        assert rc == 0
        cand_recs = fileio.read_pose_records(cands)
        pose_ids = {r.image_id for r in fileio.read_pose_records(corpus_dir / "truth.jsonl")}
        assert pose_ids <= {r.image_id for r in cand_recs}
        assert all(r.score is not None for r in cand_recs)

        negs = tmp_path / "negs.jsonl"
        write_junk_poses(negs, rng, 20)
        model = tmp_path / "sel.svm"
        rc = cli.main(
            ["train-svm", "--positives", str(corpus_dir / "truth.jsonl"),
             "--negatives", str(negs), "--out", str(model),
             "--synth", "3", "--seed", "2"]
        )
        assert rc == 0
        assert "trained on" in capsys.readouterr().out
        fileio.load_svm_model(model)

        picks = tmp_path / "picks.jsonl"
        rc = cli.main(
            ["select", "--model", str(model), "--candidates", str(cands),
             "--out", str(picks)]
        )
        assert rc == 0
        picked = fileio.read_pose_records(picks)
        assert picked, "selector rejected every image"
        assert len({r.image_id for r in picked}) == len(picked)
        # real images should dominate the background detections
        real = [r for r in picked if not r.image_id.startswith("bg_")]
        assert len(real) >= len(picked) - 1

        rc = cli.main(
            ["eval", "--gt", str(corpus_dir / "truth.jsonl"), "--est", str(picks)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PCK@0.2" in out and "Head" in out and "Mean" in out

    def test_train_svm_reports_non_convergence(self, tmp_path, rng, capsys):
        pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
        write_template_poses(pos, rng, 6)
        write_junk_poses(neg, rng, 10)
        args = ["train-svm", "--positives", str(pos), "--negatives", str(neg),
                "--out", str(tmp_path / "sel.svm")]
        assert cli.main(args + ["--tol", "1e-300"]) == 0
        err = capsys.readouterr().err
        assert "not converged after 100 epochs" in err
        assert "tol 1e-300" in err and len(err.splitlines()) == 1
        assert cli.main(args + ["--tol", "1"]) == 0
        assert capsys.readouterr().err == ""

    def test_train_svm_defaults_are_those_of_train_and_the_pipeline(
        self, tmp_path, rng, monkeypatch
    ):
        """Unset, --tol is svm.TOL and no epoch cap is passed, so train's
        stopping rule applies, and --reg, --synth and --eps are
        PipelineConfig's reg, n_synth and eps."""
        pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
        write_template_poses(pos, rng, 6)
        write_junk_poses(neg, rng, 10)
        calls = []
        monkeypatch.setattr(cli, "train", lambda ts, **kw: calls.append(kw) or train(ts, **kw))
        jitter = pipeline.synthesize_positives
        monkeypatch.setattr(
            pipeline, "synthesize_positives",
            lambda skel, n, eps, g: calls.append((n, eps)) or jitter(skel, n, eps, g),
        )
        args = ["train-svm", "--positives", str(pos), "--negatives", str(neg),
                "--out", str(tmp_path / "sel.svm")]
        assert cli.main(args) == 0
        assert calls == [(PipelineConfig.n_synth, PipelineConfig.eps)] * 6 + [
            {"reg": PipelineConfig.reg, "tol": TOL}
        ]
        calls.clear()
        assert cli.main(args + ["--synth", "1", "--tol", "0.01", "--reg", "2", "--eps", "0.5"]) == 0
        assert calls == [(1, 0.5)] * 6 + [{"reg": 2.0, "tol": 0.01}]

    def test_train_svm_synth_0_is_the_first_semi_selector(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        """train-svm on the annotated truth records, against the candidates of
        the backgrounds, solves the pipeline's first semi problem by the same
        rule: with no jitter the model files match bit for bit. semi reads no
        action label, so this holds with the actions interleaved."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        split = json.loads((corpus / "split.json").read_text())
        truth = fileio.read_pose_index(corpus / "truth.jsonl")
        by_action = {}
        for i in split["fs"]:
            by_action.setdefault(truth[i].action, []).append(i)
        interleaved = [i for ids in zip(*by_action.values()) for i in ids]
        assert len(by_action) == 2 and sorted(interleaved) == sorted(split["fs"])
        split["fs"] = interleaved
        (corpus / "split.json").write_text(json.dumps(split))
        # candidates reads the .hm files in name order
        assert split["backgrounds"] == sorted(split["backgrounds"])
        pos, neg, bg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl", tmp_path / "bg"
        fileio.write_pose_records(pos, [truth[i] for i in split["fs"]])
        bg.mkdir()
        for i in split["backgrounds"]:
            shutil.copyfile(corpus / "heatmaps" / f"{i}.hm", bg / f"{i}.hm")
        assert cli.main(["candidates", "--heatmaps", str(bg), "--out", str(neg)]) == 0
        model = tmp_path / "sel.svm"
        assert cli.main(["train-svm", "--positives", str(pos), "--negatives", str(neg),
                         "--out", str(model), "--synth", "0"]) == 0
        trained = []
        real_train = pipeline.train
        monkeypatch.setattr(
            pipeline, "train", lambda *a, **kw: trained.append(real_train(*a, **kw)) or trained[-1]
        )
        assert cli.main(["pipeline", "--corpus", str(corpus), "--exchange",
                         str(tmp_path / "x"), "--scheme", "semi", "--n-synth", "0",
                         "--iterations", "1"]) == 0
        got, first = fileio.load_svm_model(model), trained[0]
        for field in ("mean", "std", "weights"):
            assert getattr(got, field).tobytes() == getattr(first, field).tobytes(), field
        assert got.bias == first.bias

    def test_train_svm_thins_negatives_as_the_pipeline_does(
        self, tmp_path, rng, monkeypatch, capsys
    ):
        """Negatives beyond pipeline.MAX_NEGATIVES are thinned by the
        pipeline's rule: training on 10 with a cap of 4 is training on the 4
        it keeps, rows 0, 3, 6 and 9."""
        pos, neg, kept = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl", tmp_path / "kept.jsonl"
        write_template_poses(pos, rng, 6)
        junk = write_junk_poses(neg, rng, 10)
        fileio.write_pose_records(kept, [junk[i] for i in (0, 3, 6, 9)])
        monkeypatch.setattr(pipeline, "MAX_NEGATIVES", 4)
        args = ["train-svm", "--positives", str(pos), "--synth", "2"]
        assert cli.main(args + ["--negatives", str(neg), "--out", str(tmp_path / "all")]) == 0
        assert "trained on 18+4 samples" in capsys.readouterr().out
        assert cli.main(args + ["--negatives", str(kept), "--out", str(tmp_path / "4")]) == 0
        assert (tmp_path / "all").read_bytes() == (tmp_path / "4").read_bytes()

    @pytest.mark.parametrize(
        "flag, named",
        [("--reg", "reg must be positive, got nan"),
         ("--tol", "tol must be positive, got nan"),
         ("--eps", "eps must be finite and non-negative, got nan"),
         ("--reg", "reg must be finite, got inf"),
         ("--tol", "tol must be finite, got inf"),
         ("--synth", "n_synth must be non-negative, got -1")],
    )
    def test_train_svm_nan_option_is_data_error(self, tmp_path, rng, capsys, flag, named):
        pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
        write_template_poses(pos, rng, 6)
        write_junk_poses(neg, rng, 10)
        value = named.rsplit(" ", 1)[1]  # the value the message quotes
        rc = cli.main(["train-svm", "--positives", str(pos), "--negatives", str(neg),
                       "--out", str(tmp_path / "sel.svm"), "--synth", "1", flag, value])
        assert rc == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "sel.svm").exists()

    def test_select_writes_the_picked_row(self, tmp_path, rng):
        """The pick record is the picked row of its image: keypoints, score
        and action; a higher-scored junk row that the selector rejects is
        passed over."""
        pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
        write_template_poses(pos, rng, 6)
        write_junk_poses(neg, rng, 10)
        model = tmp_path / "sel.svm"
        assert cli.main(["train-svm", "--positives", str(pos), "--negatives", str(neg),
                         "--out", str(model)]) == 0
        (junk,) = write_junk_poses(tmp_path / "junk.jsonl", rng, 1, score=0.95, prefix="img")
        good = fileio.read_pose_records(pos)[0]
        cands = tmp_path / "cands.jsonl"
        fileio.write_pose_records(cands, [
            junk, fileio.PoseRecord("img_000", good.keypoints, ActionLabel.SOCCER, score=0.5),
        ])
        picks = tmp_path / "picks.jsonl"
        assert cli.main(["select", "--model", str(model), "--candidates", str(cands),
                         "--out", str(picks)]) == 0
        (pick,) = fileio.read_pose_records(picks)
        assert pick.image_id == "img_000" and pick.provenance == "svm"
        np.testing.assert_array_equal(pick.keypoints, good.keypoints)
        assert pick.score == 0.5 and pick.action is ActionLabel.SOCCER

    def test_select_nan_margin_is_data_error(self, tmp_path, rng, capsys):
        pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
        write_template_poses(pos, rng, 6)
        write_junk_poses(neg, rng, 10)
        model = tmp_path / "sel.svm"
        assert cli.main(["train-svm", "--positives", str(pos), "--negatives", str(neg),
                         "--out", str(model)]) == 0
        capsys.readouterr()
        rc = cli.main(["select", "--model", str(model), "--candidates", str(pos),
                       "--out", str(tmp_path / "picks.jsonl"), "--margin", "nan"])
        assert rc == 2
        assert "error: margin must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "picks.jsonl").exists()

    def test_candidates_single_file(self, corpus_dir, tmp_path):
        hm = sorted((corpus_dir / "heatmaps").glob("*.hm"))[0]
        out = tmp_path / "one.jsonl"
        assert cli.main(["candidates", "--heatmaps", str(hm), "--out", str(out)]) == 0
        recs = fileio.read_pose_records(out)
        assert recs and all(r.image_id == hm.stem for r in recs)

    def test_eval_identical_poses_scores_100(self, corpus_dir, capsys):
        truth = str(corpus_dir / "truth.jsonl")
        assert cli.main(["eval", "--gt", truth, "--est", truth]) == 0
        out = capsys.readouterr().out
        assert "mean 100.0 over 12 images" in out

    @pytest.mark.parametrize(
        "flag, named",
        [("--threshold", "threshold must be finite, got nan"),
         ("--nms-radius", "nms_radius must be non-negative, got nan")],
    )
    def test_candidates_nan_option_is_data_error(self, corpus_dir, tmp_path, capsys, flag, named):
        out = tmp_path / "c.jsonl"
        rc = cli.main(["candidates", "--heatmaps", str(corpus_dir / "heatmaps"),
                       "--out", str(out), flag, "nan"])
        assert rc == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_nan_frac_is_data_error(self, corpus_dir, capsys):
        truth = str(corpus_dir / "truth.jsonl")
        rc = cli.main(["eval", "--gt", truth, "--est", truth, "--frac", "nan"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: frac must be finite and non-negative, got nan" in captured.err
        assert "mean" not in captured.out

    def test_eval_pckh_metric(self, corpus_dir, capsys):
        truth = str(corpus_dir / "truth.jsonl")
        assert cli.main(["eval", "--gt", truth, "--est", truth,
                         "--metric", "pckh"]) == 0
        assert "PCKh@0.5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("reg", 0.0, "reg is 0.0"),
            ("mean", np.nan, "mean[7] is nan"),
            ("std", 0.0, "std[7] is 0.0"),
            ("std", np.inf, "std[7] is inf"),
            ("weights", -np.inf, "weights[7] is -inf"),
            ("bias", np.nan, "bias is nan"),
            ("reg", np.inf, "reg is inf"),
        ],
    )
    def test_bad_model_field_is_data_error(self, tmp_path, rng, capsys, field, value, named):
        fields = dict(mean=np.zeros(1274), std=np.ones(1274), weights=np.zeros(1274),
                      bias=0.0, reg=1.0)
        if np.ndim(fields[field]):
            fields[field][7] = value
        else:
            fields[field] = value
        model = tmp_path / "bad.svm"
        fileio.save_svm_model(model, SvmModel(**fields))
        cands = tmp_path / "cands.jsonl"
        write_template_poses(cands, rng, 3)
        rc = cli.main(["select", "--model", str(model), "--candidates", str(cands),
                       "--out", str(tmp_path / "picks.jsonl")])
        assert rc == 2
        assert f"error: {model}: {named}" in capsys.readouterr().err
        assert not (tmp_path / "picks.jsonl").exists()

    def test_eval_disjoint_ids_is_data_error(self, corpus_dir, tmp_path, rng, capsys):
        other = tmp_path / "other.jsonl"
        write_junk_poses(other, rng, 3)
        rc = cli.main(
            ["eval", "--gt", str(corpus_dir / "truth.jsonl"), "--est", str(other)]
        )
        assert rc == 2
        assert "no shared image ids" in capsys.readouterr().err


class TestInputErrors:
    """Two lines for one image, or two maps for one joint, are data errors
    that name where they are; so is every heatmap error."""

    @pytest.fixture
    def truth(self, corpus_dir):
        return fileio.read_pose_records(corpus_dir / "truth.jsonl")

    @pytest.mark.parametrize("true_first", [True, False])
    def test_eval_duplicate_est_id_is_data_error(self, corpus_dir, tmp_path, truth, capsys, true_first):
        r = truth[0]
        zeroed = fileio.PoseRecord(r.image_id, np.zeros((14, 2)))
        est = tmp_path / "est.jsonl"
        fileio.write_pose_records(est, [r, zeroed] if true_first else [zeroed, r])
        est.write_text("\n" + est.read_text())  # a blank first line still counts
        rc = cli.main(["eval", "--gt", str(corpus_dir / "truth.jsonl"), "--est", str(est)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {est}: line 3: image_id {r.image_id!r} repeats line 2\n"
        assert "mean" not in captured.out

    def test_eval_duplicate_gt_id_is_data_error(self, tmp_path, truth, capsys):
        gt = tmp_path / "gt.jsonl"
        fileio.write_pose_records(gt, truth[:3] + truth[1:2])
        rc = cli.main(["eval", "--gt", str(gt), "--est", str(gt)])
        assert rc == 2
        assert f"error: {gt}: line 4: image_id {truth[1].image_id!r} repeats line 2" in capsys.readouterr().err

    def test_train_svm_names_the_bad_pose_file(self, tmp_path, rng, capsys):
        pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
        pos.write_text('{"image_id": "a", "keypoints": [[1, 2]]}\n')
        write_junk_poses(neg, rng, 4)
        rc = cli.main(["train-svm", "--positives", str(pos), "--negatives", str(neg),
                       "--out", str(tmp_path / "m.svm")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {pos}: line 1: keypoints must be 14 [x, y] pairs of numbers\n"
        )

    def test_bad_config_line_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nposes 3\n")
        rc = cli.main(["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: expected key=value\n"

    def test_config_line_not_utf8_names_the_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"poses = 3\nseed=\xff1\n")
        rc = cli.main(["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: invalid UTF-8 at byte 5\n"

    def test_split_not_json_names_the_file(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        split = corpus / "split.json"
        split.write_text("{fs: []}\n")
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {split}: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"
        )

    def test_bad_model_magic_names_the_file(self, tmp_path, rng, capsys):
        model, cands = tmp_path / "m.svm", tmp_path / "cands.jsonl"
        model.write_bytes(b"not a model at all")
        write_template_poses(cands, rng, 2)
        rc = cli.main(["select", "--model", str(model), "--candidates", str(cands),
                       "--out", str(tmp_path / "picks.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {model}: not a model file (bad magic)\n"

    def test_pipeline_refresh_record_of_another_image_is_data_error(
        self, corpus_dir, tmp_path, capsys
    ):
        mine, other = sorted(json.loads((corpus_dir / "split.json").read_text())["ws"])[:2]
        truth = fileio.read_pose_index(corpus_dir / "truth.jsonl")
        refresh = tmp_path / "x" / "candidates_iter1"
        refresh.mkdir(parents=True)
        path = refresh / f"{mine}.jsonl"
        fileio.write_pose_records(path, [truth[other]])
        rc = cli.main(["pipeline", "--corpus", str(corpus_dir), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: record for image {other!r} in the file of image {mine!r}\n"
        )
        assert not (tmp_path / "x" / "annotations_iter1.jsonl").exists()

    def test_pipeline_refresh_of_an_image_not_in_the_split_is_data_error(
        self, corpus_dir, tmp_path, capsys
    ):
        donor = sorted(json.loads((corpus_dir / "split.json").read_text())["ws"])[0]
        record = fileio.read_pose_index(corpus_dir / "truth.jsonl")[donor]
        refresh = tmp_path / "x" / "candidates_iter1"
        refresh.mkdir(parents=True)
        path = refresh / "stranger.jsonl"
        fileio.write_pose_records(
            path, [fileio.PoseRecord("stranger", record.keypoints, record.action, 0.9)]
        )
        rc = cli.main(["pipeline", "--corpus", str(corpus_dir), "--exchange", str(tmp_path / "x"),
                       "--scheme", "semi", "--audit"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: names no image of the split\n"
        assert not (tmp_path / "x" / "annotations_iter1.jsonl").exists()

    def _maps(self, corpus_dir):
        hm = sorted((corpus_dir / "heatmaps").glob("*.hm"))[0]
        return fileio.read_heatmaps(hm)

    def test_duplicate_joint_map_is_data_error(self, corpus_dir, tmp_path, capsys):
        maps = self._maps(corpus_dir)
        hm = tmp_path / "a.hm"
        fileio.write_heatmaps(hm, maps + maps[:1])
        out = tmp_path / "c.jsonl"
        rc = cli.main(["candidates", "--heatmaps", str(hm), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {hm}: duplicate map for joint HEAD\n"
        assert not out.exists()

    def test_missing_joint_map_names_the_file(self, corpus_dir, tmp_path, capsys):
        maps = self._maps(corpus_dir)
        fileio.write_heatmaps(tmp_path / "a.hm", maps)
        fileio.write_heatmaps(tmp_path / "b.hm", maps[1:])
        rc = cli.main(["candidates", "--heatmaps", str(tmp_path), "--out", str(tmp_path / "c.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'b.hm'}: missing joint map for HEAD\n"

    def test_truncated_heatmap_names_the_file(self, corpus_dir, tmp_path, capsys):
        maps = self._maps(corpus_dir)
        fileio.write_heatmaps(tmp_path / "a.hm", maps)
        data = (tmp_path / "a.hm").read_bytes()
        (tmp_path / "b.hm").write_bytes(data[:-4])
        rc = cli.main(["candidates", "--heatmaps", str(tmp_path), "--out", str(tmp_path / "c.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'b.hm'}: truncated heatmap grid at offset ")

    def test_pipeline_heatmap_error_names_the_file(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        ws = sorted(json.loads((corpus / "split.json").read_text())["ws"])[0]
        hm = corpus / "heatmaps" / f"{ws}.hm"
        maps = fileio.read_heatmaps(hm)
        fileio.write_heatmaps(hm, maps + maps[3:4])
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {hm}: duplicate map for joint R_SHOULDER\n"

    def test_pipeline_duplicate_truth_id_is_data_error(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        truth = corpus / "truth.jsonl"
        lines = truth.read_text().splitlines(keepends=True)
        truth.write_text("".join(lines + lines[:1]))
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        first = json.loads(lines[0])["image_id"]
        assert f"line {len(lines) + 1}: image_id {first!r} repeats line 1" in capsys.readouterr().err

    def test_pipeline_missing_truth_record_is_data_error(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        truth = corpus / "truth.jsonl"
        fs = json.loads((corpus / "split.json").read_text())["fs"]
        lines = truth.read_text().splitlines(keepends=True)
        kept = [line for line in lines if json.loads(line)["image_id"] != fs[0]]
        assert len(kept) == len(lines) - 1
        truth.write_text("".join(kept))
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {truth}: no record for annotated image {fs[0]!r}\n"
        )

    def test_pipeline_truth_record_without_action_is_data_error(self, corpus_dir, tmp_path, capsys):
        """An annotated image whose truth record has no action is rejected,
        naming truth.jsonl and the image."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        truth = corpus / "truth.jsonl"
        fs = json.loads((corpus / "split.json").read_text())["fs"][0]
        records = [json.loads(line) for line in truth.read_text().splitlines()]
        for r in records:
            if r["image_id"] == fs:
                del r["action"]
        truth.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {truth}: truth record for {fs!r} lacks an action\n"
        )

    def test_pipeline_unknown_ws_action_is_data_error(self, corpus_dir, tmp_path, capsys):
        """An unknown action name in split.json's ws is rejected, naming
        split.json and the image."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        split = corpus / "split.json"
        manifest = json.loads(split.read_text())
        ws = sorted(manifest["ws"])[0]
        manifest["ws"][ws] = "juggling"
        split.write_text(json.dumps(manifest))
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {split}: image {ws!r}: unknown action label: 'juggling'\n"
        )

    def test_pipeline_split_overlap_is_data_error(self, corpus_dir, tmp_path, capsys, monkeypatch):
        """An annotated image also listed under ws is rejected as the split is
        loaded, before any heatmap file is read."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        manifest = json.loads((corpus / "split.json").read_text())
        fs = manifest["fs"][0]
        manifest["ws"][fs] = next(iter(manifest["ws"].values()))
        (corpus / "split.json").write_text(json.dumps(manifest))
        read = []
        monkeypatch.setattr(fileio, "read_heatmaps", lambda path: read.append(path))
        exchange = tmp_path / "x"
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(exchange),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {corpus / 'split.json'}: invalid split: image {fs!r} is in both fs and ws\n"
        )
        assert read == [] and not exchange.exists()

    @pytest.mark.parametrize(
        "reshape, named",
        [(lambda m: {**m, "ws": list(m["ws"])}, "'ws' must map image ids to action names"),
         (lambda m: {**m, "ws": dict.fromkeys(m["ws"], 1)},
          "'ws' must map image ids to action names"),
         (lambda m: [m], "must be a JSON object, got list"),
         (lambda m: {**m, "backgrounds": "bg_0000"}, "'backgrounds' must be a list of image ids"),
         (lambda m: {k: v for k, v in m.items() if k != "fs"}, "missing key 'fs'")],
        ids=["ws-list", "int-action", "top-level-list", "backgrounds-string", "no-fs"],
    )
    def test_pipeline_split_of_wrong_shape_is_data_error(
        self, corpus_dir, tmp_path, capsys, monkeypatch, reshape, named
    ):
        """A split.json of the wrong shape is rejected, naming the file and
        the key, before any heatmap file is read."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        split = corpus / "split.json"
        split.write_text(json.dumps(reshape(json.loads(split.read_text()))))
        read = []
        monkeypatch.setattr(fileio, "read_heatmaps", lambda path: read.append(path))
        exchange = tmp_path / "x"
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(exchange),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {split}: {named}\n"
        assert read == [] and not exchange.exists()

    @pytest.mark.parametrize("case", ["ws", "backgrounds", "stray"])
    def test_pipeline_heatmaps_must_match_the_split(
        self, corpus_dir, tmp_path, capsys, monkeypatch, case
    ):
        """A ws or background image without a .hm file, or a .hm file of no
        image of the split, is rejected naming the image, before any heatmap
        file is read."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        split = corpus / "split.json"
        hm = corpus / "heatmaps"
        if case == "stray":
            shutil.copyfile(next(hm.glob("*.hm")), hm / "stray_0001.hm")
            named = f"error: {hm / 'stray_0001.hm'}: names no image of {split}\n"
        else:
            image = sorted(json.loads(split.read_text())[case])[-1]
            (hm / f"{image}.hm").unlink()
            named = f"error: {split}: image {image!r} has no file heatmaps/{image}.hm\n"
        read = []
        monkeypatch.setattr(fileio, "read_heatmaps", lambda path: read.append(path))
        exchange = tmp_path / "x"
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(exchange),
                       "--scheme", "semi"])
        assert rc == 2
        assert capsys.readouterr().err == named
        assert read == [] and not exchange.exists()

    @staticmethod
    def drop_torso(hm):
        """Rewrite the .hm file hm with its hip maps copying its neck map, so
        a candidate's neck and hips can fall on one point and leave it
        without a torso."""
        maps = fileio.read_heatmaps(hm)
        neck = next(m for m in maps if m.joint is JointId.NECK)
        hips = (JointId.L_HIP, JointId.R_HIP)
        fileio.write_heatmaps(
            hm, [replace(neck, joint=m.joint) if m.joint in hips else m for m in maps]
        )

    def test_pipeline_degenerate_torso_names_the_image(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        ws = sorted(json.loads((corpus / "split.json").read_text())["ws"])[0]
        hm = corpus / "heatmaps" / f"{ws}.hm"
        self.drop_torso(hm)
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            re.escape(f"error: {hm}: image {ws!r}: cannot normalize: degenerate torso in row ")
            + "\\d+\n", err
        ), err

    def test_pipeline_degenerate_background_torso_names_the_file(self, tmp_path, capsys):
        """Every background candidate is a negative of the training set, so
        one without a torso is an error naming its .hm file, its image and
        its row, not a row of the round's internal matrix."""
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--out", str(corpus), "--actions", "2", "--poses", "6",
                         "--seed", "5"]) == 0
        hm = corpus / "heatmaps" / "bg_0001.hm"
        self.drop_torso(hm)
        capsys.readouterr()
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "semi"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {hm}: image 'bg_0001': cannot normalize: degenerate torso in row 0\n"
        )

    def test_candidates_without_torso_names_the_file(self, tmp_path, capsys):
        """candidates writes no record that select, train-svm or cluster
        would reject."""
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--out", str(corpus), "--actions", "2", "--poses", "6",
                         "--seed", "5"]) == 0
        hm = corpus / "heatmaps" / "bg_0001.hm"
        self.drop_torso(hm)
        capsys.readouterr()
        out = tmp_path / "cands.jsonl"
        assert cli.main(["candidates", "--heatmaps", str(corpus / "heatmaps"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {hm}: image 'bg_0001': cannot normalize: degenerate torso in row 0\n"
        )
        assert not out.exists()


class TestClusterAndOutliers:
    def test_cluster_reports_partition(self, tmp_path, rng, capsys):
        poses = tmp_path / "p.jsonl"
        a = write_template_poses(poses, rng, 8, action_index=0)
        out = tmp_path / "clusters.txt"
        rc = cli.main(
            ["cluster", "--poses", str(poses), "--out", str(out),
             "--iters", "80", "--burn-in", "20", "--seed", "1"]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("n_clusters ")
        assert len(text.splitlines()[2].split(" ", 1)[1].split(",")) == len(a)
        assert "clustered 8 poses" in capsys.readouterr().out

    def test_outliers_flags_junk(self, tmp_path, rng, capsys):
        poses = tmp_path / "p.jsonl"
        good = write_template_poses(poses, rng, 12, score=0.9)
        junk = [
            fileio.PoseRecord("junk_000", rng.uniform(400, 600, (14, 2)), score=0.2),
            fileio.PoseRecord("junk_001", rng.uniform(400, 600, (14, 2)), score=0.2),
        ]
        fileio.write_pose_records(poses, good + junk)
        out = tmp_path / "report.txt"
        rc = cli.main(
            ["outliers", "--poses", str(poses), "--out", str(out),
             "--iters", "80", "--burn-in", "20", "--seed", "1"]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "junk_000" in stdout and "junk_001" in stdout
        assert "good_000" not in stdout
        assert out.exists()

    @pytest.mark.parametrize(
        "command, flag, named",
        [("cluster", "--gamma", "gamma must be positive, got nan"),
         ("outliers", "--alpha", "alpha must be positive, got nan")],
    )
    def test_nan_concentration_is_data_error(self, tmp_path, rng, capsys, command, flag, named):
        poses = tmp_path / "p.jsonl"
        write_template_poses(poses, rng, 6)
        out = tmp_path / "out.txt"
        rc = cli.main([command, "--poses", str(poses), "--out", str(out), flag, "nan"])
        assert rc == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, named",
        [("cluster", "--gamma", "gamma must be finite, got inf"),
         ("outliers", "--alpha", "alpha must be finite, got inf")],
    )
    def test_infinite_concentration_is_data_error(self, tmp_path, rng, capsys, command, flag, named):
        poses = tmp_path / "p.jsonl"
        write_template_poses(poses, rng, 12)
        out = tmp_path / "out.txt"
        rc = cli.main([command, "--poses", str(poses), "--out", str(out), flag, "inf"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_too_few_records_is_data_error(self, tmp_path, rng, capsys):
        poses = tmp_path / "p.jsonl"
        write_template_poses(poses, rng, 3)
        rc = cli.main(["cluster", "--poses", str(poses),
                       "--out", str(tmp_path / "c.txt")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {poses}: need at least 4 pose records, got 3\n"


class TestSweepFlags:
    """--iters and --gibbs-iters count the sweeps of each chain; --burn-in
    must stay below them, whichever of the two is left at its default."""

    def _argv(self, command, corpus_dir, tmp_path, rng):
        if command == "pipeline":
            return ["pipeline", "--corpus", str(corpus_dir), "--exchange", str(tmp_path / "x"),
                    "--scheme", "weakC"]
        poses = tmp_path / "p.jsonl"
        write_template_poses(poses, rng, 6)
        return [command, "--poses", str(poses), "--out", str(tmp_path / "x")]

    @pytest.mark.parametrize(
        "command, flag", [("cluster", "--iters"), ("outliers", "--iters"), ("pipeline", "--gibbs-iters")]
    )
    def test_sweeps_at_the_default_burn_in_is_data_error(
        self, corpus_dir, tmp_path, rng, capsys, command, flag
    ):
        burn_in = cli.DpmmConfig.burn_in
        rc = cli.main(self._argv(command, corpus_dir, tmp_path, rng) + [flag, str(burn_in)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: need 0 <= --burn-in < {flag}, got --burn-in {burn_in} and {flag} {burn_in}\n"
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, flag", [("cluster", "--iters"), ("pipeline", "--gibbs-iters")])
    def test_burn_in_above_the_default_sweeps_is_data_error(
        self, corpus_dir, tmp_path, rng, capsys, command, flag
    ):
        iters = cli.DpmmConfig.gibbs_iters
        rc = cli.main(self._argv(command, corpus_dir, tmp_path, rng) + ["--burn-in", str(iters + 1)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: need 0 <= --burn-in < {flag}, got --burn-in {iters + 1} and {flag} {iters}\n"
        )

    def test_lowering_only_the_sweeps_keeps_the_default_burn_in(self, corpus_dir, tmp_path, rng):
        argv = self._argv("cluster", corpus_dir, tmp_path, rng)
        assert cli.main(argv + ["--iters", str(cli.DpmmConfig.burn_in + 1)]) == 0

    @pytest.mark.parametrize("command, flag", [("cluster", "--iters"), ("pipeline", "--gibbs-iters")])
    def test_help_says_sweeps_per_chain(self, capsys, command, flag):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"{flag} {flag[2:].upper().replace('-', '_')} Gibbs sweeps per chain, " \
            f"{cli.RESTARTS} chains per set of poses" in text
        assert "sweeps of each chain before its samples count" in text


class TestPipelineCommand:
    def test_annotated_images_are_not_enumerated(self, corpus_dir, tmp_path, monkeypatch):
        seen = []
        enumerate_candidates = cli.enumerate_candidates

        def spy(maps, cfg, image_id):
            seen.append(image_id)
            return enumerate_candidates(maps, cfg, image_id=image_id)

        monkeypatch.setattr(cli, "enumerate_candidates", spy)
        rc = cli.main(
            ["pipeline", "--corpus", str(corpus_dir), "--exchange", str(tmp_path / "x"),
             "--scheme", "weak", "--iterations", "1"]
        )
        assert rc == 0
        fs = set(json.loads((corpus_dir / "split.json").read_text())["fs"])
        assert seen and not fs & set(seen)

    def test_runs_and_writes_exchange(self, corpus_dir, tmp_path, capsys):
        exchange = tmp_path / "exchange"
        rc = cli.main(
            ["pipeline", "--corpus", str(corpus_dir), "--exchange", str(exchange),
             "--scheme", "weak", "--audit", "--gibbs-iters", "40",
             "--burn-in", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "iter 1 accepted" in out
        assert "precision" in out
        assert (exchange / "annotations_iter1.jsonl").exists()
        assert (exchange / "report_iter1.txt").exists()
        report = (exchange / "report_iter1.txt").read_text()
        assert "scheme weak" in report

    @pytest.mark.parametrize(
        "flag, named",
        [("--margin", "margin must be finite, got nan"),
         ("--eps", "eps must be finite and non-negative, got nan"),
         ("--reg", "reg must be positive, got nan"),
         ("--reg", "reg must be finite, got inf")],
    )
    def test_nan_option_is_data_error(self, corpus_dir, tmp_path, capsys, flag, named):
        exchange = tmp_path / "x"
        value = named.rsplit(" ", 1)[1]  # the value the message quotes
        rc = cli.main(["pipeline", "--corpus", str(corpus_dir), "--exchange", str(exchange),
                       "--scheme", "weak", flag, value])
        assert rc == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not exchange.exists()

    def test_no_annotations_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--out", str(corpus), "--actions", "2", "--poses", "4",
                         "--backgrounds", "2", "--ws-fraction", "1"]) == 0
        for scheme in ("semi", "weak"):
            rc = cli.main(["pipeline", "--corpus", str(corpus),
                           "--exchange", str(tmp_path / scheme), "--scheme", scheme])
            assert rc == 2
            assert capsys.readouterr().err == "error: no positive features\n"

    def test_bad_scheme_is_data_error(self, corpus_dir, tmp_path, capsys):
        rc = cli.main(
            ["pipeline", "--corpus", str(corpus_dir),
             "--exchange", str(tmp_path / "x"), "--scheme", "turbo"]
        )
        assert rc == 2
        assert "unknown scheme" in capsys.readouterr().err


class _Built(Exception):
    """Raised by a spy with the config a command built, before any work."""


def built_config(monkeypatch, target, argv, cls):
    """The cls instance that cli.main(argv) passes to cli.<target>."""
    def spy(*args, **kwargs):
        raise _Built(next(x for x in args if isinstance(x, cls)))

    monkeypatch.setattr(cli, target, spy)
    with pytest.raises(_Built) as built:
        cli.main(argv)
    return built.value.args[0]


class TestDefaults:
    """Options left unset leave each config's own defaults in place."""

    @pytest.mark.parametrize("seed_flag, seeded", [([], {}), (["--seed", "3"], {"seed": 3})])
    def test_pipeline(self, corpus_dir, tmp_path, monkeypatch, seed_flag, seeded):
        argv = ["pipeline", "--corpus", str(corpus_dir), "--exchange", str(tmp_path / "x"),
                "--scheme", "weakC", *seed_flag]
        cfg = built_config(monkeypatch, "run_pipeline", argv, cli.PipelineConfig)
        assert cfg == cli.PipelineConfig(scheme=cli.Scheme.WEAKC, **seeded)

    @pytest.mark.parametrize("command", ["cluster", "outliers"])
    @pytest.mark.parametrize("seed_flag, seeded", [([], {}), (["--seed", "3"], {"seed": 3})])
    def test_cluster_and_outliers(self, tmp_path, rng, monkeypatch, command, seed_flag, seeded):
        poses = tmp_path / "p.jsonl"
        write_template_poses(poses, rng, 6)
        argv = [command, "--poses", str(poses), "--out", str(tmp_path / "x"), *seed_flag]
        cfg = built_config(monkeypatch, "project", argv, cli.DpmmConfig)
        assert cfg == cli.DpmmConfig(**seeded)

    def test_candidates(self, corpus_dir, tmp_path, monkeypatch):
        argv = ["candidates", "--heatmaps", str(corpus_dir / "heatmaps"),
                "--out", str(tmp_path / "c.jsonl")]
        cfg = built_config(monkeypatch, "_image_candidates", argv, cli.CandidateGenConfig)
        assert cfg == cli.CandidateGenConfig()

    def test_synth(self, tmp_path, monkeypatch):
        cfg = built_config(monkeypatch, "synth_corpus", ["synth", "--out", str(tmp_path)],
                           cli.SynthConfig)
        assert cfg == cli.SynthConfig()

    def test_train_svm_seed(self, tmp_path, rng, monkeypatch):
        """Unset, train-svm's --seed, --synth, --eps and --reg leave
        PipelineConfig's defaults; the jitter, and so the model, follows the
        seed."""
        pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
        write_template_poses(pos, rng, 6)
        write_junk_poses(neg, rng, 10)
        args = ["train-svm", "--positives", str(pos), "--negatives", str(neg), "--synth", "2"]
        models = {}
        for name, seed_flag in (("0", ["--seed", "0"]), ("5", ["--seed", "5"]), ("unset", [])):
            assert cli.main(args + ["--out", str(tmp_path / name), *seed_flag]) == 0
            models[name] = (tmp_path / name).read_bytes()
        assert models["0"] != models["5"]
        assert models["unset"] == models[str(cli.PipelineConfig.seed)]
        argv = ["train-svm", "--positives", str(pos), "--negatives", str(neg),
                "--out", str(tmp_path / "m")]
        cfg = built_config(monkeypatch, "training_set", argv, cli.PipelineConfig)
        assert cfg == cli.PipelineConfig()


class TestConfigFile:
    def test_config_fills_unset_options(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("poses = 3\nbackgrounds = 2\nactions = 1\n")
        out = tmp_path / "corpus"
        rc = cli.main(["synth", "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        manifest = json.loads((out / "split.json").read_text())
        assert len(manifest["fs"]) + len(manifest["ws"]) == 3
        assert len(manifest["backgrounds"]) == 2

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("poses = 3\nactions = 1\nbackgrounds = 0\n")
        out = tmp_path / "corpus"
        rc = cli.main(
            ["synth", "--out", str(out), "--poses", "5", "--config", str(cfg)]
        )
        assert rc == 0
        manifest = json.loads((out / "split.json").read_text())
        assert len(manifest["fs"]) + len(manifest["ws"]) == 5

    def test_dashed_keys_match_underscored_options(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("outlier-rate = 0.0\nws-fraction = 1.0\n")
        out = tmp_path / "corpus"
        rc = cli.main(
            ["synth", "--out", str(out), "--actions", "1", "--poses", "2",
             "--backgrounds", "0", "--config", str(cfg)]
        )
        assert rc == 0
        manifest = json.loads((out / "split.json").read_text())
        assert manifest["fs"] == [] and len(manifest["ws"]) == 2

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("warp-speed = 9\n")
        rc = cli.main(
            ["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'warp-speed'\n"

    def test_values_take_their_option_type(self, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setitem(cli._DISPATCH, "pipeline", lambda a: seen.update(a) or 0)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("reg = 2.5\ngibbs-iters=300\nmargin=1\nseed=7\n")
        rc = cli.main(["pipeline", "--corpus", "c", "--exchange", "x",
                       "--scheme", "weakC", "--config", str(cfg)])
        assert rc == 0
        assert seen["reg"] == 2.5 and seen["scheme"] == "weakC"
        assert seen["gibbs_iters"] == 300 and type(seen["gibbs_iters"]) is int
        assert seen["seed"] == 7 and type(seen["seed"]) is int
        assert seen["margin"] == 1.0 and type(seen["margin"]) is float

    def test_value_of_wrong_type_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=abc\n")
        rc = cli.main(["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key 'seed': invalid seed value 'abc'\n"
        )
        assert not (tmp_path / "c").exists()

    def test_negative_seed_in_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=-1\n")
        rc = cli.main(["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key 'seed': --seed must be a non-negative integer, got -1\n"
        )
        assert not (tmp_path / "c").exists()

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=1\n# two seeds\nposes=3\nseed=2\n")
        rc = cli.main(["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 4: key 'seed' repeats line 1\n"
        assert not (tmp_path / "c").exists()

    def test_two_spellings_of_one_option_name_both_keys(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("outlier-rate=0.1\noutlier_rate=0.2\n")
        rc = cli.main(["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config keys 'outlier-rate' and 'outlier_rate' both set --outlier-rate\n"
        )
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command, key", [("features", "raw"), ("pipeline", "audit")])
    def test_flag_key_is_data_error(self, corpus_dir, tmp_path, capsys, command, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}=true\n")
        args = {
            "features": ["--poses", str(corpus_dir / "truth.jsonl"),
                         "--out", str(tmp_path / "f.npz")],
            "pipeline": ["--corpus", str(corpus_dir), "--exchange", str(tmp_path / "x"),
                         "--scheme", "weak"],
        }[command]
        rc = cli.main([command, *args, "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key {key!r}: --{key} is set on the command line only\n"
        )
        assert [f.name for f in tmp_path.iterdir()] == ["c.cfg"]


# Every field of a command's config, and each (command, option, value, the
# field's value) that sets it. DpmmConfig.base is left out: it is the known
# prior that criterion 03 and the sampler oracles pass, and no command has one.
SETTERS = {
    cli.SynthConfig: {
        "n_actions": [("synth", "--actions", "3", 3)],
        "poses_per_action": [("synth", "--poses", "7", 7)],
        "base_noise": [("synth", "--noise", "4.5", 4.5)],
        "outlier_rate": [("synth", "--outlier-rate", "0.25", 0.25)],
        "seed": [("synth", "--seed", "9", 9)],
        "ws_fraction": [("synth", "--ws-fraction", "0.25", 0.25)],
        "n_backgrounds": [("synth", "--backgrounds", "4", 4)],
    },
    cli.CandidateGenConfig: {
        "threshold": [("candidates", "--threshold", "0.2", 0.2)],
        "top_k": [("candidates", "--top-k", "2", 2)],
        "nms_radius": [("candidates", "--nms-radius", "2.5", 2.5)],
        "beam": [("candidates", "--beam", "40", 40)],
    },
    cli.DpmmConfig: {
        "gamma": [(c, "--gamma", "2", 2.0) for c in ("cluster", "outliers")],
        "alpha": [("outliers", "--alpha", "0.5", 0.5)],
        "gibbs_iters": [(c, "--iters", "60", 60) for c in ("cluster", "outliers")],
        "burn_in": [(c, "--burn-in", "5", 5) for c in ("cluster", "outliers")],
        "seed": [(c, "--seed", "9", 9) for c in ("cluster", "outliers")],
        "pca_dim": [(c, "--pca-dim", "4", 4) for c in ("cluster", "outliers")],
        "small_cluster_max": [("outliers", "--small-max", "2", 2)],
    },
    cli.PipelineConfig: {
        "scheme": [("pipeline", "--scheme", "semi", cli.Scheme.SEMI)],
        "max_iterations": [("pipeline", "--iterations", "3", 3)],
        "eps": [("pipeline", "--eps", "0.5", 0.5), ("train-svm", "--eps", "0.5", 0.5)],
        "n_synth": [("pipeline", "--n-synth", "4", 4), ("train-svm", "--synth", "4", 4)],
        "margin": [("pipeline", "--margin", "0.5", 0.5)],
        "reg": [("pipeline", "--reg", "2", 2.0), ("train-svm", "--reg", "2", 2.0)],
        "dpmm": [("pipeline", "--gibbs-iters", "60", cli.DpmmConfig(gibbs_iters=60)),
                 ("pipeline", "--burn-in", "5", cli.DpmmConfig(burn_in=5))],
        "seed": [("pipeline", "--seed", "9", 9), ("train-svm", "--seed", "9", 9)],
    },
}
NOT_SET = {(cli.DpmmConfig, "base")}


class TestEverySettingHasAnOption:
    """A config field that no command sets is a setting only tests reach; it
    should be a constant instead. Adding a field means adding its option and
    its row in SETTERS."""

    @pytest.mark.parametrize("cls", list(SETTERS), ids=lambda c: c.__name__)
    def test_fields_are_those_the_options_set(self, cls):
        assert {f.name for f in fields(cls)} - {f for c, f in NOT_SET if c is cls} == set(SETTERS[cls])

    @pytest.mark.parametrize(
        "cls, field, command, flag, text, value",
        [(cls, field, *row) for cls, setters in SETTERS.items()
         for field, rows in setters.items() for row in rows],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_option_sets_its_field(
        self, corpus_dir, tmp_path, rng, monkeypatch, cls, field, command, flag, text, value
    ):
        poses = tmp_path / "p.jsonl"
        write_template_poses(poses, rng, 6)
        target, argv = {
            "synth": ("synth_corpus", ["--out", str(tmp_path / "c")]),
            "candidates": ("_image_candidates", ["--heatmaps", str(corpus_dir / "heatmaps"),
                                                 "--out", str(tmp_path / "c.jsonl")]),
            "cluster": ("project", ["--poses", str(poses), "--out", str(tmp_path / "o")]),
            "outliers": ("project", ["--poses", str(poses), "--out", str(tmp_path / "o")]),
            "pipeline": ("run_pipeline", ["--corpus", str(corpus_dir), "--exchange",
                                          str(tmp_path / "x"), "--scheme", "weakC"]),
            "train-svm": ("training_set", ["--positives", str(poses), "--negatives", str(poses),
                                             "--out", str(tmp_path / "m")]),
        }[command]
        assert getattr(cls(), field) != value
        cfg = built_config(monkeypatch, target, [command, *argv, flag, text], cls)
        assert getattr(cfg, field) == value


def without_torso(rec):
    """rec with its neck moved onto its hip midpoint."""
    kp = rec.keypoints.copy()
    kp[JointId.NECK] = 0.5 * (kp[JointId.L_HIP] + kp[JointId.R_HIP])
    return fileio.PoseRecord(rec.image_id, kp, rec.action, rec.score, rec.provenance)


class TestInputErrorsNameTheirRecord:
    """A pose that torso normalization cannot scale, an empty pose file and
    a degenerate PCKh reference are errors (exit 2) naming the file and the
    image, not a row of an internal matrix."""

    def test_pipeline_annotation_without_torso(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        image = json.loads((corpus / "split.json").read_text())["fs"][2]
        truth = fileio.read_pose_records(corpus / "truth.jsonl")
        fileio.write_pose_records(
            corpus / "truth.jsonl", [without_torso(r) if r.image_id == image else r for r in truth]
        )
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "semi"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {corpus / 'truth.jsonl'}: annotation for image {image!r} "
            "has a degenerate torso: its neck is on its hip midpoint\n"
        )

    def test_pipeline_non_finite_annotation_names_its_truth_line(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        image = json.loads((corpus / "split.json").read_text())["fs"][2]
        lines = (corpus / "truth.jsonl").read_text().splitlines(keepends=True)
        k = next(k for k, line in enumerate(lines) if json.loads(line)["image_id"] == image)
        rec = json.loads(lines[k])
        rec["keypoints"][3][0] = float("nan")  # json.dumps writes the NaN literal
        lines[k] = json.dumps(rec) + "\n"
        (corpus / "truth.jsonl").write_text("".join(lines))
        rc = cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(tmp_path / "x"),
                       "--scheme", "semi"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {corpus / 'truth.jsonl'}: line {k + 1}: keypoints must be finite\n"
        )

    @pytest.mark.parametrize("bad_file", ["positives", "negatives"])
    def test_train_svm_record_without_torso(self, tmp_path, rng, capsys, bad_file):
        files = {"positives": tmp_path / "pos.jsonl", "negatives": tmp_path / "neg.jsonl"}
        records = {"positives": write_template_poses(files["positives"], rng, 6),
                   "negatives": write_junk_poses(files["negatives"], rng, 10)}
        bad = records[bad_file]
        fileio.write_pose_records(files[bad_file], [*bad[:2], without_torso(bad[2]), *bad[3:]])
        out = tmp_path / "sel.svm"
        rc = cli.main(["train-svm", "--positives", str(files["positives"]),
                       "--negatives", str(files["negatives"]), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {files[bad_file]}: record 3 (image {bad[2].image_id!r}): "
            "cannot normalize: degenerate torso\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["features", "cluster", "outliers"])
    def test_pose_file_record_without_torso(self, tmp_path, rng, capsys, command):
        poses = tmp_path / "p.jsonl"
        good = write_template_poses(poses, rng, 6)
        fileio.write_pose_records(poses, [*good[:3], without_torso(good[3]), *good[4:]])
        out = tmp_path / "out"
        assert cli.main([command, "--poses", str(poses), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {poses}: record 4 (image 'good_003'): cannot normalize: degenerate torso\n"
        )
        assert not out.exists()

    def test_pipeline_refresh_record_without_torso(self, corpus_dir, tmp_path, capsys):
        ws = sorted(json.loads((corpus_dir / "split.json").read_text())["ws"])[0]
        truth = fileio.read_pose_index(corpus_dir / "truth.jsonl")[ws]
        refresh = tmp_path / "x" / "candidates_iter1"
        refresh.mkdir(parents=True)
        path = refresh / f"{ws}.jsonl"
        fileio.write_pose_records(path, [truth, without_torso(truth)])
        rc = cli.main(["pipeline", "--corpus", str(corpus_dir), "--exchange", str(tmp_path / "x"),
                       "--scheme", "weak"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: image {ws!r}: cannot normalize: degenerate torso in row 1\n"
        )
        assert not (tmp_path / "x" / "annotations_iter1.jsonl").exists()

    def test_select_candidate_without_torso(self, tmp_path, rng, capsys):
        """select names the candidates file and the record, before any pick;
        an empty candidates file still selects nothing."""
        pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
        write_template_poses(pos, rng, 6)
        write_junk_poses(neg, rng, 10)
        model = tmp_path / "sel.svm"
        assert cli.main(["train-svm", "--positives", str(pos), "--negatives", str(neg),
                         "--out", str(model)]) == 0
        cands, picks = tmp_path / "cands.jsonl", tmp_path / "picks.jsonl"
        good = write_template_poses(cands, rng, 3, prefix="img")
        fileio.write_pose_records(cands, [good[0], without_torso(good[1]), good[2]])
        capsys.readouterr()
        argv = ["select", "--model", str(model), "--candidates", str(cands), "--out", str(picks)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {cands}: record 2 (image 'img_001'): cannot normalize: degenerate torso\n"
        )
        assert not picks.exists()
        fileio.write_pose_records(cands, [])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == f"selected 0 of 0 images -> {picks}\n"

    def test_features_raw_needs_no_torso(self, tmp_path, rng):
        poses = tmp_path / "p.jsonl"
        fileio.write_pose_records(poses, [without_torso(r)
                                          for r in write_template_poses(poses, rng, 2)])
        out = tmp_path / "f.npz"
        assert cli.main(["features", "--poses", str(poses), "--out", str(out), "--raw"]) == 0
        assert np.load(out)["features"].shape == (2, 1274)

    @pytest.mark.parametrize("empty", ["positives", "negatives", "poses"])
    def test_empty_pose_file(self, tmp_path, rng, capsys, empty):
        files = {k: tmp_path / f"{k}.jsonl" for k in ("positives", "negatives", "poses")}
        write_template_poses(files["positives"], rng, 6)
        write_junk_poses(files["negatives"], rng, 10)
        write_template_poses(files["poses"], rng, 6)
        files[empty].write_text("")
        out = tmp_path / "out"
        if empty == "poses":
            argv = ["features", "--poses", str(files["poses"]), "--out", str(out)]
        else:
            argv = ["train-svm", "--positives", str(files["positives"]),
                    "--negatives", str(files["negatives"]), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {files[empty]}: no pose records\n"
        assert not out.exists()

    def test_eval_pckh_degenerate_reference(self, corpus_dir, tmp_path, capsys):
        truth = fileio.read_pose_records(corpus_dir / "truth.jsonl")
        kp = truth[1].keypoints.copy()
        kp[JointId.HEAD] = kp[JointId.NECK]
        gt = tmp_path / "gt.jsonl"
        fileio.write_pose_records(gt, [truth[0], fileio.PoseRecord(truth[1].image_id, kp),
                                       *truth[2:]])
        argv = ["eval", "--gt", str(gt), "--est", str(corpus_dir / "truth.jsonl")]
        assert cli.main(argv + ["--metric", "pckh"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {gt}: image {truth[1].image_id!r}: degenerate reference (head length 0)\n"
        )
        assert captured.out == ""
        assert cli.main(argv) == 0  # PCK's reference, the box, is not degenerate
