"""Tests of the benchmark itself: each output check rejects a wrong output,
and every workload runs to its end on a tiny corpus.

    python3 -m pytest bench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from poseboot import cli  # noqa: E402


def _main(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A tiny corpus, one weakC pipeline run and one select + eval run on it."""
    d = tmp_path_factory.mktemp("bench")
    corpus = d / "corpus"
    _main("synth", "--out", corpus, "--actions", 2, "--poses", 12, "--backgrounds", 2, "--seed", 5)
    _main("pipeline", "--corpus", corpus, "--exchange", d / "x", "--scheme", "weakC", "--audit", "--seed", 5)
    _main("candidates", "--heatmaps", corpus / "heatmaps", "--out", d / "cands.jsonl")
    split = checks.read_split(corpus)
    cands = checks.read_records(d / "cands.jsonl")
    _write(d / "neg.jsonl", [r for r in cands if r["image_id"] in split["backgrounds"]])
    _write(d / "ws_cands.jsonl", [r for r in cands if r["image_id"] in split["ws"]])
    truth = checks.read_records(corpus / "truth.jsonl")
    _write(d / "pos.jsonl", [r for r in truth if r["image_id"] in split["fs"]])
    _main("train-svm", "--positives", d / "pos.jsonl", "--negatives", d / "neg.jsonl", "--out", d / "m.svm")
    _main("select", "--model", d / "m.svm", "--candidates", d / "ws_cands.jsonl", "--out", d / "picks.jsonl")
    return d


def _write(path, records):
    lines = []
    for r in records:
        r = dict(r, keypoints=[[float(x), float(y)] for x, y in r["keypoints"]])
        lines.append(json.dumps(r) + "\n")
    Path(path).write_text("".join(lines))


def _eval_stdout(d, picks):
    from io import StringIO
    from contextlib import redirect_stdout

    buf = StringIO()
    with redirect_stdout(buf):
        assert cli.main(["eval", "--gt", str(d / "corpus" / "truth.jsonl"), "--est", str(picks)]) == 0
    return buf.getvalue()


def _exchange_copy(outputs, tmp_path):
    x = tmp_path / "x"
    shutil.copytree(outputs / "x", x)
    return x


def _edit(path, fn):
    """Rewrite the accepted (non-fs) records of one annotation file with fn."""
    recs = checks.read_records(path)
    accepted = [i for i, r in enumerate(recs) if r.get("provenance") != "fs"]
    recs = fn(recs, accepted)
    _write(path, recs)


def _final(x):
    return sorted(x.glob("annotations_iter*.jsonl"))[-1]


def test_untouched_outputs_pass(outputs):
    counts = checks.check_pipeline(outputs / "corpus", outputs / "x")
    assert counts["accepted"] > 0 and counts["correct"] == counts["accepted"]
    picks = outputs / "picks.jsonl"
    counts = checks.check_stages(outputs / "corpus", outputs / "ws_cands.jsonl", picks, _eval_stdout(outputs, picks))
    assert counts["accepted"] > 0


def _rejects(corpus, x, kind, **kw):
    with pytest.raises(checks.CheckError) as e:
        checks.check_pipeline(corpus, x, **kw)
    assert kind in str(e.value)


def test_pose_off_its_peak_is_rejected(outputs, tmp_path):
    x = _exchange_copy(outputs, tmp_path)

    def shift(recs, acc):  # 1.5 cells: still PCP-correct, but between peaks
        recs[acc[0]]["keypoints"][0] += 6.0
        return recs

    for f in x.glob("annotations_iter*.jsonl"):
        _edit(f, shift)
    _rejects(outputs / "corpus", x, "peak:")


def test_pcp_wrong_pose_is_rejected(outputs, tmp_path):
    x = _exchange_copy(outputs, tmp_path)

    def wreck(recs, acc):
        recs[acc[0]]["keypoints"] = recs[acc[0]]["keypoints"][::-1].copy()  # head at the feet
        return recs

    for f in x.glob("annotations_iter*.jsonl"):
        _edit(f, wreck)
    _rejects(outputs / "corpus", x, "PCP recount:")


def test_duplicated_image_is_rejected(outputs, tmp_path):
    x = _exchange_copy(outputs, tmp_path)
    _edit(_final(x), lambda recs, acc: recs + [recs[acc[0]]])
    _rejects(outputs / "corpus", x, "duplicate:")


def test_action_mismatch_is_rejected(outputs, tmp_path):
    x = _exchange_copy(outputs, tmp_path)

    def relabel(recs, acc):
        r = recs[acc[0]]
        r["action"] = "tennis" if r["action"] != "tennis" else "soccer"
        return recs

    for f in x.glob("annotations_iter*.jsonl"):
        _edit(f, relabel)
    _rejects(outputs / "corpus", x, "action:")


def test_changed_iteration_one_pose_is_rejected(outputs, tmp_path):
    x = _exchange_copy(outputs, tmp_path)
    assert (x / "annotations_iter2.jsonl").exists()

    def nudge(recs, acc):  # far below half a cell and any PCP tolerance
        recs[acc[0]]["keypoints"][3] += 0.01
        return recs

    _edit(x / "annotations_iter1.jsonl", nudge)
    _rejects(outputs / "corpus", x, "iteration:")


def test_annotated_image_as_target_is_rejected(outputs, tmp_path):
    x = _exchange_copy(outputs, tmp_path)
    fs_id = checks.read_split(outputs / "corpus")["fs"][0]

    def move(recs, acc):
        recs[acc[0]]["image_id"] = fs_id
        return recs

    _edit(_final(x), move)
    _rejects(outputs / "corpus", x, "target:")


def test_third_iteration_is_rejected(outputs, tmp_path):
    x = _exchange_copy(outputs, tmp_path)
    shutil.copy(x / "annotations_iter2.jsonl", x / "annotations_iter3.jsonl")
    shutil.copy(x / "report_iter2.txt", x / "report_iter3.txt")
    _rejects(outputs / "corpus", x, "iterations:")


def test_missing_cluster_stage_is_rejected(outputs, tmp_path):
    x = _exchange_copy(outputs, tmp_path)
    _rejects(outputs / "corpus", x, "cluster:", need_cluster=True)


def test_pick_that_is_no_candidate_is_rejected(outputs, tmp_path):
    picks = checks.read_records(outputs / "picks.jsonl")
    picks[0]["score"] += 1.0
    _write(tmp_path / "picks.jsonl", picks)
    with pytest.raises(checks.CheckError, match="pick:"):
        checks.check_stages(
            outputs / "corpus", outputs / "ws_cands.jsonl", tmp_path / "picks.jsonl",
            _eval_stdout(outputs, outputs / "picks.jsonl"),
        )


def test_wrong_eval_mean_is_rejected(outputs):
    out = _eval_stdout(outputs, outputs / "picks.jsonl").replace("mean ", "mean 1")
    with pytest.raises(checks.CheckError, match="eval:"):
        checks.check_stages(outputs / "corpus", outputs / "ws_cands.jsonl", outputs / "picks.jsonl", out)


def _tiny(tmp_path, workload="schemes-default"):
    return run.Workload(workload, run.CORPORA[workload]["tiny"], 2, tmp_path / "work")


_ARGS = type("Args", (), {"trace": 0, "seconds": 0})()


def test_nondeterministic_rounds_are_rejected(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    calls = iter(range(10))
    monkeypatch.setattr(checks, "digest", lambda files: str(next(calls)))
    result = run.measure(_ARGS, cli, _tiny(tmp_path), "test")
    assert not result["correct"] and result["attempted"] == 4 and result["failed"] == 0
    assert "determinism:" in capsys.readouterr().err


def test_output_unlike_an_earlier_runs_is_rejected(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = _tiny(tmp_path)
    (tmp_path / "digests.json").write_text(json.dumps({run.run_key(wl): "0" * 64}))
    result = run.measure(_ARGS, cli, wl, "test")
    assert not result["correct"] and result["attempted"] == 4
    assert "determinism: an earlier run" in capsys.readouterr().err


def test_failed_invocations_are_counted(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = _tiny(tmp_path)
    invocations = wl.invocations
    # the second pipeline of every round reads a corpus that is not there
    monkeypatch.setattr(wl, "invocations", lambda out: [a if k == 0 else a[:2] + ["missing"] + a[3:]
                                                        for k, a in enumerate(invocations(out))])
    result = run.measure(_ARGS, cli, wl, "test")
    assert not result["correct"] and result["attempted"] == 4 and result["failed"] == 2
    assert "every untraced" in capsys.readouterr().err


def test_tracer_restores_every_function():
    import poseboot.pipeline as pipeline
    import poseboot.svm as svm

    before = (svm.train, pipeline.train, pipeline.relational_feature)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pipeline.train is svm.train and pipeline.train is not before[0]
        assert pipeline.train.__wrapped__ is before[0]
    finally:
        tracer.uninstall()
    assert (svm.train, pipeline.train, pipeline.relational_feature) == before


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.CORPORA)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *map(str, args)], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", list(run.CORPORA))
def test_smoke_tiny(workload):
    p = _bench("--workload", workload, "--seed", 3, "--seconds", 0, "--trace", 0, "--size", "tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_tiny_traced():
    p = _bench("--workload", "recover-default", "--seed", 3, "--seconds", 0, "--trace", 1, "--size", "tiny")
    assert p.returncode == 0, p.stderr
    m = {k: v["value"] for k, v in json.loads(p.stdout.splitlines()[-1])["metrics"].items()}
    assert set(m) == set(spans.PER_LAYER)
    assert m["dpmm.point_updates"] > 0 and m["dpmm.recovered"] > 0 and m["pipeline.iterations"] >= 1
    assert m["features.vectors"] >= m["features.distinct_poses"] > 0
    assert m["heatmaps.candidates"] > m["heatmaps.candidates_annotated"] > 0
    assert m["svm.models_trained"] >= m["svm.models_used"] > 0
    assert m["cli.pipeline_s"] > m["cli.load_corpus_s"] > 0 and m["synth.corpus_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _bench("--workload", "weakC-hard", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert p.returncode != 0 and not p.stdout.strip()


def test_runs_agree_across_hash_seeds(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for hash_seed in ("1", "2"):
        p = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "weakC-hard", "--seed", "4", "--seconds", "0",
             "--trace", "0", "--size", "tiny"],
            cwd=tmp_path, capture_output=True, text=True, timeout=170, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert p.returncode == 0, p.stderr
    assert len(json.loads((tmp_path / "bench" / "out" / "digests.json").read_text())) == 1
    assert [p.name for p in (tmp_path / "bench" / "out").iterdir() if p.name.startswith("work-")] == []
