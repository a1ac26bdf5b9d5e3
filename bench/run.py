"""Benchmark of the poseboot self-training loop, end to end and by layer.

Runs the `poseboot` command line in-process on a corpus generated from the
seed, checks every output against bench/checks.py, and prints one JSON
line last:

    python3 bench/run.py --workload weakC-hard --seed 1 --seconds 9 --trace 0

A run repeats whole rounds of the workload's CLI invocations, at least two
and until --seconds have passed; the rounds' annotation and pick files must
be byte-identical, within the run and across runs of one workload, seed and
program source. --trace 0 prints the end-to-end metrics; --trace 1
alternates untraced and traced rounds and prints the per-layer metrics of
the last traced round. See bench/README.md.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the loop's matrices are small, and more threads only add
# scheduling noise. Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# The corpus and round outputs are scratch data. poseboot fsyncs every file
# it writes, and on a shared disk that makes set-up time a measure of the
# host's disk load (87 % of a 2.5 s set-up on the reference machine), so
# the benchmark skips the fsync. Every write still goes through the
# program's own code.
os.fsync = lambda fd: None

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import checks  # noqa: E402
import spans  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "accepted_correct": "count",
}


@dataclass(frozen=True)
class Corpus:
    actions: int
    poses: int  # per action; half of them annotated
    backgrounds: int
    hard: bool = False  # the ROADMAP's hard regime: distractor rate 0.6, noise 6 px

    def synth_argv(self, out: Path, seed: int) -> list[str]:
        argv = ["synth", "--out", str(out), "--seed", str(seed), "--actions", str(self.actions),
                "--poses", str(self.poses), "--backgrounds", str(self.backgrounds)]
        return argv + (["--outlier-rate", "0.6", "--noise", "6"] if self.hard else [])


# Corpus per workload and size. "bench" keeps SynthConfig()'s per-action
# pools of 50 poses and 20 backgrounds but uses 4 actions instead of 8, so
# that a run of two rounds stays near 11-29 s; cli-stages also shrinks its
# pools, because `outliers` samples 2000 sweeps over every pick.
# "tiny" is for the smoke tests.
CORPORA = {
    "schemes-default": {"bench": Corpus(4, 50, 20), "tiny": Corpus(2, 12, 2)},
    "weakC-hard": {"bench": Corpus(4, 50, 20, hard=True), "tiny": Corpus(2, 12, 2, hard=True)},
    "recover-default": {"bench": Corpus(4, 50, 20), "tiny": Corpus(2, 20, 2)},
    "cli-stages": {"bench": Corpus(4, 16, 6), "tiny": Corpus(2, 12, 2)},
}
# pipeline margin at which the selectors abstain on every target image
RECOVER_MARGIN = "3"


class Workload:
    """Builds the inputs once, then runs and checks rounds of CLI invocations."""

    def __init__(self, name: str, corpus: Corpus, seed: int, work: Path):
        self.name, self.corpus, self.seed, self.work = name, corpus, seed, work
        self.data = work / "corpus"

    def setup(self, call) -> None:
        """Writes the corpus and any derived inputs; call(argv) runs the CLI."""
        if call(self.corpus.synth_argv(self.data, self.seed)) != 0:
            raise RuntimeError("poseboot synth failed")
        if self.name == "cli-stages":
            split = checks.read_split(self.data)
            for group, ids in (("bg", split["backgrounds"]), ("ws", split["ws"])):
                (self.work / f"heatmaps_{group}").mkdir()
                for i in ids:
                    shutil.copyfile(self.data / "heatmaps" / f"{i}.hm", self.work / f"heatmaps_{group}" / f"{i}.hm")
            fs = set(split["fs"])
            lines = (self.data / "truth.jsonl").read_text().splitlines(keepends=True)
            (self.work / "positives.jsonl").write_text(
                "".join(ln for ln in lines if json.loads(ln)["image_id"] in fs)
            )

    def invocations(self, out: Path) -> list[list[str]]:
        seed = ["--seed", str(self.seed)]
        if self.name == "cli-stages":
            w = self.work
            return [
                ["candidates", "--heatmaps", str(w / "heatmaps_bg"), "--out", str(out / "negatives.jsonl")],
                ["candidates", "--heatmaps", str(w / "heatmaps_ws"), "--out", str(out / "candidates.jsonl")],
                ["train-svm", "--positives", str(w / "positives.jsonl"), "--negatives",
                 str(out / "negatives.jsonl"), "--out", str(out / "selector.svm"), "--synth", "10", *seed],
                ["select", "--model", str(out / "selector.svm"), "--candidates",
                 str(out / "candidates.jsonl"), "--out", str(out / "picks.jsonl")],
                ["outliers", "--poses", str(out / "picks.jsonl"), "--out", str(out / "outliers.txt"), *seed],
                ["eval", "--gt", str(self.data / "truth.jsonl"), "--est", str(out / "picks.jsonl")],
            ]
        schemes = {
            "schemes-default": [["semi"], ["weak"]],
            "weakC-hard": [["weakC"]],
            "recover-default": [["weakC", "--margin", RECOVER_MARGIN]],
        }[self.name]
        return [
            ["pipeline", "--corpus", str(self.data), "--exchange", str(out / extra[0]),
             "--audit", "--scheme", *extra, *seed]
            for extra in schemes
        ]

    def check(self, out: Path, stdout: dict[str, str]) -> tuple[dict, list[Path]]:
        """Checks one round's outputs; returns its counts and the files that
        must repeat byte for byte."""
        if self.name == "cli-stages":
            counts = checks.check_stages(
                self.data, out / "candidates.jsonl", out / "picks.jsonl", stdout["eval"]
            )
            return counts, [out / "picks.jsonl"]
        total = {"accepted": 0, "correct": 0}
        files = []
        for exchange in sorted(p for p in out.iterdir() if p.is_dir()):
            c = checks.check_pipeline(self.data, exchange, need_cluster=self.name == "recover-default")
            total["accepted"] += c["accepted"]
            total["correct"] += c["correct"]
            files += sorted(exchange.glob("annotations_iter*.jsonl"))
        return total, files


def invoke(cli, argv: list[str], tracer) -> tuple[int, str, str]:
    """One CLI invocation, its output captured; a span when tracing."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.main:{argv[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_round(cli, wl: Workload, out: Path, tracer):
    """(wall seconds or None if an invocation failed, attempted, failed, stdout by stage)."""
    out.mkdir()
    argvs = wl.invocations(out)
    stdout = {}
    start = time.perf_counter()
    for k, argv in enumerate(argvs):
        rc, text, err = invoke(cli, argv, tracer)
        if rc != 0:
            print(f"bench: poseboot {' '.join(argv)} exited {rc}: {err.strip()}", file=sys.stderr)
            return None, len(argvs), len(argvs) - k, stdout
        stdout[argv[0]] = text
    return time.perf_counter() - start, len(argvs), 0, stdout


def run_key(wl: Workload) -> str:
    """Names a workload, seed, corpus, program source and NumPy version:
    the outputs of two runs under one key must be byte-identical."""
    import numpy

    h = hashlib.sha256(numpy.__version__.encode())
    for path in sorted((ROOT / "src" / "poseboot").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return f"{wl.name}/seed{wl.seed}/{wl.corpus}/{h.hexdigest()[:16]}"


def check_across_runs(key: str, digest: str) -> None:
    """Compares a run's output digest with the one an earlier run, another
    process under another hash seed, recorded in bench/out/digests.json."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        if known[key] != digest:
            raise checks.CheckError(f"determinism: an earlier run of {key} wrote other annotation or pick files")
        return
    known[key] = digest
    tmp = path.with_name(f"digests.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def measure(args, cli, wl: Workload, run_id: str) -> dict:
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl.work.mkdir(parents=True)
    wl.setup(lambda argv: invoke(cli, argv, tracer)[0])
    setup_s = time.perf_counter() - _T0
    if tracer:
        tracer.uninstall()
        setup_metrics = tracer.metrics()
        tracer.annotated = set(checks.read_split(wl.data)["fs"])
        trace_path = OUT / f"trace-{wl.name}.jsonl.gz"
        trace_path.unlink(missing_ok=True)

    times = {False: [], True: []}  # round wall time, by traced
    tally = {"attempted": 0, "failed": 0}
    digests = set()
    layer = {}
    begin = time.perf_counter()
    k = 0
    try:
        # whole rounds, at least two, so that determinism is checked in every run
        while k < 2 or time.perf_counter() - begin < args.seconds:
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            out = wl.work / f"round{k}"
            wall, n, bad, stdout = run_round(cli, wl, out, tracer if traced else None)
            if traced:
                tracer.uninstall()
                tracer.write(trace_path, run_id, k)
                layer = tracer.metrics()
            tally["attempted"] += n
            tally["failed"] += bad
            if wall is not None:
                counts, files = wl.check(out, stdout)
                digests.add(checks.digest(files))
                times[traced].append(wall)
            k += 1
        if not times[False] or (tracer and not times[True]):
            raise checks.CheckError("every untraced or every traced round had a failed invocation")
        if len(digests) > 1:
            raise checks.CheckError("determinism: rounds at one seed wrote different annotation or pick files")
        check_across_runs(run_key(wl), digests.pop())
    except checks.CheckError as e:
        print(f"bench: wrong output: {e}", file=sys.stderr)
        return {"correct": False, **tally, "metrics": {}}

    run_s = statistics.median(times[False])
    if tracer:
        traced_s = statistics.median(times[True])
        metrics = {
            **layer,
            "synth.corpus_s": setup_metrics["synth.corpus_s"],
            "cli.synth_s": setup_metrics["cli.synth_s"],
            "trace.run_s": traced_s,
            "trace.overhead_s": traced_s - run_s,
            "trace.overhead_pct": 100.0 * (traced_s - run_s) / run_s,
        }
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accepted_correct": counts["correct"],
        }
        units = END_TO_END
    return {
        "rounds_s": times,
        "correct": True,
        **tally,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(CORPORA))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="keep starting rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("bench", "tiny"), default="bench", help="corpus size, see CORPORA")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import poseboot.cli as cli
    except ImportError as e:
        print(f"bench: cannot import poseboot from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2

    run_id = uuid.uuid4().hex[:12]
    OUT.mkdir(exist_ok=True)
    wl = Workload(args.workload, CORPORA[args.workload][args.size], args.seed, OUT / f"work-{run_id}")
    try:
        result = measure(args, cli, wl, run_id)
        (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
        result.pop("rounds_s", None)  # kept in the result file only
        print(json.dumps(result), flush=True)
    finally:
        # after the result line, so that no metric includes the deletion
        shutil.rmtree(wl.work, ignore_errors=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
