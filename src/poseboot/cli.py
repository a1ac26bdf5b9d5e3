"""Command-line front end.

Exit codes: 0 success, 1 usage errors, 2 data/processing errors.
Every subcommand takes --seed and --config; a config file holds flat
key=value lines whose keys are the long option names (dashes or
underscores), each value read as its option's type; on/off flags and
--metric are set on the command line only. Explicit flags beat config
values, which beat defaults.
"""
from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import fileio
from .dpmm import (
    RESTARTS, DpmmConfig, detect_outliers, format_outlier_report, gibbs_cluster, project
)
from .features import relational_features
from .heatmaps import CandidateGenConfig, enumerate_candidates
from .metrics import ReferenceLength, format_pck_table, pck_report
from .pipeline import PipelineConfig, Scheme, run_pipeline, training_set
from .skeleton import (
    ActionLabel, CandidateSet, DatasetSplit, FsExample, JointId, Skeleton, WsExample
)
from .svm import TOL, select, train
from .synth import SynthConfig, synth_corpus


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def seed(text: str) -> int:
    """The type of --seed: NumPy seeds only from non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser, and the parser of each subcommand by name."""
    p = _Parser(prog="poseboot", description=__doc__)
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    def common(sp):
        sp.add_argument("--seed", type=seed, default=None, help="RNG seed, >= 0")
        sp.add_argument("--config", type=Path, default=None, help="key=value config file")

    def sweeps(sp, flag):
        sp.add_argument(flag, type=int, default=None,
                        help=f"Gibbs sweeps per chain, {RESTARTS} chains per set of poses")
        sp.add_argument("--burn-in", type=int, default=None,
                        help="sweeps of each chain before its samples count")

    sp = sub.add_parser("synth", help="generate a synthetic corpus")
    common(sp)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--actions", type=int, default=None)
    sp.add_argument("--poses", type=int, default=None)
    sp.add_argument("--noise", type=float, default=None)
    sp.add_argument("--outlier-rate", type=float, default=None)
    sp.add_argument("--ws-fraction", type=float, default=None)
    sp.add_argument("--backgrounds", type=int, default=None)

    sp = sub.add_parser("features", help="pose records to feature matrix (.npz)")
    common(sp)
    sp.add_argument("--poses", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--raw", action="store_true", help="skip torso normalization")

    sp = sub.add_parser("train-svm", help="train a selector from pose records")
    common(sp)
    sp.add_argument("--positives", type=Path, required=True)
    sp.add_argument("--negatives", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--reg", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--synth", type=int, default=None, help="jittered copies per positive")
    sp.add_argument("--eps", type=float, default=None)

    sp = sub.add_parser("candidates", help="heatmaps to candidate pose records")
    common(sp)
    sp.add_argument("--heatmaps", type=Path, required=True, help=".hm file or directory")
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--top-k", type=int, default=None)
    sp.add_argument("--beam", type=int, default=None)
    sp.add_argument("--nms-radius", type=float, default=None)

    sp = sub.add_parser("select", help="pick at most one candidate per image")
    common(sp)
    sp.add_argument("--model", type=Path, required=True)
    sp.add_argument("--candidates", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--margin", type=float, default=None)

    sp = sub.add_parser("cluster", help="partition pose records by feature clusters")
    common(sp)
    sp.add_argument("--poses", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--pca-dim", type=int, default=None)
    sweeps(sp, "--iters")

    sp = sub.add_parser("outliers", help="flag implausible poses among records")
    common(sp)
    sp.add_argument("--poses", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--pca-dim", type=int, default=None)
    sp.add_argument("--small-max", type=int, default=None)
    sweeps(sp, "--iters")

    sp = sub.add_parser("pipeline", help="run the self-training loop on a corpus")
    common(sp)
    sp.add_argument("--corpus", type=Path, required=True)
    sp.add_argument("--exchange", type=Path, required=True)
    sp.add_argument("--scheme", type=str, required=True, help="semi | weak | weakC")
    sp.add_argument("--iterations", type=int, default=None)
    sp.add_argument("--margin", type=float, default=None)
    sp.add_argument("--reg", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--n-synth", type=int, default=None)
    sweeps(sp, "--gibbs-iters")
    sp.add_argument("--audit", action="store_true", help="score against corpus truth")

    sp = sub.add_parser("eval", help="compare estimated poses against ground truth")
    common(sp)
    sp.add_argument("--gt", type=Path, required=True)
    sp.add_argument("--est", type=Path, required=True)
    sp.add_argument("--metric", choices=("pck", "pckh"), default="pck")
    sp.add_argument("--frac", type=float, default=None)
    return p, sub.choices


def _merged(args: argparse.Namespace, command: argparse.ArgumentParser) -> dict:
    """Config-file values fill in for options left at None.

    Each value is converted by the type of its option. A key that names no
    option of the command, an option only the command line sets (on/off
    flags, options with a default, --config), or an option two keys set
    (outlier-rate and outlier_rate) is an error naming the file.
    """
    out = dict(vars(args))
    if args.config is None:
        return out
    options = {}
    for act in command._actions:
        if act.option_strings and act.dest != "help":
            options[act.dest] = options[act.dest.replace("_", "-")] = act
    key_of = {}  # the key that set each option
    for key, value in fileio.load_config(args.config).items():
        act = options.get(key)
        if act is None:
            raise ValueError(f"{args.config}: unknown config key {key!r}")
        if key_of.setdefault(act.dest, key) != key:
            raise ValueError(f"{args.config}: config keys {key_of[act.dest]!r} and {key!r} "
                             f"both set {act.option_strings[-1]}")
        where = f"{args.config}: config key {key!r}"
        if act.default is not None or act.dest == "config":
            raise ValueError(f"{where}: {act.option_strings[-1]} is set on the command line only")
        convert = act.type or str
        try:
            typed = convert(value)
        except ValueError:
            raise ValueError(f"{where}: invalid {convert.__name__} value {value!r}") from None
        except argparse.ArgumentTypeError as e:
            raise ValueError(f"{where}: {act.option_strings[-1]} {e}") from None
        if getattr(args, act.dest) is None:  # an explicit flag beats the file
            out[act.dest] = typed
    return out


def _pick(d: dict, key: str, default):
    v = d.get(key)
    return default if v is None else v


def _given(d: dict, **options: str) -> dict:
    """{field: value} for each field=option whose option was given; unset
    options are left out, so the config's own defaults apply."""
    return {f: d[o] for f, o in options.items() if d.get(o) is not None}


# --- corpus layout ------------------------------------------------------------


def _check_manifest(path: Path, manifest) -> None:
    """Raise, naming path and the key, unless manifest has the shape that
    synth writes; us and backgrounds may be left out."""
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: must be a JSON object, got {type(manifest).__name__}")
    for key, kind in (("fs", list), ("ws", dict), ("us", list), ("backgrounds", list)):
        if key not in manifest and key in ("fs", "ws"):
            raise ValueError(f"{path}: missing key {key!r}")
        value = manifest.get(key, [])
        items = value.values() if isinstance(value, dict) else value
        if not (isinstance(value, kind) and all(isinstance(v, str) for v in items)):
            shape = "map image ids to action names" if kind is dict else "be a list of image ids"
            raise ValueError(f"{path}: {key!r} must {shape}")


def _load_corpus(corpus_dir: Path):
    """The split, the true skeletons by image, and each image's .hm file; a
    ws, us or background image without one, or a stray one, is an error."""
    split_path = corpus_dir / "split.json"
    try:
        manifest = json.loads(split_path.read_bytes())
    except ValueError as e:  # invalid JSON or UTF-8
        raise ValueError(f"{split_path}: {e}") from None
    _check_manifest(split_path, manifest)
    truth_path = corpus_dir / "truth.jsonl"
    records = fileio.read_pose_index(truth_path)
    fs = []
    for i in manifest["fs"]:
        rec = records.get(i)
        if rec is None:
            raise ValueError(f"{truth_path}: no record for annotated image {i!r}")
        if rec.action is None:
            raise ValueError(f"{truth_path}: truth record for {i!r} lacks an action")
        try:
            fs.append(FsExample(i, rec.skeleton(), rec.action))
        except ValueError as e:
            raise ValueError(f"{truth_path}: {e}") from None
    ws = []
    for i, a in manifest["ws"].items():
        try:
            ws.append(WsExample(i, ActionLabel.parse(a)))
        except ValueError as e:
            raise ValueError(f"{split_path}: image {i!r}: {e}") from None
    try:
        split = DatasetSplit(
            fs=tuple(fs),
            ws=tuple(ws),
            us=tuple(manifest.get("us", ())),
            backgrounds=tuple(manifest.get("backgrounds", ())),
        )
    except ValueError as e:
        raise ValueError(f"{split_path}: {e}") from None
    heatmaps = {f.stem: f for f in sorted((corpus_dir / "heatmaps").glob("*.hm"))}
    needed = [*split.ws_actions(), *split.us, *split.backgrounds]
    for i in needed:
        if i not in heatmaps:
            raise ValueError(f"{split_path}: image {i!r} has no file heatmaps/{i}.hm")
    images = {*split.fs_ids(), *needed}
    for i, path in heatmaps.items():
        if i not in images:
            raise ValueError(f"{path}: names no image of {split_path}")
    truth = {i: r.skeleton() for i, r in records.items()}
    return split, truth, heatmaps


def _image_candidates(path: Path, cfg: CandidateGenConfig) -> CandidateSet:
    """The candidates of the image whose maps are in one .hm file; every
    heatmap error, and a candidate without a torso, names the file."""
    try:
        return enumerate_candidates(fileio.read_heatmaps(path), cfg, image_id=path.stem)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# --- subcommands --------------------------------------------------------------


def _read_sets(path: Path) -> list[CandidateSet]:
    """The file's candidate sets, in order; an empty file is an error naming it."""
    sets = list(fileio.read_candidate_sets(path))
    if not sets:
        raise ValueError(f"{path}: no pose records")
    return sets


def _read_poses(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Each record's image id, keypoints (m, 14, 2) and score, 0 where it has
    none, in file order, from the file's candidate sets."""
    sets = _read_sets(path)
    ids = [s.image_id for s in sets for _ in range(len(s))]
    return ids, np.concatenate([s.keypoints for s in sets]), np.concatenate([s.scores for s in sets])


def _cmd_synth(a: dict) -> int:
    cfg = SynthConfig(
        **_given(a, n_actions="actions", poses_per_action="poses", base_noise="noise",
                 outlier_rate="outlier_rate", seed="seed", ws_fraction="ws_fraction",
                 n_backgrounds="backgrounds")
    )
    out: Path = a["out"]
    (out / "heatmaps").mkdir(parents=True, exist_ok=True)
    # split.json goes last, so a corpus cut short does not load
    (out / "split.json").unlink(missing_ok=True)
    # each image's maps are written as soon as they are drawn: synth holds
    # one image's maps at a time, and the split and truth
    corpus = synth_corpus(cfg, lambda image_id, maps: fileio.write_heatmaps(
        out / "heatmaps" / f"{image_id}.hm", [maps[j] for j in JointId]))
    fileio.write_pose_records(out / "truth.jsonl", [
        fileio.PoseRecord(i, skel.keypoints, action) for i, (skel, action) in corpus.truth.items()
    ])
    split = corpus.split
    manifest = {
        "fs": list(split.fs_ids()),
        "ws": {e.image_id: e.action.value for e in split.ws},
        "us": list(split.us),
        "backgrounds": list(split.backgrounds),
    }
    fileio.atomic_write(out / "split.json", json.dumps(manifest, indent=1) + "\n")
    print(
        f"wrote corpus: {len(split.fs)} fs, {len(split.ws)} ws, "
        f"{len(split.backgrounds)} backgrounds -> {out}"
    )
    return 0


def _cmd_features(a: dict) -> int:
    ids, keypoints, _ = _read_poses(a["poses"])
    feats = relational_features(keypoints, normalize=not a["raw"])
    buf = io.BytesIO()  # np.savez on a path would append .npz to it
    np.savez(buf, ids=np.array(ids), features=feats)
    fileio.atomic_write(a["out"], buf.getvalue())
    print(f"wrote {len(ids)} feature vectors of dim {feats.shape[1]} -> {a['out']}")
    return 0


def _cmd_train_svm(a: dict) -> int:
    cfg = PipelineConfig(**_given(a, seed="seed", n_synth="synth", eps="eps", reg="reg"))
    tol = _pick(a, "tol", TOL)
    _, positives, _ = _read_poses(a["positives"])
    rng = np.random.default_rng(cfg.seed)
    # training_set gathers only the negatives' rows it keeps
    ts = training_set([Skeleton(kp) for kp in positives], _read_sets(a["negatives"]), cfg, rng)
    model = train(ts, reg=cfg.reg, tol=tol)
    fileio.save_svm_model(a["out"], model)
    n_pos = int(np.sum(ts.labels > 0))
    epochs = len(model.objective_history)
    print(
        f"trained on {n_pos}+{len(ts.labels) - n_pos} samples, "
        f"{epochs} epochs, objective "
        f"{model.objective_history[-1]:.6f} -> {a['out']}"
    )
    if model.gap_history[-1] > tol:
        print(
            f"warning: not converged after {epochs} epochs: "
            f"duality gap {model.gap_history[-1]:.3g} > tol {tol:g}",
            file=sys.stderr,
        )
    return 0


def _cmd_candidates(a: dict) -> int:
    cfg = CandidateGenConfig(
        **_given(a, threshold="threshold", top_k="top_k", nms_radius="nms_radius", beam="beam")
    )
    src: Path = a["heatmaps"]
    files = sorted(src.glob("*.hm")) if src.is_dir() else [src]
    if not files:
        raise ValueError(f"no heatmap files under {src}")
    written = []  # candidates per image

    def records():
        # each image's records are made, and written, after the last one's
        for f in files:
            cands = _image_candidates(f, cfg)
            written.append(len(cands))
            for kp, score in zip(cands.keypoints, cands.scores.tolist()):
                yield fileio.PoseRecord(cands.image_id, kp, score=score)

    fileio.write_pose_records(a["out"], records())
    print(f"wrote {sum(written)} candidates from {len(files)} images -> {a['out']}")
    return 0


def _cmd_select(a: dict) -> int:
    model = fileio.load_svm_model(a["model"])
    margin = PipelineConfig(**_given(a, margin="margin")).margin  # checked finite there
    sets = fileio.read_candidate_sets(a["candidates"])
    picked = []  # per image, whether it has a pick

    def picks():
        # each image's pick is made, and written, after the last one's
        for cands in sets:
            pick, _ = select(model, cands, margin=margin)
            picked.append(pick is not None)
            if pick is not None:
                yield fileio.PoseRecord(
                    cands.image_id,
                    cands.take(pick),
                    None if cands.actions is None else cands.actions[pick],
                    score=cands.scores[pick],
                    provenance="svm",
                )

    fileio.write_pose_records(a["out"], picks())
    print(f"selected {sum(picked)} of {len(picked)} images -> {a['out']}")
    return 0


def _features_and_scores(path: Path):
    ids, keypoints, scores = _read_poses(path)
    if len(ids) < 4:
        raise ValueError(f"{path}: need at least 4 pose records, got {len(ids)}")
    return ids, relational_features(keypoints, normalize=True), scores


def _sweeps(a: dict, flag: str) -> dict:
    """gibbs_iters from flag and burn_in from --burn-in, DpmmConfig's
    defaults where unset."""
    iters = _pick(a, flag[2:].replace("-", "_"), DpmmConfig.gibbs_iters)
    burn_in = _pick(a, "burn_in", DpmmConfig.burn_in)
    if not 0 <= burn_in < iters:
        raise ValueError(
            f"need 0 <= --burn-in < {flag}, got --burn-in {burn_in} and {flag} {iters}"
        )
    return {"gibbs_iters": iters, "burn_in": burn_in}


def _dpmm_config(a: dict) -> DpmmConfig:
    return DpmmConfig(
        **_sweeps(a, "--iters"),
        **_given(a, gamma="gamma", alpha="alpha", seed="seed", pca_dim="pca_dim",
                 small_cluster_max="small_max"),
    )


def _cmd_cluster(a: dict) -> int:
    cfg = _dpmm_config(a)
    _, X, _ = _features_and_scores(a["poses"])
    X = project(X, cfg)
    p = gibbs_cluster(X, cfg)
    sizes = ",".join(str(s) for s in p.sizes())
    text = (
        f"n_clusters {p.n_clusters}\n"
        f"sizes {sizes}\n"
        f"assignments {','.join(str(z) for z in p.assignments)}\n"
    )
    fileio.atomic_write(a["out"], text)
    print(f"clustered {p.n_items} poses into {p.n_clusters} clusters -> {a['out']}")
    return 0


def _cmd_outliers(a: dict) -> int:
    cfg = _dpmm_config(a)
    ids, X, scores = _features_and_scores(a["poses"])
    X = project(X, cfg)
    p = gibbs_cluster(X, cfg)
    report = detect_outliers(X, scores, p, cfg)
    fileio.atomic_write(a["out"], format_outlier_report(report))
    flagged = [ids[i] for i in report.outlier_indices]
    print(
        f"{'flagged' if report.accepted else 'kept all'}: "
        f"{len(report.outlier_indices)} outliers {flagged} -> {a['out']}"
    )
    return 0


def _cmd_pipeline(a: dict) -> int:
    cfg = PipelineConfig(
        scheme=Scheme.parse(a["scheme"]),
        dpmm=DpmmConfig(**_sweeps(a, "--gibbs-iters")),
        **_given(a, max_iterations="iterations", eps="eps", n_synth="n_synth",
                 margin="margin", reg="reg", seed="seed"),
    )
    split, truth, heatmaps = _load_corpus(a["corpus"])
    gen = CandidateGenConfig()
    annotated = set(split.fs_ids())  # run_iteration never reads their candidates
    # one image's maps at a time: read, enumerated, dropped
    candidates = {
        image_id: _image_candidates(path, gen)
        for image_id, path in heatmaps.items()
        if image_id not in annotated
    }
    gt = truth if a["audit"] else None
    states = run_pipeline(split, candidates, cfg, exchange_dir=a["exchange"], gt=gt)
    for prev, st in zip(states, states[1:]):
        total = len(st.accepted)
        line = f"iter {st.iteration} accepted {total} (+{total - len(prev.accepted)})"
        if st.report is not None and st.report.precision is not None:
            line += f" precision {st.report.precision:.4f}"
        print(line)
    return 0


def _cmd_eval(a: dict) -> int:
    gt = fileio.read_pose_index(a["gt"])
    est = fileio.read_pose_index(a["est"])
    shared = [i for i in est if i in gt]
    if not shared:
        raise ValueError("no shared image ids between gt and est")
    if a["metric"] == "pck":
        ref, frac = ReferenceLength.BBOX_MAX_SIDE, _pick(a, "frac", 0.2)
        title = f"PCK@{frac}"
    else:
        ref, frac = ReferenceLength.HEAD_SEGMENT, _pick(a, "frac", 0.5)
        title = f"PCKh@{frac}"
    pairs = [(gt[i].skeleton(), est[i].skeleton()) for i in shared]
    for i, (g, _) in zip(shared, pairs):
        if not ref.length(g) > 0.0:
            raise ValueError(f"{a['gt']}: image {i!r}: degenerate reference ({ref.value} length 0)")
    actions = [gt[i].action for i in shared]
    has_actions = all(x is not None for x in actions)
    report = pck_report(pairs, frac, ref, actions=actions if has_actions else None)
    print(format_pck_table(report, title=title))
    if report.per_action:
        for action, rate in report.per_action.items():
            print(f"{action.value}: {100.0 * rate:.1f}")
    print(f"mean {100.0 * report.mean_pck:.1f} over {len(shared)} images")
    return 0


_DISPATCH = {
    "synth": _cmd_synth,
    "features": _cmd_features,
    "train-svm": _cmd_train_svm,
    "candidates": _cmd_candidates,
    "select": _cmd_select,
    "cluster": _cmd_cluster,
    "outliers": _cmd_outliers,
    "pipeline": _cmd_pipeline,
    "eval": _cmd_eval,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("poseboot: a subcommand is required (see --help)")
        merged = _merged(args, commands[args.command])
        return _DISPATCH[args.command](merged)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
