"""Iterative self-training: train a selector on annotated poses, pick
trustworthy candidate poses for the unannotated images, fold them back in
as annotations, and repeat. Three schemes:

  semi:  one shared selector over unlabeled images;
  weak:  one selector per action over action-labeled images;
  weakC: weak, plus cluster-based recovery over what the selectors rejected.

Acceptance is append-only within a run and capped at max_iterations
(default 2, more invites drift toward the selector's own mistakes).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dpmm import DpmmConfig, recover_poses
from .features import relational_features, relational_length
from .fileio import PoseRecord, atomic_write, read_candidate_sets, write_pose_records
# relational_feature is not called here; it stays importable from this module
# because bench/tests/test_bench.py checks that the tracer restores it
from .features import relational_feature  # noqa: F401
from .metrics import PCP_THRESHOLD, MetricsReport, selection_stats
from .skeleton import N_JOINTS, ActionLabel, CandidateSet, DatasetSplit, Skeleton
from .svm import SvmModel, TrainSet, select, synthesize_positives, train

__all__ = [
    "Scheme",
    "PipelineConfig",
    "AcceptedPose",
    "IterationState",
    "negative_keypoints",
    "training_set",
    "run_iteration",
    "stop_check",
    "run_pipeline",
    "write_iteration_files",
    "read_candidate_dir",
    "MAX_NEGATIVES",
]

MAX_NEGATIVES = 256  # evenly thinned mined-negative cap per round
RECOVER_PER_IMAGE = 3  # best candidates per abstained image fed to clustering
MIN_ACTION_ANNOTATIONS = 5  # below this an action uses the general model


class Scheme(Enum):
    SEMI = "semi"
    WEAK = "weak"
    WEAKC = "weakC"

    @classmethod
    def parse(cls, name: str) -> "Scheme":
        for s in cls:
            if s.value.lower() == name.strip().lower():
                return s
        raise ValueError(f"unknown scheme: {name!r}")


@dataclass(frozen=True)
class PipelineConfig:
    scheme: Scheme = Scheme.WEAK
    max_iterations: int = 2
    eps: float = 0.7  # jitter radius for synthesized positives, PCP units
    n_synth: int = 10  # synthesized positives per annotation
    margin: float = 0.0  # selector acceptance margin
    reg: float = 1.0
    dpmm: DpmmConfig = field(default_factory=DpmmConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.n_synth < 0:
            raise ValueError(f"n_synth must be non-negative, got {self.n_synth}")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and non-negative, got {self.eps}")
        if not math.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")
        if not self.reg > 0:
            raise ValueError(f"reg must be positive, got {self.reg}")
        if self.reg == math.inf:
            raise ValueError(f"reg must be finite, got {self.reg}")


@dataclass(frozen=True)
class AcceptedPose:
    image_id: str
    skeleton: Skeleton
    action: ActionLabel
    provenance: str  # "svm" | "cluster"


@dataclass(frozen=True)
class IterationState:
    iteration: int = 0
    accepted: tuple[AcceptedPose, ...] = ()
    report: Optional[MetricsReport] = None  # this round's, when scored against truth

    def accepted_ids(self) -> set[str]:
        return {a.image_id for a in self.accepted}


def _thinned_rows(n: int, cap: int) -> np.ndarray:
    """At most cap of the rows 0..n-1, evenly spaced by index from the first
    to the last, so coverage across background images is deterministic."""
    return np.arange(n) if n <= cap else np.linspace(0, n - 1, cap).round().astype(int)


def negative_keypoints(backgrounds: Sequence[CandidateSet]) -> np.ndarray:
    """The mined negatives (m, 14, 2), false by definition: the rows of the
    background sets in order, thinned by _thinned_rows to MAX_NEGATIVES,
    each gathered from its own set. No row at all is an error."""
    first = np.cumsum([0, *map(len, backgrounds)])  # each set's first row
    if first[-1] == 0:
        raise ValueError("no negatives: no background image has a candidate")
    rows = _thinned_rows(first[-1], MAX_NEGATIVES)
    return np.concatenate([
        c.take(r - lo) for c, r, lo in
        zip(backgrounds, np.split(rows, np.searchsorted(rows, first[1:-1])), first)
    ])


def _positive_keypoints(
    annotations: Sequence[Skeleton], cfg: PipelineConfig, rng: np.random.Generator,
) -> list[np.ndarray]:
    """Per annotation, its keypoints then its cfg.n_synth jitters of radius
    cfg.eps, (1 + n_synth, 14, 2), drawn from rng in annotation order."""
    return [np.concatenate([s.keypoints[None], synthesize_positives(s, cfg.n_synth, cfg.eps, rng)])
            for s in annotations]


def training_set(
    annotations: Sequence[Skeleton], backgrounds: Sequence[CandidateSet],
    cfg: PipelineConfig, rng: np.random.Generator,
) -> TrainSet:
    """A selector's training set, featurized in one call: each annotation,
    then its cfg.n_synth jitters of radius cfg.eps drawn from rng in
    annotation order, labeled +1; then negative_keypoints(backgrounds),
    labeled -1."""
    negatives = negative_keypoints(backgrounds)
    keypoints = np.concatenate([*_positive_keypoints(annotations, cfg, rng), negatives])
    n = len(keypoints)
    # the features fill all but the last column of the buffer that train
    # standardizes in place
    buf = np.empty((n, relational_length(N_JOINTS) + 1))
    X = relational_features(keypoints, normalize=True, out=buf[:, :-1])
    return TrainSet(X, np.repeat([1.0, -1.0], [n - len(negatives), len(negatives)]))


def _own_set(positives: np.ndarray, negatives: np.ndarray) -> TrainSet:
    """The positive keypoints (p, 14, 2), featurized, labeled +1, then the
    negatives' feature rows (m, L), copied, labeled -1, in a buffer laid
    out as training_set's. The buffer lives only while its selector trains."""
    p, m = len(positives), len(negatives)
    buf = np.empty((p + m, negatives.shape[1] + 1))
    relational_features(positives, normalize=True, out=buf[:p, :-1])
    buf[p:, :-1] = negatives
    return TrainSet(buf[:, :-1], np.repeat([1.0, -1.0], [p, m]))


def _train_selectors(
    state: IterationState,
    split: DatasetSplit,
    candidates_in: dict[str, CandidateSet],
    cfg: PipelineConfig,
    scored: Sequence[str],
) -> tuple[Optional[SvmModel], dict[ActionLabel, SvmModel]]:
    """Selectors for the images in scored, each train(ts, reg=cfg.reg) on
    rows of the round's training_set: the annotations, then the poses
    accepted so far, against negatives mined from the backgrounds.
    Returns (general, {action: model}).

    Under semi, general is the one selector, on every row; no action label
    is read and the mapping is empty. Under weak/weakC an action other than
    the general action with at least MIN_ACTION_ANNOTATIONS annotations
    gets a selector of its own positives' rows and every negative; general,
    on every row, is trained only when some annotated or scored action
    lacks its own, and is None otherwise.

    Memory: negative_keypoints runs once. When some selector trains on
    every row, the round builds training_set's matrix once and copies out
    each per-action subset, trained before general in place: it holds the
    matrix plus one subset at a time. Otherwise it builds no such matrix:
    the positives are drawn as training_set draws them, and each
    per-action selector's buffer holds its own positives' features and a
    copy of the negatives', featurized once. A row's features do not
    depend on the rows computed with it, so both ways train the same
    models bit for bit.
    """
    annotations = [*split.fs, *state.accepted]
    if not annotations:
        raise ValueError("no positive features")
    rng = np.random.default_rng([cfg.seed, state.iteration + 1])
    backgrounds = [candidates_in[i] for i in split.backgrounds if i in candidates_in]
    skeletons = [e.skeleton for e in annotations]
    if cfg.scheme is Scheme.SEMI:
        return train(training_set(skeletons, backgrounds, cfg, rng), reg=cfg.reg), {}
    actions = Counter(e.action for e in annotations)
    own = [a for a, n in actions.items()
           if n >= MIN_ACTION_ANNOTATIONS and a is not ActionLabel.GENERAL]
    ws_action = split.ws_actions()
    models = {}
    # general trains on every row, so the round builds that matrix
    if any(a not in own for a in (*actions, *(ws_action[i] for i in scored))):
        ts = training_set(skeletons, backgrounds, cfg, rng)
        for a in own:
            keep = ts.labels < 0  # every negative, and the positives of a's annotations
            keep[~keep] = np.repeat([e.action is a for e in annotations], 1 + cfg.n_synth)
            models[a] = train(ts.subset(keep), reg=cfg.reg)
        return train(ts, reg=cfg.reg), models
    # no selector trains on every row: each gets a buffer of its own
    negatives = relational_features(negative_keypoints(backgrounds), normalize=True)
    poses = _positive_keypoints(skeletons, cfg, rng)
    for a in own:
        positives = np.concatenate([k for k, e in zip(poses, annotations) if e.action is a])
        models[a] = train(_own_set(positives, negatives), reg=cfg.reg)
    return None, models


def _select(
    open_ids: Sequence[str], candidates_in: dict[str, CandidateSet], cfg: PipelineConfig,
    ws_action: dict[str, ActionLabel], general: Optional[SvmModel],
    models: dict[ActionLabel, SvmModel],
) -> tuple[list[AcceptedPose], dict[ActionLabel, list]]:
    """The svm picks of the open images, in order, and the recovery pools:
    per action, the (image id, row, score, features) of each row to cluster.

    An image with candidates is scored by its action's selector, or by
    general if it has none. Under weakC an image without a pick adds its
    RECOVER_PER_IMAGE best rows by stable sort to its action's pool, their
    features copied from the rows select scored, so that no other scored
    row outlives its image. An image without candidates adds its action
    with no rows, so each action keeps its seed index.
    """
    picks, pools = [], {}
    for i in open_ids:
        cands = candidates_in[i]
        # semi has no per-action models, so every image gets the general one
        model = models.get(ws_action.get(i), general)
        pick, feats = select(model, cands, cfg.margin) if cands else (None, None)
        if pick is not None:
            row_action = None if cands.actions is None else cands.actions[pick]
            action = ws_action.get(i, row_action or ActionLabel.GENERAL)
            picks.append(AcceptedPose(i, Skeleton(cands.take(pick)), action, "svm"))
        elif cfg.scheme is Scheme.WEAKC:
            # select featurized every row best first, so the pool's features
            # are the first rows it returned
            best = np.argsort(-cands.scores, kind="stable")[:RECOVER_PER_IMAGE].tolist()
            pools.setdefault(ws_action[i], []).extend(
                (i, j, cands.scores[j], feats[k].copy()) for k, j in enumerate(best))
    return picks, pools


def _recover(pools: dict[ActionLabel, list], candidates_in: dict[str, CandidateSet],
             cfg: PipelineConfig, it: int) -> list[AcceptedPose]:
    """Second chance for the images the selectors left empty: the pools are
    clustered, one chain per action seeded [cfg.seed, it, its index by label],
    all run together, and plausible rows are recovered as "cluster" poses."""
    actions = sorted(pools, key=lambda a: a.value)
    seeds = [int(np.random.SeedSequence([cfg.seed, it, ai]).generate_state(1)[0])
             for ai in range(len(actions))]
    arrays = [(np.reshape([f for *_, f in pools[a]], (-1, relational_length(N_JOINTS))),
               np.array([s for _, _, s, _ in pools[a]]), [i for i, *_ in pools[a]])
              for a in actions]
    recovered = []
    for pool, row in recover_poses(arrays, cfg.dpmm, seeds):
        i, j, _, _ = pools[actions[pool]][row]
        recovered.append(AcceptedPose(i, Skeleton(candidates_in[i].take(j)),
                                      actions[pool], "cluster"))
    return recovered


def run_iteration(
    state: IterationState,
    split: DatasetSplit,
    candidates_in: dict[str, CandidateSet],
    cfg: PipelineConfig,
    gt: Optional[dict[str, Skeleton]] = None,
) -> IterationState:
    """One round in four stages, train (_train_selectors), select (_select),
    recover (_recover, weakC only) and score; returns the successor state.

    candidates_in maps image ids to candidate sets and must cover the
    background images (their detections are the negative pool); the set of
    image i must carry image_id == i. Target images are the non-background,
    non-annotated ids; under weak/weakC each must carry an action label in
    the split. Only open targets, those with no accepted pose yet, are
    scored, and a pick is accepted at once. When no open image has
    candidates the round trains no selector. With gt, the state's report
    scores every target by its accepted pose at metrics.PCP_THRESHOLD,
    whatever cfg.eps.
    """
    for i, cands in candidates_in.items():
        if cands.image_id != i:
            raise ValueError(f"candidates for image {i!r} carry image_id {cands.image_id!r}")
    ws_action = split.ws_actions()
    excluded = set(split.fs_ids()) | set(split.backgrounds)
    targets = [i for i in sorted(candidates_in) if i not in excluded]
    if cfg.scheme in (Scheme.WEAK, Scheme.WEAKC):
        for i in targets:
            if i not in ws_action:
                raise ValueError(f"missing action grouping for image {i!r}")
    accepted_ids = state.accepted_ids()
    open_ids = [i for i in targets if i not in accepted_ids]
    scored = [i for i in open_ids if candidates_in[i]]

    general, models = (
        _train_selectors(state, split, candidates_in, cfg, scored) if scored else (None, {})
    )
    picks, pools = _select(open_ids, candidates_in, cfg, ws_action, general, models)
    it = state.iteration + 1
    recovered = _recover(pools, candidates_in, cfg, it) if cfg.scheme is Scheme.WEAKC else []
    accepted = (*state.accepted, *picks, *recovered)
    target_set = set(targets)
    report = None if gt is None else selection_stats(
        [(i, gt.get(i)) for i in targets], candidates_in,
        {a.image_id: a.skeleton for a in accepted if a.image_id in target_set}, PCP_THRESHOLD,
    )
    return IterationState(iteration=it, accepted=accepted, report=report)


def stop_check(prev: IterationState, cur: IterationState, cfg: PipelineConfig) -> bool:
    """Stop when an iteration accepted nothing new, or at the cap."""
    no_new = cur.accepted_ids() <= prev.accepted_ids()
    return no_new or cur.iteration >= cfg.max_iterations


def write_iteration_files(
    exchange_dir: Path,
    state: IterationState,
    split: DatasetSplit,
    cfg: PipelineConfig,
) -> None:
    """Emit annotations_iter<t>.jsonl and report_iter<t>.txt for one state."""
    t = state.iteration
    records = [
        PoseRecord(e.image_id, e.skeleton.keypoints, e.action, provenance="fs")
        for e in split.fs
    ] + [
        PoseRecord(a.image_id, a.skeleton.keypoints, a.action, provenance=a.provenance)
        for a in state.accepted
    ]
    write_pose_records(exchange_dir / f"annotations_iter{t}.jsonl", records)

    by_prov = Counter(a.provenance for a in state.accepted)
    by_action = Counter(a.action.value for a in state.accepted)
    lines = [
        f"iteration {t} scheme {cfg.scheme.value}",
        f"accepted_total {len(state.accepted)}",
        "accepted_by_provenance "
        + (",".join(f"{k}={v}" for k, v in sorted(by_prov.items())) or "-"),
        "accepted_by_action "
        + (",".join(f"{k}={v}" for k, v in sorted(by_action.items())) or "-"),
    ]
    r = state.report
    if r is not None:
        atp, stp, atp_stp, cp_atp = r.counts
        lines.append(f"counts atp={atp} stp={stp} atp_stp={atp_stp} cp_atp={cp_atp}")
        for name in ("detected_tp_rate", "selected_tp_rate", "precision", "recall"):
            if getattr(r, name) is not None:
                lines.append(f"{name} {getattr(r, name):.4f}")
    atomic_write(exchange_dir / f"report_iter{t}.txt", "\n".join(lines) + "\n")


def read_candidate_dir(path: Path, split: DatasetSplit) -> dict[str, CandidateSet]:
    """Ingest refreshed candidates: one <image_id>.jsonl per image of split,
    whose records become that image's set in file order; an empty file
    gives it an empty set. A file of an image the split does not list is
    an error that names the file, checked before any file is read; a record
    of another image is one that names the file and both ids, and every
    error read_candidate_sets raises names the file."""
    images = {*split.fs_ids(), *split.ws_ids(), *split.us, *split.backgrounds}
    files = sorted(path.glob("*.jsonl"))
    for f in files:
        if f.stem not in images:
            raise ValueError(f"{f}: names no image of the split")
    out = {}
    for f in files:
        for cands in read_candidate_sets(f):
            if cands.image_id != f.stem:
                raise ValueError(
                    f"{f}: record for image {cands.image_id!r} in the file of image {f.stem!r}"
                )
            out[f.stem] = cands
        if f.stem not in out:
            out[f.stem] = CandidateSet.from_keypoints(f.stem, np.empty((0, N_JOINTS, 2)), ())
    return out


def run_pipeline(
    split: DatasetSplit,
    candidates_in: dict[str, CandidateSet],
    cfg: PipelineConfig,
    exchange_dir: Optional[Path] = None,
    gt: Optional[dict[str, Skeleton]] = None,
) -> list[IterationState]:
    """Drive run_iteration until stop_check fires.

    When exchange_dir is given, each iteration writes its annotation and
    report files there, and a candidates_iter<t>/ directory, if present, is
    ingested before iteration t; otherwise candidates are replayed as-is.
    """
    if exchange_dir is not None:
        exchange_dir.mkdir(parents=True, exist_ok=True)
    states = [IterationState()]
    cands = candidates_in
    while True:
        t = states[-1].iteration + 1
        if exchange_dir is not None:
            refresh = exchange_dir / f"candidates_iter{t}"
            if refresh.is_dir():
                cands = {**cands, **read_candidate_dir(refresh, split)}
        new = run_iteration(states[-1], split, cands, cfg, gt=gt)
        if exchange_dir is not None:
            write_iteration_files(exchange_dir, new, split, cfg)
        states.append(new)
        if stop_check(states[-2], new, cfg):
            break
    return states
