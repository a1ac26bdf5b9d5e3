"""Deterministic synthetic corpus: per-action pose templates, jittered
instances, and rendered joint heatmaps with optional distractor bumps.

Ground truth is returned for evaluation only; the pipeline never sees it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .heatmaps import Heatmap
from .skeleton import (
    N_JOINTS,
    ActionLabel,
    DatasetSplit,
    FsExample,
    JointId,
    Skeleton,
    WsExample,
)

__all__ = ["SynthConfig", "SynthCorpus", "synth_corpus", "action_template"]

CANVAS = 192.0  # px, square
GRID = 48  # cells per side
STRIDE = CANVAS / GRID
BUMP_SIGMA = 1.2  # cells

# upright base pose, roughly centered; units px
_BASE = {
    JointId.HEAD: (96.0, 56.0),
    JointId.NECK: (96.0, 76.0),
    JointId.L_SHOULDER: (78.0, 80.0),
    JointId.R_SHOULDER: (114.0, 80.0),
    JointId.L_ELBOW: (72.0, 106.0),
    JointId.R_ELBOW: (120.0, 106.0),
    JointId.L_WRIST: (68.0, 132.0),
    JointId.R_WRIST: (124.0, 132.0),
    JointId.L_HIP: (84.0, 124.0),
    JointId.R_HIP: (108.0, 124.0),
    JointId.L_KNEE: (82.0, 154.0),
    JointId.R_KNEE: (110.0, 154.0),
    JointId.L_ANKLE: (80.0, 184.0),
    JointId.R_ANKLE: (112.0, 184.0),
}

# kinematic tree rooted at the neck, in dependency order
_PARENT: tuple[tuple[JointId, JointId], ...] = (
    (JointId.HEAD, JointId.NECK),
    (JointId.L_SHOULDER, JointId.NECK),
    (JointId.R_SHOULDER, JointId.NECK),
    (JointId.L_HIP, JointId.NECK),
    (JointId.R_HIP, JointId.NECK),
    (JointId.L_ELBOW, JointId.L_SHOULDER),
    (JointId.R_ELBOW, JointId.R_SHOULDER),
    (JointId.L_KNEE, JointId.L_HIP),
    (JointId.R_KNEE, JointId.R_HIP),
    (JointId.L_WRIST, JointId.L_ELBOW),
    (JointId.R_WRIST, JointId.R_ELBOW),
    (JointId.L_ANKLE, JointId.L_KNEE),
    (JointId.R_ANKLE, JointId.R_KNEE),
)


@dataclass(frozen=True)
class SynthConfig:
    n_actions: int = 8
    poses_per_action: int = 50
    base_noise: float = 2.0  # px, per-joint Gaussian jitter
    outlier_rate: float = 0.1  # chance of a distractor bump per joint map
    seed: int = 0
    ws_fraction: float = 0.5  # held-out share that gets only an action label
    n_backgrounds: int = 20

    def __post_init__(self) -> None:
        if not 1 <= self.n_actions <= len(ActionLabel):
            raise ValueError(f"n_actions must be in [1, {len(ActionLabel)}]")
        if self.poses_per_action < 1 or self.n_backgrounds < 0:
            raise ValueError("poses_per_action >= 1, n_backgrounds >= 0")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValueError("outlier_rate must be in [0, 1]")
        if not 0.0 <= self.ws_fraction <= 1.0:
            raise ValueError("ws_fraction must be in [0, 1]")
        if not 0.0 <= self.base_noise < math.inf:
            raise ValueError(f"base_noise must be finite and non-negative, got {self.base_noise}")


@dataclass(frozen=True)
class SynthCorpus:
    split: DatasetSplit
    truth: dict[str, tuple[Skeleton, ActionLabel]]
    heatmaps: dict[str, dict[JointId, Heatmap]]  # empty when synth_corpus had a sink


def action_template(action_index: int) -> Skeleton:
    """Canonical pose for one action: the base pose with fixed per-limb
    rotations, distinct per action. Independent of the corpus seed."""
    rng = np.random.default_rng(9000 + action_index)
    angles = {child: rng.uniform(-0.35, 0.35) for child, _ in _PARENT}
    pos: dict[JointId, np.ndarray] = {JointId.NECK: np.array(_BASE[JointId.NECK])}
    cum: dict[JointId, float] = {JointId.NECK: 0.0}
    for child, parent in _PARENT:
        theta = cum[parent] + angles[child]
        cum[child] = theta
        off = np.array(_BASE[child]) - np.array(_BASE[parent])
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ]
        )
        pos[child] = pos[parent] + rot @ off
    kp = np.vstack([pos[JointId(j)] for j in range(N_JOINTS)])
    return Skeleton(np.clip(kp, 8.0, CANVAS - 8.0))


def _render_bump(grid: np.ndarray, cx: float, cy: float, amp: float) -> None:
    """Add a Gaussian bump at pixel (cx, cy); grid is clipped to [0, 1] later."""
    col = cx / STRIDE
    row = cy / STRIDE
    rr = np.arange(GRID)[:, None]
    cc = np.arange(GRID)[None, :]
    grid += amp * np.exp(-((rr - row) ** 2 + (cc - col) ** 2) / (2.0 * BUMP_SIGMA ** 2))


def _pose_heatmaps(
    skel: Skeleton,
    rng: np.random.Generator,
    outlier_rate: float,
) -> dict[JointId, Heatmap]:
    out = {}
    for j in JointId:
        grid = np.zeros((GRID, GRID))
        x, y = skel.joint(j)
        true_amp = 0.82 + 0.15 * rng.random()
        _render_bump(grid, x, y, true_amp)
        if rng.random() < outlier_rate:
            # distractor: clearly separated weaker bump
            for _ in range(20):
                dx = rng.uniform(8.0, CANVAS - 8.0)
                dy = rng.uniform(8.0, CANVAS - 8.0)
                if (dx - x) ** 2 + (dy - y) ** 2 >= (6.0 * STRIDE) ** 2:
                    break
            _render_bump(grid, dx, dy, 0.45 + 0.25 * rng.random())
        out[j] = Heatmap(joint=j, grid=np.clip(grid, 0.0, 1.0), stride=STRIDE)
    return out


def _background_heatmaps(rng: np.random.Generator) -> dict[JointId, Heatmap]:
    out = {}
    for j in JointId:
        grid = np.zeros((GRID, GRID))
        for _ in range(2):
            _render_bump(
                grid,
                rng.uniform(8.0, CANVAS - 8.0),
                rng.uniform(8.0, CANVAS - 8.0),
                0.3 + 0.45 * rng.random(),
            )
        out[j] = Heatmap(joint=j, grid=np.clip(grid, 0.0, 1.0), stride=STRIDE)
    return out


def synth_corpus(
    cfg: SynthConfig,
    sink: Optional[Callable[[str, dict[JointId, Heatmap]], None]] = None,
) -> SynthCorpus:
    """Build the full corpus: split, ground truth, and heatmaps.

    Identical configs produce identical corpora, byte for byte once
    serialized. With outlier_rate 0 each heatmap holds exactly one bump, so
    the top-ranked candidate of every image is the true pose.

    Each image's maps go to sink(image_id, maps) as soon as they are drawn,
    in corpus order, and are not kept: the returned heatmaps are then
    empty, so memory holds one image's maps whatever the corpus size.
    Without a sink they are kept in the returned corpus.
    """
    heatmaps: dict[str, dict[JointId, Heatmap]] = {}
    put = sink or heatmaps.__setitem__
    rng = np.random.default_rng(cfg.seed)
    actions = list(ActionLabel)[: cfg.n_actions]
    fs: list[FsExample] = []
    ws: list[WsExample] = []
    truth: dict[str, tuple[Skeleton, ActionLabel]] = {}
    n_fs = int(round(cfg.poses_per_action * (1.0 - cfg.ws_fraction)))
    for ai, action in enumerate(actions):
        template = action_template(ai)
        for i in range(cfg.poses_per_action):
            image_id = f"{action.value}_{i:04d}"
            noise = rng.normal(0.0, cfg.base_noise, size=(N_JOINTS, 2))
            skel = Skeleton(np.clip(template.keypoints + noise, 4.0, CANVAS - 4.0))
            truth[image_id] = (skel, action)
            put(image_id, _pose_heatmaps(skel, rng, cfg.outlier_rate))
            if i < n_fs:
                fs.append(FsExample(image_id=image_id, skeleton=skel, action=action))
            else:
                ws.append(WsExample(image_id=image_id, action=action))
    backgrounds = []
    for i in range(cfg.n_backgrounds):
        image_id = f"bg_{i:04d}"
        backgrounds.append(image_id)
        put(image_id, _background_heatmaps(rng))
    split = DatasetSplit(fs=tuple(fs), ws=tuple(ws), us=(), backgrounds=tuple(backgrounds))
    return SynthCorpus(split=split, truth=truth, heatmaps=heatmaps)
