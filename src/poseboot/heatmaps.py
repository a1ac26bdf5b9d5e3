"""Candidate pose assembly from per-joint likelihood heatmaps.

Each heatmap is a coarse grid of likelihoods; candidates are built by
taking strict local maxima per joint and beam-searching over the joint
order by cumulative likelihood.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .skeleton import N_JOINTS, CandidatePose, JointId, Skeleton

__all__ = [
    "Heatmap",
    "CandidateGenConfig",
    "Peak",
    "local_maxima",
    "beam_assemble",
    "enumerate_candidates",
]


@dataclass(frozen=True)
class Heatmap:
    """Joint likelihood grid. Cell (row, col) maps to pixel
    (origin_x + col * stride, origin_y + row * stride)."""

    joint: JointId
    grid: np.ndarray  # (rows, cols), values in [0, 1]
    stride: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=np.float64)
        if g.ndim != 2 or g.size == 0:
            raise ValueError("grid must be a non-empty 2-D array")
        if not np.all(np.isfinite(g)) or g.min() < 0.0 or g.max() > 1.0:
            raise ValueError("grid values must lie in [0, 1]")
        if not 0.0 < self.stride < np.inf:
            raise ValueError(f"stride must be finite and positive, got {self.stride}")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError(f"origin must be finite, got {tuple(self.origin)}")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)


@dataclass(frozen=True)
class CandidateGenConfig:
    threshold: float = 0.1  # loose likelihood floor for peaks
    top_k: int = 3  # peaks kept per joint
    nms_radius: float = 1.0  # cells
    beam: int = 500

    def __post_init__(self) -> None:
        if self.top_k < 1 or self.beam < 1:
            raise ValueError("top_k and beam must be >= 1")
        if not self.nms_radius >= 0:
            raise ValueError(f"nms_radius must be non-negative, got {self.nms_radius}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class Peak:
    x: float  # pixel coords, sub-cell refined
    y: float
    value: float  # grid value at the peak cell
    row: int
    col: int


def _strict_maxima_mask(g: np.ndarray) -> np.ndarray:
    padded = np.full((g.shape[0] + 2, g.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = g
    mask = np.ones_like(g, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            mask &= g > padded[1 + dr : 1 + dr + g.shape[0], 1 + dc : 1 + dc + g.shape[1]]
    return mask


def _subcell_offset(v_lo: float, v0: float, v_hi: float) -> float:
    # parabola through the three samples; denominator < 0 at a strict max
    denom = v_lo - 2.0 * v0 + v_hi
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (v_lo - v_hi) / denom, -0.5, 0.5))


def local_maxima(h: Heatmap, cfg: CandidateGenConfig) -> list[Peak]:
    """Strict 8-neighborhood maxima at or above the threshold, NMS-pruned,
    best top_k, with quadratic sub-cell refinement of the pixel position."""
    g = h.grid
    mask = _strict_maxima_mask(g) & (g >= cfg.threshold)
    rows, cols = np.nonzero(mask)
    order = sorted(range(len(rows)), key=lambda i: (-g[rows[i], cols[i]], rows[i], cols[i]))
    kept: list[tuple[int, int]] = []
    for i in order:
        r, c = int(rows[i]), int(cols[i])
        if all((r - kr) ** 2 + (c - kc) ** 2 > cfg.nms_radius ** 2 for kr, kc in kept):
            kept.append((r, c))
        if len(kept) == cfg.top_k:
            break
    out = []
    for r, c in kept:
        dr = _subcell_offset(g[r - 1, c], g[r, c], g[r + 1, c]) if 0 < r < g.shape[0] - 1 else 0.0
        dc = _subcell_offset(g[r, c - 1], g[r, c], g[r, c + 1]) if 0 < c < g.shape[1] - 1 else 0.0
        out.append(
            Peak(
                x=h.origin[0] + (c + dc) * h.stride,
                y=h.origin[1] + (r + dr) * h.stride,
                value=float(g[r, c]),
                row=r,
                col=c,
            )
        )
    return out


def beam_assemble(
    per_joint: Sequence[Sequence[float]],
    beam: int,
) -> list[tuple[tuple[int, ...], float]]:
    """Beam search over one score choice per joint, ranked by summed score.

    Returns (indices, total) sorted best first; ties resolve to the
    lexicographically smallest index tuple. With beam >= the product of the
    per-joint counts this is exhaustive.
    """
    partials: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
    for scores in per_joint:
        if len(scores) == 0:
            return []
        nxt = [
            (total + float(v), idx + (i,))
            for total, idx in partials
            for i, v in enumerate(scores)
        ]
        nxt.sort(key=lambda t: (-t[0], t[1]))
        partials = nxt[:beam]
    return [(idx, total) for total, idx in partials]


def enumerate_candidates(
    maps: Mapping[JointId, Heatmap] | Sequence[Heatmap],
    cfg: CandidateGenConfig,
    image_id: str = "",
) -> list[CandidatePose]:
    """Candidates for one image from its 14 joint heatmaps, best first.

    Every joint must have a map; a joint with no surviving local maximum
    makes the whole result empty.
    """
    if isinstance(maps, Mapping):
        by_joint = dict(maps)
    else:
        by_joint = {}
        for h in maps:
            if h.joint in by_joint:
                raise ValueError(f"duplicate map for joint {h.joint.name}")
            by_joint[h.joint] = h
    for j in JointId:
        if j not in by_joint:
            raise ValueError(f"missing joint map for {j.name}")
    per_joint = [local_maxima(by_joint[j], cfg) for j in JointId]
    assemblies = beam_assemble([[p.value for p in pks] for pks in per_joint], cfg.beam)
    out = []
    for idx, total in assemblies:
        kp = np.array([[per_joint[j][idx[j]].x, per_joint[j][idx[j]].y] for j in range(N_JOINTS)])
        out.append(CandidatePose(skeleton=Skeleton(kp), score=float(total), image_id=image_id))
    return out

