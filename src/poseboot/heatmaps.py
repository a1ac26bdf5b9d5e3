"""Candidate pose assembly from per-joint likelihood heatmaps.

Each heatmap is a coarse grid of likelihoods; candidates are built by
taking strict local maxima per joint and beam-searching over the joint
order by cumulative likelihood. An image's candidates come back as one
CandidateSet: its kept peaks, and per candidate one peak index per joint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .skeleton import N_JOINTS, CandidateSet, JointId

__all__ = [
    "Heatmap",
    "CandidateGenConfig",
    "enumerate_candidates",
]


@dataclass(frozen=True)
class Heatmap:
    """Joint likelihood grid, kept as a read-only float64 copy. Cell (row,
    col) maps to pixel (origin_x + col * stride, origin_y + row * stride)."""

    joint: JointId
    grid: np.ndarray  # (rows, cols), values in [0, 1]
    stride: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        g = np.array(self.grid, dtype=np.float64)  # one copy, widening float32 too
        if g.ndim != 2 or g.size == 0:
            raise ValueError("grid must be a non-empty 2-D array")
        if not (g.min() >= 0.0 and g.max() <= 1.0):  # min and max propagate NaN
            raise ValueError("grid values must lie in [0, 1]")
        if not 0.0 < self.stride < np.inf:
            raise ValueError(f"stride must be finite and positive, got {self.stride}")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError(f"origin must be finite, got {tuple(self.origin)}")
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


def _joint_peaks(maps: Sequence[Heatmap], cfg: CandidateGenConfig):
    """The kept peaks of every map, as flat arrays (joint, row, col, xy,
    value), ordered by map and, within a map, best first.

    A map's peaks are its cells at or above the threshold and above all 8
    neighbours (off-grid neighbours count as -inf), taken in (-value, row,
    col) order by a greedy NMS that keeps at most top_k. The maps are padded
    into one stack framed by -inf (and filled with it where a map is smaller
    than the largest), so maps of different shapes share each comparison,
    and only the cells that clear the threshold are compared. The pixel
    position is origin + (cell + sub-cell offset) * stride, where the offset
    is the vertex of the parabola through the cell and its two neighbours
    along that axis, clipped to half a cell (0 on the border).
    """
    shapes = np.array([h.grid.shape for h in maps])
    height, width = shapes.max(axis=0)
    stack = (len(maps), height + 2, width + 2)
    if (shapes == (height, width)).all():
        # the maps fill the stack, so only its frame needs -inf
        padded = np.empty(stack)
        padded[:, 0] = padded[:, -1] = padded[:, :, 0] = padded[:, :, -1] = -np.inf
    else:
        padded = np.full(stack, -np.inf)
    for j, h in enumerate(maps):
        padded[j, 1 : h.grid.shape[0] + 1, 1 : h.grid.shape[1] + 1] = h.grid
    # cells by flat index into the stack; the -inf frame of each map keeps
    # a cell's 8 neighbours inside its own map
    flat = padded.ravel()
    pitch = width + 2
    cell = np.flatnonzero(flat >= cfg.threshold)
    value = flat[cell]
    strict = np.ones(len(cell), dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                strict &= value > flat[cell + dr * pitch + dc]
    cell, value = cell[strict], value[strict]
    joint, rest = np.divmod(cell, (height + 2) * pitch)
    row, col = np.divmod(rest, pitch)
    order = np.lexsort((col, row, -value, joint))

    # greedy NMS, one map at a time, in rank order
    bounds = np.searchsorted(joint[order], np.arange(len(maps) + 1)).tolist()
    rows, cols = row[order].tolist(), col[order].tolist()
    r2 = cfg.nms_radius ** 2
    keep: list[int] = []
    for j in range(len(maps)):
        kept: list[tuple[int, int]] = []
        for n in range(bounds[j], bounds[j + 1]):
            r, c = rows[n], cols[n]
            if all((r - kr) ** 2 + (c - kc) ** 2 > r2 for kr, kc in kept):
                kept.append((r, c))
                keep.append(n)
                if len(kept) == cfg.top_k:
                    break
    sel = order[keep]
    cell, value, joint = cell[sel], value[sel], joint[sel]
    row, col = row[sel] - 1, col[sel] - 1  # grid coordinates
    dr = _subcell_offsets(flat[cell - pitch], value, flat[cell + pitch],
                          (row > 0) & (row < shapes[joint, 0] - 1))
    dc = _subcell_offsets(flat[cell - 1], value, flat[cell + 1],
                          (col > 0) & (col < shapes[joint, 1] - 1))
    stride = np.array([h.stride for h in maps])[joint]
    origin = np.array([h.origin for h in maps], dtype=np.float64)[joint]
    xy = np.stack(
        [origin[:, 0] + (col + dc) * stride, origin[:, 1] + (row + dr) * stride], axis=1
    )
    return joint, row, col, xy, value


def _subcell_offsets(
    lo: np.ndarray, mid: np.ndarray, hi: np.ndarray, inside: np.ndarray
) -> np.ndarray:
    """Parabola vertex offsets where inside, else 0; a zero denominator gives 0
    (it is negative at a strict maximum)."""
    out = np.zeros(len(mid))
    lo, mid, hi = lo[inside], mid[inside], hi[inside]
    denom = lo - 2.0 * mid + hi
    ok = denom != 0.0
    vertex = np.zeros(len(mid))
    vertex[ok] = np.clip(0.5 * (lo[ok] - hi[ok]) / denom[ok], -0.5, 0.5)
    out[inside] = vertex
    return out


def _beam(per_joint: Sequence[np.ndarray], beam: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices (m, joints), totals (m,)) of the best assemblies, best first.

    A step keeps the best beam partials by (-total, index tuple), as sorting
    Python tuples on that key would, in lexicographic index order: all of them
    while they fit, else those above the beam-th largest total v (found by
    partition) and the lowest-index ones tied at v. Only the last step is
    ranked, by a stable argsort. Totals add finite map values joint by joint,
    as Python's float adds would; the indices are traced back at the end.
    """
    total, kept = np.zeros(1), []  # kept: each step's kept positions, None for all
    for scores in per_joint:
        if len(scores) == 0:
            return np.zeros((0, len(per_joint)), dtype=np.intp), np.zeros(0)
        total = (total[:, None] + scores[None, :]).ravel()
        kept.append(None)
        if total.size > beam:
            v = np.partition(total, total.size - beam)[total.size - beam]
            mask, tied = total > v, np.flatnonzero(total == v)
            mask[tied[: beam - np.count_nonzero(mask)]] = True
            kept[-1] = np.flatnonzero(mask)
            total = total[kept[-1]]
    order = np.argsort(-total, kind="stable")
    idx, row = np.empty((len(order), len(per_joint)), dtype=np.intp), order
    for j in range(len(per_joint) - 1, -1, -1):
        row = row if kept[j] is None else kept[j][row]
        row, idx[:, j] = np.divmod(row, len(per_joint[j]))
    return idx, total[order]


def enumerate_candidates(
    maps: Sequence[Heatmap],
    cfg: CandidateGenConfig,
    image_id: str = "",
) -> CandidateSet:
    """The candidate set of one image from its 14 joint heatmaps, best first.

    Every joint must have exactly one map; a joint with no surviving local
    maximum makes the set empty, and an assembly whose neck is on its hip
    midpoint is an error (CandidateSet). The whole image is array code: one
    padded stack for the peaks of all 14 maps and a beam over arrays of
    partial totals, whose index rows, offset by each joint's first peak,
    name each candidate's peaks among the set's points, the kept peaks; no
    position is gathered and no object is made per candidate. It makes the
    comparisons and float steps of a cell-by-cell peak search per map and a
    beam over (total, index tuple) pairs, so keypoints, scores and order are
    bit for bit theirs (the tests keep that search as the reference); there
    is no knob.
    """
    by_joint = {}
    for h in maps:
        if h.joint in by_joint:
            raise ValueError(f"duplicate map for joint {h.joint.name}")
        by_joint[h.joint] = h
    for j in JointId:
        if j not in by_joint:
            raise ValueError(f"missing joint map for {j.name}")
    joint, _, _, xy, value = _joint_peaks([by_joint[j] for j in JointId], cfg)
    counts = np.bincount(joint, minlength=N_JOINTS)
    starts = np.cumsum(counts) - counts
    idx, total = _beam([value[s : s + n] for s, n in zip(starts.tolist(), counts.tolist())],
                       cfg.beam)
    return CandidateSet(image_id, xy, starts + idx, total)
