"""Pose features: relational geometry vectors.

The relational vector for n keypoints concatenates, in this fixed order:
  1. C(n,2) pairwise distances, pairs (i, j) with i < j in lexicographic order;
  2. C(n,2) pairwise orientations, same pair order, atan2(dy, dx) of j - i;
  3. 3*C(n,3) inner angles, triples (i, j, k) with i < j < k lexicographic,
     the three angles at vertices i, j, k in that order.
For the 14-joint skeleton this is 91 + 91 + 1092 = 1274 entries.
Degenerate geometry (coincident points) yields 0 for the affected entries.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .skeleton import N_JOINTS, Skeleton, torso_lengths

__all__ = [
    "relational_features",
    "relational_feature",
    "relational_length",
]


def relational_length(n: int) -> int:
    """Feature length for n keypoints: C(n,2) + C(n,2) + 3*C(n,3)."""
    c2 = n * (n - 1) // 2
    c3 = n * (n - 1) * (n - 2) // 6
    return 2 * c2 + 3 * c3


# poses per internal block of relational_features, and (poses x triples)
# per range of a block's inner angles: a full block's angles are computed
# 52 triples (156 columns, a seventh of 14 joints' 1,092) at a time, and a
# smaller block's in as few ranges as keep that size, so that a one-pose
# call makes one pass. A range's temporaries are at most 64 x 156 float64
# (78 KiB) each, so a call's scratch stays near 0.9 MiB whatever the number
# of poses passed in, and in cache. Computing a full block's 1,092 angle
# columns at once took 4.03 MiB and, on 6,000 skeletons on a 2-core Xeon,
# 48-52 us per pose, where ranges of 52 triples take 28 (ranges of 28 to
# 91 triples were all within 10 % of each other)
_BLOCK = 64
_RANGE = 64 * 52


@lru_cache(maxsize=None)
def _index_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into an (n, n) difference table D[i, j] = p_j - p_i.

    Returns the pair entries (i, j), i < j, then the two rays of each inner
    angle: for triple (i, j, k) the vertices i, j, k in that order, with
    rays i->j, i->k; j->i, j->k; k->i, k->j.
    """
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.intp)
    tri = np.array(list(combinations(range(n), 3)), dtype=np.intp)
    ti, tj, tk = tri[:, 0], tri[:, 1], tri[:, 2]
    at = np.stack([ti, tj, tk], axis=1).ravel()
    p = np.stack([tj, ti, ti], axis=1).ravel()
    q = np.stack([tk, tk, tj], axis=1).ravel()
    tables = (pairs[:, 0] * n + pairs[:, 1], at * n + p, at * n + q)
    for t in tables:
        t.setflags(write=False)  # shared by every caller through the cache
    return tables


def _fill_rows(pts: np.ndarray, scale: Optional[np.ndarray], out: np.ndarray) -> None:
    """Write the relational rows of (b, n, 2) points into out, shape (b, L).

    scale, when given, holds one positive divisor per row for the distances.
    Inner angles use atan2 of (|cross|, dot) instead of arccos for accuracy
    near 0/pi; zero-length segments get orientation 0 and zero-length rays
    angle 0.
    """
    b, n, _ = pts.shape
    pair, ray_p, ray_q = _index_tables(n)
    x, y = pts[:, :, 0], pts[:, :, 1]
    dx = (x[:, None, :] - x[:, :, None]).reshape(b, n * n)
    dy = (y[:, None, :] - y[:, :, None]).reshape(b, n * n)

    c2 = pair.shape[0]
    px, py = dx[:, pair], dy[:, pair]
    dist = out[:, :c2]
    np.hypot(px, py, out=dist)
    if scale is not None:
        dist /= scale[:, None]
    orient = out[:, c2 : 2 * c2]
    np.arctan2(py, px, out=orient)
    orient[dist == 0.0] = 0.0

    angles, step = out[:, 2 * c2 :], 3 * max(1, _RANGE // b)
    for s in range(0, len(ray_p), step):
        cols = slice(s, s + step)
        ux, uy = dx[:, ray_p[cols]], dy[:, ray_p[cols]]
        vx, vy = dx[:, ray_q[cols]], dy[:, ray_q[cols]]
        ang = angles[:, cols]
        np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy, out=ang)
        ang[(ux * ux + uy * uy == 0.0) | (vx * vx + vy * vy == 0.0)] = 0.0


def relational_features(
    points: np.ndarray, normalize: bool = False, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Relational vectors for an (m, n, 2) stack of point sets, shape (m, L).

    With normalize=True the points must be skeletons (n = 14) and distances
    are divided by each row's torso length (neck to hip midpoint); raises,
    naming the first such row, if a torso is degenerate. out, an (m, L)
    float64 array of any strides, receives the rows and is returned.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 2 or pts.shape[1] < 3:
        raise ValueError(f"expected (m, n, 2) points with n >= 3, got {pts.shape}")
    scale = None
    if normalize:
        if pts.shape[1] != N_JOINTS:
            raise ValueError(f"torso normalization needs {N_JOINTS} joints, got {pts.shape[1]}")
        scale = torso_lengths(pts)
        bad = np.flatnonzero(~(scale > 0.0))
        if bad.size:
            raise ValueError(f"cannot normalize: degenerate torso in row {bad[0]}")
    shape = (pts.shape[0], relational_length(pts.shape[1]))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}")
    for s in range(0, pts.shape[0], _BLOCK):
        block = slice(s, s + _BLOCK)
        _fill_rows(pts[block], None if scale is None else scale[block], out[block])
    return out


def relational_feature(skel: Skeleton, normalize: bool = False) -> np.ndarray:
    """1274-entry relational vector for a skeleton.

    With normalize=True distances are divided by the torso length (neck to
    hip midpoint); raises if the torso is degenerate.
    """
    return relational_features(skel.keypoints[None], normalize)[0]
