"""Pose features: relational geometry vectors and gradient-histogram appearance.

The relational vector for n keypoints concatenates, in this fixed order:
  1. C(n,2) pairwise distances, pairs (i, j) with i < j in lexicographic order;
  2. C(n,2) pairwise orientations, same pair order, atan2(dy, dx) of j - i;
  3. 3*C(n,3) inner angles, triples (i, j, k) with i < j < k lexicographic,
     the three angles at vertices i, j, k in that order.
For the 14-joint skeleton this is 91 + 91 + 1092 = 1274 entries.
Degenerate geometry (coincident points) yields 0 for the affected entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .skeleton import LIMBS, N_JOINTS, JointId, Skeleton

__all__ = [
    "relational_features",
    "relational_config",
    "relational_feature",
    "relational_length",
    "HogConfig",
    "hog_descriptor",
    "PrFeature",
    "pr_feature",
    "PART_WINDOW_MIN",
    "PART_WINDOW_MAX",
    "PART_WINDOW_SCALE",
]


def relational_length(n: int) -> int:
    """Feature length for n keypoints: C(n,2) + C(n,2) + 3*C(n,3)."""
    c2 = n * (n - 1) // 2
    c3 = n * (n - 1) * (n - 2) // 6
    return 2 * c2 + 3 * c3


# poses per internal block of relational_features: its temporaries stay under
# 1 MiB each whatever the number of poses passed in, and so stay in cache
# (64 was the fastest of 32-1024 on 6,000 skeletons: 8.6 us per pose)
_BLOCK = 64


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

    ux, uy = dx[:, ray_p], dy[:, ray_p]
    vx, vy = dx[:, ray_q], dy[:, ray_q]
    ang = out[:, 2 * c2 :]
    np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy, out=ang)
    ang[(ux * ux + uy * uy == 0.0) | (vx * vx + vy * vy == 0.0)] = 0.0


def _torso_lengths(pts: np.ndarray) -> np.ndarray:
    """Neck to hip-midpoint length per row of (m, 14, 2) points.

    The stacked matmul is a dot product per row, so each length equals
    Skeleton.torso_length() to the last bit.
    """
    t = pts[:, JointId.NECK] - 0.5 * (pts[:, JointId.L_HIP] + pts[:, JointId.R_HIP])
    return np.sqrt((t[:, None, :] @ t[:, :, None])[:, 0, 0])


def relational_features(points: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Relational vectors for an (m, n, 2) stack of point sets, shape (m, L).

    With normalize=True the points must be skeletons (n = 14) and distances
    are divided by each row's torso length (neck to hip midpoint); raises,
    naming the first such row, if a torso is degenerate.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 2 or pts.shape[1] < 3:
        raise ValueError(f"expected (m, n, 2) points with n >= 3, got {pts.shape}")
    scale = None
    if normalize:
        if pts.shape[1] != N_JOINTS:
            raise ValueError(f"torso normalization needs {N_JOINTS} joints, got {pts.shape[1]}")
        scale = _torso_lengths(pts)
        bad = np.flatnonzero(~(scale > 0.0))
        if bad.size:
            raise ValueError(f"cannot normalize: degenerate torso in row {bad[0]}")
    out = np.empty((pts.shape[0], relational_length(pts.shape[1])))
    for s in range(0, pts.shape[0], _BLOCK):
        block = slice(s, s + _BLOCK)
        _fill_rows(pts[block], None if scale is None else scale[block], out[block])
    return out


def relational_config(points: np.ndarray) -> np.ndarray:
    """Relational vector for an (n, 2) point array, without normalization."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError(f"expected (n, 2) points with n >= 3, got {pts.shape}")
    return relational_features(pts[None])[0]


def relational_feature(skel: Skeleton, normalize: bool = False) -> np.ndarray:
    """1274-entry relational vector for a skeleton.

    With normalize=True distances are divided by the torso length (neck to
    hip midpoint); raises if the torso is degenerate.
    """
    return relational_features(skel.keypoints[None], normalize)[0]


# --- appearance -------------------------------------------------------------

PART_WINDOW_SCALE = 1.5
PART_WINDOW_MIN = 16.0  # px
PART_WINDOW_MAX = 96.0  # px


@dataclass(frozen=True)
class HogConfig:
    """Gradient-orientation histogram settings.

    window: (width, height) px; must be divisible by cell.
    cell: cell side in px.
    block: block side in cells; at most window/cell.
    bins: orientation bins.
    signed: False covers [0, pi), True covers [0, 2*pi).
    """

    window: tuple[int, int] = (32, 32)
    cell: int = 8
    block: int = 2
    bins: int = 9
    signed: bool = False

    def __post_init__(self) -> None:
        w, h = self.window
        if w <= 0 or h <= 0 or self.cell <= 0 or self.block <= 0 or self.bins <= 0:
            raise ValueError("window, cell, block, bins must be positive")
        if w % self.cell or h % self.cell:
            raise ValueError("window must be divisible by cell")
        if self.block > min(w, h) // self.cell:
            raise ValueError("block exceeds window in cells")

    def length(self) -> int:
        w, h = self.window
        cc, cr = w // self.cell, h // self.cell
        nb = (cr - self.block + 1) * (cc - self.block + 1)
        return nb * self.block * self.block * self.bins


def _gradients(patch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # central differences inside, one-sided at borders; constants vanish
    gx = np.empty_like(patch)
    gy = np.empty_like(patch)
    gx[:, 1:-1] = 0.5 * (patch[:, 2:] - patch[:, :-2])
    gx[:, 0] = patch[:, 1] - patch[:, 0]
    gx[:, -1] = patch[:, -1] - patch[:, -2]
    gy[1:-1, :] = 0.5 * (patch[2:, :] - patch[:-2, :])
    gy[0, :] = patch[1, :] - patch[0, :]
    gy[-1, :] = patch[-1, :] - patch[-2, :]
    return gx, gy


def _hog_of_patch(patch: np.ndarray, cfg: HogConfig) -> np.ndarray:
    h, w = patch.shape
    gx, gy = _gradients(patch)
    mag = np.hypot(gx, gy)
    span = 2.0 * np.pi if cfg.signed else np.pi
    ang = np.arctan2(gy, gx) % span
    bin_idx = np.minimum((ang / span * cfg.bins).astype(np.intp), cfg.bins - 1)

    cr, cc = h // cfg.cell, w // cfg.cell
    hist = np.zeros((cr, cc, cfg.bins))
    cell_r = np.arange(h) // cfg.cell
    cell_c = np.arange(w) // cfg.cell
    flat = (
        cell_r[:, None] * (cc * cfg.bins)
        + cell_c[None, :] * cfg.bins
        + bin_idx
    )
    np.add.at(hist.reshape(-1), flat.reshape(-1), mag.reshape(-1))

    b = cfg.block
    blocks = []
    for br in range(cr - b + 1):
        for bc in range(cc - b + 1):
            v = hist[br : br + b, bc : bc + b, :].reshape(-1)
            nrm = np.linalg.norm(v)
            blocks.append(v / nrm if nrm > 0 else v)
    return np.concatenate(blocks)


def hog_descriptor(
    image: np.ndarray,
    center: tuple[float, float],
    cfg: HogConfig,
) -> np.ndarray:
    """Histogram descriptor for a window of cfg.window centered near `center`.

    image: 2-D grayscale array, values in [0, 1].
    The window is clamped to lie fully inside the image; if the image is
    smaller than the window this raises "window exceeds image".
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be 2-D grayscale")
    H, W = img.shape
    w, h = cfg.window
    if w > W or h > H:
        raise ValueError("window exceeds image")
    cx, cy = center
    x0 = int(round(cx - w / 2.0))
    y0 = int(round(cy - h / 2.0))
    x0 = min(max(x0, 0), W - w)
    y0 = min(max(y0, 0), H - h)
    return _hog_of_patch(img[y0 : y0 + h, x0 : x0 + w], cfg)


def _resample_square(img: np.ndarray, cx: float, cy: float, side: float,
                     out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinearly resample a side x side square centered at (cx, cy) to out_hw.

    The square is clamped to fit inside the image; raises if it cannot.
    """
    H, W = img.shape
    if side > W or side > H:
        raise ValueError("window exceeds image")
    x0 = min(max(cx - side / 2.0, 0.0), W - side)
    y0 = min(max(cy - side / 2.0, 0.0), H - side)
    oh, ow = out_hw
    ys = y0 + (np.arange(oh) + 0.5) * side / oh - 0.5
    xs = x0 + (np.arange(ow) + 0.5) * side / ow - 0.5
    ys = np.clip(ys, 0.0, H - 1.0)
    xs = np.clip(xs, 0.0, W - 1.0)
    yi = np.clip(np.floor(ys).astype(np.intp), 0, H - 2) if H > 1 else np.zeros(oh, np.intp)
    xi = np.clip(np.floor(xs).astype(np.intp), 0, W - 2) if W > 1 else np.zeros(ow, np.intp)
    fy = (ys - yi)[:, None]
    fx = (xs - xi)[None, :]
    a = img[np.ix_(yi, xi)]
    b = img[np.ix_(yi, xi + 1)] if W > 1 else a
    c = img[np.ix_(yi + 1, xi)] if H > 1 else a
    d = img[np.ix_(yi + 1, xi + 1)] if H > 1 and W > 1 else a
    return a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx + c * fy * (1 - fx) + d * fy * fx


def _part_windows(skel: Skeleton) -> list[tuple[float, float, float]]:
    """(cx, cy, side) for the 13 limb midpoints plus the head keypoint."""
    out = []
    kp = skel.keypoints
    for i, j in LIMBS:
        a, b = kp[int(i)], kp[int(j)]
        mid = 0.5 * (a + b)
        side = float(np.clip(PART_WINDOW_SCALE * np.linalg.norm(b - a),
                             PART_WINDOW_MIN, PART_WINDOW_MAX))
        out.append((float(mid[0]), float(mid[1]), side))
    head = kp[int(JointId.HEAD)]
    neck_len = float(np.linalg.norm(kp[int(JointId.HEAD)] - kp[int(JointId.NECK)]))
    side = float(np.clip(PART_WINDOW_SCALE * neck_len, PART_WINDOW_MIN, PART_WINDOW_MAX))
    out.append((float(head[0]), float(head[1]), side))
    return out


@dataclass(frozen=True)
class PrFeature:
    """Relational vector plus optional appearance vector for one pose."""

    config: np.ndarray  # (1274,)
    appearance: Optional[np.ndarray] = None

    def combined(self) -> np.ndarray:
        if self.appearance is None:
            return self.config
        return np.concatenate([self.config, self.appearance])


def pr_feature(
    skel: Skeleton,
    image: Optional[np.ndarray] = None,
    hog_cfg: Optional[HogConfig] = None,
    normalize: bool = False,
) -> PrFeature:
    """Full pose feature: relational geometry, plus appearance when an image
    is supplied.

    Appearance concatenates one descriptor per part window (13 limb midpoints
    then the head keypoint); each window is a square of 1.5x the limb length,
    clamped to [16, 96] px, resampled to hog_cfg.window before the histogram.
    """
    config = relational_feature(skel, normalize=normalize)
    if image is None:
        return PrFeature(config=config)
    cfg = hog_cfg if hog_cfg is not None else HogConfig()
    img = np.asarray(image, dtype=np.float64)
    parts = []
    w, h = cfg.window
    for cx, cy, side in _part_windows(skel):
        patch = _resample_square(img, cx, cy, side, (h, w))
        parts.append(_hog_of_patch(patch, cfg))
    return PrFeature(config=config, appearance=np.concatenate(parts))
