"""Linear pose selector: L2-regularized hinge loss trained by dual
coordinate descent, plus jittered positives from annotations and the
pick of at most one candidate per image.

Objective: 0.5*||w||^2 + reg * sum_i max(0, 1 - y_i (w.x_i + b)).
The bias is carried as a constant-1 feature, so it shares the
regularizer (the usual feature-augmentation approximation). Features are
standardized per dimension before training; the transform is stored in
the model and applied inside decisions().
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .features import relational_features
from .skeleton import LIMBS, N_JOINTS, CandidateSet, Skeleton

__all__ = [
    "TrainSet",
    "SvmModel",
    "synthesize_positives",
    "train",
    "select",
    "TOL",
]


@dataclass(frozen=True)
class TrainSet:
    """Finite feature matrix with +/-1 labels; both labels must be present.

    The features are the first d columns of an (n, d + 1) float64 buffer,
    in which train standardizes them, adds its constant column and folds in
    the labels, all in place: a TrainSet trains one model. Features given
    as such a view, the first d columns of a C-ordered (n, d + 1) float64
    array as pipeline.training_set writes them, are that buffer; features
    in any other layout are copied into one, once, here.
    """

    features: np.ndarray  # (n, d), a view of the buffer
    labels: np.ndarray  # (n,) values in {-1, +1}

    def __post_init__(self) -> None:
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("features must be (n, d) aligned with (n,) labels")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not (np.any(y == 1.0) and np.any(y == -1.0)):
            raise ValueError("degenerate training set: only one class present")
        # min and max propagate NaN and reach any infinity without a mask of X's size
        if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
            raise ValueError(f"features must be finite: row {bad} is not")
        buf = X.base
        if not (
            isinstance(buf, np.ndarray) and buf.dtype == np.float64 and buf.flags.c_contiguous
            and buf.flags.writeable and buf.shape == (X.shape[0], X.shape[1] + 1)
            and X.strides == buf.strides and X.ctypes.data == buf.ctypes.data
        ):
            buf = np.empty((X.shape[0], X.shape[1] + 1))
            buf[:, :-1] = X
            X = buf[:, :-1]
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    def subset(self, keep: np.ndarray) -> "TrainSet":
        """The rows where the boolean mask keep is True, copied into a
        buffer of their own; taken before this set is trained."""
        return TrainSet(self.features.base[keep][:, :-1], self.labels[keep])


@dataclass(frozen=True)
class SvmModel:
    """Trained selector: standardization plus weights in standardized space."""

    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,), zero-variance dims stored as 1
    weights: np.ndarray  # (d,)
    bias: float
    reg: float
    objective_history: tuple[float, ...] = ()  # solver primal per epoch
    gap_history: tuple[float, ...] = ()

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])

    def decisions(self, X: np.ndarray) -> np.ndarray:
        """Decision value per row of X.

        Each row is its own dot product (a stacked matmul, not one gemv), so
        a row's value does not depend on the other rows it is scored with.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"features have dim {X.shape}, model expects (*, {self.dim})")
        Z = (X - self.mean) / self.std
        return (Z[:, None, :] @ self.weights[:, None])[:, 0, 0] + self.bias


def _incident_limb_lengths(skel: Skeleton) -> np.ndarray:
    """Min annotated length over limbs touching each joint, shape (14,)."""
    lengths = skel.limb_lengths()
    out = np.full(N_JOINTS, np.inf)
    for li, (i, j) in enumerate(LIMBS):
        out[int(i)] = min(out[int(i)], lengths[li])
        out[int(j)] = min(out[int(j)], lengths[li])
    return out


def synthesize_positives(
    annotation: Skeleton,
    n: int,
    eps: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Keypoints (n, 14, 2) of n jittered copies of an annotation, each
    correct at PCP threshold eps.

    Every joint moves once, uniformly inside a disk whose radius is eps times
    the shortest annotated limb incident to that joint, so each limb keeps
    both endpoints within eps of its own length. Joints on zero-length limbs
    stay put. Copy k draws its 14 angles, then its 14 radii, from rng.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps}")
    radii = eps * _incident_limb_lengths(annotation)
    radii[~np.isfinite(radii)] = 0.0
    draws = rng.random((n, 2, N_JOINTS))
    theta = draws[:, 0] * 2.0 * np.pi
    # u in [0, 1) keeps the draw strictly inside the disk
    r = radii * np.sqrt(draws[:, 1])
    return annotation.keypoints + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


TOL = 1e-3  # train's default stopping gap

# epochs between resets of the shrunk active set to all samples; without the
# reset a sample shrunk too early is never visited again and the gap drifts
_FULL_SWEEP_EVERY = 10

# rows per chunk of train's std
_STATS_ROWS = 64


def _primal_and_gap(X: np.ndarray, w: np.ndarray, alpha_sum: float, C: float) -> tuple[float, float]:
    """Primal objective and primal-dual gap at w, over all rows of X (the
    labels folded in), given the sum of the duals that produced w."""
    margins = X @ w
    half_ww = 0.5 * (w @ w)
    primal = half_ww + C * np.sum(np.maximum(0.0, 1.0 - margins))
    return float(primal), float(primal - (alpha_sum - half_ww))


def train(
    ts: TrainSet,
    reg: float = 1.0,
    tol: float = TOL,
    max_iter: int = 100,
) -> SvmModel:
    """Dual coordinate descent on the box-constrained hinge dual, with
    shrinking (Hsieh et al., ICML 2008, section 3.2).

    An epoch visits the active samples in fixed cyclic order, so the result
    is deterministic. A sample leaves the active set when it sits at a bound
    and its gradient points out of the box beyond the range of the previous
    epoch's projected gradients: alpha=0 with a gradient above their
    maximum, or alpha=reg with one below their minimum (a maximum <= 0 or
    a minimum >= 0 shrinks nothing on its side). Every 10 epochs
    (_FULL_SWEEP_EVERY) the active set is reset to all samples, so a sample
    shrunk too early is visited again. No step lowers the dual objective;
    the primal can rise from one epoch to the next.

    Stops when the primal-dual gap, computed over all samples after each
    epoch, falls to tol or after max_iter epochs (at least 1); the defaults
    are every selector's rule. objective_history (primal) and gap_history
    hold one entry per epoch.

    The solve runs in ts's buffer, standardized in place, so ts holds no
    features after the call: take any subset of it first.
    """
    for name, value in (("reg", reg), ("tol", tol)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
        if value == math.inf:
            raise ValueError(f"{name} must be finite, got {value}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    y = ts.labels
    F = ts.features
    X = F.base  # (n, d + 1): F, then the constant column
    n, d = F.shape
    # np.mean's and np.std's values over the whole matrix, bit for bit, with
    # (_STATS_ROWS, d) temporaries instead of np.std's (n, d): an axis-0 sum
    # adds row by row within each column, so each chunk's squares are summed
    # onto the running total, carried in as the chunk's first row. A single
    # column is summed pairwise instead, so it is one chunk
    mean = F.mean(axis=0)
    squares = np.zeros(d)
    step = _STATS_ROWS if d > 1 else n
    for r in range(0, n, step):
        t = F[r : r + step] - mean
        t *= t
        t[0] += squares
        squares = t.sum(axis=0)
    std = np.sqrt(squares / n)
    std[std == 0.0] = 1.0
    # standardized in place, so the set is held once; row i becomes
    # y_i * [z_i, 1], exact since y_i is +/-1
    F -= mean
    F /= std
    X[:, d] = 1.0
    X *= y[:, None]

    C = reg
    rows = list(X)
    q_diag = np.einsum("ij,ij->i", X, X)  # constant-1 column keeps this >= 1
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    w_dot = w.dot  # bound once; w is only updated in place
    obj_hist: list[float] = []
    gap_hist: list[float] = []
    for epoch in range(max_iter):
        if epoch % _FULL_SWEEP_EVERY == 0:  # epoch 0 included
            active = list(range(n))
            pg_max, pg_min = math.inf, -math.inf
        kept = []
        hi, lo = -math.inf, math.inf
        for i in active:
            xi = rows[i]
            g = w_dot(xi) - 1.0
            a = alpha[i]
            if a == 0.0:
                if g > pg_max:
                    continue
                pg = min(g, 0.0)
            elif a == C:
                if g < pg_min:
                    continue
                pg = max(g, 0.0)
            else:
                pg = g
            kept.append(i)
            if pg > hi:
                hi = pg
            if pg < lo:
                lo = pg
            if pg != 0.0:
                new_a = min(max(a - g / q_diag[i], 0.0), C)
                if new_a != a:
                    w += (new_a - a) * xi
                    alpha[i] = new_a
        active = kept
        pg_max = hi if hi > 0.0 else math.inf
        pg_min = lo if lo < 0.0 else -math.inf
        primal, gap = _primal_and_gap(X, w, np.sum(alpha), C)
        obj_hist.append(primal)
        gap_hist.append(gap)
        if gap <= tol:
            break
    return SvmModel(
        mean=mean,
        std=std,
        weights=w[:d].copy(),
        bias=float(w[d]),
        reg=reg,
        objective_history=tuple(obj_hist),
        gap_history=tuple(gap_hist),
    )


def select(
    model: SvmModel,
    candidates: CandidateSet,
    margin: float,
) -> tuple[Optional[int], np.ndarray]:
    """Pick at most one candidate: decision strictly above margin, best score.

    Rows are featurized and scored best first, in stable (-score, row)
    order (row order for an enumerated set): the first row alone, then, only
    if it falls short, the rest in one call. The first row in that order
    that clears the margin is the first with the highest score among all
    rows that do, so it is the pick a full scan would make: a row's feature
    and decision do not depend on the rows computed with it. There is no knob.

    Returns the pick's row index, None when no row clears the margin, and
    the feature rows scored, in that best-first order: the first row's
    alone when it is the pick, every row's otherwise.
    """
    if not candidates:
        return None, np.zeros((0, model.dim))
    order = np.argsort(-candidates.scores, kind="stable")
    scored = []
    for rows in (order[:1], order[1:]):
        if not rows.size:
            break
        scored.append(relational_features(candidates.take(rows), normalize=True))
        above = np.flatnonzero(model.decisions(scored[-1]) > margin)
        if above.size:
            return int(rows[above[0]]), np.concatenate(scored)
    return None, np.concatenate(scored)
