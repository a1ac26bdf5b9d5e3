"""Independent reference computations the tests compare the library against.

Everything here is deliberately written from first principles — exhaustive
enumeration, brute-force grids, numerical quadrature — and shares no code
with the package internals it checks. select_reference checks only the
order in which svm.select scores rows, so it calls the featurizer and the
decision values that select uses.
"""
from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
from scipy import integrate, stats
from scipy.special import gammaln, logsumexp

from poseboot.features import relational_features


def set_partitions(n: int) -> list[tuple[int, ...]]:
    """All set partitions of range(n) as canonical assignment tuples.

    Uses restricted-growth strings: label k may appear only after 0..k-1.
    len(set_partitions(8)) == 4140 == Bell(8).
    """
    out: list[tuple[int, ...]] = []

    def rec(i: int, z: list[int], k: int) -> None:
        if i == n:
            out.append(tuple(z))
            return
        for c in range(k + 1):
            z.append(c)
            rec(i + 1, z, k + (1 if c == k else 0))
            z.pop()

    rec(0, [], 0)
    return out


def crp_seating_probability(z: tuple[int, ...], alpha: float) -> float:
    """Partition probability by simulating the sequential seating process.

    Customer i joins an occupied table with probability N_k / (alpha + i)
    and a new one with probability alpha / (alpha + i).
    """
    counts: dict[int, int] = {}
    p = 1.0
    for i, c in enumerate(z):
        p *= (counts[c] if c in counts else alpha) / (alpha + i)
        counts[c] = counts.get(c, 0) + 1
    return p


def crp_log_prior(p, alpha: float) -> float:
    """Log probability of a partition (anything with sizes() and n_items)
    under the Polya-urn seating prior, in closed form.

    p(z) = prod_k alpha * Gamma(N_k) / (alpha)_n with (alpha)_n the rising
    factorial Gamma(alpha + n) / Gamma(alpha); sums to one over all set
    partitions of n items.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sizes = p.sizes()
    log_norm = gammaln(alpha + p.n_items) - gammaln(alpha)
    return float(np.sum(np.log(alpha) + gammaln(sizes)) - log_norm)


def nig_marginal_quadrature(xs: np.ndarray, mu0: float, kappa0: float,
                            a0: float, b0: float) -> float:
    """log p(xs) by nested quadrature over the latent (mean, variance).

    Integrates prod_i N(x_i | m, v) * N(m | mu0, v/kappa0) * InvGamma(v | a0, b0)
    with the variance integral done in log space for stability. The posterior
    parameters are used only to place integration bounds.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    n = len(xs)
    xbar = float(np.mean(xs))
    kn = kappa0 + n
    mun = (kappa0 * mu0 + n * xbar) / kn
    ss = float(np.sum((xs - xbar) ** 2))
    an = a0 + 0.5 * n
    bn = b0 + 0.5 * ss + kappa0 * n * (xbar - mu0) ** 2 / (2.0 * kn)
    ig_const = b0 ** a0 / math.gamma(a0)

    def inner(v: float) -> float:
        sd = math.sqrt(v / kn)

        def integrand(m: float) -> float:
            q = np.sum((xs - m) ** 2) / v + kappa0 * (m - mu0) ** 2 / v
            c = (2.0 * math.pi * v) ** (-0.5 * n) * math.sqrt(
                kappa0 / (2.0 * math.pi * v)
            )
            return c * math.exp(-0.5 * q)

        val, _ = integrate.quad(
            integrand,
            mun - 40.0 * sd,
            mun + 40.0 * sd,
            points=[mun - sd, mun, mun + sd],
            epsabs=0.0,
            epsrel=1e-10,
            limit=200,
        )
        return val

    tlo = math.log(stats.invgamma.ppf(1e-13, an, scale=bn))
    thi = math.log(stats.invgamma.isf(1e-13, an, scale=bn))

    def outer(t: float) -> float:
        v = math.exp(t)
        dens = ig_const * v ** (-a0 - 1.0) * math.exp(-b0 / v)
        return inner(v) * dens * v  # jacobian of v = exp(t)

    val, _ = integrate.quad(outer, tlo, thi, epsabs=0.0, epsrel=1e-9, limit=200)
    return math.log(val)


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray,
                  C: float = 1.0) -> float:
    """Regularized hinge objective with the intercept penalized like a weight."""
    margins = y * (X @ w + b)
    return 0.5 * (float(w @ w) + b * b) + C * float(
        np.sum(np.maximum(0.0, 1.0 - margins))
    )


def svm_grid_minimum(X: np.ndarray, y: np.ndarray, C: float = 1.0,
                     step: float = 0.05, lim: float = 5.0) -> float:
    """Best objective over the (w1, w2, b) grid [-lim, lim]^3; 2-D inputs only."""
    vals = np.arange(-lim, lim + 1e-9, step)
    W2, B = np.meshgrid(vals, vals, indexing="ij")
    best = np.inf
    for w1 in vals:
        margins = y[:, None, None] * (
            X[:, 0, None, None] * w1 + X[:, 1, None, None] * W2 + B
        )
        J = 0.5 * (w1 * w1 + W2 ** 2 + B ** 2) + C * np.maximum(
            0.0, 1.0 - margins
        ).sum(axis=0)
        best = min(best, float(J.min()))
    return best


def effective_weights(model) -> np.ndarray:
    """A selector's weights acting on raw (unstandardized) features."""
    return model.weights / model.std


def effective_bias(model) -> float:
    """A selector's bias acting on raw (unstandardized) features."""
    return float(model.bias - np.sum(model.weights * model.mean / model.std))


def svm_train_reference(X: np.ndarray, y: np.ndarray, reg: float = 1.0,
                        tol: float = 1e-4, max_iter: int = 1000) -> SimpleNamespace:
    """Dual coordinate descent without shrinking: every sample, every epoch.

    Features are standardized per dimension first, a zero-variance one
    keeping std 1. Samples are visited in fixed cyclic order and labels
    multiply each step. Stops when the primal-dual gap falls to tol or after
    max_iter epochs. Returns mean, std, weights, bias and the per-epoch
    objective_history (primal) and gap_history.
    """
    X0 = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X0.shape
    mean = X0.mean(axis=0)
    std = X0.std(axis=0)
    std[std == 0.0] = 1.0
    X = np.empty((n, d + 1))
    np.subtract(X0, mean, out=X[:, :d])
    X[:, :d] /= std
    X[:, d] = 1.0

    C = reg
    q_diag = np.einsum("ij,ij->i", X, X)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    obj_hist: list[float] = []
    gap_hist: list[float] = []
    for _ in range(max_iter):
        for i in range(n):
            g = y[i] * (w @ X[i]) - 1.0
            a = alpha[i]
            if a == 0.0:
                pg = min(g, 0.0)
            elif a == C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                new_a = min(max(a - g / q_diag[i], 0.0), C)
                if new_a != a:
                    w += (new_a - a) * y[i] * X[i]
                    alpha[i] = new_a
        margins = y * (X @ w)
        primal = 0.5 * (w @ w) + C * np.sum(np.maximum(0.0, 1.0 - margins))
        dual = np.sum(alpha) - 0.5 * (w @ w)
        obj_hist.append(float(primal))
        gap_hist.append(float(primal - dual))
        if primal - dual <= tol:
            break
    return SimpleNamespace(
        mean=mean,
        std=std,
        weights=w[:d].copy(),
        bias=float(w[d]),
        objective_history=tuple(obj_hist),
        gap_history=tuple(gap_hist),
    )


def svm_train_shrinking_reference(X: np.ndarray, y: np.ndarray, reg: float = 1.0,
                                  tol: float = 1e-4, max_iter: int = 1000,
                                  full_sweep_every: int = 10) -> SimpleNamespace:
    """svm.train's shrinking dual coordinate descent, checked in sequence.

    The same epochs as the library solver: labels folded into the rows, a
    sample at a bound skipped while its gradient points out of the box
    beyond the previous epoch's projected-gradient range, and the active
    set reset to all samples every full_sweep_every epochs. The gap is
    computed at the end of each epoch, before the next one starts, and a
    stop returns the weights it was computed from. Returns what
    svm_train_reference does.
    """
    X0 = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X0.shape
    mean = X0.mean(axis=0)
    std = X0.std(axis=0)
    std[std == 0.0] = 1.0
    Xy = np.empty((n, d + 1))
    np.subtract(X0, mean, out=Xy[:, :d])
    Xy[:, :d] /= std
    Xy[:, d] = 1.0
    Xy *= y[:, None]

    C = reg
    q_diag = np.einsum("ij,ij->i", Xy, Xy)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    obj_hist: list[float] = []
    gap_hist: list[float] = []
    for epoch in range(max_iter):
        if epoch % full_sweep_every == 0:
            active = list(range(n))
            pg_max, pg_min = math.inf, -math.inf
        kept = []
        hi, lo = -math.inf, math.inf
        for i in active:
            g = w.dot(Xy[i]) - 1.0
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
            hi, lo = max(hi, pg), min(lo, pg)
            if pg != 0.0:
                new_a = min(max(a - g / q_diag[i], 0.0), C)
                if new_a != a:
                    w += (new_a - a) * Xy[i]
                    alpha[i] = new_a
        active = kept
        pg_max = hi if hi > 0.0 else math.inf
        pg_min = lo if lo < 0.0 else -math.inf
        margins = Xy @ w
        primal = 0.5 * (w @ w) + C * np.sum(np.maximum(0.0, 1.0 - margins))
        dual = np.sum(alpha) - 0.5 * (w @ w)
        obj_hist.append(float(primal))
        gap_hist.append(float(primal - dual))
        if primal - dual <= tol:
            break
    return SimpleNamespace(
        mean=mean,
        std=std,
        weights=w[:d].copy(),
        bias=float(w[d]),
        objective_history=tuple(obj_hist),
        gap_history=tuple(gap_hist),
    )


def exhaustive_assemblies(per_joint: list[list[float]]) -> list[tuple[tuple[int, ...], float]]:
    """Every index combination scored by summed value, best first."""
    ranges = [range(len(v)) for v in per_joint]
    combos = [
        (idx, sum(v[i] for v, i in zip(per_joint, idx)))
        for idx in itertools.product(*ranges)
    ]
    combos.sort(key=lambda t: (-t[1], t[0]))
    return combos


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


def local_maxima_reference(h, cfg) -> list[SimpleNamespace]:
    """One map's peaks, searched cell by cell: strict 8-neighborhood maxima
    at or above cfg.threshold, sorted by (-value, row, col), greedily
    NMS-pruned to cfg.top_k, each with quadratic sub-cell refinement.
    Each peak has x, y, value, row and col."""
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
            SimpleNamespace(
                x=h.origin[0] + (c + dc) * h.stride,
                y=h.origin[1] + (r + dr) * h.stride,
                value=float(g[r, c]),
                row=r,
                col=c,
            )
        )
    return out


def beam_assemble_reference(per_joint, beam: int) -> list[tuple[tuple[int, ...], float]]:
    """Beam search over Python (total, index tuple) pairs, sorted by
    (-total, indices) and cut to beam after each joint."""
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


def enumerate_candidates_reference(maps, cfg) -> list[tuple[np.ndarray, float]]:
    """(keypoints (14, 2), score) per candidate, best first, from one map per
    joint (maps[j] for j = 0..13): the peaks map by map, then the beam."""
    per_joint = [local_maxima_reference(maps[j], cfg) for j in range(len(maps))]
    assemblies = beam_assemble_reference([[p.value for p in pks] for pks in per_joint], cfg.beam)
    out = []
    for idx, total in assemblies:
        kp = np.array([[per_joint[j][idx[j]].x, per_joint[j][idx[j]].y] for j in range(len(maps))])
        out.append((kp, float(total)))
    return out


def _inner_angle(at: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    u = p - at
    v = q - at
    dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
    cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    ang = np.arctan2(np.abs(cross), dot)
    degenerate = (np.linalg.norm(u, axis=1) == 0.0) | (np.linalg.norm(v, axis=1) == 0.0)
    ang[degenerate] = 0.0
    return ang


def relational_config_per_pose(points: np.ndarray, normalize_by: float | None = None) -> np.ndarray:
    """The relational vector of one (n, 2) point set, one pose at a time.

    Pairs and triples come from itertools in lexicographic order; each
    triple contributes the angles at its three vertices in order.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp)
    tri = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp)
    d = pts[pairs[:, 1]] - pts[pairs[:, 0]]
    dist = np.hypot(d[:, 0], d[:, 1])
    if normalize_by is not None:
        dist = dist / normalize_by
    orient = np.arctan2(d[:, 1], d[:, 0])
    orient[dist == 0.0] = 0.0
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    angles = np.stack(
        [_inner_angle(a, b, c), _inner_angle(b, a, c), _inner_angle(c, a, b)],
        axis=1,
    ).reshape(-1)
    return np.concatenate([dist, orient, angles])


def torso_length_per_pose(points: np.ndarray) -> float:
    """Neck (joint 1) to the midpoint of the hips (joints 8 and 9)."""
    pts = np.asarray(points, dtype=np.float64)
    return float(np.linalg.norm(pts[1] - 0.5 * (pts[8] + pts[9])))


_LOG_2PI = np.log(2.0 * np.pi)


def logml_stats_reference(n, s, ss, base):
    """NIG log marginal from sufficient stats, every term computed in place.

    n must be positive and broadcastable against s/ss of shape (..., d);
    base is anything with mu0, kappa0, a0 and b0. Sums over the last axis.
    """
    n = np.asarray(n, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    ss = np.asarray(ss, dtype=np.float64)
    xbar = s / n
    dev = np.maximum(ss - s * xbar, 0.0)  # sum of squared deviations
    kn = base.kappa0 + n
    an = base.a0 + 0.5 * n
    bn = base.b0 + 0.5 * dev + base.kappa0 * n * (xbar - base.mu0) ** 2 / (2.0 * kn)
    per_dim = (
        gammaln(an)
        - gammaln(base.a0)
        + base.a0 * np.log(base.b0)
        - an * np.log(bn)
        + 0.5 * (np.log(base.kappa0) - np.log(kn))
        - 0.5 * n * _LOG_2PI
    )
    return per_dim.sum(axis=-1)


class _GibbsState:
    """Padded per-cluster sufficient statistics with cached log marginals."""

    def __init__(self, X: np.ndarray, base):
        n, d = X.shape
        cap = 8
        self.X = X
        self.base = base
        self.k = 0
        self.counts = np.zeros(cap)
        self.sums = np.zeros((cap, d))
        self.sqs = np.zeros((cap, d))
        self.cache = np.zeros(cap)  # log marginal per active cluster

    def _grow(self) -> None:
        self.counts = np.concatenate([self.counts, np.zeros_like(self.counts)])
        self.sums = np.vstack([self.sums, np.zeros_like(self.sums)])
        self.sqs = np.vstack([self.sqs, np.zeros_like(self.sqs)])
        self.cache = np.concatenate([self.cache, np.zeros_like(self.cache)])

    def add(self, i: int, k: int, cached: float) -> None:
        """Seat point i in cluster k, whose log marginal with it is cached."""
        x = self.X[i]
        if k == self.k:
            if self.k == len(self.counts):
                self._grow()
            self.k += 1
        self.counts[k] += 1
        self.sums[k] += x
        self.sqs[k] += x * x
        self.cache[k] = cached

    def remove(self, i: int, k: int, z: np.ndarray) -> None:
        """Drop point i from cluster k; swap-deletes k if it empties."""
        x = self.X[i]
        self.counts[k] -= 1
        self.sums[k] -= x
        self.sqs[k] -= x * x
        if self.counts[k] == 0:
            last = self.k - 1
            if k != last:
                self.counts[k] = self.counts[last]
                self.sums[k] = self.sums[last]
                self.sqs[k] = self.sqs[last]
                self.cache[k] = self.cache[last]
                z[z == last] = k
            self.counts[last] = 0.0
            self.sums[last] = 0.0
            self.sqs[last] = 0.0
            self.cache[last] = 0.0
            self.k = last
        else:
            self.cache[k] = float(
                logml_stats_reference(self.counts[k], self.sums[k], self.sqs[k], self.base)
            )

    def with_point(self, i: int) -> np.ndarray:
        """Log marginal of every active cluster with point i appended, (k,)."""
        x = self.X[i]
        k = self.k
        return logml_stats_reference(
            (self.counts[:k] + 1.0)[:, None],
            self.sums[:k] + x,
            self.sqs[:k] + x * x,
            self.base,
        )


def _canonical(z) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    return tuple(remap.setdefault(int(v), len(remap)) for v in z)


def merge_descriptor_reference(z0, zm, small_max: int, cap: int = 12) -> str:
    """The descriptor merge[k->g,...] of merged assignments zm of z0, read
    back from the two assignments alone.

    The small clusters of z0 (at most small_max members) are taken smallest
    first, ties by label, at most cap of them. A small cluster k counts as
    moved when its members share their cluster in zm with other points, and
    g is the one cluster of z0 among those points that is not small.
    """
    z0 = np.asarray(z0)
    zm = np.asarray(zm)
    sizes = np.bincount(z0)
    small = sorted(
        (k for k in range(len(sizes)) if sizes[k] <= small_max), key=lambda k: (sizes[k], k)
    )[:cap]
    moved = []
    for k in small:
        members = np.flatnonzero(z0 == k)
        absorbed = np.flatnonzero(zm == zm[members[0]])
        if len(absorbed) > len(members):
            big = [c for c in set(z0[absorbed].tolist()) - {k} if c not in small]
            if big:
                moved.append(f"{k}->{big[0]}")
    return "merge[" + ",".join(moved) + "]"


def seated_gibbs_reference(X: np.ndarray, base, gamma: float, gibbs_iters: int,
                           burn_in: int, seed) -> list[tuple[tuple[int, ...], float]]:
    """One collapsed Gibbs chain over CRP(gamma) x NIG(base), one NumPy call per term.

    The chain first seats the points in order, each given the points seated
    before it; each sweep then removes and reseats the points in order,
    given all the others. Weights are normalized with
    scipy.special.logsumexp, and every seating draws rng.random() from
    default_rng(seed). Returns the post-burn-in (canonical assignments,
    score) samples, where the score is the CRP prior term plus the cached
    cluster marginals.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, _ = X.shape
    rng = np.random.default_rng(seed)
    log_gamma = np.log(gamma)

    # marginal of each point alone; reused as the new-cluster predictive
    pred0 = logml_stats_reference(np.ones((n, 1)), X, X ** 2, base)

    state = _GibbsState(X, base)
    z = np.zeros(n, dtype=np.intp)

    def seat(i: int) -> None:
        k = state.k
        plus = state.with_point(i)
        logw = np.empty(k + 1)
        logw[:k] = np.log(state.counts[:k]) + plus - state.cache[:k]
        logw[k] = log_gamma + pred0[i]
        probs = np.exp(logw - logsumexp(logw))
        choice = int(np.searchsorted(np.cumsum(probs), rng.random()))
        choice = min(choice, k)
        z[i] = choice
        state.add(i, choice, cached=float(plus[choice]) if choice < k else float(pred0[i]))

    for i in range(n):
        seat(i)
    samples: list[tuple[tuple[int, ...], float]] = []
    for sweep in range(gibbs_iters):
        for i in range(n):
            state.remove(i, int(z[i]), z)
            seat(i)
        if sweep >= burn_in:
            score = float(
                np.sum(np.log(gamma) + gammaln(state.counts[: state.k]))
                + np.sum(state.cache[: state.k])
            )
            samples.append((_canonical(z), score))
    return samples


def select_reference(model, candidates, margin):
    """svm.select by full scan: featurize and score every row, then pick
    the first row with the highest score among those whose decision is
    strictly above margin. Returns that row, or None when no row is above,
    and every row's features in row order."""
    feats = relational_features(candidates.keypoints, normalize=True)
    above = model.decisions(feats) > margin
    if not above.any():
        return None, feats
    return int(np.argmax(np.where(above, candidates.scores, -np.inf))), feats
