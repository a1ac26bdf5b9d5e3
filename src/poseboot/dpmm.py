"""Infinite mixture clustering of pose features with Bayes-factor screening
of small clusters.

Partitions are sampled by collapsed Gibbs under a Chinese-restaurant prior
p(z) proportional to prod_k gamma * Gamma(N_k) with a per-dimension
Normal-Inverse-Gamma base, so every cluster marginal is closed form. Each
set of points gets RESTARTS short chains, each started by seating the
points one by one, and the highest-scoring sample of any of them is kept.
Small clusters are then tested against every way of merging them into the
large ones: they are outliers only when the evidence ratio beats a
concentration-derived lower bound for ALL merges, with cluster counts
replaced by score-weighted counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Partition",
    "NigBase",
    "DpmmConfig",
    "project",
    "cluster_log_marginal",
    "sample_partitions",
    "gibbs_cluster",
    "merge_set",
    "MergeEvaluation",
    "OutlierReport",
    "detect_outliers",
    "recover_poses",
    "format_outlier_report",
    "MERGE_ENUM_CAP",
    "RESTARTS",
]

MERGE_ENUM_CAP = 12  # at most 2**12 merge partitions are enumerated
RESTARTS = 4  # seated chains per set of points, each cfg.gibbs_iters sweeps long

_LOG_2PI = np.log(2.0 * np.pi)
_WEIGHT_FLOOR = 1e-12  # keeps Gamma() finite when a cluster's score mass is 0

# one chain's post-burn-in (canonical assignments, log posterior score) samples
_Samples = list[tuple[tuple[int, ...], float]]


@dataclass(frozen=True)
class Partition:
    """Cluster assignment with contiguous labels 0..K-1, no empty cluster."""

    assignments: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.assignments) == 0:
            raise ValueError("empty partition")
        labels = sorted(set(self.assignments))
        if labels != list(range(len(labels))):
            raise ValueError("cluster labels must be contiguous from 0")

    @classmethod
    def from_assignments(cls, z: Sequence[int]) -> "Partition":
        """Canonicalize: relabel clusters in order of first appearance."""
        remap: dict[int, int] = {}
        out = []
        for v in z:
            if v not in remap:
                remap[v] = len(remap)
            out.append(remap[v])
        return cls(tuple(out))

    @property
    def n_items(self) -> int:
        return len(self.assignments)

    @property
    def n_clusters(self) -> int:
        return max(self.assignments) + 1

    def sizes(self) -> np.ndarray:
        return np.bincount(np.asarray(self.assignments), minlength=self.n_clusters)

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignments) == k)


@dataclass(frozen=True)
class NigBase:
    """Per-dimension Normal-Inverse-Gamma hyperparameters.

    mu | v ~ N(mu0, v / kappa0), v ~ InvGamma(a0, b0); mu0 and b0 may be
    per-dimension vectors, kappa0 and a0 are scalars.
    """

    mu0: np.ndarray | float = 0.0
    kappa0: float = 0.1
    a0: float = 1.0
    b0: np.ndarray | float = 1.0

    def __post_init__(self) -> None:
        if self.kappa0 <= 0 or self.a0 <= 0:
            raise ValueError("kappa0 and a0 must be positive")
        if np.any(np.asarray(self.b0) <= 0):
            raise ValueError("b0 must be positive")
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=np.float64))
        object.__setattr__(self, "b0", np.asarray(self.b0, dtype=np.float64))

    @classmethod
    def from_data(cls, X: np.ndarray) -> "NigBase":
        """Centered on the data's mean, b0 its variance; kappa0 and a0 keep
        their defaults."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        # constant dims would give b0 = 0
        return cls(mu0=X.mean(axis=0), b0=np.maximum(X.var(axis=0), 1e-6))


@dataclass(frozen=True)
class DpmmConfig:
    """Sampler and screen settings. gibbs_iters and burn_in count the sweeps
    of each of the RESTARTS chains that gibbs_cluster and recover_poses run
    per set of points; these defaults are the only ones."""

    gamma: float = 1.0  # concentration of the sampling prior
    alpha: float = 1.0 / 3.0  # concentration in the outlier lower bound
    base: Optional[NigBase] = None  # None: derived from the data
    gibbs_iters: int = 50
    burn_in: int = 10
    seed: int = 0
    pca_dim: int = 8
    small_cluster_max: int = 3

    def __post_init__(self) -> None:
        for name in ("gamma", "alpha"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if value == np.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        if not (0 <= self.burn_in < self.gibbs_iters):
            raise ValueError("need 0 <= burn_in < gibbs_iters")
        if self.pca_dim < 1:
            raise ValueError("pca_dim must be >= 1")
        if self.small_cluster_max < 1:
            raise ValueError("small_cluster_max must be >= 1")


def project(features: np.ndarray, cfg: DpmmConfig) -> np.ndarray:
    """Features as the sampler sees them: centered and projected onto the
    top cfg.pca_dim principal directions when that is fewer than their
    dimension, unchanged otherwise. Centered, n rows span at most n - 1
    directions, so no more are kept."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 features")
    n, dim = X.shape
    if cfg.pca_dim >= dim:
        return X
    d = min(cfg.pca_dim, n - 1)
    mean = X.mean(axis=0)
    _, _, vt = np.linalg.svd(X - mean, full_matrices=False)
    basis = vt[:d].T.copy()
    # fix the sign of each direction so results are reproducible
    for c in range(d):
        j = int(np.argmax(np.abs(basis[:, c])))
        if basis[j, c] < 0:
            basis[:, c] = -basis[:, c]
    return (X - mean) @ basis


# Cephes lgam (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the routine behind scipy.special.gammaln, for x > 0:
# recurrence into [2, 3) and a rational fit below 13, Stirling's series above
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
           -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
           -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2*pi))
_MAXLGM = 2.556348e305  # log Gamma overflows above this


def _lgam(x: float) -> float:
    """log Gamma(x) for one x > 0, operation for operation as Cephes computes
    it, with the C library's log (math.log), so the double is the same."""
    if not x > 0.0:
        raise ValueError(f"log-gamma needs x > 0, got {x}")
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        b = _LGAM_B[0]
        for c in _LGAM_B[1:]:
            b = b * x + c
        q = x + _LGAM_C[0]
        for c in _LGAM_C[1:]:
            q = q * x + c
        return math.log(z) + x * b / q
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        a = a * p + c
    return q + a / x


def _gammaln(x) -> np.ndarray:
    """log Gamma elementwise, an array of x's shape; every x must be > 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([_lgam(v) for v in x.ravel().tolist()], dtype=np.float64).reshape(x.shape)


# the planes of a _count_planes table, in the order _logml_stats reads them
_N_PLANES = 9


def _count_planes(base: NigBase, counts, d: int) -> np.ndarray:
    """The terms of the log marginal that depend only on a cluster's count.

    A (9, len(counts), d) array of planes: n, a0 + n/2, kappa0*n,
    2*(kappa0 + n), (log kappa0 - log(kappa0 + n))/2, n*log(2*pi)/2,
    gammaln(a0 + n/2) - gammaln(a0) + a0*log(b0), then b0 and mu0. Every
    value is repeated across the d dimensions, so that _logml_stats combines
    arrays of one shape.
    """
    n = np.asarray(counts, dtype=np.float64).reshape(-1, 1)
    kn = base.kappa0 + n
    an = base.a0 + 0.5 * n
    out = np.empty((_N_PLANES, n.shape[0], d))
    for plane, value in zip(out, (
        n,
        an,
        base.kappa0 * n,
        2.0 * kn,
        0.5 * (np.log(base.kappa0) - np.log(kn)),
        0.5 * n * _LOG_2PI,
        _gammaln(an) - _gammaln(base.a0) + base.a0 * np.log(base.b0),
        base.b0,
        base.mu0,
    )):
        plane[...] = value
    return out


def _logml_stats(planes: np.ndarray, s, ss) -> np.ndarray:
    """Log marginal per row from its count planes and sufficient statistics.

    planes holds the _count_planes rows of the clusters' counts (counts must
    be positive), each plane of the shape of s and ss, the clusters' sums
    and sums of squares, or broadcastable against them. Sums over the last
    axis, the d dimensions. The planes and this expression keep the order
    of operations of the formula written out in place (tests/_oracles.py),
    so every value is the same double.
    """
    n, an, k0n, two_kn, half_log_k, half_n_log_2pi, per_dim, b0, mu0 = planes
    xbar = s / n
    dev = np.maximum(ss - s * xbar, 0.0)  # sum of squared deviations
    bn = b0 + 0.5 * dev + k0n * (xbar - mu0) ** 2 / two_kn
    return np.add.reduce(per_dim - an * np.log(bn) + half_log_k - half_n_log_2pi, axis=-1)


def cluster_log_marginal(members: np.ndarray, base: NigBase) -> float:
    """Closed-form log p(members) under the NIG base; 0 for an empty set."""
    X = np.asarray(members, dtype=np.float64)
    if X.size == 0:
        return 0.0
    X = np.atleast_2d(X)
    planes = _count_planes(base, [X.shape[0]], X.shape[1])
    return float(_logml_stats(planes, X.sum(axis=0), (X ** 2).sum(axis=0))[0])


def _partition_log_evidence(X: np.ndarray, p: Partition, base: NigBase) -> float:
    return float(sum(cluster_log_marginal(X[p.members(k)], base) for k in range(p.n_clusters)))


# Rows this narrow share one batch, -inf padded to the widest of them;
# each wider row is batched with the rows of its own width. NumPy sums a
# row of 8 or more with unrolled partial sums, so padding would change the
# rounding of its sum; up to 7 the sum runs left to right and the padding
# adds exact zeros.
_ROWS_MAX_WIDTH = 7


def _logsumexp_rows(w: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of every row of w, rounded as SciPy 1.17 rounds it.

    A row holds finite weights, then, when at most 7 wide, any -inf padding.
    The m entries tied at the row's maximum are left out of the sum s of
    exp(w - max) over the rest; the result is log1p(s/m) + log(m) + max.
    The padding's exp(-inf) adds exact zeros to s, and NumPy sums each row
    of a C-ordered array as it sums that row alone, so every value is the
    one the row gives without its padding and without the other rows.
    Doing these steps here keeps the sampler's draws the same under any
    SciPy version.
    """
    top = np.maximum.reduce(w, axis=1, keepdims=True)
    tied = w == top
    e = np.exp(w - top)
    np.copyto(e, 0.0, where=tied)
    m = np.add.reduce(tied, axis=1, dtype=np.float64)
    return np.log1p(np.add.reduce(e, axis=1) / m) + np.log(m) + top[:, 0]


def sample_partitions(
    features: np.ndarray,
    cfg: DpmmConfig,
    chains: Sequence[tuple[int, int | Sequence[int]]],
) -> list[_Samples]:
    """Post-burn-in Gibbs samples as (canonical assignments, log posterior score).

    Collapsed Gibbs sampling (Neal 2000, algorithm 3). A chain first seats
    its points in row order, each in an existing cluster with weight
    N_k * p(x | cluster k) or in a new one with weight gamma * p(x), given
    the points seated before it. Each of its cfg.gibbs_iters sweeps then
    reseats the points in order by the same weights, given all the others.
    The seating pass and every sweep draw one rng.random(n) from the chain's
    generator, and the samples are taken after the first cfg.burn_in sweeps.

    chains splits the rows of features into independent chains, given as
    (row count, seed) in row order, where a seed is anything
    np.random.default_rng takes, and a list of samples per chain comes
    back. Each chain has its own base: cfg.base, or one derived from its own
    rows.

    The chains run in lockstep: at each step every chain still in its pass
    seats or reseats its i-th point. One marginal evaluation covers, for
    every such chain, its clusters with the point added and the cluster the
    point left. _logsumexp_rows then normalizes the weights in batches:
    the chains with at most 7 weights share one -inf padded batch, and each
    wider chain shares one with the chains of its own width. Only
    elementwise operations and row sums that pad exactly are batched, so
    every chain's samples and scores equal those of the chain run alone,
    bit for bit, and there is nothing to tune.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    total, d = X.shape
    blocks = [(int(n), s) for n, s in chains]
    sizes = [n for n, _ in blocks]
    if total < 1:
        raise ValueError("no features")
    if not blocks or min(sizes) < 1 or sum(sizes) != total:
        raise ValueError("chain sizes must be positive and add up to the rows of features")
    starts = np.cumsum([0] + sizes)
    # longest first, so the chains still in their pass at point i are a prefix
    order = sorted(range(len(blocks)), key=lambda c: -sizes[c])
    sizes = [sizes[c] for c in order]
    n_chains, n_max = len(order), sizes[0]
    log_gamma = np.log(cfg.gamma)
    with np.errstate(divide="ignore"):
        # log 0 = -inf marks an empty seat, so that padding weighs exp(-inf) = 0
        log_n = np.log(np.arange(n_max + 1, dtype=np.float64)).tolist()

    # Chain c owns row c of each array: its points as [x, x*x], and per
    # cluster [sums, sums of squares], count, log count and cached marginal.
    # Its count planes sit in table columns offset[c] + count.
    xx = np.zeros((n_chains, n_max, 2, d))
    stats = np.zeros((n_chains, n_max, 2, d))
    cnt = np.zeros((n_chains, n_max), dtype=np.intp)
    log_cnt = np.full((n_chains, n_max), -np.inf)
    cache = np.zeros((n_chains, n_max))
    offset = np.cumsum([0] + [n + 1 for n in sizes])
    table = np.empty((_N_PLANES, offset[-1], d))
    plus_one = (offset[:-1] + 1).reshape(-1, 1)
    offset = offset.tolist()

    rngs, z, k, new_w, pred0, samples = [], [], [], [], [], []
    for c, src in enumerate(order):
        n = sizes[c]
        Xc = X[starts[src] : starts[src] + n]
        base = cfg.base if cfg.base is not None else NigBase.from_data(Xc)
        planes = _count_planes(base, np.arange(n + 1), d)
        table[:, offset[c] : offset[c] + n + 1] = planes
        xx[c, :n, 0] = Xc
        xx[c, :n, 1] = Xc * Xc
        # marginal of each point alone; reused as the new-cluster predictive
        p0 = _logml_stats(planes[:, 1:2], Xc, Xc ** 2)
        new_w.append((log_gamma + p0).tolist())
        pred0.append(p0.tolist())
        rngs.append(np.random.default_rng(blocks[src][1]))
        z.append([0] * n)
        k.append(0)
        samples.append([])
    # row views, made once: a chain's points and clusters, its counts, log
    # counts and cached marginals
    x_rows = [list(v) for v in xx]
    rows = [list(v) for v in stats]
    cnt_c, log_cnt_c, cache_c = list(cnt), list(log_cnt), list(cache)
    # the chains still in their pass at point i, and the point's rows
    live = [range(sum(1 for n in sizes if n > i)) for i in range(n_max)]
    x_live = [xx[: len(live[i]), i, None] for i in range(n_max)]
    lefts = [0] * n_chains
    seats = [0] * n_chains

    # pass -1 seats the points, none of which has a cluster to leave yet;
    # passes 0.. are the sweeps
    for sweep in range(-1, cfg.gibbs_iters):
        draws = [rng.random(n).tolist() for rng, n in zip(rngs, sizes)]
        for i in range(n_max):
            for c in live[i] if sweep >= 0 else ():
                # take point i out of its cluster; swap-delete the cluster if it empties
                cn, lc, ca, rw = cnt_c[c], log_cnt_c[c], cache_c[c], rows[c]
                s = z[c][i]
                rw[s] -= x_rows[c][i]
                left = int(cn[s]) - 1
                cn[s] = left
                kc = k[c]
                if left == 0:
                    kc -= 1
                    if s != kc:
                        rw[s][...] = rw[kc]
                        cn[s] = cn[kc]
                        lc[s] = lc[kc]
                        ca[s] = ca[kc]
                        z[c] = [s if v == kc else v for v in z[c]]
                    rw[kc][...] = 0.0
                    cn[kc] = 0
                    lc[kc] = -np.inf
                    ca[kc] = 0.0
                    k[c] = kc
                else:
                    lc[s] = log_n[left]
                lefts[c] = left
                seats[c] = s

            # the batch: each chain's clusters with the point added, and at
            # column k the cluster it left; columns past k are padding
            a = len(live[i])
            width = max(k[:a]) + 1
            work = np.add(stats[:a, :width], x_live[i])
            ix = np.add(cnt[:a, :width], plus_one[:a])
            for c in live[i]:
                if lefts[c]:
                    work[c, k[c]] = rows[c][seats[c]]
                    ix[c, k[c]] = offset[c] + lefts[c]
            plus = _logml_stats(table.take(ix, axis=1), work[:, :, 0], work[:, :, 1])
            pl = plus.tolist()
            for c in live[i]:
                if lefts[c]:
                    cache_c[c][seats[c]] = pl[c][k[c]]
            logw = np.add(log_cnt[:a, :width], plus)
            logw -= cache[:a, :width]
            for c in live[i]:
                logw[c, k[c]] = new_w[c][i]
            groups: dict[int, list[int]] = {}
            for c in live[i]:
                groups.setdefault(max(k[c] + 1, _ROWS_MAX_WIDTH), []).append(c)
            probs = [None] * a
            for wg, cs in groups.items():
                w = logw[cs, :wg]
                for c, p in zip(cs, np.exp(w - _logsumexp_rows(w)[:, None]).tolist()):
                    probs[c] = p

            for c in live[i]:
                # first cumulative probability at or above the draw (inverse CDF)
                kc = k[c]
                u = draws[c][i]
                choice = kc
                acc = 0.0
                for j, p in enumerate(probs[c][: kc + 1]):
                    acc += p
                    if u <= acc:
                        choice = j
                        break
                z[c][i] = choice
                if choice == kc:
                    k[c] = kc + 1
                    cache_c[c][choice] = pred0[c][i]
                else:
                    cache_c[c][choice] = pl[c][choice]
                rows[c][choice] += x_rows[c][i]
                cn = cnt_c[c]
                m = int(cn[choice]) + 1
                cn[choice] = m
                log_cnt_c[c][choice] = log_n[m]
        if sweep >= cfg.burn_in:
            for c in range(n_chains):
                kc = k[c]
                score = float(np.sum(log_gamma + _gammaln(cnt_c[c][:kc])) + np.sum(cache_c[c][:kc]))
                samples[c].append((Partition.from_assignments(z[c]).assignments, score))

    return [samples[order.index(c)] for c in range(n_chains)]


def _best_of_restarts(
    sets: Sequence[np.ndarray], seeds: Sequence[int], cfg: DpmmConfig
) -> list[Partition]:
    """The best partition of each set of points over its RESTARTS chains.

    Chain r of a set is seeded [seed, r], and all the chains run in one
    lockstep sample_partitions call. The highest score wins; a tie goes to
    the lower r, then to the earlier sample (max keeps the first).
    """
    chains = sample_partitions(
        np.vstack([X for X in sets for _ in range(RESTARTS)]),
        cfg,
        [(len(X), [seed, r]) for X, seed in zip(sets, seeds) for r in range(RESTARTS)],
    )
    best = []
    for j in range(0, len(chains), RESTARTS):
        z, _ = max((zs for chain in chains[j : j + RESTARTS] for zs in chain), key=lambda zs: zs[1])
        best.append(Partition(z))
    return best


def gibbs_cluster(features: np.ndarray, cfg: DpmmConfig) -> Partition:
    """Highest-scoring partition among the post-burn-in samples of RESTARTS
    seated chains, chain r seeded [cfg.seed, r] (ties to the lower r, then
    to the earlier sample).

    The score is the unnormalized log posterior: the sum over clusters k of
    log(cfg.gamma) + log Gamma(N_k) and the cluster's log marginal. Each
    sample's score comes from the sampler's cached per-cluster marginals,
    not a fresh evaluation, so it can drift from a recomputation by rounding
    (about 1e-12).
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return _best_of_restarts([X], [cfg.seed], cfg)[0]


def _small_and_large(p: Partition, small_max: int) -> tuple[list[int], list[int]]:
    """The small clusters screened, smallest first (ties by label) and at most
    MERGE_ENUM_CAP of them, and the large clusters."""
    sizes = p.sizes()
    small = [k for k in range(p.n_clusters) if sizes[k] <= small_max]
    large = [k for k in range(p.n_clusters) if sizes[k] > small_max]
    return sorted(small, key=lambda k: (sizes[k], k))[:MERGE_ENUM_CAP], large


def merge_set(p: Partition, small_max: int, features: np.ndarray) -> list[tuple[str, Partition]]:
    """Every way of folding a non-empty subset of small clusters into large
    ones, each as (descriptor, merged partition).

    Each chosen small cluster moves wholesale to the large cluster with the
    nearest mean. The descriptor merge[k->g,...] names each move by the
    labels of p, small clusters smallest first. Empty unless both small and
    large clusters exist. The enumeration covers at most 2**12 subsets,
    keeping the smallest clusters when there are more.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    small, large = _small_and_large(p, small_max)
    if not small or not large:
        return []

    means = {k: X[p.members(k)].mean(axis=0) for k in (*small, *large)}
    target = {
        k: min(large, key=lambda g: (float(np.linalg.norm(means[k] - means[g])), g))
        for k in small
    }
    z0 = np.asarray(p.assignments)
    out = []
    for mask in range(1, 1 << len(small)):
        z = z0.copy()
        moves = [k for bit, k in enumerate(small) if mask >> bit & 1]
        for k in moves:
            z[z0 == k] = target[k]
        descriptor = "merge[" + ",".join(f"{k}->{target[k]}" for k in moves) + "]"
        out.append((descriptor, Partition.from_assignments(z)))
    return out


@dataclass(frozen=True)
class MergeEvaluation:
    descriptor: str
    log_bayes_factor: float
    log_lower_bound: float
    satisfied: bool


@dataclass(frozen=True)
class OutlierReport:
    initial: Partition
    accepted: bool
    outlier_indices: tuple[int, ...]
    per_merge: tuple[MergeEvaluation, ...]


def _weighted_cluster_counts(p: Partition, weights: np.ndarray) -> np.ndarray:
    w = np.zeros(p.n_clusters)
    z = np.asarray(p.assignments)
    np.add.at(w, z, weights)
    return np.maximum(w, _WEIGHT_FLOOR)


def detect_outliers(
    features: np.ndarray,
    scores: np.ndarray,
    p: Partition,
    cfg: DpmmConfig,
) -> OutlierReport:
    """Bayes-factor screen of small clusters against all merge partitions.

    For each merge z_m the log evidence ratio log K = log p(X|z_I) - log p(X|z_m)
    must exceed
        -nu * log(alpha) + sum_k logGamma(W_mk) - sum_k logGamma(W_Ik)
    where nu is the cluster-count difference and W are per-cluster sums of
    sqrt of min-max normalized scores (a constant score batch normalizes to
    all ones). Small clusters are outliers only when every merge satisfies
    the inequality; otherwise nothing is flagged.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    sc = np.asarray(scores, dtype=np.float64)
    if sc.shape != (X.shape[0],) or X.shape[0] != p.n_items:
        raise ValueError("features, scores, and partition sizes must align")
    base = cfg.base if cfg.base is not None else NigBase.from_data(X)

    merges = merge_set(p, cfg.small_cluster_max, X)
    if not merges:
        return OutlierReport(initial=p, accepted=False, outlier_indices=(), per_merge=())

    lo, hi = sc.min(), sc.max()
    tbar = np.ones_like(sc) if hi == lo else (sc - lo) / (hi - lo)
    weights = np.sqrt(tbar)

    small, _ = _small_and_large(p, cfg.small_cluster_max)

    ev_i = _partition_log_evidence(X, p, base)
    w_i = _weighted_cluster_counts(p, weights)
    term_i = float(_gammaln(w_i).sum())
    log_alpha = np.log(cfg.alpha)

    evals = []
    all_ok = True
    for descriptor, z_m in merges:
        ev_m = _partition_log_evidence(X, z_m, base)
        log_k = ev_i - ev_m
        nu = p.n_clusters - z_m.n_clusters
        w_m = _weighted_cluster_counts(z_m, weights)
        bound = -nu * log_alpha + float(_gammaln(w_m).sum()) - term_i
        ok = log_k > bound
        all_ok = all_ok and ok
        evals.append(
            MergeEvaluation(
                descriptor=descriptor,
                log_bayes_factor=log_k,
                log_lower_bound=bound,
                satisfied=ok,
            )
        )

    outliers: tuple[int, ...] = ()
    if all_ok:
        z0 = np.asarray(p.assignments)
        outliers = tuple(int(i) for i in np.flatnonzero(np.isin(z0, small)))
    return OutlierReport(
        initial=p,
        accepted=all_ok,
        outlier_indices=outliers,
        per_merge=tuple(evals),
    )


def recover_poses(
    pools: Sequence[tuple[np.ndarray, np.ndarray, Sequence[str]]],
    cfg: DpmmConfig,
    seeds: Sequence[int],
) -> list[tuple[int, int]]:
    """Cluster each pool's candidate features and keep the trustworthy ones.

    A pool is (features (n, d), scores (n,), image ids), one row per
    candidate. Every pool is projected on its own and clustered as
    gibbs_cluster clusters it, by RESTARTS seated chains of its own seeded
    [seeds[j], r].
    The chains of all the pools with equal projected dimension run in
    lockstep in one sample_partitions call, each bit for bit as if run
    alone. A pool of fewer than 4 rows has nothing to cluster and recovers
    nothing. When a pool's outlier screen accepts, small-cluster members are
    dropped; when it does not, only members of large clusters survive (the
    cautious fallback). At most one row per image is kept from each pool
    (highest score, earliest wins ties). Returns (pool, row) for every kept
    row, in pool order.
    """
    if len(seeds) != len(pools):
        raise ValueError("need one seed per pool")
    projected = {
        j: project(features, cfg)
        for j, (features, _, _) in enumerate(pools)
        if len(features) >= 4
    }
    by_dim: dict[int, list[int]] = {}
    for j, X in projected.items():
        by_dim.setdefault(X.shape[1], []).append(j)
    best: dict[int, Partition] = {}
    for group in by_dim.values():
        found = _best_of_restarts([projected[j] for j in group], [seeds[j] for j in group], cfg)
        best.update(zip(group, found))
    out: list[tuple[int, int]] = []
    for j, X in projected.items():
        _, scores, ids = pools[j]
        out.extend((j, row) for row in _screen_pool(X, scores, ids, best[j], cfg))
    return out


def _screen_pool(
    X: np.ndarray,
    scores: np.ndarray,
    ids: Sequence[str],
    p: Partition,
    cfg: DpmmConfig,
) -> list[int]:
    """The rows of one pool that its partition and outlier screen keep, one
    per image, in order of each image's first kept row."""
    report = detect_outliers(X, scores, p, cfg)
    if report.accepted:
        keep = np.setdiff1d(np.arange(len(ids)), report.outlier_indices)
    else:
        keep = np.flatnonzero(p.sizes()[np.asarray(p.assignments)] > cfg.small_cluster_max)
    best: dict[str, int] = {}
    for row in keep.tolist():
        image_id = ids[row]
        if image_id not in best or scores[row] > scores[best[image_id]]:
            best[image_id] = row
    return list(best.values())


def format_outlier_report(report: OutlierReport) -> str:
    """Line-oriented text: header, then one line per merge partition."""
    sizes = ",".join(str(s) for s in report.initial.sizes())
    lines = [
        f"clusters sizes=[{sizes}]",
        f"accepted {'yes' if report.accepted else 'no'}",
        f"outliers {','.join(str(i) for i in report.outlier_indices) or '-'}",
    ]
    for ev in report.per_merge:
        verdict = "PASS" if ev.satisfied else "FAIL"
        lines.append(
            f"{ev.descriptor} logK={ev.log_bayes_factor:.6f} "
            f"bound={ev.log_lower_bound:.6f} {verdict}"
        )
    return "\n".join(lines) + "\n"
