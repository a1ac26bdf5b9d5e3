"""Infinite mixture clustering of pose features with Bayes-factor screening
of small clusters.

Partitions are sampled by collapsed Gibbs under a Chinese-restaurant prior
p(z) proportional to prod_k gamma * Gamma(N_k) with a per-dimension
Normal-Inverse-Gamma base, so every cluster marginal is closed form. Small
clusters are then tested against every way of merging them into the large
ones: they are outliers only when the evidence ratio beats a
concentration-derived lower bound for ALL merges, with cluster counts
replaced by score-weighted counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .skeleton import CandidatePose

__all__ = [
    "Partition",
    "NigBase",
    "DpmmConfig",
    "project",
    "project_features",
    "crp_log_prior",
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
]

MERGE_ENUM_CAP = 12  # at most 2**12 merge partitions are enumerated

_LOG_2PI = np.log(2.0 * np.pi)
_WEIGHT_FLOOR = 1e-12  # keeps Gamma() finite when a cluster's score mass is 0


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
    def from_data(cls, X: np.ndarray, kappa0: float = 0.1, a0: float = 1.0) -> "NigBase":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        var = X.var(axis=0)
        return cls(
            mu0=X.mean(axis=0),
            kappa0=kappa0,
            a0=a0,
            b0=np.maximum(var, 1e-6),  # constant dims would give b0 = 0
        )


@dataclass(frozen=True)
class DpmmConfig:
    gamma: float = 1.0  # concentration of the sampling prior
    alpha: float = 1.0 / 3.0  # concentration in the outlier lower bound
    base: Optional[NigBase] = None  # None: derived from the data
    gibbs_iters: int = 2000
    burn_in: int = 500
    seed: int = 0
    pca_dim: Optional[int] = 8
    small_cluster_max: int = 3

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (0 <= self.burn_in < self.gibbs_iters):
            raise ValueError("need 0 <= burn_in < gibbs_iters")
        if self.pca_dim is not None and self.pca_dim < 1:
            raise ValueError("pca_dim must be >= 1")
        if self.small_cluster_max < 1:
            raise ValueError("small_cluster_max must be >= 1")


def project(features: np.ndarray, d: int) -> np.ndarray:
    """Center and project onto the top-d principal directions."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 features")
    n, dim = X.shape
    if not (1 <= d <= min(dim, n)):
        raise ValueError(f"d must be in [1, {min(dim, n)}], got {d}")
    mean = X.mean(axis=0)
    _, _, vt = np.linalg.svd(X - mean, full_matrices=False)
    basis = vt[:d].T.copy()
    # fix the sign of each direction so results are reproducible
    for c in range(d):
        j = int(np.argmax(np.abs(basis[:, c])))
        if basis[j, c] < 0:
            basis[:, c] = -basis[:, c]
    return (X - mean) @ basis


def project_features(features: np.ndarray, cfg: DpmmConfig) -> np.ndarray:
    """Features as the sampler sees them: projected onto the top cfg.pca_dim
    principal directions (at most one per row) when that is fewer than
    their dimension, unchanged otherwise."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if cfg.pca_dim is not None and cfg.pca_dim < X.shape[1]:
        X = project(X, min(cfg.pca_dim, X.shape[0], X.shape[1]))
    return X


def crp_log_prior(p: Partition, alpha: float) -> float:
    """Log probability of a partition under the Polya-urn seating prior.

    p(z) = prod_k alpha * Gamma(N_k) / (alpha)_n with (alpha)_n the rising
    factorial Gamma(alpha + n) / Gamma(alpha); sums to one over all set
    partitions of n items.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sizes = p.sizes()
    log_norm = gammaln(alpha + p.n_items) - gammaln(alpha)
    return float(np.sum(np.log(alpha) + gammaln(sizes)) - log_norm)


# count-only columns at the head of a _count_terms row; per-dimension ones follow
_N_COLS = 6


def _count_terms(base: NigBase, counts) -> np.ndarray:
    """The terms of the log marginal that depend only on a cluster's count.

    One row per count n: n, a0 + n/2, kappa0*n, 2*(kappa0 + n),
    (log kappa0 - log(kappa0 + n))/2 and n*log(2*pi)/2, then
    gammaln(a0 + n/2) - gammaln(a0) + a0*log(b0) per dimension (a single
    column when b0 is a scalar).
    """
    n = np.asarray(counts, dtype=np.float64).reshape(-1, 1)
    kn = base.kappa0 + n
    an = base.a0 + 0.5 * n
    per_dim = gammaln(an) - gammaln(base.a0) + base.a0 * np.log(base.b0)
    return np.hstack([
        n,
        an,
        base.kappa0 * n,
        2.0 * kn,
        0.5 * (np.log(base.kappa0) - np.log(kn)),
        0.5 * n * _LOG_2PI,
        per_dim,
    ])


def _logml_stats(terms: np.ndarray, s, ss, base: NigBase) -> np.ndarray:
    """Log marginal per row from its count terms and sufficient statistics.

    terms holds one _count_terms row per cluster (counts must be positive);
    s and ss are the clusters' sums and sums of squares, (rows, d) or
    broadcastable against it. Sums over the d dimensions. The terms and
    this expression keep the order of operations of the formula written
    out in place (tests/_oracles.py), so every value is the same double.
    """
    n, an, k0n, two_kn, half_log_k, half_n_log_2pi = terms[:, :_N_COLS].T[:, :, None]
    xbar = s / n
    dev = np.maximum(ss - s * xbar, 0.0)  # sum of squared deviations
    bn = base.b0 + 0.5 * dev + k0n * (xbar - base.mu0) ** 2 / two_kn
    per_dim = terms[:, _N_COLS:] - an * np.log(bn) + half_log_k - half_n_log_2pi
    return per_dim.sum(axis=-1)


def cluster_log_marginal(members: np.ndarray, base: NigBase) -> float:
    """Closed-form log p(members) under the NIG base; 0 for an empty set."""
    X = np.asarray(members, dtype=np.float64)
    if X.size == 0:
        return 0.0
    X = np.atleast_2d(X)
    terms = _count_terms(base, [X.shape[0]])
    return float(_logml_stats(terms, X.sum(axis=0), (X ** 2).sum(axis=0), base)[0])


def _partition_log_evidence(X: np.ndarray, p: Partition, base: NigBase) -> float:
    return float(sum(cluster_log_marginal(X[p.members(k)], base) for k in range(p.n_clusters)))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite 1-D array, rounded as SciPy 1.17 rounds it.

    The m entries tied at the maximum are left out of the sum s of
    exp(a - max) over the rest; the result is log1p(s/m) + log(m) + max, with
    s left at 0 when it is 0. Doing these steps here keeps the sampler's draws
    the same under any SciPy version.
    """
    values = a.tolist()
    top = max(values)
    m = values.count(top)
    e = np.exp(a - top)
    if m == 1:
        e[values.index(top)] = 0.0
    else:
        e[a == top] = 0.0
    s = np.add.reduce(e)
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(np.float64(m)) + top


def sample_partitions(features: np.ndarray, cfg: DpmmConfig) -> list[tuple[tuple[int, ...], float]]:
    """Post-burn-in Gibbs samples as (canonical assignments, log posterior score).

    Collapsed Gibbs sampling (Neal 2000, algorithm 3): every point starts in
    one cluster, and each sweep reseats the points in order, each in an
    existing cluster with weight N_k * p(x | cluster k) or in a new one with
    weight gamma * p(x). One batched marginal evaluation per point update
    covers every cluster with the point added and the cluster it left.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n, d = X.shape
    if n < 1:
        raise ValueError("no features")
    base = cfg.base if cfg.base is not None else NigBase.from_data(X)
    rng = np.random.default_rng(cfg.seed)
    log_gamma = np.log(cfg.gamma)

    terms = _count_terms(base, np.arange(n + 1))
    with np.errstate(divide="ignore"):
        log_n = np.log(np.arange(n + 1, dtype=np.float64))  # log 0 is never read
    # marginal of each point alone; reused as the new-cluster predictive
    pred0 = _logml_stats(terms[1:2], X, X ** 2, base)
    new_w = (log_gamma + pred0).tolist()
    pred0 = pred0.tolist()
    xx = np.hstack([X, X * X])  # a point's share of [sums | sums of squares]
    x_rows = list(xx)

    # per cluster: [sums | sums of squares], count, log count, cached marginal
    stats = np.zeros((n, 2 * d))
    rows = list(stats)
    cnt = np.zeros(n, dtype=np.intp)
    log_cnt = np.zeros(n)
    cache = np.zeros(n)
    # the batch: clusters with the point added, then the cluster it left
    work = np.empty((n + 1, 2 * d))
    idx = np.empty(n + 1, dtype=np.intp)
    logw = np.empty(n + 1)

    for x in x_rows:
        rows[0] += x
    cnt[0] = n
    log_cnt[0] = log_n[n]
    cache[0] = _logml_stats(terms[n : n + 1], stats[:1, :d], stats[:1, d:], base)[0]
    k = 1
    z = [0] * n

    samples: list[tuple[tuple[int, ...], float]] = []
    for sweep in range(cfg.gibbs_iters):
        draws = rng.random(n).tolist()
        for i, x in enumerate(x_rows):
            c = z[i]
            rows[c] -= x
            left = cnt[c] - 1
            cnt[c] = left
            if left == 0:  # swap-delete the emptied cluster
                k -= 1
                if c != k:
                    stats[c] = stats[k]
                    cnt[c] = cnt[k]
                    log_cnt[c] = log_cnt[k]
                    cache[c] = cache[k]
                    z = [c if v == k else v for v in z]
                stats[k] = 0.0
                cnt[k] = 0
                cache[k] = 0.0
            else:
                log_cnt[c] = log_n[left]
                work[k] = rows[c]
                idx[k] = left
            r = k + 1 if left else k
            np.add(stats[:k], x, out=work[:k])
            np.add(cnt[:k], 1, out=idx[:k])
            plus = _logml_stats(terms[idx[:r]], work[:r, :d], work[:r, d:], base)
            if left:
                cache[c] = plus[k]
            np.add(log_cnt[:k], plus[:k], out=logw[:k])
            np.subtract(logw[:k], cache[:k], out=logw[:k])
            logw[k] = new_w[i]
            w = logw[: k + 1]
            probs = np.exp(w - _logsumexp(w)).tolist()
            # first cumulative probability at or above the draw (inverse CDF)
            u = draws[i]
            choice = k
            acc = 0.0
            for j, p in enumerate(probs):
                acc += p
                if u <= acc:
                    choice = j
                    break
            z[i] = choice
            if choice == k:
                k += 1
                cache[choice] = pred0[i]
            else:
                cache[choice] = plus[choice]
            rows[choice] += x
            cnt[choice] += 1
            log_cnt[choice] = log_n[cnt[choice]]
        if sweep >= cfg.burn_in:
            score = float(np.sum(log_gamma + gammaln(cnt[:k])) + np.sum(cache[:k]))
            samples.append((Partition.from_assignments(z).assignments, score))
    return samples


def gibbs_cluster(features: np.ndarray, cfg: DpmmConfig) -> Partition:
    """Highest-scoring partition among the post-burn-in samples.

    The score is crp_log_prior(z, cfg.gamma) plus the sum of cluster log
    marginals, i.e. the unnormalized log posterior. Each sample's score comes
    from the sampler's cached per-cluster marginals, not a fresh evaluation,
    so it can drift from a recomputation by rounding (about 1e-12).
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    samples = sample_partitions(X, cfg)
    best_z, _ = max(samples, key=lambda zs: zs[1])
    return Partition(best_z)


def _small_and_large(p: Partition, small_max: int) -> tuple[list[int], list[int]]:
    """The small clusters screened, smallest first (ties by label) and at most
    MERGE_ENUM_CAP of them, and the large clusters."""
    sizes = p.sizes()
    small = [k for k in range(p.n_clusters) if sizes[k] <= small_max]
    large = [k for k in range(p.n_clusters) if sizes[k] > small_max]
    return sorted(small, key=lambda k: (sizes[k], k))[:MERGE_ENUM_CAP], large


def merge_set(p: Partition, small_max: int, features: np.ndarray) -> list[Partition]:
    """Every way of folding a non-empty subset of small clusters into large ones.

    Each chosen small cluster moves wholesale to the large cluster with the
    nearest mean. Empty unless both small and large clusters exist. The
    enumeration covers at most 2**12 subsets, keeping the smallest clusters
    when there are more.
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
        for bit, k in enumerate(small):
            if mask >> bit & 1:
                z[z0 == k] = target[k]
        out.append(Partition.from_assignments(z))
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


def _describe_merge(p: Partition, z_m: Partition, small: list[int]) -> str:
    moved = []
    z0 = np.asarray(p.assignments)
    zm = np.asarray(z_m.assignments)
    for k in small:
        members = np.flatnonzero(z0 == k)
        host = zm[members[0]]
        absorbed = np.flatnonzero(zm == host)
        if len(absorbed) > len(members):
            others = set(z0[absorbed]) - {k}
            big = [c for c in others if c not in small]
            if big:
                moved.append(f"{k}->{big[0]}")
    return "merge[" + ",".join(moved) + "]"


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
    term_i = float(gammaln(w_i).sum())
    log_alpha = np.log(cfg.alpha)

    evals = []
    all_ok = True
    for z_m in merges:
        ev_m = _partition_log_evidence(X, z_m, base)
        log_k = ev_i - ev_m
        nu = p.n_clusters - z_m.n_clusters
        w_m = _weighted_cluster_counts(z_m, weights)
        bound = -nu * log_alpha + float(gammaln(w_m).sum()) - term_i
        ok = log_k > bound
        all_ok = all_ok and ok
        evals.append(
            MergeEvaluation(
                descriptor=_describe_merge(p, z_m, small),
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
    candidates: Sequence[tuple[CandidatePose, np.ndarray]],
    cfg: DpmmConfig,
) -> list[CandidatePose]:
    """Cluster candidate features and keep the trustworthy ones.

    Fewer than 4 candidates: nothing to cluster, returns []. When the
    outlier screen accepts, small-cluster members are dropped; when it does
    not, only members of large clusters survive (the cautious fallback).
    At most one pose per image comes back (highest score, earliest wins ties).
    """
    if len(candidates) < 4:
        return []
    X = project_features(np.vstack([np.asarray(f, dtype=np.float64) for _, f in candidates]), cfg)
    scores = np.array([c.score for c, _ in candidates])
    p = gibbs_cluster(X, cfg)
    report = detect_outliers(X, scores, p, cfg)
    if report.accepted:
        keep = set(range(len(candidates))) - set(report.outlier_indices)
    else:
        _, large = _small_and_large(p, cfg.small_cluster_max)
        z = np.asarray(p.assignments)
        keep = {int(i) for i in np.flatnonzero(np.isin(z, large))}
    best: dict[str, tuple[int, CandidatePose]] = {}
    order: list[str] = []
    for i, (cand, _) in enumerate(candidates):
        if i not in keep:
            continue
        if cand.image_id not in best:
            best[cand.image_id] = (i, cand)
            order.append(cand.image_id)
        elif cand.score > best[cand.image_id][1].score:
            best[cand.image_id] = (i, cand)
    return [best[img][1] for img in order]


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
