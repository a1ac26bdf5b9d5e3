"""Infinite-mixture clustering: priors, marginals, Gibbs, outlier pruning."""
import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, logsumexp

import poseboot.dpmm as dpmm
from poseboot.dpmm import (
    RESTARTS,
    DpmmConfig,
    NigBase,
    Partition,
    cluster_log_marginal,
    detect_outliers,
    format_outlier_report,
    gibbs_cluster,
    merge_set,
    project,
    recover_poses,
    sample_partitions,
)

from _oracles import (
    crp_log_prior,
    crp_seating_probability,
    merge_descriptor_reference,
    nig_marginal_quadrature,
    seated_gibbs_reference,
    set_partitions,
)

# The reference sampler normalizes with scipy.special.logsumexp; the
# package's own normalizer takes the steps of SciPy 1.17's, and older
# versions round differently.
needs_scipy_1_17 = pytest.mark.skipif(
    tuple(int(v) for v in scipy.__version__.split(".")[:2]) < (1, 17),
    reason="scipy.special.logsumexp before 1.17 may round differently",
)


class TestPartition:
    def test_canonicalizes_by_first_appearance(self):
        p = Partition.from_assignments(np.array([5, 5, 2, 5, 9]))
        np.testing.assert_array_equal(p.assignments, [0, 0, 1, 0, 2])
        assert p.n_clusters == 3
        np.testing.assert_array_equal(p.sizes(), [3, 1, 1])

    def test_rejects_gaps(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2]))

    def test_members(self):
        p = Partition(np.array([0, 1, 0, 1, 2]))
        np.testing.assert_array_equal(p.members(1), [1, 3])


class TestGammaln:
    """dpmm._gammaln is Cephes' lgam, so it returns scipy.special.gammaln's
    double, compared with ==, not approx."""

    @staticmethod
    def assert_same_double(x):
        mine, oracle = dpmm._gammaln(x), gammaln(x)
        differ = np.flatnonzero(mine != oracle)
        assert differ.size == 0, [(x[i], mine[i], oracle[i]) for i in differ[:5]]

    def test_integers(self):
        self.assert_same_double(np.arange(1.0, 100_001.0))

    @pytest.mark.parametrize("a0", [1.0, 0.5, 1.0 / 3.0])
    def test_half_counts_past_a0(self, a0):
        """The a0 + n/2 of the Normal-Inverse-Gamma marginals."""
        self.assert_same_double(a0 + 0.5 * np.arange(200_001))

    def test_log_uniform_reals(self):
        rng = np.random.default_rng(17)
        self.assert_same_double(10.0 ** rng.uniform(-12.0, 12.0, 1_000_000))

    @pytest.mark.parametrize("edge", [2.0, 3.0, 13.0, 1000.0, 1e8, dpmm._MAXLGM, np.inf])
    def test_branch_edges_and_their_neighbours(self, edge):
        self.assert_same_double(np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]))

    @pytest.mark.parametrize("x", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_and_nan(self, x):
        with pytest.raises(ValueError, match="x > 0"):
            dpmm._gammaln(np.array([2.0, x]))

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 3)])
    def test_keeps_the_input_shape(self, shape):
        x = np.full(shape, 4.0)
        out = dpmm._gammaln(x)
        assert out.shape == shape and out.dtype == np.float64
        np.testing.assert_array_equal(out, gammaln(x))


class TestCrpPrior:
    def test_matches_sequential_seating_oracle(self):
        """Exact enumeration up to n=8 (Bell(8)=4140 partitions)."""
        for n in (2, 3, 5, 8):
            parts = set_partitions(n)
            if n == 8:
                assert len(parts) == 4140
            for alpha in (0.5, 1.0, 3.0):
                total = 0.0
                for z in parts:
                    mine = np.exp(crp_log_prior(Partition(np.array(z)), alpha))
                    oracle = crp_seating_probability(z, alpha)
                    assert mine == pytest.approx(oracle, abs=1e-12)
                    total += mine
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_known_small_values(self):
        """n=3, alpha=1: the grouped partition gets 1/3, the rest 1/6 each."""
        probs = {
            z: np.exp(crp_log_prior(Partition(np.array(z)), 1.0))
            for z in set_partitions(3)
        }
        assert probs[(0, 0, 0)] == pytest.approx(1 / 3)
        for z in [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]:
            assert probs[z] == pytest.approx(1 / 6)

    def test_two_points_even_odds_at_alpha_one(self):
        same = crp_log_prior(Partition(np.array([0, 0])), 1.0)
        split = crp_log_prior(Partition(np.array([0, 1])), 1.0)
        assert np.exp(same) == pytest.approx(0.5)
        assert np.exp(split) == pytest.approx(0.5)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            crp_log_prior(Partition(np.array([0])), 0.0)


class TestClusterMarginal:
    def test_single_point_default_base_against_quadrature(self):
        base = NigBase()  # mu0=0, kappa0=0.1, a0=1, b0=1
        x = np.array([[0.8]])
        mine = cluster_log_marginal(x, base)
        orac = nig_marginal_quadrature(x, base.mu0, base.kappa0, base.a0, base.b0)
        assert mine == pytest.approx(orac, abs=1e-6)

    def test_multiple_points_and_bases(self, rng):
        for base in [NigBase(), NigBase(mu0=1.5, kappa0=1.0, a0=2.0, b0=0.5)]:
            xs = rng.normal(0.5, 1.2, size=4)[:, None]
            mine = cluster_log_marginal(xs, base)
            orac = nig_marginal_quadrature(xs, base.mu0, base.kappa0, base.a0, base.b0)
            assert mine == pytest.approx(orac, abs=1e-6)

    def test_dimensions_are_independent(self, rng):
        """A 2-D marginal is the product (sum of logs) of per-dimension ones."""
        base = NigBase()
        X = rng.normal(size=(5, 2))
        both = cluster_log_marginal(X, base)
        separate = cluster_log_marginal(X[:, :1], base) + cluster_log_marginal(
            X[:, 1:], base
        )
        assert both == pytest.approx(separate, rel=1e-12)

    def test_empty_cluster_is_log_one(self):
        assert cluster_log_marginal(np.zeros((0, 3)), NigBase()) == 0.0

    def test_base_validation(self):
        with pytest.raises(ValueError):
            NigBase(kappa0=0.0)
        with pytest.raises(ValueError):
            NigBase(a0=-1.0)


class TestProjection:
    def test_reduces_dimension_and_centers(self, rng):
        X = rng.normal(size=(40, 10))
        Z = project(X, DpmmConfig(pca_dim=3))
        assert Z.shape == (40, 3)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)

    def test_preserves_separation_along_dominant_axis(self, rng):
        """Two groups split along one coordinate stay sign-separated in 1-D."""
        a = rng.normal(size=(25, 4)) * 0.1
        b = rng.normal(size=(25, 4)) * 0.1
        a[:, 2] -= 8.0
        b[:, 2] += 8.0
        X = np.vstack([a, b])
        Z = project(X, DpmmConfig(pca_dim=1))
        signs = np.sign(Z[:, 0])
        assert len(set(signs[:25])) == 1 and len(set(signs[25:])) == 1
        assert signs[0] != signs[-1]

    def test_sign_convention_deterministic(self, rng):
        X = rng.normal(size=(12, 5))
        Z1 = project(X, DpmmConfig(pca_dim=2))
        Z2 = project(X.copy(), DpmmConfig(pca_dim=2))
        np.testing.assert_array_equal(Z1, Z2)
        # the basis, recovered from the centered rows (full column rank):
        # each direction points toward its largest-magnitude component
        basis = np.linalg.lstsq(X - X.mean(axis=0), Z1, rcond=None)[0]
        peaks = np.abs(basis).argmax(axis=0)
        assert (basis[peaks, range(2)] > 0).all()

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            project(np.zeros((1, 4)), DpmmConfig(pca_dim=1))

    @pytest.mark.parametrize("n", range(4, 10))
    def test_small_pools_keep_only_directions_with_spread(self, rng, n):
        """n centered rows span n - 1 directions; a projection onto n would
        add a column of rounding noise, in which every point agrees."""
        Z = project(rng.normal(size=(n, 1275)), DpmmConfig())
        assert Z.shape == (n, min(8, n - 1))
        spread = np.ptp(Z, axis=0)
        assert spread.min() > 1e-6 * spread.max()


class TestGibbs:
    def test_recovers_two_well_separated_groups(self, rng):
        xs = np.concatenate(
            [rng.normal(-10.0, 0.3, 20), rng.normal(10.0, 0.3, 20)]
        )[:, None]
        cfg = DpmmConfig(gamma=1.0, gibbs_iters=150, burn_in=50, seed=3)
        p = gibbs_cluster(xs, cfg)
        assert p.n_clusters == 2
        assert len(set(p.assignments[:20])) == 1
        assert len(set(p.assignments[20:])) == 1

    def test_map_partition_beats_merges_and_splits(self, rng):
        """The returned 2-cluster split scores above one-cluster and above a
        random 3-way split of one side, under prior x marginal."""
        xs = np.concatenate(
            [rng.normal(-10.0, 0.3, 20), rng.normal(10.0, 0.3, 20)]
        )[:, None]
        cfg = DpmmConfig(gamma=1.0, gibbs_iters=150, burn_in=50, seed=3)
        base = NigBase.from_data(xs)

        def joint_score(z):
            p = Partition.from_assignments(np.array(z))
            s = crp_log_prior(p, 1.0)
            for k in range(p.n_clusters):
                s += cluster_log_marginal(xs[p.members(k)], base)
            return s

        found = gibbs_cluster(xs, DpmmConfig(gamma=1.0, gibbs_iters=150, burn_in=50, seed=3, base=base))
        best = joint_score(found.assignments)
        assert best > joint_score([0] * 40)
        alt = list(found.assignments)
        alt[0] = found.n_clusters  # split a singleton off
        assert best > joint_score(alt)

    def test_recovers_three_planted_blobs_at_the_pipeline_dimension(self):
        """Three blobs of 100 points at d=8, the dimension the pipeline
        projects its pools to: the seated chains find the planted partition."""
        gen = np.random.default_rng(0)
        xs = np.vstack([gen.normal(c, 0.5, (100, 8)) for c in (-5.0, 0.0, 5.0)])
        base = NigBase.from_data(xs)
        p = gibbs_cluster(xs, DpmmConfig(base=base, seed=0))
        assert p.assignments == tuple(np.repeat([0, 1, 2], 100).tolist())
        score = sum(gammaln(100.0) + cluster_log_marginal(xs[p.members(k)], base) for k in range(3))
        assert round(score, 1) == -1745.1

    def test_best_sample_ties_go_to_the_lower_restart_then_the_earlier_sample(self, monkeypatch):
        a, b, c, d = (0, 0, 0, 0), (0, 1, 1, 1), (0, 0, 1, 1), (0, 1, 2, 3)
        by_restart = [[(a, -3.0), (b, -1.0), (c, -1.0)], [(d, -1.0), (a, -2.0), (c, -1.0)]]
        by_restart += [[(c, -1.0)] * 3] * (RESTARTS - 2)

        def fake(features, cfg, chains):
            assert features.shape == (4 * RESTARTS, 1)
            assert chains == [(4, [9, r]) for r in range(RESTARTS)]
            return by_restart

        monkeypatch.setattr(dpmm, "sample_partitions", fake)
        assert gibbs_cluster(np.arange(4.0)[:, None], DpmmConfig(seed=9)).assignments == b

    def test_sampler_is_deterministic_per_seed(self, rng):
        xs = rng.normal(size=(12, 1))
        cfg = DpmmConfig(gibbs_iters=60, burn_in=20, seed=11)
        s1 = sample_partitions(xs, cfg, [(len(xs), cfg.seed)])
        s2 = sample_partitions(xs, cfg, [(len(xs), cfg.seed)])
        assert s1 == s2

    def test_posterior_frequencies_close_on_tiny_instance(self, rng):
        """Cheap version of the total-variation check (n=4, 5000 samples)."""
        xs = np.array([-2.0, -1.8, 1.8, 2.0])[:, None]
        base = NigBase()
        alpha = 1.0
        logps = []
        parts = set_partitions(4)
        for z in parts:
            p = Partition(np.array(z))
            lp = crp_log_prior(p, alpha)
            for k in range(p.n_clusters):
                lp += cluster_log_marginal(xs[p.members(k)], base)
            logps.append(lp)
        exact = np.exp(np.array(logps) - logsumexp(logps))
        cfg = DpmmConfig(gamma=alpha, base=base, gibbs_iters=5200, burn_in=200, seed=5)
        (samples,) = sample_partitions(xs, cfg, [(len(xs), cfg.seed)])
        freq: dict[tuple, int] = {}
        for z, _ in samples:
            freq[z] = freq.get(z, 0) + 1
        emp = np.array([freq.get(z, 0) for z in parts], dtype=float)
        emp /= emp.sum()
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv <= 0.08, tv


@st.composite
def gibbs_cases(draw):
    """Points (with exact duplicates when n_distinct < n) and a sampler config."""
    n = draw(st.integers(1, 60))
    d = draw(st.sampled_from([1, 2, 3, 8]))
    n_distinct = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.05, 1.0, 20.0]))
    distinct = rng.normal(size=(n_distinct, d)) * scale
    X = distinct[rng.integers(0, n_distinct, n)]
    base = draw(st.sampled_from(["derived", "scalar", "vector"]))
    if base == "scalar":
        base = NigBase(mu0=0.3, kappa0=0.2, a0=1.5, b0=0.7)
    elif base == "vector":
        base = NigBase(mu0=rng.normal(size=d), kappa0=1.0, a0=0.8, b0=rng.uniform(0.1, 3.0, d))
    else:
        base = None
    iters = draw(st.integers(1, 12))
    cfg = DpmmConfig(
        gamma=draw(st.sampled_from([0.1, 0.5, 1.0, 3.0, 20.0])),
        base=base,
        gibbs_iters=iters,
        burn_in=draw(st.integers(0, iters - 1)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return X, cfg


def reference_samples(X, cfg):
    base = cfg.base if cfg.base is not None else NigBase.from_data(X)
    return seated_gibbs_reference(X, base, cfg.gamma, cfg.gibbs_iters, cfg.burn_in, cfg.seed)


@needs_scipy_1_17
class TestSamplerAgainstReference:
    """The batched sampler runs the reference sampler's chain exactly."""

    @settings(max_examples=60, deadline=None)
    @given(gibbs_cases())
    def test_samples_and_scores_equal_bit_for_bit(self, case):
        X, cfg = case
        assert sample_partitions(X, cfg, [(len(X), cfg.seed)]) == [reference_samples(X, cfg)]

    @settings(max_examples=30, deadline=None)
    @given(gibbs_cases())
    def test_gibbs_cluster_takes_the_best_of_its_reference_restarts(self, case):
        """The best sample over RESTARTS reference chains seeded [seed, r],
        ties to the lower r, then to the earlier sample (max keeps the first)."""
        X, cfg = case
        base = cfg.base if cfg.base is not None else NigBase.from_data(X)
        chains = [
            seated_gibbs_reference(X, base, cfg.gamma, cfg.gibbs_iters, cfg.burn_in, [cfg.seed, r])
            for r in range(RESTARTS)
        ]
        best, _ = max((zs for chain in chains for zs in chain), key=lambda zs: zs[1])
        assert gibbs_cluster(X, cfg).assignments == best

    def test_tied_weights_and_emptied_clusters(self, monkeypatch):
        """Copies of three points: clusters holding the same copies tie at
        the maximum weight, and clusters open, empty and get relabelled."""
        X = np.repeat(np.array([[0.0], [0.5], [4.0]]), 6, axis=0)
        cfg = DpmmConfig(gamma=5.0, gibbs_iters=30, burn_in=0, seed=7)
        ties, widths = [], []
        normalizer = dpmm._logsumexp_rows

        def counting(w):
            ties.extend(np.count_nonzero(w == w.max(axis=1, keepdims=True), axis=1).tolist())
            widths.append(w.shape[1])
            return normalizer(w)

        monkeypatch.setattr(dpmm, "_logsumexp_rows", counting)
        (samples,) = sample_partitions(X, cfg, [(len(X), cfg.seed)])
        assert max(ties) > 1
        # normalized both in the padded batch and alone at its own width
        assert min(widths) <= 7 < max(widths)
        sizes = [max(z) + 1 for z, _ in samples]
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
        assert samples == reference_samples(X, cfg)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from([-3.0, 0.0, 0.5, 2.0]) | st.floats(-700.0, 700.0),
                     min_size=1, max_size=70),
            min_size=1, max_size=5,
        ),
        st.booleans(),
    )
    def test_normalizer_rounds_like_scipy(self, rows, padded):
        """Rows of one width, or rows of up to 7 weights -inf padded to the
        widest of them: every value is SciPy's for the row alone."""
        if padded:
            rows = [r[:7] for r in rows]
        else:
            rows = [(r * 70)[: len(rows[0])] for r in rows]
        w = np.full((len(rows), max(len(r) for r in rows)), -np.inf)
        for i, r in enumerate(rows):
            w[i, : len(r)] = r
        assert dpmm._logsumexp_rows(w).tolist() == [logsumexp(r) for r in rows]


@st.composite
def chain_cases(draw):
    """1-5 chains of unequal lengths over rows of one dimension (with exact
    duplicates), a seed per chain, and the config they share."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=5))
    blocks = []
    for n in sizes:
        n_distinct = int(rng.integers(1, n + 1))
        distinct = rng.normal(size=(n_distinct, d)) * float(rng.choice([0.05, 1.0, 20.0]))
        blocks.append(distinct[rng.integers(0, n_distinct, n)])
    base = draw(st.sampled_from(["derived", "scalar", "vector"]))
    if base == "scalar":
        base = NigBase(mu0=0.3, kappa0=0.2, a0=1.5, b0=0.7)
    elif base == "vector":
        base = NigBase(mu0=rng.normal(size=d), kappa0=1.0, a0=0.8, b0=rng.uniform(0.1, 3.0, d))
    else:
        base = None
    iters = draw(st.integers(1, 10))
    cfg = DpmmConfig(
        gamma=draw(st.sampled_from([0.1, 1.0, 3.0, 20.0])),
        base=base,
        gibbs_iters=iters,
        burn_in=draw(st.integers(0, iters - 1)),
    )
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(sizes), max_size=len(sizes)))
    return blocks, seeds, cfg


def run_chains(blocks, seeds, cfg):
    X = np.vstack(blocks)
    return sample_partitions(X, cfg, [(len(b), s) for b, s in zip(blocks, seeds)])


@needs_scipy_1_17
class TestLockstepChains:
    """Chains run together give each chain's samples as if it ran alone."""

    @settings(max_examples=40, deadline=None)
    @given(chain_cases())
    def test_every_chain_equals_the_reference_bit_for_bit(self, case):
        blocks, seeds, cfg = case
        got = run_chains(blocks, seeds, cfg)
        assert len(got) == len(blocks)
        for block, seed, samples in zip(blocks, seeds, got):
            assert samples == reference_samples(block, replace(cfg, seed=seed))

    @settings(max_examples=20, deadline=None)
    @given(chain_cases())
    def test_restarts_equal_the_reference_bit_for_bit(self, case):
        """Every block run as RESTARTS chains seeded [seed, r], the way
        gibbs_cluster and recover_poses run them."""
        blocks, seeds, cfg = case
        runs = [(block, [seed, r]) for block, seed in zip(blocks, seeds) for r in range(RESTARTS)]
        got = run_chains([block for block, _ in runs], [seed for _, seed in runs], cfg)
        assert len(got) == len(runs)
        for (block, seed), samples in zip(runs, got):
            assert samples == reference_samples(block, replace(cfg, seed=seed))

    def test_wide_normalizer_and_emptied_clusters(self, monkeypatch):
        """Three chains of equal length, so all three are in every step: a
        spread-out chain opens 8 or more clusters, and its weights are
        normalized with the chains of its own width while the narrower
        chains share a -inf padded batch. Clusters also empty and get
        swap-deleted."""
        rng = np.random.default_rng(2)
        blocks = [
            rng.normal(size=(20, 2)) * 30.0,
            np.repeat(np.array([[0.0, 0.0], [0.5, 0.1], [4.0, 4.0], [4.2, 3.9]]), 5, axis=0),
            rng.normal(size=(20, 2)),
        ]
        seeds = [5, 6, 7]
        cfg = DpmmConfig(gamma=3.0, gibbs_iters=40, burn_in=0)
        padded, exact = [], []
        normalizer = dpmm._logsumexp_rows

        def grouped(w):
            (padded if w.shape[1] <= 7 else exact).append((w.shape[0], bool(np.isinf(w).any())))
            return normalizer(w)

        monkeypatch.setattr(dpmm, "_logsumexp_rows", grouped)
        got = run_chains(blocks, seeds, cfg)
        # some padded batch pads a row, and no batch wider than 7 does
        assert any(pad for _, pad in padded) and exact and not any(pad for _, pad in exact)
        # every step normalizes all 3 chains, so a padded batch of fewer
        # rows shares its step with an exact-width one
        assert min(n for n, _ in padded) < 3
        for block, seed, samples in zip(blocks, seeds, got):
            assert samples == reference_samples(block, replace(cfg, seed=seed))
        emptied = [
            any(b < a for a, b in zip(sizes, sizes[1:]))
            for sizes in ([max(z) + 1 for z, _ in samples] for samples in got)
        ]
        assert any(emptied)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from([-3.0, 0.0, 0.5, 2.0]) | st.floats(-700.0, 700.0),
                     min_size=1, max_size=7),
            min_size=1, max_size=5,
        )
    )
    def test_row_normalizer_equals_the_single_one(self, rows):
        """A -inf padded batch gives every row the value it gives alone."""
        width = max(len(r) for r in rows)
        w = np.full((len(rows), width), -np.inf)
        for i, r in enumerate(rows):
            w[i, : len(r)] = r
        got = dpmm._logsumexp_rows(w)
        assert got.tolist() == [dpmm._logsumexp_rows(np.array([r]))[0] for r in rows]

    @pytest.mark.parametrize("chains", [[], [(3, 0)], [(4, 0), (3, 1)], [(6, 0), (0, 1)]])
    def test_chain_sizes_must_cover_the_rows(self, chains):
        with pytest.raises(ValueError, match="chain sizes"):
            sample_partitions(np.zeros((6, 1)), DpmmConfig(gibbs_iters=2, burn_in=0), chains)


class TestBenchScale:
    """The sampler at the scale recover_poses runs it keeps its draws."""

    # SHA-256 of repr(samples) below, recorded with the per-chain
    # normalizer that the sampler used before its width groups
    DIGEST = "7259b191a829a039f6a7b05e2bdc6056dd21613d14570fa405f1ee84d6d61fb8"

    def test_samples_keep_their_digest(self, monkeypatch):
        """4 pools of 60-80 rows in 8-D, six clusters and scattered rows
        each, run as RESTARTS chains apiece (16 chains, seeded [pool, r]),
        with 8 or more clusters in some chains. The rows are not projected,
        so BLAS threading cannot move the digest."""
        wide = []
        normalizer = dpmm._logsumexp_rows

        def recording(w):
            if w.shape[1] > 7:
                wide.append((w.shape[1], bool(np.isinf(w).any())))
            return normalizer(w)

        monkeypatch.setattr(dpmm, "_logsumexp_rows", recording)
        rng = np.random.default_rng(24)
        pools = []
        for n in (60, 67, 74, 80):
            centers = rng.normal(size=(6, 8)) * 4.0
            X = centers[rng.integers(0, 6, n)] + rng.normal(size=(n, 8)) * 0.5
            X[: n // 8] = rng.normal(size=(n // 8, 8)) * 8.0
            pools.append(X)
        samples = sample_partitions(
            np.vstack([X for X in pools for _ in range(RESTARTS)]),
            DpmmConfig(),
            [(len(X), [j, r]) for j, X in enumerate(pools) for r in range(RESTARTS)],
        )
        assert max(max(z) + 1 for chain in samples for z, _ in chain) >= 8
        # chains of several widths above 7, none of them padded
        assert len({width for width, _ in wide}) > 1 and not any(pad for _, pad in wide)
        assert hashlib.sha256(repr(samples).encode()).hexdigest() == self.DIGEST


class TestMergeSet:
    def _partition(self):
        # clusters: 0 has 5 members, 1 has 2, 2 has 1  -> 1 and 2 are small
        z = np.array([0, 0, 0, 0, 0, 1, 1, 2])
        return Partition(z)

    def _features(self):
        X = np.zeros((8, 1))
        X[:5, 0] = 0.0
        X[5:7, 0] = 10.0
        X[7, 0] = 11.0
        return X

    def test_enumerates_all_nonempty_small_subsets(self):
        merges = merge_set(self._partition(), small_max=3, features=self._features())
        # {2}, {1}, {2,1}: the smaller cluster 2 comes first, both fold into 0
        assert [d for d, _ in merges] == ["merge[2->0]", "merge[1->0]", "merge[2->0,1->0]"]

    def test_no_large_cluster_no_merges(self):
        p = Partition(np.array([0, 1, 2]))
        assert merge_set(p, small_max=3, features=np.zeros((3, 1))) == []

    def test_no_small_cluster_no_merges(self):
        p = Partition(np.array([0] * 8))
        assert merge_set(p, small_max=3, features=np.zeros((8, 1))) == []

    def test_merged_members_go_to_nearest_large_cluster(self):
        X = self._features()
        X[:5, 0] = 0.0
        p = Partition(np.array([0, 0, 0, 0, 0, 1, 1, 0]))  # one small cluster
        merges = merge_set(p, small_max=3, features=X)
        ((_, m),) = merges
        # all 8 points end up together: small cluster folded into the big one
        assert Partition.from_assignments(m.assignments).n_clusters == 1


class TestMergeDescriptor:
    """merge_set names each merge from its moves; the reference reads the
    same names back from the merged assignments."""

    def test_shared_nearest_large_cluster(self):
        # small clusters 1 and 3 both sit nearest large cluster 0; 4 nearest 2
        z = [0] * 5 + [1, 1] + [2] * 4 + [3] + [4, 4]
        X = np.array([0.0] * 5 + [1.0, 1.2] + [50.0] * 4 + [2.0] + [49.0, 48.0])[:, None]
        p = Partition(tuple(z))
        merges = merge_set(p, small_max=3, features=X)
        assert len(merges) == 7
        assert merges[-1][0] == "merge[3->0,1->0,4->2]"
        for descriptor, pm in merges:
            assert descriptor == merge_descriptor_reference(z, pm.assignments, 3)

    def test_agrees_with_reference_on_random_partitions(self):
        gen = np.random.default_rng(15)
        merges_seen = 0
        for _ in range(200):
            n = int(gen.integers(4, 30))
            p = Partition.from_assignments(gen.integers(0, int(gen.integers(1, 9)), n))
            X = gen.normal(size=(n, 2))
            small_max = int(gen.integers(1, 4))
            for descriptor, pm in merge_set(p, small_max, X):
                ref = merge_descriptor_reference(p.assignments, pm.assignments, small_max)
                assert descriptor == ref, (p.assignments, small_max)
                merges_seen += 1
        assert merges_seen > 300


class TestMergeCap:
    """More than MERGE_ENUM_CAP small clusters: only the 12 smallest are
    screened, ties broken by the lower label."""

    def _case(self):
        # cluster 0: 20 points near 0 (large); cluster 1: a far pair;
        # clusters 2..14: 13 far singletons, so 14 small clusters in all
        z = [0] * 20 + [1, 1] + list(range(2, 15))
        X = np.concatenate(
            [np.linspace(-1.0, 1.0, 20), [500.0, 500.5], 100.0 * np.arange(2, 15)]
        )[:, None]
        scores = np.concatenate([np.full(20, 0.9), np.full(15, 0.2)])
        return Partition(tuple(z)), X, scores

    def test_merge_set_enumerates_capped_subsets(self):
        p, X, _ = self._case()
        assert dpmm.MERGE_ENUM_CAP == 12
        assert len(merge_set(p, small_max=3, features=X)) == 2 ** 12 - 1

    def test_accepted_screen_flags_only_the_twelve_smallest(self):
        p, X, scores = self._case()
        rep = detect_outliers(X, scores, p, DpmmConfig())
        assert rep.accepted and len(rep.per_merge) == 2 ** 12 - 1
        # singletons 2..13 (rows 22..33); the pair (cluster 1) is larger and
        # singleton 14 loses the tie on its label
        assert rep.outlier_indices == tuple(range(22, 34))


class TestScreenVerdict:
    """The verdict of _screen_pool's screen, forced through alpha: a huge
    alpha lowers every merge's bound so the screen accepts, a tiny one
    raises it so the screen rejects. An accepted screen drops the small
    clusters it screened, a rejected one every small cluster."""

    @staticmethod
    def _pool(n_small):
        # cluster 0: 20 points near 0 (large); then n_small far singletons
        z = [0] * 20 + list(range(1, n_small + 1))
        X = np.concatenate([np.linspace(-1.0, 1.0, 20), 100.0 * np.arange(1, n_small + 1)])
        scores = np.concatenate([np.full(20, 0.9), np.full(n_small, 0.2)])
        return X[:, None], scores, [f"img_{k}" for k in range(len(z))], Partition(tuple(z))

    def _kept(self, monkeypatch, n_small, alpha):
        verdicts = []
        monkeypatch.setattr(dpmm, "detect_outliers", lambda *a: verdicts.append(
            detect_outliers(*a)) or verdicts[-1])
        X, scores, ids, p = self._pool(n_small)
        kept = dpmm._screen_pool(X, scores, ids, p, DpmmConfig(alpha=alpha))
        assert [r.accepted for r in verdicts] == [alpha > 1]
        return kept

    @pytest.mark.parametrize("n_small", [1, dpmm.MERGE_ENUM_CAP])
    def test_up_to_the_cap_the_verdict_keeps_the_same_rows(self, monkeypatch, n_small):
        accepted = self._kept(monkeypatch, n_small, 1e300)
        assert accepted == self._kept(monkeypatch, n_small, 1e-300) == list(range(20))

    def test_past_the_cap_an_accepted_screen_keeps_the_unscreened(self, monkeypatch):
        n_small = dpmm.MERGE_ENUM_CAP + 1
        assert self._kept(monkeypatch, n_small, 1e-300) == list(range(20))
        # the last singleton, whose label loses the size tie, is not screened
        assert self._kept(monkeypatch, n_small, 1e300) == [*range(20), 20 + n_small - 1]


class TestDetectOutliers:
    def _planted(self, rng):
        xs = np.concatenate(
            [rng.normal(-10.0, 0.3, 30), rng.normal(10.0, 0.3, 30), [200.0, 200.6]]
        )[:, None]
        scores = np.concatenate([rng.uniform(0.5, 1.0, 60), [0.15, 0.15]])
        return xs, scores

    def test_flags_planted_far_points(self, rng):
        xs, scores = self._planted(rng)
        cfg = DpmmConfig(alpha=1 / 3, gibbs_iters=150, burn_in=50, seed=2)
        p = gibbs_cluster(xs, cfg)
        rep = detect_outliers(xs, scores, p, cfg)
        assert rep.accepted
        assert sorted(rep.outlier_indices) == [60, 61]

    def test_clean_data_keeps_everything(self, rng):
        xs = np.concatenate(
            [rng.normal(-10.0, 0.3, 30), rng.normal(10.0, 0.3, 30)]
        )[:, None]
        scores = rng.uniform(0.5, 1.0, 60)
        cfg = DpmmConfig(alpha=1 / 3, gibbs_iters=150, burn_in=50, seed=2)
        p = gibbs_cluster(xs, cfg)
        rep = detect_outliers(xs, scores, p, cfg)
        assert rep.outlier_indices == ()

    def test_equal_scores_reduce_to_unweighted_bound(self, rng):
        """With identical scores the weight of a cluster is its size, so the
        per-merge bound must match the explicitly unweighted form."""
        xs, _ = self._planted(rng)
        scores = np.full(62, 0.7)
        cfg = DpmmConfig(alpha=1 / 3, gibbs_iters=150, burn_in=50, seed=2)
        p = gibbs_cluster(xs, cfg)
        rep = detect_outliers(xs, scores, p, cfg)
        from scipy.special import gammaln

        merges = merge_set(p, cfg.small_cluster_max, xs)
        assert len(merges) == len(rep.per_merge) > 0
        for (descriptor, pm), ev in zip(merges, rep.per_merge):
            assert ev.descriptor == descriptor
            nu = p.n_clusters - pm.n_clusters  # clusters removed by the merge
            expect = (
                -nu * np.log(cfg.alpha)
                + gammaln(pm.sizes()).sum()
                - gammaln(p.sizes()).sum()
            )
            assert ev.log_lower_bound == pytest.approx(expect, rel=1e-9)

    def test_report_formatting(self, rng):
        xs, scores = self._planted(rng)
        cfg = DpmmConfig(alpha=1 / 3, gibbs_iters=150, burn_in=50, seed=2)
        p = gibbs_cluster(xs, cfg)
        rep = detect_outliers(xs, scores, p, cfg)
        text = format_outlier_report(rep)
        assert "accepted yes" in text
        assert "outliers 60,61" in text
        assert any(line.endswith(("PASS", "FAIL")) for line in text.splitlines())


class TestRecoverPoses:
    def _pool(self, rng, centers, image_prefix="img"):
        """(features, scores, image ids): row k is image <prefix>_k at centers[k]."""
        X = np.asarray(centers, dtype=float)
        return X, rng.uniform(0.4, 1.0, len(X)), [f"{image_prefix}_{k}" for k in range(len(X))]

    def test_too_few_candidates_recovers_nothing(self, rng):
        pool = self._pool(rng, [[0.0], [1.0], [2.0]])
        assert recover_poses([pool], DpmmConfig(), [0]) == []

    def test_keeps_cluster_members_drops_far_outliers(self, rng):
        centers = (
            [[v] for v in rng.normal(-10, 0.3, 20)]
            + [[v] for v in rng.normal(10, 0.3, 20)]
            + [[200.0], [200.5]]
        )
        pool = self._pool(rng, centers)
        cfg = DpmmConfig(alpha=1 / 3, gibbs_iters=150, burn_in=50, seed=4)
        kept = recover_poses([pool], cfg, [cfg.seed])
        assert {j for j, _ in kept} == {0}
        kept_ids = {pool[2][row] for _, row in kept}
        assert "img_40" not in kept_ids and "img_41" not in kept_ids
        assert len(kept) == 40

    def test_one_pose_per_image(self, rng):
        centers = [[v] for v in rng.normal(0, 0.3, 24)]
        X, scores, _ = self._pool(rng, centers)
        # same image for everything: only one winner may come back
        cfg = DpmmConfig(gibbs_iters=100, burn_in=30, seed=4)
        kept = recover_poses([(X, scores, ["same"] * len(X))], cfg, [cfg.seed])
        assert len(kept) <= 1

    def test_pools_equal_recovering_each_alone(self, rng, monkeypatch):
        """Pools projected to equal dimensions share one sampler call; each
        pool's poses are those of recovering it alone with its seed."""
        sizes = [20, 6, 3, 22]  # projected to 8, 5, (too few), 8 dimensions
        pools = [
            self._pool(rng, rng.normal(size=(n, 10)) + 4.0 * rng.integers(0, 2, (n, 1)), f"p{j}")
            for j, n in enumerate(sizes)
        ]
        seeds = [3, 1, 4, 1]
        cfg = DpmmConfig(gibbs_iters=30, burn_in=10)
        alone = [recover_poses([pool], cfg, [s]) for pool, s in zip(pools, seeds)]
        calls = []
        sampler = dpmm.sample_partitions

        def counting(features, cfg, chains):
            calls.append([n for n, _ in chains])
            return sampler(features, cfg, chains)

        monkeypatch.setattr(dpmm, "sample_partitions", counting)
        together = recover_poses(pools, cfg, seeds)
        assert calls == [[20] * RESTARTS + [22] * RESTARTS, [6] * RESTARTS]
        # each pool's rows, renumbered from pool 0 alone to pool j
        assert together == [(j, row) for j, kept in enumerate(alone) for _, row in kept]
        assert alone[2] == [] and all(alone[j] for j in (0, 1, 3))

    def test_one_seed_per_pool(self, rng):
        pools = [self._pool(rng, [[v] for v in range(5)])] * 2
        with pytest.raises(ValueError, match="one seed per pool"):
            recover_poses(pools, DpmmConfig(), [1])
