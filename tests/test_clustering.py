import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjusted_rand_index
from dynlayout import clustering
from dynlayout.clustering import (_assignment, _block_statistics, affect_alpha,
                                  affect_cluster_step, affect_smooth, kmeans, match_labels,
                                  spectral_cluster)
from dynlayout.errors import DataError
from dynlayout.sbm import sbm_sample


def two_block_labels(n):
    labels = np.ones(n, dtype=int)
    labels[n // 2:] = 2
    return labels


def oracle_alpha(psi_prev, W, labels):
    """Direct re-evaluation of the displayed estimator with plug-in block
    statistics: one observation per distinct unordered off-diagonal pair."""
    n = W.shape[0]
    num = 0.0
    den = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            entries = [W[a, b] for a in range(n) for b in range(a + 1, n)
                       if {labels[a], labels[b]} == {labels[i], labels[j]}]
            mean = float(np.mean(entries))
            var = float(np.var(entries, ddof=1)) if len(entries) >= 2 else 0.0
            num += var
            den += (psi_prev[i, j] - mean) ** 2 + var
    if den == 0:
        return 0.0
    return min(max(num / den, 0.0), 1.0)


def loop_block_statistics(W, labels, k):
    """Block means and variances gathered pair by pair in row-major order."""
    means = np.zeros((k, k))
    variances = np.zeros((k, k))
    for c in range(1, k + 1):
        rows = np.flatnonzero(labels == c)
        for d in range(c, k + 1):
            cols = np.flatnonzero(labels == d)
            if d == c:
                entries = np.array([W[i, j] for a, i in enumerate(rows)
                                    for j in rows[a + 1:]])
            else:
                entries = np.array([W[i, j] for i in rows for j in cols])
            if entries.size:
                means[c - 1, d - 1] = means[d - 1, c - 1] = entries.mean()
            if entries.size >= 2:
                variances[c - 1, d - 1] = variances[d - 1, c - 1] = entries.var(ddof=1)
    return means, variances


class TestBlockStatistics:
    @given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200)
    def test_matches_pairwise_loop(self, n, k, seed):
        rng = np.random.default_rng(seed)
        W = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
        W = W + W.T
        labels = rng.integers(1, k + 1, size=n)
        ours = _block_statistics(W, labels, k)
        ref = loop_block_statistics(W, labels, k)
        assert np.array_equal(ours[0], ref[0]) and np.array_equal(ours[1], ref[1])


class TestAffectAlpha:
    def test_zero_variance_gives_zero(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        psi_prev = np.random.default_rng(0).random((4, 4))
        # within each block all entries are equal -> all block variances 0
        labels = [1, 1, 2, 2]
        W[0, 1] = W[1, 0] = 1.0
        assert affect_alpha(psi_prev, W, labels) == 0.0

    def test_prev_equal_to_block_means_gives_one(self, rng):
        labels = two_block_labels(8)
        W = sbm_sample(np.array([[0.8, 0.2], [0.2, 0.8]]), labels, rng)
        # build the block-mean matrix entry by entry
        n = 8
        means = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                entries = [W[a, b] for a in range(n) for b in range(n)
                           if a != b and labels[a] == labels[i] and labels[b] == labels[j]]
                means[i, j] = np.mean(entries)
        alpha = affect_alpha(means, W, labels)
        assert alpha == pytest.approx(1.0)

    def test_matches_formula_oracle_on_sbm_stream(self, rng):
        labels = two_block_labels(8)
        P = np.array([[0.9, 0.1], [0.1, 0.9]])
        psi = sbm_sample(P, labels, rng).astype(float)
        for _ in range(3):
            W = sbm_sample(P, labels, rng)
            ours = affect_alpha(psi, W, labels)
            expected = oracle_alpha(psi, W, labels)
            assert ours == pytest.approx(expected, abs=1e-12)
            psi = affect_smooth(psi, W, ours)

    def test_always_clipped_to_unit_interval(self, rng):
        for _ in range(20):
            labels = rng.integers(1, 4, size=10)
            labels[:3] = [1, 2, 3]
            W = sbm_sample(np.full((3, 3), 0.5), labels, rng)
            psi = rng.random((10, 10))
            psi = (psi + psi.T) / 2
            alpha = affect_alpha(psi, W, labels)
            assert 0.0 <= alpha <= 1.0


class TestAffectSmooth:
    def test_alpha_zero_returns_current(self, rng):
        W = rng.random((4, 4))
        psi = rng.random((4, 4))
        assert np.array_equal(affect_smooth(psi, W, 0.0), W)

    def test_alpha_one_returns_previous(self, rng):
        W = rng.random((4, 4))
        psi = rng.random((4, 4))
        assert np.array_equal(affect_smooth(psi, W, 1.0), psi)

    def test_half_blend_of_constants(self):
        out = affect_smooth(np.full((3, 3), 2.0), np.full((3, 3), 2.0), 0.5)
        assert np.allclose(out, 2.0)

    def test_preserves_symmetry(self, rng):
        W = rng.random((5, 5))
        W = (W + W.T) / 2
        psi = rng.random((5, 5))
        psi = (psi + psi.T) / 2
        out = affect_smooth(psi, W, 0.3)
        assert np.array_equal(out, out.T)


class TestSpectralCluster:
    def test_two_disconnected_cliques(self):
        W = np.zeros((6, 6))
        W[:3, :3] = 1.0
        W[3:, 3:] = 1.0
        np.fill_diagonal(W, 0.0)
        labels = spectral_cluster(W, 2, seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_permutation_consistency(self, rng):
        labels_true = two_block_labels(10)
        W = sbm_sample(np.array([[0.95, 0.02], [0.02, 0.95]]), labels_true, rng)
        perm = rng.permutation(10)
        labels_a = spectral_cluster(W, 2, seed=5)
        labels_b = spectral_cluster(W[np.ix_(perm, perm)], 2, seed=5)
        assert adjusted_rand_index(labels_a[perm], labels_b) == pytest.approx(1.0)

    def test_planted_two_block_recovery_over_seeds(self):
        hits = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            labels_true = two_block_labels(12)
            W = sbm_sample(np.array([[0.9, 0.05], [0.05, 0.9]]), labels_true, rng)
            found = spectral_cluster(W, 2, seed=seed)
            hits.append(adjusted_rand_index(found, labels_true))
        assert np.mean(hits) == pytest.approx(1.0)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(DataError):
            spectral_cluster(np.zeros((3, 3)), 4, seed=0)


def sequential_kmeans(points, k, seed, restarts=100, max_iter=300, revived=None):
    """Reference: the restarts of ``kmeans`` run one after another, each a
    furthest-first start and Lloyd rounds with empty-cluster revival; each
    revival's (first index, round) is appended to ``revived`` when given."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, np.inf
    tried = set()
    for _ in range(restarts):
        first = int(rng.integers(n))
        if first in tried:
            continue
        tried.add(first)
        chosen = [first]
        dist = np.linalg.norm(points - points[first], axis=1)
        while len(chosen) < k:
            nxt = int(np.argmax(dist))
            chosen.append(nxt)
            dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
        centers = points[chosen].copy()
        labels = np.zeros(n, dtype=int)
        for rnd in range(max_iter):
            dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
            new_labels = np.argmin(dists, axis=1)
            fit = dists[np.arange(n), new_labels]
            for c in range(k):
                if not np.any(new_labels == c):
                    # the worst-fit point of a cluster that keeps another member
                    size = np.bincount(new_labels, minlength=k)
                    worst = int(np.argmax(np.where(size[new_labels] > 1, fit, -np.inf)))
                    new_labels[worst] = c
                    centers[c] = points[worst]
                    if revived is not None:
                        revived.append((first, rnd))
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                centers[c] = points[labels == c].mean(axis=0)
        wcss = float(np.sum((points - centers[labels]) ** 2))
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels + 1, best_wcss


@st.composite
def kmeans_inputs(draw, columns=st.integers(2, 4)):
    """Up to 9 points on a coarse grid, some rows duplicated (ties are
    common there), or up to 60 points in general position (the 100
    first-index draws then leave some points unused), with 2 to 4 columns
    and k anywhere from 1 to the number of distinct rows."""
    s = draw(columns)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        points = rng.integers(0, 3, size=(n, s)).astype(float)
        if draw(st.booleans()):
            points = points[rng.integers(0, n, size=n)]
    else:
        n = draw(st.integers(1, 60))
        points = rng.standard_normal((n, s))
    distinct = len(np.unique(points, axis=0))
    return points, draw(st.integers(1, distinct)), draw(st.integers(0, 2**31 - 1))


# seven distinct rows: on a restart from the point (0, 1.83), the clusters
# around it take all of its members in the second round, so it is revived
REVIVAL_POINTS = np.array([[0.0, 1.83], [0.0, 5.67], [-5.97, -1.46], [5.97, -1.46]]
                          + [[0.0, 3.87]] * 4 + [[-1.64, -1.46], [1.64, -1.46]] * 4
                          + [[-2.18, -1.46], [2.18, -1.46]] * 5)


class TestKmeans:
    @given(kmeans_inputs())
    @settings(deadline=None, max_examples=100)
    def test_matches_sequential_restarts(self, case):
        points, k, seed = case
        labels, wcss = kmeans(points, k, seed)
        ref_labels, ref_wcss = sequential_kmeans(points, k, seed)
        assert np.array_equal(labels, ref_labels)
        assert wcss == ref_wcss

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunked_restarts_match_sequential_restarts(self, monkeypatch, chunk):
        # a budget of ``chunk`` restarts' distance terms splits the
        # lockstep run into chunks; the first lowest WCSS still wins
        rng = np.random.default_rng(chunk)
        for _ in range(10):
            n, s = int(rng.integers(10, 40)), int(rng.integers(2, 5))
            points = rng.integers(0, 4, size=(n, s)).astype(float)
            k, seed = int(rng.integers(2, 6)), int(rng.integers(2**31))
            monkeypatch.setattr(clustering, "_LOCKSTEP_ELEMENTS", chunk * n * k * s)
            labels, wcss = kmeans(points, k, seed)
            ref_labels, ref_wcss = sequential_kmeans(points, k, seed)
            assert np.array_equal(labels, ref_labels) and wcss == ref_wcss

    def test_revival_matches_sequential_restarts(self):
        revived = []
        labels, wcss = kmeans(REVIVAL_POINTS, 4, seed=5)
        assert set(labels) == {1, 2, 3, 4}
        ref_labels, ref_wcss = sequential_kmeans(REVIVAL_POINTS, 4, seed=5, revived=revived)
        assert np.array_equal(labels, ref_labels) and wcss == ref_wcss
        assert (0, 1) in revived

    @given(kmeans_inputs(columns=st.integers(1, 4)))
    @settings(deadline=None, max_examples=100)
    def test_every_label_used_without_cycling(self, case):
        # at least k distinct rows: each revival lowers the sum of squares,
        # so no center is NaN and no restart comes near the round cap
        points, k, seed = case
        original, centers = clustering._member_means, []

        def member_means(*args):
            centers.append(original(*args))
            return centers[-1]

        with pytest.MonkeyPatch.context() as mp:
            # one chunk: a round of the longest restart computes means once
            mp.setattr(clustering, "_LOCKSTEP_ELEMENTS", 1 << 30)
            mp.setattr(clustering, "_member_means", member_means)
            labels, wcss = kmeans(points, k, seed)
        assert set(labels) == set(range(1, k + 1))
        assert all(np.all(np.isfinite(c)) for c in centers) and np.isfinite(wcss)
        assert len(centers) <= 30

    @pytest.mark.parametrize("first", range(5))
    def test_each_empty_cluster_revived_with_its_own_point(self, first):
        # furthest-first picks a copy of (0, 0) three times, so two clusters
        # start empty; each takes another copy, and no mean is NaN (``kmeans``
        # itself rejects these points, which hold two distinct rows)
        points = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, wcss = clustering._lockstep_lloyd(points, 4, np.array([first]))
        assert set(labels[0]) == {0, 1, 2, 3} and wcss[0] == 0.0

    def test_fewer_distinct_rows_than_clusters_rejected(self):
        # three clusters of two distinct rows would have to share a center
        points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DataError, match="cannot form 3 clusters from 2 distinct points"):
            kmeans(points, 3, seed=5)

    def test_obvious_two_clusters(self):
        pts = np.array([[0.0, 0], [0.1, 0], [5.0, 5.0], [5.1, 5.0]])
        labels, wcss = kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert wcss < 0.1

    def test_deterministic_under_seed(self, rng):
        pts = rng.standard_normal((20, 3))
        a = kmeans(pts, 3, seed=42)
        b = kmeans(pts, 3, seed=42)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestMatchLabels:
    def test_matching_is_permutation(self, rng):
        ref = rng.integers(1, 4, size=12)
        cur = rng.integers(1, 4, size=12)
        out = match_labels(ref, cur, 3)
        # the relabeling is a bijection on {1..3}
        mapping = {}
        for before, after in zip(cur, out):
            mapping.setdefault(before, after)
            assert mapping[before] == after
        assert len(set(mapping.values())) == len(mapping)

    def test_recovers_renaming(self):
        ref = np.array([1, 1, 2, 2, 3, 3])
        renamed = np.array([2, 2, 3, 3, 1, 1])
        assert np.array_equal(match_labels(ref, renamed, 3), ref)


@st.composite
def tie_heavy_costs(draw):
    """Square cost matrices, k = 1..10, whose entries repeat often: small
    integers, floats rounded to one decimal, constants, and the negated
    overlap counts (with their -0.0) that label matching passes."""
    k = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["int", "rounded", "constant", "overlap"]))
    if kind == "constant":
        return np.full((k, k), draw(st.sampled_from([0.0, -0.0, 1.0, -2.5])))
    entries = {"int": st.integers(-3, 3).map(float),
               "rounded": st.floats(-2, 2).map(lambda x: round(x, 1)),
               "overlap": st.integers(0, 4).map(lambda x: -float(x))}[kind]
    return np.array(draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k)


class TestAssignment:
    @given(tie_heavy_costs())
    @settings(max_examples=600, deadline=None)
    def test_matches_scipy_bit_for_bit(self, cost):
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        assert np.array_equal(rows, np.arange(cost.shape[0]))
        assert _assignment(cost) == cols.tolist()

    def test_label_permutation_keeps_scipy_result(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            ref, cur = rng.integers(1, k + 1, size=(2, 15))
            names = np.arange(1, k + 1)
            overlap = ((ref[:, None] == names).T.astype(float)
                       @ (cur[:, None] == names).astype(float))
            rows, cols = scipy.optimize.linear_sum_assignment(-overlap)
            expected = np.empty(k, dtype=int)
            expected[cols] = rows + 1
            assert np.array_equal(clustering.label_permutation(ref, cur, k), expected)


class TestAffectClusterStep:
    def test_first_step_has_zero_alpha_and_static_labels(self, rng):
        labels_true = two_block_labels(10)
        W = sbm_sample(np.array([[0.9, 0.05], [0.05, 0.9]]), labels_true, rng)
        labels, psi, alpha = affect_cluster_step(None, W, None, 2, seed=3)
        assert alpha == 0.0
        assert np.array_equal(psi, W)
        assert np.array_equal(labels, spectral_cluster(W, 2, seed=3))

    def test_prev_label_permutation_irrelevant_up_to_relabeling(self, rng):
        labels_true = two_block_labels(10)
        P = np.array([[0.9, 0.1], [0.1, 0.9]])
        psi_prev = sbm_sample(P, labels_true, rng).astype(float)
        W = sbm_sample(P, labels_true, rng)
        prev = labels_true
        swapped = 3 - labels_true  # swap names 1 <-> 2
        a, _, alpha_a = affect_cluster_step(psi_prev, W, prev, 2, seed=7)
        b, _, alpha_b = affect_cluster_step(psi_prev, W, swapped, 2, seed=7)
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)
        assert alpha_a == pytest.approx(alpha_b)

    def test_alpha_grows_on_stationary_stream(self):
        # more accumulated history -> more smoothing on average
        early, late = [], []
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            labels_true = two_block_labels(12)
            P = np.array([[0.8, 0.2], [0.2, 0.8]])
            psi = None
            labels = None
            alphas = []
            for t in range(6):
                W = sbm_sample(P, labels_true, rng)
                labels, psi, alpha = affect_cluster_step(psi, W, labels, 2,
                                                         seed=seed * 10 + t)
                alphas.append(alpha)
            early.append(alphas[1])
            late.append(alphas[5])
        assert np.mean(late) > np.mean(early)


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_disagreement_is_low(self):
        value = adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2])
        assert value < 0.1
