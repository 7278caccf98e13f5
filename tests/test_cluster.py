import math
import re
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from tonelab import (
    ClusterAssignment,
    Dendrogram,
    DialectCorpus,
    DistanceMatrix,
    InputError,
    LINKAGES,
    NOISE,
    RegionLexicon,
    canonical_transcriptions,
    classical_mds,
    cut_tree,
    dbscan,
    hierarchical_cluster,
    parse_transcription,
    region_distance_matrix,
    two_cluster_accuracy,
)

# ---------------------------------------------------------------------------
# naive recompute-from-scratch linkage oracle


def _halving_weights(tree):
    if isinstance(tree, tuple):
        weights = {}
        for child in tree:
            for leaf, w in _halving_weights(child).items():
                weights[leaf] = weights.get(leaf, 0.0) + w / 2.0
        return weights
    return {tree: 1.0}


def _uniform_weights(members):
    w = 1.0 / len(members)
    return {leaf: w for leaf in members}


def _weighted_cross(wa, wb, base):
    return sum(pa * pb * base[a][b] for a, pa in wa.items() for b, pb in wb.items())


def _centroid_sq(wa, wb, base_sq):
    cross = _weighted_cross(wa, wb, base_sq)
    within_a = _weighted_cross(wa, wa, base_sq)
    within_b = _weighted_cross(wb, wb, base_sq)
    return cross - 0.5 * within_a - 0.5 * within_b


def naive_set_distance(linkage, cluster_a, cluster_b, base, base_sq):
    tree_a, members_a = cluster_a
    tree_b, members_b = cluster_b
    if linkage == "sl":
        return min(base[a][b] for a in members_a for b in members_b)
    if linkage == "cl":
        return max(base[a][b] for a in members_a for b in members_b)
    if linkage == "ga":
        return _weighted_cross(_uniform_weights(members_a), _uniform_weights(members_b), base)
    if linkage == "wa":
        return _weighted_cross(_halving_weights(tree_a), _halving_weights(tree_b), base)
    if linkage == "uc":
        return _centroid_sq(_uniform_weights(members_a), _uniform_weights(members_b), base_sq)
    if linkage == "wc":
        return _centroid_sq(_halving_weights(tree_a), _halving_weights(tree_b), base_sq)
    if linkage == "mv":
        na, nb = len(members_a), len(members_b)
        centroid = _centroid_sq(_uniform_weights(members_a), _uniform_weights(members_b), base_sq)
        return 2.0 * na * nb / (na + nb) * centroid
    raise AssertionError(linkage)


def naive_linkage_steps(values, linkage):
    """Agglomerate by recomputing every inter-cluster distance from scratch."""
    n = len(values)
    base = [[float(values[i][j]) for j in range(n)] for i in range(n)]
    base_sq = [[base[i][j] ** 2 for j in range(n)] for i in range(n)]
    squared = linkage in ("uc", "wc", "mv")
    clusters = {i: (i, (i,)) for i in range(n)}
    steps = []
    for step in range(n - 1):
        ids = sorted(clusters)
        best, pair = math.inf, None
        for x, i in enumerate(ids):
            for j in ids[x + 1:]:
                v = naive_set_distance(linkage, clusters[i], clusters[j], base, base_sq)
                if v < best:
                    best, pair = v, (i, j)
        i, j = pair
        tree = (clusters[i][0], clusters[j][0])
        members = clusters[i][1] + clusters[j][1]
        del clusters[i], clusters[j]
        clusters[n + step] = (tree, members)
        height = math.sqrt(max(best, 0.0)) if squared else best
        steps.append((i, j, height, len(members)))
    return steps


def random_distance_matrix(rng, n):
    values = rng.uniform(0.1, 10.0, size=(n, n))
    values = 0.5 * (values + values.T)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(tuple(str(i) for i in range(n)), values)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_linkage_matches_naive_oracle(linkage):
    rng = np.random.default_rng(hash(linkage) % 2**32)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        dm = random_distance_matrix(rng, n)
        mine = hierarchical_cluster(dm, linkage).steps
        ref = naive_linkage_steps(dm.values, linkage)
        for (a, b, h, s), (ra, rb, rh, rs) in zip(mine, ref):
            assert (a, b, s) == (ra, rb, rs)
            assert h == pytest.approx(rh, abs=1e-8)


def test_dominated_structure_merges_pairs_first():
    values = np.array([
        [0, 1, 10, 10],
        [1, 0, 10, 10],
        [10, 10, 0, 1],
        [10, 10, 1, 0],
    ], dtype=float)
    dm = DistanceMatrix(("A", "B", "C", "D"), values)
    for linkage in LINKAGES:
        steps = hierarchical_cluster(dm, linkage).steps
        assert {(steps[0][0], steps[0][1]), (steps[1][0], steps[1][1])} == {(0, 1), (2, 3)}


def test_chain_example_single_vs_complete():
    # AB=1, BC=1.1, AC=2.1, D far from everything
    values = np.array([
        [0.0, 1.0, 2.1, 100.0],
        [1.0, 0.0, 1.1, 100.0],
        [2.1, 1.1, 0.0, 100.0],
        [100.0, 100.0, 100.0, 0.0],
    ])
    dm = DistanceMatrix(("A", "B", "C", "D"), values)
    sl = hierarchical_cluster(dm, "sl").steps
    assert (sl[0][0], sl[0][1], sl[0][2]) == (0, 1, 1.0)
    assert (sl[1][0], sl[1][1]) == (2, 4)
    assert sl[1][2] == pytest.approx(1.1)
    cl = hierarchical_cluster(dm, "cl").steps
    assert (cl[0][0], cl[0][1], cl[0][2]) == (0, 1, 1.0)
    assert (cl[1][0], cl[1][1]) == (2, 4)
    assert cl[1][2] == pytest.approx(2.1)


def test_equal_height_ties_break_to_smallest_pair():
    values = np.array([
        [0.0, 1.0, 5.0, 5.0],
        [1.0, 0.0, 5.0, 5.0],
        [5.0, 5.0, 0.0, 1.0],
        [5.0, 5.0, 1.0, 0.0],
    ])
    dm = DistanceMatrix(("A", "B", "C", "D"), values)
    for linkage in LINKAGES:
        steps = hierarchical_cluster(dm, linkage).steps
        assert (steps[0][0], steps[0][1]) == (0, 1)  # tie with (2, 3) at height 1
        assert (steps[1][0], steps[1][1]) == (2, 3)


def test_two_item_matrix_single_merge():
    dm = DistanceMatrix(("a", "b"), np.array([[0.0, 3.5], [3.5, 0.0]]))
    for linkage in LINKAGES:
        steps = hierarchical_cluster(dm, linkage).steps
        assert len(steps) == 1
        assert steps[0][:3] == (0, 1, 3.5)


def test_sl_cl_heights_monotone():
    rng = np.random.default_rng(12)
    for _ in range(20):
        dm = random_distance_matrix(rng, int(rng.integers(3, 10)))
        for linkage in ("sl", "cl"):
            heights = [s[2] for s in hierarchical_cluster(dm, linkage).steps]
            assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))


def test_centroid_inversion_is_possible():
    # near-equilateral triangle: the merged pair's centroid sits closer to the
    # third point than the first merge height
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]])
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    dm = DistanceMatrix(("a", "b", "c"), d)
    heights = [s[2] for s in hierarchical_cluster(dm, "uc").steps]
    assert heights[1] < heights[0]


def test_partition_invariant_under_permutation():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        dm = random_distance_matrix(rng, n)
        perm = rng.permutation(n)
        permuted = DistanceMatrix(
            tuple(dm.labels[p] for p in perm), dm.values[np.ix_(perm, perm)]
        )
        for linkage in LINKAGES:
            for k in range(1, n + 1):
                base = cut_tree(hierarchical_cluster(dm, linkage), k).labels
                shuffled = cut_tree(hierarchical_cluster(permuted, linkage), k).labels
                # same partition up to relabeling: compare co-membership
                for i in range(n):
                    for j in range(n):
                        same_base = base[i] == base[j]
                        same_perm = shuffled[list(perm).index(i)] == shuffled[list(perm).index(j)]
                        assert same_base == same_perm


def test_linkage_input_validation():
    dm = DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InputError):
        hierarchical_cluster(dm, "nope")
    with pytest.raises(InputError):
        hierarchical_cluster(DistanceMatrix(("a",), np.zeros((1, 1))), "sl")


def _huge_matrix():
    """Valid distances whose squares overflow to inf."""
    values = np.array([[0.0, 1e200, 2e200], [1e200, 0.0, 3e200], [2e200, 3e200, 0.0]])
    return DistanceMatrix(("a", "b", "c"), values)


@pytest.mark.parametrize("linkage", ("sl", "cl", "ga", "wa"))
def test_linkage_rejects_distances_whose_squares_overflow(linkage):
    """The linkages that never square take distances up to the float limit, where
    ga and wa would overflow adding two of them unscaled."""
    base = DistanceMatrix(("a", "b", "c"), np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.75],
                                                     [1.5, 1.75, 0.0]]))
    limit = DistanceMatrix(base.labels, np.ldexp(base.values, 1023))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        steps = hierarchical_cluster(limit, linkage).steps
    want = [(a, b, math.ldexp(h, 1023), size)
            for a, b, h, size in hierarchical_cluster(base, linkage).steps]
    assert _exact(steps) == _exact(want)


def test_wide_range_distances_keep_their_small_merges():
    """The largest distance is scaled to just below 2**480 before squaring, and to
    just below 2**1000 by the linkages that never square, so the squares of distances
    far smaller stay normal and the smallest entries keep their merges."""
    for small, large in ((1e-100, 1e100), (1e-150, 1e147)):
        wide = np.array([[0.0, 1.0, 2.0, large], [1.0, 0.0, 1.5, large],
                         [2.0, 1.5, 0.0, large], [large, large, large, 0.0]])
        np.multiply(wide, small, out=wide, where=wide < 3)
        dm = DistanceMatrix(("a", "b", "c", "d"), wide)
        for linkage in ("uc", "wc", "mv"):
            steps = hierarchical_cluster(dm, linkage).steps
            assert steps[0] == (0, 1, small, 2) and steps[1][:2] == (2, 4), linkage
    extreme = DistanceMatrix(("a", "b", "c"), np.array(
        [[0.0, 2e-300, 1e-300], [2e-300, 0.0, 1e300], [1e-300, 1e300, 0.0]]))
    for linkage in ("sl", "cl", "ga", "wa"):
        assert hierarchical_cluster(extreme, linkage).steps[0] == (0, 2, 1e-300, 2), linkage


def _assert_scales(dm, k):
    """Linkage merges of dm * 2**k are those of dm, with every height multiplied by
    exactly 2**k, MDS coordinates are exactly 2**k times those of dm, and nothing
    warns: both scale their input to the same target whatever k is."""
    big = DistanceMatrix(dm.labels, np.ldexp(dm.values, k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for linkage in LINKAGES:
            want = [(a, b, math.ldexp(h, k), size)
                    for a, b, h, size in hierarchical_cluster(dm, linkage).steps]
            assert _exact(hierarchical_cluster(big, linkage).steps) == _exact(want), linkage
        for dims in (1, 2):
            got, want = classical_mds(big, dims), classical_mds(dm, dims)
            assert (got == np.ldexp(want, k)).all(), dims


def test_tiny_distances_whose_squares_underflow_keep_their_heights():
    base = np.array([[0.0, 1.0, 4.0, 9.0], [1.0, 0.0, 2.0, 6.0],
                     [4.0, 2.0, 0.0, 3.0], [9.0, 6.0, 3.0, 0.0]])
    tiny = DistanceMatrix(("a", "b", "c", "d"), np.ldexp(base, -540))
    heights = [h for _a, _b, h, _size in hierarchical_cluster(tiny, "mv").steps]
    assert heights == [math.ldexp(h, -540) for h in (1.0, 3.0, 7.968688725254614)]
    _assert_scales(DistanceMatrix(tiny.labels, base), -540)


def test_squares_far_below_the_largest_distance_keep_their_merges():
    """Squared unscaled, entries near 1e-170 beside a largest distance of 1 would
    underflow to 0 and leave their merges to the tie rule."""
    dm = DistanceMatrix(("a", "b", "c", "d"), np.array(
        [[0, 2e-170, 1e-170, 1], [2e-170, 0, 3e-170, 1], [1e-170, 3e-170, 0, 1], [1, 1, 1, 0]]))
    for linkage in LINKAGES:
        steps = hierarchical_cluster(dm, linkage).steps
        assert [s[:2] for s in steps[:2]] == [(0, 2), (1, 4)], linkage
        assert steps[0][2] == 1e-170 and steps[1][2] > 0, linkage
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dims in (1, 2):
            assert np.isfinite(classical_mds(dm, dims)).all()
        assert (classical_mds(dm, 1)[:3] != 0).all()


@pytest.mark.parametrize("case", ["huge", "centred", "eigh"])
def test_huge_distances_cluster_and_embed_scaled(case):
    dm = _huge_matrix() if case == "huge" else _near_limit_matrix(case)
    _assert_scales(DistanceMatrix(dm.labels, np.ldexp(dm.values, -512)), 512)


@pytest.mark.parametrize("k", [-1000, -600, -540, -150, -20, 20, 150, 250, 300, 500, 800,
                               1000])
def test_distances_out_of_band_scale_exactly(k):
    rng = np.random.default_rng(abs(k))
    for n in (3, 8, 30):
        for kind in ("int0-2", "deciles"):  # tie-heavy
            _assert_scales(_seeded_matrix(rng, n, kind, False), k)
        _assert_scales(_normal_points_matrix(n, n), k)  # Euclidean


# ---------------------------------------------------------------------------
# bit-identity against the scalar merge loop the vectorized kernel replaced


def _scalar_update(linkage, d_ik, d_jk, d_ij, n_i, n_j, n_k):
    if linkage == "sl":
        return min(d_ik, d_jk)
    if linkage == "cl":
        return max(d_ik, d_jk)
    if linkage == "ga":
        return (n_i * d_ik + n_j * d_jk) / (n_i + n_j)
    if linkage == "wa":
        return 0.5 * (d_ik + d_jk)
    if linkage == "uc":
        n_ij = n_i + n_j
        return (n_i * d_ik + n_j * d_jk) / n_ij - (n_i * n_j * d_ij) / (n_ij * n_ij)
    if linkage == "wc":
        return 0.5 * d_ik + 0.5 * d_jk - 0.25 * d_ij
    n_all = n_i + n_j + n_k
    return ((n_i + n_k) * d_ik + (n_j + n_k) * d_jk - n_k * d_ij) / n_all


def scalar_linkage_steps(dm, linkage):
    """Frozen copy of the pair-scanning loop: every active pair, every merge."""
    n = len(dm)
    squared = linkage in ("uc", "wc", "mv")
    total = 2 * n - 1
    work = np.full((total, total), np.inf)
    base = dm.values.astype(float)
    work[:n, :n] = base * base if squared else base
    sizes = {i: 1 for i in range(n)}
    steps = []
    for step in range(n - 1):
        active = sorted(sizes)
        best, pair = math.inf, None
        for ai, i in enumerate(active):
            row = work[i]
            for j in active[ai + 1:]:
                if row[j] < best:
                    best, pair = row[j], (i, j)
        i, j = pair
        new_id = n + step
        d_ij = float(work[i, j])
        n_i, n_j = sizes[i], sizes[j]
        for k in active:
            if k != i and k != j:
                upd = _scalar_update(linkage, work[i, k], work[j, k], d_ij,
                                     n_i, n_j, sizes[k])
                work[new_id, k] = work[k, new_id] = upd
        del sizes[i], sizes[j]
        sizes[new_id] = n_i + n_j
        height = math.sqrt(max(d_ij, 0.0)) if squared else d_ij
        steps.append((i, j, height, n_i + n_j))
    return tuple(steps)


def _exact(steps):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(a, b, float(h).hex(), s) for a, b, h, s in steps]


def _seeded_matrix(rng, n, kind, jitter):
    if kind == "uniform":
        v = rng.uniform(0.0, 10.0, (n, n))
    elif kind == "int0-3":
        v = rng.integers(0, 4, (n, n)).astype(float)
    elif kind == "deciles":
        v = np.round(rng.uniform(0.0, 1.0, (n, n)), 1)
    else:  # "int0-2"
        v = rng.integers(0, 3, (n, n)).astype(float)
    v = np.triu(v, 1)
    v = v + v.T
    if jitter:  # upper triangle only: asymmetric within the 1e-9 tolerance
        v = v + np.triu(rng.uniform(0.0, 1e-9, (n, n)), 1)
    np.fill_diagonal(v, 0.0)
    return DistanceMatrix(tuple(str(i) for i in range(n)), v)


@pytest.mark.parametrize("jitter", [False, True], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("kind", ["uniform", "int0-3", "deciles", "int0-2"])
def test_linkage_bit_identical_to_scalar_loop(kind, jitter):
    rng = np.random.default_rng([len(kind), int(jitter), 4])
    for n in (2, 3, 5, 8, 13, 21, 34, 60):
        dm = _seeded_matrix(rng, n, kind, jitter)
        for linkage in LINKAGES:
            assert _exact(hierarchical_cluster(dm, linkage).steps) == \
                _exact(scalar_linkage_steps(dm, linkage)), (n, linkage)


def test_linkage_bit_identical_on_categorical_survey_matrix():
    # 180 regions x 10 words under the categorical metric: every height is a
    # multiple of 1/10, so nearly every merge is a tie
    rng = np.random.default_rng(180)
    tokens = [t.token for t in canonical_transcriptions()]
    template = rng.choice(len(tokens), 10)
    regions = []
    for r in range(180):
        codes = template.copy()
        swap = rng.random(10) < 0.3
        codes[swap] = rng.choice(len(tokens), int(swap.sum()))
        regions.append(RegionLexicon(
            f"R{r:03d}", {f"w{w}": parse_transcription(tokens[c]) for w, c in enumerate(codes)}))
    dm, _ = region_distance_matrix(DialectCorpus(tuple(regions)), "categorical")
    for linkage in LINKAGES:
        assert _exact(hierarchical_cluster(dm, linkage).steps) == \
            _exact(scalar_linkage_steps(dm, linkage)), linkage


def compacted_linkage_steps(dm, linkage):
    """Frozen copy of the compacted-matrix loop the nearest-neighbour cache replaced:
    one masked argmin over all active pairs per merge, then row and column shifts."""
    from tonelab.cluster import _lance_williams_update

    n = len(dm)
    squared = linkage in ("uc", "wc", "mv")
    work = dm.values * dm.values if squared else dm.values.copy()
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    ids = np.arange(n)
    sizes = np.ones(n, dtype=np.int64)
    steps = []
    for step in range(n - 1):
        m = n - step
        i, j = divmod(int(np.argmin(np.where(upper[:m, :m], work[:m, :m], np.inf))), m)
        rest = np.r_[0:i, i + 1:j, j + 1:m]
        d_ij = float(work[i, j])
        n_i, n_j = int(sizes[i]), int(sizes[j])
        upd = _lance_williams_update(linkage, work[i, rest], work[j, rest], d_ij,
                                     n_i, n_j, sizes[rest])
        height = math.sqrt(max(d_ij, 0.0)) if squared else d_ij
        steps.append((int(ids[i]), int(ids[j]), height, n_i + n_j))
        for p, size in ((j, m), (i, m - 1)):
            work[p : size - 1, :size] = work[p + 1 : size, :size]
            work[: size - 1, p : size - 1] = work[: size - 1, p + 1 : size]
            ids[p : size - 1] = ids[p + 1 : size]
            sizes[p : size - 1] = sizes[p + 1 : size]
        work[m - 2, : m - 2] = work[: m - 2, m - 2] = upd
        ids[m - 2], sizes[m - 2] = n + step, n_i + n_j
    return tuple(steps)


def _normal_points_matrix(n, seed):
    p = np.random.default_rng(seed).normal(size=(n, 5))
    r = p[:, None, :] - p[None, :, :]
    v = np.sqrt((r * r).sum(axis=2))
    np.fill_diagonal(v, 0.0)
    return DistanceMatrix(tuple(str(i) for i in range(n)), v)


@pytest.mark.parametrize("kind", ["normal-5d", "int0-2"])
def test_linkage_bit_identical_to_compacted_loop_at_400(kind):
    # n = 400 is too slow for the scalar loop; the compacted loop is the oracle here
    if kind == "normal-5d":
        dm = _normal_points_matrix(400, 14)
    else:
        dm = _seeded_matrix(np.random.default_rng(400), 400, "int0-2", False)
    for linkage in LINKAGES:
        assert _exact(hierarchical_cluster(dm, linkage).steps) == \
            _exact(compacted_linkage_steps(dm, linkage)), linkage


def test_compacted_oracle_matches_scalar_loop():
    rng = np.random.default_rng(41)
    for kind in ("uniform", "int0-2"):
        dm = _seeded_matrix(rng, 30, kind, True)
        for linkage in LINKAGES:
            assert _exact(compacted_linkage_steps(dm, linkage)) == \
                _exact(scalar_linkage_steps(dm, linkage)), (kind, linkage)


def test_sl_cl_signed_zeros_and_equal_values():
    # -0.0 passes DistanceMatrix validation; min/max of equal operands must
    # return the same operand (and so the same sign) as the scalar loop
    z = -0.0
    values = np.array([
        [0.0, z, 0.0, 1.0, 1.0],
        [z, 0.0, z, 1.0, 0.0],
        [0.0, z, 0.0, z, 1.0],
        [1.0, 1.0, z, 0.0, 1.0],
        [1.0, 0.0, 1.0, 1.0, 0.0],
    ])
    # three items: (0, 1) merges first, then d_ik and d_jk are equal zeros of
    # either sign, and the second height is the operand min/max picked
    triples = [np.array([[0.0, 0.0, a], [0.0, 0.0, b], [a, b, 0.0]])
               for a, b in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0))]
    for v in [values, *triples]:
        dm = DistanceMatrix(tuple("abcde"[: len(v)]), v)
        for linkage in LINKAGES:
            got = _exact(hierarchical_cluster(dm, linkage).steps)
            assert got == _exact(scalar_linkage_steps(dm, linkage)), (v, linkage)
    heights = {h for _, _, h, _ in _exact(hierarchical_cluster(dm, "sl").steps)}
    assert "-0x0.0p+0" in heights


# ---------------------------------------------------------------------------
# cut_tree


def _four_point_dendrogram():
    values = np.array([
        [0, 1, 10, 10],
        [1, 0, 10, 10],
        [10, 10, 0, 1],
        [10, 10, 1, 0],
    ], dtype=float)
    return hierarchical_cluster(DistanceMatrix(("A", "B", "C", "D"), values), "sl")


def test_cut_tree_extremes():
    dg = _four_point_dendrogram()
    assert cut_tree(dg, 4).labels == (0, 1, 2, 3)
    assert cut_tree(dg, 1).labels == (0, 0, 0, 0)
    assert cut_tree(dg, 2).labels == (0, 0, 1, 1)


def test_cut_tree_range_check():
    dg = _four_point_dendrogram()
    for bad in (0, 5):
        with pytest.raises(InputError):
            cut_tree(dg, bad)


def union_find_cut_tree(dg, k):
    """Frozen oracle: cut_tree's labels as its union-find form computed them."""
    n = dg.n_items
    parent = list(range(2 * n - 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step, (a, b, _h, _size) in enumerate(dg.steps[: n - k]):
        new_id = n + step
        parent[find(a)] = new_id
        parent[find(b)] = new_id

    label_of_root = {}
    labels = []
    for item in range(n):
        root = find(item)
        if root not in label_of_root:
            label_of_root[root] = len(label_of_root)
        labels.append(label_of_root[root])
    return tuple(labels)


@pytest.mark.parametrize("kind", ["normal-5d", "int0-2"])
def test_cut_tree_matches_union_find(kind):
    rng = np.random.default_rng(30)
    for n in (2, 3, 4, 7, 16, 45):
        dm = (_normal_points_matrix(n, n) if kind == "normal-5d"
              else _seeded_matrix(rng, n, "int0-2", False))
        for linkage in LINKAGES:
            dg = hierarchical_cluster(dm, linkage)
            for k in range(1, n + 1):
                assert cut_tree(dg, k).labels == union_find_cut_tree(dg, k), (n, linkage, k)


def test_cut_tree_on_a_2000_leaf_chain():
    """Gaps that grow left to right make single link add one leaf per merge,
    so the parent chains are as deep as they get."""
    n = 2000
    x = np.cumsum(np.arange(n, dtype=float))
    dm = DistanceMatrix(tuple(map(str, range(n))), np.abs(x[:, None] - x))
    dg = hierarchical_cluster(dm, "sl")
    assert [(a, b) for a, b, _h, _s in dg.steps[1:]] == [(m + 1, n + m - 1) for m in range(1, n - 1)]
    for k in (1, 2, 3, 1000, 1998, 1999, 2000):
        labels = cut_tree(dg, k).labels
        assert labels == (0,) * (n - k + 1) + tuple(range(1, k))
        assert labels == union_find_cut_tree(dg, k)


def test_dendrogram_size_is_read_off_its_steps():
    steps = ((0, 1, 1.0, 2), (2, 3, 1.5, 3))
    assert Dendrogram(steps).n_items == len(steps) + 1 == 3
    assert _four_point_dendrogram().n_items == 4
    with pytest.raises(TypeError):
        Dendrogram(3, steps)


def test_dendrogram_csv():
    dg = _four_point_dendrogram()
    lines = dg.to_csv().splitlines()
    assert lines[0] == "cluster_a,cluster_b,height,new_size"
    assert lines[1] == "0,1,1.000000,2"


# ---------------------------------------------------------------------------
# dbscan


def brute_force_dbscan(points, eps, min_samples):
    """Independent reference: core components + min-cluster border attachment."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    adjacency = dist <= eps
    core = adjacency.sum(axis=1) >= min_samples

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if core[i] and core[j] and adjacency[i, j]:
                parent[find(i)] = find(j)

    component_id = {}
    labels = [NOISE] * n
    for i in range(n):  # components numbered by smallest core index
        if core[i]:
            root = find(i)
            if root not in component_id:
                component_id[root] = len(component_id)
            labels[i] = component_id[root]
    for i in range(n):
        if not core[i]:
            adjacent = [labels[j] for j in range(n) if core[j] and adjacency[i, j]]
            if adjacent:
                labels[i] = min(adjacent)
    return tuple(labels)


def test_dbscan_two_dense_blocks():
    pts = [[0.0], [0.1], [0.2], [0.3], [10.0], [10.1], [10.2], [10.3]]
    result = dbscan(pts, eps=0.6, min_samples=4)
    assert result.labels == (0, 0, 0, 0, 1, 1, 1, 1)
    assert result.n_clusters == 2


def test_dbscan_isolated_points_are_noise():
    result = dbscan([[0.0], [50.0], [100.0]], eps=0.6, min_samples=4)
    assert result.labels == (NOISE, NOISE, NOISE)
    assert result.n_clusters == 0


def test_dbscan_matches_brute_force_reference():
    rng = np.random.default_rng(5150)
    for _ in range(25):
        n = int(rng.integers(5, 120))
        dim = int(rng.integers(1, 4))
        centers = rng.uniform(-5, 5, size=(int(rng.integers(1, 5)), dim))
        pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0, 0.4, (n, dim))
        eps = float(rng.uniform(0.2, 1.2))
        min_samples = int(rng.integers(2, 8))
        assert dbscan(pts, eps, min_samples).labels == brute_force_dbscan(pts, eps, min_samples)


def test_dbscan_points_at_exactly_eps_match_brute_force():
    # integer points: axis steps of 5 and 3-4-5 diagonals sit exactly at eps
    rng = np.random.default_rng(345)
    for scale in ([5.0], [3.0, 4.0], [3.0, 4.0, 5.0]):
        for _ in range(6):
            n = int(rng.integers(10, 80))
            pts = rng.integers(0, 4, (n, len(scale))) * np.array(scale)
            diff = pts[:, None] - pts[None, :]
            assert np.any(np.sqrt((diff * diff).sum(-1)) == 5.0)
            for min_samples in (2, 4, 7):
                assert dbscan(pts, 5.0, min_samples).labels == \
                    brute_force_dbscan(pts, 5.0, min_samples)


def test_dbscan_noise_set_permutation_invariant():
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.normal(0, 0.2, (12, 2)), rng.normal(5, 0.2, (12, 2)),
                          rng.uniform(-20, 20, (6, 2))])
    base = dbscan(pts, 0.7, 4).labels
    perm = rng.permutation(len(pts))
    shuffled = dbscan(pts[perm], 0.7, 4).labels
    assert {i for i, l in enumerate(base) if l == NOISE} == {
        int(perm[i]) for i, l in enumerate(shuffled) if l == NOISE
    }
    for i in range(len(pts)):
        for j in range(len(pts)):
            pi, pj = list(perm).index(i), list(perm).index(j)
            assert (base[i] == base[j]) == (shuffled[pi] == shuffled[pj])


def frozen_dbscan(points, eps, min_samples):
    """dbscan as it was when it stored every neighbour row (its input checks and
    index-width rule left out): the reference the on-demand rows must match
    label for label."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)

    neighbors = []
    for p in pts:
        r = p - pts
        neighbors.append(np.flatnonzero(np.sqrt((r * r).sum(axis=1)) <= eps))
    is_core = np.array([len(nb) >= min_samples for nb in neighbors])

    labels = [NOISE] * n
    cluster = 0
    for seed in range(n):
        if labels[seed] != NOISE or not is_core[seed]:
            continue
        queue = deque([seed])
        labels[seed] = cluster
        while queue:
            p = queue.popleft()
            if not is_core[p]:
                continue
            for q in neighbors[p]:
                if labels[q] == NOISE:
                    labels[q] = cluster
                    queue.append(q)
        cluster += 1
    return tuple(labels)


def test_dbscan_matches_stored_rows_version():
    rng = np.random.default_rng(31)
    cases = []
    for dim in (1, 3):
        for _ in range(6):  # blobs: borders reachable from several clusters
            n = int(rng.integers(20, 150))
            centers = rng.uniform(-3, 3, (int(rng.integers(1, 6)), dim))
            pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0, 0.4, (n, dim))
            cases.append((pts, float(rng.uniform(0.2, 1.2))))
        for _ in range(6):  # dyadic lattices: many pairs exactly eps apart
            n = int(rng.integers(20, 150))
            pts = rng.integers(0, 6, (n, dim)) * 0.125
            cases.append((pts, float(rng.choice([0.125, 0.25, 0.375, 0.625]))))
    pts = np.array([[0.0, 0.0, 0.0], [0.375, 0.5, 0.0], [0.75, 1.0, 0.0], [0.75, 1.0, 0.625]])
    cases.append((pts, 0.625))  # 3-4-5 steps of 0.125: every neighbour exactly eps away
    ties = 0
    for pts, eps in cases:
        diff = pts[:, None] - pts[None, :]
        ties += int(np.count_nonzero(np.sqrt((diff * diff).sum(-1)) == eps))
        for min_samples in range(1, 9):
            assert dbscan(pts, eps, min_samples).labels == frozen_dbscan(pts, eps, min_samples)
    assert ties > 1000


def test_dbscan_coordinate_major_sums_equal_axis1_sums():
    # dbscan sums the squares over the coordinate axis of a (d, n) copy; for
    # d <= 7 that adds in the order of the axis-1 sum over (n, d) rows
    rng = np.random.default_rng(7)
    for dim in range(1, 8):
        pts = rng.normal(0, 3, (64, dim)) * rng.uniform(0.01, 100, dim)
        cols = np.ascontiguousarray(pts.T)
        for p in range(len(pts)):
            r = cols[:, p, None] - cols
            r *= r
            assert np.array_equal(r.sum(axis=0), ((pts[p] - pts) ** 2).sum(axis=1))


def _tight_triples(n, seed):
    """n 3-D points in 8 tight categories (sigma 0.15), 1 in 7 on a 0.25 lattice."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(1, 5, (8, 3))
    pts = centers[np.arange(n) % 8] + rng.normal(0, 0.15, (n, 3))
    pts[::7] = np.round(pts[::7] / 0.25) * 0.25
    return pts


def test_dbscan_peak_with_dense_neighbourhoods():
    """800 points in 4 dense clusters of 200: nearly every point neighbours its
    whole cluster (~160,000 neighbour pairs), but no neighbour row is kept. The
    peak is ~0.07 MB, one row's temporaries and the labels."""
    rng = np.random.default_rng(800)
    centers = rng.uniform(-10, 10, (4, 3))
    pts = centers[np.arange(800) % 4] + rng.normal(0, 0.15, (800, 3))
    tracemalloc.start()
    try:
        result = dbscan(pts, 0.6, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_clusters == 4
    assert peak <= 1_000_000


def test_dbscan_peak_linear_in_n():
    """5,000 tight triples: a mean of ~1,000 neighbours per point. The peak is
    ~90 bytes a point (labels, one (3, n) copy, one row's temporaries); stored
    neighbour rows took 12.6 MiB, ~2,600 bytes a point."""
    n = 5000
    pts = _tight_triples(n, 5000)
    tracemalloc.start()
    try:
        result = dbscan(pts, 0.6, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_clusters == 5
    assert peak <= 128 * n


@pytest.mark.parametrize("points", [[["a"]], [[{}]], np.zeros((2, 2, 2))],
                         ids=["text", "dict", "3-d"])
def test_dbscan_refuses_points_that_are_not_vectors_of_numbers(points):
    with pytest.raises(InputError, match="^points must share a single vector dimension$"):
        dbscan(points, eps=0.5, min_samples=1)


def test_dbscan_input_validation():
    with pytest.raises(InputError):
        dbscan([[0.0], [1.0]], eps=-1.0, min_samples=2)
    with pytest.raises(InputError):
        dbscan([[0.0], [0.1]], eps=float("nan"), min_samples=1)
    with pytest.raises(InputError):
        dbscan([[0.0], [1.0]], eps=0.5, min_samples=0)
    with pytest.raises(InputError):
        dbscan([], eps=0.5, min_samples=2)
    with pytest.raises((InputError, ValueError)):
        dbscan([[0.0, 1.0], [1.0]], eps=0.5, min_samples=2)
    with pytest.raises(InputError, match="points must share a single vector dimension"):
        dbscan([[0, 0], [1]], eps=0.5, min_samples=2)
    with pytest.raises(InputError, match="points must be finite"):
        dbscan([[0.0], [0.1], [float("nan")], [0.2]], eps=0.5, min_samples=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any inf - inf is taken
        with pytest.raises(InputError, match="points must be finite"):
            dbscan([[0.0, 0.0], [math.inf, 1.0], [math.inf, 1.0]], eps=0.5, min_samples=2)


def test_dbscan_reads_a_flat_list_as_1d_points():
    flat = [0.0, 0.1, 0.2, 5.0, 5.05]
    assert dbscan(flat, 0.15, 2).labels == dbscan([[v] for v in flat], 0.15, 2).labels == \
        (0, 0, 0, 1, 1)


# ---------------------------------------------------------------------------
# classical MDS


def test_mds_collinear_points():
    xs = np.array([0.0, 1.0, 3.0])
    d = np.abs(xs[:, None] - xs[None, :])
    coords = classical_mds(DistanceMatrix(("a", "b", "c"), d), 1).ravel()
    r = np.corrcoef(xs, coords)[0, 1]
    assert abs(r) > 0.9999
    embedded = np.abs(coords[:, None] - coords[None, :])
    assert np.allclose(embedded, d, atol=1e-8)


def test_mds_equal_distances_symmetric():
    dm = DistanceMatrix(("a", "b", "c"), np.ones((3, 3)) - np.eye(3))
    coords = classical_mds(dm, 2)
    embedded = np.sqrt(((coords[:, None] - coords[None, :]) ** 2).sum(-1))
    off = embedded[np.triu_indices(3, 1)]
    assert np.ptp(off) < 1e-8


def test_mds_two_items():
    dm = DistanceMatrix(("a", "b"), np.array([[0.0, 4.0], [4.0, 0.0]]))
    coords = classical_mds(dm, 1).ravel()
    assert coords == pytest.approx([2.0, -2.0], abs=1e-10)


def test_mds_sign_convention():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        dm = random_distance_matrix(rng, n)
        coords = classical_mds(dm, dims=2)
        assert coords[0, 0] >= 0
        assert coords[0, 1] >= 0


def test_mds_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        pts = rng.normal(size=(n, 2))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        dm = DistanceMatrix(tuple(str(i) for i in range(n)), d)
        mine = classical_mds(dm, 2)
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        b = -0.5 * centering @ (d * d) @ centering
        w, v = np.linalg.eigh(b)
        ref = v[:, ::-1][:, :2] * np.sqrt(np.maximum(w[::-1][:2], 0.0))
        for k in range(2):
            if ref[0, k] < 0:
                ref[:, k] = -ref[:, k]
        assert np.allclose(mine, ref, atol=1e-7)


def _product_centred_mds(dm, dims):
    """classical_mds as it was before row-mean centring, frozen as an oracle: an
    explicit centring matrix, two dense products and an averaged transpose."""
    n = len(dm)
    e = math.frexp(float(dm.values.max()))[1] - 240
    d2 = np.ldexp(dm.values, -e)
    d2 *= d2
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * centering @ d2 @ centering
    b = 0.5 * (b + b.T)
    w, v = np.linalg.eigh(b)
    coords = v[:, ::-1][:, :dims] * np.sqrt(np.maximum(w[::-1][:dims], 0.0))
    return np.ldexp(coords * np.where(coords[0] < 0, -1.0, 1.0), e)


@pytest.mark.parametrize("n", [5, 40, 300])
@pytest.mark.parametrize("asymmetry", [0.0, 1e-9])
def test_mds_row_mean_centring_matches_product_centring(n, asymmetry):
    """Row means centre the same matrix as the products up to rounding, a few ulps
    of the largest square per entry. With the top `dims` eigenvalues well apart
    from the rest (points in 2-D and 5-D), the coordinates move by that much
    relative to the largest: 1e-12 leaves over 10x the worst seen (8e-14 up to
    n = 500). eigh reads only the lower triangle, where the oracle averaged both:
    an input asymmetric by up to 1e-9 moves b by about that much relative, hence
    1e-8 there (worst seen 2e-10)."""
    rng = np.random.default_rng(n)
    for dim in (2, 5):
        pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
        values = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        values += np.triu(rng.uniform(0.0, asymmetry, (n, n)), 1)
        dm = DistanceMatrix(tuple(map(str, range(n))), values)
        for dims in (1, 2):
            mine, ref = classical_mds(dm, dims), _product_centred_mds(dm, dims)
            tol = 1e-8 if asymmetry else 1e-12
            assert np.abs(mine - ref).max() <= tol * np.abs(ref).max(), (dim, dims)


def _expression_centred_mds(dm, dims):
    """classical_mds as it was before it centred in place, frozen as an oracle: the
    centred matrix formed by one expression beside the squares."""
    e = math.frexp(float(dm.values.max()))[1] - 240
    d2 = np.ldexp(dm.values, -e)
    d2 *= d2
    r = d2.mean(axis=1)
    b = -0.5 * (d2 - (r[:, None] + r) + r.mean())
    w, v = np.linalg.eigh(b)
    coords = v[:, ::-1][:, :dims] * np.sqrt(np.maximum(w[::-1][:dims], 0.0))
    return np.ldexp(coords * np.where(coords[0] < 0, -1.0, 1.0), e)


@pytest.mark.parametrize("kind", ["normal-5d", "int0-2", "deciles"])
@pytest.mark.parametrize("k", [0, 700, -700])
def test_mds_centred_in_place_bit_identical_to_expression(kind, k):
    """Each entry meets the same operations in the same order, so eigh gets the same
    bits, tied eigenvalues (int0-2, deciles) included."""
    rng = np.random.default_rng([len(kind), k + 1000])
    for n in (3, 8, 40, 300):
        dm = (_normal_points_matrix(n, n) if kind == "normal-5d"
              else _seeded_matrix(rng, n, kind, jitter=False))
        dm = DistanceMatrix(dm.labels, np.ldexp(dm.values, k))
        for dims in (1, 2):
            assert np.array_equal(classical_mds(dm, dims), _expression_centred_mds(dm, dims)), \
                (n, dims)


def test_mds_holds_at_most_two_and_a_half_matrices():
    """The squares, centred in place, then eigh's own copy and its eigenvectors: no
    centred copy beside the squares, no centring matrix and no products."""
    n = 400
    pts = np.random.default_rng(3).normal(size=(n, 5))
    dm = DistanceMatrix(tuple(map(str, range(n))),
                        np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)))
    tracemalloc.start()
    try:
        classical_mds(dm, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n


@pytest.mark.parametrize("linkage", ["sl", "wa"])
def test_linkage_holds_one_matrix_and_a_row_block(linkage):
    """The scaled working copy, then the first scan 64 rows at a time: no n x n block."""
    n = 400
    pts = np.random.default_rng(5).normal(size=(n, 3))
    dm = DistanceMatrix(tuple(map(str, range(n))),
                        np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)))
    tracemalloc.start()
    try:
        hierarchical_cluster(dm, linkage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


def test_mds_one_dim_reproduces_pairwise_distances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        xs = rng.uniform(-10, 10, n)
        d = np.abs(xs[:, None] - xs[None, :])
        coords = classical_mds(DistanceMatrix(tuple(map(str, range(n))), d), 1).ravel()
        embedded = np.abs(coords[:, None] - coords[None, :])
        mask = d > 0
        assert np.max(np.abs(embedded[mask] - d[mask]) / d[mask]) < 1e-6


@pytest.mark.parametrize("dims", (1, 2))
@pytest.mark.parametrize("stretch", (1e-3, 1e-5, 1e-7))
def test_mds_stretched_circle_nearly_degenerate_top_eigenvalue(stretch, dims):
    # 12 points on a circle stretched along x: the top eigenvalues of the centred
    # matrix, 6 (1 + stretch)^2 and 6, are nearly equal, with the x and y axes as
    # their exact eigenvectors.
    theta = 2 * np.pi * np.arange(12) / 12
    pts = np.column_stack([(1 + stretch) * np.cos(theta), np.sin(theta)])
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    coords = classical_mds(DistanceMatrix(tuple(map(str, range(12))), d), dims)
    assert coords.shape == (12, dims)
    assert np.isfinite(coords).all()
    assert (coords[0] >= 0).all()
    ref = pts[:, :dims]
    embedded = np.sqrt(((coords[:, None] - coords[None, :]) ** 2).sum(-1))
    exact = np.sqrt(((ref[:, None] - ref[None, :]) ** 2).sum(-1))
    assert np.allclose(embedded, exact, atol=1e-6)


def _near_limit_matrix(case):
    """Distances whose squares are finite but whose unscaled MDS overflows."""
    if case == "centred":  # unscaled, the centring overflows
        values = np.array([[0.0, 1.33, 1.33, 1.33], [1.33, 0.0, 0.87, 0.81],
                           [1.33, 0.87, 0.0, 0.21], [1.33, 0.81, 0.21, 0.0]]) * 1e154
    else:  # b is finite, but eigh returns non-finite eigenvalues
        upper = np.triu(np.random.default_rng(0).uniform(0.9e154, 1.29e154, (60, 60)), 1)
        values = upper + upper.T
    return DistanceMatrix(tuple(map(str, range(len(values)))), values)


@pytest.mark.parametrize("case", ["eigh"])
@pytest.mark.parametrize("dims", [1, 2])
def test_mds_rejects_near_limit_distances(case, dims):
    """Entries this close to the float limit, whose unscaled eigenvalues overflow,
    embed to finite coordinates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(classical_mds(_near_limit_matrix(case), dims)).all()


def test_mds_dims_validation():
    dm = DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InputError):
        classical_mds(dm, 3)
    with pytest.raises(InputError):
        classical_mds(dm, 2)  # n >= dims + 1 fails


# ---------------------------------------------------------------------------
# accuracy


def test_two_cluster_accuracy_cases():
    assert two_cluster_accuracy(ClusterAssignment((0, 0, 1, 1)), [0, 0, 1, 1]) == 1.0
    assert two_cluster_accuracy(ClusterAssignment((0, 0, 1, 1)), [1, 1, 0, 0]) == 1.0
    assert two_cluster_accuracy(ClusterAssignment((0, 0, 1, 0)), [0, 0, 1, 1]) == 0.75
    assert two_cluster_accuracy((NOISE, NOISE, 1, 0), [1, 1, 0, 1]) == 0.5  # noise never hits


def test_two_cluster_accuracy_validation():
    with pytest.raises(InputError):
        two_cluster_accuracy(ClusterAssignment((0, 1, 2)), [0, 1, 1])
    with pytest.raises(InputError):
        two_cluster_accuracy(ClusterAssignment((0, 1)), [0, 1, 1])


def test_two_cluster_accuracy_refuses_non_binary_gold():
    # With gold 2, the swapped labelling 1 - 2 = NOISE scored both noise points as hits.
    with pytest.raises(InputError, match=re.escape("gold labels must be 0 or 1, got [0, 1, 2]")):
        two_cluster_accuracy((NOISE, NOISE, 1, 0), [2, 2, 0, 1])


def test_two_cluster_accuracy_refuses_empty_input():
    with pytest.raises(InputError, match="no labels to score"):
        two_cluster_accuracy([], [])


def test_two_cluster_accuracy_refuses_other_cluster_ids():
    with pytest.raises(InputError, match=re.escape("cluster ids must be 0, 1 or -1, got [0, 5]")):
        two_cluster_accuracy(ClusterAssignment((0, 5, 0, 5)), [0, 1, 0, 1])


def test_assignment_csv():
    text = ClusterAssignment((0, 1, NOISE)).to_csv(["x", "y", "z"])
    assert text.splitlines() == ["item,label", "x,0", "y,1", f"z,{NOISE}"]


def test_csv_exports_write_files(tmp_path):
    from tonelab.cluster import mds_to_csv

    dendro_path = tmp_path / "merges.csv"
    _four_point_dendrogram().to_csv(dendro_path)
    assert dendro_path.read_text().startswith("cluster_a,cluster_b,height,new_size\n")

    assign_path = tmp_path / "labels.csv"
    ClusterAssignment((0, 1)).to_csv(["a", "b"], assign_path)
    assert assign_path.read_text() == "item,label\na,0\nb,1\n"

    mds_path = tmp_path / "coords.csv"
    mds_to_csv(["a", "b"], np.array([[1.0], [-1.0]]), mds_path)
    assert mds_path.read_text() == "item,x\na,1.000000\nb,-1.000000\n"

    with pytest.raises(InputError):
        ClusterAssignment((0, 1)).to_csv(["only-one"])
    with pytest.raises(InputError):
        mds_to_csv(["a"], np.array([[1.0], [2.0]]))


def test_mds_csv_rejects_more_than_two_coordinate_columns():
    from tonelab.cluster import mds_to_csv

    with pytest.raises(InputError, match="at most 2 coordinate columns, got 3"):
        mds_to_csv(["a"], [[1.0, 2.0, 3.0]])
    assert mds_to_csv(["a"], [[1.0, 2.0]]) == "item,x,y\na,1.000000,2.000000\n"


def test_csv_name_cells_are_quoted_per_rfc_4180():
    import csv
    import io

    from tonelab.cluster import mds_to_csv

    names = ["x,y.wav", "a, b", 'say "hi"', "two\nlines", "plain.wav"]
    text = ClusterAssignment((0, 1, 0, 1, NOISE)).to_csv(names)
    assert text.splitlines()[1:3] == ['"x,y.wav",0', '"a, b",1']
    assert text.endswith("plain.wav,-1\n")
    assert list(csv.reader(io.StringIO(text)))[1:] == \
        [[name, label] for name, label in zip(names, ["0", "1", "0", "1", "-1"])]

    text = mds_to_csv(["a, b", "c"], np.array([[1.0, -0.5], [0.0, 2.0]]))
    assert text == 'item,x,y\n"a, b",1.000000,-0.500000\nc,0.000000,2.000000\n'
    assert list(csv.reader(io.StringIO(text)))[1][0] == "a, b"
