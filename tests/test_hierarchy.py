"""Leader-follower clustering, prolongation operators and the level
hierarchy, checked against dense oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mlgibbs import (
    DimensionError,
    HierarchyError,
    InvalidAssignment,
    build_hierarchy,
    build_prolongator,
    coarsen,
    from_dense,
    from_triplets,
    leader_follower,
    prolong,
    restrict,
)
import mlgibbs.hierarchy as hierarchy_mod
from mlgibbs.hierarchy import restrict_diagonal
from conftest import cluster_sparse, random_sparse


def random_assignment(rng, n, n_clusters):
    """Assignment with every cluster id used at least once."""
    a = np.concatenate(
        [np.arange(n_clusters), rng.integers(0, n_clusters, n - n_clusters)]
    )
    return rng.permutation(a)


def dense_leader_follower(D, threshold):
    """Reference clustering of the columns of the dense matrix D: the
    leaders are the rows of L, and a nonzero column c joins the first with
    1 - (L @ c) / (|c| |L|) <= threshold (the first leader when
    threshold >= 1). Returns the assignment and the number of clusters."""
    leaders, leader_ids, assignment = [], [], []
    n_clusters = 0
    for c in D.T:
        norm = np.linalg.norm(c)
        near = []
        if norm > 0 and leaders:
            L = np.array(leaders)
            dist = 1.0 - (L @ c) / (norm * np.linalg.norm(L, axis=1))
            near = np.flatnonzero(dist <= threshold) if threshold < 1 else [0]
        if len(near):
            assignment.append(leader_ids[near[0]])
            continue
        if norm > 0:
            leaders.append(c)
            leader_ids.append(n_clusters)
        assignment.append(n_clusters)
        n_clusters += 1
    return np.array(assignment, dtype=np.int64), n_clusters


class TestLeaderFollower:
    def test_collinear_columns_cluster(self):
        X = from_dense([[1, 2, 0], [0, 0, 1]])
        a = leader_follower(X, 0.1)
        assert a[0] == a[1]
        assert a[2] != a[0]

    def test_zero_threshold_singletons(self, rng):
        X, _ = random_sparse(rng, 8, 5, density=0.8)
        a = leader_follower(X, 0.0)
        assert len(set(a.tolist())) == 5

    def test_threshold_one_merges_all_nonzero(self, rng):
        X, _ = random_sparse(rng, 8, 6, density=0.8)
        a = leader_follower(X, 1.0)
        assert len(set(a.tolist())) == 1

    def test_zero_column_singleton(self):
        X = from_dense([[1, 0, 1], [1, 0, 1]])
        a = leader_follower(X, 1.0)
        assert a[0] == a[2]
        assert a[1] != a[0]

    def test_partition(self, rng):
        X, _ = random_sparse(rng, 10, 12, density=0.5)
        a = leader_follower(X, 0.3)
        assert a.size == 12
        assert np.all(a >= 0)
        # contiguous cluster ids
        assert set(a.tolist()) == set(range(int(a.max()) + 1))

    def test_first_near_column_follows(self):
        # at 0.55: column 1 joins its first near column 0; column 2 is near
        # only the follower 1, so it leads; column 3's first near column is
        # the follower 1, so it reads on and joins the leader 2
        X = from_dense([[1, 1, 0, 0.2], [0, 1, 1, 1], [0, 0, 1, 1]])
        assert leader_follower(X, 0.55).tolist() == [0, 0, 1, 1]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 12),
    n_cols=st.integers(1, 25),
    density=st.floats(0.05, 0.8),
    threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_leader_follower_matches_dense_reference(seed, n_rows, n_cols, density, threshold):
    rng = np.random.default_rng(seed)
    _, dense = random_sparse(rng, n_rows, n_cols, density)
    dense[:, rng.random(n_cols) < 0.2] = 0.0
    # a distance within rounding of the threshold may fall either side of
    # it, depending on the order in which the products are summed
    norms = np.linalg.norm(dense, axis=0)
    nz = dense[:, norms > 0] / norms[norms > 0]
    assume(np.all(np.abs(1.0 - nz.T @ nz - threshold) > 1e-9))
    expected, _ = dense_leader_follower(dense, threshold)
    assert np.array_equal(leader_follower(from_dense(dense), threshold), expected)


class TestBuildProlongator:
    def test_normalized_structure(self):
        P = build_prolongator([0, 0, 1])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(P.to_dense(), [[s, 0], [s, 0], [0, 1]])

    def test_singletons_identity(self):
        P = build_prolongator([0, 1, 2])
        assert np.array_equal(P.to_dense(), np.eye(3))

    def test_gap_rejected(self):
        with pytest.raises(InvalidAssignment):
            build_prolongator([0, 2, 2])
        with pytest.raises(InvalidAssignment):
            build_prolongator([])

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6))
    def test_orthonormal_columns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        P = build_prolongator(random_assignment(rng, n, k)).to_dense()
        assert np.allclose(P.T @ P, np.eye(k), atol=1e-14)


class TestCoarsen:
    def test_hand_computation(self):
        X = from_dense([[1, 1, 2], [0, 2, 0]])
        P = build_prolongator([0, 0, 1])
        want = [[2 / np.sqrt(2), 2], [2 / np.sqrt(2), 0]]
        assert np.allclose(coarsen(X, P).to_dense(), want, atol=1e-14)

    def test_identity_prolongator(self, rng):
        X, dense = random_sparse(rng, 5, 4)
        P = build_prolongator(np.arange(4))
        assert np.allclose(coarsen(X, P).to_dense(), dense, atol=1e-15)

    def test_dense_oracle(self, rng):
        X, dense = random_sparse(rng, 10, 6)
        P = build_prolongator(random_assignment(rng, 6, 3))
        assert np.allclose(
            coarsen(X, P).to_dense(), dense @ P.to_dense(), atol=1e-13
        )

    def test_dimension_error(self, rng):
        X, _ = random_sparse(rng, 4, 4)
        with pytest.raises(DimensionError):
            coarsen(X, build_prolongator([0, 0, 1]))


class TestProlongRestrict:
    def test_hand_examples(self):
        P = build_prolongator([0, 0, 1])
        assert np.allclose(prolong(P, [np.sqrt(2), 5]), [1, 1, 5])
        assert np.allclose(restrict(P, [1, 1, 5]), [np.sqrt(2), 5])

    def test_identity(self):
        P = build_prolongator([0, 1, 2])
        v = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(prolong(P, v), v)
        assert np.array_equal(restrict(P, v), v)

    def test_round_trip(self, rng):
        P = build_prolongator(random_assignment(rng, 12, 5))
        v = rng.standard_normal(5)
        assert np.allclose(restrict(P, prolong(P, v)), v, atol=1e-14)

    def test_dense_oracles(self, rng):
        P = build_prolongator(random_assignment(rng, 9, 4))
        D = P.to_dense()
        vc = rng.standard_normal(4)
        vf = rng.standard_normal(9)
        assert np.allclose(prolong(P, vc), D @ vc, atol=1e-14)
        assert np.allclose(restrict(P, vf), D.T @ vf, atol=1e-14)

    def test_cached_square_roots_keep_the_formulas(self, rng):
        # the same divisions as dividing by np.sqrt of the sizes per call
        a = random_assignment(rng, 40, 7)
        P = build_prolongator(a)
        sizes = np.bincount(a)
        vc = rng.standard_normal(7)
        vf = rng.standard_normal(40)
        for _ in range(2):  # first and cached use
            assert np.array_equal(prolong(P, vc), vc[a] / np.sqrt(sizes[a]))
            assert np.array_equal(
                restrict(P, vf),
                np.bincount(a, weights=vf, minlength=7) / np.sqrt(sizes),
            )

    def test_restrict_diagonal(self, rng):
        P = build_prolongator(random_assignment(rng, 9, 4))
        d = rng.uniform(0.5, 2.0, 9)
        want = np.diag(P.to_dense().T @ np.diag(d) @ P.to_dense())
        assert np.allclose(restrict_diagonal(P, d), want, atol=1e-14)

    def test_dimension_errors(self):
        P = build_prolongator([0, 0, 1])
        with pytest.raises(DimensionError):
            prolong(P, [1, 2, 3])
        with pytest.raises(DimensionError):
            restrict(P, [1, 2])


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), beta=st.sampled_from([0.0, 0.5, 10.0]))
def test_galerkin_identity(seed, beta):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 15)), int(rng.integers(3, 12))
    X, dense = random_sparse(rng, n, m)
    k = int(rng.integers(1, m + 1))
    P = build_prolongator(random_assignment(rng, m, k))
    D = P.to_dense()
    Xc = coarsen(X, P).to_dense()
    lhs = D.T @ (dense.T @ dense + beta * np.eye(m)) @ D
    rhs = Xc.T @ Xc + beta * np.eye(k)
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


class TestBuildHierarchy:
    def test_single_level(self, rng):
        X, _ = random_sparse(rng, 6, 5)
        h = build_hierarchy(X, 0, (1, 2), 1)
        assert h.n_levels == 1
        assert h.finest is X
        assert h.prolongators == []

    def test_identical_columns_collapse(self):
        col = np.array([[1.0], [2.0], [0.0]])
        X = from_dense(np.repeat(col, 8, axis=1))
        h = build_hierarchy(X, 0, (1, 1), 2)
        assert h.widths() == [1, 8]

    def test_widths_decrease_and_range(self, rng):
        X = cluster_sparse(rng, 60, 12, 5, 6)
        h = build_hierarchy(X, 0, (8, 20), 3)
        w = h.widths()
        assert w[-1] == 60
        assert all(a < b for a, b in zip(w, w[1:]))
        assert 8 <= w[0] <= 20

    def test_stagnation_raises(self):
        X = from_triplets(4, 5, [])  # all-zero columns never merge
        with pytest.raises(HierarchyError):
            build_hierarchy(X, 0, (1, 2), 4)

    def test_invalid_arguments(self, rng):
        X, _ = random_sparse(rng, 4, 4)
        with pytest.raises(HierarchyError):
            build_hierarchy(X, 0, (3, 2), 2)
        with pytest.raises(HierarchyError):
            build_hierarchy(X, 0, (1, 2), 0)

    def test_group_preservation(self, rng):
        X = cluster_sparse(rng, 40, 10, 4, 5)
        h = build_hierarchy(X, 8, (4, 12), 3)
        for l in range(1, h.n_levels):
            P = h.prolongators[l - 1]
            gb_fine = h.group_boundaries[l]
            gb_coarse = h.group_boundaries[l - 1]
            fixed_clusters = set(P.assignment[:gb_fine].tolist())
            random_clusters = set(P.assignment[gb_fine:].tolist())
            assert fixed_clusters.isdisjoint(random_clusters)
            assert fixed_clusters == set(range(gb_coarse))

    def test_two_blocks_match_dense_reference(self, rng, monkeypatch):
        X = cluster_sparse(rng, 60, 14, 5, 6)
        h = build_hierarchy(X, 15, (8, 20), 3)

        # the same bisection, with every pass clustering dense blocks
        def dense_blocks(X, group_boundary):
            D = X.to_dense()
            return D[:, :group_boundary], D[:, group_boundary:]

        def dense_grouped(blocks, threshold):
            fixed, n_fixed = dense_leader_follower(blocks[0], threshold)
            rand, _ = dense_leader_follower(blocks[1], threshold)
            return np.concatenate([fixed, rand + n_fixed]), n_fixed

        monkeypatch.setattr(hierarchy_mod, "_block_pairs", dense_blocks)
        monkeypatch.setattr(hierarchy_mod, "_cluster_grouped", dense_grouped)
        ref = build_hierarchy(X, 15, (8, 20), 3)
        assert h.n_levels == 3 and all(gb > 0 for gb in h.group_boundaries)
        assert h.group_boundaries == ref.group_boundaries
        for P, Q in zip(h.prolongators, ref.prolongators):
            assert np.array_equal(P.assignment, Q.assignment)

    def test_prediction_path_identity(self, rng):
        X = cluster_sparse(rng, 50, 10, 4, 6)
        h = build_hierarchy(X, 0, (6, 15), 3)
        from mlgibbs import spmv

        for l in range(h.n_levels - 1):
            v = rng.standard_normal(h.matrices[l].n_cols)
            coarse_path = spmv(h.matrices[l], v)
            fine_path = spmv(h.matrices[l + 1], prolong(h.prolongators[l], v))
            assert np.allclose(coarse_path, fine_path, atol=1e-12)

    def test_transfer_up(self, three_levels):
        h = three_levels
        v = np.random.default_rng(1).standard_normal(h.matrices[0].n_cols)
        manual = v
        for P in h.prolongators:
            manual = prolong(P, manual)
        assert np.array_equal(h.transfer(v, 0, 2), manual)

    def test_transfer_down(self, three_levels):
        h = three_levels
        v = np.random.default_rng(2).standard_normal(h.finest.n_cols)
        manual = v
        for P in reversed(h.prolongators):
            manual = restrict(P, manual)
        assert np.array_equal(h.transfer(v, 2, 0), manual)

    def test_transfer_same_level(self, three_levels):
        h = three_levels
        for l in range(h.n_levels):
            v = np.random.default_rng(l).standard_normal(h.matrices[l].n_cols)
            assert h.transfer(v, l, l) is v

    def test_transfer_up_then_down(self, three_levels):
        h = three_levels
        v = np.random.default_rng(3).standard_normal(h.matrices[0].n_cols)
        assert np.allclose(h.transfer(h.transfer(v, 0, 2), 2, 0), v, rtol=0, atol=1e-14)


@pytest.fixture(scope="module")
def three_levels():
    X = cluster_sparse(np.random.default_rng(5), 50, 10, 5, 6)
    h = build_hierarchy(X, 4, (5, 12), 3)
    assert h.n_levels == 3
    return h
