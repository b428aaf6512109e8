"""Level hierarchy built by recursive leader-follower clustering of
feature columns, plus prolongation/restriction between levels.

Levels are indexed coarse to fine: ``matrices[0]`` is the coarsest,
``matrices[L]`` the input matrix, and ``X_{l-1} = X_l P_l``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, HierarchyError, InvalidAssignment
from .sparse import _from_arrays


@dataclass(frozen=True)
class Prolongator:
    """Cluster-averaging interpolation operator P with orthonormal columns.

    As an implicit fine_dim x coarse_dim matrix, column j has the value
    1/sqrt(n_j) on the rows of cluster j, so P^T P = I.
    """

    fine_dim: int
    coarse_dim: int
    assignment: np.ndarray  # fine feature -> cluster id
    cluster_sizes: np.ndarray

    @cached_property
    def sqrt_sizes(self):
        """sqrt(n_j) per cluster, computed once: `restrict` divides by it."""
        return np.sqrt(self.cluster_sizes)

    @cached_property
    def sqrt_member_sizes(self):
        """sqrt(n_j) of each fine feature's cluster: `prolong` divides by it."""
        return np.sqrt(self.cluster_sizes[self.assignment])

    def to_dense(self):
        P = np.zeros((self.fine_dim, self.coarse_dim))
        P[np.arange(self.fine_dim), self.assignment] = 1.0 / self.sqrt_member_sizes
        return P


@dataclass(frozen=True)
class LevelHierarchy:
    matrices: list  # SparseMatrix, coarse -> fine
    prolongators: list  # prolongators[l-1] = P_l maps level l-1 -> level l
    group_boundaries: list  # fixed/random column split per level

    @property
    def n_levels(self):
        return len(self.matrices)

    @property
    def finest(self):
        return self.matrices[-1]

    def widths(self):
        return [m.n_cols for m in self.matrices]

    @cached_property
    def _bases(self):
        return {}  # level -> basis(level)

    def basis(self, level):
        """(Q, w, dual) of a level: Q diag(w) Q^T is X_l^T X_l (primal) when
        the level is no wider than tall, else X_l X_l^T (dual), with w
        clipped at 0 since both are PSD. Formed on first use, once per
        hierarchy, from the sparse product (X_l is never densified), and
        kept read-only; exact_solve solves every block shift of the level
        in it."""
        if level not in self._bases:
            X = self.matrices[level]
            dual = X.n_cols > X.n_rows
            gram = X.csr @ X.csr_t if dual else X.csr_t @ X.csr
            w, Q = np.linalg.eigh(gram.toarray())
            w = np.maximum(w, 0.0)
            w.flags.writeable = Q.flags.writeable = False
            self._bases[level] = Q, w, dual
        return self._bases[level]

    def transfer(self, v, level, target):
        """Carry a vector from `level` to `target`, one level at a time:
        prolonged up or restricted down; v itself when they are equal."""
        for l in range(level, target):
            v = prolong(self.prolongators[l], v)
        for l in range(level, target, -1):
            v = restrict(self.prolongators[l - 1], v)
        return v


def leader_follower(X, threshold):
    """One-pass leader-follower clustering of the columns of X.

    Columns are visited in index order; a column joins the first leader
    within cosine distance `threshold`, else becomes a new leader. Zero
    columns get singleton clusters. The pass is fully deterministic.
    """
    return _leader_follower_pass(_cosine_pairs(X.csr), threshold)[0]


def _cosine_pairs(A):
    """Cosine-pair table of the columns of the CSR block A: (dist, nonzero).

    `dist` is the strict lower triangle of 1 - a_j.a_i / (|a_j| |a_i|) in
    CSR form with sorted indices, so row j lists the earlier columns
    i < j. It holds one entry per pair of columns that share a row (the
    pattern of A^T A); a pair that shares no row is at distance 1.
    `nonzero[j]` tells whether column j has a nonzero norm.
    """
    gram = A.T @ A
    norms = np.sqrt(gram.diagonal())
    dist = sp.tril(gram, k=-1, format="csr")
    dist.sort_indices()
    rows = np.repeat(np.arange(A.shape[1]), np.diff(dist.indptr))
    dist.data = 1.0 - dist.data / (norms[rows] * norms[dist.indices])
    return dist, norms > 0.0


def _leader_follower_pass(pairs, threshold):
    """Leader-follower pass over a cosine-pair table; returns the
    assignment and the number of clusters."""
    dist, nonzero = pairs
    if threshold >= 1.0:
        # every nonzero column joins the first one, including those it
        # shares no row with; zero columns stay singletons
        opens = ~nonzero
        first = np.flatnonzero(nonzero)[:1]
        opens[first] = True
        assignment = np.cumsum(opens) - 1
        assignment[nonzero] = assignment[first]
        return assignment, int(opens.sum())
    keep = dist.data <= threshold
    ptr = np.concatenate(([0], np.cumsum(keep)))[dist.indptr].tolist()
    near = dist.indices[keep].tolist()
    n_cols = len(ptr) - 1
    # leader_of[i] is the cluster column i leads, -1 for a follower; a zero
    # column is near no column, so it leads a singleton cluster
    leader_of = [-1] * n_cols
    assignment = [0] * n_cols
    n_clusters = 0
    for j in range(n_cols):
        for i in near[ptr[j] : ptr[j + 1]]:
            c = leader_of[i]
            if c >= 0:
                break
        else:
            c = leader_of[j] = n_clusters
            n_clusters += 1
        assignment[j] = c
    return np.array(assignment, dtype=np.int64), n_clusters


def _block_pairs(X, group_boundary):
    """Cosine-pair tables of the fixed and the random column block of X."""
    return [
        _cosine_pairs(X.csr[:, lo:hi])
        for lo, hi in ((0, group_boundary), (group_boundary, X.n_cols))
    ]


def _cluster_grouped(blocks, threshold):
    """Cluster the fixed and random column blocks independently; cluster ids
    of the random block are offset past the fixed clusters."""
    fixed, n_fixed_clusters = _leader_follower_pass(blocks[0], threshold)
    rand, _ = _leader_follower_pass(blocks[1], threshold)
    return np.concatenate([fixed, rand + n_fixed_clusters]), n_fixed_clusters


def build_prolongator(assignment):
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.size == 0 or assignment.min() < 0:
        raise InvalidAssignment("assignment must be non-empty and non-negative")
    n_clusters = int(assignment.max()) + 1
    sizes = np.bincount(assignment, minlength=n_clusters)
    if np.any(sizes == 0):
        gap = int(np.argmax(sizes == 0))
        raise InvalidAssignment(f"cluster id {gap} is empty")
    return Prolongator(assignment.size, n_clusters, assignment, sizes)


def coarsen(X, P):
    """X @ P: coarse column j is the 1/sqrt(n_j)-scaled sum of its cluster's
    fine columns."""
    if X.n_cols != P.fine_dim:
        raise DimensionError(f"coarsen: n_cols={X.n_cols}, fine_dim={P.fine_dim}")
    scale = 1.0 / P.sqrt_sizes
    cols = P.assignment[X.col_indices]
    vals = X.values * scale[cols]
    rows = np.repeat(np.arange(X.n_rows), np.diff(X.row_offsets))
    return _from_arrays(X.n_rows, P.coarse_dim, rows, cols, vals)


def prolong(P, v_coarse):
    v_coarse = np.asarray(v_coarse, dtype=np.float64)
    if v_coarse.size != P.coarse_dim:
        raise DimensionError(f"prolong: len(v)={v_coarse.size}, coarse_dim={P.coarse_dim}")
    return v_coarse[P.assignment] / P.sqrt_member_sizes


def restrict(P, v_fine):
    v_fine = np.asarray(v_fine, dtype=np.float64)
    if v_fine.size != P.fine_dim:
        raise DimensionError(f"restrict: len(v)={v_fine.size}, fine_dim={P.fine_dim}")
    sums = np.bincount(P.assignment, weights=v_fine, minlength=P.coarse_dim)
    return sums / P.sqrt_sizes


def restrict_diagonal(P, diag_fine):
    """Diagonal of P^T diag(d) P: the within-cluster mean of d."""
    sums = np.bincount(P.assignment, weights=diag_fine, minlength=P.coarse_dim)
    return sums / P.cluster_sizes


def _bisect_threshold(blocks, band, max_steps=20):
    """Find a clustering whose width lands in `band` by bisection on the
    cosine-distance threshold; every pass reads the level's cosine-pair
    tables `blocks` (see `_block_pairs`). Returns (assignment,
    coarse_boundary, width) of the best clustering found (closest to the
    band)."""
    lo_w, hi_w = band
    target = math.sqrt(lo_w * hi_w)
    lo_t, hi_t, t, best_err = 0.0, 1.0, 1.0, math.inf  # the first pass sets best
    for _ in range(1 + max_steps):
        assignment, gb = _cluster_grouped(blocks, t)
        width = int(assignment.max()) + 1
        inside = lo_w <= width <= hi_w
        err = 0.0 if inside else abs(math.log(width / target))
        if err < best_err:
            best, best_err = (assignment, gb, width), err
        # threshold 1 merges maximally: above the band there, nothing to bisect
        if inside or t == 1.0 and width > hi_w:
            break
        if width > hi_w:
            lo_t = t  # too many clusters: merge more
        else:
            hi_t = t
        t = 0.5 * (lo_t + hi_t)
    return best


def build_hierarchy(X, group_boundary, coarse_size_range, max_levels):
    """Recursively cluster and coarsen until the coarsest width is inside
    `coarse_size_range` or `max_levels` matrices exist.

    Per-level width targets interpolate geometrically between the fine
    width and the middle of the range; the clustering threshold is tuned
    by bisection at each level.
    """
    lo, hi = coarse_size_range
    if lo < 1 or lo > hi:
        raise HierarchyError(f"invalid coarse size range {coarse_size_range}")
    if max_levels < 1:
        raise HierarchyError("max_levels must be >= 1")
    matrices = [X]
    prolongators = []
    boundaries = [group_boundary]
    target_final = math.sqrt(lo * hi)
    while len(matrices) < max_levels and matrices[0].n_cols > hi:
        cur = matrices[0]
        gb = boundaries[0]
        width = cur.n_cols
        steps_left = max_levels - len(matrices)
        if steps_left == 1:
            band = (lo, hi)
        else:
            t = width * (target_final / width) ** (1.0 / steps_left)
            band_lo = max(lo, t / 1.3)
            band_hi = min(width - 1, max(band_lo, t * 1.3))
            band = (band_lo, band_hi)
        assignment, coarse_gb, new_width = _bisect_threshold(_block_pairs(cur, gb), band)
        if new_width >= width:
            raise HierarchyError(
                f"clustering stagnates at width {width}; cannot reach range "
                f"[{lo}, {hi}]"
            )
        P = build_prolongator(assignment)
        matrices.insert(0, coarsen(cur, P))
        prolongators.insert(0, P)
        boundaries.insert(0, coarse_gb)
    return LevelHierarchy(matrices, prolongators, boundaries)
