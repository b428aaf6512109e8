"""Level hierarchy built by recursive leader-follower clustering of
feature columns, plus prolongation/restriction between levels.

Levels are indexed coarse to fine: ``matrices[0]`` is the coarsest,
``matrices[L]`` the input matrix, and ``X_{l-1} = X_l P_l``.
"""

import math
from dataclasses import dataclass

import numpy as np

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

    def to_dense(self):
        P = np.zeros((self.fine_dim, self.coarse_dim))
        P[np.arange(self.fine_dim), self.assignment] = 1.0 / np.sqrt(
            self.cluster_sizes[self.assignment]
        )
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

    def interpolate_to_finest(self, v, level):
        """Carry a coefficient vector from `level` up to the finest level."""
        for l in range(level, self.n_levels - 1):
            v = prolong(self.prolongators[l], v)
        return v


def leader_follower(X, threshold):
    """One-pass leader-follower clustering of the columns of X.

    Columns are visited in index order; a column joins the first leader
    within cosine distance `threshold`, else becomes a new leader. Zero
    columns get singleton clusters. The pass is fully deterministic.
    """
    col_ptr, row_idx, vals = X.transpose_csc()
    assignment = np.empty(X.n_cols, dtype=np.int64)
    _leader_follower_csc(col_ptr, row_idx, vals, X.n_rows, float(threshold), assignment)
    return assignment


def _leader_follower_csc(col_ptr, row_idx, vals, n_rows, threshold, assignment):
    """Leader-follower pass over CSC arrays; fills `assignment` and returns
    the number of clusters."""
    # scipy may store int32 indices; numpy slices and gathers fastest with
    # Python ints and intp indices
    col_ptr = col_ptr.tolist()
    row_idx = row_idx.astype(np.intp)
    n_cols = len(col_ptr) - 1
    leaders = np.zeros((0, n_rows))
    leader_norms = np.zeros(0)
    leader_cluster = []
    n_clusters = 0
    merge_all = threshold >= 1.0
    for j in range(n_cols):
        lo, hi = col_ptr[j], col_ptr[j + 1]
        col = np.zeros(n_rows)
        col[row_idx[lo:hi]] = vals[lo:hi]
        norm = np.sqrt(np.dot(col, col))
        if norm == 0.0:
            assignment[j] = n_clusters
            n_clusters += 1
            continue
        found = -1
        if leaders.shape[0]:
            dist = 1.0 - (leaders @ col) / (norm * leader_norms)
            ok = np.nonzero(dist <= threshold)[0] if not merge_all else np.array([0])
            if ok.size:
                found = int(ok[0])
        if found >= 0:
            assignment[j] = leader_cluster[found]
        else:
            leaders = np.vstack([leaders, col[None, :]])
            leader_norms = np.append(leader_norms, norm)
            leader_cluster.append(n_clusters)
            assignment[j] = n_clusters
            n_clusters += 1
    return n_clusters


def _cluster_grouped(X, group_boundary, threshold):
    """Cluster fixed and random column blocks independently; cluster ids of
    the random block are offset past the fixed clusters."""
    col_ptr, row_idx, vals = X.transpose_csc()
    assignment = np.empty(X.n_cols, dtype=np.int64)
    n_fixed_clusters = 0
    for lo, hi in ((0, group_boundary), (group_boundary, X.n_cols)):
        if hi <= lo:
            continue
        sub_ptr = col_ptr[lo : hi + 1] - col_ptr[lo]
        s = slice(col_ptr[lo], col_ptr[hi])
        sub = np.empty(hi - lo, dtype=np.int64)
        n = _leader_follower_csc(
            sub_ptr, row_idx[s], vals[s], X.n_rows, float(threshold), sub
        )
        if lo == 0 and group_boundary > 0:
            assignment[lo:hi] = sub
            n_fixed_clusters = n
        else:
            assignment[lo:hi] = sub + n_fixed_clusters
    return assignment, n_fixed_clusters


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
    scale = 1.0 / np.sqrt(P.cluster_sizes)
    cols = P.assignment[X.col_indices]
    vals = X.values * scale[cols]
    rows = np.repeat(np.arange(X.n_rows), np.diff(X.row_offsets))
    return _from_arrays(X.n_rows, P.coarse_dim, rows, cols, vals)


def prolong(P, v_coarse):
    v_coarse = np.asarray(v_coarse, dtype=np.float64)
    if v_coarse.size != P.coarse_dim:
        raise DimensionError(f"prolong: len(v)={v_coarse.size}, coarse_dim={P.coarse_dim}")
    return v_coarse[P.assignment] / np.sqrt(P.cluster_sizes[P.assignment])


def restrict(P, v_fine):
    v_fine = np.asarray(v_fine, dtype=np.float64)
    if v_fine.size != P.fine_dim:
        raise DimensionError(f"restrict: len(v)={v_fine.size}, fine_dim={P.fine_dim}")
    sums = np.bincount(P.assignment, weights=v_fine, minlength=P.coarse_dim)
    return sums / np.sqrt(P.cluster_sizes)


def restrict_diagonal(P, diag_fine):
    """Diagonal of P^T diag(d) P: the within-cluster mean of d."""
    sums = np.bincount(P.assignment, weights=diag_fine, minlength=P.coarse_dim)
    return sums / P.cluster_sizes


def _bisect_threshold(X, group_boundary, band, max_steps=20):
    """Find a clustering whose width lands in `band` by bisection on the
    cosine-distance threshold. Returns (assignment, coarse_boundary, width)
    of the best clustering found (closest to the band)."""
    lo_w, hi_w = band
    target = math.sqrt(lo_w * hi_w)
    # threshold 1 merges maximally; if even that stays above the band there
    # is nothing to bisect for
    assignment, gb = _cluster_grouped(X, group_boundary, 1.0)
    width = int(assignment.max()) + 1
    if width > hi_w or lo_w <= width <= hi_w:
        return assignment, gb, width
    lo_t, hi_t = 0.0, 1.0
    best = (assignment, gb, width)
    best_err = abs(math.log(width / target))
    for _ in range(max_steps):
        t = 0.5 * (lo_t + hi_t)
        assignment, gb = _cluster_grouped(X, group_boundary, t)
        width = int(assignment.max()) + 1
        err = 0.0 if lo_w <= width <= hi_w else abs(math.log(width / target))
        if err < best_err:
            best, best_err = (assignment, gb, width), err
        if lo_w <= width <= hi_w:
            break
        if width > hi_w:
            lo_t = t  # too many clusters: merge more
        else:
            hi_t = t
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
        assignment, coarse_gb, new_width = _bisect_threshold(cur, gb, band)
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
