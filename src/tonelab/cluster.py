"""Agglomerative clustering, density clustering, and classical MDS.

Hierarchical clustering supports the seven standard linkage updates:

    sl  single link            min(d_ik, d_jk)
    cl  complete link          max(d_ik, d_jk)
    ga  group average          (n_i d_ik + n_j d_jk) / (n_i + n_j)
    wa  weighted average       (d_ik + d_jk) / 2
    uc  unweighted centroid    centroid update on squared dissimilarities
    wc  weighted centroid      median update on squared dissimilarities
    mv  minimum variance       Ward update on squared dissimilarities

uc/wc/mv run on squared dissimilarities internally and report merge heights
as the square root of the updated value. Each merge joins the active pair of
cluster ids i < j with the least height d[i, j], read from the upper triangle
only (DistanceMatrix allows 1e-9 of asymmetry); ties at equal height go to the
smallest (i, j) in row-major order. All routines are deterministic. Linkage and
MDS scale every distance by one exact power of two that puts the largest in
[2**(top-1), 2**top), and scale results back: top is 1000 for sl/cl/ga/wa (2**24
of room for ga's sums), 480 before squaring for uc/wc/mv (2**63 for Ward's sums)
and 240 for MDS (centred squares below 2**481; eigh rescales inexactly above 2**485).
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from ._defaults import LINKAGES
from .errors import InputError
from .tones import _ROW_BLOCK, DistanceMatrix, _csv, _quoted

_SQUARED_LINKAGES = frozenset({"uc", "wc", "mv"})

NOISE = -1


@dataclass(frozen=True)
class Dendrogram:
    """Merge history of n items in n - 1 steps: item ids are 0..n-1, merge m
    creates cluster id n+m."""

    steps: tuple[tuple[int, int, float, int], ...]  # (a, b, height, new_size)

    @property
    def n_items(self) -> int:
        return len(self.steps) + 1

    def to_csv(self, path: str | os.PathLike | None = None) -> str:
        return _csv(("cluster_a", "cluster_b", "height", "new_size"), self.steps, path)


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-item cluster labels; NOISE (-1) marks unclustered points."""

    labels: tuple[int, ...]

    @property
    def n_clusters(self) -> int:
        return len({l for l in self.labels if l != NOISE})

    def to_csv(self, items: Sequence[str] | None = None,
               path: str | os.PathLike | None = None) -> str:
        names = list(items) if items is not None else [str(i) for i in range(len(self.labels))]
        if len(names) != len(self.labels):
            raise InputError("item name count does not match label count")
        return _csv(("item", "label"), zip(map(_quoted, names), self.labels), path)


def _lance_williams_update(linkage: str, d_ik: np.ndarray, d_jk: np.ndarray, d_ij: float,
                           n_i: int, n_j: int, n_k: np.ndarray) -> np.ndarray:
    """Dissimilarities from the merge of i and j to every other cluster k."""
    if linkage == "sl":  # picks the operand Python's min/max would return
        return np.where(d_jk < d_ik, d_jk, d_ik)
    if linkage == "cl":
        return np.where(d_jk > d_ik, d_jk, d_ik)
    if linkage == "ga":
        return (n_i * d_ik + n_j * d_jk) / (n_i + n_j)
    if linkage == "wa":
        return 0.5 * (d_ik + d_jk)
    if linkage == "uc":
        n_ij = n_i + n_j
        return (n_i * d_ik + n_j * d_jk) / n_ij - (n_i * n_j * d_ij) / (n_ij * n_ij)
    if linkage == "wc":
        return 0.5 * d_ik + 0.5 * d_jk - 0.25 * d_ij
    n_all = n_i + n_j + n_k  # mv
    return ((n_i + n_k) * d_ik + (n_j + n_k) * d_jk - n_k * d_ij) / n_all


def _scaled(d: DistanceMatrix, top: int) -> tuple[np.ndarray, int]:
    """(d * 2**-e, e), with e chosen so that the largest d lands in [2**(top-1), 2**top)."""
    e = math.frexp(float(d.values.max()))[1] - top
    return np.ldexp(d.values, -e), e


def hierarchical_cluster(d: DistanceMatrix, linkage: str) -> Dendrogram:
    """Agglomerate a distance matrix bottom-up under the given linkage."""
    if linkage not in LINKAGES:
        raise InputError(f"unknown linkage {linkage!r}; choose one of {LINKAGES}")
    n = len(d)
    if n < 2:
        raise InputError("hierarchical clustering needs at least 2 items")

    squared = linkage in _SQUARED_LINKAGES
    # Müllner's generic algorithm (arXiv:1109.2378) with a nearest-neighbour cache.
    # `work` keeps fixed slots: cluster id c lives in slot[c], and a merge reuses the
    # slot of its smaller id. Arrays indexed by id are in id order; a new cluster's
    # id is the largest so far, and dead ids hold an inf cache. For a current id c,
    # cache[c] is the least work[slot[c], slot[k]] over active ids k > c and nbr[c]
    # the first such k. An id whose nbr is dead lost its neighbour to a merge: its
    # cache is then only a lower bound, and it is rescanned when it comes first.
    work, e = _scaled(d, 480 if squared else 1000)
    if squared:
        work *= work
    slot = np.arange(2 * n - 1)
    sizes = np.ones(n, dtype=np.int64)  # by slot
    alive = np.zeros(2 * n - 1, dtype=bool)
    alive[:n] = True
    cache = np.full(2 * n - 1, np.inf)
    nbr = np.zeros(2 * n - 1, dtype=np.intp)
    for lo in range(0, n, _ROW_BLOCK):  # the first scan, without an n x n block
        _rescan(work, np.arange(lo, min(lo + _ROW_BLOCK, n)), np.arange(n), slot, cache, nbr)

    steps = []
    for step in range(n - 1):
        new = n + step
        # The first least cache in id order, once it is current, is the row-major
        # first minimum over the active pairs (i, j), i < j: every cache is at most
        # its row's minimum, so no smaller (i, j) can tie it.
        i = int(cache[:new].argmin())
        while not alive[nbr[i]]:
            _rescan(work, np.array([i]), alive[:new].nonzero()[0], slot, cache, nbr)
            i = int(cache[:new].argmin())
        j = int(nbr[i])
        si, sj = int(slot[i]), int(slot[j])
        d_ij = float(work[si, sj])
        n_i, n_j = int(sizes[si]), int(sizes[sj])
        alive[i] = alive[j] = False
        rest = alive[:new].nonzero()[0]
        rs = slot[rest]
        upd = _lance_williams_update(linkage, work[si, rs], work[sj, rs], d_ij,
                                     n_i, n_j, sizes[rs])
        height = math.sqrt(max(d_ij, 0.0)) if squared else d_ij
        steps.append((i, j, math.ldexp(height, e), n_i + n_j))
        work[si, rs] = work[rs, si] = upd
        sizes[si] = n_i + n_j
        slot[new] = si
        alive[new] = True
        cache[i] = cache[j] = np.inf
        # Every row gains the new cluster as its last candidate. Only a strictly
        # smaller entry replaces a cache, and it is then the row's unique minimum,
        # so even a row whose nbr was i or j becomes current.
        take = upd < cache[rest]
        closer = rest[take]
        cache[closer] = upd[take]
        nbr[closer] = new
    return Dendrogram(tuple(steps))


def _rescan(work: np.ndarray, rows: np.ndarray, active: np.ndarray, slot: np.ndarray,
            cache: np.ndarray, nbr: np.ndarray) -> None:
    """Recompute cache and nbr of the ids in rows over the active ids after each,
    as one len(rows) x len(active) block; both id arrays are ascending."""
    block = work[slot[rows][:, None], slot[active]]
    block[active <= rows[:, None]] = np.inf
    first = block.argmin(axis=1)
    cache[rows] = block[np.arange(len(rows)), first]
    nbr[rows] = active[first]


def cut_tree(dg: Dendrogram, k: int) -> ClusterAssignment:
    """Partition into k clusters by undoing the last k-1 merges.

    Components are labelled 0..k-1 in order of their first member item.
    """
    n = dg.n_items
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    # Merge m makes id n + m, above both ids it joins, so one descending pass
    # resolves every id to the top of its chain.
    top = list(range(2 * n - 1))
    for m, (a, b, _h, _size) in enumerate(dg.steps[: n - k]):
        top[a] = top[b] = n + m
    for c in reversed(range(2 * n - 1)):
        top[c] = top[top[c]]
    label_of: dict[int, int] = {}
    return ClusterAssignment(tuple(label_of.setdefault(top[i], len(label_of)) for i in range(n)))


def dbscan(points: Sequence[Sequence[float]], eps: float, min_samples: int) -> ClusterAssignment:
    """Euclidean density clustering.

    A point is core iff it has >= min_samples neighbours within eps (itself
    included). Clusters grow from core points scanned in ascending index
    order; border points keep the first cluster that reaches them. Unreached
    points are NOISE. Rows are computed when needed, so memory is O(n * d).
    """
    if not eps > 0:
        raise InputError("eps must be positive")
    if min_samples < 1:
        raise InputError("min_samples must be >= 1")
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError as exc:  # ragged rows; a non-number keeps numpy's message
        if "inhomogeneous" not in str(exc):
            raise
        raise InputError("points must share a single vector dimension") from None
    if pts.size == 0:
        raise InputError("dbscan needs at least one point")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise InputError("points must share a single vector dimension")
    if not np.isfinite(pts).all():
        raise InputError("points must be finite")
    cols = np.ascontiguousarray(pts.T)  # coordinate-major (d, n)

    def within(p):  # sums the coordinates left to right, as an axis-1 sum over d <= 7 does
        r = cols[:, p, None] - cols
        r *= r
        return np.sqrt(r.sum(axis=0)) <= eps

    is_core = np.array([np.count_nonzero(within(p)) >= min_samples for p in range(len(pts))])
    labels = np.full(len(pts), NOISE)  # NOISE until a cluster reaches the point, then set once
    cluster = 0
    for seed in np.flatnonzero(is_core):
        if labels[seed] != NOISE:
            continue
        queue = deque([seed])  # core points only: a border point expands nothing
        labels[seed] = cluster
        while queue:
            reached = np.flatnonzero(within(queue.popleft()) & (labels == NOISE))  # ascending
            labels[reached] = cluster
            queue.extend(reached[is_core[reached]])
        cluster += 1
    return ClusterAssignment(tuple(labels.tolist()))


def classical_mds(d: DistanceMatrix, dims: int) -> np.ndarray:
    """Torgerson MDS coordinates, shape (n, dims).

    Double-centers the squared distances in place by their row means, takes the top
    `dims` eigenpairs (of the lower triangle, by `numpy.linalg.eigh`), largest
    first; each eigenvector is scaled by the square root of its eigenvalue
    (negative ones count as 0) and sign-fixed so the first item is nonnegative.
    """
    if dims not in (1, 2):
        raise InputError("dims must be 1 or 2")
    n = len(d)
    if n < dims + 1:
        raise InputError(f"need at least {dims + 1} items for a {dims}-D embedding")

    d2, e = _scaled(d, 240)
    d2 *= d2
    r = d2.mean(axis=1)
    # b = -0.5 * (d2 - (r_i + r_j) + mean r) in place, each entry's operations in that order
    d2 -= r[:, None] + r  # as symmetric as d2: r_i + r_j == r_j + r_i
    d2 += r.mean()
    d2 *= -0.5
    w, v = np.linalg.eigh(d2)  # ascending eigenvalues
    coords = v[:, ::-1][:, :dims] * np.sqrt(np.maximum(w[::-1][:dims], 0.0))
    return np.ldexp(coords * np.where(coords[0] < 0, -1.0, 1.0), e)


def mds_to_csv(labels: Sequence[str], coords: np.ndarray,
               path: str | os.PathLike | TextIO | None = None) -> str | None:
    """CSV export of MDS coordinates: item,x[,y] with 6 decimals; path as _csv takes it."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[0] != len(labels):
        raise InputError("coordinate row count does not match labels")
    if coords.shape[1] > 2:
        raise InputError(f"MDS CSV holds at most 2 coordinate columns, got {coords.shape[1]}")
    header = ("item", "x", "y")[: 1 + coords.shape[1]]
    return _csv(header, ((_quoted(label), *row) for label, row in zip(labels, coords.tolist())),
                path)


def two_cluster_accuracy(pred: ClusterAssignment | Sequence[int],
                         gold: Sequence[int]) -> float:
    """Best agreement with binary gold labels over the two label permutations;
    a NOISE point agrees with neither."""
    labels = pred.labels if isinstance(pred, ClusterAssignment) else tuple(pred)
    gold = [int(g) for g in gold]
    if len(labels) != len(gold):
        raise InputError("prediction and gold label counts differ")
    if not gold:
        raise InputError("no labels to score")
    if not set(labels) <= {0, 1, NOISE}:
        raise InputError(f"cluster ids must be 0, 1 or {NOISE}, got {sorted(set(labels))}")
    if not set(gold) <= {0, 1}:
        raise InputError(f"gold labels must be 0 or 1, got {sorted(set(gold))}")
    direct = sum(1 for p, g in zip(labels, gold) if p == g)
    swapped = sum(1 for p, g in zip(labels, gold) if p == 1 - g)
    return max(direct, swapped) / len(gold)
