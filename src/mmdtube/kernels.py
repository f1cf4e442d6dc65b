"""Gaussian RBF kernels, Gram matrices and their pivoted-Cholesky factors,
weighted RKHS embeddings, and MMD.

States are plain numpy arrays: a point set is an ``(n, d)`` float array, a
Gram matrix an ``(n, m)`` float array of pairwise kernel values.  A weighted
embedding ``sum_i w_i k(z_i, .)`` is the universal finite representation of an
embedded distribution.  Inner products, norms and MMD values are read from
the coordinates ``c = L^T w`` in one pivoted-Cholesky factor ``L`` of the
stacked anchors; past a width of ``2 sqrt(n)`` that factor costs more than
one dense pass, and they fall back to blocked dense quadratic forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

# The dense fallback for quadratic forms holds at most this many Gram entries
# at a time (at least one row).
_BLOCK_ENTRIES = 16_000_000

# Pivoted Cholesky stops when every residual diagonal entry is at most this,
# about 5 ulp of the unit RBF diagonal.  Worst relative error of the ridge
# solve against a dense LU solve (m=60 OU data and triplicated anchors,
# lam=1e-6): 1.4e-11 with this stop, 8.5e-11 at 1e-14, 1.05e-9 with a trace
# stop of 1e-12 m, and 4.2e-10 when run on to round-off (noise columns).
FACTOR_TOL = 1e-15


@dataclass(frozen=True)
class KernelSpec:
    """Positive-definite kernel description.

    ``bandwidth`` is the length-scale sigma of the Gaussian RBF kernel
    ``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``.
    """

    bandwidth: float

    def __post_init__(self):
        if not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be a positive real, got {self.bandwidth}")


def as_points(points) -> np.ndarray:
    """Coerce input to a validated ``(n, d)`` float array of states."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"point set must be a nonempty (n, d) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point set contains non-finite entries")
    return arr


def eval_kernel(x, y, spec: KernelSpec) -> float:
    """Evaluate ``k(x, y)`` for a pair of state vectors."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape:
        raise ValueError(f"state dimension mismatch: {xv.shape} vs {yv.shape}")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise ValueError("kernel arguments must be finite")
    diff = xv - yv
    return float(np.exp(-diff.dot(diff) / (2.0 * spec.bandwidth**2)))


def _rbf_block(rows: np.ndarray, cols: np.ndarray, spec: KernelSpec) -> np.ndarray:
    # in-place scale and exp: the temporaries would dominate at this size
    sq = cdist(rows, cols, metric="sqeuclidean")
    sq *= -1.0 / (2.0 * spec.bandwidth**2)
    np.exp(sq, out=sq)
    return sq


def gram(rows, cols, spec: KernelSpec) -> np.ndarray:
    """Matrix of all pairwise kernel evaluations ``K[i, j] = k(rows[i], cols[j])``.

    The square Gram on a single point set is symmetrised so that downstream
    eigensolvers see an exactly symmetric matrix.
    """
    r = as_points(rows)
    c = as_points(cols)
    if r.shape[1] != c.shape[1]:
        raise ValueError(f"state dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    k = _rbf_block(r, c, spec)
    if rows is cols or (r.shape == c.shape and np.array_equal(r, c)):
        k = 0.5 * (k + k.T)
    return k


def pivoted_cholesky(points, spec: KernelSpec) -> np.ndarray:
    """Greedy pivoted Cholesky factor ``L`` (``n x r``) with ``K ~= L L^T``.

    Step ``j`` takes the pivot ``i`` with the largest residual diagonal
    ``d_i`` and sets ``L[:, j] = (k(Z, z_i) - L[:, :j] L[i, :j]) / sqrt(d_i)``;
    then ``d -= L[:, j]**2``.  It stops once every ``d_i <= FACTOR_TOL``; the
    residual ``K - L L^T`` is PSD, so (up to round-off) each of its entries is
    then at most ``FACTOR_TOL`` and ``r`` is the numerical rank of the Gram at
    that level.  The cost is ``O(n r^2)`` and only kernel columns are
    evaluated; at ``r = n`` it is an ordinary Cholesky.  Ties in the pivot
    pick the lowest index, so the factor is deterministic.
    """
    z = as_points(points)
    return _pivoted_cholesky(z, spec, z.shape[0])


def _pivoted_cholesky(z: np.ndarray, spec: KernelSpec, max_rank: int):
    """``pivoted_cholesky``, or ``None`` if it needs over ``max_rank`` columns."""
    n = z.shape[0]
    d = np.ones(n)  # k(z, z) = 1 for gaussian-rbf
    rows = np.empty((min(max_rank, 32), n))  # L^T, grown by doubling
    r = 0
    while True:
        i = int(np.argmax(d))
        if d[i] <= FACTOR_TOL:
            return rows[:r].T
        if r == max_rank:
            return None
        if r == rows.shape[0]:
            rows = np.vstack([rows, np.empty((min(r, max_rank - r), n))])
        col = _rbf_block(z[i:i + 1], z, spec)[0]
        col -= rows[:r, i] @ rows[:r]
        col /= np.sqrt(d[i])
        rows[r] = col
        d -= col * col
        d[i] = 0.0
        r += 1


def median_bandwidth(points, max_points: int = 2000) -> float:
    """Median pairwise distance of the inputs (the median heuristic).

    Falls back to the median of the strictly positive distances when
    duplicates dominate, and to 1.0 when every pairwise distance is zero,
    so the returned bandwidth is always valid.
    """
    pts = as_points(points)
    if pts.shape[0] > max_points:
        # deterministic thinning keeps the heuristic cheap on large samples
        stride = int(np.ceil(pts.shape[0] / max_points))
        pts = pts[::stride]
    if pts.shape[0] < 2:
        return 1.0
    d = pdist(pts)
    med = float(np.median(d))
    if med > 0:
        return med
    positive = d[d > 0]
    return float(np.median(positive)) if positive.size else 1.0


@dataclass(frozen=True)
class Embedding:
    """Weighted kernel expansion ``sum_i weights[i] * k(anchors[i], .)``."""

    anchors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        anchors = as_points(self.anchors)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if anchors.shape[0] != weights.shape[0]:
            raise ValueError(
                f"anchors/weights length mismatch: {anchors.shape[0]} vs {weights.shape[0]}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights contain non-finite entries")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.anchors.shape[0]

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    def scaled(self, factor: float) -> "Embedding":
        return Embedding(self.anchors, factor * self.weights)


def embed_sample(samples) -> Embedding:
    """Empirical mean embedding of a sample: uniform weights ``1/n``."""
    pts = as_points(samples)
    n = pts.shape[0]
    return Embedding(pts, np.full(n, 1.0 / n))


def _coordinates(a: Embedding, b: Embedding, spec: KernelSpec):
    """``(L_A^T w_a, L_B^T w_b)`` for the factor of ``[A; B]`` (``A`` if ``a is
    b``), or ``None`` past ``2 sqrt(n)`` columns for ``n`` stacked anchors."""
    if a.dim != b.dim:
        raise ValueError(f"state dimension mismatch: {a.dim} vs {b.dim}")
    z = a.anchors if a is b else np.vstack([a.anchors, b.anchors])
    factor = _pivoted_cholesky(z, spec, math.isqrt(4 * z.shape[0]))
    if factor is None:
        return None
    c_a = a.weights @ factor[:len(a)]
    return c_a, (c_a if a is b else b.weights @ factor[len(a):])


def _blocked_inner(a: Embedding, b: Embedding, spec: KernelSpec) -> float:
    """``w_a^T K_AB w_b`` over row blocks of at most ``_BLOCK_ENTRIES`` entries."""
    block = max(1, _BLOCK_ENTRIES // len(b))
    total = 0.0
    for start in range(0, len(a), block):
        stop = min(start + block, len(a))
        k = _rbf_block(a.anchors[start:stop], b.anchors, spec)
        total += float(a.weights[start:stop] @ k @ b.weights)
    return total


def rkhs_inner(a: Embedding, b: Embedding, spec: KernelSpec) -> float:
    """RKHS inner product ``w_a^T K_AB w_b = c_a . c_b`` of two embeddings."""
    coords = _coordinates(a, b, spec)
    if coords is None:
        return _blocked_inner(a, b, spec)
    return float(coords[0] @ coords[1])


def rkhs_norm(e: Embedding, spec: KernelSpec) -> float:
    """RKHS norm ``||L^T w||``; the fallback clamps ``w^T K w`` at zero."""
    coords = _coordinates(e, e, spec)
    if coords is None:
        return float(np.sqrt(max(0.0, _blocked_inner(e, e, spec))))
    return float(np.linalg.norm(coords[0]))


def mmd(a: Embedding, b: Embedding, spec: KernelSpec) -> float:
    """RKHS distance ``||c_a - c_b||`` between two embeddings.

    For empirical mean embeddings this is the sample maximum mean
    discrepancy.  Taking the difference in factor coordinates keeps the
    relative accuracy of distances far below ``sqrt(eps) * ||a||``.  The
    fallback clamps ``<a,a> + <b,b> - 2<a,b>`` at zero before the square root.
    """
    coords = _coordinates(a, b, spec)
    if coords is None:
        sq = (_blocked_inner(a, a, spec) + _blocked_inner(b, b, spec)
              - 2.0 * _blocked_inner(a, b, spec))
        return float(np.sqrt(max(0.0, sq)))
    return float(np.linalg.norm(coords[0] - coords[1]))
