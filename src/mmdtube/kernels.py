"""Gaussian RBF kernels, Gram matrices and their pivoted-Cholesky factors,
weighted RKHS embeddings, and MMD.

States are plain numpy arrays: a point set is an ``(n, d)`` float array, a
Gram matrix an ``(n, m)`` float array of pairwise kernel values.  A weighted
embedding ``sum_i w_i k(z_i, .)`` is the universal finite representation of an
embedded distribution; all inner products, norms, and MMD values reduce to
quadratic forms in Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

# Row blocks above this many Gram entries are accumulated chunk-wise instead
# of materialising the full matrix (large-sample quadratic forms).
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


def _upper_bands(points: np.ndarray, spec: KernelSpec):
    """Walk the strict upper triangle of the Gram of ``points`` in row bands.

    Yields ``(start, stop, k)`` where ``k`` holds rows ``start:stop`` and
    columns ``start:`` of the Gram, with the entries on and below the diagonal
    zeroed.  A band holds at most ``_BLOCK_ENTRIES`` entries (at least one row).
    """
    n = points.shape[0]
    start = 0
    while start < n - 1:
        stop = min(start + max(1, _BLOCK_ENTRIES // (n - start)), n)
        k = _rbf_block(points[start:stop], points[start:], spec)
        for r in range(stop - start):  # keep strictly-upper entries only
            k[r, : r + 1] = 0.0
        yield start, stop, k
        start = stop


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
    n = z.shape[0]
    d = np.ones(n)  # k(z, z) = 1 for gaussian-rbf
    rows = np.empty((min(n, 32), n))  # L^T, grown by doubling
    r = 0
    while r < n:
        i = int(np.argmax(d))
        if d[i] <= FACTOR_TOL:
            break
        if r == rows.shape[0]:
            rows = np.vstack([rows, np.empty((min(r, n - r), n))])
        col = _rbf_block(z[i:i + 1], z, spec)[0]
        col -= rows[:r, i] @ rows[:r]
        col /= np.sqrt(d[i])
        rows[r] = col
        d -= col * col
        d[i] = 0.0
        r += 1
    return rows[:r].T


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


def _self_quadratic(e: Embedding, spec: KernelSpec) -> float:
    """``w^T K w`` for one embedding, touching only the upper triangle."""
    diag = float(np.sum(e.weights**2))  # k(z, z) = 1 for gaussian-rbf
    off = 0.0
    for start, stop, k in _upper_bands(e.anchors, spec):
        off += float(e.weights[start:stop] @ k @ e.weights[start:])
    return diag + 2.0 * off


def _weighted_quadratic(a: Embedding, b: Embedding, spec: KernelSpec) -> float:
    """``w_a^T K_ab w_b`` with chunked accumulation for large anchor sets."""
    n, m = len(a), len(b)
    if n * m <= _BLOCK_ENTRIES:
        return float(a.weights @ gram(a.anchors, b.anchors, spec) @ b.weights)
    if a is b:
        return _self_quadratic(a, spec)
    block = max(1, _BLOCK_ENTRIES // m)
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        k = _rbf_block(a.anchors[start:stop], b.anchors, spec)
        total += float(a.weights[start:stop] @ k @ b.weights)
    return total


def rkhs_inner(a: Embedding, b: Embedding, spec: KernelSpec) -> float:
    """RKHS inner product of two weighted embeddings."""
    if a.dim != b.dim:
        raise ValueError(f"state dimension mismatch: {a.dim} vs {b.dim}")
    return _weighted_quadratic(a, b, spec)


def rkhs_norm(e: Embedding, spec: KernelSpec) -> float:
    """RKHS norm ``sqrt(w^T K w)``; round-off negatives are clamped to 0."""
    return float(np.sqrt(max(0.0, rkhs_inner(e, e, spec))))


def mmd(a: Embedding, b: Embedding, spec: KernelSpec) -> float:
    """RKHS distance between two embeddings.

    For empirical mean embeddings this is the sample maximum mean
    discrepancy: ``sqrt(<a,a> + <b,b> - 2<a,b>)`` with the squared value
    clamped at zero before the square root.
    """
    if a.dim != b.dim:
        raise ValueError(f"state dimension mismatch: {a.dim} vs {b.dim}")
    sq = rkhs_inner(a, a, spec) + rkhs_inner(b, b, spec) - 2.0 * rkhs_inner(a, b, spec)
    return float(np.sqrt(max(0.0, sq)))
