import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from mmdtube import (
    Embedding,
    KernelSpec,
    UniformInitial,
    double_well_model,
    embed_sample,
    eval_kernel,
    fit,
    gram,
    median_bandwidth,
    mmd,
    pushforward,
    rkhs_inner,
    rkhs_norm,
    simulate_pairs,
)
from mmdtube.kernels import _coordinates

from conftest import brute_mmd_sq, ou_dataset, random_embedding, rbf


def wide_3d_embedding(rng, n):
    """A 3-D sample whose factor is wider than the cap, so forms take the fallback."""
    e = embed_sample(rng.standard_normal((n, 3)))
    assert _coordinates(e, e, KernelSpec(1.0)) is None
    return e

EXP_HALF = math.exp(-0.5)


class TestEvalKernel:
    def test_self_evaluation_is_one(self, spec):
        assert eval_kernel([0.0], [0.0], spec) == 1.0

    def test_unit_distance(self, spec):
        assert eval_kernel([0.0], [1.0], spec) == pytest.approx(EXP_HALF, abs=1e-15)

    def test_bandwidth_scaling(self):
        # ||x-y||^2 / (2 sigma^2) = 4/8 = 1/2
        assert eval_kernel([0.0], [2.0], KernelSpec(2.0)) == pytest.approx(EXP_HALF, abs=1e-15)

    def test_symmetry_and_range(self, spec):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            kxy = eval_kernel(x, y, spec)
            assert kxy == eval_kernel(y, x, spec)
            assert 0.0 < kxy <= 1.0

    def test_dimension_mismatch_rejected(self, spec):
        with pytest.raises(ValueError):
            eval_kernel([0.0], [0.0, 1.0], spec)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=-1.0)


class TestGram:
    def test_two_point_gram(self, spec):
        k = gram([[0.0], [1.0]], [[0.0], [1.0]], spec)
        expected = np.array([[1.0, EXP_HALF], [EXP_HALF, 1.0]])
        np.testing.assert_allclose(k, expected, atol=1e-15)

    def test_single_point(self, spec):
        np.testing.assert_allclose(gram([[3.0]], [[3.0]], spec), [[1.0]])

    def test_row_of_evaluations(self, spec):
        k = gram([[0.0]], [[0.0], [1.0], [2.0]], spec)
        np.testing.assert_allclose(k, [[1.0, EXP_HALF, math.exp(-2.0)]], atol=1e-15)

    def test_matches_entrywise_eval(self, spec):
        rng = np.random.default_rng(1)
        rows, cols = rng.standard_normal((4, 2)), rng.standard_normal((6, 2))
        k = gram(rows, cols, spec)
        for i in range(4):
            for j in range(6):
                assert k[i, j] == pytest.approx(rbf(rows[i], cols[j]), abs=1e-15)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_square_gram_symmetric_psd(self, spec, dim):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((40, dim))
        k = gram(pts, pts, spec)
        assert np.max(np.abs(k - k.T)) < 1e-14
        eigs = np.linalg.eigvalsh(k)
        assert eigs[0] >= -1e-10 * eigs[-1]

    def test_dimension_mismatch_rejected(self, spec):
        with pytest.raises(ValueError):
            gram(np.zeros((2, 1)), np.zeros((2, 2)), spec)

    # (100, 1000) and the 300-point square each span two distance chunks
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n_rows, n_cols", [(5, 7), (100, 1000), (300, None)])
    def test_bit_identical_to_cdist(self, dim, n_rows, n_cols):
        rng = np.random.default_rng(dim)
        rows = rng.standard_normal((n_rows, dim))
        cols = rows if n_cols is None else rng.standard_normal((n_cols, dim))
        expected = np.exp(cdist(rows, cols, "sqeuclidean") * (-1.0 / (2.0 * 0.7**2)))
        if n_cols is None:
            expected = 0.5 * (expected + expected.T)
        np.testing.assert_array_equal(gram(rows, cols, KernelSpec(0.7)), expected)


class TestEmbedSample:
    def test_uniform_weights(self):
        e = embed_sample([[0.0], [2.0]])
        np.testing.assert_array_equal(e.weights, [0.5, 0.5])
        np.testing.assert_array_equal(e.anchors, [[0.0], [2.0]])

    def test_single_point(self):
        e = embed_sample([[1.0]])
        np.testing.assert_array_equal(e.weights, [1.0])

    def test_training_sample_weights(self):
        # the multistep experiment's training set: 250 pairs, uniform 1/250
        data = ou_dataset(m=250, lag=0.1, seed=7)
        e = embed_sample(data.x)
        assert len(e) == 250
        np.testing.assert_array_equal(e.weights, np.full(250, 1.0 / 250))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            embed_sample(np.empty((0, 1)))

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            Embedding(np.zeros((3, 1)), np.zeros(2))


class TestInnerAndNorm:
    def test_delta_self_inner(self, spec):
        d0 = Embedding([[0.0]], [1.0])
        assert rkhs_inner(d0, d0, spec) == 1.0

    def test_delta_cross_inner(self, spec):
        d0 = Embedding([[0.0]], [1.0])
        d1 = Embedding([[1.0]], [1.0])
        assert rkhs_inner(d0, d1, spec) == pytest.approx(EXP_HALF, abs=1e-15)

    def test_uniform_vs_delta(self, spec):
        a = embed_sample([[0.0], [1.0]])
        b = Embedding([[0.0]], [1.0])
        assert rkhs_inner(a, b, spec) == pytest.approx((1.0 + EXP_HALF) / 2.0, abs=1e-15)

    def test_linearity_in_first_argument(self, spec):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_embedding(rng, 2, 10)
            b = random_embedding(rng, 2, 10)
            c = random_embedding(rng, 2, 10)
            ca, cb = rng.standard_normal(2)
            combo = Embedding(np.vstack([a.anchors, b.anchors]),
                              np.concatenate([ca * a.weights, cb * b.weights]))
            lhs = rkhs_inner(combo, c, spec)
            rhs = ca * rkhs_inner(a, c, spec) + cb * rkhs_inner(b, c, spec)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch_rejected(self, spec):
        with pytest.raises(ValueError):
            rkhs_inner(Embedding([[0.0]], [1.0]), Embedding([[0.0, 0.0]], [1.0]), spec)

    def test_large_anchor_set_matches_dense_quadratic(self, spec):
        rng = np.random.default_rng(4)
        n = 4200
        e = Embedding(rng.standard_normal((n, 1)), rng.standard_normal(n) / n)
        direct = float(e.weights @ gram(e.anchors, e.anchors, spec) @ e.weights)
        assert rkhs_inner(e, e, spec) == pytest.approx(direct, abs=1e-10)


class TestMmd:
    def test_identity(self, spec):
        e = embed_sample([[0.3], [0.7]])
        assert mmd(e, e, spec) == 0.0
        wide = wide_3d_embedding(np.random.default_rng(10), 300)
        assert mmd(wide, wide, spec) == 0.0

    def test_two_deltas(self, spec):
        d0 = Embedding([[0.0]], [1.0])
        d1 = Embedding([[1.0]], [1.0])
        expected = math.sqrt(2.0 - 2.0 * EXP_HALF)  # = 0.887095643419994
        assert mmd(d0, d1, spec) == pytest.approx(expected, abs=1e-15)

    def test_symmetry(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_embedding(rng, 2, 15)
            b = random_embedding(rng, 2, 15)
            assert abs(mmd(a, b, spec) - mmd(b, a, spec)) < 1e-14
        a, b = (wide_3d_embedding(rng, 300) for _ in range(2))
        assert _coordinates(a, b, spec) is None
        assert abs(mmd(a, b, spec) - mmd(b, a, spec)) < 1e-14

    def test_matches_brute_force_double_sum(self, spec):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_embedding(rng, 1, 10)
            b = random_embedding(rng, 1, 10)
            anchors = np.vstack([a.anchors, b.anchors])
            signed = np.concatenate([a.weights, -b.weights])
            brute = 0.0
            for i in range(len(signed)):
                for j in range(len(signed)):
                    brute += signed[i] * signed[j] * rbf(anchors[i], anchors[j])
            assert mmd(a, b, spec) ** 2 == pytest.approx(max(brute, 0.0), abs=1e-10)
            # the scalar reference used by acceptance criterion 1 is the same double sum
            assert brute_mmd_sq(anchors.tolist(), signed.tolist()) == pytest.approx(brute, abs=1e-14)

    def test_triangle_inequality(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = (random_embedding(rng, 1, 10) for _ in range(3))
            assert mmd(a, c, spec) <= mmd(a, b, spec) + mmd(b, c, spec) + 1e-12

    def test_clamped_at_zero(self, spec):
        # duplicated anchors with cancelling weights: squared value is pure round-off
        e1 = Embedding([[0.5], [0.5]], [0.5, 0.5])
        e2 = Embedding([[0.5]], [1.0])
        assert mmd(e1, e2, spec) == 0.0

    def test_norm_is_sqrt_self_inner(self, spec):
        rng = np.random.default_rng(8)
        e = random_embedding(rng, 3, 20)
        assert rkhs_norm(e, spec) == pytest.approx(math.sqrt(rkhs_inner(e, e, spec)))


    def test_tiny_distance_keeps_relative_accuracy(self, spec):
        # sqrt(<a,a> + <b,b> - 2<a,b>) cancels to round-off at this distance;
        # the difference of the factor coordinates does not
        rng = np.random.default_rng(11)
        anchors = rng.standard_normal((200, 1))
        k = gram(anchors, anchors, spec)
        delta = rng.standard_normal(200)
        delta *= 2.6e-10 / math.sqrt(delta @ k @ delta)
        reference = math.sqrt(delta @ k @ delta)
        a = Embedding(anchors, np.full(200, 1.0 / 200))
        b = Embedding(anchors, a.weights + delta)
        assert abs(mmd(a, b, spec) - reference) <= 1e-6 * reference


def _gate_case(name):
    """``(a, b, factored)``: two probability embeddings and whether their forms
    are read from the factor (True) or the dense fallback (False)."""
    rng = np.random.default_rng(12)
    if name == "ou-sample-vs-pushforward":
        data = ou_dataset(m=400, lag=0.1, seed=7)
        fresh = ou_dataset(m=400, lag=0.1, seed=8)
        op = fit(data, 0.01, KernelSpec(1.0))
        return embed_sample(fresh.y), pushforward(op, embed_sample(fresh.x)), True
    if name == "triplicated":
        pts = rng.standard_normal((100, 1))
        return embed_sample(np.vstack([pts] * 3)), embed_sample(pts[:40]), True
    if name == "identical":
        return embed_sample(np.full((30, 1), 0.7)), embed_sample(np.full((10, 1), 0.7)), True
    if name == "double-well":
        dw = simulate_pairs(double_well_model(4.0), UniformInitial(-2.0, 2.0), lag=0.1,
                            m=300, seed=3)
        return embed_sample(dw.x), embed_sample(dw.y), True
    # 3-D: the factor of 2000 stacked anchors is wider than the cap of 89
    return (embed_sample(rng.standard_normal((1800, 3))),
            embed_sample(rng.standard_normal((200, 3)) + 0.3), False)


class TestFactoredForms:
    @pytest.mark.parametrize("name", ["ou-sample-vs-pushforward", "triplicated", "identical",
                                      "double-well", "3d-fallback"])
    def test_matches_dense(self, spec, name):
        a, b, factored = _gate_case(name)
        coords = _coordinates(a, b, spec)
        assert (coords is not None) == factored
        z = np.vstack([a.anchors, b.anchors])
        if np.all(z == z[0]):
            assert coords[0].shape == (1,)
        signed = np.concatenate([a.weights, -b.weights])
        inner = float(a.weights @ gram(a.anchors, b.anchors, spec) @ b.weights)
        norm = math.sqrt(float(a.weights @ gram(a.anchors, a.anchors, spec) @ a.weights))
        dist = math.sqrt(max(0.0, float(signed @ gram(z, z, spec) @ signed)))
        assert rkhs_inner(a, b, spec) == pytest.approx(inner, abs=1e-12)
        assert rkhs_norm(a, spec) == pytest.approx(norm, abs=1e-12)
        assert mmd(a, b, spec) == pytest.approx(dist, abs=1e-12)


class TestMedianBandwidth:
    def test_three_point_median(self):
        # pairwise distances {1, 1, 2}: median 1
        assert median_bandwidth([[0.0], [1.0], [2.0]]) == 1.0

    def test_constant_points_fall_back(self):
        assert median_bandwidth(np.zeros((5, 1))) == 1.0

    def test_duplicates_use_positive_distances(self):
        # 6 of 10 pairwise distances are zero; fall back to the positive ones
        bw = median_bandwidth([[0.0], [0.0], [0.0], [0.0], [1.0]])
        assert bw == 1.0

    @pytest.mark.parametrize("case", ["1d-duplicates", "3d", "thinned"])
    def test_bit_identical_to_pdist(self, case):
        rng = np.random.default_rng(4)
        pts = {"1d-duplicates": np.vstack([np.zeros((250, 1)), rng.standard_normal((50, 1))]),
               "3d": rng.standard_normal((500, 3)),
               "thinned": rng.standard_normal((2500, 1))}[case]
        d = pdist(pts[::3] if case == "thinned" else pts)  # max_points=1000 keeps every 3rd
        if case == "1d-duplicates":  # most distances are zero: the positive fallback
            assert np.median(d) == 0
            d = d[d > 0]
        assert median_bandwidth(pts, max_points=1000) == np.median(d)

    def test_large_sample_thinning_stays_close(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((5000, 1))
        full = median_bandwidth(pts, max_points=5000)
        thinned = median_bandwidth(pts, max_points=1000)
        assert abs(full - thinned) < 0.1 * full
