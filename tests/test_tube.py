import numpy as np
import pytest

from mmdtube import (
    Embedding,
    OperatorNorms,
    closed_form_bound_computable,
    closed_form_bound_oracle,
    embed_sample,
    fit,
    load_tube_radii,
    operator_norm,
    propagate_tube,
    pushforward,
    radius_series,
    rkhs_norm,
    save_tube,
)
from mmdtube import kernels, operators
from mmdtube.tube import AmbiguityTube, TubeStep

from conftest import ou_dataset


class TestRadiusRecursion:
    def test_single_step_unroll(self):
        e, f, rho0, n0 = 0.9, 0.2, 0.1, 1.4
        assert closed_form_bound_computable(e, f, rho0, [n0], 1) == pytest.approx(
            (e + f) * rho0 + f * n0, abs=1e-15)

    def test_hand_unrolled_two_steps(self):
        # rho0 = 0, E = F = 1, norms (n0, n1): final radius F n1 + (E+F) F n0
        n0, n1 = 0.8, 0.3
        assert closed_form_bound_computable(1.0, 1.0, 0.0, [n0, n1], 2) == pytest.approx(
            n1 + 2.0 * n0, abs=1e-15)
        assert radius_series(1.0, 1.0, 0.0, [n0, n1])[-1] == pytest.approx(
            n1 + 2.0 * n0, abs=1e-15)

    def test_recursion_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e, f, rho0 = rng.uniform(0.0, 2.0, 3)
            horizon = int(rng.integers(1, 51))
            norms = rng.uniform(0.0, 3.0, horizon)
            rec = radius_series(e, f, rho0, norms)[-1]
            closed = closed_form_bound_computable(e, f, rho0, norms, horizon)
            assert rec == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_zero_deviation_collapses_exactly(self):
        series = radius_series(0.8, 0.0, 0.5, np.ones(20))
        closed = closed_form_bound_computable(0.8, 0.0, 0.5, np.ones(20), 20)
        assert series[-1] == closed
        assert series[-1] == pytest.approx(0.8**20 * 0.5, rel=1e-13)
        assert radius_series(0.5, 0.0, 0.25, np.ones(8))[-1] == 0.5**8 * 0.25

    def test_zero_radius_zero_deviation_stays_zero(self):
        np.testing.assert_array_equal(radius_series(1.3, 0.0, 0.0, np.ones(10)),
                                      np.zeros(11))

    def test_strictly_increasing_under_growth(self):
        # E + F >= 1, F > 0, positive norms: radii strictly increase
        series = radius_series(0.9, 0.3, 0.05, np.full(15, 0.4))
        assert np.all(np.diff(series) > 0)

    def test_rejections(self):
        with pytest.raises(ValueError):
            radius_series(1.0, 0.1, -0.1, np.ones(3))
        with pytest.raises(ValueError):
            closed_form_bound_computable(1.0, 0.1, 0.1, np.ones(2), 3)
        with pytest.raises(ValueError):
            closed_form_bound_computable(1.0, 0.1, 0.1, np.ones(3), 0)


class TestOracleBound:
    def test_zero_deviation_term(self):
        assert closed_form_bound_oracle(0.7, 0.0, 0.2, np.ones(9), 10) == pytest.approx(
            0.7**10 * 0.2, rel=1e-14)

    def test_direct_summation(self):
        # E = F = 1, mmd0 = 0, unit true norms, T = 3: sum over i = 1..2 gives 2
        assert closed_form_bound_oracle(1.0, 1.0, 0.0, np.ones(2), 3) == 2.0

    def test_dominated_by_computable_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            e, f = rng.uniform(0.0, 1.5, 2)
            horizon = int(rng.integers(2, 12))
            true_norms = rng.uniform(0.0, 1.0, horizon)
            slack = rng.uniform(0.0, 0.5, horizon)
            mmd0 = rng.uniform(0.0, 0.5)
            oracle = closed_form_bound_oracle(e, f, mmd0, true_norms, horizon)
            computable = closed_form_bound_computable(e, f, mmd0 + 0.1,
                                                      true_norms + slack, horizon)
            assert oracle <= computable + 1e-12

    def test_requires_enough_norms(self):
        with pytest.raises(ValueError):
            closed_form_bound_oracle(1.0, 1.0, 0.0, np.ones(1), 5)


class TestPropagateTube:
    def test_structure_and_centers(self, spec):
        data = ou_dataset(m=20, seed=0)
        op = fit(data, 0.05, spec)
        initial = embed_sample(data.x)
        norms = OperatorNorms(operator_norm(op), 0.1)
        tube = propagate_tube(op, initial, 0.1, 6, norms)
        assert tube.horizon == 6
        assert len(tube.steps) == 7
        assert tube.steps[0].embedding is initial
        assert tube.steps[0].radius == 0.1
        # centers are the exact pushforward chain
        current = initial
        for step in tube.steps[1:]:
            current = pushforward(op, current)
            np.testing.assert_array_equal(step.embedding.weights, current.weights)

    def test_norms_match_embeddings(self, spec):
        data = ou_dataset(m=15, seed=1)
        op = fit(data, 0.05, spec)
        tube = propagate_tube(op, embed_sample(data.x), 0.0, 4,
                              OperatorNorms(operator_norm(op), 0.2))
        for step in tube.steps:
            assert step.norm == pytest.approx(rkhs_norm(step.embedding, spec), abs=1e-14)

    def test_final_radius_matches_closed_form(self, spec):
        data = ou_dataset(m=15, seed=2)
        op = fit(data, 0.05, spec)
        e = operator_norm(op)
        tube = propagate_tube(op, embed_sample(data.x), 0.3, 8, OperatorNorms(e, 0.07))
        closed = closed_form_bound_computable(e, 0.07, 0.3, tube.norms[:8], 8)
        assert tube.radii[-1] == pytest.approx(closed, rel=1e-12)

    def test_zero_deviation_pure_contraction(self, spec):
        data = ou_dataset(m=15, seed=3)
        op = fit(data, 0.05, spec)
        e = operator_norm(op)
        tube = propagate_tube(op, embed_sample(data.x), 0.1, 5, OperatorNorms(e, 0.0))
        np.testing.assert_allclose(tube.radii, 0.1 * e ** np.arange(6), rtol=1e-12)

    def test_rejections(self, spec):
        data = ou_dataset(m=10, seed=4)
        op = fit(data, 0.05, spec)
        initial = embed_sample(data.x)
        with pytest.raises(ValueError):
            propagate_tube(op, initial, -0.1, 5, OperatorNorms(1.0, 0.1))
        with pytest.raises(ValueError):
            propagate_tube(op, initial, 0.1, 0, OperatorNorms(1.0, 0.1))
        with pytest.raises(ValueError):
            OperatorNorms(-1.0, 0.1)

    def test_training_anchors_build_no_gram(self, spec, monkeypatch):
        # a tube from the training inputs, and a pushforward of an equal copy of
        # the training outputs, read the operator's factor; foreign anchors
        # still build the dense cross-Gram
        data = ou_dataset(m=40, seed=5)
        op = fit(data, 0.05, spec)
        norms = OperatorNorms(operator_norm(op), 0.1)

        def refuse(*args, **kwargs):
            raise AssertionError("gram called")

        monkeypatch.setattr(operators, "gram", refuse)
        monkeypatch.setattr(kernels, "gram", refuse)
        assert propagate_tube(op, embed_sample(data.x), 0.1, 5, norms).horizon == 5
        pushforward(op, embed_sample(data.y.copy()))
        with pytest.raises(AssertionError, match="gram called"):
            pushforward(op, embed_sample(ou_dataset(m=30, seed=6).x))


class TestTubeSerialization:
    def test_radius_csv_round_trip(self, spec, tmp_path):
        data = ou_dataset(m=12, seed=5)
        op = fit(data, 0.05, spec)
        tube = propagate_tube(op, embed_sample(data.x), 0.1, 5,
                              OperatorNorms(operator_norm(op), 0.05))
        radius_csv, weights_csv = save_tube(tube, tmp_path / "tube.csv",
                                            tmp_path / "weights.csv")
        table = load_tube_radii(radius_csv)
        np.testing.assert_array_equal(table[:, 0], np.arange(6))
        np.testing.assert_array_equal(table[:, 1], tube.radii)
        np.testing.assert_array_equal(table[:, 2], tube.norms)
        assert radius_csv.read_text().splitlines()[0] == "t,radius,embedding_norm"
        assert weights_csv.read_text().splitlines()[0] == "t,anchor_index,weight"

    def test_weights_csv_contents(self, spec, tmp_path):
        data = ou_dataset(m=8, seed=6)
        op = fit(data, 0.05, spec)
        tube = propagate_tube(op, embed_sample(data.x), 0.1, 3,
                              OperatorNorms(operator_norm(op), 0.05))
        _, weights_csv = save_tube(tube, tmp_path / "tube.csv", tmp_path / "weights.csv")
        rows = np.loadtxt(weights_csv, delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (4 * 8, 3)
        step2 = rows[rows[:, 0] == 2]
        np.testing.assert_array_equal(step2[:, 2], tube.steps[2].embedding.weights)

    def test_weights_csv_bytes_match_savetxt(self, tmp_path):
        # negative, subnormal, signed-zero and extreme weights, anchor counts per step
        weights = [np.array([-1.5, 5e-324, -2.2e-308, 1.0 / 3.0]),
                   np.array([0.0, -0.0, 1e300, -7.0, 2.5e-320]),
                   np.array([-np.pi])]
        tube = AmbiguityTube(tuple(
            TubeStep(Embedding(np.zeros((w.shape[0], 1)), w), radius=0.1, norm=1.0)
            for w in weights))
        _, weights_csv = save_tube(tube, tmp_path / "tube.csv", tmp_path / "weights.csv")
        rows = np.vstack([np.column_stack([np.full(w.shape[0], t), np.arange(w.shape[0]), w])
                          for t, w in enumerate(weights)])
        reference = tmp_path / "reference.csv"
        np.savetxt(reference, rows, delimiter=",", comments="",
                   header="t,anchor_index,weight", fmt=["%d", "%d", "%.17g"])
        assert weights_csv.read_bytes() == reference.read_bytes()
