import importlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfersel.bundle import LabelMaskSet, PixelFeatureSet, SubsampleSpec
from xfersel.errors import (
    DimensionMismatchError,
    InvalidSpecError,
    LengthMismatchError,
    NonFiniteCostError,
    XferselError,
)
from xfersel.bundle import flatten_pixels
from xfersel.otce import (
    JointLabelDistribution,
    RowBlockCost,
    SinkhornParams,
    TransportPlan,
    cost_matrix,
    joint_label_distribution,
    otce,
    otce_from_joint,
    sinkhorn,
)

from oracles import (
    conditional_entropy_reference,
    cost_reference,
    cost_whole_matrix_reference,
    joint_reference,
    otce_reference,
    sinkhorn_log_reference,
    sinkhorn_reference,
    sinkhorn_whole_matrix_reference,
)

otce_module = importlib.import_module("xfersel.otce")


def feature_set(features, masks, task_id="t"):
    labels = LabelMaskSet(task_id=task_id, masks=np.asarray(masks, np.uint8))
    return PixelFeatureSet(task_id=task_id,
                           features=np.asarray(features, np.float32),
                           aligned_labels=labels)


class TestCostMatrix:
    def test_zero_self_distance(self):
        v = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(cost_matrix(v, v), [[0.0]])

    def test_three_four_five(self):
        src = np.array([[0.0, 0.0]])
        tgt = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(cost_matrix(src, tgt), [[25.0]])

    def test_matches_double_loop(self):
        rng = np.random.Generator(np.random.Philox(20))
        src = rng.standard_normal((5, 3))
        tgt = rng.standard_normal((7, 3))
        expected = np.array(cost_reference(src.tolist(), tgt.tolist()))
        got = cost_matrix(src, tgt)
        assert np.abs(got - expected).max() <= 1e-10

    def test_never_negative(self):
        rng = np.random.Generator(np.random.Philox(21))
        pts = rng.standard_normal((40, 2)) * 1e-8
        assert cost_matrix(pts, pts).min() >= 0.0

    def test_row_blocks_match_whole_matrix(self, monkeypatch):
        # 3-row blocks over 10 rows: three full blocks and a ragged one
        monkeypatch.setattr(otce_module, "_BLOCK_BYTES", 3 * 8 * 7)
        rng = np.random.Generator(np.random.Philox(38))
        src = rng.standard_normal((10, 3))
        tgt = np.concatenate([src[:2], rng.standard_normal((5, 3))])
        np.testing.assert_array_equal(cost_matrix(src, tgt),
                                      cost_whole_matrix_reference(src, tgt))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cost_matrix(np.ones((2, 3)), np.ones((2, 4)))


class TestSinkhorn:
    def test_one_by_one(self):
        plan = sinkhorn(np.array([[3.7]]))
        np.testing.assert_allclose(plan.coupling, [[1.0]])

    def test_symmetric_instance(self):
        plan = sinkhorn(np.array([[0.0, 1.0], [1.0, 0.0]]),
                        SinkhornParams(epsilon=5.0))
        c = plan.coupling
        assert abs(c[0, 0] - c[1, 1]) <= 1e-9
        assert abs(c[0, 1] - c[1, 0]) <= 1e-9
        assert abs(c.sum() - 1.0) <= 1e-9
        assert plan.final_marginal_error <= 1e-9

    def test_matches_scalar_fixed_point(self):
        cost = [[0.0, 1.0], [1.0, 0.0]]
        expected = np.array(sinkhorn_reference(cost, 0.1))
        plan = sinkhorn(np.array(cost), SinkhornParams(epsilon=0.1))
        assert np.abs(plan.coupling - expected).max() <= 1e-8

    def test_matches_scalar_fixed_point_random(self):
        rng = np.random.Generator(np.random.Philox(22))
        for _ in range(5):
            cost = rng.random((4, 6))
            expected = np.array(sinkhorn_reference(cost.tolist(), 0.1))
            plan = sinkhorn(cost, SinkhornParams(epsilon=0.1))
            assert np.abs(plan.coupling - expected).max() <= 1e-8

    def test_matches_scalar_fixed_point_mild_costs(self):
        rng = np.random.Generator(np.random.Philox(23))
        cost = rng.random((5, 5))
        expected = np.array(sinkhorn_reference(cost.tolist(), 0.5))
        plan = sinkhorn(cost, SinkhornParams(epsilon=0.5))
        assert np.abs(plan.coupling - expected).max() <= 1e-9

    def test_costs_where_plain_kernel_underflows(self):
        # two well-separated clusters of equal mass: within-cluster costs are
        # small, cross-cluster costs reach C/eps > 1000
        rng = np.random.Generator(np.random.Philox(36))
        src = np.concatenate([rng.random((3, 2)), rng.random((3, 2)) + 10.0])
        tgt = np.concatenate([rng.random((4, 2)), rng.random((4, 2)) + 10.0])
        cost = cost_matrix(src, tgt)
        assert cost.max() / 0.1 > 1000
        assert (np.exp(-cost / 0.1) == 0.0).any()
        plan = sinkhorn(cost, SinkhornParams(epsilon=0.1))
        coupling = plan.coupling
        assert np.isfinite(coupling).all()
        assert plan.final_marginal_error <= 1e-9
        assert np.abs(coupling.sum(axis=1) - 1 / 6).max() <= 1e-9
        assert np.abs(coupling.sum(axis=0) - 1 / 8).max() <= 1e-9
        expected = sinkhorn_log_reference(cost, 0.1)
        assert np.abs(coupling - expected).max() <= 1e-9

    def test_column_that_underflows_from_every_row(self):
        # exp(-C/eps) of the last two columns is 0 in the only row (C/eps up
        # to 2000); a set-up of f = min_j C_ij/eps, g = 0 would leave them
        # unreachable, but the log-domain set-up balances them in one sweep
        plan = sinkhorn(np.array([[0.0, 5.0, 10.0]]),
                        SinkhornParams(epsilon=0.005))
        np.testing.assert_allclose(plan.coupling, [[1 / 3, 1 / 3, 1 / 3]],
                                   rtol=0, atol=1e-12)
        assert plan.iterations_used == 1
        assert plan.final_marginal_error <= 1e-9

    def test_absorption_leaves_plan_unchanged(self, monkeypatch):
        # a tiny threshold folds the scalings into the potentials almost
        # every sweep; the plan and the sweep count must not notice
        otce_module = importlib.import_module("xfersel.otce")
        rng = np.random.Generator(np.random.Philox(37))
        fill = otce_module._fill_kernel
        for _ in range(5):
            cost = rng.random((6, 9))
            base = sinkhorn(cost, SinkhornParams(epsilon=0.02))
            rebuilds = []
            with monkeypatch.context() as m:
                m.setattr(otce_module, "_ABSORB_LOG", 0.5)
                m.setattr(otce_module, "_fill_kernel",
                          lambda *args: rebuilds.append(1) or fill(*args))
                absorbed = sinkhorn(cost, SinkhornParams(epsilon=0.02))
            assert len(rebuilds) > 0
            assert absorbed.iterations_used == base.iterations_used
            assert np.abs(absorbed.coupling - base.coupling).max() <= 1e-12

    @pytest.mark.parametrize("epsilon, max_iters", [
        (0.1, 1000), (0.005, 1000), (0.01, 7)],
        ids=["converged", "absorbing", "budget-bound"])
    def test_row_blocks_match_whole_matrix_solver(self, monkeypatch, epsilon,
                                                  max_iters):
        # 4-row blocks over 11 rows: the set-up, the column sums and every
        # kernel rebuild cross block edges, a ragged last block included
        monkeypatch.setattr(otce_module, "_BLOCK_BYTES", 4 * 8 * 13)
        rng = np.random.Generator(np.random.Philox(39))
        cost = cost_matrix(rng.standard_normal((11, 2)),
                           rng.standard_normal((13, 2)) + 0.5)
        given = cost.copy()
        plan = sinkhorn(cost, SinkhornParams(epsilon=epsilon,
                                             max_iters=max_iters))
        expected, sweeps = sinkhorn_whole_matrix_reference(
            cost, epsilon, max_iters=max_iters)
        assert plan.iterations_used == sweeps
        np.testing.assert_array_equal(plan.coupling, expected)
        np.testing.assert_array_equal(cost, given)

    @given(n_s=st.integers(1, 24), n_t=st.integers(1, 24),
           block_rows=st.integers(1, 24),
           epsilon=st.sampled_from([0.005, 0.02, 0.1, 0.5]),
           max_iters=st.integers(1, 300),
           span=st.one_of(st.integers(1, 8), st.just(300)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_whole_matrix_solver_bit_for_bit(self, n_s, n_t,
                                                     block_rows, epsilon,
                                                     max_iters, span, seed):
        # converged, budget-bound and absorbing runs alike: the in-place
        # sweeps, their stop test from the row extremes and the tests run
        # once per block of `span` sweeps, with the rewind to the first
        # stop or absorption and a last block cut by the budget, change no
        # bit; 300 sweeps a block run the whole budget as one block
        rng = np.random.Generator(np.random.Philox(seed))
        channels = int(rng.integers(1, 5))
        cost = cost_matrix(rng.standard_normal((n_s, channels)),
                           rng.standard_normal((n_t, channels)) + 0.5)
        with mock.patch.object(otce_module, "_BLOCK_BYTES",
                               block_rows * 8 * n_t), \
                mock.patch.object(otce_module, "_SPAN", span):
            plan = sinkhorn(cost, SinkhornParams(epsilon=epsilon,
                                                 max_iters=max_iters))
        expected, sweeps = sinkhorn_whole_matrix_reference(
            cost, epsilon, max_iters=max_iters)
        assert plan.iterations_used == sweeps
        np.testing.assert_array_equal(plan.coupling, expected)

    @given(n_s=st.integers(1, 24), n_t=st.integers(1, 24),
           block_rows=st.integers(1, 24),
           epsilon=st.sampled_from([0.005, 0.02, 0.1, 0.5]),
           max_iters=st.integers(1, 300),
           span=st.one_of(st.integers(1, 8), st.just(300)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_row_block_cost_matches_its_matrix(self, n_s, n_t, block_rows,
                                               epsilon, max_iters, span,
                                               seed):
        # the set-up and every absorption's rebuild read the lists' rows
        # where they read the array's, so no bit of the plan moves
        rng = np.random.Generator(np.random.Philox(seed))
        channels = int(rng.integers(1, 5))
        src = rng.standard_normal((n_s, channels))
        tgt = rng.standard_normal((n_t, channels)) + 0.5
        params = SinkhornParams(epsilon=epsilon, max_iters=max_iters)
        with mock.patch.object(otce_module, "_BLOCK_BYTES",
                               block_rows * 8 * n_t), \
                mock.patch.object(otce_module, "_SPAN", span):
            lazy = sinkhorn(RowBlockCost(src, tgt), params)
            dense = sinkhorn(cost_matrix(src, tgt), params)
        assert lazy.iterations_used == dense.iterations_used
        assert lazy.final_marginal_error == dense.final_marginal_error
        np.testing.assert_array_equal(lazy.coupling, dense.coupling)

    @pytest.mark.parametrize("epsilon, max_iters, converges, absorbs", [
        (0.1, 1000, True, False), (0.005, 1000, False, True),
        (0.01, 7, False, False)],
        ids=["converged", "absorbing", "budget-bound"])
    def test_row_block_cost_runs_of_each_kind(self, monkeypatch, epsilon,
                                              max_iters, converges, absorbs):
        # the property's three kinds of run, each shown to be that kind
        monkeypatch.setattr(otce_module, "_BLOCK_BYTES", 4 * 8 * 13)
        monkeypatch.setattr(otce_module, "_SPAN", 3)
        rng = np.random.Generator(np.random.Philox(39))
        src = rng.standard_normal((11, 2))
        tgt = rng.standard_normal((13, 2)) + 0.5
        params = SinkhornParams(epsilon=epsilon, max_iters=max_iters)
        fill = otce_module._fill_kernel
        rebuilds = []
        monkeypatch.setattr(otce_module, "_fill_kernel",
                            lambda *args: rebuilds.append(1) or fill(*args))
        lazy = sinkhorn(RowBlockCost(src, tgt), params)
        assert (lazy.iterations_used < max_iters) == converges
        assert bool(rebuilds) == absorbs
        dense = sinkhorn(cost_matrix(src, tgt), params)
        assert lazy.iterations_used == dense.iterations_used
        np.testing.assert_array_equal(lazy.coupling, dense.coupling)

    def test_feasibility_on_random_costs(self):
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(20):
            n_s = int(rng.integers(2, 33))
            n_t = int(rng.integers(2, 33))
            plan = sinkhorn(rng.random((n_s, n_t)))
            coupling = plan.coupling
            assert coupling.min() >= 0.0
            assert abs(coupling.sum() - 1.0) <= 1e-9
            assert np.abs(coupling.sum(axis=1) - 1.0 / n_s).max() <= 1e-9
            assert np.abs(coupling.sum(axis=0) - 1.0 / n_t).max() <= 1e-9

    def test_epsilon_cost_rescaling_leaves_plan_unchanged(self):
        rng = np.random.Generator(np.random.Philox(25))
        cost = rng.random((6, 4))
        base = sinkhorn(cost, SinkhornParams(epsilon=0.1))
        for a in (0.5, 2.0, 10.0):
            scaled = sinkhorn(a * a * cost,
                              SinkhornParams(epsilon=0.1 * a * a))
            assert np.abs(base.coupling - scaled.coupling).max() <= 1e-8

    def test_nonconvergence_reports_residual(self):
        rng = np.random.Generator(np.random.Philox(26))
        plan = sinkhorn(rng.random((8, 8)),
                        SinkhornParams(epsilon=0.01, max_iters=2))
        assert plan.iterations_used == 2
        assert plan.final_marginal_error > 0

    def test_nonfinite_cost_rejected(self):
        with pytest.raises(NonFiniteCostError):
            sinkhorn(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestJointDistribution:
    def plan_of(self, coupling):
        return TransportPlan(coupling=np.asarray(coupling, float),
                             iterations_used=0, final_marginal_error=0.0)

    def test_single_class_total_mass(self):
        plan = self.plan_of([[0.25, 0.25], [0.25, 0.25]])
        joint = joint_label_distribution(plan, [0, 0], [0, 0])
        np.testing.assert_allclose(joint.table, [[1.0]])

    def test_uniform_coupling_identity_labels(self):
        plan = self.plan_of([[0.25, 0.25], [0.25, 0.25]])
        joint = joint_label_distribution(plan, [0, 1], [0, 1])
        np.testing.assert_allclose(joint.table,
                                   [[0.25, 0.25], [0.25, 0.25]])

    def test_matches_double_loop(self):
        rng = np.random.Generator(np.random.Philox(27))
        coupling = rng.random((6, 6))
        coupling /= coupling.sum()
        src_labels = rng.integers(0, 2, 6)
        tgt_labels = rng.integers(0, 2, 6)
        joint = joint_label_distribution(self.plan_of(coupling),
                                         src_labels, tgt_labels)
        ref = joint_reference(coupling.tolist(), src_labels, tgt_labels)
        for i, ys in enumerate(joint.source_classes):
            for j, yt in enumerate(joint.target_classes):
                assert joint.table[i, j] == pytest.approx(
                    ref.get((ys, yt), 0.0), abs=1e-12)

    def test_matches_scatter_add_many_classes(self):
        rng = np.random.Generator(np.random.Philox(38))
        coupling = rng.random((40, 30))
        coupling /= coupling.sum()
        src_labels = rng.choice([0, 2, 5], 40)
        tgt_labels = rng.choice([1, 3, 4, 7], 30)
        joint = joint_label_distribution(self.plan_of(coupling),
                                         src_labels, tgt_labels)
        _, src_idx = np.unique(src_labels, return_inverse=True)
        _, tgt_idx = np.unique(tgt_labels, return_inverse=True)
        expected = np.zeros((3, 4))
        np.add.at(expected, (src_idx[:, None], tgt_idx[None, :]), coupling)
        np.testing.assert_array_equal(joint.source_classes, [0, 2, 5])
        np.testing.assert_array_equal(joint.target_classes, [1, 3, 4, 7])
        assert np.abs(joint.table - expected).max() <= 1e-12

    def test_length_mismatch(self):
        plan = self.plan_of([[0.5, 0.5]])
        with pytest.raises(LengthMismatchError):
            joint_label_distribution(plan, [0, 1], [0, 1])

    def test_column_sums_equal_target_label_marginal(self):
        rng = np.random.Generator(np.random.Philox(35))
        cost = rng.random((8, 10))
        plan = sinkhorn(cost)
        tgt_labels = rng.integers(0, 3, 10)
        joint = joint_label_distribution(plan, rng.integers(0, 2, 8),
                                         tgt_labels)
        for j, cls in enumerate(joint.target_classes):
            empirical = np.mean(tgt_labels == cls)
            assert joint.table[:, j].sum() == pytest.approx(
                empirical, abs=2e-9)


class TestConditionalEntropy:
    def j(self, table):
        table = np.asarray(table, float)
        return JointLabelDistribution(
            table=table,
            source_classes=np.arange(table.shape[0]),
            target_classes=np.arange(table.shape[1]))

    def test_deterministic_correspondence(self):
        assert otce_from_joint(self.j([[0.5, 0.0], [0.0, 0.5]])) == 0.0

    def test_independent_uniform(self):
        got = otce_from_joint(self.j([[0.25, 0.25], [0.25, 0.25]]))
        assert got == pytest.approx(-np.log(2), abs=1e-9)

    def test_single_target_class(self):
        assert otce_from_joint(self.j([[0.7], [0.3]])) == 0.0

    def test_zero_rows_ignored(self):
        got = otce_from_joint(self.j([[0.0, 0.0], [0.5, 0.5]]))
        assert got == pytest.approx(-np.log(2), abs=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.Generator(np.random.Philox(28))
        table = rng.random((3, 4))
        table /= table.sum()
        ref = conditional_entropy_reference(
            {(i, j): table[i, j] for i in range(3) for j in range(4)})
        assert otce_from_joint(self.j(table)) == pytest.approx(ref, abs=1e-12)


class TestOtcePipeline:
    def test_single_class_target_scores_zero(self):
        rng = np.random.Generator(np.random.Philox(29))
        src = feature_set(rng.standard_normal((1, 2, 2, 2)),
                          rng.integers(0, 2, (1, 2, 2)), "s")
        tgt = feature_set(rng.standard_normal((1, 2, 2, 2)),
                          np.ones((1, 2, 2)), "t")
        assert otce(src, tgt).score == 0.0

    def test_constant_features_balanced_labels(self):
        feats = np.ones((1, 2, 2, 3), np.float32)
        masks = np.array([[[0, 1], [0, 1]]], np.uint8)
        src = feature_set(feats, masks, "s")
        tgt = feature_set(feats, masks, "t")
        report = otce(src, tgt)
        assert report.score == pytest.approx(-np.log(2), abs=1e-6)

    def test_matches_composed_oracle(self):
        rng = np.random.Generator(np.random.Philox(30))
        for _ in range(5):
            n_px = 4
            src_f = rng.random((1, 2, 2, 2)).astype(np.float32)
            tgt_f = rng.random((1, 2, 2, 2)).astype(np.float32)
            src_m = rng.integers(0, 2, (1, 2, 2))
            tgt_m = rng.integers(0, 2, (1, 2, 2))
            src = feature_set(src_f, src_m, "s")
            tgt = feature_set(tgt_f, tgt_m, "t")
            got = otce(src, tgt).score
            expected = otce_reference(
                src_f.astype(np.float64).reshape(n_px, 2).tolist(),
                src_m.reshape(n_px).tolist(),
                tgt_f.astype(np.float64).reshape(n_px, 2).tolist(),
                tgt_m.reshape(n_px).tolist(),
                epsilon=0.1)
            assert got == pytest.approx(expected, abs=1e-6)

    def test_score_range(self):
        rng = np.random.Generator(np.random.Philox(31))
        for _ in range(10):
            src = feature_set(rng.standard_normal((2, 3, 3, 2)),
                              rng.integers(0, 2, (2, 3, 3)), "s")
            tgt = feature_set(rng.standard_normal((2, 3, 3, 2)),
                              rng.integers(0, 2, (2, 3, 3)), "t")
            report = otce(src, tgt)
            n_classes = len(np.unique(tgt.aligned_labels.masks))
            assert -np.log(n_classes) - 1e-9 <= report.score <= 1e-9

    def test_source_pixel_permutation_invariance(self):
        rng = np.random.Generator(np.random.Philox(32))
        feats = rng.standard_normal((1, 2, 3, 2)).astype(np.float32)
        masks = rng.integers(0, 2, (1, 2, 3)).astype(np.uint8)
        base = otce(feature_set(feats, masks, "s"),
                    feature_set(feats, masks, "t")).score
        perm = np.array([3, 0, 5, 1, 4, 2])
        feats_p = feats.reshape(6, 2)[perm].reshape(1, 2, 3, 2)
        masks_p = masks.reshape(6)[perm].reshape(1, 2, 3)
        permuted = otce(feature_set(feats_p, masks_p, "s"),
                        feature_set(feats, masks, "t")).score
        assert permuted == pytest.approx(base, abs=1e-9)

    def test_channel_mismatch(self):
        rng = np.random.Generator(np.random.Philox(33))
        src = feature_set(rng.standard_normal((1, 2, 2, 2)),
                          rng.integers(0, 2, (1, 2, 2)), "s")
        tgt = feature_set(rng.standard_normal((1, 2, 2, 3)),
                          rng.integers(0, 2, (1, 2, 2)), "t")
        with pytest.raises(DimensionMismatchError):
            otce(src, tgt)

    def test_pair_holds_one_array(self):
        # the kernel is the only 1024 x 1024 float64 array of a pair; the
        # cost and every other N x N step run in row blocks
        rng = np.random.Generator(np.random.Philox(40))
        src = feature_set(rng.standard_normal((4, 16, 16, 4)),
                          rng.integers(0, 3, (4, 16, 16)), "s")
        tgt = feature_set(rng.standard_normal((4, 16, 16, 4)),
                          rng.integers(0, 3, (4, 16, 16)), "t")
        sampler = SubsampleSpec(max_pixels=1024)
        tracemalloc.start()
        try:
            otce(src, tgt, sampler, SinkhornParams(max_iters=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 1024 * 1024 * 8

    @pytest.mark.parametrize("shape, channels, params", [
        ((3, 10, 10), 16, SinkhornParams()),
        ((2, 8, 8), 128, SinkhornParams()),
    ], ids=["300-px", "budget-bound-subnormal"])
    def test_ot_cost_matches_plan_against_cost_matrix(self, shape, channels,
                                                      params):
        # the 300-px lists are a shape where a row block's matmul is not
        # the whole matmul's rows; the 128-px plan spends its budget with
        # subnormal entries
        rng = np.random.Generator(np.random.Philox(43))
        src = feature_set(rng.standard_normal((*shape, channels)),
                          rng.integers(0, 2, shape), "s")
        tgt = feature_set(rng.standard_normal((*shape, channels)) + 0.5,
                          rng.integers(0, 2, shape), "t")
        sampler = SubsampleSpec()
        report = otce(src, tgt, sampler, params)
        cost = cost_matrix(flatten_pixels(src, sampler)[0],
                           flatten_pixels(tgt, sampler)[0])
        plan = sinkhorn(cost, params).coupling
        if channels == 128:
            assert report.final_marginal_error > params.marginal_tol
            assert ((plan > 0) & (plan < np.finfo(float).tiny)).any()
        expected = np.vdot(plan, cost)
        assert abs(report.ot_cost - expected) <= 1e-12 * abs(expected)

    def test_memory_estimate_over_physical_memory(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(41))
        fs = feature_set(rng.standard_normal((1, 4, 4, 2)),
                         rng.integers(0, 2, (1, 4, 4)), "s")
        pair = 9 * 9 * 8  # the kernel of 9 x 9 pixels
        monkeypatch.setattr(otce_module, "available_memory_bytes",
                            lambda: pair - 1)
        with pytest.raises(InvalidSpecError, match="--max-pixels"):
            otce(fs, fs, SubsampleSpec(max_pixels=9))
        monkeypatch.setattr(otce_module, "available_memory_bytes",
                            lambda: pair)
        assert otce(fs, fs, SubsampleSpec(max_pixels=9)).score <= 1e-9

    def test_memory_bound_is_available_memory(self, tmp_path, monkeypatch):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:  8000 kB\nMemFree:  512 kB\n"
                           "MemAvailable:  1024 kB\n")
        monkeypatch.setattr(otce_module, "MEMINFO", str(meminfo))
        assert otce_module.available_memory_bytes() == 1024 * 1024
        rng = np.random.Generator(np.random.Philox(42))
        fs = feature_set(rng.standard_normal((1, 16, 32, 2)),
                         rng.integers(0, 2, (1, 16, 32)), "s")
        # 512 x 512 x 8 B is 2 MiB, more than the 1 MiB available
        with pytest.raises(InvalidSpecError,
                           match="of available memory; lower --max-pixels"):
            otce(fs, fs, SubsampleSpec(max_pixels=512))
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        meminfo.write_text("MemTotal:  8000 kB\n")
        assert otce_module.available_memory_bytes() == physical
        monkeypatch.setattr(otce_module, "MEMINFO", str(tmp_path / "missing"))
        assert otce_module.available_memory_bytes() == physical


def _plan(n_s, n_t):
    return TransportPlan(coupling=np.full((n_s, n_t), 1.0 / (n_s * n_t)),
                         iterations_used=0, final_marginal_error=0.0)


@pytest.mark.parametrize("call, code, detail", [
    (lambda: SinkhornParams(marginal_tol=0.0), "InvalidSpec",
     "marginal_tol must be > 0 and finite"),
    (lambda: SinkhornParams(marginal_tol=-1e-9), "InvalidSpec",
     "marginal_tol must be > 0 and finite"),
    (lambda: SinkhornParams(max_iters=0), "InvalidSpec",
     "max_iters must be >= 1"),
    (lambda: SinkhornParams(epsilon="0.1"), "InvalidSpec",
     "epsilon must be a real number, got '0.1'"),
    (lambda: SinkhornParams(max_iters=2.5), "InvalidSpec",
     "max_iters must be an integer, got 2.5"),
    (lambda: SinkhornParams(marginal_tol=None), "InvalidSpec",
     "marginal_tol must be a real number, got None"),
    (lambda: SinkhornParams(epsilon=10**400), "InvalidSpec",
     f"epsilon must be a real number, got {10**400!r}"),
    (lambda: cost_matrix(np.ones(3), np.ones((2, 3))), "DimensionMismatch",
     "feature lists must be 2-D [N, C]"),
    (lambda: cost_matrix(np.ones((0, 3)), np.ones((2, 3))),
     "DimensionMismatch", "feature lists must be non-empty"),
    (lambda: sinkhorn(np.ones(3)), "NonFiniteCost",
     "cost must be a non-empty 2-D matrix"),
    (lambda: joint_label_distribution(_plan(2, 3), [0, 1], [0, 1]),
     "LengthMismatch", "2 target labels for 3 coupling columns"),
], ids=["marginal-tol-0", "marginal-tol-negative", "max-iters-0",
        "epsilon-str", "max-iters-float", "marginal-tol-none",
        "epsilon-past-float-range",
        "cost-1d", "cost-empty", "sinkhorn-1d", "joint-target-labels"])
def test_input_guards(call, code, detail):
    with pytest.raises(XferselError) as info:
        call()
    assert (info.value.code, info.value.detail) == (code, detail)
