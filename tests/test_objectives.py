import numpy as np
import pytest

from conftest import random_problem, random_state
from greedycd.objectives import (Box, CompositeProblem, DualSVM,
                                 ElasticNetL1, IterateState, L1, Logistic,
                                 SquaredResidual,
                                 apply_coord_delta, coord_grad, duality_gap,
                                 full_grad, grad_l, make_lasso, make_svm_dual,
                                 objective_value, subgrad_score)
from greedycd.data_io import (CorrelatedLasso, RandomSvm, SynthSpec,
                              fold_labels, gen_synthetic)
from greedycd.selection import Rule
from greedycd.solver import SolverConfig, solve_box, solve_l1
from greedycd.sparse import SparseColMatrix, col_dot
from test_sparse import loop_product


class TestSmoothness:
    def test_lasso_is_max_col_norm(self, rng):
        p = random_problem("lasso", rng)
        assert p.smoothness == pytest.approx(p.matrix.col_sq_norms.max())

    def test_elastic_net_adds_quadratic_weight(self, rng):
        p = random_problem("elasticnet", rng, lam2=0.25)
        assert p.smoothness == pytest.approx(
            p.matrix.col_sq_norms.max() + 0.25)

    def test_svm_scaling(self, rng):
        p = random_problem("svm", rng, n=10)
        expect = p.matrix.col_sq_norms.max() / (0.5 * 100)
        assert p.smoothness == pytest.approx(expect)

    def test_logistic_quarter(self, rng):
        p = random_problem("logistic", rng)
        assert p.smoothness == pytest.approx(p.matrix.col_sq_norms.max() / 4)

    def test_zero_matrix_rejected(self):
        M = SparseColMatrix.from_dense(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="all-zero matrix"):
            CompositeProblem(M, np.zeros(2), Logistic(), L1(0.1))

    def test_non_finite_column_norm_rejected(self):
        # the squared norm of (1e200, 1e200) overflows, and L with it
        with np.errstate(over="ignore"):
            M = SparseColMatrix.from_dense([[1e200, 1], [1e200, 2]])
        with pytest.raises(ValueError, match="column 0 .* not finite"):
            make_lasso(M, [1e200, 1], 0.1)
        M = SparseColMatrix.from_dense([[1.0, 1.0, np.nan], [2.0, np.inf, 0]])
        with pytest.raises(ValueError, match="column 1 .* not finite"):
            CompositeProblem(M, np.zeros(3), Logistic(), L1(0.1))


class TestValuesAndGradients:
    def test_objective_matches_dense_lasso(self, rng):
        p = random_problem("lasso", rng)
        s = random_state(p, rng)
        A, b = p.matrix.to_dense(), p.loss.target
        expect = 0.5 * np.sum((A @ s.alpha - b) ** 2) \
            + p.reg.lam * np.abs(s.alpha).sum()
        assert objective_value(p, s) == pytest.approx(expect)

    def test_objective_matches_dense_logistic(self, rng):
        p = random_problem("logistic", rng)
        s = random_state(p, rng)
        v = p.matrix.to_dense() @ s.alpha
        expect = np.sum(np.log1p(np.exp(-v))) + p.reg.lam * np.abs(s.alpha).sum()
        assert objective_value(p, s) == pytest.approx(expect)

    def test_box_infeasible_rejected(self, rng):
        p = random_problem("svm", rng)
        s = random_state(p, rng, box=True)
        s.alpha[0] = 1.5
        with pytest.raises(ValueError):
            objective_value(p, s)

    def test_full_grad_matches_coord_grad(self, rng):
        for kind in ("lasso", "elasticnet", "svm", "logistic"):
            p = random_problem(kind, rng)
            s = random_state(p, rng, box=(kind == "svm"))
            g = full_grad(p, s)
            for j in range(p.n):
                assert g[j] == pytest.approx(coord_grad(p, s, j), abs=1e-12)

    def test_coord_grad_bitwise_against_full_loss_gradient(self, rng):
        # nabla l on supp(A_j) only is the same elementwise arithmetic as
        # reading those entries off the full d-vector
        for kind in ("lasso", "elasticnet", "svm", "logistic"):
            p = random_problem(kind, rng, n=20, d=30)
            for _ in range(20):
                s = random_state(p, rng, box=(kind == "svm"))
                for j in range(p.n):
                    expect = col_dot(p.matrix, j, grad_l(p, s)) \
                        + p.linear_term[j]
                    if kind == "elasticnet":
                        expect += p.reg.lam2 * s.alpha[j]
                    assert coord_grad(p, s, j) == expect

    def test_logistic_gradient_at_zero(self, rng):
        p = random_problem("logistic", rng)
        s = IterateState.zeros(p)
        np.testing.assert_allclose(grad_l(p, s), -0.5 * np.ones(p.d))


class TestSubgradScore:
    def test_zero_iterate_shrinks_gradient(self, rng):
        p = random_problem("lasso", rng)
        s = IterateState.zeros(p)
        g = full_grad(p, s)
        sv = subgrad_score(p, s)
        lam = p.reg.lam
        expect = np.sign(g) * np.maximum(np.abs(g) - lam, 0.0)
        np.testing.assert_allclose(sv, expect)

    def test_nonzero_iterate_adds_signed_lambda(self, rng):
        p = random_problem("lasso", rng)
        s = random_state(p, rng, zero_frac=0.0)
        g = full_grad(p, s)
        np.testing.assert_allclose(subgrad_score(p, s),
                                   g + np.sign(s.alpha) * p.reg.lam)

    def test_wrong_regularizer(self, rng):
        p = random_problem("svm", rng)
        with pytest.raises(TypeError):
            subgrad_score(p, IterateState.zeros(p))


class TestStateUpdates:
    def test_residual_and_nnz_maintained(self, rng):
        p = random_problem("lasso", rng)
        s = IterateState.zeros(p)
        A = p.matrix.to_dense()
        for _ in range(60):
            j = int(rng.integers(p.n))
            delta = float(rng.standard_normal())
            if rng.random() < 0.2:
                delta = -s.alpha[j]  # drive some coordinates back to zero
            apply_coord_delta(p, s, j, delta)
        np.testing.assert_allclose(s.residual, A @ s.alpha, atol=1e-10)
        assert s.nnz == np.count_nonzero(s.alpha)

    @pytest.mark.parametrize("kind", ["lasso", "svm"])
    def test_residual_refresh_bitwise_equals_column_loop(self, kind):
        # the final uniform states of the two synthetic problem kinds
        if kind == "lasso":
            ds = gen_synthetic(SynthSpec(CorrelatedLasso(n=300, d=40), 3))
            p = make_lasso(ds.matrix, ds.labels, 0.05)
            trace = solve_l1(p, SolverConfig(rule=Rule.UNIFORM,
                                             max_iters=5000, tol=0.0))
        else:
            ds = gen_synthetic(SynthSpec(RandomSvm(n=300, d=30), 3))
            p = make_svm_dual(fold_labels(ds), 0.05)
            trace = solve_box(p, SolverConfig(rule=Rule.UNIFORM,
                                              max_iters=5000, tol=0.0))
        s = trace.final_state
        assert 20 < s.nnz < p.n
        s.recompute_residual(p)
        np.testing.assert_array_equal(s.residual,
                                      loop_product(p.matrix, s.alpha))

    def test_periodic_refresh_counter_resets(self, rng):
        p = random_problem("lasso", rng, n=3)
        s = IterateState.zeros(p)
        for _ in range(1001):
            apply_coord_delta(p, s, 0, 1e-6)
        assert s._steps_since_refresh < 1000


class TestDualityGap:
    def test_weak_duality_many_states(self, rng):
        p = random_problem("svm", rng, n=15, d=6)
        for _ in range(1000):
            s = random_state(p, rng, box=True)
            assert duality_gap(p, s) >= -1e-10

    def test_gap_closes_at_optimum(self, rng):
        from greedycd.data_io import (RandomSvm, SynthSpec, fold_labels,
                                      gen_synthetic)
        ds = gen_synthetic(SynthSpec(RandomSvm(10, 4, 0.5), seed=3))
        p = make_svm_dual(fold_labels(ds), 1.0)
        tr = solve_box(p, SolverConfig(max_iters=5000, tol=1e-10))
        assert duality_gap(p, tr.final_state) <= 1e-6

    def test_wrong_loss(self, rng):
        """On the box only the SVM dual has a gap; every L1 pairing has
        one (tests/test_duality_gaps.py)."""
        M = SparseColMatrix.from_dense(rng.standard_normal((6, 10)))
        p = CompositeProblem(M, np.full(10, -0.1),
                             SquaredResidual(rng.standard_normal(6)), Box())
        with pytest.raises(TypeError):
            duality_gap(p, IterateState.zeros(p))

    @pytest.mark.parametrize("off,reg", [(-0.5, Box()), (None, Box()),
                                        (-0.1, L1(0.1))])
    def test_refuses_another_linear_term_or_regularizer(self, rng, off, reg):
        """The gap is the box's Frank-Wolfe gap only with c = -(1/n) 1; any
        other term once gave one answer with a kept F and another without.
        An L1 regularizer takes the Fenchel gap, which needs c = 0."""
        c = np.full(10, -0.1)
        if off is None:
            c[3] = np.nextafter(-0.1, 0.0)  # one entry one ulp off
        else:
            c[:] = off
        M = SparseColMatrix.from_dense(rng.standard_normal((6, 10)))
        p = CompositeProblem(M, c, DualSVM(0.5), reg)
        s = random_state(p, rng, box=True)
        s.track_objective(p)
        expected = r"c = -\(1/n\) 1 = -0\.1" if reg.kind == "box" \
            else r"linear term c = 0 in every entry"
        for state in (s, IterateState.zeros(p)):
            with pytest.raises(ValueError, match=expected):
                duality_gap(p, state)
        if reg.kind == "box":
            with pytest.raises(ValueError, match="linear term"):
                solve_box(p, SolverConfig(tol=1e-6))

    def test_linear_term_read_once(self, rng):
        p = random_problem("svm", rng, n=10)
        assert "uniform_linear_term" not in vars(p)
        duality_gap(p, random_state(p, rng, box=True))
        assert vars(p)["uniform_linear_term"] == -0.1  # kept on the problem
        with pytest.raises(ValueError):
            p.linear_term[0] = -0.5  # which cannot change under it

    def test_make_svm_dual_problems_pass(self, rng):
        for n in (1, 3, 7, 10, 49, 800):
            M = SparseColMatrix.from_dense(rng.standard_normal((4, n)))
            p = make_svm_dual(M, 0.5)
            assert np.isfinite(duality_gap(p, random_state(p, rng, box=True)))


class TestConstruction:
    def test_linear_term_length_checked(self):
        M = SparseColMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            CompositeProblem(M, np.zeros(2), SquaredResidual(np.zeros(3)),
                             L1(0.1))

    def test_target_length_checked(self):
        M = SparseColMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            make_lasso(M, np.zeros(2), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_refused(self, bad):
        M = SparseColMatrix.from_dense(np.eye(4))
        b = np.array([1.0, 2.0, bad, bad])
        with pytest.raises(ValueError, match="target entry 2 is"):
            make_lasso(M, b, 0.1)

    def test_svm_lambda_positive(self):
        M = SparseColMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            CompositeProblem(M, np.zeros(3), DualSVM(0.0), Box())
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="svm_lambda must be "
                               "positive and finite, got %r" % bad):
                make_svm_dual(M, bad)

    @pytest.mark.parametrize("bad", [-1.0, -np.inf, np.inf, np.nan])
    @pytest.mark.parametrize("make,name", [
        (L1, "lam"), (lambda w: ElasticNetL1(w, 0.5), "lam1"),
        (lambda w: ElasticNetL1(0.5, w), "lam2")], ids=["l1", "lam1", "lam2"])
    def test_regularizer_weights_checked(self, make, name, bad):
        with pytest.raises(ValueError, match="%s must be nonnegative and "
                           "finite, got %r" % (name, bad)):
            make(bad)
        make(0.0)  # a zero weight is taken
