import numpy as np
import pytest

from conftest import random_matrix, random_problem, random_state
from greedycd.data_io import (DiagQuadratic, RandomSvm, SynthSpec,
                              fold_labels, gen_synthetic)
from greedycd.objectives import (IterateState, full_grad, make_lasso,
                                 make_svm_dual, objective_value)
from greedycd.oracles import (RateEnvelope, brute_force_rule, envelope_check,
                              fd_gradient, reference_solve)
from greedycd.selection import Rule, select_gss_box, select_gss_l1
from greedycd.smips import HyperplaneLsh
from greedycd.solver import SolverConfig, solve_box, solve_l1
from greedycd.sparse import SparseColMatrix


class TestFdGradient:
    def test_identity_matrix_hand_gradient(self):
        # f = 0.5*||alpha - b||^2 so grad = alpha - b
        p = make_lasso(SparseColMatrix.from_dense(np.eye(4)),
                       np.array([1.0, -2.0, 0.5, 3.0]), 0.1)
        s = IterateState.zeros(p)
        s.alpha = np.array([0.5, 0.5, 0.5, 0.5])
        s.recompute_residual(p)
        np.testing.assert_allclose(fd_gradient(p, s),
                                   s.alpha - p.loss.target, atol=1e-8)

    def test_constant_function_zero_gradient(self):
        M = SparseColMatrix(2, [0, 1, 2], [0, 1], [1e-30, 1e-30])
        p = make_lasso(M, np.zeros(2), 0.1)
        s = IterateState.zeros(p)
        np.testing.assert_allclose(fd_gradient(p, s), 0.0, atol=1e-12)

    def test_second_order_convergence(self, rng):
        p = random_problem("logistic", rng, n=5, d=4)
        s = random_state(p, rng)
        exact = full_grad(p, s)
        e1 = np.abs(fd_gradient(p, s, h=1e-3) - exact).max()
        e2 = np.abs(fd_gradient(p, s, h=5e-4) - exact).max()
        assert e2 <= e1 / 2.5  # roughly 4x per halving, allow slack

    def test_positive_step_required(self, rng):
        p = random_problem("lasso", rng)
        with pytest.raises(ValueError):
            fd_gradient(p, IterateState.zeros(p), h=0.0)


class TestBruteForce:
    def test_one_dim_always_coordinate_zero(self, rng):
        p = random_problem("lasso", rng, n=1, d=3)
        s = random_state(p, rng)
        assert brute_force_rule(p, s, Rule.GSS)[0] == 0

    def test_uniform_rejected(self, rng):
        p = random_problem("lasso", rng)
        with pytest.raises(ValueError):
            brute_force_rule(p, IterateState.zeros(p), Rule.UNIFORM)

    def test_agrees_with_fast_path(self, rng):
        p = random_problem("lasso", rng, n=7, d=5)
        for _ in range(30):
            s = random_state(p, rng)
            fast = select_gss_l1(p, s)
            _, score = brute_force_rule(p, s, Rule.GSS)
            assert fast.score == pytest.approx(score, abs=1e-9)


class TestEnvelope:
    def _solved_instance(self):
        ds = gen_synthetic(SynthSpec(DiagQuadratic((1.0, 1.0)), seed=0))
        p = make_lasso(ds.matrix, ds.labels, 0.05)
        ref = solve_l1(p, SolverConfig(max_iters=20000, tol=1e-14))
        f_star = objective_value(p, ref.final_state)
        tr = solve_l1(p, SolverConfig(max_iters=500, tol=1e-12))
        return p, tr, f_star, ds.meta

    def test_passes_with_true_mu1(self):
        p, tr, f_star, meta = self._solved_instance()
        env = RateEnvelope(mu1=meta["mu1"], L=meta["L"], f_star=f_star)
        ok, worst = envelope_check(tr, env, "linear_l1")
        assert ok and worst <= 0

    def test_impossible_contraction_fails(self):
        # mu1 = L demands one-shot convergence per good step pair; a
        # two-coordinate instance with coupling cannot achieve it
        p, tr, f_star, meta = self._solved_instance()
        env = RateEnvelope(mu1=meta["L"], L=meta["L"], f_star=f_star)
        ok, _ = envelope_check(tr, env, "linear_l1")
        assert not ok

    def test_thinned_trace_checked_at_its_own_steps(self, rng):
        p = random_problem("lasso", rng, n=8, d=10)
        ref = solve_l1(p, SolverConfig(max_iters=20000, tol=1e-14))
        f_star = objective_value(p, ref.final_state)
        full = solve_l1(p, SolverConfig(max_iters=60, tol=0.0))
        thinned = solve_l1(p, SolverConfig(max_iters=60, tol=0.0,
                                           trace_every=2))
        kept = [0] + [r.iter + 1 for r in thinned.records]
        np.testing.assert_array_equal(thinned.f_values, full.f_values[kept])
        # too fast a rate for this instance: the worst margin falls on a
        # step that the thinned trace keeps and does not number by index
        env = RateEnvelope(mu1=p.smoothness / 2, L=p.smoothness,
                           f_star=f_star)
        # the full trace's margins after t steps, at the steps kept
        sub = full.f_values - f_star
        t = np.arange(len(sub))
        margins = sub - (1.0 - env.mu1 / env.L) ** np.ceil(t / 2.0) \
            * sub[0] * (1.0 + 1e-9)
        ok, worst = envelope_check(thinned, env, "linear_l1")
        assert not ok and int(np.argmax(margins[kept])) > 1
        assert worst == pytest.approx(float(margins[kept].max()), rel=1e-12)

    def test_per_step_box_rejects_thinned_trace(self):
        rng = np.random.default_rng(0)
        labels = rng.choice([-1.0, 1.0], 30)
        p = make_svm_dual(random_matrix(rng, 5, 30).scale_columns(labels),
                          0.1)
        tr = solve_box(p, SolverConfig(max_iters=40, tol=0.0,
                                       trace_every=4))
        env = RateEnvelope(mu1=0.5, L=1.0, f_star=float(tr.f_values.min()))
        with pytest.raises(ValueError, match="consecutive"):
            envelope_check(tr, env, "per_step_box")

    @pytest.mark.parametrize("lam,kinds", [(0.1, {"good", "bad"}),
                                           (1.0, {"good", "cross"})])
    def test_per_step_box_matches_a_loop_over_records(self, lam, kinds):
        """The per-step bounds, checked against a loop over the records:
        good, bad and cross steps, envelopes met and missed."""
        rng = np.random.default_rng(1)
        labels = rng.choice([-1.0, 1.0], 30)
        p = make_svm_dual(random_matrix(rng, 5, 30).scale_columns(labels),
                          lam)
        tr = solve_box(p, SolverConfig(max_iters=80, tol=0.0))
        assert {r.step_kind for r in tr.records} == kinds
        n = p.n
        for mu1, theta, below in ((1e-6, 1.0, 0.0), (0.5, 1.0, 0.0),
                                  (0.01, 0.3, 1e-3), (1e-6, 1.0, 10.0)):
            f_star = float(tr.f_values.min()) - below
            env = RateEnvelope(mu1=mu1, L=1.0, f_star=f_star, theta=theta)
            sub = tr.f_values - f_star
            rate = 1.0 - theta**2 * mu1
            worst, ok = -np.inf, True
            for k, rec in enumerate(tr.records):
                factor = {"good": rate, "cross": 1.0 - theta / (2.0 * n),
                          "bad": 1.0}[rec.step_kind]
                bound = factor * sub[k] * (1.0 + 1e-9)
                worst = max(worst, sub[k + 1] - bound)
                ok = ok and sub[k + 1] <= bound
            assert envelope_check(tr, env, "per_step_box") == (ok, worst)

    def test_stale_f_star_rejected(self):
        p, tr, f_star, meta = self._solved_instance()
        env = RateEnvelope(mu1=meta["mu1"], L=meta["L"],
                           f_star=f_star + 1.0)
        with pytest.raises(ValueError):
            envelope_check(tr, env, "linear_l1")

    def test_invariants(self):
        with pytest.raises(ValueError):
            RateEnvelope(mu1=2.0, L=1.0, f_star=0.0)
        with pytest.raises(ValueError):
            RateEnvelope(mu1=0.5, L=1.0, f_star=0.0, theta=1.5)


class TestReferenceSolve:
    def test_reaches_the_closed_form_lasso_optimum(self):
        # orthogonal columns a_j e_j: alpha_j* = shrink(a_j b_j, lam) / a_j^2
        spectrum = (4.0, 1.0, 0.25, 2.0, 0.5, 9.0)
        ds = gen_synthetic(SynthSpec(DiagQuadratic(spectrum), seed=0))
        a, b, lam = np.sqrt(spectrum), ds.labels, 0.3
        star = np.sign(a * b) * np.maximum(np.abs(a * b) - lam, 0.0) / a**2
        assert 0 < np.count_nonzero(star) < len(star)
        f_star = 0.5 * float(np.sum((a * star - b) ** 2)) \
            + lam * float(np.abs(star).sum())
        p = make_lasso(ds.matrix, b, lam)
        trace = reference_solve(p, SolverConfig(use_line_search=True,
                                                max_iters=100, tol=1e-12))
        assert trace.status == "tol"
        np.testing.assert_allclose(trace.final_state.alpha, star, rtol=0,
                                   atol=1e-12)
        assert abs(trace.f_values[-1] - f_star) <= 1e-12 * (1 + f_star)
        assert trace.final_state.grad is None  # it keeps nothing

    def test_stops_on_the_svm_gap(self):
        ds = gen_synthetic(SynthSpec(RandomSvm(n=30, d=5, margin=0.1), 0))
        p = make_svm_dual(fold_labels(ds), 2.0)
        tol = 1e-3
        trace = reference_solve(p, SolverConfig(max_iters=10_000, tol=tol,
                                                record_gap=True))
        gaps = trace.columns["gap"]
        assert trace.status == "tol" and gaps[-1] <= tol < gaps[:-1].min()
        # the steepest score is still above tol: the gap stopped the solve
        assert select_gss_box(p, trace.final_state).score > tol

    @pytest.mark.parametrize("cfg", [
        SolverConfig(engine="smips", backend=HyperplaneLsh(4, 2, seed=0)),
        SolverConfig(selector=lambda p, s: 0),
        SolverConfig(record_theta=True)], ids=["lsh", "selector", "theta"])
    def test_refuses_what_it_does_not_recompute(self, rng, cfg):
        p = random_problem("lasso", rng)
        with pytest.raises(ValueError, match="reference solve takes no"):
            reference_solve(p, cfg)
