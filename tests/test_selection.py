import numpy as np
import pytest

from conftest import random_problem, random_state
from greedycd.objectives import IterateState, full_grad, make_lasso
from greedycd.selection import (ActiveSet, Rule, measure_theta,
                                prox_step_lengths, select_gsq, select_gsr,
                                select_gss_box, select_gss_l1, select_uniform)
from greedycd.sparse import SparseColMatrix
from reference_oracles import brute_force_rule


class TestAgainstBruteForce:
    def test_gss_l1_many_states(self, rng):
        p = random_problem("lasso", rng, n=8, d=6)
        for _ in range(60):
            s = random_state(p, rng)
            got = select_gss_l1(p, s)
            j_ref, score_ref = brute_force_rule(p, s, Rule.GSS)
            assert got.score == pytest.approx(score_ref, abs=1e-9)

    def test_gsr_many_states(self, rng):
        p = random_problem("lasso", rng, n=8, d=6)
        for _ in range(40):
            s = random_state(p, rng)
            got = select_gsr(p, s)
            _, score_ref = brute_force_rule(p, s, Rule.GSR)
            assert got.score == pytest.approx(score_ref, abs=1e-5)

    def test_gsq_many_states(self, rng):
        p = random_problem("lasso", rng, n=8, d=6)
        for _ in range(40):
            s = random_state(p, rng)
            got = select_gsq(p, s)
            _, score_ref = brute_force_rule(p, s, Rule.GSQ)
            assert got.score == pytest.approx(score_ref, rel=1e-8, abs=1e-9)

    def test_gss_box_many_states(self, rng):
        p = random_problem("svm", rng, n=8, d=6)
        for _ in range(40):
            s = random_state(p, rng, box=True)
            got = select_gss_box(p, s)
            _, score_ref = brute_force_rule(p, s, Rule.GSS)
            if got is None:
                assert score_ref == pytest.approx(0.0, abs=1e-12)
            else:
                assert got.score == pytest.approx(score_ref, abs=1e-9)


class TestActiveSet:
    def test_membership_cases(self):
        alpha = np.array([0.0, 0.0, 0.5, 1.0, 1.0])
        grad = np.array([1.0, -1.0, 3.0, 1.0, -1.0])
        a = ActiveSet.from_state(alpha, grad)
        np.testing.assert_array_equal(a.membership,
                                      [False, True, True, True, False])

    def test_empty_means_no_descent(self):
        a = ActiveSet.from_state(np.zeros(3), np.ones(3))
        assert a.empty


class TestTieBreaking:
    def test_duplicate_columns_pick_lowest_index(self, rng):
        col = rng.standard_normal(5)
        A = np.stack([col, col, col], axis=1)
        p = make_lasso(SparseColMatrix.from_dense(A),
                       rng.standard_normal(5), 0.01)
        s = IterateState.zeros(p)
        assert select_gss_l1(p, s).coord == 0
        assert select_gsr(p, s).coord == 0
        assert select_gsq(p, s).coord == 0


class TestUniform:
    def test_seeded_determinism(self):
        r1 = np.random.default_rng(9)
        r2 = np.random.default_rng(9)
        picks1 = [select_uniform(10, r1).coord for _ in range(50)]
        picks2 = [select_uniform(10, r2).coord for _ in range(50)]
        assert picks1 == picks2

    def test_covers_range(self):
        r = np.random.default_rng(0)
        picks = {select_uniform(4, r).coord for _ in range(200)}
        assert picks == {0, 1, 2, 3}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_uniform(0, np.random.default_rng(0))


class TestTheta:
    def test_exact_choice_scores_one(self, rng):
        p = random_problem("lasso", rng)
        s = random_state(p, rng)
        best = select_gss_l1(p, s).coord
        assert measure_theta(best, p, s) == pytest.approx(1.0)

    def test_worst_choice_below_one(self, rng):
        p = random_problem("lasso", rng)
        s = random_state(p, rng)
        from greedycd.objectives import subgrad_score
        sv = np.abs(subgrad_score(p, s))
        worst = int(np.argmin(sv))
        theta = measure_theta(worst, p, s)
        assert theta == pytest.approx(sv[worst] / sv.max())

    def test_box_inactive_choice_scores_zero(self, rng):
        p = random_problem("svm", rng)
        s = random_state(p, rng, box=True)
        grad = full_grad(p, s)
        active = ActiveSet.from_state(s.alpha, grad)
        inactive = np.nonzero(~active.membership)[0]
        if len(inactive) and not active.empty:
            assert measure_theta(int(inactive[0]), p, s) == 0.0


class TestProxStepLengths:
    def test_l1_closed_form(self, rng):
        p = random_problem("lasso", rng)
        s = random_state(p, rng)
        g = full_grad(p, s)
        gamma = prox_step_lengths(p, s)
        L, lam = p.smoothness, p.reg.lam
        t = s.alpha - g / L
        expect = np.sign(t) * np.maximum(np.abs(t) - lam / L, 0) - s.alpha
        np.testing.assert_allclose(gamma, expect)

    def test_box_steps_stay_feasible(self, rng):
        p = random_problem("svm", rng)
        s = random_state(p, rng, box=True)
        target = s.alpha + prox_step_lengths(p, s)
        assert np.all(target >= -1e-15) and np.all(target <= 1 + 1e-15)
