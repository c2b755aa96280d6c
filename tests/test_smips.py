import numpy as np
import pytest

from conftest import random_problem, random_state
from greedycd import smips as sm
from greedycd.objectives import full_grad, grad_l, subgrad_score


def l1_setup(p, beta=1.0):
    return sm.build_l1_points(p.matrix, p.linear_term, beta)


class TestPointLayout:
    def test_l1_shapes_and_tags(self, rng):
        p = random_problem("lasso", rng, n=5, d=4)
        ps = l1_setup(p)
        assert ps.n_points == 4 * p.n
        assert ps.dim == p.d + 2
        assert [sm.point_to_coordinate(ps, pid)
                for pid in range(ps.n_points)] == \
            [(j, tag) for j in range(p.n)
             for tag in ("+A+", "-A+", "+A-", "-A-")]
        assert sm.point_to_coordinate(ps, 9) == (2, "-A+")
        for pid in (-1, ps.n_points):
            with pytest.raises(IndexError):
                sm.point_to_coordinate(ps, pid)

    def test_box_shapes(self, rng):
        p = random_problem("svm", rng, n=5, d=4)
        ps = sm.build_box_points(p.matrix, p.linear_term, 2.0)
        assert ps.n_points == 2 * p.n
        assert ps.dim == p.d + 1
        assert [sm.point_to_coordinate(ps, pid)
                for pid in range(ps.n_points)] == \
            [(j, tag) for j in range(p.n) for tag in ("+A", "-A")]
        assert sm.point_to_coordinate(ps, 7) == (3, "-A")

    def test_point_id_out_of_range(self, rng):
        p = random_problem("lasso", rng, n=3)
        ps = l1_setup(p)
        with pytest.raises(IndexError):
            sm.point_to_coordinate(ps, 12)

    def test_beta_must_be_positive(self, rng):
        p = random_problem("lasso", rng, n=3)
        with pytest.raises(ValueError):
            sm.build_l1_points(p.matrix, p.linear_term, 0.0)
        with pytest.raises(ValueError):
            sm.build_l1_query(np.zeros(p.d), 0.1, -1.0)
        # NaN and inf too, by all four builders
        for beta in (np.nan, np.inf):
            for build in (
                    lambda: sm.build_l1_points(p.matrix, p.linear_term, beta),
                    lambda: sm.build_box_points(p.matrix, p.linear_term,
                                                beta),
                    lambda: sm.build_l1_query(np.zeros(p.d), 0.1, beta),
                    lambda: sm.build_box_query(np.zeros(p.d), -0.1, beta)):
                with pytest.raises(ValueError,
                                   match="beta must be positive and finite"):
                    build()


class TestQueryIdentities:
    def test_l1_inner_products_are_signed_scores(self, rng):
        p = random_problem("lasso", rng, n=6, d=5)
        s = random_state(p, rng)
        beta = 0.7
        ps = l1_setup(p, beta)
        q = sm.build_l1_query(grad_l(p, s), p.l1_lambda, beta)
        g = full_grad(p, s)
        lam = p.l1_lambda
        for j in range(p.n):
            vals = ps.dots(np.arange(4 * j, 4 * j + 4), q)
            np.testing.assert_allclose(
                vals, [g[j] + lam, -(g[j] + lam), g[j] - lam, -(g[j] - lam)],
                atol=1e-12)

    def test_box_inner_products_are_gradients(self, rng):
        p = random_problem("svm", rng, n=6, d=5)
        s = random_state(p, rng, box=True)
        beta = 1.3
        c0 = sm.require_uniform_linear_term(p.linear_term)
        ps = sm.build_box_points(p.matrix, p.linear_term, beta)
        q = sm.build_box_query(grad_l(p, s), c0, beta)
        g = full_grad(p, s)
        for j in range(p.n):
            vals = ps.dots(np.array([2 * j, 2 * j + 1]), q)
            np.testing.assert_allclose(vals, [g[j], -g[j]], atol=1e-12)

    def test_non_uniform_linear_term_rejected(self):
        with pytest.raises(ValueError):
            sm.require_uniform_linear_term(np.array([0.1, 0.2]))


class TestMasks:
    def test_l1_two_live_points_per_coordinate(self, rng):
        alpha = rng.standard_normal(20)
        alpha[rng.random(20) < 0.4] = 0.0
        m = sm.build_l1_mask(alpha)
        counts = m.included.reshape(-1, 4).sum(axis=1)
        np.testing.assert_array_equal(counts, 2)

    def test_l1_patterns(self):
        m = sm.build_l1_mask(np.array([1.0, 0.0, -2.0]))
        np.testing.assert_array_equal(
            m.included,
            [True, True, False, False,     # positive: +A+, -A+
             False, True, True, False,     # zero: -A+, +A-
             False, False, True, True])    # negative: +A-, -A-

    def test_box_patterns(self):
        m = sm.build_box_mask(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(
            m.included, [False, True, True, True, True, False])

    def test_incremental_update_matches_rebuild(self, rng):
        alpha = rng.standard_normal(15)
        alpha[rng.random(15) < 0.4] = 0.0
        m = sm.build_l1_mask(alpha)
        for _ in range(200):
            j = int(rng.integers(15))
            new = float(rng.standard_normal()) if rng.random() > 0.3 else 0.0
            alpha[j] = new
            sm.update_mask_after_step(m, j, new)
            np.testing.assert_array_equal(m.included,
                                          sm.build_l1_mask(alpha).included)

    @pytest.mark.parametrize("new", [np.nan, -0.0, np.inf, -np.inf])
    def test_update_of_an_edge_value_matches_rebuild(self, new):
        # a NaN leaves no point live in the rebuilt mask, and so in the
        # repaired one
        alpha = np.array([1.0, 0.0, -2.0])
        for build in (sm.build_l1_mask, sm.build_box_mask):
            m = build(alpha)
            sm.update_mask_after_step(m, 1, new)
            np.testing.assert_array_equal(
                m.included, build(np.array([1.0, new, -2.0])).included)

    def test_box_incremental_update(self, rng):
        alpha = rng.uniform(0, 1, 10)
        m = sm.build_box_mask(alpha)
        for _ in range(100):
            j = int(rng.integers(10))
            new = float(rng.choice([0.0, 1.0, rng.uniform(0, 1)]))
            alpha[j] = new
            sm.update_mask_after_step(m, j, new)
            np.testing.assert_array_equal(m.included,
                                          sm.build_box_mask(alpha).included)


class TestExactQueries:
    def test_matches_subgradient_score(self, rng):
        p = random_problem("lasso", rng, n=10, d=6)
        for _ in range(50):
            s = random_state(p, rng)
            sv = np.abs(subgrad_score(p, s))
            if sv.max() <= 0:
                continue
            ps = l1_setup(p)
            q = sm.build_l1_query(grad_l(p, s), p.l1_lambda, 1.0)
            m = sm.build_l1_mask(s.alpha)
            pid, val, fb = sm.smips_query(ps, q, m, sm.Exact())
            assert not fb
            assert val == pytest.approx(sv.max(), abs=1e-10)

    def test_empty_mask_rejected(self, rng):
        p = random_problem("lasso", rng, n=3)
        ps = l1_setup(p)
        m = sm.build_l1_mask(np.zeros(3))
        m.included[:] = False
        with pytest.raises(ValueError):
            sm.smips_query(ps, np.zeros(ps.dim), m, sm.Exact())

    def test_dimension_mismatch_rejected(self, rng):
        p = random_problem("lasso", rng, n=3)
        ps = l1_setup(p)
        m = sm.build_l1_mask(np.zeros(3))
        with pytest.raises(ValueError):
            sm.smips_query(ps, np.zeros(ps.dim + 1), m, sm.Exact())


class TestHyperplaneLsh:
    def test_fixed_seed_determinism(self, rng):
        p = random_problem("lasso", rng, n=12, d=6)
        ps = l1_setup(p)
        m = sm.build_l1_mask(np.zeros(p.n))
        queries = [rng.standard_normal(ps.dim) for _ in range(30)]
        answers = []
        for _ in range(2):
            lsh = sm.HyperplaneLsh(5, 4, seed=11)
            lsh.fit(ps)
            answers.append([sm.smips_query(ps, q, m, lsh) for q in queries])
        assert answers[0] == answers[1]

    def test_returned_point_always_in_mask(self, rng):
        p = random_problem("lasso", rng, n=12, d=6)
        ps = l1_setup(p)
        lsh = sm.HyperplaneLsh(4, 3, seed=2)
        for _ in range(100):
            alpha = rng.standard_normal(p.n)
            alpha[rng.random(p.n) < 0.5] = 0.0
            m = sm.build_l1_mask(alpha)
            pid, _, _ = sm.smips_query(ps, rng.standard_normal(ps.dim), m, lsh)
            assert m.included[pid]

    def test_random_fallback_flagged_and_masked(self, rng):
        p = random_problem("lasso", rng, n=6, d=4)
        ps = l1_setup(p)
        # many bits and one table make empty buckets overwhelmingly likely
        lsh = sm.HyperplaneLsh(24, 1, seed=3)
        m = sm.build_l1_mask(np.zeros(p.n))
        fallbacks = 0
        for _ in range(50):
            pid, _, fb = sm.smips_query(ps, rng.standard_normal(ps.dim),
                                        m, lsh)
            fallbacks += fb
            assert m.included[pid]
        assert fallbacks > 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            sm.HyperplaneLsh(0, 4)
