import dataclasses
import re
import time
import types

import numpy as np
import pytest

from conftest import random_problem, random_state
from greedycd import smips as sm
from greedycd import solver
from greedycd.data_io import CorrelatedLasso, SynthSpec, gen_synthetic
from greedycd.objectives import (L1, Box, CompositeProblem, IterateState,
                                 SquaredResidual, make_lasso, objective_value,
                                 subgrad_score)
from greedycd.selection import Rule, select_gss_l1
from greedycd.solver import (SmipsEngine, SolverConfig, classify_step_box,
                             classify_step_l1, line_search_1d, run_counters,
                             solve_box, solve_l1)
from greedycd.sparse import SparseColMatrix


def one_dim_problem(lam=1.0):
    # f = 0.5*(alpha - 3)^2, so A = [1], b = [3], L = 1
    M = SparseColMatrix.from_dense(np.array([[1.0]]))
    return make_lasso(M, np.array([3.0]), lam)


class TestClassifiers:
    def test_l1_cases(self):
        assert classify_step_l1(0.0, -5.0) == "good"
        assert classify_step_l1(1.0, 0.5) == "good"
        assert classify_step_l1(1.0, -0.2) == "bad"
        assert classify_step_l1(-1.0, 0.0) == "bad"

    def test_box_cases(self):
        assert classify_step_box(0.5, 0.7) == "good"
        assert classify_step_box(0.5, 1.3) == "bad"
        assert classify_step_box(0.0, 1.4) == "cross"
        assert classify_step_box(1.0, -0.2) == "cross"


class TestSolveL1:
    def test_one_dim_single_prox_step(self):
        p = one_dim_problem()
        tr = solve_l1(p, SolverConfig(max_iters=50, tol=0.0))
        assert tr.final_state.alpha[0] == pytest.approx(2.0)
        assert abs(subgrad_score(p, tr.final_state)[0]) <= 1e-12
        assert tr.records[0].f_value == pytest.approx(
            0.5 * (2 - 3) ** 2 + 2.0)

    def test_post_processing_truncates_crossing(self):
        # from alpha = -2 on f = 0.5*(alpha-3)^2 the prox target is +3:
        # the sign flips, so the step is bad and the update truncates to 0
        p = one_dim_problem(lam=0.0)
        s = IterateState(alpha=np.array([-2.0]), residual=np.array([-2.0]),
                         nnz=1)
        a_plus = s.alpha[0] - (s.residual[0] - 3.0)
        assert a_plus == pytest.approx(3.0)
        assert classify_step_l1(-2.0, a_plus) == "bad"
        # the solver applies the truncation and the next visit is good
        from greedycd.objectives import apply_coord_delta, coord_grad
        apply_coord_delta(p, s, 0, 0.0 - s.alpha[0])
        assert s.alpha[0] == 0.0
        nxt = s.alpha[0] - coord_grad(p, s, 0) / p.smoothness
        assert classify_step_l1(s.alpha[0], nxt) == "good"

    def test_monotone_descent_random(self, rng):
        for kind in ("lasso", "elasticnet", "logistic"):
            p = random_problem(kind, rng)
            tr = solve_l1(p, SolverConfig(max_iters=150, tol=0.0))
            f = tr.f_values
            assert np.all(np.diff(f) <= 1e-12 * (1 + np.abs(f[:-1])))

    def test_wrong_regularizer(self, rng):
        p = random_problem("svm", rng)
        with pytest.raises(TypeError):
            solve_l1(p, SolverConfig())

    def test_determinism_bit_identical(self, rng):
        p = random_problem("lasso", rng)
        cfg = SolverConfig(rule=Rule.UNIFORM, max_iters=100, tol=0.0, seed=4)
        t1 = solve_l1(p, cfg)
        t2 = solve_l1(p, dataclasses.replace(cfg))
        assert [r.coord for r in t1.records] == [r.coord for r in t2.records]
        assert [r.f_value for r in t1.records] == \
            [r.f_value for r in t2.records]

    def test_all_rules_reach_same_objective(self, rng):
        p = random_problem("lasso", rng, n=8, d=10)
        finals = []
        for rule in (Rule.GSS, Rule.GSR, Rule.GSQ):
            tr = solve_l1(p, SolverConfig(rule=rule, max_iters=4000,
                                          tol=1e-11))
            finals.append(objective_value(p, tr.final_state))
        assert max(finals) - min(finals) <= 1e-8

    def test_smips_engine_matches_exact(self, rng):
        p = random_problem("lasso", rng, n=10, d=6)
        t_exact = solve_l1(p, SolverConfig(max_iters=200, tol=1e-10))
        t_smips = solve_l1(p, SolverConfig(engine="smips", max_iters=200,
                                           tol=1e-10))
        assert [r.coord for r in t_exact.records] == \
            [r.coord for r in t_smips.records]
        assert t_exact.status == t_smips.status

    def test_lsh_engine_descends_and_counts_fallbacks(self, rng):
        p = random_problem("lasso", rng, n=15, d=8)
        backend = sm.HyperplaneLsh(10, 2, seed=1)
        tr = solve_l1(p, SolverConfig(engine="smips", backend=backend,
                                      max_iters=300, tol=1e-8))
        f = tr.f_values
        assert np.all(np.diff(f) <= 1e-12 * (1 + np.abs(f[:-1])))
        assert tr.counters["fallback"] >= 0

    def test_custom_selector_hook(self, rng):
        p = random_problem("lasso", rng, n=6)
        calls = []

        def pick_zero(problem, state):
            calls.append(1)
            return 0

        tr = solve_l1(p, SolverConfig(selector=pick_zero, max_iters=10,
                                      tol=0.0))
        assert all(r.coord == 0 for r in tr.records)
        assert len(calls) == 10


class TestTraceThinning:
    def test_tol_stop_records_last_step_l1(self, rng):
        p = random_problem("lasso", rng, n=8, d=10)
        tr = solve_l1(p, SolverConfig(max_iters=5000, tol=1e-9,
                                      trace_every=7))
        assert tr.status == "tol"
        assert tr.f_values[-1] == objective_value(p, tr.final_state)
        steps = sum(tr.counters[k] for k in ("good", "bad", "cross"))
        assert steps % 7 != 1  # the stop did not fall on a recorded step
        assert tr.records[-1].iter == steps - 1
        assert [r.iter for r in tr.records[:-1]] == \
            list(range(0, steps - 1, 7))

    def test_tol_stop_records_last_step_box(self, rng):
        p = random_problem("svm", rng, n=10, d=6)
        tr = solve_box(p, SolverConfig(max_iters=5000, tol=1e-9,
                                       trace_every=7, record_gap=True))
        assert tr.status in ("tol", "optimal")
        assert tr.f_values[-1] == objective_value(p, tr.final_state)
        from greedycd.objectives import duality_gap
        assert tr.records[-1].gap == pytest.approx(
            duality_gap(p, tr.final_state), rel=1e-9, abs=1e-12)

    def test_max_iters_stop_records_last_step(self, rng):
        p = random_problem("lasso", rng)
        tr = solve_l1(p, SolverConfig(max_iters=20, tol=0.0, trace_every=7))
        assert [r.iter for r in tr.records] == [0, 7, 14, 19]


class TestUniformDraws:
    def test_block_draws_equal_single_draws(self):
        # the stream the solver's block draws rely on
        for seed in (0, 1, 2026):
            for n in (1, 2, 7, 1000, 2**31 - 1, 2**32 + 5):
                block = np.random.default_rng(seed).integers(n, size=300)
                rng = np.random.default_rng(seed)
                assert block.tolist() == [int(rng.integers(n))
                                          for _ in range(300)]

    def test_solver_coordinates_equal_single_draws(self, rng, monkeypatch):
        # at this lam most draws leave alpha_j at zero, so the screen settles
        # runs of them that must end at every refill and every stop check
        p = random_problem("lasso", rng, n=50, d=10, lam=2.0)
        checks = []

        def check(*args, **kw):
            checks.append(None)
            return select_gss_l1(*args, **kw)

        monkeypatch.setattr(solver, "select_gss_l1", check)
        steps = solver.UNIFORM_BLOCK + 500  # crosses a refill
        tr = solve_l1(p, SolverConfig(rule=Rule.UNIFORM, max_iters=steps,
                                      tol=1e-12, seed=11))
        assert tr.status == "max_iters"
        assert tr.counters["screened"] > steps // 2
        assert len(checks) == len(range(0, steps, p.n))
        ref = np.random.default_rng(11)
        assert [r.coord for r in tr.records] == \
            [int(ref.integers(p.n)) for _ in range(steps)]
        assert [r.iter for r in tr.records] == list(range(steps))


class TestWallTime:
    @pytest.fixture
    def clock(self, monkeypatch):
        """A perf_counter_ns for the solver that counts its own calls."""
        stamps = []

        def tick():
            stamps.append(len(stamps) * 1000 + 7)
            return stamps[-1]

        monkeypatch.setattr(solver, "time", types.SimpleNamespace(
            perf_counter_ns=tick, perf_counter=time.perf_counter))
        return stamps

    @pytest.mark.parametrize("every", [1, 7])
    def test_records_add_up_to_the_solve_l1(self, clock, rng, every,
                                            monkeypatch):
        checks = []  # clock readings taken before each stop check
        select = solver.select_gss_l1

        def score(*args, **kw):
            checks.append(len(clock))
            return select(*args, **kw)

        # the stop check is the steepest select the L1 steps call
        monkeypatch.setattr(solver, "select_gss_l1", score)
        p = random_problem("lasso", rng, n=8, d=10)
        tr = solve_l1(p, SolverConfig(max_iters=5000, tol=1e-9,
                                      trace_every=every))
        assert tr.status == "tol" and tr.n_steps > 2
        walls = [r.wall_ns for r in tr.records]
        assert min(walls) > 0
        assert sum(walls) == clock[-1] - clock[0]
        # the last reading follows the stop check that ended the solve
        assert len(clock) == checks[-1] + 1

    @pytest.mark.parametrize("every", [1, 7])
    def test_records_add_up_to_the_solve_box(self, clock, rng, every):
        p = random_problem("svm", rng, n=10, d=6)
        tr = solve_box(p, SolverConfig(max_iters=40, tol=0.0,
                                       trace_every=every))
        assert tr.n_steps > 2
        assert sum(r.wall_ns for r in tr.records) == clock[-1] - clock[0]


class TestSolveBox:
    def test_immediate_optimality_certificate(self):
        # positive linear term makes every gradient at alpha = 0 positive
        from greedycd.objectives import Box, CompositeProblem, SquaredResidual
        M = SparseColMatrix.from_dense(np.eye(3))
        prob = CompositeProblem(M, np.ones(3),
                                SquaredResidual(np.zeros(3)), Box())
        tr = solve_box(prob, SolverConfig(max_iters=10, tol=0.0))
        assert tr.status == "optimal"
        assert tr.n_steps == 0

    def test_clipping_records_bad(self):
        from greedycd.objectives import Box, CompositeProblem, SquaredResidual
        # d/dalpha 0.5*(alpha - b)^2 at 0.5 is 2 when b = -1.5, L = 1
        M = SparseColMatrix.from_dense(np.eye(1))
        prob = CompositeProblem(M, np.zeros(1),
                                SquaredResidual(np.array([-1.5])), Box())
        s = IterateState(alpha=np.array([0.5]), residual=np.array([0.5]),
                         nnz=1)
        raw = 0.5 - 2.0 / prob.smoothness
        assert classify_step_box(0.5, raw) == "bad"

    def test_monotone_descent_random(self, rng):
        p = random_problem("svm", rng)
        tr = solve_box(p, SolverConfig(max_iters=300, tol=0.0))
        f = tr.f_values
        assert np.all(np.diff(f) <= 1e-12 * (1 + np.abs(f[:-1])))

    def test_counting_lemma_random_svm(self, rng):
        for seed in range(20):
            p = random_problem("svm", np.random.default_rng(seed))
            tr = solve_box(p, SolverConfig(max_iters=200, tol=1e-10))
            if tr.n_steps:
                c = run_counters(tr)
                assert c["bad"] <= c["total"] // 2

    def test_smips_engine_matches_exact(self, rng):
        p = random_problem("svm", rng, n=10, d=6)
        t_exact = solve_box(p, SolverConfig(max_iters=150, tol=1e-9))
        t_smips = solve_box(p, SolverConfig(engine="smips", max_iters=150,
                                            tol=1e-9))
        assert [r.coord for r in t_exact.records] == \
            [r.coord for r in t_smips.records]

    def test_wrong_regularizer(self, rng):
        p = random_problem("lasso", rng)
        with pytest.raises(TypeError):
            solve_box(p, SolverConfig())

    def test_theta_recorded(self, rng):
        p = random_problem("svm", rng, n=40, d=6)
        exact = solve_box(p, SolverConfig(max_iters=200, tol=1e-9,
                                          record_theta=True))
        assert exact.n_steps
        assert all(r.theta == 1.0 for r in exact.records)
        hashed = solve_box(p, SolverConfig(
            engine="smips", backend=sm.HyperplaneLsh(3, 4, seed=0),
            max_iters=200, tol=1e-9, record_theta=True))
        thetas = [r.theta for r in hashed.records]
        assert all(0.0 <= t <= 1.0 for t in thetas)
        assert min(thetas) < 1.0


class TestLineSearch:
    def test_equals_prox_with_column_curvature(self, rng):
        p = random_problem("lasso", rng)
        from greedycd.objectives import coord_grad
        for _ in range(50):
            s = random_state(p, rng)
            j = int(rng.integers(p.n))
            got = line_search_1d(p, s, j)
            h = p.matrix.col_sq_norms[j]
            g = coord_grad(p, s, j)
            t = s.alpha[j] - g / h
            lam = p.l1_lambda / h
            expect = np.sign(t) * max(abs(t) - lam, 0.0)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_never_increases_objective(self, rng):
        for kind in ("lasso", "elasticnet", "svm", "logistic"):
            p = random_problem(kind, rng)
            for _ in range(250):
                s = random_state(p, rng, box=(kind == "svm"))
                j = int(rng.integers(p.n))
                before = objective_value(p, s)
                new = line_search_1d(p, s, j)
                from greedycd.objectives import apply_coord_delta
                apply_coord_delta(p, s, j, new - s.alpha[j])
                assert objective_value(p, s) <= before + 1e-12 * (1 + abs(before))

    def test_logistic_subgradient_small_at_result(self, rng):
        p = random_problem("logistic", rng)
        from greedycd.objectives import apply_coord_delta, coord_grad
        s = random_state(p, rng)
        j = int(rng.integers(p.n))
        new = line_search_1d(p, s, j)
        apply_coord_delta(p, s, j, new - s.alpha[j])
        g = coord_grad(p, s, j)
        lam = p.l1_lambda
        if s.alpha[j] > 0:
            sub = g + lam
        elif s.alpha[j] < 0:
            sub = g - lam
        else:
            sub = np.sign(g) * max(abs(g) - lam, 0.0)
        assert abs(sub) <= 1e-8

    def test_zero_column_zero_slope_is_noop(self):
        A = np.array([[1.0, 0.0], [0.5, 0.0]])
        p = make_lasso(SparseColMatrix(2, [0, 2, 2], [0, 1],
                                       [1.0, 0.5]), np.zeros(2), 0.1)
        s = IterateState.zeros(p)
        assert line_search_1d(p, s, 1) == 0.0

    @staticmethod
    def empty_column_problem(c1, reg):
        # F is linear along the empty column 1, with slope c1
        return CompositeProblem(SparseColMatrix(2, [0, 2, 2], [0, 1],
                                                [1.0, 0.5]),
                                [0.0, c1], SquaredResidual([1.0, 1.0]), reg)

    def test_zero_column_with_slope_stops_at_the_box_bound(self):
        plain = solve_box(self.empty_column_problem(-0.5, Box()),
                          SolverConfig())
        searched = solve_box(self.empty_column_problem(-0.5, Box()),
                             SolverConfig(use_line_search=True))
        for tr in (plain, searched):
            np.testing.assert_array_equal(tr.final_state.alpha, [1.0, 1.0])
            assert tr.status == "optimal"
        p = self.empty_column_problem(0.5, Box())
        s = IterateState(alpha=np.array([0.0, 1.0]), residual=np.zeros(2),
                         nnz=1)
        assert line_search_1d(p, s, 1) == 0.0

    def test_zero_column_with_slope_unbounded_under_l1(self):
        p = self.empty_column_problem(-0.5, L1(0.1))
        with pytest.raises(ValueError, match="unbounded direction"):
            line_search_1d(p, IterateState.zeros(p), 1)

    def test_solver_with_line_search_descends(self, rng):
        p = random_problem("lasso", rng)
        tr = solve_l1(p, SolverConfig(use_line_search=True, max_iters=150,
                                      tol=1e-10))
        f = tr.f_values
        assert np.all(np.diff(f) <= 1e-12 * (1 + np.abs(f[:-1])))


class TestRunCounters:
    def test_all_good_run(self, rng):
        p = one_dim_problem()
        tr = solve_l1(p, SolverConfig(max_iters=10, tol=0.0))
        c = run_counters(tr)
        assert c["bad"] == 0 and c["good"] == c["total"]

    def test_l1_lemma_random_runs(self):
        import math
        for seed in range(20):
            p = random_problem("lasso", np.random.default_rng(seed))
            tr = solve_l1(p, SolverConfig(max_iters=150, tol=1e-10))
            c = run_counters(tr)
            assert c["good"] >= math.ceil(c["total"] / 2)

    def test_empty_trace_rejected(self, rng):
        from greedycd.solver import Trace
        t = Trace(f_initial=0.0, columns={},
                  counters={"good": 0, "bad": 0, "cross": 0, "fallback": 0},
                  final_state=None, status="max_iters", problem_kind="l1")
        with pytest.raises(ValueError):
            run_counters(t)

    def test_violation_raises(self):
        from greedycd.solver import Trace
        t = Trace(f_initial=0.0, columns={},
                  counters={"good": 1, "bad": 3, "cross": 0, "fallback": 0},
                  final_state=None, status="max_iters", problem_kind="l1")
        with pytest.raises(RuntimeError):
            run_counters(t)


class TestConfigValidation:
    def test_bad_values_rejected(self, rng):
        p = random_problem("lasso", rng)
        with pytest.raises(ValueError):
            solve_l1(p, SolverConfig(tol=-1.0))
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            solve_l1(p, SolverConfig(tol=np.nan))
        with pytest.raises(ValueError):
            solve_l1(p, SolverConfig(max_iters=0))
        with pytest.raises(ValueError):
            solve_l1(p, SolverConfig(engine="magic"))

    def test_unknown_rule_refused_by_name(self, rng):
        # refused before any step: a check that stops the solve first
        # would otherwise never reach the pick that fails
        p = random_problem("lasso", rng)
        for rule in ("gs-r", None, "uniform"):
            with pytest.raises(ValueError, match=re.escape(
                    "rule must be a Rule member (GSS, GSR, GSQ, UNIFORM), "
                    "got %r" % (rule,))):
                solve_l1(p, SolverConfig(rule=rule, tol=1e3))

    def test_seed_must_be_a_nonnegative_integer(self):
        for seed in (0, 7, np.int64(3), np.uint32(5)):
            SolverConfig(seed=seed).validate()
        for seed in (-1, 1.5, "0", None, np.int64(-2), True, False,
                     np.bool_(True)):
            with pytest.raises(ValueError, match="seed must be a nonneg"):
                SolverConfig(seed=seed).validate()

    def test_step_counts_must_be_integers_of_at_least_one(self):
        # a NaN budget took no step and a fractional one rounded up; a
        # fractional trace_every failed only when the records were read
        from greedycd.harness import ExperimentConfig, RunSpec
        for name in ("max_iters", "trace_every"):
            for value in (1, 7, np.int64(3), np.uint32(5)):
                SolverConfig(**{name: value}).validate()
            for value in (0, -1, 2.5, 3.0, float("nan"), "5", None,
                          np.int64(0), True, False, np.bool_(True)):
                with pytest.raises(ValueError, match="%s must be an integer"
                                   % name):
                    SolverConfig(**{name: value}).validate()
        spec = SynthSpec(CorrelatedLasso(n=8, d=5), 0)
        for value in (2.5, True):
            with pytest.raises(ValueError,
                               match="max_iters must be an integer"):
                ExperimentConfig(problem="lasso", data=spec,
                                 runs=[RunSpec("a")],
                                 max_iters=value).validate()

    def test_engine_takes_no_other_rule_or_selector(self, rng):
        # the engine selects by gs-s; another rule or a selector would be
        # ignored, so the config is refused
        p = random_problem("lasso", rng)
        for rule in (Rule.GSR, Rule.GSQ, Rule.UNIFORM):
            with pytest.raises(ValueError, match="gs-s only"):
                solve_l1(p, SolverConfig(engine="smips", rule=rule))
        with pytest.raises(ValueError, match="gs-s only"):
            solve_l1(p, SolverConfig(engine="smips",
                                     selector=lambda p, s: 0))
        q = random_problem("svm", rng)
        engine = SmipsEngine(q)
        with pytest.raises(ValueError, match="gs-s only"):
            solve_box(q, SolverConfig(engine=engine, rule=Rule.UNIFORM))
        assert solve_box(q, SolverConfig(engine=engine, max_iters=5)).n_steps

    def test_backend_needs_engine_smips(self):
        # without engine "smips" a backend would be ignored and the solve
        # would run plain gs-s, so the config is refused
        ds = gen_synthetic(SynthSpec(CorrelatedLasso(200, 50), seed=0))
        p = make_lasso(ds.matrix, ds.labels, 0.1)
        for engine in ("exact", SmipsEngine(p)):
            with pytest.raises(ValueError, match="engine 'smips'"):
                solve_l1(p, SolverConfig(
                    engine=engine, backend=sm.HyperplaneLsh(4, 4, seed=0),
                    max_iters=100))
        assert solve_l1(p, SolverConfig(
            engine="smips", backend=sm.HyperplaneLsh(4, 4, seed=0),
            max_iters=100)).n_steps
