"""The S-MIPS engine folded into the steepest rule, and its LSH tables.

Over the live augmented points an exact inner-product search is the
steepest-subgradient (GS-s) argmax, so the solvers run an exact engine as
GS-s: at every step of a GS-s solve the exact scan over the points must
pick GS-s's coordinate with GS-s's score, and every form of an exact engine
must give GS-s's trace bit for bit. HyperplaneLsh.fit buckets the points
with one sort per table; its tables must equal the per-point loop's. Each
solve restarts a hashing engine's fallback draws, so every solve by one
prebuilt engine must give a fresh engine's trace bit for bit.
"""

import numpy as np
import pytest

from conftest import l1_problem, random_problem, svm_problem
from greedycd import smips as sm
from greedycd import solver
from greedycd.objectives import (Box, CompositeProblem, SquaredResidual,
                                 full_grad, make_lasso, make_logistic)
from greedycd.selection import Rule
from greedycd.solver import SmipsEngine, SolverConfig, solve_box, solve_l1
from greedycd.sparse import SparseColMatrix

STEPS = 4200  # four refreshes at RESIDUAL_REFRESH_EVERY = 1000


def problem(kind, seed=0):
    if kind == "svm":
        return svm_problem(seed), solve_box
    return l1_problem(kind, seed), solve_l1


def scan(engine, p, s):
    """(coordinate, value) of the exact scan over the engine's points, with
    the mask read off the state's alpha."""
    build_mask = sm.build_l1_mask if engine.kind == "l1" \
        else sm.build_box_mask
    pid, val, _ = sm.smips_query(engine.points, engine.query(p, s),
                                 build_mask(s.alpha), sm.Exact())
    return sm.point_to_coordinate(engine.points, pid)[0], val


@pytest.mark.parametrize("kind", ["lasso", "logistic", "svm"])
def test_engine_reads_the_scans_answer(kind, monkeypatch):
    """At every GS-s step, the exact scan picks GS-s's coordinate and score."""
    p, solve = problem(kind)
    engine = SmipsEngine(p)
    # the box steps check through their own score buffer
    owner, name = (solver._BoxSteps, "steepest") if kind == "svm" \
        else (solver, "select_gss_l1")
    steepest = getattr(owner, name)
    rows = []

    def checked(*args, **kw):
        out = steepest(*args, **kw)
        p, s = args[-2:]
        rows.append((out.coord, out.score) + scan(engine, p, s))
        return out

    monkeypatch.setattr(owner, name, checked)
    trace = solve(p, SolverConfig(max_iters=STEPS, tol=0.0))
    assert trace.n_steps == STEPS == len(rows)
    assert trace.counters["grad_refreshes"] > 3
    g = full_grad(p, trace.final_state)
    roundoff = 1e-9 * (1.0 + float(np.abs(g).max()))
    live = [k for k, row in enumerate(rows) if row[1] > roundoff]
    assert len(live) > 1000
    for j, score, ref_j, ref_val in rows[:live[-1] + 1]:
        assert j == ref_j
        assert abs(score - ref_val) <= 1e-12 * (1.0 + abs(score))


def trace_key(tr):
    """Everything a trace reports but its wall times."""
    recs = [(r.iter, r.coord, r.step_kind, r.f_value, r.theta, r.fell_back,
             r.nnz, r.gap) for r in tr.records]
    return (tr.f_initial, recs, tr.counters, tr.status, tr.problem_kind,
            tr.final_state.alpha.tobytes(), tr.final_state.residual.tobytes())


@pytest.mark.parametrize("kind", ["lasso", "logistic", "svm"])
@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("tol", [0.0, 1e-7])
def test_exact_engine_solves_are_gss_solves(kind, line_search, tol):
    p, solve = problem(kind, 1)
    base = dict(max_iters=1500, tol=tol, use_line_search=line_search,
                record_gap=kind == "svm")
    want = trace_key(solve(p, SolverConfig(rule=Rule.GSS, **base)))
    for engine, backend in ((SmipsEngine(p), None), ("smips", None),
                            ("smips", sm.Exact())):
        got = solve(p, SolverConfig(engine=engine, backend=backend, **base))
        assert trace_key(got) == want


@pytest.mark.parametrize("kind", ["lasso", "svm"])
def test_each_solve_restarts_the_fallback_draws(kind):
    p, solve = problem(kind)
    base = dict(max_iters=300, tol=0.0)
    fresh = solve(p, SolverConfig(
        engine="smips", backend=sm.HyperplaneLsh(24, 1, seed=2), **base))
    assert fresh.counters["fallback"] > 100  # mostly drawn picks
    engine = SmipsEngine(p, backend=sm.HyperplaneLsh(24, 1, seed=2))
    for _ in range(2):
        again = solve(p, SolverConfig(engine=engine, **base))
        assert trace_key(again) == trace_key(fresh)


@pytest.mark.parametrize("kind", ["lasso", "svm"])
def test_points_are_built_on_first_read(kind):
    p, solve = problem(kind)
    engine = SmipsEngine(p, beta=0.7)
    solve(p, SolverConfig(engine=engine, max_iters=50))
    assert "points" not in engine.__dict__
    build = sm.build_l1_points if kind == "lasso" else sm.build_box_points
    want = build(p.matrix, p.linear_term, 0.7)
    got = engine.points
    np.testing.assert_array_equal(got.points, want.points)
    assert [sm.point_to_coordinate(got, pid) for pid in range(got.n_points)] \
        == [sm.point_to_coordinate(want, pid)
            for pid in range(want.n_points)]
    assert (got.tags, got.beta) == (want.tags, want.beta)
    assert engine.points is got
    # no points to build, but a bad beta is still refused at once
    with pytest.raises(ValueError, match="beta"):
        SmipsEngine(p, beta=0.0)
    with pytest.raises(ValueError, match="beta must be positive"):
        SmipsEngine(p, beta=np.nan)


@pytest.mark.parametrize("make", [make_lasso, make_logistic])
def test_zero_start_optimal_stops_at_step_zero(make):
    # with lam above lam_max = |g(0)|_inf every steepest score at alpha = 0
    # is exactly zero, so the exact rules stop before a step even at tol = 0
    rng = np.random.default_rng(4)
    M = SparseColMatrix.from_dense(rng.standard_normal((15, 30)))
    if make is make_lasso:
        b = rng.standard_normal(15)
        p = make_lasso(M, b, 1.5 * float(np.abs(M.matvec_T(b)).max()))
    else:
        p = make_logistic(M, 0.75 * float(np.abs(M.matvec_T(
            np.ones(15))).max()))
    configs = [SolverConfig(rule=rule, max_iters=50, tol=0.0)
               for rule in (Rule.GSS, Rule.GSR, Rule.GSQ)]
    configs.append(SolverConfig(engine="smips", max_iters=50, tol=0.0))
    for cfg in configs:
        tr = solve_l1(p, cfg)
        assert (tr.status, tr.n_steps) == ("tol", 0)
        assert not tr.final_state.alpha.any()


def test_box_stops_on_a_zero_score_over_a_live_active_set():
    # one step lands alpha = 0.5 exactly on the minimizer: the interior
    # coordinate stays active with a zero score, which stops as "tol"
    M = SparseColMatrix.from_dense(np.eye(1))
    p = CompositeProblem(M, np.zeros(1), SquaredResidual(np.array([0.5])),
                         Box())
    for engine in ("exact", "smips"):
        tr = solve_box(p, SolverConfig(engine=engine, max_iters=10, tol=0.0))
        assert (tr.status, tr.n_steps) == ("tol", 1)
        assert tr.final_state.alpha[0] == 0.5


def loop_tables(ps, bits, n_tables, seed):
    """The planes and the per-point bucketing loop HyperplaneLsh.fit once ran."""
    rng = np.random.default_rng(seed)
    all_planes, tables = [], []
    for _ in range(n_tables):
        planes = rng.standard_normal((bits, ps.dim))
        sigs = np.asarray(ps.points @ planes.T) >= 0
        buckets = {}
        for pid in range(ps.n_points):
            buckets.setdefault(sm._pack_bits(sigs[pid]), []).append(pid)
        all_planes.append(planes)
        tables.append({k: np.array(v) for k, v in buckets.items()})
    return all_planes, tables


@pytest.mark.parametrize("mapping", ["l1", "box"])
@pytest.mark.parametrize("bits", [3, 8, 11, 16])
def test_lsh_tables_match_the_loop(mapping, bits, rng):
    if mapping == "l1":
        p = random_problem("lasso", rng, n=150, d=20)
        ps = sm.build_l1_points(p.matrix, p.linear_term, 0.5)
    else:
        p = random_problem("svm", rng, n=150, d=20)
        ps = sm.build_box_points(p.matrix, p.linear_term, 0.5)
    lsh = sm.HyperplaneLsh(bits, 3, seed=4)
    lsh.fit(ps)
    planes, tables = loop_tables(ps, bits, 3, seed=4)
    for got, want in zip(lsh._planes, planes):
        np.testing.assert_array_equal(got, want)
    assert len(lsh._tables) == len(tables)
    for got, want in zip(lsh._tables, tables):
        assert got.keys() == want.keys()
        for key, ids in want.items():
            assert got[key].dtype == ids.dtype
            np.testing.assert_array_equal(got[key], ids)
