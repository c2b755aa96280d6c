"""The S-MIPS engine folded into the steepest rule, and its LSH tables.

Over the live augmented points an exact inner-product search is the
steepest-subgradient (GS-s) argmax, so the solvers run an exact engine as
GS-s: at every step of a GS-s solve the exact scan over the points must
pick GS-s's coordinate with GS-s's score, and every form of an exact engine
must give GS-s's trace bit for bit. HyperplaneLsh hashes the points into
all its tables with one plane product and keeps each table's integer keys
sorted; its tables and candidate sets must equal the per-table loop's. Each
solve restarts a hashing engine's fallback draws, so every solve by one
prebuilt engine must give a fresh engine's trace bit for bit. The hashing
pick runs after the stop check, so a solve queries the engine once for each
step it takes and for no check that stops it. A step that does not lower
the kept F leaves the query as it was, or moves alpha_j by an ulp or two
that the same answer takes back, so the pick after it is a fallback draw,
not the same answer again.
"""

import numpy as np
import pytest

from conftest import l1_problem, random_problem, svm_problem
from greedycd import harness
from greedycd import smips as sm
from greedycd import solver
from greedycd.data_io import CorrelatedLasso, SynthSpec
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


def not_lowered(tr):
    """Per step but the last, whether it left the kept F no lower."""
    f = np.concatenate(([tr.f_initial], tr.columns["f_value"][:-1]))
    return ~(f[1:] < f[:-1])


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


@pytest.fixture
def queries(monkeypatch):
    """The calls a test makes to smips_query, one entry each."""
    calls, query = [], sm.smips_query

    def counting(*args):
        calls.append(1)
        return query(*args)

    monkeypatch.setattr(sm, "smips_query", counting)
    return calls


def test_a_stop_at_the_first_check_makes_no_query(queries):
    tr = solve_box(svm_problem(0), SolverConfig(
        engine="smips", backend=sm.HyperplaneLsh(3, 4, seed=0), tol=0.5))
    assert (tr.status, tr.n_steps) == ("tol", 0)
    assert queries == []


@pytest.mark.parametrize("kind", ["lasso", "svm"])
@pytest.mark.parametrize("tol", [0.0, 1e-3])
@pytest.mark.parametrize("line_search", [False, True])
def test_hashing_queries_once_per_step(kind, tol, line_search, queries,
                                       audit):
    """Each step queries the engine but one that follows a step that did
    not lower the kept F, which draws instead; that draw is a fallback. A
    step that moved nothing is one of them."""
    p, solve = (svm_problem(0, n=80, d=12), solve_box) if kind == "svm" \
        else problem(kind)
    tr = solve(p, SolverConfig(engine="smips", tol=tol, max_iters=300,
                               use_line_search=line_search,
                               backend=sm.HyperplaneLsh(4, 3, seed=0)))
    still = not_lowered(tr)
    moved_nothing = np.array([aj == after
                              for aj, after, _ in audit.moves[:-1]],
                             dtype=bool)
    assert not (moved_nothing & ~still).any()
    assert tr.n_steps == len(audit.moves) > 0
    assert len(queries) == tr.n_steps - still.sum()
    assert tr.columns["fell_back"][1:][still].all()
    if line_search:  # a repeated pick moves nothing
        assert moved_nothing.any()


def test_a_stalled_hashed_pick_is_not_repeated():
    """The correlated lasso whose hashed pick moved nothing from step 52 on
    and repeated it to the step budget, F fixed at its step-52 value."""
    cfg = harness.ExperimentConfig(
        problem="lasso", data=SynthSpec(CorrelatedLasso(200, 40), seed=0),
        runs=[harness.RunSpec("run")])
    p, _ = harness.build_problem(cfg)
    tr = solve_l1(p, SolverConfig(engine="smips", max_iters=3000, tol=1e-6,
                                  backend=sm.HyperplaneLsh(4, 4)))
    f = tr.columns["f_value"]
    assert f[-1] < f[100]
    assert tr.counters["fallback"] > 0
    assert len(set(tr.columns["coord"][100:].tolist())) > 1


def test_an_ulp_move_is_not_repeated():
    """Each pick from step 32 on took coordinate 30, which the prox step
    moved by two ulps back and forth with F unchanged."""
    tr = solve_l1(l1_problem("lasso", 0), SolverConfig(
        engine="smips", max_iters=600, tol=1e-6,
        backend=sm.HyperplaneLsh(4, 3, seed=0)))
    coord, f = tr.columns["coord"], tr.columns["f_value"]
    assert f[-1] < f[100]
    # no coordinate is picked on more than 30 steps in a row
    runs = np.diff(np.flatnonzero(np.diff(coord, prepend=-1, append=-1)))
    assert runs.max() <= 30
    # after each step that did not lower F, a fallback draw
    still = not_lowered(tr)
    assert still.any() and tr.columns["fell_back"][1:][still].all()


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
    """The planes and the per-point bucketing loop HyperplaneLsh.fit once
    ran: per table, {packed sign bytes: ascending point ids}."""
    rng = np.random.default_rng(seed)
    all_planes, tables = [], []
    for _ in range(n_tables):
        planes = rng.standard_normal((bits, ps.dim))
        sigs = np.asarray(ps.points @ planes.T) >= 0
        buckets = {}
        for pid in range(ps.n_points):
            buckets.setdefault(np.packbits(sigs[pid]).tobytes(),
                               []).append(pid)
        all_planes.append(planes)
        tables.append({k: np.array(v) for k, v in buckets.items()})
    return all_planes, tables


def loop_candidates(planes, tables, q):
    """The union the per-table lookups HyperplaneLsh.candidates once made."""
    found = []
    for p, t in zip(planes, tables):
        key = np.packbits(p @ q >= 0).tobytes()
        if key in t:
            found.append(t[key])
    if not found:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate(found))


def hashed_points(mapping, rng):
    if mapping == "lasso-dense":  # the benchmark's points
        cfg = harness.ExperimentConfig(
            problem="lasso", runs=[harness.RunSpec("run")],
            data=SynthSpec(CorrelatedLasso(1000, 100, density=0.05), seed=0))
        p, _ = harness.build_problem(cfg)
        return sm.build_l1_points(p.matrix, p.linear_term, 50.0 / np.sqrt(p.n))
    if mapping == "l1":
        p = random_problem("lasso", rng, n=150, d=20)
        return sm.build_l1_points(p.matrix, p.linear_term, 0.5)
    p = random_problem("svm", rng, n=150, d=20)
    return sm.build_box_points(p.matrix, p.linear_term, 0.5)


LSH_BITS = [1, 3, 8, 11, 16, 24, 64]


@pytest.mark.parametrize("mapping", ["l1", "box"])
@pytest.mark.parametrize("bits", LSH_BITS)
def test_lsh_tables_match_the_loop(mapping, bits, rng):
    # a table keeps the loop's buckets as sorted integer keys, each the
    # big-endian integer of the loop's packed bytes less their zero padding,
    # with the bucket's ascending ids in key order
    ps = hashed_points(mapping, rng)
    lsh = sm.HyperplaneLsh(bits, 3, seed=4)
    lsh.fit(ps)
    planes, tables = loop_tables(ps, bits, 3, seed=4)
    np.testing.assert_array_equal(lsh._planes, np.concatenate(planes))
    width = next(w for w in (8, 16, 32, 64) if w >= bits)
    assert lsh._keys.dtype == np.dtype("u%d" % (width // 8))
    assert lsh._keys.shape == lsh._ids.shape == (3, ps.n_points)
    for keys, ids, want in zip(lsh._keys, lsh._ids, tables):
        ints = {int.from_bytes(k, "big") >> (8 * len(k) - bits): v
                for k, v in want.items()}
        order = sorted(ints)
        np.testing.assert_array_equal(keys, np.array(
            [k for k in order for _ in ints[k]], dtype=np.uint64))
        want_ids = np.concatenate([ints[k] for k in order])
        assert ids.dtype == want_ids.dtype
        np.testing.assert_array_equal(ids, want_ids)


@pytest.mark.parametrize("mapping,bits,n_tables", [
    pytest.param(m, b, 3, id="%d-%s" % (b, m))
    for b in LSH_BITS for m in ("box", "l1")] + [
    pytest.param("lasso-dense", 8, 10, id="8x10-lasso-dense")])
def test_lsh_candidates_match_the_loop(mapping, bits, n_tables, rng):
    ps = hashed_points(mapping, rng)
    lsh = sm.HyperplaneLsh(bits, n_tables, seed=4)
    lsh.fit(ps)
    planes, tables = loop_tables(ps, bits, n_tables, seed=4)
    queries = [rng.standard_normal(ps.dim) * 10.0 ** rng.integers(-3, 4)
               for _ in range(200)]
    queries += list(ps.points[::7]) + [np.zeros(ps.dim)]
    misses = 0
    for q in queries:
        got, want = lsh.candidates(q), loop_candidates(planes, tables, q)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        misses += len(want) == 0
    # not every lookup misses, so some unions were compared
    assert misses < len(queries)


def test_lsh_refuses_tables_without_an_integer_key():
    sm.HyperplaneLsh(64, 1)
    with pytest.raises(ValueError, match="at most 64"):
        sm.HyperplaneLsh(65, 2)
    for bits, tables in ((0, 2), (8, 0)):
        with pytest.raises(ValueError, match="at least one bit"):
            sm.HyperplaneLsh(bits, tables)
