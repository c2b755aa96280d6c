"""The S-MIPS engine's fast paths against the reference paths they replace.

The exact engine reads every point's inner product off the full gradient
instead of scanning the dense points; at every step of a solve it must give
the point the scan gives on the same state. HyperplaneLsh.fit buckets the
points with one sort per table; its tables must equal the per-point loop's.
"""

import numpy as np
import pytest

from conftest import random_problem, random_state
from greedycd import smips as sm
from greedycd.objectives import full_grad, grad_l
from greedycd.solver import SmipsEngine, SolverConfig, solve_box, solve_l1
from test_maintained_gradient import l1_problem, svm_problem

STEPS = 4200  # four refreshes at RESIDUAL_REFRESH_EVERY = 1000


def scan(engine, p, s):
    """(point id, value) of the exact scan over the engine's dense points."""
    gl = grad_l(p, s)
    if engine.kind == "l1":
        q = sm.build_l1_query(gl, p.l1_lambda, engine.beta)
    else:
        q = sm.build_box_query(gl, engine.c_value, engine.beta)
    pid, val, _ = sm.smips_query(engine.points, q, engine.mask, sm.Exact())
    return pid, val


def solve_checked(p, solve, monkeypatch):
    """A solve with the exact engine that logs, at every step, the engine's
    answer and the scan's answer on the same state."""
    answers = []
    read = sm.exact_from_grad

    def logged_read(*args):
        answers.append(read(*args))
        return answers[-1]

    monkeypatch.setattr(sm, "exact_from_grad", logged_read)
    engine = SmipsEngine(p)
    select = engine.select
    rows = []

    def checked_select(p, s):
        out = select(p, s)
        rows.append(answers[-1] + scan(engine, p, s))
        return out

    engine.select = checked_select
    trace = solve(p, SolverConfig(engine=engine, max_iters=STEPS, tol=0.0))
    return trace, rows


@pytest.mark.parametrize("kind", ["lasso", "logistic", "svm"])
def test_engine_reads_the_scans_answer(kind, monkeypatch):
    if kind == "svm":
        p, solve = svm_problem(0), solve_box
    else:
        p, solve = l1_problem(kind, 0), solve_l1
    trace, rows = solve_checked(p, solve, monkeypatch)
    assert trace.n_steps == STEPS
    assert trace.counters["grad_refreshes"] > 3
    g = full_grad(p, trace.final_state)
    roundoff = 1e-9 * (1.0 + float(np.abs(g).max()))
    live = [k for k, row in enumerate(rows) if row[3] > roundoff]
    assert len(live) > 1000
    for pid, val, ref_pid, ref_val in rows[:live[-1] + 1]:
        assert pid == ref_pid
        assert abs(val - ref_val) <= 1e-12 * (1.0 + abs(ref_val))


@pytest.mark.parametrize("kind", ["lasso", "svm"])
def test_read_matches_scan_on_random_states(kind, rng):
    box = kind == "svm"
    p = random_problem(kind, rng, n=30, d=12)
    engine = SmipsEngine(p, beta=0.7)
    lam = 0.0 if box else p.l1_lambda
    for _ in range(200):
        s = random_state(p, rng, box=box)
        engine.reset_mask(s.alpha)
        pid, val = sm.exact_from_grad(engine.mask, full_grad(p, s), lam)
        ref_pid, ref_val = scan(engine, p, s)
        assert pid == ref_pid
        assert val == pytest.approx(ref_val, rel=1e-12, abs=1e-12)


def test_read_ties_go_to_the_first_point():
    m = sm.build_l1_mask(np.zeros(3))   # live: -A~+ and +A~- per coordinate
    # every coordinate scores g_j - lam = 1 on +A~-
    assert sm.exact_from_grad(m, np.full(3, 1.5), 0.5) == (2, 1.0)
    box = sm.build_box_mask(np.zeros(3))  # live: -A per coordinate
    assert sm.exact_from_grad(box, np.array([-2.0, 1.0, -2.0])) == (1, 2.0)


def test_read_rejects_empty_and_mismatched_masks():
    m = sm.build_box_mask(np.ones(3))
    m.included[:] = False
    with pytest.raises(ValueError, match="empty"):
        sm.exact_from_grad(m, np.zeros(3))
    with pytest.raises(ValueError, match="length"):
        sm.exact_from_grad(sm.build_l1_mask(np.zeros(3)), np.zeros(4))


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
