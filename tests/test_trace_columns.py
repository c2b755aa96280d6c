"""A trace's records kept as numpy columns.

While a solve runs, each recorded step keeps a row and each screened run
one row for all its records; the columns are built once, when it stops.
These tests hold the columns to what per-step StepRecords gave: the same
records in step order, the same Python types on read, the same wall-time
accounting, and the same metrics CSV.
"""

import csv
import types

import numpy as np
import pytest

from conftest import metric_rows, random_problem
from greedycd import solver
from greedycd.data_io import CorrelatedLasso, RandomSvm, SynthSpec
from greedycd.harness import (CSV_HEADER, ExperimentConfig, RunSpec,
                              emit_plot_csv, run_experiment)
from greedycd.objectives import CompositeProblem, duality_gap, make_lasso
from greedycd.selection import Rule
from greedycd.solver import (COLUMNS, StepRecord, SolverConfig, _Records,
                             solve_box, solve_l1)
from greedycd.sparse import SparseColMatrix

# the field types a StepRecord carried when each step built one
L1_TYPES = (int, int, str, float, float, bool, int, int, type(None))
GAP_TYPES = L1_TYPES[:-1] + (float,)


def field_types(trace):
    return {tuple(type(getattr(r, f)) for f in StepRecord.__slots__)
            for r in trace.records}


def assert_kinds_counted(trace):
    """Every step recorded: its kinds are the trace's counts."""
    kinds = [r.step_kind for r in trace.records]
    assert {k: kinds.count(k) for k in solver.KINDS} == \
        {k: trace.counters[k] for k in solver.KINDS}
    assert trace.counters["bad"] + trace.counters["cross"] > 0


def as_tuples(trace):
    return [(r.iter, r.coord, r.step_kind, r.f_value, r.theta, r.fell_back,
             r.nnz, r.gap) for r in trace.records]


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSQ, Rule.UNIFORM])
def test_l1_record_types(rule, every):
    p = random_problem("lasso", np.random.default_rng(2), n=40, d=15,
                       lam=0.3)
    tr = solve_l1(p, SolverConfig(rule=rule, max_iters=900, tol=0.0,
                                  trace_every=every, record_gap=True))
    assert field_types(tr) == {GAP_TYPES}
    assert tr.columns["gap"][-1] == pytest.approx(
        duality_gap(p, tr.final_state), rel=1e-9, abs=1e-12)
    assert tr.n_steps == len(tr.records) == len(tr.f_values) - 1
    if every == 1:
        assert_kinds_counted(tr)


@pytest.mark.parametrize("rule", [Rule.GSS, Rule.UNIFORM])
def test_l1_gap_needs_a_zero_linear_term(monkeypatch, rule):
    """An L1 problem with c != 0 has no gap: asked to record one, the solve
    raises duality_gap's error at its first record."""
    q = random_problem("lasso", np.random.default_rng(2), n=40, d=15,
                       lam=0.3)
    c = np.zeros(q.n)
    c[3] = 0.25
    p = CompositeProblem(q.matrix, c, q.loss, q.reg)
    calls = []
    gap = solver.duality_gap
    monkeypatch.setattr(solver, "duality_gap",
                        lambda p, s: calls.append(1) or gap(p, s))
    with pytest.raises(ValueError, match="linear term c = 0"):
        solve_l1(p, SolverConfig(rule=rule, max_iters=50, record_gap=True))
    assert calls == [1]


@pytest.mark.parametrize("record_gap", [False, True])
@pytest.mark.parametrize("rule", [Rule.GSS, Rule.UNIFORM])
def test_box_record_types(rule, record_gap):
    p = random_problem("svm", np.random.default_rng(2), n=30, d=6)
    tr = solve_box(p, SolverConfig(rule=rule, max_iters=200, tol=0.0,
                                   record_gap=record_gap))
    assert field_types(tr) == {GAP_TYPES if record_gap else L1_TYPES}
    assert_kinds_counted(tr)


def test_columns_dtypes_and_bytes_per_record():
    p = random_problem("svm", np.random.default_rng(5), n=20, d=6)
    for record_gap, size in ((False, 50), (True, 58)):
        c = solve_box(p, SolverConfig(max_iters=30, tol=0.0,
                                      record_gap=record_gap)).columns
        assert list(c) == list(COLUMNS)[:8 + record_gap]
        assert [col.dtype for col in c.values()] == \
            [np.dtype(t) for t in COLUMNS.values()][:8 + record_gap]
        assert sum(col.itemsize for col in c.values()) == size
        assert all(len(col) == len(c["iter"]) > 10 for col in c.values())


@pytest.mark.parametrize("rule", [Rule.GSS, Rule.UNIFORM])
def test_empty_trace(tmp_path, rule):
    """lam above max |g| at 0: the solve stops before its first step."""
    p = make_lasso(SparseColMatrix.from_dense(np.eye(3)),
                   np.array([0.5, -0.2, 0.1]), 1.0)
    tr = solve_l1(p, SolverConfig(rule=rule, tol=1e-9))
    assert tr.n_steps == 0 and tr.records == []
    assert list(tr.columns) == list(COLUMNS)[:8]
    assert tr.f_values.tolist() == [tr.f_initial]


def test_rows_and_runs_in_step_order():
    """Thousands of rows and runs in a random interleaving (runs first,
    last, and back to back) come out as one column set in step order."""
    rng = np.random.default_rng(0)
    for every, record_gap in ((1, False), (7, False), (3, True)):
        records = _Records(every)
        expect, t, wall = [], 0, 0
        for _ in range(3000):
            if rng.random() < 0.5 or record_gap:
                kind = int(rng.integers(3))
                row = (1, t, int(rng.integers(100)), kind,
                       float(rng.random()), float(rng.random()), bool(kind),
                       wall, int(rng.integers(9)))
                if record_gap:
                    row += (float(rng.random()),)
                records.rows.append(row)
                expect.append(row[1:])
                t += every
            else:
                k = int(rng.integers(1, 20))
                coords = rng.integers(100, size=k)
                f, nnz = float(rng.random()), int(rng.integers(9))
                records.runs.append(coords)
                records.rows.append((k, t, -1, 0, f, 1.0, False, wall, nnz))
                expect += [(t + every * i, int(coords[i]), 0, f, 1.0, False,
                            wall if i == k - 1 else 0, nnz)
                           for i in range(k)]
                t += every * k
            wall += 1
        cols = records.columns()
        got = list(zip(*(col.tolist() for col in cols.values())))
        assert len(got) >= 3000 and got == expect


def mostly_null_lasso():
    """A = I and lam = 1: coordinate 0 moves at its first draw and then
    takes the scalar step at every draw; the others never move, so the
    screen settles their draws."""
    b = np.array([2.0, 0.25, -0.5, 0.1, 0.0, 0.3])
    return make_lasso(SparseColMatrix.from_dense(np.eye(6)), b, 1.0)


@pytest.fixture
def clock(monkeypatch):
    """A perf_counter_ns for the solver that counts its own calls."""
    stamps = []

    def tick():
        stamps.append(len(stamps) * 1000 + 7)
        return stamps[-1]

    monkeypatch.setattr(solver, "time", types.SimpleNamespace(
        perf_counter_ns=tick, perf_counter=solver.time.perf_counter))
    return stamps


@pytest.mark.parametrize("every", [1, 7])
def test_screened_runs_match_scalar_steps(clock, every):
    p = mostly_null_lasso()
    steps = 3000  # a step off the grid of 7, so the last record is pending
    cfg = dict(max_iters=steps, tol=0.0, trace_every=every)
    tr = solve_l1(p, SolverConfig(rule=Rule.UNIFORM, seed=4, **cfg))
    solve_time = clock[-1] - clock[0]
    # theta records keep uniform scalar, with the same draws and checks
    scalar = solve_l1(p, SolverConfig(rule=Rule.UNIFORM, seed=4,
                                      record_theta=True, **cfg))
    assert tr.counters["screened"] > steps // 2
    assert scalar.counters["screened"] == 0
    assert [t[:4] + t[5:] for t in as_tuples(tr)] == \
        [t[:4] + t[5:] for t in as_tuples(scalar)]
    assert {r.theta for r in tr.records} == {1.0}
    assert tr.f_values.tobytes() == scalar.f_values.tobytes()
    iters = [r.iter for r in tr.records]
    assert iters == list(range(0, steps, every)) + \
        ([steps - 1] if (steps - 1) % every else [])
    # the last step was screened: a run's last record, or its pending one
    assert tr.records[-1].coord != 0
    # a run's time goes to its last record; the others read 0
    walls = tr.columns["wall_ns"]
    assert int(walls.sum()) == solve_time
    assert walls.min() == 0 < walls.max()


def test_box_gaps_thinned_and_whole():
    """The gap recorded at a step is the gap after that step, whatever the
    trace keeps; the last is the final iterate's."""
    p = random_problem("svm", np.random.default_rng(8), n=25, d=6)
    cfg = dict(max_iters=61, tol=0.0, record_gap=True)
    whole = solve_box(p, SolverConfig(**cfg))
    thin = solve_box(p, SolverConfig(trace_every=7, **cfg))
    by_iter = {r.iter: r.gap for r in whole.records}
    assert [r.iter for r in thin.records] == list(range(0, 61, 7)) + [60]
    assert [r.gap for r in thin.records] == \
        [by_iter[r.iter] for r in thin.records]
    assert whole.records[-1].gap == pytest.approx(
        duality_gap(p, whole.final_state), rel=1e-9, abs=1e-12)
    plain = solve_box(p, SolverConfig(max_iters=61, tol=0.0))
    assert [t[:-1] for t in as_tuples(plain)] == \
        [t[:-1] for t in as_tuples(whole)]


@pytest.mark.parametrize("problem,data", [
    ("lasso", SynthSpec(CorrelatedLasso(n=60, d=20), seed=1)),
    ("svm", SynthSpec(RandomSvm(30, 5, 0.5), seed=2))])
def test_metrics_csv_reads_back_as_the_rows(tmp_path, problem, data):
    cfg = ExperimentConfig(
        problem=problem, data=data, lam=0.5, max_iters=700, tol=0.0,
        runs=[RunSpec("gs-s"), RunSpec("uniform", rule="uniform")],
        out=str(tmp_path / "m"))
    summary = run_experiment(cfg)
    rows = metric_rows(cfg, summary)
    assert len(rows) == sum(r["steps"] for r in summary["runs"].values())
    assert all(list(row) == CSV_HEADER for row in rows)
    with open(cfg.out + ".csv", newline="") as fh:
        header, *cells = csv.reader(fh)
    assert header == CSV_HEADER and len(cells) == len(rows)
    for line, row in zip(cells, rows):
        assert line == ["" if v is None else str(v) for v in row.values()]


def test_experiment_files_build_no_records(tmp_path):
    """The metrics CSV, the JSON and both plot axes read the trace
    columns: no StepRecord is built, and the summary holds no rows."""
    cfg = ExperimentConfig(
        problem="svm", data=SynthSpec(RandomSvm(30, 5, 0.5), seed=2),
        lam=0.5, max_iters=300, tol=0.0, test_split=0.25,
        runs=[RunSpec("gs-s"), RunSpec("uniform", rule="uniform")],
        out=str(tmp_path / "m"))
    summary = run_experiment(cfg)
    for axis in ("iter", "wall"):
        emit_plot_csv(summary, x_axis=axis, stream=cfg.out + "_plot.csv")
    assert "rows" not in summary
    assert list(summary["traces"]) == ["gs-s", "uniform"]
    for trace in summary["traces"].values():
        assert trace.n_steps == 300 and "records" not in vars(trace)
