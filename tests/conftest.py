"""Shared builders for random problems and iterate states, the rows an
experiment's files stand for, and the audit of what a solve's steps keep.

The `audit` fixture holds every value a kind's steps keep (`kept()`)
against the one oracles.FRESH makes from alpha, right after the steps are
made and after every move, and every steepest check against the one made
without kept state. A new kept quantity needs a `kept` entry, a FRESH
entry and, unless it is bitwise, a CLOSE entry.
"""

import struct
from types import SimpleNamespace

import numpy as np
import pytest

from greedycd import harness, oracles, solver
from greedycd.objectives import (IterateState, make_elastic_net, make_lasso,
                                 make_logistic, make_svm_dual)
from greedycd.selection import ActiveSet, select_gss_box, select_gss_l1
from greedycd.sparse import SparseColMatrix


def random_matrix(rng, d, n, density=0.7, normalize=False):
    A = rng.standard_normal((d, n)) * (rng.random((d, n)) < density)
    # keep every column nonzero so smoothness and point sets are well posed
    for j in range(n):
        if not A[:, j].any():
            A[rng.integers(d), j] = rng.standard_normal()
    if normalize:
        A /= np.linalg.norm(A, axis=0, keepdims=True)
    return SparseColMatrix.from_dense(A)


def random_problem(kind, rng, n=12, d=8, lam=0.05, lam2=0.03):
    """A small random instance of the requested problem kind."""
    if kind == "lasso":
        M = random_matrix(rng, d, n)
        return make_lasso(M, rng.standard_normal(d), lam)
    if kind == "elasticnet":
        M = random_matrix(rng, d, n)
        return make_elastic_net(M, rng.standard_normal(d), lam, lam2)
    if kind == "svm":
        labels = rng.choice([-1.0, 1.0], n)
        M = random_matrix(rng, d, n).scale_columns(labels)
        return make_svm_dual(M, 0.5)
    if kind == "logistic":
        M = random_matrix(rng, d, n)
        return make_logistic(M, lam)
    raise ValueError(kind)


def svm_problem(seed, n=200, d=20, svm_lambda=0.01, density=0.7):
    """An SVM dual on a random matrix, its labels drawn first."""
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1.0, 1.0], n)
    M = random_matrix(rng, d, n, density).scale_columns(labels)
    return make_svm_dual(M, svm_lambda)


def l1_problem(kind, seed):
    """A lasso or elastic net at n=60, d=40, or a logistic at n=40, d=60."""
    rng = np.random.default_rng(seed)
    if kind == "logistic":
        return random_problem(kind, rng, n=40, d=60, lam=0.01)
    return random_problem(kind, rng, n=60, d=40, lam=0.01, lam2=0.01)


def sparse_logistic(seed=0):
    """Columns on about 12 of 400 rows, so row products gather."""
    rng = np.random.default_rng(seed)
    return make_logistic(random_matrix(rng, 400, 150, density=0.03), 0.01)


def metric_rows(cfg, summary):
    """The metrics CSV's rows as dicts in CSV_HEADER order, one per record
    of each trace in run_experiment's summary: the suboptimality is f less
    f_lower, and each run's last row carries its held-out accuracy."""
    p, info = harness.build_problem(cfg)
    rows = []
    for name, trace in summary["traces"].items():
        rows += [{"run": name, "iter": r.iter, "wall_ns": r.wall_ns,
                  "f_value": r.f_value,
                  "suboptimality": r.f_value - summary["f_lower"],
                  "nnz": r.nnz, "step_kind": r.step_kind, "coord": r.coord,
                  "theta": r.theta, "gap": r.gap, "test_accuracy": None,
                  "fell_back": int(r.fell_back)} for r in trace.records]
        if trace.records:
            rows[-1]["test_accuracy"] = harness._test_accuracy(
                p, trace.final_state, info["test"], cfg.problem)
    return rows


def plot_summary(rows, empty=()):
    """A summary for emit_plot_csv holding the dict rows: f_lower is 0 and
    each run's trace has the rows' iter, wall_ns and suboptimality (as
    f_value) columns, runs in order of first row; each name in `empty` adds
    a run with no record after them."""
    series = {}
    for row in rows:
        series.setdefault(row["run"], []).append(row)
    series.update((name, []) for name in empty)
    return {"f_lower": 0.0, "traces": {name: solver.Trace(
        0.0, {"iter": np.array([r["iter"] for r in recs], np.int64),
              "wall_ns": np.array([r["wall_ns"] for r in recs], np.int64),
              "f_value": np.array([r["suboptimality"] for r in recs],
                                  float)},
        {}, None, "max_iters", "l1") for name, recs in series.items()}}


def random_state(p, rng, box=False, zero_frac=0.4):
    """Feasible iterate with a mix of zero, boundary, and interior values."""
    n = p.n
    if box:
        alpha = rng.uniform(0.0, 1.0, n)
        alpha[rng.random(n) < 0.25] = 0.0
        alpha[rng.random(n) < 0.15] = 1.0
    else:
        alpha = rng.standard_normal(n)
        alpha[rng.random(n) < zero_frac] = 0.0
    s = IterateState(alpha=alpha, residual=np.zeros(p.d),
                     nnz=int(np.count_nonzero(alpha)))
    s.recompute_residual(p)
    return s


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _relative(tol):
    return lambda got, want: abs(got - want) <= tol * (1.0 + abs(want))


# name -> (kept, fresh) -> whether they are close enough; a kept value of
# any other name must have the fresh value's dtype, shape and bits
CLOSE = {
    "grad": lambda got, want: float(np.abs(got - want).max())
    <= 1e-9 * (1.0 + float(np.abs(want).max())),
    "objective": _relative(1e-12),
    "residual": lambda got, want: float(np.abs(got - want).max())
    <= 1e-12 * (1.0 + float(np.abs(want).max())),
    "sums": lambda got, want: all(map(_relative(1e-12), got, want)),
    "gap": lambda got, want: abs(got - want) <= 1e-12,
}
AT_REFRESH = {"bound"}  # kept from the last refresh, remade only there


def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def assert_kept_fresh(steps, p, s, refreshed=True):
    """Each value the steps keep is the fresh one; one that only a refresh
    remakes is compared only when refreshed. Returns what they keep."""
    kept = steps.kept(p, s)
    names = [name for name in kept if refreshed or name not in AT_REFRESH]
    for name, want in oracles.fresh_kept(p, s, names, kept).items():
        got, close = kept[name], CLOSE.get(name)
        assert close(got, want) if close else _bits(got) == _bits(want), \
            "kept %s is not fresh: %r, fresh %r" % (name, got, want)
    return kept


def same_float(a, b):
    """a and b have the same bits, or both are NaN."""
    return struct.pack("<d", a) == struct.pack("<d", b) or a != a and b != b


def assert_checked(steps, p, s, out):
    """The check's outcome is the one made without what the steps keep:
    select_gss_l1 with no offsets, or select_gss_box over from_state's
    set, which the box members must equal."""
    if steps.kind == "l1":
        ref = select_gss_l1(p, s)
    else:
        active = ActiveSet.from_state(s.alpha, s.grad)
        ref = select_gss_box(p, s, active=active)
        np.testing.assert_array_equal(steps.members, active.membership)
    if ref is None:
        assert out is None
    else:
        assert out.coord == ref.coord and same_float(out.score, ref.score), \
            (out, ref)


@pytest.fixture
def audit(monkeypatch):
    """Audits the steps of every solve the test makes, and every step it
    makes itself. Returns what it saw: `moves`, per move (alpha_j before,
    alpha_j after, the gradient refreshes so far); `checks`, per check the
    refreshes so far; `refreshed`, per move that refreshed the gradient
    what kept() returned after it."""
    seen = SimpleNamespace(moves=[], checks=[], refreshed=[])
    move = solver._Steps.move

    def moving(steps, p, s, j, aj, new):
        refreshes = s.grad_refreshes
        move(steps, p, s, j, aj, new)
        refreshed = s.grad_refreshes != refreshes
        kept = assert_kept_fresh(steps, p, s, refreshed)
        if refreshed:
            seen.refreshed.append(kept)
        seen.moves.append((aj, float(s.alpha[j]), s.grad_refreshes))

    monkeypatch.setattr(solver._Steps, "move", moving)
    for kind in (solver._L1Steps, solver._BoxSteps):
        def making(steps, p, cfg, s, engine=None, make=kind.__init__):
            make(steps, p, cfg, s, engine)
            assert_kept_fresh(steps, p, s)

        def checking(steps, p, s, steepest=kind.steepest):
            out = steepest(steps, p, s)
            assert_checked(steps, p, s, out)
            seen.checks.append(s.grad_refreshes)
            return out

        monkeypatch.setattr(kind, "__init__", making)
        monkeypatch.setattr(kind, "steepest", checking)
    return seen
