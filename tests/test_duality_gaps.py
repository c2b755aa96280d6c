"""Duality gaps for every problem kind that build_problem makes.

- duality_gap must match the benchmark's own certificates for the lasso
  and L1 logistic at solves' final states, with and without a kept
  gradient (the SVM dual's is in test_step_fast_paths.py), and a
  conjugate formula written here for the elastic net.
- On random states it must be nonnegative, and F - gap must stay below
  what an exact solve from the same state reaches (weak duality).
- L1-type problems with a nonzero linear term are refused.
- A solve of an L1-type problem evaluates the gap only when asked to
  record it.
- run_experiment reports each run's gap at its final state.

The library and the certificates each subtract a dual value from F, so
they are compared at states whose gap is far above the round-off of F.
"""

import numpy as np
import pytest
from scipy.special import xlogy

from conftest import random_problem, random_state
from greedycd import harness, solver
from greedycd.data_io import (CorrelatedLasso, RandomSvm, SynthSpec,
                              fold_labels, gen_synthetic)
from greedycd.harness import ExperimentConfig, RunSpec, run_experiment
from greedycd.objectives import (CompositeProblem, DualSVM, ElasticNetL1,
                                 L1, Logistic, SquaredResidual, duality_gap,
                                 make_elastic_net, make_lasso, make_logistic,
                                 objective_value)
from greedycd.selection import Rule
from greedycd.solver import SolverConfig, solve_l1
from greedycd.sparse import SparseColMatrix
from test_step_fast_paths import load_certify

certify = load_certify()
RULES = (Rule.GSS, Rule.UNIFORM)


def lasso_case(lam=0.5):
    ds = gen_synthetic(SynthSpec(CorrelatedLasso(200, 40, density=0.2), 1))
    p = make_lasso(ds.matrix, ds.labels, lam)
    A, b = certify.csc_of(p.matrix), np.array(p.loss.target)
    return p, lambda alpha: certify.lasso_gap(A, b, lam, alpha)


def logistic_case(lam=1.0):
    ds = gen_synthetic(SynthSpec(RandomSvm(300, 20), 1))
    p = make_logistic(fold_labels(ds).transpose(), lam)
    Z = certify.csc_of(p.matrix)
    return p, lambda alpha: certify.logistic_gap(Z, lam, alpha)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
@pytest.mark.parametrize("make", [lasso_case, logistic_case],
                         ids=["lasso", "logistic"])
def test_gap_matches_the_benchmarks_certificate(make, rule):
    p, reference = make()
    s = solve_l1(p, SolverConfig(rule=rule, tol=1e-3,
                                 max_iters=20_000)).final_state
    primal, gap = reference(s.alpha)
    assert objective_value(p, s) == pytest.approx(primal, rel=1e-12)
    assert gap > 1e-7 * abs(primal)  # far above the round-off of F
    assert duality_gap(p, s) == pytest.approx(gap, rel=1e-10)
    s.track_gradient(p)  # the correlation term read off the kept g
    assert duality_gap(p, s) == pytest.approx(gap, rel=1e-10)


def elastic_net_reference(p, alpha):
    """P - D with theta = A alpha - b and the conjugate of
    lam1 |x| + lam2/2 x^2, all from the dense matrix."""
    A = p.matrix.to_dense()
    b = np.asarray(p.loss.target)
    lam1, lam2 = p.reg.lam1, p.reg.lam2
    theta = A @ alpha - b
    primal = 0.5 * theta @ theta + lam1 * np.abs(alpha).sum() \
        + 0.5 * lam2 * alpha @ alpha
    over = np.maximum(np.abs(A.T @ theta) - lam1, 0.0)
    dual = -0.5 * theta @ theta - theta @ b - over @ over / (2.0 * lam2)
    return primal - dual


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
def test_elastic_net_gap_matches_its_conjugate(rule):
    ds = gen_synthetic(SynthSpec(CorrelatedLasso(200, 40, density=0.2), 1))
    p = make_elastic_net(ds.matrix, ds.labels, 0.5, 0.2)
    s = solve_l1(p, SolverConfig(rule=rule, tol=1e-3,
                                 max_iters=20_000)).final_state
    ref = elastic_net_reference(p, s.alpha)
    assert ref > 1e-7 * objective_value(p, s)
    assert duality_gap(p, s) == pytest.approx(ref, rel=1e-10)
    s.track_gradient(p)
    assert duality_gap(p, s) == pytest.approx(ref, rel=1e-10)


def dense_gap(p, alpha):
    """F less the Fenchel dual value at theta = nabla l(A alpha), scaled
    into ||A^T theta||_inf <= lam when lam2 = 0, each conjugate written
    out here for the loss and the regularizer."""
    A = p.matrix.to_dense()
    lam, lam2 = p.reg.lam, p.reg.lam2
    v = A @ alpha
    loss = p.loss
    if isinstance(loss, SquaredResidual):
        b = np.asarray(loss.target)
        value, theta = 0.5 * (v - b) @ (v - b), v - b
        conjugate = lambda t: 0.5 * t @ t + t @ b
    elif isinstance(loss, Logistic):
        value, theta = np.logaddexp(0.0, -v).sum(), -1.0 / (1.0 + np.exp(v))
        conjugate = lambda t: (xlogy(-t, -t) + xlogy(1 + t, 1 + t)).sum()
    else:
        S = p.loss_scale
        value, theta = v @ v / (2.0 * S), v / S
        conjugate = lambda t: 0.5 * S * t @ t
    corr = A.T @ theta
    k = 1.0 if lam2 else min(1.0, lam / np.abs(corr).max())
    over = np.maximum(np.abs(k * corr) - lam, 0.0)
    reg_conjugate = over @ over / (2.0 * lam2) if lam2 else 0.0
    primal = value + lam * np.abs(alpha).sum() + 0.5 * lam2 * alpha @ alpha
    return primal + conjugate(k * theta) + reg_conjugate


@pytest.mark.parametrize("reg", [L1(0.3), ElasticNetL1(0.3, 0.2)],
                         ids=["l1", "elasticnet"])
@pytest.mark.parametrize("loss", ["squared", "svm-dual", "logistic"])
def test_every_l1_pairing_matches_a_dense_reference(rng, loss, reg):
    M = SparseColMatrix.from_dense(rng.standard_normal((8, 12)))
    smooth = {"squared": SquaredResidual(rng.standard_normal(8)),
              "svm-dual": DualSVM(0.5), "logistic": Logistic()}[loss]
    p = CompositeProblem(M, np.zeros(12), smooth, reg)
    for _ in range(20):
        s = random_state(p, rng)
        assert duality_gap(p, s) == pytest.approx(
            dense_gap(p, s.alpha), rel=1e-9, abs=1e-12)


def test_elastic_net_without_lam2_is_the_lasso_gap(rng):
    p = random_problem("lasso", rng)
    q = CompositeProblem(p.matrix, p.linear_term, p.loss,
                         ElasticNetL1(p.reg.lam, 0.0))
    for _ in range(20):
        s = random_state(p, rng)
        assert duality_gap(q, s) == duality_gap(p, s)


@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic", "svm"])
def test_weak_duality_on_random_states(rng, kind):
    """F - gap lies below F*, so below any F a descent from the state
    reaches; the gap is the same with the kept g."""
    p = random_problem(kind, rng)
    cfg = SolverConfig(max_iters=2000, tol=1e-14)
    for _ in range(20):
        s = random_state(p, rng, box=kind == "svm")
        f, gap = objective_value(p, s), duality_gap(p, s)
        assert gap >= 0.0
        assert f - gap <= solver._solve(p, cfg, start=s).f_values[-1]
        s.track_gradient(p)
        assert duality_gap(p, s) == pytest.approx(gap, rel=1e-12,
                                                  abs=1e-12)


@pytest.mark.parametrize("loss", ["squared", "logistic"])
@pytest.mark.parametrize("reg", [L1(0.1), ElasticNetL1(0.1, 0.2)])
def test_nonzero_linear_term_refused(rng, loss, reg):
    M = SparseColMatrix.from_dense(rng.standard_normal((6, 10)))
    c = np.zeros(10)
    c[4] = 0.25
    smooth = SquaredResidual(rng.standard_normal(6)) if loss == "squared" \
        else Logistic()
    p = CompositeProblem(M, c, smooth, reg)
    with pytest.raises(ValueError, match="linear term c = 0"):
        duality_gap(p, random_state(p, rng))


@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic"])
def test_l1_solves_never_evaluate_the_gap(rng, monkeypatch, kind):
    """Unless asked to record it: then once per record at most."""
    calls = []
    gap = solver.duality_gap
    monkeypatch.setattr(solver, "duality_gap",
                        lambda p, s: calls.append(1) or gap(p, s))
    p = random_problem(kind, rng)
    for rule in RULES:
        trace = solve_l1(p, SolverConfig(rule=rule, tol=1e-6,
                                         max_iters=500))
        assert "gap" not in trace.columns
    assert calls == []
    records = 0
    for rule in RULES:
        trace = solve_l1(p, SolverConfig(rule=rule, tol=1e-6,
                                         max_iters=500, record_gap=True))
        assert len(trace.columns["gap"]) == trace.n_steps
        records += trace.n_steps
    assert 0 < len(calls) <= records


def test_svm_summary_gap_is_the_certificate(tmp_path, monkeypatch):
    """A "tol" stop on the SVM dual is the gap or the steepest score
    reaching tol, so the summary reports the gap itself."""
    traces = []
    solve = harness.solve_box
    monkeypatch.setattr(harness, "solve_box",
                        lambda p, c: traces.append(solve(p, c)) or traces[-1])
    lam = 0.05
    cfg = ExperimentConfig(
        problem="svm", data=SynthSpec(RandomSvm(300, 20), seed=0),
        runs=[RunSpec("gs-s"), RunSpec("gs-q", rule="gs-q"),
              RunSpec("uniform", rule="uniform"),
              RunSpec("line", use_line_search=True)],
        lam=lam, max_iters=100_000, tol=1e-5, out=str(tmp_path / "svm"))
    summary = run_experiment(cfg)
    A = certify.csc_of(fold_labels(gen_synthetic(cfg.data)))
    assert list(summary["runs"]) == ["gs-s", "gs-q", "uniform", "line"]
    for info, trace in zip(summary["runs"].values(), traces):
        assert info["status"] == "tol"
        _, gap = certify.svm_gap(A, lam, trace.final_state.alpha)
        assert info["gap"] == pytest.approx(gap, rel=1e-10)
    assert summary["f_lower"] <= summary["f_upper"]
