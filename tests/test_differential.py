"""The fast solve against oracles.reference_solve, which keeps nothing but
alpha and recomputes the residual, the gradient, every score, F and the gap
at every step.

One parametrized test runs _solve and reference_solve on lasso, elastic
net, L1-logistic and the SVM dual, each on a matrix that stores every entry
(so its transposed products and Gram columns take BLAS through the dense
view), on a dense one with a few entries missing (so they take scipy) and
on a sparse one whose columns touch under GATHER_MAX_ROW_FRACTION of the
rows (so Gram columns gather and the logistic gradient moves by row
plans), under every rule with and without line search, and from a
mid-solve state on lasso and the SVM. RESIDUAL_REFRESH_EVERY is lowered so
that every run passes at least three refreshes of the kept gradient. The
lasso's weight puts many uniform draws near the screen's bound; the
elastic net's smaller one has gs-r and gs-q part from gs-s where a step
changes sign.

Every run, the mid-solve start's included, takes the audit fixture, so
what the steps keep is held against fresh values after every move and the
steepest check against the one made afresh at every check.

Up to the first step at which the reference's steepest score is at
round-off, 1e-9 (1 + max |g|), both must take the same coordinate and step
kind at every record and record the same F to 1e-12 (1 + |F|), and the SVM
the same gap to 1e-12. Over the whole run: the same final F to 1e-10
relative, a kept-gradient drift at that round-off, a kept-F drift within
1e-12 (1 + |F|), and the same status where both stop before max_iters.
"""

import itertools

import numpy as np
import pytest

from conftest import random_matrix, svm_problem
from greedycd import objectives, oracles
from greedycd.objectives import make_elastic_net, make_lasso, make_logistic
from greedycd.oracles import reference_solve
from greedycd.selection import Rule
from greedycd.solver import SolverConfig, _solve


LAYOUTS = {"full": (40, 1.0), "dense": (40, 0.7), "sparse": (400, 0.03)}


def problem(kind, layout):
    """A problem of the kind on a matrix that stores every entry, on a
    dense one, or on a sparse one whose columns touch about 3% of the
    rows."""
    d, density = LAYOUTS[layout]
    if kind == "svm":
        return svm_problem(0, d=d // 2, density=density)
    rng = np.random.default_rng(0)
    M = random_matrix(rng, d, 60, density=density)
    if kind == "logistic":
        return make_logistic(M, 0.01)
    b = rng.standard_normal(d)
    # the least L1 weight at which alpha = 0 is optimal
    lam_max = float(np.abs(M.matvec_T(b)).max())
    if kind == "lasso":
        return make_lasso(M, b, 0.3 * lam_max)
    return make_elastic_net(M, b, 0.05 * lam_max, 0.1)


CASES = [pytest.param(layout, kind, rule, ls, False,
                      id="-".join([layout, kind, rule.value] + ["ls"] * ls))
         for layout, kind, rule, ls in itertools.product(
             list(LAYOUTS), ["lasso", "elasticnet", "logistic", "svm"],
             list(Rule), [False, True])]
CASES += [pytest.param("dense", kind, Rule.GSS, False, True,
                       id="dense-%s-gs-s-mid" % kind)
          for kind in ("lasso", "svm")]


@pytest.mark.parametrize("layout,kind,rule,line_search,mid", CASES)
def test_solve_matches_reference(audit, monkeypatch, layout, kind, rule,
                                 line_search, mid):
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", 40)
    p = problem(kind, layout)
    assert (p.matrix._dense_T is not None) == (layout == "full")
    start = None
    if mid:
        start = _solve(p, SolverConfig(rule=Rule.UNIFORM, max_iters=300,
                                       tol=0.0)).final_state
    cfg = SolverConfig(rule=rule, use_line_search=line_search,
                       max_iters=600, tol=1e-6 if mid else 0.0, seed=1,
                       record_gap=kind == "svm")
    fast = _solve(p, cfg, start=start)

    # per reference step: whether its steepest score is above round-off
    live = []

    def scoring(p, s):
        g = objectives.full_grad(p, s)
        top = float(np.abs(p.reg.subgrad_vec(s.alpha, g)).max())
        live.append(top > 1e-9 * (1.0 + float(np.abs(g).max())))
        return g

    monkeypatch.setattr(oracles, "full_grad", scoring)
    ref = reference_solve(p, cfg, start=start)
    assert fast.counters["grad_refreshes"] >= 3
    assert audit.moves[-1][2] == fast.counters["grad_refreshes"]

    upto = live.index(False) if False in live else len(live)
    got, want = fast.columns, ref.columns
    for name in ("coord", "step_kind"):
        np.testing.assert_array_equal(got[name][:upto], want[name][:upto])
    f = want["f_value"][:upto]
    assert np.all(np.abs(got["f_value"][:upto] - f) <= 1e-12 * (1 + abs(f)))
    if cfg.record_gap:
        assert np.all(np.abs(got["gap"][:upto] - want["gap"][:upto])
                      <= 1e-12)

    f_ref = ref.f_values[-1]
    assert abs(fast.f_values[-1] - f_ref) <= 1e-10 * max(1.0, abs(f_ref))
    g = objectives.full_grad(p, ref.final_state)
    assert fast.counters["max_grad_drift"] <= \
        1e-9 * (1.0 + float(np.abs(g).max()))
    assert fast.counters["max_f_drift"] <= 1e-12 * (1.0 + abs(f_ref))
    if "max_iters" not in (fast.status, ref.status):
        assert fast.status == ref.status
