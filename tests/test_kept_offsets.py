"""The L1 steps' kept score offsets, against the values read off alpha.

- Under the audit fixture (conftest), which holds the kept shift and
  zero_lam bitwise against sign(alpha) lam and lam where alpha is 0 (0
  elsewhere) after every move, and the check against select_gss_l1 with no
  offsets at every check: for gs-s, gs-r, gs-q and uniform, with and
  without line search, on lasso, elastic net (lam is lam1) and
  L1-logistic, under the hashing engine, from a mid-solve state with
  signed zeros, past more than three refreshes, and through moves that
  truncate alpha_j to 0, flip its sign or start from -0.0.
- select_gss_l1 over the kept offsets must return the coordinate and score
  of the call that makes them afresh, and of argmax |subgrad_score|,
  bitwise: on random states with ties, signed zeros in alpha and g, a NaN
  in g (the full score fallback) and lam = 0.
"""

import struct

import numpy as np
import pytest

from conftest import l1_problem, random_problem
from greedycd import objectives, solver
from greedycd.objectives import (IterateState, make_elastic_net, make_lasso,
                                 subgrad_score)
from greedycd.selection import Rule, select_gss_l1
from greedycd.smips import HyperplaneLsh
from greedycd.solver import SolverConfig, solve_l1
from greedycd.sparse import SparseColMatrix

STEPS = 600


def _bits(x):
    return struct.pack("<d", x)


def checks_of(trace, every):
    """The checks a solve makes at one every `every` steps."""
    return -(-trace.n_steps // every) + (trace.status == "tol")


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSR, Rule.GSQ, Rule.UNIFORM])
@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic"])
def test_kept_offsets_fresh_in_a_solve(audit, kind, rule, line_search):
    p = l1_problem(kind, 1)
    trace = solve_l1(p, SolverConfig(rule=rule, use_line_search=line_search,
                                     max_iters=STEPS, tol=1e-14, seed=3))
    assert len(audit.moves) > 10
    # the exact rules check every step, uniform every n
    every = p.n if rule is Rule.UNIFORM else 1
    assert len(audit.checks) == checks_of(trace, every)


def test_kept_offsets_fresh_under_hashing_engine(audit, monkeypatch):
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", 100)
    p = l1_problem("lasso", 2)
    trace = solve_l1(p, SolverConfig(engine="smips",
                                     backend=HyperplaneLsh(3, 10, seed=0),
                                     max_iters=2 * STEPS, tol=1e-14))
    assert len(audit.checks) == checks_of(trace, p.n)
    # it keeps no gradient, so the residual's refreshes count its moves
    assert sum(aj != a for aj, a, _ in audit.moves) >= 300


@pytest.mark.parametrize("kind", ["lasso", "elasticnet"])
def test_kept_offsets_fresh_from_a_mid_solve_state(audit, kind):
    p = l1_problem(kind, 3)
    start = solve_l1(p, SolverConfig(rule=Rule.UNIFORM, max_iters=200,
                                     tol=0.0)).final_state
    zero = start.alpha == 0
    assert 0 < zero.sum() < p.n  # not from zero
    start.alpha[zero] = -0.0  # moves from -0.0
    audit.moves.clear()
    trace = solver._solve(p, SolverConfig(max_iters=STEPS, tol=1e-14),
                          start=start)
    assert trace.n_steps > 10
    assert any(aj == 0 and _bits(aj) == _bits(-0.0) and a != 0
               for aj, a, _ in audit.moves)


@pytest.mark.parametrize("rule", [Rule.GSS, Rule.UNIFORM])
def test_kept_offsets_fresh_past_refreshes(audit, monkeypatch, rule):
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", 100)
    p = l1_problem("lasso", 4)
    solve_l1(p, SolverConfig(rule=rule, max_iters=STEPS, tol=1e-14,
                             seed=5))
    assert audit.moves[-1][2] > 3  # past more than three refreshes
    assert audit.checks[-1] > 3
    # moves that truncated alpha_j to 0 were among them
    assert any(aj != 0 and a == 0 for aj, a, _ in audit.moves)


@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic"])
def test_kept_offsets_through_zeros_and_sign_flips(audit, kind):
    p = l1_problem(kind, 5)
    s = IterateState.zeros(p)
    s.alpha[[2, 5]] = -0.0
    steps = solver._steps_for(p, SolverConfig(), s)
    for j in (2, 5, 7):
        # from -0.0 or 0, a flip of sign, truncation to 0, and back
        for value in (0.75, -0.75, 0.0, -2.0**-1074, 2.0**-1074, 0.0):
            steps.move(p, s, j, float(s.alpha[j]), value)  # the move is ours
            assert s.alpha[j] == value
            steps.steepest(p, s)
    assert len(audit.moves) == len(audit.checks) == 18


def random_case(rng, n, lam, lam2):
    """An identity-matrix problem, a state whose alpha holds signed zeros,
    and its L1 steps."""
    eye = SparseColMatrix.from_dense(np.eye(n))
    p = make_lasso(eye, np.zeros(n), lam) if lam2 is None \
        else make_elastic_net(eye, np.zeros(n), lam, lam2)
    alpha = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0], n)
    s = IterateState(alpha=alpha, residual=alpha.copy(),
                     nnz=int(np.count_nonzero(alpha)))
    return p, s, solver._steps_for(p, SolverConfig(), s)


def random_grad(rng, n, lam, nan):
    """g with ties at 0, +-lam and +-2 lam, signed zeros and, on request,
    one NaN."""
    ties = [0.0, -0.0, lam, -lam, 2 * lam, -2 * lam, 1.0, -1.0]
    g = np.where(rng.random(n) < 0.7, rng.choice(ties, n),
                 rng.uniform(-3, 3, n))
    if nan:
        g[rng.integers(n)] = np.nan
    return g


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("lam2", [None, 0.1])
@pytest.mark.parametrize("lam", [0.0, 0.25, 1.0])
def test_select_over_kept_offsets_matches_the_score_argmax(audit, lam, lam2,
                                                           nan):
    rng = np.random.default_rng(int(lam * 4) + 7 * (lam2 is None) + 31 * nan)
    checked = 0
    for n in (1, 2, 5, 17, 40):
        p, s, steps = random_case(rng, n, lam, lam2)
        for _ in range(60):
            j = int(rng.integers(n))
            aj = float(s.alpha[j])
            new = rng.choice([0.0, -aj, 0.5, -1.5, 2.0**-1074])
            steps.move(p, s, j, aj, float(new))
            g = random_grad(rng, n, lam, nan)
            got = select_gss_l1(p, s, grad=g, offsets=steps.offsets)
            fresh = select_gss_l1(p, s, grad=g)
            scores = np.abs(subgrad_score(p, s, grad=g))
            k = int(np.argmax(scores))
            assert (got.coord, _bits(got.score)) == \
                (fresh.coord, _bits(fresh.score)) == (k, _bits(scores[k]))
            checked += 1
    assert checked == 300


def test_offsets_keep_lam1_on_elastic_net(rng):
    p = random_problem("elasticnet", rng, n=20, d=10, lam=0.05, lam2=0.7)
    s = IterateState.zeros(p)
    steps = solver._steps_for(p, SolverConfig(), s)
    steps.move(p, s, 3, 0.0, -0.4)
    shift, zero_lam, _ = steps.offsets
    assert shift[3] == -0.05 and zero_lam[3] == 0.0
    assert zero_lam[4] == 0.05
