"""Slow references the fast paths are tested against: brute-force
selection-rule scans driven by bounded scalar minimization instead of the
closed forms, reference_solve, the slow solve every fast path is tested
against, and KEPT, the audit's one entry per quantity a solve's steps keep.

The scans recompute from dense arrays on purpose and share no code with
the fast paths they validate. reference_solve shares the step's parts whose
own tests pin them: apply_coord_delta (on a state that keeps no gradient
and no objective), coord_grad, line_search_1d, the regularizer's prox, the
step classifiers, selection.select_* and duality_gap. What the fast solve
keeps from step to step, it recomputes at every step instead: the residual
from alpha, the full gradient, every score, the box's active set, F and
the gap. KEPT makes each kept quantity from alpha the same way.

This module is test support, not a test file: pytest does not collect it.
"""

import time
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from greedycd.objectives import (Box, DualSVM, ElasticNetL1, IterateState,
                                 L1, Logistic, SquaredResidual,
                                 apply_coord_delta, coord_grad, duality_gap,
                                 full_grad, objective_value)
from greedycd.selection import (ActiveSet, Rule, select_gsq, select_gsr,
                                select_gss_box, select_gss_l1)
from greedycd.smips import build_box_mask, build_l1_mask
from greedycd.solver import (COLUMNS, KIND_CODE, KINDS, SCREEN_DRIFT_MULTIPLE,
                             SCREEN_MARGIN, UNIFORM_BLOCK, Trace, _make_engine,
                             classify_step_box, classify_step_l1,
                             line_search_1d)


def _dense_grad(p, alpha):
    """Analytic dense gradient, re-derived here rather than imported."""
    A = p.matrix.to_dense()
    v = A @ alpha
    if isinstance(p.loss, SquaredResidual):
        gl = v - p.loss.target
    elif isinstance(p.loss, DualSVM):
        gl = v / (p.loss.svm_lambda * p.n * p.n)
    elif isinstance(p.loss, Logistic):
        gl = -1.0 / (1.0 + np.exp(v))
    else:
        raise TypeError("unknown loss kind: %r" % (p.loss,))
    g = A.T @ gl + np.asarray(p.linear_term)
    if isinstance(p.reg, ElasticNetL1):
        g = g + p.reg.lam2 * alpha
    return g


def _search_bounds(p):
    """Wide symmetric bounds for 1-d scans; asserted non-binding by callers."""
    if isinstance(p.loss, SquaredResidual):
        scale = float(np.linalg.norm(p.loss.target))
    else:
        scale = 1.0
    return 10.0 * (scale + 1.0)


def _scan_min(fun, lo, hi):
    res = minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    # a kinked 1-d convex function can hide its minimum at the kink
    candidates = [(fun(0.0), 0.0), (res.fun, res.x)]
    return min(candidates)


def brute_force_rule(p, s, rule):
    """Exhaustive per-coordinate scan for the exact selection rules.

    Scores come from bounded scalar minimization of the 1-d models, not from
    the closed forms the fast path uses. Returns (coordinate, score).
    """
    if rule is Rule.UNIFORM:
        raise ValueError("the uniform rule has no deterministic argmax")
    alpha = np.asarray(s.alpha, dtype=np.float64)
    grad = _dense_grad(p, alpha)
    L = p.smoothness
    lam = p.l1_lambda if isinstance(p.reg, (L1, ElasticNetL1)) else 0.0
    R = _search_bounds(p)
    scores = np.empty(p.n)
    for j in range(p.n):
        g, a = float(grad[j]), float(alpha[j])
        if rule is Rule.GSS:
            if isinstance(p.reg, Box):
                # minimal-norm descent direction under the box
                if 0 < a < 1:
                    scores[j] = abs(g)
                elif a == 0:
                    scores[j] = abs(g) if g < 0 else 0.0
                else:
                    scores[j] = abs(g) if g > 0 else 0.0
            else:
                res = minimize_scalar(lambda t, g=g: abs(g + t),
                                      bounds=(-lam, lam), method="bounded",
                                      options={"xatol": 1e-12})
                sub = -lam if a < 0 else (lam if a > 0 else None)
                scores[j] = abs(g + sub) if sub is not None \
                    else min(res.fun, abs(g + lam), abs(g - lam))
        else:
            if isinstance(p.reg, Box):
                def model(t, g=g, a=a):
                    return g * t + 0.5 * L * t * t
                lo, hi = -a, 1.0 - a
            else:
                def model(t, g=g, a=a):
                    return g * t + 0.5 * L * t * t \
                        + lam * (abs(a + t) - abs(a))
                lo, hi = -R, R
            val, arg = _scan_min(model, lo, hi)
            if not isinstance(p.reg, Box):
                assert abs(arg) < R - 1e-6, "search bound binding at optimum"
            scores[j] = abs(arg) if rule is Rule.GSR else abs(val)
    j = int(np.argmax(scores))
    return j, float(scores[j])


def _fresh(p, alpha):
    """A state at alpha with its residual and nonzero count recomputed, and
    nothing kept."""
    return IterateState(alpha, p.matrix.matvec(alpha),
                        int(np.count_nonzero(alpha)))


def _screen_bound(p, f, s, kept):
    """lam less the uniform screen's margin at the fresh gradient and the
    solve's largest refresh drift: the kept bound right after a refresh."""
    lam = p.reg.lam
    margin = max(SCREEN_MARGIN * max(lam, float(np.abs(f.grad).max())),
                 SCREEN_DRIFT_MULTIPLE * s.max_grad_drift)
    return lam - margin


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) \
        == (want.dtype, want.shape, want.tobytes())


def _relative(tol):
    return lambda got, want: abs(got - want) <= tol * (1.0 + abs(want))


def _max_relative(tol):
    return lambda got, want: float(np.abs(got - want).max()) \
        <= tol * (1.0 + float(np.abs(want).max()))


class Kept(NamedTuple):
    """The audit's entry for one kept quantity: fresh(p, f, s, kept) makes
    it afresh, f being a state at s.alpha from _fresh with its gradient;
    close(kept, fresh) compares, bitwise by default; at_refresh marks one
    that only a refresh remakes, so compared only right after one."""
    fresh: Callable
    close: Callable = _same_bits
    at_refresh: bool = False


# kind -> name -> Kept, one per name the kind's kept() returns. The screen
# bound reads s's drift, abs_g s's kept g, and limits the kept bound.
_BOTH = dict(
    grad=Kept(lambda p, f, s, kept: f.grad, _max_relative(1e-9)),
    objective=Kept(lambda p, f, s, kept: objective_value(p, f),
                   _relative(1e-12)),
    residual=Kept(lambda p, f, s, kept: f.residual, _max_relative(1e-12)))
KEPT = {
    "l1": dict(
        _BOTH,
        shift=Kept(lambda p, f, s, kept: np.sign(f.alpha) * p.reg.lam),
        zero_lam=Kept(lambda p, f, s, kept: np.where(f.alpha == 0.0,
                                                     p.reg.lam, 0.0)),
        bound=Kept(_screen_bound, at_refresh=True),
        limits=Kept(lambda p, f, s, kept: np.where(
            f.alpha == 0.0, kept["bound"], -np.inf)),
        mask=Kept(lambda p, f, s, kept: build_l1_mask(f.alpha).included)),
    "box": dict(
        _BOTH,
        interior=Kept(lambda p, f, s, kept: (f.alpha > 0) & (f.alpha < 1)),
        sign=Kept(lambda p, f, s, kept: ((f.alpha == 1).astype(float)
                                         - (f.alpha == 0))),
        abs_g=Kept(lambda p, f, s, kept: np.abs(s.grad)),
        sums=Kept(lambda p, f, s, kept: [float(f.alpha @ f.grad),
                                         float(f.grad.sum())],
                  lambda got, want: all(map(_relative(1e-12), got, want))),
        gap=Kept(lambda p, f, s, kept: duality_gap(p, f),
                 lambda got, want: abs(got - want) <= 1e-12),
        mask=Kept(lambda p, f, s, kept: build_box_mask(f.alpha).included)),
}


def fresh_kept(p, s, names, kept):
    """name -> KEPT's fresh value at the solve's state s, for each of
    names; kept is what the solve's steps keep."""
    f = _fresh(p, s.alpha.copy())
    f.grad = full_grad(p, f)
    table = KEPT[p.reg.kind]
    return {name: table[name].fresh(p, f, s, kept) for name in names}


def reference_solve(p, cfg, start=None):
    """The trace of _solve(p, cfg, start), with every step recorded, from a
    loop that keeps nothing but alpha.

    Each step recomputes the residual, the full gradient and the rule's
    scores (through ActiveSet.from_state on the box), takes _solve's step
    and stop checks, and records F, recomputed, and the gap when
    cfg.record_gap. The exact L1 rules check every step, L1 uniform every
    n steps when tol > 0; the box checks every step, stops on an SVM
    dual's gap when tol > 0, and is optimal on an empty active set.
    Uniform draws come from _solve's stream: blocks of UNIFORM_BLOCK over
    all n on L1, one index into the active set on the box. It refuses the
    hashing engine, a selector and theta records.
    """
    cfg.validate()
    if _make_engine(p, cfg) is not None or cfg.selector is not None \
            or cfg.record_theta:
        raise ValueError("the reference solve takes no hashing engine, "
                         "selector or theta records")
    rule, tol, L = cfg.rule, cfg.tol, p.smoothness
    box, uniform = p.reg.kind == "box", rule is Rule.UNIFORM
    check_every = p.n if uniform and not box else 1
    checks = box or not uniform or tol > 0
    check_gap = box and p.loss.has_gap and tol > 0
    rng = np.random.default_rng(cfg.seed)
    s = _fresh(p, np.zeros(p.n) if start is None
               else np.array(start.alpha, dtype=np.float64))
    f0, rows, status = objective_value(p, s), [], "max_iters"
    t_last = time.perf_counter_ns()
    for t in range(cfg.max_iters):
        g = full_grad(p, s)
        if check_gap and duality_gap(p, s) <= tol:
            status = "tol"
            break
        active = ActiveSet.from_state(s.alpha, g) if box else None
        if checks and t % check_every == 0:
            out = select_gss_box(p, s, active, g) if box \
                else select_gss_l1(p, s, g)
            if out is None or out.score <= tol:
                status = "tol" if out else "optimal"
                break
        if rule is Rule.GSS:
            j = out.coord
        elif not uniform:
            j = (select_gsr if rule is Rule.GSR else select_gsq)(p, s, g).coord
        elif box:
            ids = active.membership.nonzero()[0]
            j = int(ids[rng.integers(len(ids))])
        else:
            if t % UNIFORM_BLOCK == 0:
                block = rng.integers(p.n, size=UNIFORM_BLOCK)
            j = int(block[t % UNIFORM_BLOCK])
        aj = float(s.alpha[j])
        raw = aj - coord_grad(p, s, j) / L
        new = line_search_1d(p, s, j) if cfg.use_line_search \
            else p.reg.prox(raw, L)
        kind = classify_step_box(aj, raw) if box \
            else classify_step_l1(aj, new)
        if not box and aj * new < 0.0:
            new = 0.0  # a sign change truncates at zero
        apply_coord_delta(p, s, j, new - aj)
        s = _fresh(p, s.alpha)
        row = (t, j, KIND_CODE[kind], objective_value(p, s), 1.0, False,
               time.perf_counter_ns() - t_last, s.nnz)
        t_last += row[6]  # the record's wall_ns
        rows.append(row + (duality_gap(p, s),) if cfg.record_gap else row)
    values = list(zip(*rows)) or [()] * (len(COLUMNS) - 1)
    columns = {name: np.array(v, COLUMNS[name])
               for name, v in zip(COLUMNS, values)}
    counts = np.bincount(columns["step_kind"], minlength=len(KINDS))
    return Trace(f_initial=f0, columns=columns,
                 counters=dict(zip(KINDS, counts.tolist())), final_state=s,
                 status=status, problem_kind=p.reg.kind)
