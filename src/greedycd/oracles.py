"""Independent slow oracles for the test suite: dense finite-difference
gradients, brute-force selection-rule scans driven by bounded scalar
minimization instead of the closed forms, convergence-envelope checks, and
reference_solve, the slow solve every fast path is tested against.

The gradients, scans and envelopes recompute from dense arrays on purpose
and share no code with the fast paths they validate. reference_solve
shares the step's parts whose own tests pin them: apply_coord_delta (on a
state that keeps no gradient and no objective), coord_grad, line_search_1d,
the regularizer's prox, the step classifiers, selection.select_* and
duality_gap. What the fast solve keeps from step to step, it recomputes at
every step instead: the residual from alpha, the full gradient, every
score, the box's active set, F and the gap.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .objectives import (Box, DualSVM, ElasticNetL1, IterateState, L1,
                         Logistic, SquaredResidual, apply_coord_delta,
                         coord_grad, duality_gap, full_grad, objective_value)
from .selection import (ActiveSet, Rule, select_gsq, select_gsr,
                        select_gss_box, select_gss_l1)
from .solver import (COLUMNS, KIND_CODE, KINDS, UNIFORM_BLOCK, Trace,
                     _make_engine, classify_step_box, classify_step_l1,
                     line_search_1d)

__all__ = ["RateEnvelope", "fd_gradient", "brute_force_rule",
           "envelope_check", "dense_smooth_value", "reference_solve"]


@dataclass(frozen=True)
class RateEnvelope:
    mu1: float
    L: float
    f_star: float
    theta: float = 1.0

    def __post_init__(self):
        if not 0 < self.mu1 <= self.L:
            raise ValueError("need 0 < mu1 <= L")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")


def dense_smooth_value(p, alpha):
    """Smooth part of the objective, recomputed densely from scratch."""
    A = p.matrix.to_dense()
    v = A @ alpha
    if isinstance(p.loss, SquaredResidual):
        r = v - p.loss.target
        out = 0.5 * float(r @ r)
    elif isinstance(p.loss, DualSVM):
        n = p.n
        out = float(v @ v) / (2.0 * p.loss.svm_lambda * n * n)
    elif isinstance(p.loss, Logistic):
        out = float(np.sum(np.log1p(np.exp(-np.abs(v))) + np.maximum(-v, 0.0)))
    else:
        raise TypeError("unknown loss kind: %r" % (p.loss,))
    out += float(np.asarray(p.linear_term) @ alpha)
    if isinstance(p.reg, ElasticNetL1):
        out += 0.5 * p.reg.lam2 * float(alpha @ alpha)
    return out


def fd_gradient(p, s, h=1e-6):
    """Central differences of the smooth part, coordinate by coordinate."""
    if h <= 0:
        raise ValueError("step must be positive")
    base = np.asarray(s.alpha, dtype=np.float64)
    out = np.empty(p.n)
    for j in range(p.n):
        hi = base.copy()
        lo = base.copy()
        hi[j] += h
        lo[j] -= h
        out[j] = (dense_smooth_value(p, hi) - dense_smooth_value(p, lo)) / (2 * h)
    return out


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


def envelope_check(trace, env, kind):
    """Validate a trace against a convergence envelope.

    kind "linear_l1": suboptimality after t steps must stay below
    (1 - theta^2 mu1/L)^ceil(t/2) times the initial suboptimality; t is
    read off each record, so a thinned trace is checked at its own steps.
    kind "per_step_box": per-step contraction by step kind (good steps
    contract by 1 - theta^2 mu1/L, cross steps by 1 - theta/(2n), bad
    steps may not increase); it needs every step recorded and raises
    ValueError on a thinned trace. Returns (passed, worst_margin) with
    margin defined as suboptimality minus its allowed bound (max over steps).
    """
    f_vals = trace.f_values
    if env.f_star > f_vals.min() + 1e-9:
        raise ValueError("stale f_star: above the best recorded value")
    slack = 1.0 + 1e-9
    sub = f_vals - env.f_star
    rate = 1.0 - env.theta**2 * env.mu1 / env.L
    iters = trace.columns["iter"]
    if kind == "linear_l1":
        t = np.concatenate(([0], iters + 1))
        bound = rate ** np.ceil(t / 2.0) * sub[0] * slack
        margins = sub - bound
        return bool(np.all(margins <= 0)), float(margins.max())
    if kind == "per_step_box":
        if np.any(iters != np.arange(len(iters))):
            raise ValueError("per-step envelope needs consecutive steps; "
                             "the trace is thinned")
        steps = np.array(KINDS)[trace.columns["step_kind"]]
        n = len(trace.final_state.alpha)
        factor = np.where(steps == "good", rate, np.where(
            steps == "cross", 1.0 - env.theta / (2.0 * n), 1.0))
        bound = factor * sub[:-1] * slack
        return bool(np.all(sub[1:] <= bound)), \
            float(np.max(sub[1:] - bound, initial=-np.inf))
    raise ValueError("unknown envelope kind: %r" % (kind,))


def _fresh(p, alpha):
    """A state at alpha with its residual and nonzero count recomputed, and
    nothing kept."""
    return IterateState(alpha, p.matrix.matvec(alpha),
                        int(np.count_nonzero(alpha)))


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
