"""Independent slow oracles for the test suite: dense finite-difference
gradients, brute-force selection-rule scans driven by bounded scalar
minimization instead of the closed forms, and convergence-envelope checks.

Everything here recomputes from dense arrays on purpose; none of it shares
code with the fast paths it validates.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .objectives import (Box, DualSVM, ElasticNetL1, L1, Logistic,
                         SquaredResidual)
from .selection import Rule
from .solver import KINDS

__all__ = ["RateEnvelope", "fd_gradient", "brute_force_rule",
           "envelope_check", "dense_smooth_value"]


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
