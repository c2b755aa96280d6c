"""Independent slow oracles for the acceptance suite: dense
finite-difference gradients and convergence-envelope checks.

They recompute from dense arrays on purpose and share no code with the
fast paths they validate.
"""

from dataclasses import dataclass

import numpy as np

from .objectives import DualSVM, ElasticNetL1, Logistic, SquaredResidual
from .solver import KINDS

__all__ = ["RateEnvelope", "dense_smooth_value", "fd_gradient",
           "envelope_check"]


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
