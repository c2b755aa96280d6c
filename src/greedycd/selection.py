"""Coordinate selection rules: steepest-subgradient, largest-step,
best-decrease, and uniform, plus the box active set and the measured
approximation ratio of a non-exact selection.

All exact rules recompute the needed score vectors each call, from the
state's maintained gradient when it keeps one; ties break to the lowest
coordinate index everywhere.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

# full_grad stays importable from here: instrumentation wraps it by this name
from .objectives import (Box, ElasticNetL1, L1, current_grad, full_grad,
                         subgrad_score)

__all__ = [
    "Rule", "SelectionOutcome", "ActiveSet",
    "select_gss_l1", "select_gss_box", "select_gsr", "select_gsq",
    "select_uniform", "measure_theta", "prox_step_lengths",
]


class Rule(Enum):
    GSS = "gs-s"
    GSR = "gs-r"
    GSQ = "gs-q"
    UNIFORM = "uniform"


@dataclass
class SelectionOutcome:
    coord: int
    score: float
    theta: float = 1.0
    fell_back: bool = False


@dataclass
class ActiveSet:
    """Coordinates with a feasible descent direction under the unit box."""
    membership: np.ndarray  # bool per coordinate

    @classmethod
    def from_state(cls, alpha, grad):
        interior = (alpha > 0) & (alpha < 1)
        at_lo = (alpha == 0) & (grad < 0)
        at_hi = (alpha == 1) & (grad > 0)
        return cls(membership=interior | at_lo | at_hi)

    @property
    def empty(self):
        return not self.membership.any()


def _argmax_abs(values):
    """Lowest index attaining max |values|; returns (index, max_abs)."""
    a = np.abs(values)
    j = int(np.argmax(a))  # argmax returns the first maximizer
    return j, float(a[j])


def select_gss_l1(p, s, grad=None):
    """argmax_i |s(alpha)_i| for L1-type problems."""
    sv = subgrad_score(p, s, grad=grad)
    j, m = _argmax_abs(sv)
    return SelectionOutcome(coord=j, score=m)


def select_gss_box(p, s, active=None, grad=None):
    """argmax over the active set of |grad_i|; None certifies optimality."""
    if not isinstance(p.reg, Box):
        raise TypeError("box selection needs a box-constrained problem")
    if grad is None:
        grad = current_grad(p, s)
    if active is None:
        active = ActiveSet.from_state(s.alpha, grad)
    if active.empty:
        return None
    masked = np.where(active.membership, np.abs(grad), -1.0)
    j = int(np.argmax(masked))
    return SelectionOutcome(coord=j, score=float(masked[j]))


def prox_step_lengths(p, s, grad=None):
    """Closed-form proximal step length gamma_j for every coordinate."""
    if grad is None:
        grad = current_grad(p, s)
    L = p.smoothness
    target = s.alpha - grad / L
    if isinstance(p.reg, (L1, ElasticNetL1)):
        lam = p.l1_lambda
        stepped = np.sign(target) * np.maximum(np.abs(target) - lam / L, 0.0)
        return stepped - s.alpha
    if isinstance(p.reg, Box):
        return np.clip(target, 0.0, 1.0) - s.alpha
    raise TypeError("step lengths need an L1 or box regularizer")


def select_gsr(p, s, grad=None):
    """argmax_j |gamma_j|, the coordinate admitting the largest prox step."""
    gamma = prox_step_lengths(p, s, grad=grad)
    j, m = _argmax_abs(gamma)
    return SelectionOutcome(coord=j, score=m)


def select_gsq(p, s, grad=None):
    """argmax_j |chi_j|, the coordinate with the best 1-d model decrease."""
    if grad is None:
        grad = current_grad(p, s)
    gamma = prox_step_lengths(p, s, grad=grad)
    L = p.smoothness
    chi = gamma * grad + 0.5 * L * gamma**2
    if isinstance(p.reg, (L1, ElasticNetL1)):
        lam = p.l1_lambda
        chi = chi + lam * (np.abs(s.alpha + gamma) - np.abs(s.alpha))
    j, m = _argmax_abs(chi)
    return SelectionOutcome(coord=j, score=m)


def select_uniform(n, rng):
    if n < 1:
        raise ValueError("need at least one coordinate")
    return SelectionOutcome(coord=int(rng.integers(n)), score=0.0, theta=1.0)


def measure_theta(chosen, p, s):
    """Ratio of the chosen coordinate's steepness score to the exact max.

    Returns 1 by convention when the exact maximum is 0 (converged state).
    """
    if isinstance(p.reg, (L1, ElasticNetL1)):
        sv = np.abs(subgrad_score(p, s))
        m = float(sv.max())
        return 1.0 if m == 0.0 else float(sv[chosen]) / m
    if isinstance(p.reg, Box):
        grad = current_grad(p, s)
        active = ActiveSet.from_state(s.alpha, grad)
        if active.empty:
            return 1.0
        m = float(np.abs(grad[active.membership]).max())
        if m == 0.0:
            return 1.0
        own = abs(float(grad[chosen])) if active.membership[chosen] else 0.0
        return own / m
    raise TypeError("theta measurement needs an L1 or box regularizer")
