"""Coordinate selection rules: steepest-subgradient, largest-step,
best-decrease, and uniform, plus the box active set and the measured
approximation ratio of a non-exact selection.

Every exact rule reads the state's maintained gradient when it keeps one.
The steepest L1 rule scores it in three passes against two offsets read
off alpha, which a solve keeps from move to move; GS-r and GS-q build
their score vectors in full each call. Ties break to the lowest coordinate
index everywhere.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

# full_grad stays importable from here: instrumentation wraps it by this name
from .objectives import Box, current_grad, full_grad, subgrad_score

__all__ = [
    "Rule", "SelectionOutcome", "ActiveSet", "l1_offsets",
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
    """Lowest index attaining max |values|; returns (index, max_abs). The
    caller's own array values is overwritten by |values|."""
    np.abs(values, out=values)
    j = int(np.argmax(values))  # argmax returns the first maximizer
    return j, float(values[j])


def l1_offsets(alpha, lam):
    """The steepest L1 score's offsets at alpha and a buffer for its
    scores: (shift, zero_lam, scores), where shift = sign(alpha) lam and
    zero_lam is lam where alpha_i = 0 and 0 elsewhere."""
    shift = np.sign(alpha) * lam
    zero_lam = np.where(alpha == 0.0, lam, 0.0)
    return shift, zero_lam, np.empty(len(alpha))


def select_gss_l1(p, s, grad=None, offsets=None):
    """argmax_i |s(alpha)_i| for L1-type problems, in three passes over g.

    Every entry scores |g_i + shift_i| - zero_lam_i, from the offsets of
    l1_offsets at s.alpha (made here when not given). Where alpha_i = 0
    that is |g_i| - lam, a positive one equal to |shrink(g_i, lam)|, and
    elsewhere |g_i + sign(alpha_i) lam|, which is |s(alpha)_i| itself; so
    a positive best has the first maximizer and the value of |s(alpha)|,
    bitwise. Otherwise (a zero score, which ends a solve, or a NaN) the
    score vector is built in full.
    """
    if p.reg.kind != "l1":
        raise TypeError("score vector needs an L1-type regularizer")
    if grad is None:
        grad = current_grad(p, s)
    if offsets is None:
        offsets = l1_offsets(s.alpha, p.reg.lam)
    shift, zero_lam, buf = offsets
    np.add(grad, shift, out=buf)
    np.abs(buf, out=buf)
    buf -= zero_lam
    j = int(buf.argmax())  # argmax returns the first maximizer
    m = float(buf[j])
    if not m > 0.0:
        j, m = _argmax_abs(subgrad_score(p, s, grad=grad))
    return SelectionOutcome(coord=j, score=m)


def select_gss_box(p, s, active=None, grad=None):
    """argmax over the active set of |grad_i|; None certifies optimality."""
    if not isinstance(p.reg, Box):
        raise TypeError("box selection needs a box-constrained problem")
    if grad is None:
        grad = current_grad(p, s)
    if active is None:
        active = ActiveSet.from_state(s.alpha, grad)
    # outside the active set a coordinate scores -1, so a negative best
    # means the set is empty
    masked = np.where(active.membership, np.abs(grad), -1.0)
    j = int(masked.argmax())
    if masked[j] < 0.0:
        return None
    return SelectionOutcome(coord=j, score=float(masked[j]))


def prox_step_lengths(p, s, grad=None):
    """Closed-form proximal step length gamma_j for every coordinate,
    prox(alpha - g / L) - alpha, built in one buffer."""
    if grad is None:
        grad = current_grad(p, s)
    L = p.smoothness
    x = grad / L
    np.subtract(s.alpha, x, out=x)
    gamma = p.reg.prox_vec(x, L, out=x)
    return np.subtract(gamma, s.alpha, out=gamma)


def select_gsr(p, s, grad=None):
    """argmax_j |gamma_j|, the coordinate admitting the largest prox step."""
    gamma = prox_step_lengths(p, s, grad=grad)
    j, m = _argmax_abs(gamma)
    return SelectionOutcome(coord=j, score=m)


def select_gsq(p, s, grad=None):
    """argmax_j |chi_j|, the coordinate with the best 1-d model decrease:
    chi = gamma g + L/2 gamma^2 plus the regularizer's change.

    Scored in place in two buffers, gamma and chi (the L1 kinds' change
    takes a third), by the same operations in the same order as the
    expression, so the scores are its bits.
    """
    if grad is None:
        grad = current_grad(p, s)
    gamma = prox_step_lengths(p, s, grad=grad)
    change = p.reg.change_vec(s.alpha, gamma)
    chi = gamma * grad
    np.square(gamma, out=gamma)
    chi += np.multiply(0.5 * p.smoothness, gamma, out=gamma)
    chi += change
    j, m = _argmax_abs(chi)
    return SelectionOutcome(coord=j, score=m)


def select_uniform(n, rng):
    if n < 1:
        raise ValueError("need at least one coordinate")
    return SelectionOutcome(coord=int(rng.integers(n)), score=0.0)


def measure_theta(chosen, p, s):
    """Ratio of the chosen coordinate's steepness score (the size of the
    regularizer's min-norm subgradient) to the exact max.

    Returns 1 by convention when the exact maximum is 0 (converged state).
    """
    sv = np.abs(p.reg.subgrad_vec(s.alpha, current_grad(p, s)))
    m = float(sv.max())
    return 1.0 if m == 0.0 else float(sv[chosen]) / m
