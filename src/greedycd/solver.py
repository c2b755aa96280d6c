"""The two coordinate-descent loops: steepest descent on L1-regularized
problems with a sign-preserving post-processed update, and steepest descent
over the active set of box-constrained problems. Both classify every step
(good / bad / cross), record a full trace, and support exact rules, a custom
selector hook, and the inner-product-search engine with either backend.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import smips as sm
# full_grad stays importable from here: instrumentation wraps it by this name
from .objectives import (Box, DualSVM, ElasticNetL1, IterateState, L1,
                         Logistic, SquaredResidual, apply_coord_delta,
                         coord_grad, duality_gap, full_grad, grad_l,
                         objective_value, subgrad_score)
from .selection import (ActiveSet, Rule, SelectionOutcome, measure_theta,
                        select_gsq, select_gsr, select_uniform)
from .sparse import shrink

__all__ = [
    "SolverConfig", "StepRecord", "Trace", "SmipsEngine",
    "solve_l1", "solve_box", "classify_step_l1", "classify_step_box",
    "line_search_1d", "run_counters",
]

GOOD, BAD, CROSS = "good", "bad", "cross"


@dataclass
class SolverConfig:
    rule: Rule = Rule.GSS
    engine: object = "exact"        # "exact" | "smips" | prebuilt SmipsEngine
    backend: object = None          # smips backend when engine == "smips"
    beta: float = None              # augmentation scale; default 50/sqrt(n)
    use_line_search: bool = False
    max_iters: int = 1000
    tol: float = 1e-8
    seed: int = 0
    trace_every: int = 1
    selector: object = None         # callable (problem, state) -> coordinate
    record_theta: bool = False
    record_gap: bool = False        # per-step duality gap (SVM dual only)

    def validate(self):
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.trace_every < 1:
            raise ValueError("trace_every must be at least 1")


@dataclass(slots=True)  # no per-record __dict__: traces can be long
class StepRecord:
    iter: int
    coord: int
    step_kind: str
    f_value: float
    theta: float
    fell_back: bool
    wall_ns: int
    nnz: int = 0
    gap: float = None  # SVM duality gap, recorded on request only


@dataclass
class Trace:
    """A solve's recorded steps and outcome.

    Steps are recorded every cfg.trace_every iterations, and the last step
    taken is always recorded. counters holds the good/bad/cross step counts,
    LSH fallbacks, and, for loops that keep the full gradient current,
    grad_refreshes and max_grad_drift (the largest entrywise change a
    refresh made to the maintained gradient).
    """
    f_initial: float
    records: list
    counters: dict
    final_state: IterateState
    status: str          # "tol" | "optimal" | "max_iters"
    problem_kind: str    # "l1" | "box"

    @property
    def f_values(self):
        """Objective series including the starting point."""
        return np.array([self.f_initial] + [r.f_value for r in self.records])

    @property
    def n_steps(self):
        return len(self.records)


def classify_step_l1(alpha_i, alpha_plus):
    """Good when the update starts at zero or stays in its orthant."""
    if alpha_i == 0.0 or alpha_i * alpha_plus > 0.0:
        return GOOD
    return BAD


def classify_step_box(alpha_i, raw_target):
    """raw_target is the pre-clip update; boundary-to-boundary jumps Cross."""
    if 0.0 < raw_target < 1.0:
        return GOOD
    if 0.0 < alpha_i < 1.0:
        return BAD
    return CROSS


def _col_curvature(p, j):
    """Exact second derivative of the smooth part along coordinate j."""
    h = float(p.matrix.col_sq_norms[j])
    if isinstance(p.loss, DualSVM):
        h /= p.loss.svm_lambda * p.n * p.n
    if isinstance(p.reg, ElasticNetL1):
        h += p.reg.lam2
    return h


def line_search_1d(p, s, j):
    """Exact (or bisected) 1-d minimizer of F along coordinate j.

    Quadratic losses use the closed-form prox/clip step with the column's own
    curvature; logistic bisects its monotone 1-d subgradient.
    """
    if not 0 <= j < p.n:
        raise IndexError("coordinate %d out of range" % j)
    aj = float(s.alpha[j])
    if isinstance(p.loss, (SquaredResidual, DualSVM)):
        h = _col_curvature(p, j)
        g = coord_grad(p, s, j)
        if h == 0.0:
            if g == 0.0 or (isinstance(p.reg, (L1, ElasticNetL1))
                            and abs(g) <= p.l1_lambda):
                return aj
            raise ValueError("unbounded direction: zero column %d with "
                             "nonzero slope" % j)
        target = aj - g / h
        if isinstance(p.reg, (L1, ElasticNetL1)):
            return shrink(target, p.l1_lambda / h)
        if isinstance(p.reg, Box):
            return min(1.0, max(0.0, target))
        return target
    if isinstance(p.loss, Logistic):
        return _bisect_logistic(p, s, j)
    raise TypeError("unknown loss kind: %r" % (p.loss,))


def _bisect_logistic(p, s, j, tol=1e-10, max_iters=100):
    ridx, vals = p.matrix.col(j)
    if len(vals) == 0 and p.linear_term[j] == 0.0:
        return float(s.alpha[j])
    aj = float(s.alpha[j])
    vseg = s.residual[ridx]
    lam = p.l1_lambda if isinstance(p.reg, (L1, ElasticNetL1)) else 0.0

    def min_subgrad(x):
        z = vseg + (x - aj) * vals
        g = float(vals @ (-0.5 * (1.0 - np.tanh(z / 2.0)))) + p.linear_term[j]
        if x > 0:
            return g + lam
        if x < 0:
            return g - lam
        return shrink(g, lam)

    if min_subgrad(0.0) == 0.0:
        return 0.0
    # bracket the (monotone) subgradient's sign change around the iterate
    r = 1.0
    lo, hi = aj - r, aj + r
    for _ in range(200):
        if min_subgrad(lo) <= 0.0:
            break
        lo -= r
        r *= 2.0
    r = 1.0
    for _ in range(200):
        if min_subgrad(hi) >= 0.0:
            break
        hi += r
        r *= 2.0
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        g = min_subgrad(mid)
        if abs(g) <= tol:
            return mid
        if g > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class SmipsEngine:
    """Selection via subset inner-product search over augmented points.

    Implements the steepest-subgradient rule only; the candidate mask tracks
    the iterate's sign/feasibility cases and is repaired after every step.
    """

    def __init__(self, p, backend=None, beta=None):
        self.backend = backend if backend is not None else sm.Exact()
        self.beta = beta if beta is not None else 50.0 / math.sqrt(p.n)
        self.build_seconds = 0.0
        t0 = time.perf_counter()
        if isinstance(p.reg, L1):
            self.kind = "l1"
            self.points = sm.build_l1_points(p.matrix, p.linear_term, self.beta)
            self.mask = sm.build_l1_mask(np.zeros(p.n))
        elif isinstance(p.reg, Box):
            self.kind = "box"
            self.c_value = sm.require_uniform_linear_term(p.linear_term)
            self.points = sm.build_box_points(p.matrix, p.linear_term, self.beta)
            self.mask = sm.build_box_mask(np.zeros(p.n))
        else:
            raise TypeError("inner-product selection supports plain L1 and "
                            "box regularizers, not %r" % (p.reg,))
        if isinstance(self.backend, sm.HyperplaneLsh):
            self.backend.fit(self.points)
        self.build_seconds = time.perf_counter() - t0

    def reset_mask(self, alpha):
        if self.kind == "l1":
            self.mask = sm.build_l1_mask(alpha)
        else:
            self.mask = sm.build_box_mask(alpha)

    @property
    def is_exact(self):
        return isinstance(self.backend, sm.Exact)

    def select(self, p, s):
        gl = grad_l(p, s)
        if self.kind == "l1":
            q = sm.build_l1_query(gl, p.l1_lambda, self.beta)
        else:
            q = sm.build_box_query(gl, self.c_value, self.beta)
        pid, val, fb = sm.smips_query(self.points, q, self.mask, self.backend)
        j, _ = sm.point_to_coordinate(self.points, pid)
        return SelectionOutcome(coord=j, score=val, fell_back=fb)

    def note_step(self, j, new_val):
        sm.update_mask_after_step(self.mask, j, None, new_val)


def _make_engine(p, cfg):
    if isinstance(cfg.engine, SmipsEngine):
        return cfg.engine
    if cfg.engine == "smips":
        return SmipsEngine(p, backend=cfg.backend, beta=cfg.beta)
    if cfg.engine == "exact":
        return None
    raise ValueError("engine must be 'exact', 'smips', or a prebuilt engine")


def _finish(trace_kind, f0, records, counters, s, status):
    counters["grad_refreshes"] = s.grad_refreshes
    counters["max_grad_drift"] = s.max_grad_drift
    s.untrack_gradient()  # a trace keeps its final state, not the caches
    return Trace(f_initial=f0, records=records, counters=counters,
                 final_state=s, status=status, problem_kind=trace_kind)


def solve_l1(p, cfg):
    """Steepest coordinate descent for L1-regularized composites from alpha=0.

    Each step takes the prox step (or exact line search), classifies it
    against the pre-truncation value, and truncates sign-crossing updates
    to zero. Stops when the steepest-subgradient norm reaches cfg.tol.
    """
    if not isinstance(p.reg, (L1, ElasticNetL1)):
        raise TypeError("solve_l1 needs an L1-type regularizer")
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    engine = _make_engine(p, cfg)
    s = IterateState.zeros(p)
    if engine is not None:
        engine.reset_mask(s.alpha)
    f_cur = objective_value(p, s)
    f0 = f_cur
    L = p.smoothness
    records = []
    pending = None  # the last step, while it is not recorded
    counters = {GOOD: 0, BAD: 0, CROSS: 0, "fallback": 0}
    # cheap rules can't afford an exact score evaluation every iteration
    check_every = 1
    if cfg.rule is Rule.UNIFORM or (engine is not None and not engine.is_exact):
        check_every = max(1, p.n)
    if engine is None and check_every == 1:
        # the stop check and the exact rules read every score every step
        s.track_gradient(p)
    status = "max_iters"

    for t in range(cfg.max_iters):
        t0 = time.perf_counter_ns()
        fell_back = False
        theta = 1.0

        if engine is not None:
            out = engine.select(p, s)
            fell_back = out.fell_back
            if engine.is_exact and out.score <= cfg.tol:
                status = "tol"
                break
            if not engine.is_exact and cfg.tol > 0 and t % check_every == 0:
                if np.abs(subgrad_score(p, s)).max() <= cfg.tol:
                    status = "tol"
                    break
            j = out.coord
        else:
            sv = None
            if cfg.tol > 0 and t % check_every == 0:
                sv = subgrad_score(p, s)
                if np.abs(sv).max() <= cfg.tol:
                    status = "tol"
                    break
            if cfg.selector is not None:
                j = int(cfg.selector(p, s))
            elif cfg.rule is Rule.GSS:
                if sv is None:
                    sv = subgrad_score(p, s)
                j = int(np.argmax(np.abs(sv)))
            elif cfg.rule is Rule.GSR:
                j = select_gsr(p, s).coord
            elif cfg.rule is Rule.GSQ:
                j = select_gsq(p, s).coord
            elif cfg.rule is Rule.UNIFORM:
                j = select_uniform(p.n, rng).coord
            else:
                raise ValueError("unknown rule: %r" % (cfg.rule,))

        if cfg.record_theta:
            theta = measure_theta(j, p, s)

        aj = float(s.alpha[j])
        if cfg.use_line_search:
            a_plus = line_search_1d(p, s, j)
        else:
            g = coord_grad(p, s, j)
            a_plus = shrink(aj - g / L, p.l1_lambda / L)
        kind = classify_step_l1(aj, a_plus)
        new = a_plus if aj * a_plus >= 0.0 else 0.0
        apply_coord_delta(p, s, j, new - aj)
        if engine is not None:
            engine.note_step(j, new)

        counters[kind] += 1
        counters["fallback"] += int(fell_back)
        f_cur = objective_value(p, s)
        pending = StepRecord(iter=t, coord=j, step_kind=kind, f_value=f_cur,
                             theta=theta, fell_back=fell_back,
                             wall_ns=time.perf_counter_ns() - t0, nnz=s.nnz)
        if t % cfg.trace_every == 0:
            records.append(pending)
            pending = None
    if pending is not None:
        records.append(pending)
    return _finish("l1", f0, records, counters, s, status)


def solve_box(p, cfg):
    """Steepest coordinate descent over the active set of a unit-box problem.

    An empty active set certifies optimality. Updates clip the gradient step
    to [0, 1]; classification uses the pre-clip target. SVM-dual problems
    additionally stop once the duality gap reaches cfg.tol.
    """
    if not isinstance(p.reg, Box):
        raise TypeError("solve_box needs a box regularizer")
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    engine = _make_engine(p, cfg)
    s = IterateState.zeros(p)
    if engine is not None:
        engine.reset_mask(s.alpha)
    # the active set and the SVM gap read every gradient entry every step
    s.track_gradient(p)
    f0 = objective_value(p, s)
    L = p.smoothness
    records = []
    pending = None  # the last step, while it is not recorded
    counters = {GOOD: 0, BAD: 0, CROSS: 0, "fallback": 0}
    check_gap = isinstance(p.loss, DualSVM) and cfg.tol > 0
    status = "max_iters"

    def record(rec):
        if cfg.record_gap and isinstance(p.loss, DualSVM):
            rec.gap = duality_gap(p, s)
        records.append(rec)

    for t in range(cfg.max_iters):
        t0 = time.perf_counter_ns()
        fell_back = False
        theta = 1.0

        if check_gap and duality_gap(p, s) <= cfg.tol:
            status = "tol"
            break

        if engine is not None:
            out = engine.select(p, s)
            fell_back = out.fell_back
            if engine.is_exact and out.score <= cfg.tol:
                status = "optimal" if out.score <= 0.0 else "tol"
                break
            if not engine.is_exact and t % max(1, p.n) == 0:
                grad = s.grad
                active = ActiveSet.from_state(s.alpha, grad)
                if active.empty:
                    status = "optimal"
                    break
                if np.abs(grad[active.membership]).max() <= cfg.tol:
                    status = "tol"
                    break
            j = out.coord
        else:
            grad = s.grad
            active = ActiveSet.from_state(s.alpha, grad)
            if active.empty:
                status = "optimal"
                break
            masked = np.where(active.membership, np.abs(grad), -1.0)
            if masked.max() <= cfg.tol:
                status = "tol"
                break
            if cfg.selector is not None:
                j = int(cfg.selector(p, s))
            elif cfg.rule is Rule.GSS:
                j = int(np.argmax(masked))
            elif cfg.rule is Rule.GSR:
                j = select_gsr(p, s, grad=grad).coord
            elif cfg.rule is Rule.GSQ:
                j = select_gsq(p, s, grad=grad).coord
            elif cfg.rule is Rule.UNIFORM:
                ids = np.nonzero(active.membership)[0]
                j = int(ids[rng.integers(len(ids))])
            else:
                raise ValueError("unknown rule: %r" % (cfg.rule,))

        if cfg.record_theta:
            theta = measure_theta(j, p, s)

        aj = float(s.alpha[j])
        g = coord_grad(p, s, j)
        raw = aj - g / L
        kind = classify_step_box(aj, raw)
        if cfg.use_line_search:
            new = line_search_1d(p, s, j)
        else:
            new = min(1.0, max(0.0, raw))
        apply_coord_delta(p, s, j, new - aj)
        if engine is not None:
            engine.note_step(j, new)

        counters[kind] += 1
        counters["fallback"] += int(fell_back)
        f_cur = objective_value(p, s)
        pending = StepRecord(iter=t, coord=j, step_kind=kind, f_value=f_cur,
                             theta=theta, fell_back=fell_back,
                             wall_ns=time.perf_counter_ns() - t0, nnz=s.nnz)
        if t % cfg.trace_every == 0:
            record(pending)
            pending = None
    if pending is not None:
        # nothing moved the iterate since this step, so its gap is current
        record(pending)
    return _finish("box", f0, records, counters, s, status)


def run_counters(trace):
    """Counting-lemma summary: raises if a lemma the trace must satisfy fails.

    L1 runs must have at least ceil(t/2) good steps; box runs at most
    floor(t/2) bad steps.
    """
    c = trace.counters
    t = c[GOOD] + c[BAD] + c[CROSS]
    if t == 0:
        raise ValueError("empty trace")
    summary = dict(c)
    summary["total"] = t
    if trace.problem_kind == "l1":
        if c[GOOD] < math.ceil(t / 2):
            raise RuntimeError(
                "good-step lemma violated: %d good of %d" % (c[GOOD], t))
    else:
        if c[BAD] > t // 2:
            raise RuntimeError(
                "bad-step lemma violated: %d bad of %d" % (c[BAD], t))
    return summary
