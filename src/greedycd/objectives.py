"""Composite objectives F(alpha) = l(A alpha) + c^T alpha + sum_i g_i(alpha_i).

A problem pairs a loss (squared residual, the negated SVM dual, logistic)
with a regularizer (L1, elastic net, the unit box); any pairing works, and
callers read these objects, never their types. The elastic net's
lam2/2 ||alpha||^2 counts as smooth for every loss: a regularizer's lam2
(0 unless elastic net) enters L, the gradients and F here. The iterate
carries the residual v = A alpha so coordinate gradients cost O(nnz(A_j)),
and, on request, the full gradient and the objective value, updated after
each step instead of recomputed. A move queues its residual change, which
the next read of the residual applies.
"""

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

# col_dot and col_axpy stay importable from here: instrumentation wraps
# them by these names
from .sparse import col_axpy, col_dot, shrink

__all__ = [
    "SquaredResidual", "DualSVM", "Logistic", "L1", "Box", "ElasticNetL1",
    "CompositeProblem", "IterateState", "grad_l", "coord_grad", "full_grad",
    "current_grad", "subgrad_score", "objective_value", "apply_coord_delta",
    "duality_gap", "make_lasso", "make_svm_dual", "make_logistic",
    "make_elastic_net",
]

RESIDUAL_REFRESH_EVERY = 1000  # full recompute cadence, bounds fp drift


class _QuadraticLoss:
    """A loss with nabla^2 l = I / scale: a coordinate move changes l by an
    exact quadratic and the gradient by a Gram column, and the 1-d minimizer
    is the regularizer's prox at the column's own curvature."""

    # whether the box's duality gap is defined, so the box loop stops on it
    has_gap = False
    # a kept gradient gives the step its g_j: a move reads nabla l on
    # supp(A_j) nowhere, only <A_j, nabla l(v)>, which g_j gives too
    reads_kept_grad = True

    def change(self, p, s, j, delta, read):
        """l(v + delta A_j) - l(v) from the column read at v: delta times
        <A_j, nabla l(v)> plus the exact quadratic term."""
        return delta * read[4] + 0.5 * (1.0 / p.loss_scale) * delta * delta \
            * p.matrix.col_sq_norms.item(j)

    def update_grad(self, p, s, delta, read):
        """Move the kept gradient after the residual moved by delta * A_j:
        by delta / scale times the Gram column A^T A_j."""
        s.grad += (delta * (1.0 / p.loss_scale)) \
            * p.matrix.gram_column(read[0])

    def line_search(self, p, s, j):
        aj = s.alpha.item(j)
        reg = p.reg
        h = p.matrix.col_sq_norms.item(j) / p.loss_scale + reg.lam2
        g = coord_grad(p, s, j)
        if h == 0.0:
            if abs(g) <= reg.lam:
                return aj
            # F is linear along j: the minimizer is the domain's bound the
            # descent direction points to, if it has one
            bound = reg.lower if g > 0.0 else reg.upper
            if math.isinf(bound):
                raise ValueError("unbounded direction: zero column %d with "
                                 "nonzero slope" % j)
            return bound
        return reg.prox(aj - g / h, h)


@dataclass(frozen=True)
class SquaredResidual(_QuadraticLoss):
    """l(v) = 0.5 * ||v - target||^2."""
    target: np.ndarray

    def __post_init__(self):
        # the gradient on supp(A_j) indexes the target by row ids
        object.__setattr__(self, "target",
                           np.asarray(self.target, dtype=np.float64))

    def check(self, M):
        if len(self.target) != M.n_rows:
            raise ValueError("squared-residual target length must equal "
                             "n_rows")
        bad = np.flatnonzero(~np.isfinite(self.target))
        if len(bad):
            raise ValueError("squared-residual target entry %d is %r, not "
                             "finite" % (bad[0], float(self.target[bad[0]])))

    def value(self, p, v):
        r = v - self.target
        return 0.5 * float(r @ r)

    def grad(self, p, v, rows=None):
        return v - (self.target if rows is None else self.target[rows])

    def conjugate(self, p, theta):
        """l*(theta) = 0.5 ||theta||^2 + <theta, target>."""
        return 0.5 * float(theta @ theta) + float(theta @ self.target)

    def scale(self, p):
        return 1.0


@dataclass(frozen=True)
class DualSVM(_QuadraticLoss):
    """l(v) = ||v||^2 / (2 * svm_lambda * n^2); pairs with c = -(1/n) 1."""
    svm_lambda: float
    has_gap = True

    def check(self, M):
        if not 0 < self.svm_lambda < math.inf:
            raise ValueError("svm_lambda must be positive and finite, got %r"
                             % (self.svm_lambda,))

    def value(self, p, v):
        return float(v @ v) / (2.0 * p.loss_scale)

    def grad(self, p, v, rows=None):
        return v / p.loss_scale

    def conjugate(self, p, theta):
        """l*(theta) = scale/2 ||theta||^2."""
        return 0.5 * p.loss_scale * float(theta @ theta)

    def scale(self, p):
        return self.svm_lambda * p.n * p.n


@dataclass(frozen=True)
class Logistic:
    """l(v) = sum_i log(1 + exp(-v_i)), labels folded into the columns; the
    gradient moves by a row product over supp(A_j), and the 1-d minimizer
    is bisected."""
    has_gap = False  # as on _QuadraticLoss
    # change and update_grad read nabla l on supp(A_j), so a step reads the
    # column even where the gradient is kept
    reads_kept_grad = False

    def check(self, M):
        pass

    def value(self, p, v):
        return float(np.sum(np.logaddexp(0.0, -v)))

    def grad(self, p, v, rows=None):
        # d/dz log(1+exp(-z)) = -1/(1+exp(z)), computed stably
        return -0.5 * (1.0 - np.tanh(v / 2.0))

    def conjugate(self, p, theta):
        """l*(theta) on its domain [-1, 0]^d, where the gradient and its
        rescalings lie: the summed u log u + (1-u) log(1-u) at u = -theta,
        with 0 log 0 = 0."""
        u = -theta
        u = u[(u > 0.0) & (u < 1.0)]
        return float((u * np.log(u) + (1.0 - u) * np.log1p(-u)).sum())

    def scale(self, p):
        return 4.0  # nabla^2 l <= I / 4

    def change(self, p, s, j, delta, read):
        rows, vals = read[1:3]
        z = -s.residual[rows]  # the new residual negates to z - delta*vals
        return float(np.sum(np.logaddexp(0.0, z - delta * vals)
                            - np.logaddexp(0.0, z)))

    def update_grad(self, p, s, delta, read):
        """Move the kept gradient after the residual moved by delta * A_j,
        by a row product over supp(A_j); the read's nabla l there is the
        value before the move."""
        j, rows, before = read[0], read[1], read[3]
        p.matrix.add_rows(s.grad, j,
                          self.grad(p, s.residual[rows], rows) - before)

    def line_search(self, p, s, j, tol=1e-10, max_iters=100):
        """Bisect the min-norm subgradient of F along coordinate j, which is
        monotone, within the regularizer's domain."""
        rows, vals = p.matrix.col_view(j)
        aj, c = s.alpha.item(j), p.linear_term.item(j)
        if len(vals) == 0 and c == 0.0:
            return aj
        vseg = s.residual[rows]  # the residual does not move in the search
        reg = p.reg

        def slope(x):
            g = float(vals @ self.grad(p, vseg + (x - aj) * vals, rows)) + c
            if reg.lam2:
                g += reg.lam2 * x
            return reg.subgrad(x, g)

        if slope(0.0) == 0.0:
            return 0.0
        # bracket the slope's sign change around the iterate, in steps of
        # 1, 2, 4, ...
        lo, hi = max(aj - 1.0, reg.lower), min(aj + 1.0, reg.upper)
        for k in range(200):
            if slope(lo) <= 0.0:
                break
            lo = max(lo - 2.0 ** k, reg.lower)
        for k in range(200):
            if slope(hi) >= 0.0:
                break
            hi = min(hi + 2.0 ** k, reg.upper)
        for _ in range(max_iters):
            mid = 0.5 * (lo + hi)
            g = slope(mid)
            if abs(g) <= tol:
                return mid
            if g > 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


class _L1Penalty:
    """g_i(x) = lam |x|; its vector min-norm subgradient is the
    steepest-subgradient score, zero exactly at optima."""

    kind = "l1"
    lower, upper = -math.inf, math.inf

    def __post_init__(self):
        for f in fields(self):
            weight = getattr(self, f.name)
            if not 0 <= weight < math.inf:
                raise ValueError("%s must be nonnegative and finite, got %r"
                                 % (f.name, weight))

    def value(self, alpha):
        return self.lam * float(np.abs(alpha).sum())

    def change(self, a, new):
        return self.lam * (abs(new) - abs(a))

    def change_vec(self, alpha, gamma):
        # lam * (|alpha + gamma| - |alpha|) in its own order, so its bits
        out = np.add(alpha, gamma)
        np.abs(out, out=out)
        out -= np.abs(alpha)
        return np.multiply(self.lam, out, out=out)

    def prox(self, x, h):
        return shrink(x, self.lam / h)

    def prox_vec(self, x, h, out=None):
        """sign(x) * max(|x| - lam/h, 0), written to out (which may be x)."""
        over = np.abs(x)
        over -= self.lam / h
        np.maximum(over, 0.0, out=over)
        sign = np.sign(x, out=out)
        return np.multiply(sign, over, out=sign)

    def subgrad(self, x, g):
        return g + math.copysign(self.lam, x) if x else shrink(g, self.lam)

    def subgrad_vec(self, alpha, grad):
        lam = self.lam
        out = grad + np.sign(alpha) * lam
        at_zero = alpha == 0
        gz = grad[at_zero]
        out[at_zero] = np.sign(gz) * np.maximum(np.abs(gz) - lam, 0.0)
        return out

    def dual_scale(self, corr):
        """The factor in (0, 1] that takes a dual point theta with
        A^T theta = corr into the conjugate's domain: into
        ||A^T theta||_inf <= lam, or 1 when lam2 > 0 leaves no bound."""
        if self.lam2:
            return 1.0
        top = float(np.abs(corr).max(initial=0.0))
        return self.lam / top if top > self.lam else 1.0

    def conjugate(self, z):
        """sum_i g_i*(z_i) for g_i(x) = lam |x| + lam2/2 x^2:
        (|z_i| - lam)_+^2 / (2 lam2), or 0 on the ball |z_i| <= lam, which
        dual_scale keeps z in, when lam2 = 0."""
        if not self.lam2:
            return 0.0
        over = np.maximum(np.abs(z) - self.lam, 0.0)
        return float(over @ over) / (2.0 * self.lam2)


@dataclass(frozen=True)
class L1(_L1Penalty):
    lam: float  # every regularizer's L1 weight is its lam
    lam2 = 0.0


@dataclass(frozen=True)
class ElasticNetL1(_L1Penalty):
    """lam1 |x| + lam2/2 x^2; the quadratic part counts as smooth."""
    lam1: float
    lam2: float
    lam = property(lambda self: self.lam1)


@dataclass(frozen=True)
class Box:
    """Unit box [0,1]^n; general boxes are rescaled at load time. Its min-norm
    subgradient is the projected gradient, nonzero on the active set."""
    kind = "box"
    lower, upper = 0.0, 1.0
    lam2 = lam = 0.0

    def value(self, alpha):
        if np.any(alpha < -1e-12) or np.any(alpha > 1 + 1e-12):
            raise ValueError("iterate outside the unit box")
        return 0.0

    def change(self, a, new):
        if new < -1e-12 or new > 1 + 1e-12:
            raise ValueError("iterate outside the unit box")
        return 0.0

    def change_vec(self, alpha, gamma):
        return 0.0

    def prox(self, x, h):
        return min(1.0, max(0.0, x))

    def prox_vec(self, x, h, out=None):
        """x clipped to [0, 1], written to out (which may be x)."""
        out = np.maximum(x, 0.0, out=out)
        return np.minimum(out, 1.0, out=out)

    def subgrad(self, x, g):
        # at a bound, the normal cone absorbs the part of g pointing out
        if x <= 0.0:
            return min(g, 0.0)
        if x >= 1.0:
            return max(g, 0.0)
        return g

    def subgrad_vec(self, alpha, grad):
        return np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                        np.where(alpha >= 1.0, np.maximum(grad, 0.0), grad))


class CompositeProblem:
    """Immutable problem description; houses A, c, the loss, g and L."""

    def __init__(self, matrix, linear_term, loss, reg):
        if len(linear_term) != matrix.n_cols:
            raise ValueError("linear term must have one entry per column")
        loss.check(matrix)
        bad = np.flatnonzero(~np.isfinite(matrix.col_sq_norms))
        if len(bad):
            j = int(bad[0])
            raise ValueError("column %d has squared norm %r, so L is not "
                             "finite; refusing to build"
                             % (j, float(matrix.col_sq_norms[j])))
        if matrix.n_cols == 0 or not np.any(matrix.col_sq_norms > 0):
            raise ValueError("all-zero matrix has L = 0; refusing to build")
        self.matrix = matrix
        self.linear_term = np.asarray(linear_term, dtype=np.float64)
        self.linear_term.setflags(write=False)
        self.loss = loss
        self.reg = reg
        # the loss's scale(p), fixed for the problem: the steps read it
        self.loss_scale = loss.scale(self)
        # coordinate-wise smoothness constant
        self.smoothness = float(matrix.col_sq_norms.max()) \
            / self.loss_scale + reg.lam2

    @cached_property
    def uniform_linear_term(self):
        """The value every entry of c holds, or None when they differ."""
        c = self.linear_term  # read-only, so this is read once
        return float(c[0]) if not np.ptp(c) else None

    @property
    def n(self):
        return self.matrix.n_cols

    @property
    def d(self):
        return self.matrix.n_rows

    @property
    def l1_lambda(self):
        """The L1 weight seen by the prox machinery (lam1 for elastic net,
        0 for the box)."""
        return self.reg.lam


class _Residual:
    """IterateState.residual, v = A alpha. A move queues (rows, values,
    delta) in the state's `_moves` list instead of adding delta A_j to v; a
    read applies the queue first, in order, so it gives the bits the moves
    would have written one by one, and leaves `_moves` None. Setting v
    drops the queue."""

    def __get__(self, s, owner=None):
        if s is None:  # read on the class: the dataclass takes no default
            raise AttributeError("residual")
        v = s._v
        if s._moves is not None:
            for rows, vals, delta in s._moves:
                v[rows] += delta * vals
            s._moves = None
        return v

    def __set__(self, s, v):
        s._v, s._moves = v, None


@dataclass
class IterateState:
    """Single-owner mutable solver state: alpha, residual v = A alpha, and,
    on request, the full gradient (track_gradient) and the objective value
    (track_objective) kept current step by step until untrack.

    The residual, and the gradient and objective when kept, are recomputed
    from alpha every RESIDUAL_REFRESH_EVERY steps; each gradient refresh
    counts in grad_refreshes and its largest entrywise change in
    max_grad_drift, and the largest change a refresh made to the objective
    is max_f_drift. Moves reach the residual when it is next read (see
    _Residual), and a refresh remakes it from alpha and drops the moves
    queued: a step on a kept gradient of a quadratic loss reads no
    residual, so such a solve adds only the moves after its last refresh.
    """
    alpha: np.ndarray
    residual: np.ndarray = _Residual()
    nnz: int
    # maintained gradient, read-only to callers; set by track_gradient
    grad: np.ndarray = field(default=None, init=False)
    grad_refreshes: int = field(default=0, init=False)
    max_grad_drift: float = field(default=0.0, init=False)
    max_f_drift: float = field(default=0.0, init=False)
    # maintained objective: F at the last refresh plus the sum of the step
    # changes since, kept apart so rounding stays at the size of the changes
    _f_refreshed: float = field(default=None, init=False, repr=False)
    _f_since: float = field(default=0.0, init=False, repr=False)
    _steps_since_refresh: int = field(default=0, repr=False)
    # the last column read, by coord_grad, until a move or a refresh:
    # (j, rows, values, nabla l on them or None when read off the kept
    # gradient, <A_j, nabla l>), rows as SparseColMatrix.col_view gives them
    _read: tuple = field(default=None, init=False, repr=False,
                         compare=False)

    @classmethod
    def zeros(cls, problem):
        return cls(alpha=np.zeros(problem.n), residual=np.zeros(problem.d),
                   nnz=0)

    @property
    def objective(self):
        """The maintained F(alpha), or None when the state keeps none."""
        if self._f_refreshed is None:
            return None
        return self._f_refreshed + self._f_since

    def track_gradient(self, problem):
        """Compute the full gradient now and keep it current from here on."""
        self.grad = full_grad(problem, self)

    def track_objective(self, problem):
        """Compute F(alpha) now and keep it current from here on."""
        self._f_refreshed = objective_value(problem, self)
        self._f_since = 0.0

    def untrack(self):
        """Stop keeping the gradient and the objective."""
        self.grad = None
        self._f_refreshed = None
        self._f_since = 0.0

    def recompute_residual(self, problem):
        # one product over all columns: a zero alpha_j adds exact zeros, so
        # each entry sums the nonzero columns' terms in column order, as a
        # loop of col_axpy over them would; the queued moves are dropped
        self.residual = problem.matrix.matvec(self.alpha)
        self._read = None
        self._steps_since_refresh = 0
        if self.grad is not None:
            fresh = full_grad(problem, self)
            self.max_grad_drift = max(self.max_grad_drift,
                                      float(np.abs(fresh - self.grad).max()))
            self.grad_refreshes += 1
            self.grad = fresh
        if self._f_refreshed is not None:
            fresh = objective_value(problem, self)
            self.max_f_drift = max(self.max_f_drift,
                                   abs(fresh - self.objective))
            self._f_refreshed, self._f_since = fresh, 0.0


def grad_l(p, s):
    """Gradient of the loss at the current residual (a d-vector)."""
    return p.loss.grad(p, s.residual)


def coord_grad(p, s, j):
    """nabla_j f(alpha) = <A_j, grad_l(v)> + c_j + lam2*alpha_j.

    A state that keeps the gradient gives it as g_j on a loss that
    reads_kept_grad, and <A_j, grad_l(v)> as g_j - c_j - lam2*alpha_j,
    with no column dot. Otherwise nabla l is evaluated on supp(A_j) only,
    with no gather on a matrix that stores every entry. The column read
    stays on the state, so a move of coordinate j that follows reads
    supp(A_j) no more. Returns a Python float.
    """
    rows, vals = p.matrix.col_view(j)
    c, lam2 = p.linear_term.item(j), p.reg.lam2
    if s.grad is not None and p.loss.reads_kept_grad:
        g = s.grad.item(j)
        dot = g - c
        if lam2:
            dot -= lam2 * s.alpha.item(j)
        s._read = (j, rows, vals, None, dot)
        return g
    gl = p.loss.grad(p, s.residual[rows], rows)
    dot = float(vals @ gl)
    s._read = (j, rows, vals, gl, dot)
    g = dot + c
    if lam2:
        g += lam2 * s.alpha.item(j)
    return g


def full_grad(p, s):
    """All coordinate gradients at once via a transposed matvec."""
    g = p.matrix.matvec_T(grad_l(p, s)) + p.linear_term
    if p.reg.lam2:
        g = g + p.reg.lam2 * s.alpha
    return g


def current_grad(p, s):
    """The state's maintained gradient when it keeps one, else full_grad."""
    return full_grad(p, s) if s.grad is None else s.grad


def subgrad_score(p, s, grad=None):
    """The steepest-subgradient score vector for L1-type regularizers.

    Entry i is shrink(grad_i, lam) when alpha_i = 0 and
    grad_i + sign(alpha_i)*lam otherwise; zero exactly at optima.
    """
    if p.reg.kind != "l1":
        raise TypeError("score vector needs an L1-type regularizer")
    if grad is None:
        grad = current_grad(p, s)
    return p.reg.subgrad_vec(s.alpha, grad)


def objective_value(p, s):
    """Full composite value F(alpha) at the current iterate."""
    f = p.loss.value(p, s.residual) + float(p.linear_term @ s.alpha)
    if p.reg.lam2:
        f += 0.5 * p.reg.lam2 * float(s.alpha @ s.alpha)
    return f + p.reg.value(s.alpha)


def _objective_change(p, s, j, delta, read):
    """F(alpha + delta e_j) - F(alpha) from the column read before the move.

    Raises the unit-box error when the move leaves the box.
    """
    a = s.alpha.item(j)
    new = a + delta  # the value alpha_j takes, rounded the same way
    change = p.loss.change(p, s, j, delta, read) \
        + p.linear_term.item(j) * delta
    reg = p.reg
    penalty = reg.change(a, new)
    if reg.lam2:
        penalty += 0.5 * reg.lam2 * delta * (a + new)
    # the same value as a Python float: the kept F and its records stay plain
    return float(change + penalty)


def apply_coord_delta(p, s, j, delta):
    """alpha_j += delta, maintaining residual and nonzero count in O(nnz(A_j)),
    and the gradient and objective when the state keeps them. Returns the
    column read the move used (see coord_grad), or None when delta is 0.
    The residual's change is queued for its next read, which adds it in
    place, on a matrix that stores every entry with no scatter."""
    if delta == 0.0:
        return None
    if s._read is None or s._read[0] != j:
        coord_grad(p, s, j)  # leaves its column read on the state
    read = s._read
    if s._f_refreshed is not None:
        s._f_since += _objective_change(p, s, j, delta, read)
    a = s.alpha.item(j)
    new = a + delta
    s.alpha[j] = new
    if a == 0.0 and new != 0.0:
        s.nnz += 1
    elif a != 0.0 and new == 0.0:
        s.nnz -= 1
    s._read = None  # the residual and the gradient move
    if s._moves is None:
        s._moves = [(read[1], read[2], delta)]
    else:
        s._moves.append((read[1], read[2], delta))
    if s.grad is not None:
        p.loss.update_grad(p, s, delta, read)
        if p.reg.lam2:
            s.grad[j] += p.reg.lam2 * delta
    s._steps_since_refresh += 1
    if s._steps_since_refresh >= RESIDUAL_REFRESH_EVERY:
        s.recompute_residual(p)
    return read


def duality_gap(p, s):
    """F(alpha) less the value of a dual point: by weak duality at least
    F(alpha) - F*, so F(alpha) - gap is a certified lower bound on F*.

    L1 and elastic net take the Fenchel dual point theta = nabla l(v),
    scaled by the regularizer's dual_scale; the dual value is
    -l*(theta) - sum_i g_i*(-(A^T theta)_i), each conjugate supplied by
    its own loss or regularizer. A^T theta is read off the kept gradient
    (g - lam2 alpha) when the state keeps one, else it takes one transposed
    product. They need c = 0 in every entry.

    On the unit box the loss must be the SVM dual with c = -(1/n) 1. With
    w(alpha) = A alpha / (lam n) the margins are n g_i + 1, so the hinge
    primal less the dual is the box's Frank-Wolfe gap,
    sum_i alpha_i g_i + max(-g_i, 0), read off the gradient alone.
    """
    reg = p.reg
    if reg.kind == "box":
        if not p.loss.has_gap:
            raise TypeError("the box's duality gap is defined for the SVM "
                            "dual only")
        if p.uniform_linear_term != -1.0 / p.n:
            raise ValueError("the SVM duality gap needs the linear term "
                             "c = -(1/n) 1 = %r in every entry"
                             % (-1.0 / p.n))
        g = current_grad(p, s)
        return float(s.alpha @ g) - float(np.minimum(g, 0.0).sum())
    if p.uniform_linear_term != 0.0:
        raise ValueError("the duality gap of an L1-type problem needs the "
                         "linear term c = 0 in every entry")
    theta = grad_l(p, s)
    if s.grad is None:
        corr = p.matrix.matvec_T(theta)
    else:
        corr = s.grad - reg.lam2 * s.alpha if reg.lam2 else s.grad
    k = reg.dual_scale(corr)
    dual = -p.loss.conjugate(p, k * theta) - reg.conjugate(-k * corr)
    return objective_value(p, s) - dual


def make_lasso(M, b, lam):
    return CompositeProblem(M, np.zeros(M.n_cols), SquaredResidual(np.asarray(b, dtype=np.float64)), L1(lam))


def make_svm_dual(M_signed, svm_lambda):
    """Dual SVM on a matrix whose columns are already b_i * a_i."""
    n = M_signed.n_cols
    return CompositeProblem(M_signed, np.full(n, -1.0 / n),
                            DualSVM(svm_lambda), Box())


def make_logistic(M_signed, lam):
    return CompositeProblem(M_signed, np.zeros(M_signed.n_cols),
                            Logistic(), L1(lam))


def make_elastic_net(M, b, lam1, lam2):
    return CompositeProblem(M, np.zeros(M.n_cols),
                            SquaredResidual(np.asarray(b, dtype=np.float64)),
                            ElasticNetL1(lam1, lam2))
