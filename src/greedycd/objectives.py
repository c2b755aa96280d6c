"""Composite objectives F(alpha) = l(A alpha) + c^T alpha + sum_i g_i(alpha_i).

Supported losses: squared residual (Lasso / elastic net), the negated SVM
dual, and logistic. Regularizers: L1, unit box, elastic-net L1 (the quadratic
part is folded into the smooth term), or none. The iterate carries the
residual v = A alpha so coordinate gradients cost O(nnz(A_j)), and, on
request, the full gradient, updated after each step instead of recomputed.
"""

from dataclasses import dataclass, field

import numpy as np

# col_dot stays importable from here: instrumentation wraps it by this name
from .sparse import RowProduct, SparseColMatrix, col_axpy, col_dot, shrink

__all__ = [
    "SquaredResidual", "DualSVM", "Logistic",
    "L1", "Box", "ElasticNetL1", "NoReg",
    "CompositeProblem", "IterateState",
    "smoothness_L", "grad_l", "coord_grad", "full_grad", "current_grad",
    "subgrad_score",
    "objective_value", "apply_coord_delta", "duality_gap", "rescale_columns",
    "make_lasso", "make_svm_dual", "make_logistic", "make_elastic_net",
]

RESIDUAL_REFRESH_EVERY = 1000  # full recompute cadence, bounds fp drift
# the Gram columns one state caches take at most this multiple of the bytes
# A itself is stored in; further columns are recomputed on every use
GRAM_CACHE_INPUT_MULTIPLE = 8


@dataclass(frozen=True)
class SquaredResidual:
    """l(v) = 0.5 * ||v - target||^2."""
    target: np.ndarray


@dataclass(frozen=True)
class DualSVM:
    """l(v) = ||v||^2 / (2 * svm_lambda * n^2); pairs with c = -(1/n) 1."""
    svm_lambda: float


@dataclass(frozen=True)
class Logistic:
    """l(v) = sum_i log(1 + exp(-v_i)), labels folded into the columns."""


@dataclass(frozen=True)
class L1:
    lam: float


@dataclass(frozen=True)
class Box:
    """Unit box [0,1]^n; general boxes are rescaled at load time."""


@dataclass(frozen=True)
class ElasticNetL1:
    lam1: float
    lam2: float


@dataclass(frozen=True)
class NoReg:
    pass


def smoothness_L(loss, M, reg):
    """Coordinate-wise smoothness constant for the given loss on matrix M."""
    if M.n_cols == 0 or not np.any(M.col_sq_norms > 0):
        raise ValueError("all-zero matrix has L = 0; refusing to build")
    max_sq = float(M.col_sq_norms.max())
    if isinstance(loss, SquaredResidual):
        L = max_sq
        if isinstance(reg, ElasticNetL1):
            L += reg.lam2
        return L
    if isinstance(loss, DualSVM):
        n = M.n_cols
        return max_sq / (loss.svm_lambda * n * n)
    if isinstance(loss, Logistic):
        return max_sq / 4.0
    raise TypeError("unknown loss kind: %r" % (loss,))


class CompositeProblem:
    """Immutable problem description; houses A, c, the loss, g and L."""

    def __init__(self, matrix, linear_term, loss, reg):
        if len(linear_term) != matrix.n_cols:
            raise ValueError("linear term must have one entry per column")
        if isinstance(loss, SquaredResidual) and len(loss.target) != matrix.n_rows:
            raise ValueError("squared-residual target length must equal n_rows")
        if isinstance(loss, DualSVM) and loss.svm_lambda <= 0:
            raise ValueError("svm_lambda must be positive")
        self.matrix = matrix
        self.linear_term = np.asarray(linear_term, dtype=np.float64)
        self.linear_term.setflags(write=False)
        self.loss = loss
        self.reg = reg
        self.smoothness = smoothness_L(loss, matrix, reg)

    @property
    def n(self):
        return self.matrix.n_cols

    @property
    def d(self):
        return self.matrix.n_rows

    @property
    def l1_lambda(self):
        """The L1 weight seen by the prox machinery (lam1 for elastic net)."""
        if isinstance(self.reg, L1):
            return self.reg.lam
        if isinstance(self.reg, ElasticNetL1):
            return self.reg.lam1
        raise TypeError("problem has no L1 term (reg is %r)" % (self.reg,))


@dataclass
class IterateState:
    """Single-owner mutable solver state: alpha, residual v = A alpha, and,
    between track_gradient and untrack_gradient, the full gradient kept
    current step by step.

    The residual, and the gradient when kept, are recomputed from alpha every
    RESIDUAL_REFRESH_EVERY steps; each gradient refresh counts in
    grad_refreshes and its largest entrywise change in max_grad_drift.
    """
    alpha: np.ndarray
    residual: np.ndarray
    nnz: int
    iter: int = 0
    # maintained gradient, read-only to callers; set by track_gradient
    grad: np.ndarray = field(default=None, init=False)
    grad_refreshes: int = field(default=0, init=False)
    max_grad_drift: float = field(default=0.0, init=False)
    _steps_since_refresh: int = field(default=0, repr=False)
    _grad_updater: object = field(default=None, repr=False)

    @classmethod
    def zeros(cls, problem):
        return cls(alpha=np.zeros(problem.n), residual=np.zeros(problem.d),
                   nnz=0)

    def track_gradient(self, problem):
        """Compute the full gradient now and keep it current from here on."""
        self.grad = full_grad(problem, self)
        self._grad_updater = _GradientUpdater(problem)

    def untrack_gradient(self):
        """Stop keeping the gradient and free its Gram-column cache."""
        self.grad = None
        self._grad_updater = None

    def recompute_residual(self, problem):
        v = np.zeros(problem.d)
        for j in np.nonzero(self.alpha)[0]:
            col_axpy(problem.matrix, j, self.alpha[j], v)
        self.residual = v
        self._steps_since_refresh = 0
        if self.grad is not None:
            fresh = full_grad(problem, self)
            self.max_grad_drift = max(self.max_grad_drift,
                                      float(np.abs(fresh - self.grad).max()))
            self.grad_refreshes += 1
            self.grad = fresh


class _GradientUpdater:
    """The change of the full gradient g when alpha_j moves by delta.

    Quadratic losses add delta * kappa * G_j, with kappa the loss curvature
    and G_j = A^T A_j. Each Gram column is computed on first use and cached
    while the cache stays within GRAM_CACHE_INPUT_MULTIPLE times the bytes A
    is stored in; past that, a column is recomputed on every use. Logistic
    adds A[S, :]^T (change of nabla l on S), S = supp(A_j), by a row product.
    """

    def __init__(self, p):
        M = p.matrix
        self.rows = RowProduct(M)
        self.gram = {}
        self.room = GRAM_CACHE_INPUT_MULTIPLE * (M.values.nbytes
                                                 + M.row_indices.nbytes)
        self.kappa = 1.0
        if isinstance(p.loss, DualSVM):
            self.kappa = 1.0 / (p.loss.svm_lambda * p.n * p.n)

    def gram_column(self, ridx, vals, j):
        col = self.gram.get(j)
        if col is None:
            col = self.rows(ridx, vals)
            if col.nbytes <= self.room:
                self.gram[j] = col
                self.room -= col.nbytes
        return col

    def step(self, p, s, j, delta):
        """Move the residual by delta * A_j and g to match."""
        ridx, vals = p.matrix.col(j)
        if isinstance(p.loss, Logistic):
            before = _loss_grad(p, s.residual[ridx], ridx)
            col_axpy(p.matrix, j, delta, s.residual)
            after = _loss_grad(p, s.residual[ridx], ridx)
            s.grad += self.rows(ridx, after - before)
            return
        col_axpy(p.matrix, j, delta, s.residual)
        s.grad += (delta * self.kappa) * self.gram_column(ridx, vals, j)
        if isinstance(p.reg, ElasticNetL1):
            s.grad[j] += p.reg.lam2 * delta


def _loss_grad(p, v, rows=None):
    """nabla l at residual entries v: the whole residual, or its `rows`."""
    if isinstance(p.loss, SquaredResidual):
        return v - (p.loss.target if rows is None else p.loss.target[rows])
    if isinstance(p.loss, DualSVM):
        n = p.n
        return v / (p.loss.svm_lambda * n * n)
    if isinstance(p.loss, Logistic):
        # d/dz log(1+exp(-z)) = -1/(1+exp(z)), computed stably
        return -0.5 * (1.0 - np.tanh(v / 2.0))
    raise TypeError("unknown loss kind: %r" % (p.loss,))


def grad_l(p, s):
    """Gradient of the loss at the current residual (a d-vector)."""
    return _loss_grad(p, s.residual)


def coord_grad(p, s, j):
    """nabla_j f(alpha) = <A_j, grad_l(v)> + c_j (+ lam2*alpha_j).

    nabla l is evaluated on supp(A_j) only.
    """
    ridx, vals = p.matrix.col(j)
    g = float(vals @ _loss_grad(p, s.residual[ridx], ridx)) \
        + p.linear_term[j]
    if isinstance(p.reg, ElasticNetL1):
        g += p.reg.lam2 * s.alpha[j]
    return g


def full_grad(p, s):
    """All coordinate gradients at once via a transposed matvec."""
    g = p.matrix.matvec_T(grad_l(p, s)) + p.linear_term
    if isinstance(p.reg, ElasticNetL1):
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
    if not isinstance(p.reg, (L1, ElasticNetL1)):
        raise TypeError("score vector needs an L1-type regularizer")
    lam = p.l1_lambda
    if grad is None:
        grad = current_grad(p, s)
    out = grad + np.sign(s.alpha) * lam
    at_zero = s.alpha == 0
    gz = grad[at_zero]
    out[at_zero] = np.sign(gz) * np.maximum(np.abs(gz) - lam, 0.0)
    return out


def objective_value(p, s):
    """Full composite value F(alpha) at the current iterate."""
    v = s.residual
    if isinstance(p.loss, SquaredResidual):
        r = v - p.loss.target
        smooth = 0.5 * float(r @ r)
    elif isinstance(p.loss, DualSVM):
        n = p.n
        smooth = float(v @ v) / (2.0 * p.loss.svm_lambda * n * n)
    elif isinstance(p.loss, Logistic):
        smooth = float(np.sum(np.logaddexp(0.0, -v)))
    else:
        raise TypeError("unknown loss kind: %r" % (p.loss,))
    smooth += float(p.linear_term @ s.alpha)

    reg = p.reg
    if isinstance(reg, L1):
        return smooth + reg.lam * float(np.abs(s.alpha).sum())
    if isinstance(reg, ElasticNetL1):
        return (smooth + 0.5 * reg.lam2 * float(s.alpha @ s.alpha)
                + reg.lam1 * float(np.abs(s.alpha).sum()))
    if isinstance(reg, Box):
        if np.any(s.alpha < -1e-12) or np.any(s.alpha > 1 + 1e-12):
            raise ValueError("iterate outside the unit box")
        return smooth
    if isinstance(reg, NoReg):
        return smooth
    raise TypeError("unknown regularizer kind: %r" % (reg,))


def apply_coord_delta(p, s, j, delta):
    """alpha_j += delta, maintaining residual and nonzero count in O(nnz(A_j)),
    and the gradient when the state keeps one."""
    if delta == 0.0:
        return
    was_zero = s.alpha[j] == 0.0
    s.alpha[j] += delta
    if was_zero and s.alpha[j] != 0.0:
        s.nnz += 1
    elif not was_zero and s.alpha[j] == 0.0:
        s.nnz -= 1
    if s._grad_updater is None:
        col_axpy(p.matrix, j, delta, s.residual)
    else:
        s._grad_updater.step(p, s, j, delta)
    s._steps_since_refresh += 1
    if s._steps_since_refresh >= RESIDUAL_REFRESH_EVERY:
        s.recompute_residual(p)


def duality_gap(p, s):
    """Hinge-loss primal value at w(alpha) minus the dual value at alpha."""
    if not isinstance(p.loss, DualSVM):
        raise TypeError("duality gap is defined for the SVM dual only")
    n = p.n
    lam = p.loss.svm_lambda
    # w(alpha) = A alpha / (lam n) is the mapping conjugate to this dual:
    # stationarity then puts support vectors exactly on the margin, so the
    # gap closes at the optimum
    w = s.residual / (lam * n)
    # <b_i a_i, w> per example column: A^T w = n (g - c), read off the gradient
    margins = n * (current_grad(p, s) - p.linear_term)
    primal = float(np.maximum(1.0 - margins, 0.0).mean()) \
        + 0.5 * lam * float(w @ w)
    dual = float(s.alpha.mean()) - float(s.residual @ s.residual) \
        / (2.0 * lam * n * n)
    return primal - dual


def rescale_columns(M, per_col_L):
    """Divide column j by sqrt(per_col_L[j]) so per-coordinate curvature is 1.

    Returns (matrix, scales) with scales[j] = 1/sqrt(L_j); a solution on the
    rescaled problem maps back as alpha_original = alpha_scaled * scales.
    """
    per_col_L = np.asarray(per_col_L, dtype=np.float64)
    if np.any(per_col_L <= 0):
        raise ValueError("per-column smoothness constants must be positive")
    scales = 1.0 / np.sqrt(per_col_L)
    return M.scale_columns(scales), scales


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
