"""Subset maximum inner product search: augmented point sets that turn the
steepest-coordinate scores into plain inner products, candidate masks that
track the live sign/feasibility cases of the iterate, and exact plus
hyperplane-LSH query backends.

Point layout is fixed so queries are O(dim) regardless of mapping:
L1 points are (s*beta, beta*c_j, A_j) with the two augmented slots first,
and box points are (beta, A_j).

Every L1 or box inner product with its query is a signed entry of the full
gradient g = A^T grad_l + c (plus or minus lam for L1), so an exact query
over the live points picks the steepest rule's coordinate: the solvers run
that rule in place of an exact search, and `smips_query` scans the points
for the hashing backend and for reference.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .sparse import require_count

__all__ = [
    "AugmentedPointSet", "SubsetMask", "Exact", "HyperplaneLsh",
    "build_l1_points", "build_l1_query", "build_l1_mask",
    "build_box_points", "build_box_query", "build_box_mask",
    "update_mask_after_step", "smips_query", "point_to_coordinate",
    "require_beta", "require_uniform_linear_term", "BUILDERS",
]

# per-coordinate point tags, in storage order
L1_TAGS = ("+A+", "-A+", "+A-", "-A-")
BOX_TAGS = ("+A", "-A")


@dataclass
class AugmentedPointSet:
    points: np.ndarray        # (m, dim), column j's at ids k*j .. k*j+k-1
    tags: tuple               # the k construction tags, in that id order
    beta: float

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def dots(self, ids, q):
        """Inner products of the selected points with q."""
        return self.points[ids] @ q


@dataclass
class SubsetMask:
    included: np.ndarray
    kind: str


@dataclass(frozen=True)
class Exact:
    pass


def require_beta(beta):
    """Refuse a beta that is not positive and finite: NaN and inf too."""
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite, got %r" % (beta,))


def build_l1_points(A, c, beta):
    """4n points {+-(s*beta, beta*c_j, A_j) : s in {+,-}}, dimension d+2."""
    require_beta(beta)
    c = np.asarray(c, dtype=np.float64)
    if len(c) != A.n_cols:
        raise ValueError("need one linear-term entry per column")
    n, d = A.n_cols, A.n_rows
    pts = np.empty((4 * n, d + 2))
    base = np.empty((n, d + 2))
    base[:, 0] = beta
    base[:, 1] = beta * c
    base[:, 2:] = A.to_dense().T
    pts[0::4] = base                       # +A~+
    pts[1::4] = -base                      # -A~+
    base[:, 0] = -beta                     # now A~-
    pts[2::4] = base                       # +A~-
    pts[3::4] = -base                      # -A~-
    return AugmentedPointSet(pts, L1_TAGS, beta)


def build_l1_query(gl, lam, beta):
    """q = (lam/beta, 1/beta, grad_l(v)); <A~_j^sign, q> = grad_j f + sign*lam."""
    require_beta(beta)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return np.concatenate(([lam / beta, 1.0 / beta], gl))


def _l1_live(inc, alpha):
    """Write into inc each coordinate's live points among L1_TAGS for its
    value in alpha, an array or one number: 2, or none for a NaN."""
    inc[0::4] = alpha > 0
    inc[1::4] = alpha >= 0
    inc[2::4] = alpha <= 0
    inc[3::4] = alpha < 0


def _box_live(inc, alpha):
    """Write into inc each coordinate's live points among BOX_TAGS for its
    value in alpha, an array or one number: +A off the lower bound, -A off
    the upper one, so 1 or 2, or none for a NaN."""
    inc[0::2] = alpha > 0
    inc[1::2] = alpha < 1


# each mask kind's live-point rule and its points per coordinate: a mask
# is built and repaired by the one rule
LIVE = {"l1": (_l1_live, len(L1_TAGS)), "box": (_box_live, len(BOX_TAGS))}


def _build_mask(kind, alpha):
    live, k = LIVE[kind]
    inc = np.empty(k * len(alpha), dtype=bool)
    live(inc, np.asarray(alpha))
    return SubsetMask(included=inc, kind=kind)


def build_l1_mask(alpha):
    return _build_mask("l1", alpha)


def build_box_points(A, c, beta):
    """2n points +-(beta, A_j), dimension d+1."""
    require_beta(beta)
    n, d = A.n_cols, A.n_rows
    base = np.empty((n, d + 1))
    base[:, 0] = beta
    base[:, 1:] = A.to_dense().T
    pts = np.empty((2 * n, d + 1))
    pts[0::2] = base
    pts[1::2] = -base
    return AugmentedPointSet(pts, BOX_TAGS, beta)


def require_uniform_linear_term(c):
    """The box query has a single slot for c; all entries must agree."""
    c = np.asarray(c)
    if len(c) and np.ptp(c) != 0:
        raise ValueError(
            "box-constrained inner-product mapping needs a uniform linear "
            "term; per-coordinate terms are not representable in the query")
    return float(c[0]) if len(c) else 0.0


def build_box_query(gl, c_value, beta):
    """q = (c/beta, grad_l(v)); then <A~_j, q> = grad_j f for uniform c."""
    require_beta(beta)
    return np.concatenate(([c_value / beta], gl))


def build_box_mask(alpha):
    return _build_mask("box", alpha)


# each regularizer kind's (points, query, mask) builders
BUILDERS = {"l1": (build_l1_points, build_l1_query, build_l1_mask),
            "box": (build_box_points, build_box_query, build_box_mask)}


def update_mask_after_step(m, j, new_val):
    """Rewrite the (at most 4) mask bits of coordinate j after a step by the
    live-point rule its kind's masks are built with."""
    if m.kind not in LIVE:
        raise ValueError("no mask maintenance for kind %r" % m.kind)
    live, k = LIVE[m.kind]
    live(m.included[k * j:k * j + k], new_val)


def point_to_coordinate(ps, pid):
    """(data column, construction tag) of a point id."""
    if not 0 <= pid < ps.n_points:
        raise IndexError("point id %d out of range" % pid)
    j, k = divmod(int(pid), len(ps.tags))
    return j, ps.tags[k]


# points per plane product in fit, which bounds the product's temporary
FIT_CHUNK_ROWS = 512


@dataclass
class HyperplaneLsh:
    """Sign-random-projection hashing: n_tables tables of bits_per_table bits.

    One product with all the planes hashes a point or query into every
    table. Each table keeps its points' integer keys sorted, with their ids.
    Candidates are gathered from the query's buckets and filtered by the
    mask afterwards (masks change every iteration, so tables are static).
    When none survives, a query falls back to a random live point, drawn
    from a stream that fit and restart seed with seed + 1; each solve
    restarts it, so no solve's draws depend on an earlier one's.
    """
    bits_per_table: int
    n_tables: int
    seed: int = 0

    _planes: np.ndarray = field(default=None, repr=False)
    _keys: np.ndarray = field(default=None, repr=False)
    _ids: np.ndarray = field(default=None, repr=False)
    _fitted_for: object = field(default=None, repr=False)
    _rng: object = field(default=None, repr=False)
    _key_bytes: int = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("bits_per_table", "n_tables", "seed"):
            require_count(name, getattr(self, name))
        if self.bits_per_table < 1 or self.n_tables < 1:
            raise ValueError("need at least one bit and one table")
        if self.bits_per_table > 64:
            raise ValueError("bits_per_table must be at most 64, the widest "
                             "integer key, got %d" % self.bits_per_table)
        self._key_bytes = next(n for n in (1, 2, 4, 8)
                               if 8 * n >= self.bits_per_table)

    def _hash(self, signs):
        """Keys (rows, n_tables) of signs (rows, n_tables * bits): each
        table's bits left-padded to whole key bytes, read big-endian."""
        rows, bits = len(signs), self.bits_per_table
        width = 8 * self._key_bytes
        padded = np.zeros((rows, self.n_tables, width), dtype=bool)
        padded[:, :, width - bits:] = signs.reshape(rows, self.n_tables, bits)
        return np.packbits(padded.reshape(rows, -1), axis=-1).view(
            ">u%d" % self._key_bytes)

    def fit(self, ps):
        rng = np.random.default_rng(self.seed)
        self._planes = rng.standard_normal(
            (self.n_tables * self.bits_per_table, ps.dim))
        keys = np.empty((self.n_tables, ps.n_points),
                        dtype="u%d" % self._key_bytes)
        for lo in range(0, ps.n_points, FIT_CHUNK_ROWS):
            signs = ps.points[lo:lo + FIT_CHUNK_ROWS] @ self._planes.T >= 0
            keys[:, lo:lo + len(signs)] = self._hash(signs).T
        # a stable sort keeps each key's ids ascending
        self._ids = np.argsort(keys, axis=1, kind="stable")
        self._keys = np.take_along_axis(keys, self._ids, axis=1)
        self._fitted_for = ps
        self.restart()

    def restart(self):
        """Start the fallback draws over, as fit leaves them."""
        self._rng = np.random.default_rng(self.seed + 1)

    def fallback(self, m):
        """The next fallback draw: a random included point's id."""
        return int(self._rng.choice(np.nonzero(m.included)[0]))

    def candidates(self, q):
        """Ids of the points in q's bucket of any table, ascending."""
        found = self._hash((self._planes @ q >= 0)[None])[0]
        hit = np.zeros(self._ids.shape[1], dtype=bool)
        for keys, ids, k in zip(self._keys, self._ids, found):
            hit[ids[keys.searchsorted(k):keys.searchsorted(k, "right")]] = True
        return np.flatnonzero(hit)


def smips_query(ps, q, m, backend):
    """Best included point by inner product with q.

    Returns (point id, value, fell_back). The exact backend scans the mask;
    the LSH backend unions its buckets, filters by the mask, and falls back
    to a random included point when no candidate survives.
    """
    if not m.included.any():
        raise ValueError("empty candidate mask")
    if len(q) != ps.dim:
        raise ValueError("query dimension %d != point dimension %d"
                         % (len(q), ps.dim))
    if isinstance(backend, Exact):
        ids = np.nonzero(m.included)[0]
    elif isinstance(backend, HyperplaneLsh):
        if backend._fitted_for is not ps:
            backend.fit(ps)
        ids = backend.candidates(q)
        ids = ids[m.included[ids]]
        if len(ids) == 0:
            pid = backend.fallback(m)
            return pid, float(ps.dots(np.array([pid]), q)[0]), True
    else:
        raise TypeError("unknown backend: %r" % (backend,))
    vals = ps.dots(ids, q)
    k = int(np.argmax(vals))
    return int(ids[k]), float(vals[k]), False
