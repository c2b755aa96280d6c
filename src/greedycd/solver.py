"""Coordinate descent for composite problems: steepest descent on
L1-regularized problems with a sign-preserving post-processed update, and
steepest descent over the active set of box-constrained problems. Both run
one step loop that classifies every step (good / bad / cross) and records a
trace. Each regularizer's steps supply its steepest score, stop check,
step, gap read and move, the one call that applies a step, and the one pick
of the config, bound when the steps are made: the hashing engine's query,
the custom selector hook, or the rule's pick. The loop calls the pick once
a step, after the stop check; an exact engine's answer is the steepest
rule's argmax, so an exact engine runs as that rule. The steps own all that
derives from the iterate, the kept gradient included, and the loop keeps
only its trace. On L1 problems the uniform rule's screen settles in bulk,
from the kept gradient, the draws that provably leave alpha as it is,
without a coordinate read.
"""

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import smips as sm
# full_grad, subgrad_score and select_uniform stay importable from here:
# instrumentation wraps them by these names
from .objectives import (Box, ElasticNetL1, IterateState, L1,
                         apply_coord_delta, coord_grad, duality_gap,
                         full_grad, grad_l, objective_value, subgrad_score)
from .selection import (ActiveSet, Rule, SelectionOutcome, l1_offsets,
                        measure_theta, select_gsq, select_gsr,
                        select_gss_box, select_gss_l1, select_uniform)

__all__ = [
    "SolverConfig", "StepRecord", "Trace", "SmipsEngine",
    "solve_l1", "solve_box", "classify_step_l1", "classify_step_box",
    "line_search_1d", "run_counters",
]

GOOD, BAD, CROSS = "good", "bad", "cross"
KINDS = (GOOD, BAD, CROSS)  # a step_kind column holds the index here
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
# a trace's columns, in StepRecord's field order, gap only when recorded:
# a record takes 50 bytes of them, 58 with a gap
COLUMNS = dict(iter=np.int64, coord=np.int64, step_kind=np.int8,
               f_value=float, theta=float, fell_back=bool, wall_ns=np.int64,
               nnz=np.int64, gap=float)
# L1 uniform draws its coordinates this many at a time; numpy's bounded
# integer stream is the same drawn in blocks or one by one
UNIFORM_BLOCK = 4096
# a uniform draw is settled without a step only when |g_j| is below lam by
# this fraction of max(lam, max |g|) at the last refresh, and by this
# multiple of the largest drift a refresh has found in the kept gradient
SCREEN_MARGIN = 1e-6
SCREEN_DRIFT_MULTIPLE = 1000.0
# the screen reads the pending draws in windows of this many, doubled while
# every draw of a window passes
SCREEN_WINDOW = 32


@dataclass
class SolverConfig:
    rule: Rule = Rule.GSS
    engine: object = "exact"        # "exact" | "smips" | prebuilt SmipsEngine
    backend: object = None          # smips backend; engine "smips" only
    use_line_search: bool = False
    max_iters: int = 1000
    tol: float = 1e-8
    seed: int = 0
    trace_every: int = 1
    selector: object = None         # callable (problem, state) -> coordinate
    record_theta: bool = False
    record_gap: bool = False        # per-step duality gap

    def validate(self):
        if not isinstance(self.rule, Rule):
            raise ValueError("rule must be a Rule member (%s), got %r" % (
                ", ".join(r.name for r in Rule), self.rule))
        if not self.tol >= 0:  # NaN too
            raise ValueError("tol must be nonnegative")
        # a bool is an int, but True is no step count or seed
        for name in ("max_iters", "trace_every"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) \
                    or isinstance(value, bool) or value < 1:
                raise ValueError("%s must be an integer of at least 1, got "
                                 "%r" % (name, value))
        if not isinstance(self.seed, (int, np.integer)) \
                or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer, got %r"
                             % (self.seed,))
        if self.engine != "exact" and (self.rule is not Rule.GSS
                                       or self.selector is not None):
            raise ValueError("an inner-product engine selects by gs-s only; "
                             "it takes no other rule and no selector")
        if self.backend is not None and self.engine != "smips":
            raise ValueError("a backend runs only with engine 'smips'; a "
                             "prebuilt engine takes its backend when built")


@dataclass(slots=True)  # no per-record __dict__: traces can be long
class StepRecord:
    iter: int
    coord: int
    step_kind: str
    f_value: float
    theta: float
    fell_back: bool
    wall_ns: int  # time since the previous record, or since the solve began
    nnz: int = 0
    gap: float = None  # duality gap, recorded on request only


class _Records:
    """A solve's records while it runs: in `rows`, per recorded step its
    count 1 and its COLUMNS values, and per screened run (good steps that
    move nothing) their count, first iter, coord -1 (the coordinates are in
    `runs`) and the run's time, which the last of them takes."""

    def __init__(self, trace_every):
        self.trace_every, self.rows, self.runs = trace_every, [], []

    def columns(self):
        """The records as numpy columns, each run's row expanded."""
        values = list(zip(*self.rows)) or [()] * len(COLUMNS)
        count = np.array(values[0], np.int64)
        cols = {name: np.repeat(np.array(v, COLUMNS[name]), count)
                for name, v in zip(COLUMNS, values[1:])}
        ends = np.cumsum(count)
        cols["iter"] += self.trace_every * (
            np.arange(len(cols["iter"])) - np.repeat(ends - count, count))
        cols["wall_ns"][:] = 0
        cols["wall_ns"][ends - 1] = values[7]
        if self.runs:
            cols["coord"][cols["coord"] < 0] = np.concatenate(self.runs)
        return cols


@dataclass
class Trace:
    """A solve's recorded steps and outcome.

    Steps are recorded every cfg.trace_every iterations, and the last step
    taken is always recorded. A record's f_value is the objective the solver
    keeps current step by step; the last record's is recomputed exactly. The
    records' wall_ns add up to the solve's elapsed time, from after any
    index build to the stop; the records of a run of screened steps are
    written at once, and the run's time goes to the last of them. counters
    holds the good/bad/cross step counts, LSH fallbacks, screened (the
    uniform steps settled by the screen, all good), max_f_drift (the
    largest change a recompute made to the kept objective, at a refresh or
    at the last record), max_gap_drift (the largest change a refresh made
    to the SVM gap read off the box steps' kept sums, which take each move
    as it is made, the last included; 0 where no sums are kept) and, for
    loops that keep the full gradient current, grad_refreshes and
    max_grad_drift (the largest entrywise change a refresh made to the
    maintained gradient).
    """
    f_initial: float
    columns: dict        # COLUMNS name -> numpy array, an entry a record
    counters: dict
    final_state: IterateState
    status: str          # "tol" | "optimal" | "max_iters"
    problem_kind: str    # "l1" | "box"

    @property
    def f_values(self):
        """Objective series including the starting point."""
        return np.append(self.f_initial, self.columns["f_value"])

    @property
    def n_steps(self):
        return len(self.columns["iter"])

    @cached_property
    def records(self):
        """StepRecords of Python scalars, built on first read."""
        cols = [col.tolist() for col in self.columns.values()]
        cols[2] = [KINDS[k] for k in cols[2]]
        return [StepRecord(*row) for row in zip(*cols)]


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


def line_search_1d(p, s, j):
    """Exact (or bisected) 1-d minimizer of F along coordinate j: the
    loss's own, through the regularizer's prox or domain."""
    if not 0 <= j < p.n:
        raise IndexError("coordinate %d out of range" % j)
    return p.loss.line_search(p, s, j)


class SmipsEngine:
    """Selection via subset inner-product search over augmented points.

    Implements the steepest-subgradient rule only; the candidate mask,
    which a solve's steps reset to its start and repair after every move,
    tracks the iterate's sign/feasibility cases.
    Over the live points the exact search is the steepest rule's argmax, so
    the solvers run an exact engine as that rule and select here only with
    the hashing backend, which queries its tables with the augmented query
    vector. The dense points are built on first read.
    """

    def __init__(self, p, backend=None, beta=None):
        self.backend = backend if backend is not None else sm.Exact()
        self.beta = beta if beta is not None else 50.0 / math.sqrt(p.n)
        t0 = time.perf_counter()
        if not isinstance(p.reg, (L1, Box)):
            raise TypeError("inner-product selection supports plain L1 and "
                            "box regularizers, not %r" % (p.reg,))
        sm.require_beta(self.beta)
        self.kind = p.reg.kind
        self._build_points, self._build_query, self._build_mask = \
            sm.BUILDERS[self.kind]
        # the query's first slot: lam on L1, the box's uniform linear term
        self._term = p.reg.lam if self.kind == "l1" \
            else sm.require_uniform_linear_term(p.linear_term)
        self._matrix, self._linear_term = p.matrix, p.linear_term
        if isinstance(self.backend, sm.HyperplaneLsh):
            self.backend.fit(self.points)
        self.build_seconds = time.perf_counter() - t0

    @cached_property
    def points(self):
        """The augmented point set: the hashing backend and the scans of
        adaptivity_report read it, an exact solve never does."""
        return self._build_points(self._matrix, self._linear_term, self.beta)

    def reset_mask(self, alpha):
        self.mask = self._build_mask(alpha)

    @property
    def is_exact(self):
        return isinstance(self.backend, sm.Exact)

    def query(self, p, s):
        """The augmented query vector at the state's residual."""
        return self._build_query(grad_l(p, s), self._term, self.beta)

    def select(self, p, s, query=True):
        """(coordinate, whether the answer fell back to a random point):
        the query's answer, or with query False a fallback draw."""
        if query:
            pid, _, fb = sm.smips_query(self.points, self.query(p, s),
                                        self.mask, self.backend)
        else:
            pid, fb = self.backend.fallback(self.mask), True
        return sm.point_to_coordinate(self.points, pid)[0], fb

    def note_step(self, j, new_val):
        sm.update_mask_after_step(self.mask, j, new_val)


class _Steps:
    """What one regularizer's loop does differently, for one solve from the
    state s: its steepest score and stop check, its uniform draw, its step,
    its gap read and its move, and the config's pick. What they keep of
    the iterate, F and the gradient that s keeps included, is made here
    from s and changed only by move, which applies a step and then calls
    the kind's two hooks: update, for what a move changes, and refresh,
    for what a refresh of the kept gradient remakes. `check_every` and
    `checks` set the stop-check cadence; `check_gap` says whether the loop
    stops on the duality gap; `keeps_grad` whether it keeps the full
    gradient current; `engine` is the hashing engine, whose mask they keep,
    or None; `screen`, when not None, settles the uniform draws that leave
    alpha as it is; `gap` reads the duality gap once per iterate; `kept`
    names what they keep, for tests to hold against fresh values.

    `pick(p, s, out)` is the coordinate of the next step, `out` the answer
    of the last stop check: the hashing engine's query when there is an
    engine, else the selector, else the rule's pick (out's coordinate for
    gs-s, which checks every step). The rule picks read select_gsr and
    select_gsq by name at each call. `fell_back` says whether the last pick
    fell back to a random point. A step that does not lower the kept F
    moves alpha_j by nothing or by round-off, which the same answer to the
    hashing engine's query would undo, so the hashing pick after one is a
    fallback draw over the live points."""

    check_gap = screen = None
    fell_back = False
    _f_picked = math.inf  # the kept F at the last hashing pick
    max_gap_drift = 0.0
    _gap = None  # the gap of the iterate as it is, once read

    def __init__(self, p, cfg, s, engine):
        self.L = p.smoothness
        self.prox = p.reg.prox
        self.line_search = cfg.use_line_search
        self.rng = np.random.default_rng(cfg.seed)
        self.engine = engine
        if engine is not None:
            engine.reset_mask(s.alpha)
            engine.backend.restart()  # no solve's picks depend on another's
            self.pick = self._hashed
        elif cfg.selector is not None:
            self.pick = lambda p, s, out: int(cfg.selector(p, s))
        else:
            self.pick = {Rule.GSS: lambda p, s, out: out.coord,
                         Rule.GSR: lambda p, s, out: select_gsr(p, s).coord,
                         Rule.GSQ: lambda p, s, out: select_gsq(p, s).coord,
                         Rule.UNIFORM: self.uniform}[cfg.rule]
        if self.keeps_grad and s.grad is None:
            s.track_gradient(p)
        s.track_objective(p)

    def kept(self, p, s):
        """What the steps keep of the iterate, by name: F, the residual as
        a read gives it and, when kept, the gradient and the hashing
        engine's candidate mask. Each must equal its value made afresh from
        alpha after every move."""
        kept = {"objective": s.objective, "residual": s.residual}
        if self.keeps_grad:
            kept["grad"] = s.grad
        if self.engine is not None:
            kept["mask"] = self.engine.mask.included
        return kept

    def move(self, p, s, j, aj, new):
        """alpha_j goes from aj to new; then update takes the move and, if
        the move refreshed the kept gradient, refresh follows."""
        self._gap = None
        refreshes = s.grad_refreshes
        read = apply_coord_delta(p, s, j, new - aj)
        if self.engine is not None:
            self.engine.note_step(j, new)
        if read is not None:
            self.update(p, s, j, aj, read)
            if s.grad_refreshes != refreshes:
                self.refresh(p, s)

    def _hashed(self, p, s, out):
        f = s.objective
        j, self.fell_back = self.engine.select(p, s, f < self._f_picked)
        self._f_picked = f
        return j

    def update(self, p, s, j, aj, read):
        """Bring what the steps keep up to date with the move of alpha_j
        from aj, whose column read is `read`."""

    def refresh(self, p, s):
        """Remake what the steps keep from the gradient just refreshed."""

    def gap(self, p, s):
        """The duality gap of the iterate as it is."""
        if self._gap is None:
            self._gap = self.read_gap(p, s)
        return self._gap

    def read_gap(self, p, s):
        return duality_gap(p, s)


class _L1Steps(_Steps):
    """L1-type: the steepest-subgradient score, the prox step (or line
    search) truncated at zero, and uniform draws in blocks over all n.

    Every loop but the hashing engine's keeps the full gradient: the exact
    rules read every score each step, and uniform screens its draws with it.
    The prox step and both line searches leave alpha_j = 0 whenever
    |g_j| <= lam, so a draw with alpha_j = 0 and a kept |g_j| below
    `bound` = lam - margin moves nothing. The margin is SCREEN_MARGIN times
    max(lam, max |g|) at the last refresh, and at least
    SCREEN_DRIFT_MULTIPLE times the largest drift a refresh has found. On
    the quadratic losses the step reads that same kept g_j; on logistic it
    takes g_j from a column read, and the margin puts both on the same side
    of lam. A draw inside the margin takes the scalar step. Refresh alone
    remakes the bound, at the start and after each refresh of the
    gradient. The screen reads one limit per coordinate, `limits`: the
    bound where alpha_i = 0 and -inf elsewhere, which no |g_i| is below.
    Refresh remakes them with the bound, and update rewrites entry j.

    The steps also keep the steepest score's offsets, l1_offsets of alpha:
    shift = sign(alpha) lam, zero_lam = lam where alpha_i = 0 and 0
    elsewhere, and the buffer select_gss_l1 scores into. A move changes
    them at its own coordinate only, so update rewrites that entry of each
    from the new alpha_j; a refresh moves no alpha and leaves them be.
    """

    kind = "l1"

    def __init__(self, p, cfg, s, engine=None):
        # the hashing engine reads no score between its every-n checks
        self.keeps_grad = engine is None
        super().__init__(p, cfg, s, engine)
        # cheap rules can't afford an exact score evaluation every iteration
        cheap = cfg.rule is Rule.UNIFORM or engine is not None
        self.check_every = max(1, p.n) if cheap else 1
        # the exact rules read every score anyway, so they also stop at a
        # zero score when tol is 0
        self.checks = not cheap or cfg.tol > 0
        if self.pick != self.uniform or cfg.record_theta:
            self.screen = None  # a theta record steps each draw
        # the current block of coordinates, as an array for the screen and
        # as a list for the scalar draw
        self.block, self.draws, self.drawn = None, [], 0
        self.lam = p.reg.lam
        self.offsets = l1_offsets(s.alpha, self.lam)
        self.refresh(p, s)

    def kept(self, p, s):
        shift, zero_lam, _ = self.offsets
        kept = dict(super().kept(p, s), shift=shift, zero_lam=zero_lam)
        if self.screen is not None:
            kept.update(bound=self.bound, limits=self.limits)
        return kept

    def update(self, p, s, j, aj, read):
        a, lam = s.alpha.item(j), self.lam
        shift, zero_lam, _ = self.offsets
        shift[j] = lam if a > 0.0 else -lam if a < 0.0 else 0.0
        zero_lam[j] = lam if a == 0.0 else 0.0
        if self.screen is not None:
            self.limits[j] = self.bound if a == 0.0 else -math.inf

    def refresh(self, p, s):
        if self.screen is not None:
            lam, top = p.reg.lam, float(np.abs(s.grad).max())
            margin = max(SCREEN_MARGIN * max(lam, top),
                         SCREEN_DRIFT_MULTIPLE * s.max_grad_drift)
            self.bound = lam - margin
            self.limits = np.where(s.alpha == 0.0, self.bound, -math.inf)

    def steepest(self, p, s):
        return select_gss_l1(p, s, offsets=self.offsets)

    def _refill(self, p):
        self.block = self.rng.integers(p.n, size=UNIFORM_BLOCK)
        self.draws = self.block.tolist()
        self.drawn = 0

    def uniform(self, p, s, out):
        if self.drawn == len(self.draws):
            self._refill(p)
        self.drawn += 1
        return self.draws[self.drawn - 1]

    def screen(self, p, s, limit):
        """Consume and return the longest run of pending draws, at most
        limit, that each leave alpha as it is, as a slice of the drawn
        block (joined when the run crosses a refill); it stops before the
        first draw that may move."""
        g, limits = s.grad, self.limits
        if self.drawn == len(self.draws):
            self._refill(p)
        start = self.drawn
        j = self.draws[start]
        # most steps that move fail here, on two scalar reads
        if not abs(g.item(j)) < limits.item(j):
            return self.block[start:start]
        pieces, settled, window = [], 0, SCREEN_WINDOW
        while settled < limit:
            if self.drawn == len(self.draws):
                pieces.append(self.block[start:])
                self._refill(p)
                start = 0
            lo = self.drawn
            hi = min(len(self.draws), lo + window, lo + limit - settled)
            ids = self.block[lo:hi]
            null = np.abs(g[ids]) < limits[ids]  # False on a NaN
            k = int(null.argmin())
            if null[k]:  # the whole window passed
                k = hi - lo
            settled += k
            self.drawn = lo + k
            if lo + k < hi:
                break
            window *= 2
        pieces.append(self.block[start:self.drawn])
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def step(self, p, s, j, aj):
        """(class, new alpha_j), classified against the pre-truncation value."""
        if self.line_search:
            a_plus = line_search_1d(p, s, j)
        else:
            L = self.L
            a_plus = self.prox(aj - coord_grad(p, s, j) / L, L)
        return classify_step_l1(aj, a_plus), \
            (a_plus if aj * a_plus >= 0.0 else 0.0)


class _BoxSteps(_Steps):
    """Unit box: the steepest gradient over the active set (None when it is
    empty), the clipped step (or line search), and uniform draws from the
    active set of the last check. SVM duals also stop on the duality gap.

    The steps keep, read off s when they are made and brought up to date by
    update at every move: the active set's bound state, with
    ActiveSet.from_state's comparisons, `interior` (0 < alpha_i < 1) and
    `sign`, -1 at 0, +1 at 1 and 0 elsewhere, which a move changes at its
    own coordinate only; and |g| in a buffer, which a move rewrites in one
    pass, since its Gram column reaches every entry of g.

    A check scores into one buffer: sign * g, then |g| at the interior.
    sign * g is an exact sign flip, so a member at a bound scores |g| and a
    non-member at most 0. A positive best therefore has the first maximizer
    and the score of select_gss_box over from_state's set, bitwise, and that
    set is (scores > 0) | interior. Otherwise (an empty set, a zero best or
    a NaN) select_gss_box answers over that set.

    A loop that reads the gap (tol > 0 on an SVM dual, or record_gap)
    keeps the gap's two sums, A = sum_i alpha_i g_i and S = sum_i g_i;
    making them calls duality_gap once, which refuses every problem but an
    SVM dual with c = -(1/n) 1 before any move. The gap, duality_gap's
    sum_i alpha_i g_i + max(-g_i, 0), is then A - (S - sum_i |g_i|) / 2,
    one sum over the |g| buffer. A move of alpha_j by delta moves g by
    delta/scale A^T A_j, so A by delta <A_j, nabla l(v)> (the dot of the
    column read the move used) plus delta times the new g_j, and S by
    delta/scale (A^T A 1)_j; update's delta is never 0, since move calls it
    only on a nonzero request, which always changes alpha_j. After a move
    that refreshes the gradient, refresh recomputes both sums, and the
    largest change that makes to the gap is max_gap_drift.
    """

    kind = "box"
    keeps_grad = True  # the active set and the SVM gap read every entry
    checks = True      # an empty active set certifies optimality
    sums = None        # [A, S], kept only for a gap the loop reads

    def __init__(self, p, cfg, s, engine=None):
        super().__init__(p, cfg, s, engine)
        self.check_every = max(1, p.n) if engine is not None else 1
        self.check_gap = p.loss.has_gap and cfg.tol > 0
        alpha = s.alpha
        self.interior = (alpha > 0) & (alpha < 1)
        self.sign = (alpha == 1).astype(float) - (alpha == 0)
        self.scores, self.abs_g = np.empty(p.n), np.abs(s.grad)
        self._draw_buf = np.empty(p.n, dtype=bool)  # uniform's scratch
        if self.check_gap or cfg.record_gap:
            duality_gap(p, s)  # refuses all but the SVM dual's gap
            self.sums = self._fresh_sums(s)
            self.gram_sums = p.matrix.gram_row_sums()

    def kept(self, p, s):
        kept = dict(super().kept(p, s), interior=self.interior,
                    sign=self.sign, abs_g=self.abs_g)
        if self.sums is not None:
            kept.update(sums=self.sums, gap=self.read_gap(p, s))
        return kept

    @staticmethod
    def _fresh_sums(s):
        g = s.grad
        return [float(s.alpha @ g), float(g.sum())]

    def update(self, p, s, j, aj, read):
        a, g = s.alpha.item(j), s.grad
        self.interior[j] = 0 < a < 1
        self.sign[j] = float(a == 1) - float(a == 0)
        np.abs(g, out=self.abs_g)
        sums = self.sums
        if sums is not None:
            delta = a - aj  # the change alpha_j took
            sums[0] += delta * read[4] + delta * g.item(j)
            sums[1] += delta * (1.0 / p.loss_scale) * self.gram_sums.item(j)

    def refresh(self, p, s):
        sums = self.sums
        if sums is not None:
            kept = sums[0] - 0.5 * sums[1]
            self.sums = sums = self._fresh_sums(s)
            self.max_gap_drift = max(self.max_gap_drift,
                                     abs(sums[0] - 0.5 * sums[1] - kept))

    def read_gap(self, p, s):
        a, total = self.sums
        # ndarray.sum's own pairwise reduction, without its method layers
        return a - 0.5 * (total - float(np.add.reduce(self.abs_g)))

    @property
    def members(self):
        """The active set of the last check, as from_state's mask."""
        return (self.scores > 0) | self.interior

    def steepest(self, p, s):
        g, buf = s.grad, self.scores
        np.multiply(self.sign, g, out=buf)
        np.putmask(buf, self.interior, self.abs_g)
        j = int(buf.argmax())  # argmax returns the first maximizer
        m = buf.item(j)
        if m > 0.0:
            return SelectionOutcome(coord=j, score=m)
        return select_gss_box(p, s, active=ActiveSet(self.members), grad=g)

    def uniform(self, p, s, out):
        # the members mask, written into a scratch buffer, not a new array
        buf = np.greater(self.scores, 0, out=self._draw_buf)
        buf |= self.interior
        ids = buf.nonzero()[0]
        return ids.item(self.rng.integers(len(ids)))

    def step(self, p, s, j, aj):
        """(class, new alpha_j), classified against the pre-clip target."""
        raw = aj - coord_grad(p, s, j) / self.L
        new = line_search_1d(p, s, j) if self.line_search \
            else self.prox(raw, self.L)
        return classify_step_box(aj, raw), new


def _steps_for(p, cfg, s, engine=None):
    """The steps of the loop kind the problem's regularizer takes, for a
    solve from s."""
    steps = {_L1Steps.kind: _L1Steps, _BoxSteps.kind: _BoxSteps}
    return steps[p.reg.kind](p, cfg, s, engine)


def _make_engine(p, cfg):
    """The hashing engine the config asks for, or None for the exact rules:
    an exact engine's answer is the steepest rule's argmax."""
    engine = cfg.engine
    if engine == "smips":
        engine = SmipsEngine(p, backend=cfg.backend)
    elif engine == "exact":
        return None
    elif not isinstance(engine, SmipsEngine):
        raise ValueError("engine must be 'exact', 'smips', or a prebuilt "
                         "engine")
    return None if engine.is_exact else engine


def _descend(p, s, steps, cfg, records, t_last=0):
    """The step loop, which _solve alone enters.

    Takes at most cfg.max_iters steps from s with the stop checks, picks,
    steps and moves of `steps`, and records in `records` a step every
    cfg.trace_every steps and the last step. Each step runs the stop check
    when one is due, then the screen, then the steps' one pick, from the
    last check's answer. Returns (status, counters, time of the last
    record).

    Uniform draws that the steps' screen settles from the kept gradient
    are booked in bulk as good steps that move nothing, in runs that end
    before the next stop check. The loop keeps only its records and
    counters: all that derives from the iterate belongs to `steps`.
    """
    counters = {GOOD: 0, BAD: 0, CROSS: 0, "fallback": 0, "screened": 0}
    # loop-invariant lookups, hoisted: uniform steps cost a few microseconds
    tol, record_gap, max_iters = cfg.tol, cfg.record_gap, cfg.max_iters
    record_theta, trace_every = cfg.record_theta, cfg.trace_every
    steepest, pick, step = steps.steepest, steps.pick, steps.step
    move, checks, check_every = steps.move, steps.checks, steps.check_every
    check_gap, gap, screen = steps.check_gap, steps.gap, steps.screen
    clock = time.perf_counter_ns
    add_row = records.rows.append
    status = "max_iters"
    pending = None  # the last step's row, while it is not recorded
    out = None  # the last check's answer
    t = 0
    while t < max_iters:
        if check_gap and gap(p, s) <= tol:
            status = "tol"
            break
        if checks and t % check_every == 0:
            out = steepest(p, s)
            if out is None:
                status = "optimal"
                break
            if out.score <= tol:
                status = "tol"
                break
        if screen is not None:
            end = min(max_iters, (t // check_every + 1) * check_every) \
                if checks else max_iters
            settled = screen(p, s, end - t)
            k = len(settled)
            if k:
                counters[GOOD] += k
                counters["screened"] += k
                f, nnz = s.objective, s.nnz
                first = t + (-t) % trace_every
                if first < t + k:
                    records.runs.append(settled[first - t::trace_every])
                    now = clock()
                    row = (len(records.runs[-1]), first, -1, KIND_CODE[GOOD],
                           f, 1.0, False, now - t_last, nnz)
                    # nothing moves in a run, so one gap holds for all of it
                    add_row(row + (gap(p, s),) if record_gap else row)
                    t_last = now
                last = t + k - 1
                pending = None if last % trace_every == 0 else \
                    (1, last, int(settled[-1]), KIND_CODE[GOOD], f, 1.0,
                     False, 0, nnz)
                t += k
                if t == end:
                    continue  # a stop check or the end comes first
        j = pick(p, s, out)
        theta = measure_theta(j, p, s) if record_theta else 1.0
        aj = s.alpha.item(j)
        kind, new = step(p, s, j, aj)
        move(p, s, j, aj, new)

        counters[kind] += 1
        counters["fallback"] += steps.fell_back
        if t % trace_every:
            pending = (1, t, j, KIND_CODE[kind], s.objective, theta,
                       steps.fell_back, 0, s.nnz)
        else:
            now = clock()
            row = (1, t, j, KIND_CODE[kind], s.objective, theta,
                   steps.fell_back, now - t_last, s.nnz)
            add_row(row + (gap(p, s),) if record_gap else row)
            t_last, pending = now, None
        t += 1
    if pending is not None:
        # nothing moved the iterate since this step, so its gap is current
        add_row(pending + (gap(p, s),) if record_gap else pending)
    return status, counters, t_last


def _solve(p, cfg, start=None):
    """The trace of a solve from alpha = 0, or from a copy of the state
    `start`: the one way into the step loop."""
    cfg.validate()
    engine = _make_engine(p, cfg)
    t_last = time.perf_counter_ns()  # an index build is reported apart
    s = IterateState.zeros(p) if start is None else IterateState(
        start.alpha.copy(), start.residual.copy(), start.nnz)
    steps = _steps_for(p, cfg, s, engine)
    f0 = s.objective
    records = _Records(cfg.trace_every)
    status, counters, t_last = _descend(p, s, steps, cfg, records, t_last)
    steps.pick = None  # a pick bound to the steps holds them in a cycle
    # the last record's objective is recomputed exactly, and it takes the
    # time since the previous record, the stop check included
    cols, f_drift = records.columns(), s.max_f_drift
    if len(cols["iter"]):
        f_last = cols["f_value"][-1] = objective_value(p, s)
        f_drift = max(f_drift, abs(f_last - s.objective))
        cols["wall_ns"][-1] += time.perf_counter_ns() - t_last
    counters.update(grad_refreshes=s.grad_refreshes,
                    max_grad_drift=s.max_grad_drift, max_f_drift=f_drift,
                    max_gap_drift=steps.max_gap_drift)
    s.untrack()  # a trace keeps its final state, not the kept gradient
    return Trace(f_initial=f0, columns=cols, counters=counters,
                 final_state=s, status=status, problem_kind=steps.kind)


def solve_l1(p, cfg):
    """Steepest coordinate descent for L1-regularized composites from alpha=0.

    Each step takes the prox step (or exact line search), classifies it
    against the pre-truncation value, and truncates sign-crossing updates
    to zero. Stops when the steepest-subgradient norm reaches cfg.tol.
    """
    if not isinstance(p.reg, (L1, ElasticNetL1)):
        raise TypeError("solve_l1 needs an L1-type regularizer")
    return _solve(p, cfg)


def solve_box(p, cfg):
    """Steepest coordinate descent over the active set of a unit-box problem.

    An empty active set certifies optimality. Updates clip the gradient step
    to [0, 1]; classification uses the pre-clip target. Status "tol" means
    that the steepest score over the active set reached cfg.tol or, on
    SVM-dual problems, that the duality gap did, whichever came first; so
    a "tol" stop does not by itself mean gap <= cfg.tol.
    """
    if not isinstance(p.reg, Box):
        raise TypeError("solve_box needs a box regularizer")
    return _solve(p, cfg)


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
