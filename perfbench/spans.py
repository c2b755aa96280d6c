"""In-memory span recorder that wraps greedycd's public functions from outside.

A wrapper replaces a function in the namespace its caller looks it up in
(``greedycd.solver.full_grad``, ``SparseColMatrix.matvec_T``, ...). Each call
appends one span ``[name, start_ns, end_ns, parent, tag]`` to a list; nothing
is written out until the benchmark reads the list. ``uninstall`` puts every
original object back, so untraced code after it runs the unmodified program.
"""

import time

import greedycd.data_io as data_io
import greedycd.harness as harness
import greedycd.objectives as objectives
import greedycd.selection as selection
import greedycd.smips as smips
import greedycd.solver as solver
import greedycd.sparse as sparse

NAME, START, END, PARENT, TAG = range(5)


def config_label(cfg):
    """The benchmark's name for the selection a SolverConfig asks for."""
    engine = cfg.engine
    if isinstance(engine, solver.SmipsEngine):
        return "smips-exact" if engine.is_exact else "smips-lsh"
    return cfg.rule.value


def _solve_tag(args, result):
    return {"config": config_label(args[1]), "trace": result}


def _matvec_bytes(args, result):
    # computed, not measured: values + row ids read once, the gathered input
    # vector, the column starts and the output vector
    m = args[0]
    return 16 * m.nnz + 8 * m.n_rows + 16 * m.n_cols + 8


def _backend_kind(args, result):
    return type(args[3]).__name__


def _engine_backend(args, result):
    # runs after __init__, so the engine's own backend is already set
    return type(args[0].backend).__name__


def _count(args, result):
    return len(result)


# (owner, attribute, span name, tag function or None). A function imported
# into several modules is wrapped in each, under one span name.
TIMERS = [
    (harness, "build_problem", "harness.build_problem", None),
    (harness, "solve_l1", "solver.solve", _solve_tag),
]

FULL = [
    # solver
    (solver, "solve_l1", "solver.solve", _solve_tag),
    (solver, "solve_box", "solver.solve", _solve_tag),
    (harness, "solve_l1", "solver.solve", _solve_tag),
    (harness, "solve_box", "solver.solve", _solve_tag),
    (solver, "line_search_1d", "solver.line_search_1d", None),
    (solver.SmipsEngine, "select", "smips.engine_select", None),
    (solver.SmipsEngine, "note_step", "smips.engine_note_step", None),
    (solver.SmipsEngine, "__init__", "smips.engine_build", _engine_backend),
    # objectives, as the solver, selection, harness and objectives see them
    (solver, "full_grad", "objectives.full_grad", None),
    (selection, "full_grad", "objectives.full_grad", None),
    (objectives, "full_grad", "objectives.full_grad", None),
    (harness, "full_grad", "objectives.full_grad", None),
    (solver, "subgrad_score", "objectives.subgrad_score", None),
    (selection, "subgrad_score", "objectives.subgrad_score", None),
    (harness, "subgrad_score", "objectives.subgrad_score", None),
    (solver, "coord_grad", "objectives.coord_grad", None),
    (harness, "coord_grad", "objectives.coord_grad", None),
    (solver, "apply_coord_delta", "objectives.apply_coord_delta", None),
    (harness, "apply_coord_delta", "objectives.apply_coord_delta", None),
    (solver, "objective_value", "objectives.objective_value", None),
    (harness, "objective_value", "objectives.objective_value", None),
    (solver, "duality_gap", "objectives.duality_gap", None),
    (objectives.IterateState, "recompute_residual",
     "objectives.residual_refresh", None),
    # selection
    (solver, "select_gsq", "selection.select_gsq", None),
    (solver, "select_gsr", "selection.select_gsr", None),
    (solver, "select_uniform", "selection.select_uniform", None),
    (selection.ActiveSet, "from_state", "selection.active_set", None),
    # sparse kernels
    (sparse.SparseColMatrix, "matvec_T", "sparse.matvec_T", _matvec_bytes),
    (sparse.SparseColMatrix, "__init__", "sparse.build", None),
    (sparse.SparseColMatrix, "transpose", "sparse.build", None),
    (objectives, "col_dot", "sparse.col_dot", None),
    (objectives, "col_axpy", "sparse.col_axpy", None),
    # smips
    (smips, "smips_query", "smips.query", _backend_kind),
    (smips.HyperplaneLsh, "fit", "smips.lsh_fit", None),
    (smips.HyperplaneLsh, "candidates", "smips.lsh_candidates", _count),
    # data_io, as the benchmark and the harness see it
    (data_io, "gen_synthetic", "data_io.gen_synthetic", None),
    (harness, "gen_synthetic", "data_io.gen_synthetic", None),
    (data_io, "fold_labels", "data_io.fold_labels", None),
    (harness, "fold_labels", "data_io.fold_labels", None),
    (harness, "parse_libsvm", "data_io.parse_libsvm", None),
    # harness
    (harness, "build_problem", "harness.build_problem", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "adaptivity_report", "harness.adaptivity_report", None),
    (harness, "_polish", "harness.polish", None),
]


class Recorder:
    """Installs wrappers, collects spans, and restores the originals.

    ``after``, when given, is called after every wrapped call returns, outside
    its span (the end-to-end runs use it to measure machine speed between the
    harness's load and solves).
    """

    def __init__(self, targets, after=None):
        self.spans = []
        self._stack = []
        self._saved = []
        self._after = after
        for owner, attr, name, tag in targets:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, tag))

    def _wrap(self, fn, name, tag):
        spans, stack, after = self.spans, self._stack, self._after
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(args, result)
            if after is not None:
                after()
            return result
        return wrapper

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def interval_s(span):
    """The span as a (start, end) pair on the time.perf_counter scale."""
    return span[START] * 1e-9, span[END] * 1e-9


def outermost(spans, name):
    """Spans called ``name`` that have no ancestor of the same name."""
    out = []
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            out.append(s)
    return out
