"""Experiment orchestration: build a problem from a dataset or synthetic
spec, execute a list of solver runs one after another, certify each run by
its duality gap, and emit a metrics CSV, a JSON summary, an adaptivity
report for the hashing engine, and plot-ready wide CSVs.
"""

import csv
import io
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import smips as sm
from .data_io import (SynthSpec, fold_labels, gen_synthetic, normalize_columns,
                      parse_libsvm, regression_view, train_test_split)
# apply_coord_delta, coord_grad, full_grad, objective_value and subgrad_score
# stay importable from here: instrumentation wraps them by these names
from .objectives import (apply_coord_delta, coord_grad, duality_gap,
                         full_grad, make_elastic_net, make_lasso,
                         make_logistic, make_svm_dual, objective_value,
                         subgrad_score)
from .selection import Rule
# _polish and adaptivity_report solve through _solve, not solve_l1/solve_box:
# instrumentation counts each call of those as a solve
from .solver import KINDS, SmipsEngine, SolverConfig, _solve, solve_box, \
    solve_l1

__all__ = ["RunSpec", "ExperimentConfig", "build_problem", "run_experiment",
           "adaptivity_report", "emit_plot_csv", "CSV_HEADER"]

CSV_HEADER = ["run", "iter", "wall_ns", "f_value", "suboptimality", "nnz",
              "step_kind", "coord", "theta", "gap", "test_accuracy",
              "fell_back"]

SUBOPT_FLOOR = 1e-16
MAX_PLOT_POINTS = 2000
# rows a CSV writer formats at once: its cells are transients, so a whole
# column at once would raise the peak memory
CSV_CHUNK_ROWS = 1024
# KINDS as an array that a step_kind column indexes
_KIND_NAMES = np.array(KINDS, dtype=object)


@dataclass
class RunSpec:
    name: str
    rule: str = "gs-s"
    engine: str = "exact"          # "exact" | "smips"
    backend: str = "exact-scan"    # "exact-scan" | "lsh"
    lsh_bits: int = 8
    lsh_tables: int = 10
    use_line_search: bool = False


@dataclass
class ExperimentConfig:
    problem: str                   # lasso | svm | logistic | elasticnet
    data: object                   # path to a libsvm file, or SynthSpec
    runs: list
    lam: float = 0.1
    lam2: float = 0.0
    beta: float = None
    max_iters: int = 1000
    tol: float = 1e-8
    seed: int = 0
    out: str = None                # output path prefix
    normalize: bool = False
    test_split: float = 0.0        # held-out fraction, svm and logistic
    workers: int = 1               # runs execute one after another

    def validate(self):
        if self.problem not in ("lasso", "svm", "logistic", "elasticnet"):
            raise ValueError("unknown problem kind: %r" % self.problem)
        if not self.runs:
            raise ValueError("experiment needs at least one run")
        names = [r.name for r in self.runs]
        if len(set(names)) != len(names):
            raise ValueError("run names must be unique")
        if self.test_split and (not 0 < self.test_split < 1 or
                                self.problem not in ("svm", "logistic")):
            raise ValueError("test_split applies to svm and logistic problems "
                             "only and lies in (0, 1), got %r for %s"
                             % (self.test_split, self.problem))
        if self.workers != 1:
            raise ValueError("workers must be 1: runs execute one after "
                             "another, got %r" % (self.workers,))
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ValueError("out %r: directory %r does not exist"
                             % (self.out, os.path.dirname(self.out)))
        SolverConfig(max_iters=self.max_iters, tol=self.tol,
                     seed=self.seed).validate()


def _load_dataset(cfg):
    if isinstance(cfg.data, SynthSpec):
        ds = gen_synthetic(cfg.data)
    else:
        ds = parse_libsvm(cfg.data, name=str(cfg.data))
    if cfg.normalize:
        ds, _, _ = normalize_columns(ds)
    return ds


def build_problem(cfg):
    """(problem, info) for the configured experiment; info carries the
    dataset, any held-out test set, and the load time in seconds."""
    t0 = time.perf_counter()
    ds = _load_dataset(cfg)
    test = None
    if cfg.test_split > 0:
        ds, test = train_test_split(ds, 1.0 - cfg.test_split, seed=cfg.seed)
    if cfg.problem == "lasso":
        M, b = (ds.matrix, ds.labels) if isinstance(cfg.data, SynthSpec) \
            else regression_view(ds)
        p = make_lasso(M, b, cfg.lam)
    elif cfg.problem == "elasticnet":
        M, b = (ds.matrix, ds.labels) if isinstance(cfg.data, SynthSpec) \
            else regression_view(ds)
        p = make_elastic_net(M, b, cfg.lam, cfg.lam2)
    elif cfg.problem == "svm":
        p = make_svm_dual(fold_labels(ds), cfg.lam)
    else:
        # logistic is solved in the primal: rows are label-folded examples,
        # columns are features, alpha is the weight vector
        p = make_logistic(fold_labels(ds).transpose(), cfg.lam)
    info = {"dataset": ds, "test": test,
            "load_seconds": time.perf_counter() - t0}
    return p, info


def _solver_config(p, cfg, run):
    """The SolverConfig of one run, carrying its built SmipsEngine when the
    run names engine "smips" and p is given. The backend is checked against
    the engine and the config validated first, so p=None checks a run
    before its data is loaded, and a refused run pays for no index build."""
    if run.backend not in ("exact-scan", "lsh") or \
            run.backend == "lsh" and run.engine != "smips":
        raise ValueError("backend %r does not run with engine %r: the "
                         "backends are 'exact-scan' and 'lsh', which needs "
                         "engine 'smips'" % (run.backend, run.engine))
    scfg = SolverConfig(
        rule=Rule(run.rule), engine=run.engine,
        use_line_search=run.use_line_search, max_iters=cfg.max_iters,
        tol=cfg.tol, seed=cfg.seed, record_gap=(cfg.problem == "svm"))
    scfg.validate()
    if run.engine == "smips" and p is not None:
        backend = sm.HyperplaneLsh(run.lsh_bits, run.lsh_tables, cfg.seed) \
            if run.backend == "lsh" else None
        scfg.engine = SmipsEngine(p, backend=backend, beta=cfg.beta)
    return scfg


def _quote_minimal(text, lineterminator):
    """text as csv.writer writes it as one cell of a row of several."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator).writerow([text, None])
    return buf.getvalue()[:-1 - len(lineterminator)]


def _cells(column):
    """The cells of one column's slice. A list holds plain values, None for
    an empty cell. An array's entries are formatted once per run of equal
    entries, floats compared by their bits, so -0.0 and 0.0 stay apart."""
    if not isinstance(column, np.ndarray):
        return ["" if v is None else str(v) for v in column]
    bits = column.view(np.int64) if column.dtype == np.float64 else column
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if len(starts) + 1 == len(column):
        return list(map(str, column.tolist()))
    starts = np.append(0, starts)
    firsts = np.array(list(map(str, column[starts].tolist())), dtype=object)
    return np.repeat(firsts, np.diff(np.append(starts, len(column)))).tolist()


def _write_columns(fh, header, parts, lineterminator="\r\n"):
    """Write the header, then each part's rows, bytewise as a csv.writer
    writes them. A part is (n_rows, columns) with one entry per header
    name: an array or a list of n_rows values, or a str, the one cell of
    every row (quoted once, as csv's QUOTE_MINIMAL does). Only str columns
    are quoted, so values elsewhere must need none, as numbers do. The
    rows are formatted column by column in chunks of CSV_CHUNK_ROWS, which
    bounds the cells held at once."""
    csv.writer(fh, lineterminator=lineterminator).writerow(header)
    for n, columns in parts:
        quoted = {k: _quote_minimal(c, lineterminator)
                  for k, c in enumerate(columns) if isinstance(c, str)}
        for lo in range(0, n, CSV_CHUNK_ROWS):
            hi = min(lo + CSV_CHUNK_ROWS, n)
            cells = [[quoted[k]] * (hi - lo) if k in quoted
                     else _cells(c[lo:hi]) for k, c in enumerate(columns)]
            fh.write(lineterminator.join(map(",".join, zip(*cells)))
                     + lineterminator)


# nothing calls _polish; it stays importable from here only because the
# traced benchmark wraps it by this name (perfbench/spans.py)
def _polish(p, state, iters):
    """The objective after at most `iters` exact steepest steps from a copy
    of state, which stop once the steepest score, or an SVM dual's duality
    gap, is at round-off."""
    cfg = SolverConfig(max_iters=iters, tol=1e-14)
    return float(_solve(p, cfg, start=state).f_values[-1])


def _test_accuracy(p, state, test, problem):
    """Fraction of held-out examples on the correct side of the margin."""
    if test is None:
        return None
    if problem == "svm":
        w = state.residual / (p.loss.svm_lambda * p.n)
    elif problem == "logistic":
        w = state.alpha
    else:
        return None
    folded = fold_labels(test)
    if folded.n_rows != len(w):
        return None
    return float(np.mean(folded.matvec_T(w) > 0))


def run_experiment(cfg):
    """Execute all runs, certify them, write CSV + JSON, return summary.

    A failing run is reported in the summary and does not abort its siblings.
    Each run's `seconds` is its solve alone; the index build is its
    `build_seconds`. The summary's `seconds` runs from the call to the CSV
    written, and takes in `load_seconds`, the index builds, the solves,
    `certify_seconds` (the gaps and the F* interval) and `csv_seconds`
    (the CSV write). The returned summary is the JSON's, plus `traces`:
    each completed run's name to its Trace, whose columns the metrics CSV
    and emit_plot_csv read.

    After the solves, each run's duality gap at its final state bounds
    F*: f_lower is the largest final F less its gap (or the lowest F
    recorded, if that is lower), f_upper the best final F, and each row's
    suboptimality f - f_lower is a certified upper bound on f - F*.
    """
    t0 = time.perf_counter()
    cfg.validate()
    p, info = build_problem(cfg)
    results, errors, solve_seconds = {}, {}, {}
    solve = solve_box if cfg.problem == "svm" else solve_l1
    for run in cfg.runs:
        try:
            scfg = _solver_config(p, cfg, run)
            t_solve = time.perf_counter()
            results[run.name] = solve(p, scfg), scfg.engine
            solve_seconds[run.name] = time.perf_counter() - t_solve
        except Exception as exc:
            errors[run.name] = "%s: %s" % (type(exc).__name__, exc)

    t_certify = time.perf_counter()
    finals = {name: float(trace.f_values[-1])
              for name, (trace, _) in results.items()}
    gaps = {name: duality_gap(p, trace.final_state)
            for name, (trace, _) in results.items()}
    f_lower = f_upper = None
    if results:
        f_upper = min(finals.values())
        f_lower = min(min(float(trace.f_values.min())
                          for trace, _ in results.values()),
                      max(finals[name] - gaps[name] for name in results))

    t_csv = time.perf_counter()
    summary = {"problem": cfg.problem, "n": p.n, "d": p.d,
               "f_lower": f_lower, "f_upper": f_upper,
               "load_seconds": info["load_seconds"],
               "certify_seconds": t_csv - t_certify, "csv_seconds": None,
               "seconds": None, "kept_bytes": p.matrix._kept_bytes,
               "runs": {}, "errors": errors}
    parts = []
    for run in cfg.runs:
        if run.name not in results:
            continue
        trace, engine = results[run.name]
        c = trace.columns
        f = c["f_value"]
        accuracy = [None] * len(f)
        if len(f):
            accuracy[-1] = _test_accuracy(p, trace.final_state, info["test"],
                                          cfg.problem)
        parts.append((len(f), [
            run.name, c["iter"], c["wall_ns"], f, f - f_lower, c["nnz"],
            _KIND_NAMES[c["step_kind"]], c["coord"], c["theta"],
            c.get("gap", ""), accuracy, c["fell_back"].view(np.int8)]))
        total = max(1, trace.n_steps)
        summary["runs"][run.name] = {
            "status": trace.status,
            "counters": trace.counters,
            "final_f": finals[run.name],
            "gap": gaps[run.name],
            "steps": trace.n_steps,
            "seconds": solve_seconds[run.name],
            "fallback_rate": trace.counters["fallback"] / total,
            "build_seconds": 0.0 if engine == "exact"
            else engine.build_seconds,
        }

    if cfg.out:
        with open(cfg.out + ".csv", "w", newline="") as fh:
            _write_columns(fh, CSV_HEADER, parts)
    t_end = time.perf_counter()
    summary["csv_seconds"], summary["seconds"] = t_end - t_csv, t_end - t0
    if cfg.out:
        with open(cfg.out + ".json", "w") as fh:
            json.dump(summary, fh, indent=2, default=str)
    summary["traces"] = {name: trace for name, (trace, _) in results.items()}
    return summary


def adaptivity_report(cfg):
    """Four-way per-iteration comparison of search strategies.

    Logs the exact max inner product over all points, the exact max over the
    live candidate subset, and the hashing engine's answers over both, while
    the solvers' step loop follows the exact subset answer, which a selector
    logging each row gives it; a stop at tol logs the final iterate's row.
    Each row builds its live subset afresh from its iterate. Requires
    exactly one configured run with the "lsh" backend, taken as a solve
    takes it: engine "smips", rule gs-s, and its steps as the run sets them.
    """
    cfg.validate()
    lsh_runs = [r for r in cfg.runs if r.backend == "lsh"]
    if len(lsh_runs) != 1:
        raise ValueError("adaptivity report needs exactly one lsh run")
    _solver_config(None, cfg, lsh_runs[0])  # refused before any load
    p, _ = build_problem(cfg)
    scfg = _solver_config(p, cfg, lsh_runs[0])
    engine = scfg.engine
    points, lsh = engine.points, engine.backend
    all_mask = sm.SubsetMask(included=np.ones(points.n_points, dtype=bool),
                             kind=engine.kind)
    rows = []

    def four_way(p, s):
        """Log the four searches at s, over s's live subset; the exact
        subset answer's coordinate."""
        engine.reset_mask(s.alpha)
        q = engine.query(p, s)
        pid_m, exact_mask, _ = sm.smips_query(points, q, engine.mask,
                                              sm.Exact())
        _, exact_all, _ = sm.smips_query(points, q, all_mask, sm.Exact())
        _, lsh_all, fb_a = sm.smips_query(points, q, all_mask, lsh)
        _, lsh_mask, fb_m = sm.smips_query(points, q, engine.mask, lsh)
        ratio = lsh_mask / exact_mask if exact_mask > 0 else None
        rows.append({"iter": len(rows), "exact_all": exact_all,
                     "exact_mask": exact_mask, "lsh_all": lsh_all,
                     "lsh_mask": lsh_mask, "ratio": ratio,
                     "fell_back": int(fb_a or fb_m)})
        return sm.point_to_coordinate(points, pid_m)[0]

    trace = _solve(p, replace(
        scfg, engine="exact", selector=four_way, record_gap=False))
    if trace.status != "max_iters":
        four_way(p, trace.final_state)
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    report = {"rows": rows,
              "median_ratio": float(np.median(ratios)) if ratios else None,
              "fallbacks": int(sum(r["fell_back"] for r in rows))}
    if cfg.out:
        with open(cfg.out + "_adaptivity.csv", "w", newline="") as fh:
            header = ["iter", "exact_all", "exact_mask", "lsh_all",
                      "lsh_mask", "ratio", "fell_back"]
            _write_columns(fh, header, [(len(rows), [
                [row[name] for row in rows] for name in header])])
        with open(cfg.out + "_adaptivity.json", "w") as fh:
            json.dump({k: v for k, v in report.items() if k != "rows"},
                      fh, indent=2)
    return report


def _downsample(k):
    """Indices keeping first and last of a series of length k, at most
    MAX_PLOT_POINTS of them."""
    if k <= MAX_PLOT_POINTS:
        return np.arange(k)
    idx = np.linspace(0, k - 1, MAX_PLOT_POINTS).round().astype(int)
    return np.unique(idx)


def emit_plot_csv(summary, x_axis="iter", stream=None):
    """Wide plot CSV of a run_experiment summary: per run, an x column and
    a floored suboptimality column, read off the run's trace columns.

    x is the iteration count or the cumulative wall time in seconds; the
    suboptimality is max(f - f_lower, SUBOPT_FLOOR), f - f_lower being the
    metrics CSV's. Series are downsampled to at most MAX_PLOT_POINTS
    keeping both endpoints; a run with no recorded step leaves its
    columns empty.
    """
    if not summary["traces"]:
        raise ValueError("no runs to plot")
    if x_axis not in ("iter", "wall"):
        raise ValueError("x_axis must be 'iter' or 'wall'")
    header, columns = [], []
    for name, trace in summary["traces"].items():
        c = trace.columns
        xs = c["iter"] if x_axis == "iter" else np.cumsum(c["wall_ns"]) / 1e9
        ys = np.maximum(c["f_value"] - summary["f_lower"], SUBOPT_FLOOR)
        keep = _downsample(len(xs))
        header += ["%s_%s" % (name, x_axis), "%s_suboptimality" % name]
        columns += [xs[keep].tolist(), ys[keep].tolist()]
    n = max(map(len, columns))
    buf = io.StringIO()
    _write_columns(buf, header, [(n, [c + [None] * (n - len(c))
                                      for c in columns])],
                   lineterminator="\n")
    text = buf.getvalue()
    if stream is not None:
        if isinstance(stream, str):
            with open(stream, "w") as fh:
                fh.write(text)
        else:
            stream.write(text)
    return text
