"""Experiment orchestration: build a problem from a dataset or synthetic
spec, execute a list of solver runs one after another, certify each run by
its duality gap, and emit a metrics CSV, a JSON summary, an adaptivity
report for the hashing engine, and plot-ready wide CSVs.
"""

import csv
import io
import itertools
import json
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


def _write_csv(fh, header, rows, lineterminator="\r\n"):
    """The header, then each row's values in header order; None is written
    as an empty cell."""
    w = csv.writer(fh, lineterminator=lineterminator)
    w.writerow(header)
    w.writerows(rows)


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
    (the rows and the CSV write).

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
    rows = []
    summary = {"problem": cfg.problem, "n": p.n, "d": p.d,
               "f_lower": f_lower, "f_upper": f_upper,
               "load_seconds": info["load_seconds"],
               "certify_seconds": t_csv - t_certify, "csv_seconds": None,
               "seconds": None, "kept_bytes": p.matrix._kept_bytes,
               "runs": {}, "errors": errors}
    for run in cfg.runs:
        if run.name not in results:
            continue
        trace, engine = results[run.name]
        c = trace.columns
        f = c["f_value"]
        rows += [{"run": run.name, "iter": i, "wall_ns": w, "f_value": v,
                  "suboptimality": sub, "nnz": z, "step_kind": kind,
                  "coord": j, "theta": th, "gap": gap, "test_accuracy": None,
                  "fell_back": fb}
                 for i, w, v, sub, z, kind, j, th, gap, fb in zip(
                     c["iter"].tolist(), c["wall_ns"].tolist(), f.tolist(),
                     (f - f_lower).tolist(), c["nnz"].tolist(),
                     np.array(KINDS)[c["step_kind"]].tolist(),
                     c["coord"].tolist(), c["theta"].tolist(),
                     c["gap"].tolist() if "gap" in c
                     else itertools.repeat(None),
                     c["fell_back"].astype(int).tolist())]
        if len(f):
            rows[-1]["test_accuracy"] = _test_accuracy(
                p, trace.final_state, info["test"], cfg.problem)
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
            _write_csv(fh, CSV_HEADER, (row.values() for row in rows))
    t_end = time.perf_counter()
    summary["csv_seconds"], summary["seconds"] = t_end - t_csv, t_end - t0
    if cfg.out:
        with open(cfg.out + ".json", "w") as fh:
            json.dump(summary, fh, indent=2, default=str)
    summary["rows"] = rows
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
            _write_csv(fh, ["iter", "exact_all", "exact_mask", "lsh_all",
                            "lsh_mask", "ratio", "fell_back"],
                       (row.values() for row in rows))
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


def emit_plot_csv(rows, x_axis="iter", stream=None):
    """Wide plot CSV: per run, an x column and a floored suboptimality column.

    x is the iteration count or the cumulative wall time in seconds. Series
    are downsampled to at most MAX_PLOT_POINTS keeping both endpoints.
    """
    if not rows:
        raise ValueError("no metric rows to plot")
    if x_axis not in ("iter", "wall"):
        raise ValueError("x_axis must be 'iter' or 'wall'")
    series = {}
    for row in rows:
        series.setdefault(row["run"], []).append(row)
    header, columns = [], []
    for name, recs in series.items():
        if x_axis == "iter":
            xs = [r["iter"] for r in recs]
        else:
            xs = (np.cumsum([r["wall_ns"] for r in recs]) / 1e9).tolist()
        ys = [max(float(r["suboptimality"] or 0.0), SUBOPT_FLOOR)
              for r in recs]
        keep = _downsample(len(recs))
        header += ["%s_%s" % (name, x_axis), "%s_suboptimality" % name]
        columns += [[xs[i] for i in keep], [ys[i] for i in keep]]
    buf = io.StringIO()
    _write_csv(buf, header, itertools.zip_longest(*columns),
               lineterminator="\n")
    text = buf.getvalue()
    if stream is not None:
        if isinstance(stream, str):
            with open(stream, "w") as fh:
                fh.write(text)
        else:
            stream.write(text)
    return text
