"""Experiment orchestration: build a problem from a dataset or synthetic
spec, execute a list of solver runs (optionally in parallel), estimate the
optimal value by a long exact polish, and emit a metrics CSV, a JSON summary,
an adaptivity report for the hashing engine, and plot-ready wide CSVs.
"""

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import smips as sm
from .data_io import (SynthSpec, fold_labels, gen_synthetic, normalize_columns,
                      parse_libsvm, regression_view, train_test_split)
# full_grad stays importable from here: instrumentation wraps it by this name
from .objectives import (IterateState, apply_coord_delta, coord_grad,
                         full_grad, grad_l, make_elastic_net, make_lasso,
                         make_logistic, make_svm_dual, objective_value,
                         subgrad_score)
from .selection import ActiveSet, Rule
from .solver import SmipsEngine, SolverConfig, solve_box, solve_l1
from .sparse import shrink

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
    record_theta: bool = False
    seed: int = None               # falls back to the experiment seed


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
    test_split: float = 0.0
    workers: int = 1

    def validate(self):
        if self.problem not in ("lasso", "svm", "logistic", "elasticnet"):
            raise ValueError("unknown problem kind: %r" % self.problem)
        if not self.runs:
            raise ValueError("experiment needs at least one run")
        names = [r.name for r in self.runs]
        if len(set(names)) != len(names):
            raise ValueError("run names must be unique")


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
    if cfg.test_split > 0 and cfg.problem in ("svm", "logistic"):
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


def _solver_config(cfg, run):
    backend = None
    if run.engine == "smips" and run.backend == "lsh":
        backend = sm.HyperplaneLsh(run.lsh_bits, run.lsh_tables,
                                   seed=run.seed if run.seed is not None
                                   else cfg.seed)
    return SolverConfig(
        rule=Rule(run.rule), engine=run.engine, backend=backend,
        beta=cfg.beta, use_line_search=run.use_line_search,
        max_iters=cfg.max_iters, tol=cfg.tol,
        seed=run.seed if run.seed is not None else cfg.seed,
        record_theta=run.record_theta,
        record_gap=(cfg.problem == "svm"))


def _execute_run(p, cfg, run):
    scfg = _solver_config(cfg, run)
    build_seconds = 0.0
    if run.engine == "smips":
        engine = SmipsEngine(p, backend=scfg.backend, beta=cfg.beta)
        build_seconds = engine.build_seconds
        scfg.engine = engine
    solve = solve_box if cfg.problem == "svm" else solve_l1
    trace = solve(p, scfg)
    return trace, build_seconds


def _polish(p, state, iters, kind):
    """Extra exact steepest steps from a state copy; returns the best value."""
    s = IterateState(alpha=state.alpha.copy(), residual=state.residual.copy(),
                     nnz=state.nnz)
    s.track_gradient(p)
    L = p.smoothness
    for _ in range(iters):
        if kind == "box":
            grad = s.grad
            active = ActiveSet.from_state(s.alpha, grad)
            if active.empty:
                break
            masked = np.where(active.membership, np.abs(grad), -1.0)
            j = int(np.argmax(masked))
            if masked[j] <= 0:
                break
            new = min(1.0, max(0.0, s.alpha[j] - grad[j] / L))
        else:
            sv = subgrad_score(p, s)
            j = int(np.argmax(np.abs(sv)))
            if abs(sv[j]) <= 1e-14:
                break
            aj = s.alpha[j]
            new = shrink(aj - coord_grad(p, s, j) / L, p.l1_lambda / L)
            if new * aj < 0:
                new = 0.0
        apply_coord_delta(p, s, j, new - s.alpha[j])
    return objective_value(p, s)


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


def _quantiles(values, qs=(0.1, 0.5, 0.9)):
    if not values:
        return None
    return {("q%02d" % int(q * 100)): float(np.quantile(values, q))
            for q in qs}


def run_experiment(cfg):
    """Execute all runs, estimate f_star, write CSV + JSON, return summary.

    A failing run is reported in the summary and does not abort its siblings.
    Wall-clock excludes dataset load and index build (reported separately).
    """
    cfg.validate()
    p, info = build_problem(cfg)
    results, errors = {}, {}

    def job(run):
        return _execute_run(p, cfg, run)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = {run.name: pool.submit(job, run) for run in cfg.runs}
            for name, fut in futures.items():
                try:
                    results[name] = fut.result()
                except Exception as exc:
                    errors[name] = "%s: %s" % (type(exc).__name__, exc)
    else:
        for run in cfg.runs:
            try:
                results[run.name] = job(run)
            except Exception as exc:
                errors[run.name] = "%s: %s" % (type(exc).__name__, exc)

    f_star = None
    if results:
        best_name = min(results, key=lambda k: results[k][0].f_values.min())
        best_trace = results[best_name][0]
        f_star = min(float(best_trace.f_values.min()),
                     _polish(p, best_trace.final_state, 10 * cfg.max_iters,
                             best_trace.problem_kind))

    rows = []
    summary = {"problem": cfg.problem, "n": p.n, "d": p.d,
               "f_star": f_star, "load_seconds": info["load_seconds"],
               "runs": {}, "errors": errors}
    for run in cfg.runs:
        if run.name not in results:
            continue
        trace, build_seconds = results[run.name]
        n_rec = len(trace.records)
        for k, rec in enumerate(trace.records):
            acc = None
            if k == n_rec - 1:
                acc = _test_accuracy(p, trace.final_state, info["test"],
                                     cfg.problem)
            rows.append({
                "run": run.name, "iter": rec.iter, "wall_ns": rec.wall_ns,
                "f_value": rec.f_value,
                "suboptimality": (rec.f_value - f_star
                                  if f_star is not None else None),
                "nnz": rec.nnz, "step_kind": rec.step_kind,
                "coord": rec.coord, "theta": rec.theta, "gap": rec.gap,
                "test_accuracy": acc, "fell_back": int(rec.fell_back)})
        thetas = [r.theta for r in trace.records] if run.record_theta else []
        total = max(1, trace.n_steps)
        summary["runs"][run.name] = {
            "status": trace.status,
            "counters": trace.counters,
            "final_f": float(trace.f_values[-1]),
            "steps": trace.n_steps,
            "fallback_rate": trace.counters["fallback"] / total,
            "theta_quantiles": _quantiles(thetas),
            "build_seconds": build_seconds,
        }

    if cfg.out:
        with open(cfg.out + ".csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=CSV_HEADER)
            w.writeheader()
            for row in rows:
                w.writerow({k: ("" if row[k] is None else row[k])
                            for k in CSV_HEADER})
        with open(cfg.out + ".json", "w") as fh:
            json.dump(summary, fh, indent=2, default=str)
    summary["rows"] = rows
    return summary


def adaptivity_report(cfg):
    """Four-way per-iteration comparison of search strategies.

    Logs the exact max inner product over all points, the exact max over the
    live candidate subset, and the hashing engine's answers over both, while
    the iteration itself follows the exact subset answer. Requires exactly
    one configured run with the "lsh" backend.
    """
    cfg.validate()
    lsh_runs = [r for r in cfg.runs if r.backend == "lsh"]
    if len(lsh_runs) != 1:
        raise ValueError("adaptivity report needs exactly one lsh run")
    run = lsh_runs[0]
    p, info = build_problem(cfg)
    engine = SmipsEngine(p, backend=sm.Exact(), beta=cfg.beta)
    lsh = sm.HyperplaneLsh(run.lsh_bits, run.lsh_tables,
                           seed=run.seed if run.seed is not None else cfg.seed)
    lsh.fit(engine.points)
    all_mask = sm.SubsetMask(
        included=np.ones(engine.points.n_points, dtype=bool),
        kind=engine.kind)
    s = IterateState.zeros(p)
    engine.reset_mask(s.alpha)
    L = p.smoothness
    rows = []
    for t in range(cfg.max_iters):
        gl = grad_l(p, s)
        if engine.kind == "l1":
            q = sm.build_l1_query(gl, p.l1_lambda, engine.beta)
        else:
            q = sm.build_box_query(gl, engine.c_value, engine.beta)
        pid_m, exact_mask, _ = sm.smips_query(engine.points, q,
                                              engine.mask, sm.Exact())
        _, exact_all, _ = sm.smips_query(engine.points, q, all_mask,
                                         sm.Exact())
        _, lsh_all, fb_a = sm.smips_query(engine.points, q, all_mask, lsh)
        _, lsh_mask, fb_m = sm.smips_query(engine.points, q, engine.mask, lsh)
        ratio = lsh_mask / exact_mask if exact_mask > 0 else None
        rows.append({"iter": t, "exact_all": exact_all,
                     "exact_mask": exact_mask, "lsh_all": lsh_all,
                     "lsh_mask": lsh_mask, "ratio": ratio,
                     "fell_back": int(fb_a or fb_m)})
        if exact_mask <= cfg.tol:
            break
        j, _ = sm.point_to_coordinate(engine.points, pid_m)
        aj = float(s.alpha[j])
        g = coord_grad(p, s, j)
        if engine.kind == "l1":
            new = shrink(aj - g / L, p.l1_lambda / L)
            if new * aj < 0:
                new = 0.0
        else:
            new = min(1.0, max(0.0, aj - g / L))
        apply_coord_delta(p, s, j, new - aj)
        engine.note_step(j, new)
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    report = {"rows": rows,
              "median_ratio": float(np.median(ratios)) if ratios else None,
              "fallbacks": int(sum(r["fell_back"] for r in rows))}
    if cfg.out:
        with open(cfg.out + "_adaptivity.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=["iter", "exact_all",
                                               "exact_mask", "lsh_all",
                                               "lsh_mask", "ratio",
                                               "fell_back"])
            w.writeheader()
            for row in rows:
                w.writerow({k: ("" if v is None else v)
                            for k, v in row.items()})
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
    table = {}
    for name, recs in series.items():
        if x_axis == "iter":
            xs = [r["iter"] for r in recs]
        else:
            xs = list(np.cumsum([r["wall_ns"] for r in recs]) / 1e9)
        ys = [max(float(r["suboptimality"] or 0.0), SUBOPT_FLOOR)
              for r in recs]
        keep = _downsample(len(recs))
        table[name] = ([xs[i] for i in keep], [ys[i] for i in keep])
    header = []
    for name in table:
        header += ["%s_%s" % (name, x_axis), "%s_suboptimality" % name]
    depth = max(len(v[0]) for v in table.values())
    lines = [",".join(header)]
    for i in range(depth):
        cells = []
        for xs, ys in table.values():
            if i < len(xs):
                cells += [repr(xs[i]), repr(ys[i])]
            else:
                cells += ["", ""]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if stream is not None:
        if isinstance(stream, str):
            with open(stream, "w") as fh:
                fh.write(text)
        else:
            stream.write(text)
    return text
