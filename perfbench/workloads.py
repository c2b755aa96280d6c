"""The three benchmark workloads.

Each workload is closed-loop, single process and runs one solve at a time.
Its inputs come from the workload seed alone: the seed permutes the rows of
one fixed instance (observations, features of the SVM examples, or the
example lines of the libsvm file). Every seed is therefore the same
optimisation problem up to floating-point summation order, with the same
step counts, so time-to-epsilon compares equal work across seeds; an
instance drawn per seed moved the gs-s step count on lasso-dense between
223 and 1105. Solver randomness (the uniform rule, LSH planes) uses the
fixed seed ``SOLVER_SEED``. A workload offers:

* ``setup()``: raw inputs to a solvable problem (timed as ``setup_s``);
* ``job(ctx, rec, tick)``: one round of the user-visible work, traced when
  ``rec`` is a span recorder. It returns the round's samples, each a list of
  ``(start, end)`` perf_counter intervals whose durations add up to the
  sample, and one ``(label, ok, detail)`` outcome per solve. ``tick`` runs
  between timed solves so each can be scaled by the machine speed measured
  around it (``speed.py``);
* ``warmup(ctx)``: short untimed solves so lazy set-up is done before timing.

Outcomes are certified here with the benchmark's own duality gaps
(``certify.py``), never with ``Trace.status`` alone.
"""

import math
import os
import time

import numpy as np
import scipy.sparse as sps

import greedycd.data_io as data_io
import greedycd.harness as harness
import greedycd.objectives as objectives
import greedycd.smips as smips
import greedycd.solver as solver
import greedycd.sparse as sparse
from greedycd.selection import Rule

import certify
import spans

clock = time.perf_counter

CONFIGS = ("gs-s", "gs-q", "uniform", "smips-exact")
DATA_SEED = 0     # the generator seed of every fixed instance
SOLVER_SEED = 0   # uniform draws and LSH hyperplanes


def _solver_config(label, engine, tol, max_iters):
    if label == "smips-exact":
        return solver.SolverConfig(engine=engine, tol=tol,
                                   max_iters=max_iters, seed=SOLVER_SEED)
    return solver.SolverConfig(rule=Rule(label), tol=tol,
                               max_iters=max_iters, seed=SOLVER_SEED)


def permute_rows(M, perm):
    """Copy of M whose row r is row perm[r] of M, as a SparseColMatrix."""
    new_rows = np.argsort(perm)[np.asarray(M.row_indices)]
    cols = np.repeat(np.arange(M.n_cols), np.diff(M.col_starts))
    order = np.lexsort((new_rows, cols))
    return sparse.SparseColMatrix(M.n_rows, M.col_starts, new_rows[order],
                                  np.asarray(M.values)[order])


class _SolveWorkload:
    """Four certified solves of one synthetic problem per round."""

    setup_in_job = False
    setups_per_round = 1

    def __init__(self, seed, workdir):
        self.perm = np.random.default_rng(seed).permutation(self.spec.d)
        self._gap_data = None

    def warmup(self, ctx):
        for label in CONFIGS:
            cfg = _solver_config(label, ctx["engine"], self.tol, 200)
            self.solve(ctx["problem"], cfg)

    def job(self, ctx, rec, tick):
        p, engine = ctx["problem"], ctx["engine"]
        if self._gap_data is None:
            self._gap_data = self.gap_data(ctx)
        samples, results = {"experiment_s": []}, []
        for label in CONFIGS:
            cfg = _solver_config(label, engine, self.tol, self.max_iters)
            tick()
            t0 = clock()
            try:
                trace, err = self.solve(p, cfg), None
            except Exception as exc:  # a raising solve is a failed solve
                trace, err = None, "%s: %s" % (type(exc).__name__, exc)
            interval = (t0, clock())
            samples["solve_s." + label] = [interval]
            samples["experiment_s"].append(interval)
            results.append((label, trace, err))
        tick()
        return samples, [self.check(label, trace, err)
                         for label, trace, err in results]

    def check(self, label, trace, err):
        if err is not None:
            return label, False, err
        if trace.status == "max_iters":
            return label, False, "no stop within %d steps" % self.max_iters
        primal, gap = self.gap(*self._gap_data, trace.final_state.alpha)
        reported = float(trace.f_values[-1])
        if not gap <= self.eps:
            return label, False, "gap %.3g > eps %.3g" % (gap, self.eps)
        if abs(reported - primal) > 1e-9 * max(1.0, abs(primal)):
            return label, False, "reported F %.17g, recomputed %.17g" % (
                reported, primal)
        return label, True, "steps %d certified gap %.3g" % (trace.n_steps,
                                                              gap)


class LassoDense(_SolveWorkload):
    name = "lasso-dense"
    spec = data_io.CorrelatedLasso(n=1000, d=100, density=0.05,
                                   correlation=0.5)
    lam = 0.5
    tol = 1e-4
    max_iters = 1_000_000
    eps = 5e-3
    setups_per_round = 3
    lsh = (8, 10)          # bits per table, tables
    lsh_probe_steps = 1000

    def setup(self):
        ds = data_io.gen_synthetic(data_io.SynthSpec(self.spec, DATA_SEED))
        p = objectives.make_lasso(permute_rows(ds.matrix, self.perm),
                                  ds.labels[self.perm], self.lam)
        exact = solver.SmipsEngine(p)
        solver.SmipsEngine(p, backend=smips.HyperplaneLsh(
            *self.lsh, seed=SOLVER_SEED))
        return {"problem": p, "engine": exact}

    def solve(self, p, cfg):
        return solver.solve_l1(p, cfg)

    def gap_data(self, ctx):
        p = ctx["problem"]
        return certify.csc_of(p.matrix).toarray(), np.array(p.loss.target)

    def gap(self, A, b, alpha):
        return certify.lasso_gap(A, b, self.lam, alpha)

    def lsh_probe_config(self):
        """adaptivity_report settings for the fixed-budget LSH probe."""
        return harness.ExperimentConfig(
            problem="lasso", data=data_io.SynthSpec(self.spec, DATA_SEED),
            runs=[harness.RunSpec("lsh", engine="smips", backend="lsh",
                                  lsh_bits=self.lsh[0],
                                  lsh_tables=self.lsh[1])],
            lam=self.lam, max_iters=self.lsh_probe_steps, tol=self.tol,
            seed=SOLVER_SEED)


class SvmDual(_SolveWorkload):
    name = "svm-dual"
    spec = data_io.RandomSvm(n=800, d=40, margin=0.1)
    lam = 0.05
    tol = 1e-5
    max_iters = 200_000
    eps = 5e-4
    setups_per_round = 10

    def setup(self):
        ds = data_io.gen_synthetic(data_io.SynthSpec(self.spec, DATA_SEED))
        ds = data_io.Dataset(permute_rows(ds.matrix, self.perm), ds.labels)
        p = objectives.make_svm_dual(data_io.fold_labels(ds), self.lam)
        return {"problem": p, "data": ds, "engine": solver.SmipsEngine(p)}

    def solve(self, p, cfg):
        return solver.solve_box(p, cfg)

    def gap_data(self, ctx):
        ds = ctx["data"]
        X = certify.csc_of(ds.matrix).toarray()
        return (X * np.asarray(ds.labels, dtype=np.float64)[None, :],)

    def gap(self, A, alpha):
        return certify.svm_gap(A, self.lam, alpha)


class LogisticLibsvm:
    """One CLI-style run_experiment over a generated libsvm file per round.

    The file is written before any timing. ``setup_s`` is the load that
    run_experiment's own build_problem performs; the gs-s and uniform solve
    times are read from two O(1)-per-call timers around the harness's
    build_problem and solve_l1.
    """

    name = "logistic-libsvm"
    n_examples = 10_000
    n_features = 5_000
    nnz_per_example = 20
    informative = 20
    weight_scale = 8.0
    value_scale = 0.4
    lam = 4.0
    tol = 1e-4
    max_iters = 5000
    eps = 5e-3
    setup_in_job = True
    setups_per_round = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.path = os.path.join(workdir, "data.svm")
        self._write_data()

    def _write_data(self):
        rng = np.random.default_rng(DATA_SEED)
        n, d, k = self.n_examples, self.n_features, self.nnz_per_example
        # k distinct, increasing feature ids per example
        cols = np.sort(rng.integers(0, d - k + 1, size=(n, k)), axis=1) \
            + np.arange(k)
        vals = self.value_scale * rng.standard_normal((n, k))
        w = np.zeros(d)
        support = rng.choice(d, self.informative, replace=False)
        w[support] = self.weight_scale * rng.standard_normal(self.informative)
        y = np.where((vals * w[cols]).sum(axis=1) >= 0.0, 1, -1)
        order = np.random.default_rng(self.seed).permutation(n)
        cols, vals, y = cols[order], vals[order], y[order]
        written = np.empty_like(vals)
        with open(self.path, "w") as fh:
            for lo in range(0, n, 1000):
                text = np.char.mod("%.12f", vals[lo:lo + 1000])
                # certify against the values as the parser will read them
                written[lo:lo + 1000] = text.astype(np.float64)
                toks = np.char.add(np.char.mod("%d:", cols[lo:lo + 1000] + 1),
                                   text)
                fh.writelines("%+d %s\n" % (label, " ".join(row))
                              for label, row in zip(y[lo:lo + 1000],
                                                    toks.tolist()))
        self._Z = sps.csr_matrix(
            ((written * y[:, None]).ravel(), cols.ravel(),
             np.arange(0, n * k + 1, k)), shape=(n, d))

    def config(self, out=None):
        return harness.ExperimentConfig(
            problem="logistic", data=self.path,
            runs=[harness.RunSpec("gs-s", rule="gs-s"),
                  harness.RunSpec("uniform", rule="uniform")],
            lam=self.lam, max_iters=self.max_iters, tol=self.tol,
            seed=SOLVER_SEED, out=out, workers=1)

    def setup(self):
        p, _ = harness.build_problem(self.config())
        return {"problem": p}

    def warmup(self, ctx):
        p = ctx["problem"]
        for rule in (Rule.GSS, Rule.UNIFORM):
            solver.solve_l1(p, solver.SolverConfig(rule=rule, max_iters=50,
                                                   tol=self.tol))

    def job(self, ctx, rec, tick):
        own = rec is None
        if own:
            rec = spans.Recorder(spans.TIMERS, after=tick)
        first = len(rec.spans)
        out = os.path.join(self.workdir, "experiment")
        tick()
        try:
            t0 = clock()
            harness.run_experiment(self.config(out))
            t1 = clock()
        except Exception as exc:  # a raising experiment fails both runs
            err = "%s: %s" % (type(exc).__name__, exc)
            return {}, [("gs-s", False, err), ("uniform", False, err)]
        finally:
            if own:
                rec.uninstall()
        tick()
        new = rec.spans[first:]
        load = [s for s in new if s[spans.NAME] == "harness.build_problem"]
        solves = {s[spans.TAG]["config"]: s for s in new
                  if s[spans.NAME] == "solver.solve"}
        samples = {"experiment_s": [(t0, t1)],
                   "setup_s": [spans.interval_s(load[0])]}
        for label, s in solves.items():
            samples["solve_s." + label] = [spans.interval_s(s)]
        traces = {k: s[spans.TAG]["trace"] for k, s in solves.items()}
        return samples, self.check(out, traces)

    def check(self, out, traces):
        if set(traces) != {"gs-s", "uniform"}:
            err = "solves seen: %r" % sorted(traces)
            return [("gs-s", False, err), ("uniform", False, err)]
        problems, summary = certify.check_experiment_files(
            out, {k: t.n_steps for k, t in traces.items()},
            harness.CSV_HEADER)
        if problems:
            return [(k, False, "; ".join(problems)) for k in traces]
        results = []
        f_zero = self.n_examples * math.log(2.0)
        for label, trace in sorted(traces.items()):
            alpha = np.zeros(self.n_features)
            alpha[:trace.final_state.alpha.size] = trace.final_state.alpha
            primal, gap = certify.logistic_gap(self._Z, self.lam, alpha)
            final_f = summary["runs"][label]["final_f"]
            lower = primal - gap  # certified lower bound on the optimum
            if abs(final_f - primal) > 1e-9 * abs(primal):
                results.append((label, False, "final_f %.17g, recomputed "
                                "%.17g" % (final_f, primal)))
            elif label == "gs-s" and trace.status != "tol":
                results.append((label, False, "status %s" % trace.status))
            elif label == "gs-s" and not final_f - lower <= self.eps:
                results.append((label, False, "final_f - bound %.3g > eps"
                                % (final_f - lower)))
            elif label == "uniform" and not final_f < f_zero:
                results.append((label, False, "no decrease from F(0)"))
            else:
                results.append((label, True, "steps %d %s gap %.3g" % (
                    trace.n_steps, "certified" if label == "gs-s"
                    else "fixed budget, F decreased,", gap)))
        return results


WORKLOADS = {w.name: w for w in (LassoDense, SvmDual, LogisticLibsvm)}
