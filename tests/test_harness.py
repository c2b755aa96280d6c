import csv
import json
import os
import re
import time

import numpy as np
import pytest
import scipy.sparse as sps

from greedycd import cli, harness, solver, sparse
from greedycd.cli import main, parse_config_file, parse_synthetic
from greedycd.data_io import (CorrelatedLasso, Dataset, DiagQuadratic,
                              RandomSvm, SynthSpec, fold_labels, gen_synthetic,
                              normalize_columns, regression_view,
                              train_test_split, write_libsvm)
from greedycd.harness import (CSV_HEADER, ExperimentConfig, RunSpec,
                              adaptivity_report, emit_plot_csv,
                              run_experiment)
from greedycd.objectives import make_lasso, make_logistic
from greedycd.selection import Rule
from greedycd.solver import SmipsEngine, SolverConfig, solve_box, solve_l1
from greedycd.sparse import SparseColMatrix


def small_lasso_cfg(tmp_path, runs=None, **kw):
    runs = runs or [RunSpec("gs-s"), RunSpec("uniform", rule="uniform")]
    defaults = dict(problem="lasso",
                    data=SynthSpec(DiagQuadratic((4.0, 2.0, 1.0)), seed=1),
                    runs=runs, lam=0.05, max_iters=150, tol=0.0,
                    out=str(tmp_path / "exp"))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_writes_csv_and_json(self, tmp_path):
        cfg = small_lasso_cfg(tmp_path)
        summary = run_experiment(cfg)
        assert os.path.exists(cfg.out + ".csv")
        assert os.path.exists(cfg.out + ".json")
        assert set(summary["runs"]) == {"gs-s", "uniform"}
        assert summary["f_lower"] <= summary["f_upper"]
        for info in summary["runs"].values():
            assert summary["f_lower"] <= info["final_f"]
            assert info["gap"] >= 0.0
        assert summary["f_upper"] == min(info["final_f"]
                                         for info in summary["runs"].values())

    @pytest.mark.parametrize("multiple", [8, 1])
    def test_summary_reports_seconds_and_kept_bytes(self, tmp_path,
                                                    monkeypatch, multiple):
        """kept_bytes is what the matrix keeps after the solves, within
        its cap, also when a lowered cap binds."""
        monkeypatch.setattr(sparse, "GRAM_CACHE_INPUT_MULTIPLE", multiple)
        cfg = small_lasso_cfg(
            tmp_path, data=SynthSpec(CorrelatedLasso(n=300, d=30), seed=1),
            lam=0.1, max_iters=400)
        t0 = time.perf_counter()
        summary = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        assert 0.0 <= summary["load_seconds"] <= summary["seconds"] \
            <= elapsed
        M = harness.build_problem(cfg)[0].matrix
        cap = multiple * (M.values.nbytes + M.row_indices.nbytes)
        assert 0 < summary["kept_bytes"] <= cap
        if multiple == 1:  # the cap binds: no room for one more column
            assert summary["kept_bytes"] > cap - 8 * M.n_cols
        saved = json.load(open(cfg.out + ".json"))
        assert saved["kept_bytes"] == summary["kept_bytes"]
        assert saved["seconds"] == summary["seconds"]

    @pytest.mark.parametrize("problem", ["lasso", "svm"])
    def test_phase_seconds_add_up_within_seconds(self, tmp_path, problem):
        """The load, each solve, the certificates and the CSV are disjoint
        parts of the summary's seconds."""
        cfg = small_lasso_cfg(tmp_path, max_iters=400)
        if problem == "svm":
            cfg.problem, cfg.data = "svm", SynthSpec(RandomSvm(40, 5, 0.5),
                                                     seed=4)
        summary = run_experiment(cfg)
        solves = [info["seconds"] for info in summary["runs"].values()]
        phases = [summary["load_seconds"], summary["certify_seconds"],
                  summary["csv_seconds"]]
        assert len(solves) == 2 and min(solves + phases) > 0.0
        assert sum(solves + phases) <= summary["seconds"]
        saved = json.load(open(cfg.out + ".json"))
        for key in ("certify_seconds", "csv_seconds", "seconds"):
            assert saved[key] == summary[key]
        assert [info["seconds"] for info in saved["runs"].values()] == solves

    def test_csv_rows_are_the_summary_rows(self, tmp_path):
        cfg = ExperimentConfig(
            problem="svm", data=SynthSpec(RandomSvm(40, 5, 0.5), seed=4),
            runs=[RunSpec("gs-s"), RunSpec("uniform", rule="uniform")],
            lam=1.0, max_iters=300, tol=1e-8, test_split=0.25,
            out=str(tmp_path / "rows"))
        rows = run_experiment(cfg)["rows"]
        # plain Python values, which the writer prints as repr does
        assert {type(v) for row in rows for v in row.values()} == \
            {str, int, float, type(None)}
        with open(cfg.out + ".csv", newline="") as fh:
            text = fh.read()
        assert text.count("\r\n") == len(rows) + 1
        header, *cells = csv.reader(text.splitlines())
        assert header == CSV_HEADER
        assert cells == [["" if v is None else str(v) for v in row.values()]
                         for row in rows]
        assert all(list(row) == CSV_HEADER for row in rows)

    def test_csv_header_golden(self, tmp_path):
        cfg = small_lasso_cfg(tmp_path)
        run_experiment(cfg)
        with open(cfg.out + ".csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["run", "iter", "wall_ns", "f_value",
                          "suboptimality", "nnz", "step_kind", "coord",
                          "theta", "gap", "test_accuracy", "fell_back"]

    def test_summary_counts_screened_steps(self, tmp_path):
        cfg = small_lasso_cfg(
            tmp_path, data=SynthSpec(CorrelatedLasso(n=60, d=20), seed=1),
            lam=0.5, max_iters=600)
        run_experiment(cfg)
        runs = json.load(open(cfg.out + ".json"))["runs"]
        assert runs["gs-s"]["counters"]["screened"] == 0
        uniform = runs["uniform"]["counters"]
        assert 0 < uniform["screened"] <= uniform["good"]

    def test_suboptimality_nonneg_and_monotone(self, tmp_path):
        cfg = small_lasso_cfg(tmp_path)
        summary = run_experiment(cfg)
        for name in summary["runs"]:
            sub = [r["suboptimality"] for r in summary["rows"]
                   if r["run"] == name]
            assert all(x >= 0 for x in sub)
            assert all(b <= a + 1e-12 for a, b in zip(sub, sub[1:]))

    def test_deterministic_rerun(self, tmp_path):
        cfg = small_lasso_cfg(tmp_path)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        strip = lambda rows: [{k: v for k, v in row.items()
                               if k != "wall_ns"} for row in rows]
        assert strip(r1["rows"]) == strip(r2["rows"])

    def test_svm_rows_report_nonneg_gap(self, tmp_path):
        cfg = ExperimentConfig(
            problem="svm", data=SynthSpec(RandomSvm(20, 5, 0.4), seed=2),
            runs=[RunSpec("gs-s")], lam=1.0, max_iters=100, tol=1e-10,
            out=str(tmp_path / "svm"))
        summary = run_experiment(cfg)
        gaps = [r["gap"] for r in summary["rows"]]
        assert gaps and all(g is not None and g >= -1e-10 for g in gaps)

    def test_failing_run_does_not_abort_siblings(self, tmp_path):
        cfg = small_lasso_cfg(
            tmp_path, runs=[RunSpec("ok"),
                            RunSpec("broken", rule="no-such-rule")])
        summary = run_experiment(cfg)
        assert "ok" in summary["runs"]
        assert "broken" in summary["errors"]

    def test_workers_other_than_one_refused(self, tmp_path):
        for workers in (0, 2):
            cfg = small_lasso_cfg(tmp_path, workers=workers)
            with pytest.raises(ValueError, match="one after another"):
                run_experiment(cfg)
        assert not os.path.exists(cfg.out + ".csv")

    @pytest.mark.parametrize("engine,backend",
                             [("exact", "lsh"), ("smips", "lhs")])
    def test_backend_engine_mismatch_fails_the_run(self, tmp_path, engine,
                                                   backend):
        runs = [RunSpec("ok"), RunSpec("bad", engine=engine,
                                       backend=backend)]
        summary = run_experiment(small_lasso_cfg(tmp_path, runs=runs))
        assert list(summary["runs"]) == ["ok"]
        error = summary["errors"]["bad"]
        assert repr(engine) in error and repr(backend) in error

    def test_svm_run_certified_without_a_polish(self, monkeypatch):
        """run_experiment takes no steps of its own after the solves: the
        F* interval comes from the runs' duality gaps."""
        polishes, descents = [], []
        monkeypatch.setattr(harness, "_polish",
                            lambda *args: polishes.append(1))
        descend = solver._descend

        def counting(*args, **kwargs):
            descents.append(1)
            return descend(*args, **kwargs)

        monkeypatch.setattr(solver, "_descend", counting)
        cfg = ExperimentConfig(
            problem="svm", data=SynthSpec(RandomSvm(200, 20, 0.1), seed=0),
            runs=[RunSpec("gs-s"), RunSpec("uniform", rule="uniform")],
            lam=0.05, max_iters=200_000, tol=1e-5)
        summary = run_experiment(cfg)
        assert polishes == [] and descents == [1, 1]  # the two solves
        for info in summary["runs"].values():
            assert info["status"] == "tol"
            assert info["gap"] >= 0.0
            assert summary["f_lower"] <= info["final_f"]
        assert summary["f_lower"] == max(
            info["final_f"] - info["gap"]
            for info in summary["runs"].values())

    def test_svm_gap_computed_once_per_state(self, monkeypatch):
        calls = []
        gap = solver.duality_gap

        def counting(p, s):
            calls.append(1)
            return gap(p, s)

        monkeypatch.setattr(solver, "duality_gap", counting)
        cfg = ExperimentConfig(
            problem="svm", data=SynthSpec(RandomSvm(60, 8, 0.1), seed=0),
            runs=[RunSpec("gs-s")], lam=0.05, tol=1e-5)
        p, _ = harness.build_problem(cfg)
        trace = solve_box(p, SolverConfig(tol=cfg.tol, record_gap=True,
                                          max_iters=10_000))
        assert trace.status == "tol" and trace.n_steps > 500
        assert len(calls) <= trace.n_steps + 1
        # the same steps with no gap stop compute each record's gap anew
        ref = solve_box(p, SolverConfig(tol=0.0, record_gap=True,
                                        max_iters=trace.n_steps))
        key = lambda r: (r.iter, r.coord, r.step_kind, r.f_value, r.gap,
                         r.nnz)
        assert [key(r) for r in trace.records] == \
            [key(r) for r in ref.records]
        np.testing.assert_array_equal(trace.final_state.alpha,
                                      ref.final_state.alpha)

    def test_empty_runs_rejected(self, tmp_path):
        cfg = ExperimentConfig(
            problem="lasso",
            data=SynthSpec(DiagQuadratic((1.0,)), seed=0), runs=[])
        with pytest.raises(ValueError):
            cfg.validate()

    def test_refused_run_builds_no_engine(self, tmp_path, monkeypatch):
        builds = []
        init = SmipsEngine.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SmipsEngine, "__init__", counting_init)
        runs = [RunSpec(rule, rule=rule, engine="smips", backend="lsh",
                        lsh_bits=4, lsh_tables=4)
                for rule in ("gs-s", "uniform")]
        summary = run_experiment(small_lasso_cfg(tmp_path, runs=runs))
        assert list(summary["runs"]) == ["gs-s"]
        assert "gs-s only" in summary["errors"]["uniform"]
        assert len(builds) == 1

    def test_test_split_accuracy_reported(self, tmp_path):
        cfg = ExperimentConfig(
            problem="svm", data=SynthSpec(RandomSvm(40, 5, 0.5), seed=4),
            runs=[RunSpec("gs-s")], lam=1.0, max_iters=300, tol=1e-8,
            test_split=0.25, out=str(tmp_path / "acc"))
        summary = run_experiment(cfg)
        accs = [r["test_accuracy"] for r in summary["rows"]
                if r["test_accuracy"] is not None]
        assert len(accs) == 1 and 0.5 <= accs[0] <= 1.0


def examples_dataset(rng, labels, d=12, n=60):
    """Examples as columns with every feature row used; column 5 is empty."""
    A = rng.standard_normal((d, n)) * (rng.random((d, n)) < 0.4)
    A[:, 5] = 0.0
    A[d - 1, 0] = 1.5
    return Dataset(SparseColMatrix.from_dense(A), labels)


class TestLibsvmFile:
    """run_experiment on a libsvm file path matches the same problem built
    and solved from the in-memory dataset the file was written from."""

    RULES = ("gs-s", "uniform")

    def run_file(self, tmp_path, ds, **kw):
        path = str(tmp_path / "data.svm")
        write_libsvm(ds, path)
        cfg = ExperimentConfig(
            data=path, runs=[RunSpec(r, rule=r) for r in self.RULES],
            max_iters=400, tol=1e-9, seed=3, out=str(tmp_path / "exp"), **kw)
        return cfg, run_experiment(cfg)

    def assert_runs_match(self, summary, p, cfg):
        assert (summary["n"], summary["d"]) == (p.n, p.d)
        traces = {}
        for rule in self.RULES:
            trace = solve_l1(p, SolverConfig(rule=Rule(rule),
                                             max_iters=cfg.max_iters,
                                             tol=cfg.tol, seed=cfg.seed))
            got = summary["runs"][rule]
            assert got["final_f"] == float(trace.f_values[-1])
            assert got["steps"] == trace.n_steps
            assert got["status"] == trace.status
            traces[rule] = trace
        return traces

    def test_logistic_normalized_with_test_split(self, tmp_path, rng):
        ds = examples_dataset(rng, rng.choice([-1.0, 1.0], 60))
        cfg, summary = self.run_file(tmp_path, ds, problem="logistic",
                                     lam=0.05, normalize=True,
                                     test_split=0.25)
        assert not summary["errors"]
        kept, _, dropped = normalize_columns(ds)
        assert list(dropped) == [5]
        train, test = train_test_split(kept, 0.75, seed=cfg.seed)
        p = make_logistic(fold_labels(train).transpose(), cfg.lam)
        assert p.n == 12 and p.d == 44
        traces = self.assert_runs_match(summary, p, cfg)
        for rule, trace in traces.items():
            acc = [r["test_accuracy"] for r in summary["rows"]
                   if r["run"] == rule][-1]
            margins = fold_labels(test).matvec_T(trace.final_state.alpha)
            assert acc == float(np.mean(margins > 0))

    def test_logistic_builds_one_row_major_copy(self, tmp_path, rng,
                                                monkeypatch):
        builds = []
        tocsr = sps.csc_matrix.tocsr

        def counting(self, *args, **kwargs):
            builds.append(1)
            return tocsr(self, *args, **kwargs)

        monkeypatch.setattr(sps.csc_matrix, "tocsr", counting)
        # 3 of 200 features per example: a feature's examples are gathered
        # by rows
        cols = [(np.sort(rng.choice(200, 3, replace=False)),
                 rng.standard_normal(3)) for _ in range(300)]
        ds = Dataset(SparseColMatrix.from_columns(200, cols),
                     rng.choice([-1.0, 1.0], 300))
        _, summary = self.run_file(tmp_path, ds, problem="logistic", lam=0.1)
        assert not summary["errors"]
        # built by the transpose; both solves read it
        assert len(builds) == 1

    def test_lasso_through_regression_view(self, tmp_path, rng):
        ds = examples_dataset(rng, rng.standard_normal(60))
        cfg, summary = self.run_file(tmp_path, ds, problem="lasso", lam=0.1)
        assert not summary["errors"]
        p = make_lasso(*regression_view(ds), cfg.lam)
        assert p.n == 12 and p.d == 60
        self.assert_runs_match(summary, p, cfg)


class TestAdaptivityReport:
    def test_four_way_series_invariants(self, tmp_path):
        cfg = small_lasso_cfg(
            tmp_path,
            runs=[RunSpec("lsh", engine="smips", backend="lsh",
                          lsh_bits=4, lsh_tables=6)],
            max_iters=80, tol=1e-9)
        report = adaptivity_report(cfg)
        assert report["rows"]
        for row in report["rows"]:
            assert row["exact_mask"] <= row["exact_all"] + 1e-12
            assert row["lsh_mask"] <= row["exact_mask"] + 1e-12
        with open(cfg.out + "_adaptivity.csv", newline="") as fh:
            header, *cells = list(csv.reader(fh))
        assert header == list(report["rows"][0])
        assert cells == [["" if v is None else str(v) for v in row.values()]
                         for row in report["rows"]]

    def test_requires_one_lsh_run(self, tmp_path):
        cfg = small_lasso_cfg(tmp_path)
        with pytest.raises(ValueError):
            adaptivity_report(cfg)

    @pytest.mark.parametrize("engine,rule,message", [
        ("exact", "gs-s", "'lsh'.*'exact'"),
        ("smips", "uniform", "gs-s only")])
    def test_refuses_the_lsh_run_a_solve_refuses(self, tmp_path, engine,
                                                 rule, message):
        cfg = small_lasso_cfg(
            tmp_path, runs=[RunSpec("lsh", rule=rule, engine=engine,
                                    backend="lsh", lsh_bits=4,
                                    lsh_tables=4)])
        with pytest.raises(ValueError, match=message):
            adaptivity_report(cfg)
        assert not os.path.exists(cfg.out + "_adaptivity.csv")

    @pytest.mark.parametrize("engine,rule", [("exact", "gs-s"),
                                             ("smips", "uniform")])
    def test_refuses_before_loading(self, tmp_path, monkeypatch, engine,
                                    rule):
        loads = []
        build = harness.build_problem

        def counting_build(cfg):
            loads.append(1)
            return build(cfg)

        monkeypatch.setattr(harness, "build_problem", counting_build)
        cfg = small_lasso_cfg(
            tmp_path, runs=[RunSpec("lsh", rule=rule, engine=engine,
                                    backend="lsh")])
        with pytest.raises(ValueError):
            adaptivity_report(cfg)
        assert loads == []

    def test_steps_as_the_run_asks(self, tmp_path):
        reports = [adaptivity_report(small_lasso_cfg(
            tmp_path, runs=[RunSpec("lsh", engine="smips", backend="lsh",
                                    lsh_bits=4, lsh_tables=4,
                                    use_line_search=line_search)],
            max_iters=40, out=None)) for line_search in (False, True)]
        assert reports[0]["rows"] != reports[1]["rows"]

    def test_reads_the_runs_own_engine(self, tmp_path, monkeypatch):
        engines = []
        init = SmipsEngine.__init__

        def recording_init(self, *args, **kwargs):
            engines.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SmipsEngine, "__init__", recording_init)
        cfg = small_lasso_cfg(
            tmp_path, runs=[RunSpec("lsh", engine="smips", backend="lsh",
                                    lsh_bits=4, lsh_tables=6)],
            beta=0.7, max_iters=40, seed=3)
        adaptivity_report(cfg)
        # one engine: its beta, and the run's hashing backend, seeded by the
        # experiment, fitted to its points
        [engine] = engines
        lsh = engine.backend
        assert engine.beta == 0.7
        assert (lsh.bits_per_table, lsh.n_tables, lsh.seed) == (4, 6, 3)
        assert lsh._fitted_for is engine.points


class TestPlotCsv:
    def _rows(self, n, run="r1"):
        return [{"run": run, "iter": i, "wall_ns": 1000,
                 "suboptimality": 10.0 / (i + 1)} for i in range(n)]

    def test_small_series_kept_whole(self):
        text = emit_plot_csv(self._rows(10))
        lines = text.strip().splitlines()
        assert lines[0] == "r1_iter,r1_suboptimality"
        assert len(lines) == 11

    def test_zero_floored(self):
        rows = self._rows(3)
        rows[-1]["suboptimality"] = 0.0
        text = emit_plot_csv(rows)
        assert "1e-16" in text

    def test_downsampling_keeps_endpoints(self):
        text = emit_plot_csv(self._rows(5000))
        lines = text.strip().splitlines()[1:]
        assert len(lines) <= 2000
        assert lines[0].startswith("0,")
        assert lines[-1].startswith("4999,")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_plot_csv([])

    def test_wall_axis(self):
        rows = self._rows(4) + self._rows(2, run="r2")
        text = emit_plot_csv(rows, x_axis="wall")
        header, *lines = text.splitlines()
        assert header == "r1_wall,r1_suboptimality,r2_wall,r2_suboptimality"
        cells = [line.split(",") for line in lines]
        assert [float(c[0]) for c in cells] == [1e-06, 2e-06, 3e-06, 4e-06]
        assert [c[2:] for c in cells[2:]] == [["", ""], ["", ""]]
        assert all(float(x) > 0 for c in cells for x in c if x)


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     "--lambda", "0.05", "--max-iters", "100",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert os.path.exists(str(tmp_path / "run") + ".csv")

    def test_config_error_exit_one(self, capsys):
        assert main(["--problem", "lasso"]) == 1
        assert main(["--problem", "lasso", "--synthetic", "bogus:1"]) == 1

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-iters", "0", "max_iters"), ("--tol", "-1", "tol")])
    def test_solver_options_checked_before_loading(self, tmp_path, capsys,
                                                   monkeypatch, flag, value,
                                                   message):
        def no_load(cfg):
            raise AssertionError("loaded the data of a refused config")

        monkeypatch.setattr(harness, "build_problem", no_load)
        out = str(tmp_path / "bad")
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     flag, value, "--out", out])
        assert code == 1
        assert re.search("config error: .*" + message,
                         capsys.readouterr().err)
        assert not os.path.exists(out + ".json")

    def test_run_failure_exit_two(self, tmp_path, capsys):
        # the inner-product engine rejects elastic net, failing the run
        code = main(["--problem", "elasticnet", "--synthetic", "diag:4,2,1",
                     "--engine", "smips", "--max-iters", "10",
                     "--out", str(tmp_path / "fail")])
        assert code == 2

    def test_engine_with_another_rule_fails_that_run(self, tmp_path,
                                                     capsys):
        out = str(tmp_path / "mixed")
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     "--engine", "smips", "--rule", "gs-s,uniform",
                     "--max-iters", "50", "--out", out])
        assert code == 2
        assert "run failure in uniform" in capsys.readouterr().err
        summary = json.load(open(out + ".json"))
        assert list(summary["runs"]) == ["gs-s"]
        assert "gs-s only" in summary["errors"]["uniform"]

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = lasso\n"
                       "synthetic = diag:4,2,1  # instance\n"
                       "lambda = 0.05\n"
                       "max-iters = 50\n")
        code = main([str(cfg), "--max-iters", "20",
                     "--out", str(tmp_path / "c")])
        assert code == 0
        rows = list(csv.DictReader(open(str(tmp_path / "c") + ".csv")))
        assert max(int(r["iter"]) for r in rows) <= 19

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-key = 1\n")
        assert main([str(cfg)]) == 1

    @pytest.mark.parametrize("line,option", [
        ("backend = lhs", "--backend"), ("engine = smip", "--engine"),
        ("plot_x = iters", "--plot-x"),
        ("normalize = yes please", "--normalize"),
        # dest names and prefixes of a flag are no keys
        ("lam = 0.1", "--lam"), ("max = 5", "--max")])
    def test_config_values_get_the_flag_checks(self, tmp_path, capsys, line,
                                               option):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = lasso\nsynthetic = diag:4,2,1\n"
                       "max-iters = 20\n%s\n" % line)
        out = str(tmp_path / "c")
        assert main([str(cfg), "--out", out]) == 1
        assert option in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")

    def test_backend_lsh_needs_engine_smips(self, tmp_path, capsys):
        out = str(tmp_path / "lsh")
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     "--backend", "lsh", "--max-iters", "20", "--out", out])
        assert code == 2
        error = json.load(open(out + ".json"))["errors"]["run"]
        assert "'lsh'" in error and "'exact'" in error

    def test_plot_x_needs_out(self, capsys):
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     "--max-iters", "20", "--plot-x", "wall"])
        assert code == 1
        assert "--plot-x" in capsys.readouterr().err

    def test_plot_x_writes_the_plot_csv(self, tmp_path, capsys):
        out = str(tmp_path / "p")
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     "--max-iters", "30", "--plot-x", "wall", "--out", out])
        assert code == 0
        with open(out + "_plot.csv", newline="") as fh:
            header, *lines = fh.read().split("\n")
        assert header == "run_wall,run_suboptimality"
        assert lines.pop() == "" and len(lines) == 30
        assert all(float(x) >= 0 for line in lines for x in line.split(","))

    @pytest.mark.parametrize("problem", ["lasso", "elasticnet"])
    def test_test_split_refused_for_regression(self, capsys, problem):
        code = main(["--problem", problem, "--synthetic", "diag:4,2,1",
                     "--test-split", "0.3"])
        assert code == 1
        assert "test_split" in capsys.readouterr().err

    def parsed(self, monkeypatch, argv):
        """The ExperimentConfig main hands to run_experiment."""
        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            return {"runs": {}, "errors": {}, "rows": []}

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert main(argv) == 0
        return seen[0]

    def test_unset_options_keep_the_dataclass_defaults(self, monkeypatch,
                                                       capsys):
        cfg = self.parsed(monkeypatch, ["--problem", "svm", "--synthetic",
                                        "svm:n=20,d=4"])
        assert cfg == ExperimentConfig(
            problem="svm", data=parse_synthetic("svm:n=20,d=4", seed=0),
            runs=[RunSpec("run")])

    def test_boolean_options_take_yes_no(self, tmp_path, monkeypatch,
                                         capsys):
        path = tmp_path / "b.cfg"
        path.write_text("problem = lasso\nsynthetic = diag:1,2\n"
                        "normalize = false\nline_search = yes\n")
        cfg = self.parsed(monkeypatch, [str(path)])
        assert cfg.normalize is False and cfg.runs[0].use_line_search
        cfg = self.parsed(monkeypatch, [str(path), "--normalize",
                                        "--line-search", "no"])
        assert cfg.normalize is True
        assert cfg.runs[0].use_line_search is False

    def test_prints_each_gap_and_the_interval(self, tmp_path, capsys):
        out = str(tmp_path / "gaps")
        code = main(["--problem", "svm", "--synthetic", "svm:n=60,d=8",
                     "--rule", "gs-s,uniform", "--max-iters", "2000",
                     "--tol", "1e-6", "--out", out])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        summary = json.load(open(out + ".json"))
        assert len(lines) == 3
        for line, (name, info) in zip(lines, summary["runs"].items()):
            assert line.startswith("%s: status=%s " % (name, info["status"]))
            assert line.endswith(" gap=%.3g" % info["gap"])
        lo, hi = re.fullmatch(r"F\* in \[(\S+), (\S+)\]", lines[2]).groups()
        assert float(lo) <= float(hi)
        assert (lo, hi) == ("%.10g" % summary["f_lower"],
                            "%.10g" % summary["f_upper"])

    def test_multi_rule_comparison(self, tmp_path, capsys):
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     "--rule", "gs-s,uniform", "--max-iters", "50",
                     "--out", str(tmp_path / "multi")])
        assert code == 0
        rows = list(csv.DictReader(open(str(tmp_path / "multi") + ".csv")))
        assert {r["run"] for r in rows} == {"gs-s", "uniform"}

    @pytest.mark.parametrize("flags,message", [
        ([], "'lsh'.*'exact'"),
        (["--engine", "smips", "--rule", "gs-q"], "gs-s only")])
    def test_adaptivity_refuses_a_run_a_solve_refuses(self, tmp_path, capsys,
                                                      flags, message):
        out = str(tmp_path / "adapt")
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     "--backend", "lsh", "--lsh-bits", "4", "--lsh-tables",
                     "4", "--max-iters", "20", "--adaptivity", "--out", out]
                    + flags)
        assert code == 1
        assert re.search("config error: .*" + message,
                         capsys.readouterr().err)
        assert not os.path.exists(out + "_adaptivity.csv")

    def test_adaptivity_flag(self, tmp_path, capsys):
        code = main(["--problem", "lasso", "--synthetic", "diag:4,2,1",
                     "--engine", "smips", "--backend", "lsh",
                     "--lsh-bits", "4", "--lsh-tables", "4",
                     "--max-iters", "40", "--adaptivity",
                     "--out", str(tmp_path / "adapt")])
        assert code == 0
        assert os.path.exists(str(tmp_path / "adapt") + "_adaptivity.csv")

    def test_parse_synthetic_specs(self):
        spec = parse_synthetic("diag:1,2,4", seed=3)
        assert spec.kind.spectrum == (1.0, 2.0, 4.0)
        spec = parse_synthetic("correlated:n=100,d=20", seed=3)
        assert spec.kind.n == 100 and spec.kind.d == 20
        spec = parse_synthetic("svm:n=50,d=10,margin=0.5", seed=3)
        assert spec.kind.margin == 0.5
        with pytest.raises(ValueError):
            parse_synthetic("mystery:1", seed=0)

    @pytest.mark.parametrize("spec,message", [
        ("correlated:n=50.7,d=10", "bad value '50.7' for key 'n'"),
        ("svm:n=50,d=1e1", "bad value '1e1' for key 'd'"),
        ("svm:n=50,d=10,margin=wide", "bad value 'wide' for key 'margin'"),
        ("correlated:d=10", "missing key 'n'"),
        ("svm:n=50,d=10,marign=0.5", "unknown key 'marign'"),
        ("correlated:n=100,d=20,dens=0.2", "unknown key 'dens'")])
    def test_synthetic_spec_keys_checked(self, capsys, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_synthetic(spec, seed=0)
        assert main(["--problem", "svm", "--synthetic", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("spec,message", [
        ("correlated:n=50,d=10,correlation=1.5", "correlation=1.5,"),
        ("correlated:n=50,d=10,correlation=-0.1", "correlation=-0.1,"),
        ("correlated:n=50,d=10,correlation=nan", "correlation=nan,"),
        ("correlated:n=50,d=10,noise=nan", "noise=nan"),
        ("correlated:n=50,d=10,noise=-inf", "noise=-inf"),
        ("svm:n=50,d=10,margin=nan", "margin=nan"),
        ("svm:n=50,d=10,margin=inf", "margin=inf"),
        ("svm:n=50,d=10,margin=0", "margin=0.0"),
        ("diag:1,nan,2", r"spectrum .*, got \(1.0, nan, 2.0\)"),
        ("diag:1,2,inf", r"spectrum .*, got \(1.0, 2.0, inf\)"),
        ("diag:1,-2", r"spectrum .*, got \(1.0, -2.0\)")])
    def test_synthetic_spec_values_checked(self, capsys, spec, message):
        parsed = parse_synthetic(spec, seed=0)
        with pytest.raises(ValueError, match=message):
            gen_synthetic(parsed)
        problem = "svm" if spec.startswith("svm") else "lasso"
        assert main(["--problem", problem, "--synthetic", spec,
                     "--max-iters", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert re.search(message, err)

    def test_nan_lasso_label_refused(self, capsys, tmp_path):
        # parse_libsvm takes a nan label; the lasso it would pose is refused
        f = tmp_path / "nan.svm"
        f.write_text("1.0 1:0.5 2:1.0\nnan 1:1.0\n-2.0 2:0.25\n")
        assert main(["--problem", "lasso", "--data", str(f),
                     "--max-iters", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "target entry 1" in err

    @pytest.mark.parametrize("args,message", [
        (["lasso", "--lambda", "nan"], "lam must be nonnegative and finite, "
         "got nan"),
        (["lasso", "--lambda", "-1"], "lam must be nonnegative and finite, "
         "got -1.0"),
        (["logistic", "--lambda", "inf"], "lam must be nonnegative and "
         "finite, got inf"),
        (["elasticnet", "--lambda2", "-1"], "lam2 must be nonnegative and "
         "finite, got -1.0"),
        (["svm", "--lambda", "nan"], "svm_lambda must be positive and "
         "finite, got nan"),
        (["lasso", "--tol", "nan"], "tol must be nonnegative")],
        ids=["lambda-nan", "lambda-neg", "logistic-lambda-inf", "lambda2-neg",
             "svm-lambda-nan", "tol-nan"])
    def test_bad_weight_or_tol_refused(self, capsys, tmp_path, args,
                                       message):
        problem, *flags = args
        data = "svm:n=50,d=10" if problem in ("svm", "logistic") \
            else "correlated:n=50,d=10"
        out = str(tmp_path / "refused")
        assert main(["--problem", problem, "--synthetic", data,
                     "--max-iters", "5", "--out", out] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not os.path.exists(out + ".csv")

    @pytest.mark.parametrize("libsvm", [False, True])
    def test_negative_seed_refused_before_the_load(self, capsys, tmp_path,
                                                   monkeypatch, libsvm):
        data = ["--synthetic", "correlated:n=50,d=10"]
        if libsvm:
            data = ["--data", str(tmp_path / "data.svm")]
            write_libsvm(gen_synthetic(SynthSpec(RandomSvm(30, 5), seed=1)),
                         data[1])
        loads = []
        monkeypatch.setattr(harness, "_load_dataset", loads.append)
        out = str(tmp_path / "refused")
        assert main(["--problem", "lasso", "--seed", "-1", "--max-iters",
                     "5", "--out", out] + data) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be a nonnegative "
                              "integer, got -1")
        assert loads == [] and not os.path.exists(out + ".csv")

    @pytest.mark.parametrize("beta", ["0", "nan", "inf"])
    def test_bad_beta_fails_the_run(self, capsys, beta):
        assert main(["--problem", "lasso", "--synthetic",
                     "correlated:n=50,d=10", "--engine", "smips",
                     "--backend", "lsh", "--beta", beta,
                     "--max-iters", "5"]) == 2
        assert "beta must be positive" in capsys.readouterr().err

    def test_parse_config_file(self, tmp_path):
        f = tmp_path / "a.cfg"
        f.write_text("# comment\nproblem = svm\n\ntol = 1e-6\n")
        assert parse_config_file(str(f)) == {"problem": "svm", "tol": "1e-6"}
        f.write_text("problem svm\n")
        with pytest.raises(ValueError):
            parse_config_file(str(f))
