"""The harness's column CSV writer against csv.writer, byte for byte: the
metrics CSV, the plot CSV and the adaptivity CSV, and the writer itself on
run names that need quoting, special floats, int64 extremes, None cells,
zero-row runs and runs of equal floats across chunk edges."""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import metric_rows, plot_summary
from greedycd import harness
from greedycd.data_io import CorrelatedLasso, RandomSvm, SynthSpec
from greedycd.harness import (CSV_CHUNK_ROWS, CSV_HEADER, ExperimentConfig,
                              RunSpec, emit_plot_csv, run_experiment)

NAMES = ["a,b", '"x"', "c\rd", "e\nf", "g\r\nh", " lead", "", "plain",
         "semi;colon", "tab\tx", "quote\"mid"]
FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
          1e16, 1e-5, 0.1, -2.5, 1.7976931348623157e308]
INT64 = np.iinfo(np.int64)


def reference(header, rows, lineterminator="\r\n"):
    """What a csv.writer writes for the header and the rows."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator=lineterminator)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def written(header, parts, lineterminator="\r\n"):
    buf = io.StringIO()
    harness._write_columns(buf, header, parts, lineterminator)
    return buf.getvalue()


def rows_of(parts):
    """The rows of plain values that the parts stand for."""
    for n, columns in parts:
        cols = [itertools.repeat(c, n) if isinstance(c, str)
                else c.tolist() if isinstance(c, np.ndarray) else c
                for c in columns]
        yield from zip(*cols)


def check(parts, lineterminator="\r\n"):
    header = ["c%d" % k for k in range(len(parts[0][1]))]
    assert written(header, parts, lineterminator) == \
        reference(header, rows_of(parts), lineterminator)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("lineterminator", ["\r\n", "\n"])
def test_run_names_are_quoted_as_csv_writer_quotes_them(name, lineterminator):
    check([(3, [name, np.arange(3), np.array([0.5, 0.5, -0.0])]),
           (2, ["other", np.arange(2), np.array([1.0, 2.0])])],
          lineterminator)


def test_special_floats_next_to_each_other():
    x = np.array(FLOATS + FLOATS[::-1] + [-0.0, -0.0, 0.0, 0.0, -0.0])
    check([(len(x), ["run", x, np.ascontiguousarray(x[::-1])])])
    # a NaN of another payload prints as nan too
    nans = np.array([np.nan, np.nan, -np.nan, np.nan])
    nans.view(np.int64)[1] += 1
    check([(4, ["run", nans])])


def test_int64_extremes_and_none_cells():
    ints = np.array([INT64.min, -1, 0, 0, 1, INT64.max, INT64.max])
    check([(7, ["r", ints, ints.astype(np.int8), [None, 1, None, 2.5, None,
                                                   None, 0.25], ""])])


def test_zero_row_runs_write_no_rows():
    empty = (0, ["gone", np.zeros(0, np.int64), np.zeros(0), [], ""])
    check([empty, (1, ["kept", np.array([3]), np.array([-0.0]), [None],
                       ""]), empty])
    assert written(["a", "b"], [(0, ["x", np.zeros(0)])]) == "a,b\r\n"


@pytest.mark.parametrize("k", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                               CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1])
def test_runs_of_equal_floats_across_chunk_edges(k):
    rng = np.random.default_rng(k)
    # runs of random lengths, some of them longer than a chunk, of values
    # that include -0.0 beside 0.0 and NaN
    values = rng.choice(np.array(FLOATS), size=k)
    lengths = rng.integers(1, 2 * CSV_CHUNK_ROWS, size=k)
    x = np.repeat(values, lengths)[:k]
    distinct = rng.standard_normal(k)
    ints = np.repeat(rng.integers(-5, 5, size=k), lengths)[:k]
    kinds = harness._KIND_NAMES[np.repeat(rng.integers(0, 3, size=k),
                                          lengths)[:k]]
    accuracy = [None] * k
    accuracy[-1] = 0.75
    check([(k, ["a,b", x, distinct, ints, kinds, accuracy, ""]),
           (k, ["", distinct, x, ints, kinds, [None] * k, ""])])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(NAMES),
                          st.lists(st.tuples(st.sampled_from(FLOATS),
                                             st.integers(1, 40)),
                                   max_size=30)),
                min_size=1, max_size=3))
def test_any_runs_of_floats_and_names(runs):
    parts = []
    for name, spans in runs:
        x = np.repeat(np.array([v for v, _ in spans], dtype=float),
                      [m for _, m in spans])
        parts.append((len(x), [name, np.arange(len(x)), x, -x,
                               np.ascontiguousarray(x[::-1])]))
    check(parts)


def _experiment(tmp_path, problem, data, names, **kw):
    cfg = ExperimentConfig(
        problem=problem, data=data, lam=0.5, max_iters=2500, tol=0.0,
        runs=[RunSpec(names[0]), RunSpec(names[1], rule="uniform")],
        out=str(tmp_path / "m"), **kw)
    return cfg, run_experiment(cfg)


@pytest.mark.parametrize("names", [("gs-s", "uniform"), ("a,b", '"x"'),
                                   ("c\rd", ""), ("e\nf", " lead")])
@pytest.mark.parametrize("problem,data,kw", [
    ("lasso", SynthSpec(CorrelatedLasso(n=60, d=20), seed=1), {}),
    ("svm", SynthSpec(RandomSvm(40, 6, 0.5), seed=2), {"test_split": 0.25})])
def test_metrics_csv_is_csv_writer_over_the_rows(tmp_path, names, problem,
                                                 data, kw):
    cfg, summary = _experiment(tmp_path, problem, data, names, **kw)
    rows = metric_rows(cfg, summary)
    # more rows than a chunk, and uniform runs of equal floats among them
    assert len(rows) > CSV_CHUNK_ROWS
    with open(cfg.out + ".csv", newline="") as fh:
        text = fh.read()
    assert text == reference(CSV_HEADER, (row.values() for row in rows))


def reference_plot(rows, x_axis):
    """The plot CSV as a csv.writer over zip_longest of its columns writes
    it."""
    series = {}
    for row in rows:
        series.setdefault(row["run"], []).append(row)
    header, columns = [], []
    for name, recs in series.items():
        xs = [r["iter"] for r in recs] if x_axis == "iter" else \
            (np.cumsum([r["wall_ns"] for r in recs]) / 1e9).tolist()
        ys = [max(float(r["suboptimality"] or 0.0), harness.SUBOPT_FLOOR)
              for r in recs]
        keep = harness._downsample(len(recs))
        header += ["%s_%s" % (name, x_axis), "%s_suboptimality" % name]
        columns += [[xs[i] for i in keep], [ys[i] for i in keep]]
    return reference(header, itertools.zip_longest(*columns), "\n")


@pytest.mark.parametrize("x_axis", ["iter", "wall"])
def test_plot_csv_is_csv_writer_over_padded_columns(x_axis):
    rng = np.random.default_rng(5)
    subs = [0.0, -0.0, float("nan"), 1e-20, 0.5, 0.5, 3.0]
    rows = [{"run": run, "iter": i, "wall_ns": int(rng.integers(0, 3000)),
             "suboptimality": float(rng.choice(subs))}
            for run, k in (("a,b", 2500), ("short", 7), ("", 1),
                           ('"q"', 2001))
            for i in range(k)]
    assert {str(r["suboptimality"]) for r in rows} == \
        {"0.0", "-0.0", "nan", "1e-20", "0.5", "3.0"}
    text = emit_plot_csv(plot_summary(rows), x_axis=x_axis)
    assert text == reference_plot(rows, x_axis)
    assert text.endswith("\n") and "\r" not in text


def test_adaptivity_csv_is_csv_writer_over_the_rows(tmp_path):
    cfg = ExperimentConfig(
        problem="lasso", data=SynthSpec(CorrelatedLasso(n=40, d=15), seed=3),
        runs=[RunSpec("lsh", engine="smips", backend="lsh", lsh_bits=4,
                      lsh_tables=4)],
        lam=0.1, max_iters=60, tol=1e-9, out=str(tmp_path / "adapt"))
    report = harness.adaptivity_report(cfg)
    with open(cfg.out + "_adaptivity.csv", newline="") as fh:
        text = fh.read()
    rows = report["rows"]
    assert text == reference(list(rows[0]), (r.values() for r in rows))
    # a row whose ratio is None writes an empty cell there
    rows = rows[:2] + [dict(rows[0], ratio=None)]
    header = list(rows[0])
    assert written(header, [(3, [[r[k] for r in rows] for k in header])]) \
        == reference(header, (r.values() for r in rows))
