"""One contract over experiment-level command lines.

Every draw of problem, weights, tolerance, seed, step budget, held-out
split and output options either is refused as a config error before any
data is loaded, with nothing written, or loads and exits 0 (success) or 2
(a run failed). No exception escapes cli.main.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from greedycd import cli, harness

# each problem with the tiny synthetic specs it takes
DATA = {"lasso": ("correlated:n=12,d=6", "diag:1,2,4"),
        "elasticnet": ("correlated:n=12,d=6", "diag:1,2,4"),
        "svm": ("svm:n=12,d=4",),
        "logistic": ("svm:n=12,d=4",)}
# each option's values that some problem takes, and values no problem
# takes; "1.5" is no integer, which argparse refuses
OPTIONS = {"--lambda": (("0.1", "0"), ("-1", "nan", "inf")),
           "--lambda2": (("0.1", "0"), ("-1", "nan", "inf")),
           "--tol": (("1e-6", "0", "inf"), ("-1", "nan")),
           "--seed": (("0", "7"), ("-1", "1.5")),
           "--max-iters": (("1", "30"), ("0", "-3")),
           "--test-split": (("0", "0.3"), ("1", "-0.2", "nan"))}
LSH = ["--engine", "smips", "--backend", "lsh", "--lsh-bits", "4",
       "--lsh-tables", "4"]


@st.composite
def command_lines(draw):
    """(argv, whether it writes under the out prefix) of one draw."""
    problem = draw(st.sampled_from(sorted(DATA)))
    argv = ["--problem", problem,
            "--synthetic", draw(st.sampled_from(DATA[problem]))]
    # half the draws take only values some problem takes, so that most
    # of those load and solve; each option is left out half the time
    refusable = draw(st.booleans())
    for flag, (valid, refused) in sorted(OPTIONS.items()):
        values = valid + refused if refusable else valid
        value = draw(st.sampled_from((None,) * len(values) + values))
        if value is not None:
            argv += [flag, value]
    if draw(st.booleans()):
        argv += LSH
    if draw(st.booleans()):
        argv.append("--adaptivity")
    plot_x = draw(st.sampled_from([None, None, "iter", "wall"]))
    if plot_x is not None:
        argv += ["--plot-x", plot_x]
    return argv, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_refused_before_the_load_or_run(drawn):
    argv, writes = drawn
    loads = []
    load = harness._load_dataset

    def counted(cfg):
        loads.append(cfg)
        return load(cfg)

    with tempfile.TemporaryDirectory() as tmp:
        if writes:
            argv = argv + ["--out", os.path.join(tmp, "run")]
        err = io.StringIO()
        with mock.patch.object(harness, "_load_dataset", counted), \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        written = os.listdir(tmp)
    err = err.getvalue()
    if code == 1:
        assert loads == [], (argv, err)
        assert err.startswith(("config error:", "usage: greedycd")), \
            (argv, err)
        assert written == [], (argv, written)
    else:
        assert code in (0, 2), (argv, code, err)
        assert len(loads) == 1, argv
