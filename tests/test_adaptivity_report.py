"""adaptivity_report against the hand-written four-way loop it replaces.

The report follows the exact greedy path through the solvers' own step loop,
with a selector that runs the four searches and logs a row per step. Its
rows must equal, cell by cell and bitwise (compared by repr), those of a
loop that queries, logs, stops once the exact live-subset answer reaches
tol, and otherwise steps to that answer's coordinate: with and without line
search, on L1 and box problems, at tol 0 and at stops inside the budget.
"""

import numpy as np
import pytest

from greedycd import harness, smips as sm, solver
from greedycd.data_io import CorrelatedLasso, DiagQuadratic, RandomSvm, \
    SynthSpec
from greedycd.harness import ExperimentConfig, RunSpec, adaptivity_report
from greedycd.objectives import IterateState
from greedycd.solver import SmipsEngine


def four_way_reference(cfg):
    """The report's rows from a loop of its own: query, log, stop at tol,
    step to the exact live-subset coordinate, repair the mask. Its state
    keeps the gradient, as the report's exact-engine solve does, so the
    steps read the same g_j."""
    [run] = [r for r in cfg.runs if r.backend == "lsh"]
    p, _ = harness.build_problem(cfg)
    scfg = harness._solver_config(p, cfg, run)
    engine = scfg.engine
    points, lsh = engine.points, engine.backend
    all_mask = sm.SubsetMask(included=np.ones(points.n_points, dtype=bool),
                             kind=engine.kind)
    s = IterateState.zeros(p)
    s.track_gradient(p)
    steps = solver._steps_for(p, scfg, s, engine)
    rows = []
    for t in range(cfg.max_iters):
        q = engine.query(p, s)
        pid_m, exact_mask, _ = sm.smips_query(points, q, engine.mask,
                                              sm.Exact())
        _, exact_all, _ = sm.smips_query(points, q, all_mask, sm.Exact())
        _, lsh_all, fb_a = sm.smips_query(points, q, all_mask, lsh)
        _, lsh_mask, fb_m = sm.smips_query(points, q, engine.mask, lsh)
        ratio = lsh_mask / exact_mask if exact_mask > 0 else None
        rows.append({"iter": t, "exact_all": exact_all,
                     "exact_mask": exact_mask, "lsh_all": lsh_all,
                     "lsh_mask": lsh_mask, "ratio": ratio,
                     "fell_back": int(fb_a or fb_m)})
        if exact_mask <= cfg.tol:
            break
        j, _ = sm.point_to_coordinate(points, pid_m)
        aj = float(s.alpha[j])
        _, new = steps.step(p, s, j, aj)
        steps.move(p, s, j, aj, new)  # which repairs the mask
    return rows


def cells(rows):
    return [[(k, repr(v)) for k, v in row.items()] for row in rows]


INSTANCES = {
    "lasso-200x40": (dict(problem="lasso",
                          data=SynthSpec(CorrelatedLasso(200, 40), seed=0),
                          tol=1e-8, max_iters=400), None),
    "diag-quadratic": (dict(problem="lasso",
                            data=SynthSpec(DiagQuadratic((4.0, 2.0, 1.0)),
                                           seed=1),
                            lam=0.05, tol=0.0, max_iters=150), None),
    "lasso-300x30-stops": (dict(problem="lasso",
                                data=SynthSpec(CorrelatedLasso(300, 30),
                                               seed=2),
                                lam=0.5, tol=1e-6, max_iters=3000),
                           (1198, 1198)),
    "svm-60x10": (dict(problem="svm", data=SynthSpec(RandomSvm(60, 10), 0),
                       lam=0.1, tol=0.0, max_iters=400), None),
    "svm-100x10-stops": (dict(problem="svm",
                              data=SynthSpec(RandomSvm(100, 10), 3),
                              lam=0.1, tol=1e-5, max_iters=3000),
                         (546, 249)),
}


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("name", list(INSTANCES))
def test_rows_equal_the_four_way_loop(name, line_search):
    settings, stops = INSTANCES[name]
    cfg = ExperimentConfig(
        runs=[RunSpec("lsh", engine="smips", backend="lsh", lsh_bits=6,
                      lsh_tables=4, use_line_search=line_search)],
        **settings)
    want = four_way_reference(cfg)
    got = adaptivity_report(cfg)["rows"]
    assert cells(got) == cells(want)
    if stops is not None:  # a stop inside the budget, at a known row
        assert len(got) == stops[line_search] < cfg.max_iters


@pytest.mark.parametrize("name", ["lasso-300x30-stops", "svm-100x10-stops"])
def test_final_row_reads_the_final_mask(monkeypatch, name):
    """Every row's two searches of the live subset read the mask built from
    the iterate the row's query is made at, the row logged after a stop at
    tol included, whose iterate is the solve's final one."""
    alphas, masks, traces = [], [], []
    query, search, solve = SmipsEngine.query, sm.smips_query, harness._solve
    monkeypatch.setattr(SmipsEngine, "query",
                        lambda self, p, s: alphas.append(s.alpha.copy())
                        or query(self, p, s))
    monkeypatch.setattr(sm, "smips_query",
                        lambda ps, q, m, backend: masks.append(
                            (m.kind, m.included.copy()))
                        or search(ps, q, m, backend))
    monkeypatch.setattr(harness, "_solve",
                        lambda *args, **kw: traces.append(solve(*args, **kw))
                        or traces[-1])
    cfg = ExperimentConfig(
        runs=[RunSpec("lsh", engine="smips", backend="lsh", lsh_bits=6,
                      lsh_tables=4)], **INSTANCES[name][0])
    rows = adaptivity_report(cfg)["rows"]
    [trace] = traces
    assert trace.status == "tol"
    assert len(alphas) == len(rows) and len(masks) == 4 * len(rows)
    for row, alpha in enumerate(alphas):
        # a row searches the subset, all points twice, then the subset
        for kind, included in (masks[4 * row], masks[4 * row + 3]):
            build = sm.build_l1_mask if kind == "l1" else sm.build_box_mask
            np.testing.assert_array_equal(included, build(alpha).included)
    np.testing.assert_array_equal(alphas[-1], trace.final_state.alpha)
