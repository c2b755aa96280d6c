"""Per-layer metrics from the spans of traced rounds.

Each ``solver.solve`` span is split into the four step phases by the names of
its direct children; whatever a solve does outside select, stop and update,
its own self time included, is bookkeeping, so the phases add up to the
solve's traced wall time. Counts are per traced round, times per call or per
step, and a metric whose layer the workload does not run reads 0.
"""

import statistics

import greedycd.harness as harness

from spans import (END, FULL, NAME, PARENT, START, TAG, Recorder,
                   outermost)


def _ratio(a, b):
    return a / b if b else 0.0


SELECT = {"objectives.full_grad", "selection.select_gsq",
          "selection.select_gsr", "selection.select_uniform",
          "selection.active_set", "smips.engine_select"}
STOP = {"objectives.duality_gap"}
UPDATE = {"objectives.coord_grad", "solver.line_search_1d",
          "objectives.apply_coord_delta", "smips.engine_note_step"}
PHASES = ("select", "stop", "update", "bookkeep")


def _phase(name, config):
    if name == "objectives.subgrad_score":
        # the score vector gs-s picks from; a stop check for every other rule
        return "select" if config == "gs-s" else "stop"
    if name in SELECT:
        return "select"
    if name in STOP:
        return "stop"
    if name in UPDATE:
        return "update"
    return "bookkeep"   # objective_value, engine resets, ...


def tally_spans(recorded):
    """Sums over one traced round, keyed by what they count."""
    t = {}

    def add(key, v):
        t[key] = t.get(key, 0) + v

    kids = {}
    for s in recorded:
        kids.setdefault(s[PARENT], []).append(s)
    for i, s in enumerate(recorded):
        name, dur = s[NAME], s[END] - s[START]
        add("calls." + name, 1)
        add("ns." + name, dur)
        if name in ("smips.query", "smips.engine_build"):
            add("calls.%s.%s" % (name, s[TAG]), 1)
            add("ns.%s.%s" % (name, s[TAG]), dur)
        elif name == "sparse.matvec_T":
            add("bytes." + name, s[TAG])
        elif name == "solver.solve":
            config = s[TAG]["config"]
            phase = dict.fromkeys(PHASES, 0)
            children = kids.get(i, [])
            for c in children:
                phase[_phase(c[NAME], config)] += c[END] - c[START]
            phase["bookkeep"] += dur - sum(c[END] - c[START]
                                           for c in children)
            if sum(phase.values()) != dur:
                raise RuntimeError("phases do not add up to the solve")
            for k, v in phase.items():
                add("%s.%s" % (k, config), v)
            add("solve_ns." + config, dur)
            add("steps." + config, s[TAG]["trace"].n_steps)
            parent = s[PARENT]
            if parent >= 0 and recorded[parent][NAME] == \
                    "harness.run_experiment":
                add("harness.solve_ns." + config, dur)
                add("harness.solves." + config, 1)
        elif name == "harness.run_experiment":
            add("harness.self_ns", dur - sum(c[END] - c[START]
                                             for c in kids.get(i, [])))
        elif name == "harness.polish":
            add("harness.polish.steps",
                sum(1 for c in kids.get(i, [])
                    if c[NAME] == "objectives.apply_coord_delta"))
    for s in outermost(recorded, "sparse.build"):
        add("ns.sparse.build.outer", s[END] - s[START])
    return t


def layer_metrics(configs, tallies, rounds, untraced, overhead, ctx, lsh):
    """Per-layer metric values from tallies summed over ``rounds``."""
    g = tallies.get
    m = {}
    for c in configs:
        steps = g("steps." + c, 0)
        m["solver.%s.steps" % c] = _ratio(steps, rounds)
        m["solver.%s.us_per_step" % c] = _ratio(g("solve_ns." + c, 0),
                                                steps) / 1e3
        for ph in PHASES:
            m["solver.%s.%s_us_per_step" % (c, ph)] = _ratio(
                g("%s.%s" % (ph, c), 0), steps) / 1e3
        times = untraced.get("solve_s." + c)
        m["solver.%s.solve_s" % c] = statistics.median(times) if times \
            else 0.0

    def per_round(name):
        return _ratio(g("calls." + name, 0), rounds)

    def per_call(name, scale):
        return _ratio(g("ns." + name, 0), g("calls." + name, 0)) * scale

    m["sparse.matvec_T.calls"] = per_round("sparse.matvec_T")
    m["sparse.matvec_T.us_per_call"] = per_call("sparse.matvec_T", 1e-3)
    m["sparse.matvec_T.bytes_per_call"] = _ratio(
        g("bytes.sparse.matvec_T", 0), g("calls.sparse.matvec_T", 0))
    m["sparse.col_dot.calls"] = per_round("sparse.col_dot")
    m["sparse.col_axpy.calls"] = per_round("sparse.col_axpy")
    for name in ("full_grad", "objective_value", "duality_gap",
                 "residual_refresh"):
        m["objectives.%s.calls" % name] = per_round("objectives." + name)
    m["selection.select_gsq.us_per_call"] = per_call("selection.select_gsq",
                                                     1e-3)
    m["selection.active_set.us_per_call"] = per_call("selection.active_set",
                                                     1e-3)
    m["smips.build_s"] = per_call("smips.engine_build.Exact", 1e-9)
    engine = ctx.get("engine")
    m["smips.points_mb"] = engine.points.points.nbytes / 2**20 \
        if engine is not None else 0.0
    m["smips.lsh_fit_s"] = per_call("smips.lsh_fit", 1e-9)
    m["smips.query.us_per_call"] = per_call("smips.query.Exact", 1e-3)
    m.update(lsh)
    m["data_io.generate_s"] = per_call("data_io.gen_synthetic", 1e-9)
    m["data_io.parse_libsvm_s"] = per_call("data_io.parse_libsvm", 1e-9)
    m["data_io.fold_labels_s"] = per_call("data_io.fold_labels", 1e-9)
    m["sparse.build_s"] = _ratio(g("ns.sparse.build.outer", 0), rounds) * 1e-9
    experiments = g("calls.harness.run_experiment", 0)
    m["harness.load_s"] = per_call("harness.build_problem", 1e-9) \
        if experiments else 0.0
    for c in ("gs-s", "uniform"):
        m["harness.solve_s." + c] = _ratio(
            g("harness.solve_ns." + c, 0), g("harness.solves." + c, 0)) * 1e-9
    m["harness.polish_s"] = per_call("harness.polish", 1e-9)
    m["harness.polish.steps"] = _ratio(g("harness.polish.steps", 0),
                                       g("calls.harness.polish", 0))
    m["harness.self_s"] = _ratio(g("harness.self_ns", 0), experiments) * 1e-9
    m["trace.overhead_frac"] = overhead
    return m


LSH_METRICS = ("smips.lsh.queries", "smips.lsh.query_us_per_call",
               "smips.lsh.candidates_per_query", "smips.lsh.recall_at_1",
               "smips.lsh.median_ratio", "smips.lsh.fallback_rate")


def lsh_probe(workload):
    """Fixed-budget adaptivity_report on the workload; zeros where none."""
    if not hasattr(workload, "lsh_probe_config"):
        return dict.fromkeys(LSH_METRICS, 0.0)
    with Recorder(FULL) as rec:
        report = harness.adaptivity_report(workload.lsh_probe_config())
    rows = report["rows"]
    queries = [s for s in rec.spans if s[NAME] == "smips.query"
               and s[TAG] == "HyperplaneLsh"]
    cands = [s[TAG] for s in rec.spans
             if s[NAME] == "smips.lsh_candidates"]
    return {
        "smips.lsh.queries": float(len(rows)),
        "smips.lsh.query_us_per_call": _ratio(
            sum(s[END] - s[START] for s in queries), len(queries)) / 1e3,
        "smips.lsh.candidates_per_query": _ratio(sum(cands), len(cands)),
        "smips.lsh.recall_at_1": _ratio(
            sum(r["lsh_mask"] == r["exact_mask"] for r in rows), len(rows)),
        "smips.lsh.median_ratio": report["median_ratio"] or 0.0,
        "smips.lsh.fallback_rate": _ratio(report["fallbacks"], len(rows)),
    }
