"""Time to a certified solution, per selection rule, for greedycd.

One workload per process:

    python3 perfbench/run.py --workload lasso-dense --seed 1 --seconds 30 --trace 0

measures for ``--seconds`` seconds after an untimed warm-up, certifies every
solve with the benchmark's own duality gap, prints each metric by name and
unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics with no wrappers installed; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.

Every workload, every metric, and a recording of them:

    python3 perfbench/run.py --all --seeds 1,2,3 --record perfbench/baseline.json

runs each workload in its own process per seed, then a traced run per
workload, and prints one table. Workloads, parameters and the per-layer to
end-to-end mapping are in ``perfbench/provenance.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def metric_units():
    """(end-to-end, per-layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import greedycd from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "greedycd", "__init__.py")):
        _fail("no greedycd package under %s" % SRC)
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import greedycd
    if not os.path.abspath(greedycd.__file__).startswith(SRC + os.sep):
        _fail("imported greedycd from %s, not from %s"
              % (greedycd.__file__, SRC))
    return greedycd


def tail(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, statistics.quantiles(values, n=1000,
                                           method="inclusive")[int(p * 10) - 1]
    return None


def _describe(name, value, unit, values=None):
    line = "  %-36s %14.6g %-6s" % (name, value, unit)
    if values:
        line += " n=%d" % len(values)
        t = tail(values)
        if t:
            line += " p%g=%.6g" % t
    return line


# ---------------------------------------------------------------- one run

def _round(w, ctx, intervals, outcomes, tick, rec=None):
    """One round: the set-ups, then the job. Returns the job's context."""
    setups = w.setups_per_round if rec is None else int(not w.setup_in_job)
    if setups:
        tick()
    for _ in range(setups):
        t0 = time.perf_counter()
        ctx = w.setup()
        intervals.setdefault("setup_s", []).append(
            [(t0, time.perf_counter())])
    got, outs = w.job(ctx, rec, tick)
    for k, v in got.items():
        intervals.setdefault(k, []).append(v)
    outcomes.extend(outs)
    return ctx


def _durations(intervals, seconds=None):
    """Per-sample seconds: plain wall time, or ``seconds(start, end)``."""
    seconds = seconds or (lambda a, b: b - a)
    return {k: [sum(seconds(a, b) for a, b in sample) for sample in v]
            for k, v in intervals.items()}


def run_workload(name, seed, seconds, traced):
    _import_program()
    import layers
    import spans
    import workloads
    from speed import REFERENCE_S, Speedometer

    if name not in workloads.WORKLOADS:
        _fail("unknown workload %r; choose from %s"
              % (name, ", ".join(workloads.WORKLOADS)))
    e2e_units, layer_units = metric_units()
    workdir = os.path.join(ROOT, ".perfbench_tmp",
                           "%s-%d" % (name, os.getpid()))
    os.makedirs(workdir)
    try:
        w = workloads.WORKLOADS[name](seed, workdir)
        ctx = w.setup()
        w.warmup(ctx)
        speed = Speedometer()
        intervals, outcomes, peak_rss_mb = {}, [], None
        traced_intervals, tallies, rounds = {}, {}, 0
        t_end = time.perf_counter() + seconds
        while True:
            ctx = _round(w, ctx, intervals, outcomes, speed.tick)
            if peak_rss_mb is None:
                # the peak over set-up, warm-up and one round: a fixed amount
                # of work, unlike the time-bounded number of rounds
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if traced:
                with spans.Recorder(spans.FULL) as rec:
                    _round(w, ctx, traced_intervals, outcomes, speed.tick,
                           rec)
                for k, v in layers.tally_spans(rec.spans).items():
                    tallies[k] = tallies.get(k, 0) + v
                rounds += 1
                del rec
            if time.perf_counter() >= t_end:
                break
        failed = sum(1 for _, ok, _ in outcomes if not ok)
        raw = _durations(intervals,
                         lambda a, b: speed.seconds(a, b, scaled=False))
        samples = _durations(intervals, speed.seconds)
        if traced:
            overhead = sum(_durations(traced_intervals, speed.seconds)
                           ["experiment_s"]) / sum(samples["experiment_s"]) - 1
            metrics = layers.layer_metrics(workloads.CONFIGS, tallies, rounds,
                                           samples, overhead, ctx,
                                           layers.lsh_probe(w))
            units = layer_units
        else:
            metrics = {k: statistics.median(v) for k, v in samples.items()
                       if k in e2e_units}
            metrics["peak_rss_mb"] = peak_rss_mb
            metrics["certified_frac"] = 1.0 - failed / len(outcomes)
            units = e2e_units
        if set(metrics) != set(units):
            raise RuntimeError("metrics %s differ from BENCHMARK.json"
                               % sorted(set(metrics) ^ set(units)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    print("%s seed=%d trace=%d rounds=%d" % (name, seed, int(traced),
                                             len(raw["experiment_s"])))
    print("  speed kernel median %.4f s (reference %.4f s); times are "
          "scaled to the reference speed, raw medians after 'raw='"
          % (statistics.median(speed.kernel_s), REFERENCE_S))
    for label, ok, detail in dict.fromkeys(outcomes):
        print("  %s %s: %s" % ("ok" if ok else "FAILED", label, detail))
    for k in sorted(metrics):
        line = _describe(k, metrics[k], units[k], samples.get(k))
        if k in raw:
            line += " raw=%.6g" % statistics.median(raw[k])
        print(line)
    print("samples " + json.dumps(samples))
    return {"correct": failed == 0, "attempted": len(outcomes),
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in sorted(metrics.items())}}


# ---------------------------------------------------------------- all

def _code_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "greedycd")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as fh:
                h.update(fn.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_all(seeds, seconds, record):
    greedycd = _import_program()
    import numpy
    import scipy
    import workloads

    recording = {
        "program": {"version": greedycd.__version__,
                    "src_sha256": _code_digest()},
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "platform": platform.platform()},
        "seconds": seconds, "seeds": seeds, "workloads": {}}
    correct = True
    for name in workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(_subprocess(name, seed, seconds, 0))
        traced = _subprocess(name, seeds[0], seconds, 1)
        correct &= all(r["result"]["correct"] for r in runs + [traced])
        recording["workloads"][name] = {"runs": runs, "traced": traced}
        print("== %s (%d runs, medians over runs)" % (name, len(runs)))
        for k in sorted(runs[0]["result"]["metrics"]):
            vals = [r["result"]["metrics"][k]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][k]["unit"]
            pooled = [x for r in runs for x in r["samples"].get(k, [])]
            line = _describe(k, statistics.median(vals), unit, pooled or None)
            if len(vals) >= 4 and statistics.median(vals):
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += " runs' IQR/median=%.3f" % (
                    (q3 - q1) / statistics.median(vals))
            print(line)
        print("== %s traced (seed %d)" % (name, seeds[0]))
        for k, v in sorted(traced["result"]["metrics"].items()):
            print(_describe(k, v["value"], v["unit"]))
    if record:
        with open(record, "w") as fh:
            json.dump(recording, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return correct


def _subprocess(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd),
                                                   out.returncode,
                                                   out.stderr[-2000:]))
    samples = {}
    for line in lines:
        if line.startswith("samples "):
            samples = json.loads(line[len("samples "):])
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]),
            "samples": samples}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in its own process")
    ap.add_argument("--seeds", default="1",
                    help="comma-separated seeds for --all")
    ap.add_argument("--record", help="write a JSON recording (with --all)")
    args = ap.parse_args(argv)
    if args.all:
        seeds = [int(s) for s in args.seeds.split(",")]
        return 0 if run_all(seeds, args.seconds, args.record) else 1
    if not args.workload:
        ap.error("--workload or --all is required")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
