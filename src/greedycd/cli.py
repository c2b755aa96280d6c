"""Command-line front end.

Usage:
    greedycd [CONFIG] [flags]

CONFIG is an optional flat key-value text file (one `key = value` per line,
'#' comments); keys are the long flag names without the leading dashes.
Command-line flags override config values. Exit codes: 0 success, 1 config
error, 2 run failure.

Synthetic data specs (--synthetic):
    diag:1,2,4                          diagonal quadratic, given spectrum
    correlated:n=1000,d=100[,density=0.1,correlation=0.5,noise=0.01]
    svm:n=50,d=10[,margin=0.1]
"""

import argparse
import sys

from .data_io import CorrelatedLasso, DiagQuadratic, RandomSvm, SynthSpec
from .harness import (ExperimentConfig, RunSpec, adaptivity_report,
                      emit_plot_csv, run_experiment)

__all__ = ["main", "parse_config_file", "parse_synthetic"]


def parse_synthetic(text, seed):
    """Turn a spec string like "diag:1,2,4" into a SynthSpec."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind in ("diag", "diagquadratic"):
        spectrum = tuple(float(x) for x in rest.split(",") if x.strip())
        if not spectrum:
            raise ValueError("diag spec needs a comma-separated spectrum")
        return SynthSpec(DiagQuadratic(spectrum), seed=seed)
    kv = {}
    for part in rest.split(","):
        if not part.strip():
            continue
        k, _, v = part.partition("=")
        if not _:
            raise ValueError("expected key=value in synthetic spec, got %r"
                             % part)
        kv[k.strip()] = float(v)
    if kind in ("correlated", "correlatedlasso"):
        return SynthSpec(CorrelatedLasso(
            n=int(kv.pop("n")), d=int(kv.pop("d")),
            density=kv.pop("density", 0.1),
            correlation=kv.pop("correlation", 0.5),
            noise=kv.pop("noise", 0.01)), seed=seed)
    if kind in ("svm", "randomsvm"):
        return SynthSpec(RandomSvm(n=int(kv.pop("n")), d=int(kv.pop("d")),
                                   margin=kv.pop("margin", 0.1)), seed=seed)
    raise ValueError("unknown synthetic kind %r" % kind)


def parse_config_file(path):
    """Flat `key = value` lines -> dict keyed by long-flag names."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError("%s line %d: expected key = value"
                                 % (path, lineno))
            out[key.strip().lower()] = value.strip()
    return out


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="greedycd",
        description="Greedy coordinate descent experiment runner.")
    ap.add_argument("config", nargs="?", default=None,
                    help="optional flat key-value config file")
    ap.add_argument("--problem",
                    choices=["lasso", "svm", "logistic", "elasticnet"])
    ap.add_argument("--data", help="path to a libsvm-format file (optionally "
                    "gzip-compressed)")
    ap.add_argument("--synthetic", help="synthetic data spec; see module help")
    ap.add_argument("--rule", default=None,
                    help="comma-separated list of gs-s, gs-r, gs-q, uniform")
    ap.add_argument("--engine", choices=["exact", "smips"])
    ap.add_argument("--backend", choices=["exact-scan", "lsh"])
    ap.add_argument("--lambda", dest="lam", type=float)
    ap.add_argument("--lambda2", dest="lam2", type=float)
    ap.add_argument("--beta", type=float,
                    help="augmentation scale (default 50/sqrt(n))")
    ap.add_argument("--lsh-bits", type=int)
    ap.add_argument("--lsh-tables", type=int)
    ap.add_argument("--max-iters", type=int)
    ap.add_argument("--tol", type=float)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--normalize", action="store_true", default=None)
    ap.add_argument("--out", help="output path prefix for CSV/JSON")
    ap.add_argument("--adaptivity", action="store_true", default=None,
                    help="emit the four-way search-quality report instead "
                    "of the plain metrics run")
    ap.add_argument("--plot-x", choices=["iter", "wall"], default=None,
                    help="also emit a plot-ready wide CSV on this axis")
    ap.add_argument("--workers", type=int)
    ap.add_argument("--test-split", type=float)
    ap.add_argument("--line-search", action="store_true", default=None)
    return ap


_DEFAULTS = {
    "problem": None, "data": None, "synthetic": None, "rule": "gs-s",
    "engine": "exact", "backend": "exact-scan", "lam": 0.1, "lam2": 0.0,
    "beta": None, "lsh_bits": 8, "lsh_tables": 10, "max_iters": 1000,
    "tol": 1e-8, "seed": 0, "normalize": False, "out": None,
    "adaptivity": False, "plot_x": None, "workers": 1, "test_split": 0.0,
    "line_search": False,
}

_CASTS = {
    "lam": float, "lam2": float, "beta": float, "tol": float,
    "test_split": float, "lsh_bits": int, "lsh_tables": int,
    "max_iters": int, "seed": int, "workers": int,
    "normalize": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "adaptivity": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "line_search": lambda v: v.lower() in ("1", "true", "yes", "on"),
}


def _merge(args):
    """Defaults < config file < command line."""
    merged = dict(_DEFAULTS)
    if args.config:
        for key, value in parse_config_file(args.config).items():
            attr = key.replace("-", "_")
            if attr == "lambda":
                attr = "lam"
            elif attr == "lambda2":
                attr = "lam2"
            if attr not in merged:
                raise ValueError("unknown config key %r" % key)
            merged[attr] = _CASTS.get(attr, str)(value)
    for attr in merged:
        cli_val = getattr(args, attr, None)
        if cli_val is not None:
            merged[attr] = cli_val
    return merged


def _experiment_config(opt):
    if opt["problem"] is None:
        raise ValueError("--problem is required")
    if (opt["data"] is None) == (opt["synthetic"] is None):
        raise ValueError("exactly one of --data / --synthetic is required")
    data = opt["data"] if opt["data"] is not None \
        else parse_synthetic(opt["synthetic"], opt["seed"])
    rules = [r.strip() for r in str(opt["rule"]).split(",") if r.strip()]
    runs = []
    for rule in rules:
        name = rule if len(rules) > 1 else "run"
        runs.append(RunSpec(name=name, rule=rule, engine=opt["engine"],
                            backend=opt["backend"], lsh_bits=opt["lsh_bits"],
                            lsh_tables=opt["lsh_tables"],
                            use_line_search=opt["line_search"]))
    return ExperimentConfig(
        problem=opt["problem"], data=data, runs=runs, lam=opt["lam"],
        lam2=opt["lam2"], beta=opt["beta"], max_iters=opt["max_iters"],
        tol=opt["tol"], seed=opt["seed"], out=opt["out"],
        normalize=opt["normalize"], test_split=opt["test_split"],
        workers=opt["workers"])


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        opt = _merge(args)
        cfg = _experiment_config(opt)
        cfg.validate()
    except SystemExit as exc:
        # argparse already printed its message; 0 is --help
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1

    try:
        if opt["adaptivity"]:
            report = adaptivity_report(cfg)
            print("adaptivity: %d iterations, median subset ratio %s, "
                  "%d fallbacks" % (len(report["rows"]),
                                    report["median_ratio"],
                                    report["fallbacks"]))
            return 0
        summary = run_experiment(cfg)
    except (ValueError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("run failure: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2

    for name, info in summary["runs"].items():
        print("%s: status=%s steps=%d final_f=%.6g" %
              (name, info["status"], info["steps"], info["final_f"]))
    if summary["errors"]:
        for name, msg in summary["errors"].items():
            print("run failure in %s: %s" % (name, msg), file=sys.stderr)
        return 2
    if opt["plot_x"] and cfg.out:
        emit_plot_csv(summary["rows"], x_axis=opt["plot_x"],
                      stream=cfg.out + "_plot.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
