"""Command-line front end.

Usage:
    greedycd [CONFIG] [flags]

CONFIG is an optional flat key-value text file (one `key = value` per line,
'#' comments); keys are the long flag names without the leading dashes
('_' may stand for '-'), and values get the same checks as flags.
Command-line flags override config values. The boolean flags take an
optional yes/no value. Exit codes: 0 success, 1 config error, 2 run failure.

Synthetic data specs (--synthetic):
    diag:1,2,4                          diagonal quadratic, given spectrum
    correlated:n=1000,d=100[,density=0.1,correlation=0.5,noise=0.01]
    svm:n=50,d=10[,margin=0.1]
"""

import argparse
import sys
from dataclasses import MISSING, fields

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
        k = k.strip()
        try:
            # the sizes are whole numbers: n=50.7 is refused, not cut to 50
            kv[k] = int(v) if k in ("n", "d") else float(v)
        except ValueError:
            raise ValueError("%s spec: bad value %r for key %r"
                             % (kind, v.strip(), k))
    cls = {"correlated": CorrelatedLasso, "correlatedlasso": CorrelatedLasso,
           "svm": RandomSvm, "randomsvm": RandomSvm}.get(kind)
    if cls is None:
        raise ValueError("unknown synthetic kind %r" % kind)
    faults = ["unknown key %r" % k
              for k in sorted(set(kv) - {f.name for f in fields(cls)})] \
        + ["missing key %r" % f.name for f in fields(cls)
           if f.default is MISSING and f.name not in kv]
    if faults:
        raise ValueError("%s spec: %s" % (kind, ", ".join(faults)))
    return SynthSpec(cls(**kv), seed=seed)


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


def _yes_no(text):
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError("expected yes or no, got %r" % text)


def _build_parser():
    # an option nobody sets is left out, so it keeps the ExperimentConfig
    # or RunSpec default; no abbreviations, so a config key names a flag
    ap = argparse.ArgumentParser(
        prog="greedycd", argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
        description="Greedy coordinate descent experiment runner.")
    ap.add_argument("config", nargs="?",
                    help="optional flat key-value config file")
    ap.add_argument("--problem", choices=["lasso", "svm", "logistic",
                                          "elasticnet"])
    ap.add_argument("--data", help="path to a libsvm-format file (optionally "
                    "gzip-compressed)")
    ap.add_argument("--synthetic", help="synthetic data spec; see module help")
    ap.add_argument("--rule",
                    help="comma-separated list of gs-s, gs-r, gs-q, uniform")
    ap.add_argument("--engine", choices=["exact", "smips"])
    ap.add_argument("--backend", choices=["exact-scan", "lsh"],
                    help="lsh needs --engine smips")
    ap.add_argument("--lambda", dest="lam", type=float)
    ap.add_argument("--lambda2", dest="lam2", type=float)
    ap.add_argument("--beta", type=float,
                    help="augmentation scale (default 50/sqrt(n))")
    ap.add_argument("--lsh-bits", type=int)
    ap.add_argument("--lsh-tables", type=int)
    ap.add_argument("--max-iters", type=int)
    ap.add_argument("--tol", type=float,
                    help="stop tolerance: on lasso, elasticnet and logistic "
                    "a 'tol' stop means the steepest subgradient score "
                    "reached it, which is not a duality gap; on svm it "
                    "means the steepest active-set score or the duality "
                    "gap did, whichever came first. Either way the printed "
                    "gap= is the certificate")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--normalize", type=_yes_no, nargs="?", const=True)
    ap.add_argument("--out", help="output path prefix for CSV/JSON, in a "
                    "directory that exists")
    ap.add_argument("--adaptivity", type=_yes_no, nargs="?", const=True,
                    help="emit the four-way search-quality report instead "
                    "of the plain metrics run")
    ap.add_argument("--plot-x", choices=["iter", "wall"],
                    help="also write the plot CSV <out>_plot.csv")
    ap.add_argument("--test-split", type=float,
                    help="held-out fraction (svm and logistic only)")
    ap.add_argument("--line-search", dest="use_line_search", type=_yes_no,
                    nargs="?", const=True)
    return ap


def _parse(ap, argv):
    """The options of the config file and then the command line, as a dict.

    Both go through the same parser, the file's lines as `--key=value`
    tokens ahead of the command line, so later flags win.
    """
    config = getattr(ap.parse_args(argv), "config", None)
    tokens = []
    if config is not None:
        tokens = ["--%s=%s" % (key.replace("_", "-"), value)
                  for key, value in parse_config_file(config).items()]
    return vars(ap.parse_args(tokens + argv))


_RUN_OPTIONS = ("engine", "backend", "lsh_bits", "lsh_tables",
                "use_line_search")


def _experiment_config(opts):
    """One RunSpec per rule; the rest of opts are ExperimentConfig fields."""
    opts.pop("config", None)
    data, synthetic = opts.pop("data", None), opts.pop("synthetic", None)
    if "problem" not in opts:
        raise ValueError("--problem is required")
    if (data is None) == (synthetic is None):
        raise ValueError("exactly one of --data / --synthetic is required")
    if synthetic is not None:
        data = parse_synthetic(synthetic,
                               opts.get("seed", ExperimentConfig.seed))
    run_opts = {k: opts.pop(k) for k in _RUN_OPTIONS if k in opts}
    rules = [r.strip() for r in opts.pop("rule", RunSpec.rule).split(",")
             if r.strip()]
    runs = [RunSpec(name=rule if len(rules) > 1 else "run", rule=rule,
                    **run_opts) for rule in rules]
    return ExperimentConfig(data=data, runs=runs, **opts)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        opts = _parse(_build_parser(), argv)
        adaptivity = opts.pop("adaptivity", False)
        plot_x = opts.pop("plot_x", None)
        if plot_x is not None and not opts.get("out"):
            raise ValueError("--plot-x needs --out")
        cfg = _experiment_config(opts)
        cfg.validate()
    except SystemExit as exc:
        # argparse already printed its message; 0 is --help
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1

    try:
        if adaptivity:
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
        print("%s: status=%s steps=%d final_f=%.6g gap=%.3g" %
              (name, info["status"], info["steps"], info["final_f"],
               info["gap"]))
    if summary["runs"]:
        print("F* in [%.10g, %.10g]" % (summary["f_lower"],
                                        summary["f_upper"]))
    if summary["errors"]:
        for name, msg in summary["errors"].items():
            print("run failure in %s: %s" % (name, msg), file=sys.stderr)
        return 2
    if plot_x is not None:
        emit_plot_csv(summary, x_axis=plot_x, stream=cfg.out + "_plot.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
