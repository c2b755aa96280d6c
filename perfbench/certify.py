"""Duality-gap certificates computed by the benchmark itself.

Each function takes the problem data as plain arrays, recomputes A alpha from
scratch (never the solver's maintained residual) and returns
``(primal, gap)``. By weak duality ``primal - gap`` is a lower bound on the
optimum, so ``gap <= eps`` certifies that ``alpha`` is eps-optimal whatever
stop rule the solver used.
"""

import csv
import json

import numpy as np
import scipy.sparse as sps


def csc_of(matrix):
    """scipy view of a greedycd SparseColMatrix (shares no solver state)."""
    return sps.csc_matrix((np.array(matrix.values),
                           np.array(matrix.row_indices),
                           np.array(matrix.col_starts)),
                          shape=(matrix.n_rows, matrix.n_cols))


def lasso_gap(A, b, lam, alpha):
    """0.5||A alpha - b||^2 + lam||alpha||_1 against the rescaled residual."""
    r = b - A @ alpha
    primal = 0.5 * float(r @ r) + lam * float(np.abs(alpha).sum())
    corr = float(np.abs(A.T @ r).max())
    theta = r * min(1.0, lam / corr) if corr > 0 else r
    dual = 0.5 * float(b @ b) - 0.5 * float((b - theta) @ (b - theta))
    return primal, primal - dual


def svm_gap(A_signed, lam, alpha):
    """Hinge primal at w = A alpha / (lam n) minus the box dual at alpha.

    ``primal`` is returned as the solver's objective, the negated dual.
    """
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        return float("inf"), float("inf")
    n = A_signed.shape[1]
    v = A_signed @ alpha
    w = v / (lam * n)
    hinge = float(np.maximum(1.0 - A_signed.T @ w, 0.0).mean()) \
        + 0.5 * lam * float(w @ w)
    dual = float(alpha.mean()) - float(v @ v) / (2.0 * lam * n * n)
    return -dual, hinge - dual


def logistic_gap(Z, lam, alpha):
    """L1-logistic primal against the rescaled loss gradient.

    Z holds the label-folded examples as rows. The dual point is
    theta = sigma(-Z alpha) scaled into ||Z^T theta||_inf <= lam, and the
    dual value is the summed binary entropy of theta.
    """
    z = Z @ alpha
    primal = float(np.logaddexp(0.0, -z).sum()) \
        + lam * float(np.abs(alpha).sum())
    theta = 0.5 * (1.0 - np.tanh(z / 2.0))
    corr = float(np.abs(Z.T @ theta).max())
    if corr > lam:
        theta *= lam / corr
    inner = (theta > 0.0) & (theta < 1.0)
    t = theta[inner]
    dual = float(-(t * np.log(t) + (1.0 - t) * np.log1p(-t)).sum())
    return primal, primal - dual


def check_experiment_files(prefix, expected_steps, csv_header):
    """Problems with the CSV/JSON a run_experiment call wrote, as strings.

    ``expected_steps`` maps run name to its step count; the JSON must list
    exactly those runs with those counts and no errors, and the CSV must hold
    one row per step whose last f_value matches the JSON's final_f.
    """
    problems = []
    with open(prefix + ".json") as fh:
        summary = json.load(fh)
    if summary.get("errors"):
        problems.append("errors in summary: %r" % summary["errors"])
    runs = summary.get("runs", {})
    if set(runs) != set(expected_steps):
        problems.append("runs %r, expected %r"
                        % (sorted(runs), sorted(expected_steps)))
    with open(prefix + ".csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != list(csv_header):
        problems.append("csv header %r" % header)
        return problems, summary
    col = {k: i for i, k in enumerate(header)}
    for name, steps in expected_steps.items():
        mine = [r for r in rows if r[col["run"]] == name]
        info = runs.get(name, {})
        if info.get("steps") != steps or len(mine) != steps:
            problems.append("%s: %r steps in json, %d csv rows, expected %d"
                            % (name, info.get("steps"), len(mine), steps))
        elif steps and float(mine[-1][col["f_value"]]) != info["final_f"]:
            problems.append("%s: last csv f_value differs from final_f"
                            % name)
    return problems, summary
