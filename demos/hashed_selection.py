"""Greedy selection by approximate maximum inner product search.

The steepest coordinate can be found by a nearest-neighbor style query
over a fixed set of augmented columns. An exact scan reproduces greedy
selection bit for bit; a hyperplane-hashing backend answers the same
query approximately, and the adaptivity report shows how close its
answers stay to the exact maxima as the iterate becomes sparse.

Run:  python3 demos/hashed_selection.py
"""

from greedycd.data_io import CorrelatedLasso, SynthSpec
from greedycd.harness import ExperimentConfig, RunSpec, adaptivity_report
from greedycd.smips import HyperplaneLsh


def main():
    cfg = ExperimentConfig(
        problem="lasso",
        data=SynthSpec(CorrelatedLasso(200, 50, density=0.1), seed=5),
        runs=[RunSpec("lsh", engine="smips", backend="lsh",
                      lsh_bits=4, lsh_tables=16)],
        lam=0.05, max_iters=400, tol=1e-9)
    report = adaptivity_report(cfg)

    rows = report["rows"]
    print("%6s  %11s  %11s  %11s  %11s" % (
        "iter", "exact_all", "exact_mask", "lsh_all", "lsh_mask"))
    for row in rows[:: max(1, len(rows) // 15)]:
        print("%6d  %11.4e  %11.4e  %11.4e  %11.4e" % (
            row["iter"], row["exact_all"], row["exact_mask"],
            row["lsh_all"], row["lsh_mask"]))
    print("median lsh/exact ratio on the live subset: %.3f"
          % report["median_ratio"])
    print("fallbacks to a random live point: %d of %d queries"
          % (report["fallbacks"], len(rows)))


if __name__ == "__main__":
    main()
