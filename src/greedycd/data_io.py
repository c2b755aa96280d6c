"""Dataset plumbing: libsvm-format text parsing (with gzip sniffing), a
serializer for round-trip checks, column normalization, synthetic instance
generators, and example-level train/test splitting.

Parsed datasets keep examples as columns (one text line = one column);
`regression_view` transposes to the features-as-columns orientation used by
Lasso-type problems, and `fold_labels` bakes classification labels into the
columns as the SVM/logistic objectives expect.
"""

import gzip
from dataclasses import dataclass, field

import numpy as np

from .sparse import SparseColMatrix

__all__ = [
    "Dataset", "SynthSpec", "DiagQuadratic", "CorrelatedLasso", "RandomSvm",
    "parse_libsvm", "write_libsvm", "regression_view", "fold_labels",
    "normalize_columns", "gen_synthetic", "train_test_split",
]


@dataclass
class Dataset:
    matrix: SparseColMatrix
    labels: np.ndarray
    name: str = ""
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DiagQuadratic:
    """A = diag(sqrt(spectrum)): quadratic with known per-coordinate curvature."""
    spectrum: tuple


@dataclass(frozen=True)
class CorrelatedLasso:
    """Gaussian features with pairwise correlation and a planted sparse truth."""
    n: int
    d: int
    density: float = 0.1
    correlation: float = 0.5
    noise: float = 0.01


@dataclass(frozen=True)
class RandomSvm:
    """Linearly separable +-1 examples with the given margin."""
    n: int
    d: int
    margin: float = 0.1


@dataclass(frozen=True)
class SynthSpec:
    kind: object
    seed: int = 0


def _open_source(source):
    """Text lines from a path, bytes, or file-like; gzip by magic bytes."""
    if isinstance(source, str):
        with open(source, "rb") as fh:
            raw = fh.read()
    elif isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    else:
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw.decode("utf-8").splitlines()


def parse_libsvm(source, name=""):
    """Parse "label idx:val ..." lines into an examples-as-columns dataset.

    Indices are 1-based on disk and strictly increasing per line; in-memory
    row ids are 0-based. Blank lines and '#' comments are skipped. Duplicate
    or non-increasing indices are an error, not a silent accumulation.
    """
    labels, columns = [], []
    max_row = 0
    for lineno, line in enumerate(_open_source(source), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ValueError("line %d: non-numeric label %r"
                             % (lineno, parts[0]))
        ridx, vals = [], []
        prev = 0
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ValueError("line %d: malformed feature %r"
                                 % (lineno, tok))
            if idx < 1:
                raise ValueError("line %d: index %d below the 1-based minimum"
                                 % (lineno, idx))
            if idx <= prev:
                raise ValueError("line %d: index %d not strictly increasing"
                                 % (lineno, idx))
            prev = idx
            ridx.append(idx - 1)
            vals.append(val)
        max_row = max(max_row, prev)
        labels.append(label)
        columns.append((np.array(ridx, dtype=np.int64), np.array(vals)))
    if not labels:
        raise ValueError("empty dataset: no example lines found")
    matrix = SparseColMatrix.from_columns(max_row, columns)
    return Dataset(matrix=matrix, labels=np.array(labels), name=name)


def write_libsvm(ds, stream):
    """Serialize an examples-as-columns dataset; inverse of parse_libsvm."""
    own = isinstance(stream, str)
    fh = open(stream, "w") if own else stream
    try:
        for j in range(ds.matrix.n_cols):
            ridx, vals = ds.matrix.col(j)
            feats = " ".join("%d:%.17g" % (i + 1, v)
                             for i, v in zip(ridx, vals))
            fh.write("%.17g %s\n" % (ds.labels[j], feats) if feats
                     else "%.17g\n" % ds.labels[j])
    finally:
        if own:
            fh.close()


def regression_view(ds):
    """(features-as-columns matrix, target vector) for Lasso-type problems."""
    return ds.matrix.transpose(), np.asarray(ds.labels, dtype=np.float64)


def fold_labels(ds):
    """Columns scaled by their +-1 labels, as the SVM/logistic losses expect."""
    labels = np.asarray(ds.labels, dtype=np.float64)
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("label folding needs +-1 labels")
    return ds.matrix.scale_columns(labels)


def normalize_columns(ds):
    """Unit-norm every column; zero columns are dropped, not kept.

    Returns (dataset, scales, dropped) where scales[j] multiplies the kept
    column j back to its original length. Idempotent on normalized data.
    """
    M = ds.matrix
    norms = np.sqrt(M.col_sq_norms)
    keep = np.nonzero(norms > 0)[0]
    dropped = np.nonzero(norms == 0)[0]
    cols = []
    for j in keep:
        ridx, vals = M.col(j)
        cols.append((ridx, vals / norms[j]))
    matrix = SparseColMatrix.from_columns(M.n_rows, cols)
    labels = ds.labels
    if len(labels) == M.n_cols:
        labels = labels[keep]
    out = Dataset(matrix=matrix, labels=labels, name=ds.name,
                  meta=dict(ds.meta, dropped_columns=list(map(int, dropped))))
    return out, norms[keep], dropped


def gen_synthetic(spec):
    """Deterministic synthetic dataset for the given spec and seed."""
    rng = np.random.default_rng(spec.seed)
    kind = spec.kind
    if isinstance(kind, DiagQuadratic):
        lam = np.asarray(kind.spectrum, dtype=np.float64)
        if len(lam) < 1 or np.any(lam <= 0):
            raise ValueError("spectrum must be nonempty and positive")
        n = len(lam)
        M = SparseColMatrix.from_columns(
            n, [(np.array([j]), np.array([np.sqrt(lam[j])]))
                for j in range(n)])
        b = rng.standard_normal(n) * np.sqrt(lam)
        meta = {"mu1": float(1.0 / np.sum(1.0 / lam)), "L": float(lam.max())}
        return Dataset(M, b, name="diag-quadratic", meta=meta)
    if isinstance(kind, CorrelatedLasso):
        if kind.n < 1 or kind.d < 1 or not 0 < kind.density <= 1:
            raise ValueError("invalid correlated-lasso spec")
        rho = kind.correlation
        common = rng.standard_normal((kind.d, 1))
        A = (np.sqrt(1 - rho) * rng.standard_normal((kind.d, kind.n))
             + np.sqrt(rho) * common)
        A /= np.linalg.norm(A, axis=0, keepdims=True)
        k = max(1, int(round(kind.density * kind.n)))
        support = rng.choice(kind.n, size=k, replace=False)
        w = np.zeros(kind.n)
        w[support] = rng.standard_normal(k)
        b = A @ w + kind.noise * rng.standard_normal(kind.d)
        return Dataset(SparseColMatrix.from_dense(A), b,
                       name="correlated-lasso", meta={"truth": w})
    if isinstance(kind, RandomSvm):
        if kind.n < 2 or kind.d < 1 or kind.margin <= 0:
            raise ValueError("invalid random-svm spec")
        w = rng.standard_normal(kind.d)
        w /= np.linalg.norm(w)
        X = rng.standard_normal((kind.d, kind.n))
        raw = w @ X
        y = np.where(raw >= 0, 1.0, -1.0)
        # push every example to at least `margin` on its side of the plane
        shift = np.maximum(kind.margin - y * raw, 0.0)
        X += np.outer(w, y * shift)
        return Dataset(SparseColMatrix.from_dense(X), y,
                       name="random-svm", meta={"true_normal": w})
    raise TypeError("unknown synthetic kind: %r" % (kind,))


def train_test_split(ds, frac, seed=0):
    """Seeded disjoint split of an examples-as-columns dataset."""
    if not 0 < frac < 1:
        raise ValueError("frac must lie strictly between 0 and 1")
    n = ds.matrix.n_cols
    if len(ds.labels) != n:
        raise ValueError("split needs one label per example column")
    n_train = int(round(frac * n))
    if n_train < 1 or n_train >= n:
        raise ValueError("degenerate split: %d/%d examples"
                         % (n_train, n - n_train))
    perm = np.random.default_rng(seed).permutation(n)
    parts = []
    for ids in (np.sort(perm[:n_train]), np.sort(perm[n_train:])):
        cols = [ds.matrix.col(j) for j in ids]
        parts.append(Dataset(
            SparseColMatrix.from_columns(ds.matrix.n_rows, cols),
            ds.labels[ids], name=ds.name, meta=dict(ds.meta)))
    return parts[0], parts[1]
