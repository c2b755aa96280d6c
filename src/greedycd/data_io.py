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


# lines parsed per block: bounds the tokens and arrays held at once
BLOCK_LINES = 256

# bytes below 33 that str.split() does not split on: a block holding one
# is left to the one-token reader, so the rest count as whitespace
_OTHER_CONTROL = np.ones(33, dtype=bool)
_OTHER_CONTROL[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = False
# place values of an index's at most 18 digits, so it fits int64
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_COLON, _NEWLINE, _PLUS, _SPACE = ord(":"), ord("\n"), ord("+"), ord(" ")


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


def _read_lines(chunk, first_lineno):
    """(labels, counts, rows, values) of a block of lines, one token at a
    time; raises at the first malformed line and token, naming the line."""
    labels, counts, rows, vals = [], [], [], []
    for lineno, line in enumerate(chunk, start=first_lineno):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ValueError("line %d: non-numeric label %r"
                             % (lineno, parts[0]))
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
            rows.append(idx - 1)
            vals.append(val)
        labels.append(label)
        counts.append(len(parts) - 1)
    return (np.array(labels, dtype=np.float64),
            np.array(counts, dtype=np.int64),
            np.array(rows, dtype=np.int64), np.array(vals, dtype=np.float64))


def _split_block(kept):
    """(labels, counts, rows, values) of stripped, nonempty example lines,
    or None when the block is left to the one-token reader: a malformed
    line, a character outside ASCII, a control byte that str.split() keeps,
    or an index that is not an optional "+" and 1 to 18 digits.

    Each line gets a "0:" prefix, so every whitespace token of a valid block
    reads "index:value" with the label in the value slot of index 0. That
    is checked on the block's bytes, and the indices are summed from their
    digits there; blanking all but the values leaves one token per value,
    converted by Python's own float.
    """
    text = "0:" + "\n0:".join(kept)
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    blanks = np.flatnonzero(b <= _SPACE)
    if _OTHER_CONTROL[b[blanks]].any():
        return None
    # a token starts after the last blank of a run; the text ends in a token
    starts = np.concatenate(([0], blanks[np.diff(blanks, append=-1) != 1] + 1))
    colons = np.flatnonzero(b == _COLON)
    # one colon inside every token: token starts and colons strictly
    # alternate, and no colon ends its token
    if (len(colons) != len(starts) or colons[-1] + 1 == len(b)
            or not ((colons[:-1] < starts[1:])
                    & (starts[1:] < colons[1:])).all()
            or (b[colons + 1] <= _SPACE).any()):
        return None
    signed = b[starts] == _PLUS
    digits = colons - starts - signed
    if not ((digits >= 1) & (digits <= 18)).all():
        return None
    # each index digit at its place value, counted back from its colon
    ends = np.cumsum(digits)
    place = np.repeat(ends, digits) - 1 - np.arange(ends[-1])
    at = np.repeat(colons, digits) - 1 - place
    digit = b[at] - ord("0")
    if not (digit < 10).all():
        return None
    idx = np.add.reduceat(digit * _POW10[place], ends - digits)
    # the values, labels included, are what is left once the indices,
    # their signs, the colons and the whitespace are blanked
    blank = b.copy()
    blank[np.concatenate((blanks, colons, starts[signed], at))] = _SPACE
    try:
        num = np.array(blank.tobytes().split(), dtype=np.float64)
    except ValueError:
        return None
    # a token that starts its line is the line's label
    feat = b[starts - 1] != _NEWLINE
    feat[0] = False
    label_at = np.flatnonzero(~feat)
    # a line's first index follows its 0, so this is also the idx >= 1 check
    if not (idx[1:] > idx[:-1])[feat[1:]].all():
        return None
    counts = np.diff(np.append(label_at, len(idx))) - 1
    return num[label_at], counts, idx[feat] - 1, num[feat]


def _read_block(chunk, first_lineno):
    kept = [line.partition("#")[0].strip() for line in chunk]
    kept = [line for line in kept if line]
    block = _split_block(kept) if kept else None
    # the one-token reader also names the first bad line and token
    return block if block is not None else _read_lines(chunk, first_lineno)


def parse_libsvm(source, name=""):
    """Parse "label idx:val ..." lines into an examples-as-columns dataset.

    Indices are 1-based on disk and strictly increasing per line; in-memory
    row ids are 0-based. Blank lines and '#' comments are skipped. Duplicate
    or non-increasing indices are an error, not a silent accumulation; every
    error names its line. Lines are read BLOCK_LINES at a time, so the
    tokens held at once stay bounded whatever the file size.
    """
    lines = _open_source(source)
    blocks = [_read_block(lines[lo:lo + BLOCK_LINES], lo + 1)
              for lo in range(0, len(lines), BLOCK_LINES)]
    if not any(len(block[0]) for block in blocks):
        raise ValueError("empty dataset: no example lines found")
    labels, counts, rows, values = map(np.concatenate, zip(*blocks))
    col_starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=col_starts[1:])
    n_rows = int(rows.max()) + 1 if len(rows) else 0
    matrix = SparseColMatrix(n_rows, col_starts, rows, values)
    return Dataset(matrix=matrix, labels=labels, name=name)


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
    sq = M.col_sq_norms
    norms = np.sqrt(sq)
    # a stored column whose squared norm overflowed, or fell below the
    # normal range, takes m sqrt(sum (v/m)^2) with m its largest magnitude
    for j in np.flatnonzero((np.isinf(sq) | (sq < np.finfo(sq.dtype).tiny))
                            & (np.diff(M.col_starts) > 0)):
        v = M.col(j)[1]
        m = np.abs(v).max()
        norms[j] = m * np.sqrt(np.sum((v / m) ** 2)) if m > 0 else 0.0
    keep = np.nonzero(norms > 0)[0]
    dropped = np.nonzero(norms == 0)[0]
    kept = M.take_columns(keep)
    # a division per entry, as dividing each column by its norm would do
    values = kept.values / np.repeat(norms[keep], np.diff(kept.col_starts))
    matrix = SparseColMatrix(M.n_rows, kept.col_starts, kept.row_indices,
                             values)
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
        M = SparseColMatrix(n, np.arange(n + 1), np.arange(n), np.sqrt(lam))
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
        parts.append(Dataset(ds.matrix.take_columns(ids), ds.labels[ids],
                             name=ds.name, meta=dict(ds.meta)))
    return parts[0], parts[1]
