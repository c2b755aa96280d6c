import gzip
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedycd import data_io
from greedycd.data_io import (CorrelatedLasso, Dataset, DiagQuadratic,
                              RandomSvm, SynthSpec, fold_labels,
                              gen_synthetic, normalize_columns, parse_libsvm,
                              regression_view, train_test_split, write_libsvm)
from greedycd.objectives import make_lasso
from greedycd.sparse import SparseColMatrix


def loop_parse_libsvm(source):
    """The per-token loop parse_libsvm once ran."""
    labels, columns = [], []
    max_row = 0
    for lineno, line in enumerate(data_io._open_source(source), start=1):
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
    return Dataset(matrix=matrix, labels=np.array(labels))


def loop_normalize_columns(ds):
    """The per-column loop normalize_columns once ran."""
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


def loop_train_test_split(ds, frac, seed=0):
    """The per-column loop train_test_split once ran (valid inputs)."""
    n = ds.matrix.n_cols
    n_train = int(round(frac * n))
    perm = np.random.default_rng(seed).permutation(n)
    parts = []
    for ids in (np.sort(perm[:n_train]), np.sort(perm[n_train:])):
        cols = [ds.matrix.col(j) for j in ids]
        parts.append(Dataset(
            SparseColMatrix.from_columns(ds.matrix.n_rows, cols),
            ds.labels[ids], name=ds.name, meta=dict(ds.meta)))
    return parts[0], parts[1]


def assert_same_matrix(a, b):
    assert a.n_rows == b.n_rows
    for name in ("col_starts", "row_indices", "values"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


def assert_same_dataset(a, b):
    assert a.labels.dtype == b.labels.dtype
    assert a.labels.tobytes() == b.labels.tobytes()
    assert_same_matrix(a.matrix, b.matrix)


def outcome(parse, source):
    """The parsed dataset, or the text of the ValueError the parse raised."""
    try:
        return parse(source)
    except ValueError as exc:
        return "ValueError: %s" % exc


def assert_parses_like_loop(source, block_read=False):
    """Compare with the loop; with block_read, also require that no block
    holding an example line was left to the one-token reader."""
    slow, read_lines = [], data_io._read_lines

    def spy(chunk, first_lineno):
        slow.extend(line for line in chunk if line.partition("#")[0].strip())
        return read_lines(chunk, first_lineno)

    with mock.patch.object(data_io, "_read_lines", spy):
        got = outcome(parse_libsvm, source)
    want = outcome(loop_parse_libsvm, source)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert_same_dataset(got, want)
        assert not (block_read and slow), slow[:3]
    return got


def benchmark_shaped_file(seed, n=1500, d=5000, k=20):
    """Lines shaped like the benchmark's logistic file: a signed label and
    k increasing "index:value" features with 12-decimal values."""
    rng = np.random.default_rng(seed)
    cols = np.sort(rng.integers(0, d - k + 1, size=(n, k)), axis=1) \
        + np.arange(k) + 1
    vals = 0.4 * rng.standard_normal((n, k))
    labels = rng.choice([-1, 1], n)
    return "".join(
        "%+d %s\n" % (y, " ".join("%d:%.12f" % iv for iv in zip(c, v)))
        for y, c, v in zip(labels, cols, vals)).encode()


NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e100, 1e100).map(repr),
    st.sampled_from(["+1", "-1", "1e3", "-.5", "5.", "nan", "-inf", "1_0",
                     "0", "-0.0", "007"]))
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f"])


@st.composite
def example_lines(draw):
    idx = sorted(draw(st.lists(st.integers(1, 40), unique=True, max_size=6)))
    idx_text = [draw(st.sampled_from(["%d", "+%d", "0%d"])) % i for i in idx]
    toks = [draw(NUMBERS)] + ["%s:%s" % (i, draw(NUMBERS)) for i in idx_text]
    line = toks[0]
    for tok in toks[1:]:
        line += draw(SEPARATORS) + tok
    lead, trail = draw(st.sampled_from(["", " ", "\t"])), \
        draw(st.sampled_from(["", " ", "\t", " # note", "#x:y"]))
    return lead + line + trail


OTHER_LINES = st.sampled_from(["", "   ", "\t", "# comment", "  # 1 2:3",
                               "#"])
LINES = st.lists(st.one_of(example_lines(), OTHER_LINES), max_size=30)


def encode_file(lines, newline, zipped):
    raw = "".join(line + newline for line in lines).encode()
    return gzip.compress(raw) if zipped else raw


BAD_LINES = [
    "x 1:1",            # non-numeric label
    "1 a:b",
    "1 3",
    "1 3:",
    "1 :3",
    "1 3:4:5",
    "1 3.0:1",
    "1 0:2",            # index below 1
    "1 3:1 2:1",        # non-increasing
    "1 2:1 2:3",        # duplicate
    "1 1:1 3:4:5 6",    # two faults: the first one is named
    "1:2 3:4",          # colon in the label
    "1 2: 3:4",         # empty value, then a whole token
    "1 2:3\u00a04 5:6\u00a07",  # a no-break space separates tokens too
]


class TestParser:
    def test_basic_line(self):
        ds = parse_libsvm(b"1 1:0.5 3:2.0\n")
        assert ds.matrix.n_cols == 1
        ridx, vals = ds.matrix.col(0)
        np.testing.assert_array_equal(ridx, [0, 2])
        np.testing.assert_array_equal(vals, [0.5, 2.0])
        assert ds.labels[0] == 1.0

    def test_comments_and_blanks_skipped(self):
        ds = parse_libsvm(b"# header\n\n-1 2:1.5  # trailing\n")
        assert ds.matrix.n_cols == 1
        assert ds.labels[0] == -1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_libsvm(b"# nothing here\n")

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_libsvm(b"1 0:2.0\n")

    def test_non_increasing_index_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_libsvm(b"1 1:1\n1 3:1 2:1\n")

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="not strictly increasing"):
            parse_libsvm(b"1 2:1 2:3\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="label"):
            parse_libsvm(b"x 1:1\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_libsvm(b"1 a:b\n")

    def test_gzip_detected_by_magic_bytes(self):
        raw = b"1 1:0.5 2:1.0\n-1 2:3.0\n"
        ds = parse_libsvm(gzip.compress(raw))
        assert ds.matrix.n_cols == 2
        assert list(ds.labels) == [1.0, -1.0]

    def test_roundtrip_random(self, rng):
        cols = []
        labels = rng.standard_normal(20)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            ridx = np.sort(rng.choice(10, size=k, replace=False))
            cols.append((ridx, rng.standard_normal(k)))
        ds = Dataset(SparseColMatrix.from_columns(10, cols), labels)
        buf = io.StringIO()
        write_libsvm(ds, buf)
        back = parse_libsvm(buf.getvalue().encode())
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.matrix.n_rows <= ds.matrix.n_rows
        np.testing.assert_array_equal(
            back.matrix.to_dense(),
            ds.matrix.to_dense()[:back.matrix.n_rows])


class TestBlockParser:
    """parse_libsvm against the per-token loop it replaced: identical
    arrays and dtypes on valid files, the same message on bad ones."""

    def test_benchmark_shaped_file(self):
        raw = benchmark_shaped_file(seed=3)
        ds = assert_parses_like_loop(raw, block_read=True)
        assert ds.matrix.n_cols == 1500
        assert ds.matrix.n_cols > 5 * data_io.BLOCK_LINES

    def test_gzip_and_crlf_over_several_blocks(self):
        raw = benchmark_shaped_file(seed=4, n=700).replace(b"\n", b"\r\n")
        assert_parses_like_loop(gzip.compress(raw), block_read=True)

    @settings(max_examples=150, deadline=None)
    @given(LINES, st.sampled_from(["\n", "\r\n"]), st.booleans(),
           st.integers(1, 5))
    def test_random_files(self, lines, newline, zipped, block):
        with mock.patch.object(data_io, "BLOCK_LINES", block):
            assert_parses_like_loop(encode_file(lines, newline, zipped),
                                    block_read=True)

    @settings(max_examples=150, deadline=None)
    @given(LINES, st.sampled_from(BAD_LINES + ["1 2:1 1:1", "- 1:1"]),
           st.integers(0, 30), st.integers(1, 5))
    def test_random_files_with_a_bad_line(self, lines, bad, at, block):
        lines = lines[:at] + [bad] + lines[at:]
        with mock.patch.object(data_io, "BLOCK_LINES", block):
            assert isinstance(
                assert_parses_like_loop(encode_file(lines, "\n", False)),
                str)

    @pytest.mark.parametrize("bad", BAD_LINES)
    def test_error_in_a_later_block(self, bad):
        good = benchmark_shaped_file(seed=5, n=2 * data_io.BLOCK_LINES + 7)
        lineno = 2 * data_io.BLOCK_LINES + 8
        msg = assert_parses_like_loop(good + bad.encode() + b"\n1 1:1\n")
        assert msg.startswith("ValueError: line %d: " % lineno)

    def test_first_error_after_a_valid_block_read_slowly(self):
        # a non-ASCII separator sends the first block to the one-token
        # reader although it is valid; the error sits in the third block
        block = data_io.BLOCK_LINES
        lines = ["+1 1:0.5 3:1"] * (3 * block)
        lines[5] = "-1\u00a02:0.25\u20033:1"
        lines[2 * block + 9] = "1 4:1 4:2"
        lines[2 * block + 20] = "x 1:1"
        msg = assert_parses_like_loop("\n".join(lines).encode())
        assert msg == ("ValueError: line %d: index 4 not strictly increasing"
                       % (2 * block + 10))
        del lines[2 * block:]
        ds = assert_parses_like_loop("\n".join(lines).encode())
        assert ds.matrix.col(5)[0].tolist() == [1, 2]

    def test_first_error_in_file_order_within_a_block(self):
        # the order-check fault comes first in the file; the conversion
        # fault after it must not be reported instead
        msg = assert_parses_like_loop(b"1 1:1\n1 5:1 2:1\n1 2:x\n")
        assert msg == "ValueError: line 2: index 2 not strictly increasing"

    def test_index_past_int64_parses_like_the_loop(self):
        # overflows the block's int64 conversion, then fits as a row id
        ds = assert_parses_like_loop(b"1 1:1\n-1 9223372036854775808:2\n")
        assert ds.matrix.n_rows == 2**63


class TestIndexBytes:
    """Indices summed from a block's bytes, and the ones the block leaves
    to the one-token reader, against the per-token loop."""

    def test_long_signed_and_padded_indices_read_from_bytes(self):
        raw = (b"+1 +3:+0.5 0007:1 999999999999999999:-2\n"
               b"-1 1:+.25 +0010:+1e3\n")
        ds = assert_parses_like_loop(raw, block_read=True)
        assert ds.matrix.n_rows == 10**18 - 1
        assert ds.matrix.col(0)[0].tolist() == [2, 6, 10**18 - 2]
        assert ds.matrix.col(1)[1].tolist() == [0.25, 1000.0]

    def test_nineteen_digit_index_read_by_one_token_reader(self):
        with mock.patch.object(data_io, "_read_lines",
                               wraps=data_io._read_lines) as slow:
            ds = assert_parses_like_loop(b"1 1:1 1000000000000000000:2\n")
        assert slow.called
        assert ds.matrix.n_rows == 10**18

    @pytest.mark.parametrize("index", ["-3", "0", "+0", "-0"])
    def test_index_below_one(self, index):
        msg = assert_parses_like_loop(b"1 1:1\n1 %s:1\n" % index.encode())
        assert msg == ("ValueError: line 2: index %d below the 1-based "
                       "minimum" % int(index))

    @pytest.mark.parametrize("line", ["1 2:1\x073:1", "1\x07 2:1",
                                      "1 \x07 2:1", "1 2:\x071"])
    def test_control_byte_in_a_line(self, line):
        msg = assert_parses_like_loop(("1 1:1\n%s\n" % line).encode())
        assert msg.startswith("ValueError: line 2: ")

    def test_control_byte_in_a_comment(self):
        assert_parses_like_loop(b"1 1:1 # \x07\n-1 2:1\n", block_read=True)


def matrix_with_zero_and_empty_columns(rng, d=6, n=30):
    """Random columns, some holding only stored zeros, some holding none."""
    counts = rng.integers(0, d + 1, n)
    counts[[0, 7, n - 1]] = 0
    counts[[3, 11]] = [2, d]
    rows = [np.sort(rng.choice(d, k, replace=False)) for k in counts]
    vals = [rng.standard_normal(k) * rng.uniform(0.1, 100.0) for k in counts]
    vals[3][:] = 0.0
    vals[11][:] = 0.0
    starts = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    return SparseColMatrix(d, starts, np.concatenate(rows),
                           np.concatenate(vals))


class TestNormalize:
    def test_matches_column_loop(self, rng):
        M = matrix_with_zero_and_empty_columns(rng)
        ds = Dataset(M, rng.choice([-1.0, 1.0], M.n_cols), name="m",
                     meta={"k": 1})
        got, want = normalize_columns(ds), loop_normalize_columns(ds)
        assert_same_dataset(got[0], want[0])
        assert got[0].meta == want[0].meta and got[0].name == "m"
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert set(got[2]) >= {0, 3, 7, 11, 29}

    def test_three_four_five(self):
        M = SparseColMatrix.from_dense(np.array([[3.0], [4.0]]))
        ds, scales, dropped = normalize_columns(Dataset(M, np.zeros(2)))
        np.testing.assert_allclose(ds.matrix.to_dense().ravel(), [0.6, 0.8])
        assert scales[0] == pytest.approx(5.0)
        assert len(dropped) == 0

    def test_idempotent(self, rng):
        M = SparseColMatrix.from_dense(rng.standard_normal((5, 4)))
        ds1, _, _ = normalize_columns(Dataset(M, np.zeros(4)))
        ds2, scales, _ = normalize_columns(ds1)
        np.testing.assert_allclose(scales, 1.0, atol=1e-12)
        np.testing.assert_allclose(ds2.matrix.to_dense(),
                                   ds1.matrix.to_dense())

    def test_zero_column_dropped_and_reported(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        ds, _, dropped = normalize_columns(
            Dataset(SparseColMatrix.from_dense(A), np.array([1.0, -1.0])))
        assert ds.matrix.n_cols == 1
        assert list(dropped) == [1]
        assert list(ds.labels) == [1.0]

    def test_column_whose_squared_norm_overflows(self):
        with np.errstate(over="ignore"):  # squaring 1e200 overflows
            ds = parse_libsvm(b"1 1:1e200 2:1e200\n-1 1:3 2:4\n")
            out, scales, dropped = normalize_columns(ds)
        np.testing.assert_allclose(out.matrix.to_dense(),
                                   [[np.sqrt(0.5), 0.6], [np.sqrt(0.5), 0.8]])
        assert scales[0] == pytest.approx(np.sqrt(2.0) * 1e200)
        assert scales[1] == 5.0
        assert len(dropped) == 0

    def test_column_whose_squared_norm_underflows(self):
        M = SparseColMatrix.from_dense(np.array([[3.0, 1e-200], [4.0, 0.0]]))
        ds, scales, dropped = normalize_columns(Dataset(M, np.zeros(2)))
        np.testing.assert_array_equal(ds.matrix.to_dense(),
                                      [[0.6, 1.0], [0.8, 0.0]])
        np.testing.assert_array_equal(scales, [5.0, 1e-200])
        assert len(dropped) == 0

    def test_lasso_smoothness_one_after_normalize(self, rng):
        A = rng.standard_normal((6, 5))
        ds, _, _ = normalize_columns(
            Dataset(SparseColMatrix.from_dense(A), np.zeros(5)))
        p = make_lasso(ds.matrix, rng.standard_normal(6), 0.1)
        assert p.smoothness == pytest.approx(1.0)


class TestSynthetic:
    def test_diag_quadratic_mu1(self):
        ds = gen_synthetic(SynthSpec(DiagQuadratic((1.0, 1.0)), seed=0))
        assert ds.meta["mu1"] == pytest.approx(0.5)
        assert ds.meta["L"] == pytest.approx(1.0)
        ds = gen_synthetic(SynthSpec(DiagQuadratic((4.0, 1.0)), seed=0))
        assert ds.meta["mu1"] == pytest.approx(0.8)
        assert ds.meta["L"] == pytest.approx(4.0)

    def test_diag_quadratic_matches_column_loop(self, rng):
        lam = rng.uniform(0.01, 100.0, 9)
        ds = gen_synthetic(SynthSpec(DiagQuadratic(tuple(lam)), seed=0))
        want = SparseColMatrix.from_columns(
            9, [(np.array([j]), np.array([np.sqrt(lam[j])]))
                for j in range(9)])
        assert_same_matrix(ds.matrix, want)

    def test_diag_quadratic_mu1_bounds(self, rng):
        for _ in range(10):
            spec = tuple(rng.uniform(0.5, 10, int(rng.integers(2, 8))))
            ds = gen_synthetic(SynthSpec(DiagQuadratic(spec), seed=1))
            assert ds.meta["mu1"] <= min(spec) + 1e-12
            assert ds.meta["mu1"] > 0

    def test_determinism(self):
        spec = SynthSpec(CorrelatedLasso(20, 10), seed=5)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        np.testing.assert_array_equal(a.matrix.to_dense(),
                                      b.matrix.to_dense())
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_random_svm_separable(self):
        ds = gen_synthetic(SynthSpec(RandomSvm(40, 6, 0.3), seed=2))
        w = ds.meta["true_normal"]
        margins = ds.labels * (w @ ds.matrix.to_dense())
        assert margins.min() >= 0.3 - 1e-9

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(SynthSpec(DiagQuadratic(()), seed=0))
        with pytest.raises(ValueError):
            gen_synthetic(SynthSpec(CorrelatedLasso(0, 5), seed=0))
        with pytest.raises(ValueError):
            gen_synthetic(SynthSpec(RandomSvm(1, 5), seed=0))


class TestFolding:
    def test_fold_scales_by_labels(self, rng):
        A = rng.standard_normal((4, 3))
        labels = np.array([1.0, -1.0, 1.0])
        folded = fold_labels(Dataset(SparseColMatrix.from_dense(A), labels))
        np.testing.assert_allclose(folded.to_dense(), A * labels)

    def test_fold_requires_pm_one(self):
        ds = Dataset(SparseColMatrix.from_dense(np.eye(2)),
                     np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fold_labels(ds)

    def test_regression_view_transposes(self, rng):
        A = rng.standard_normal((4, 3))
        ds = Dataset(SparseColMatrix.from_dense(A), rng.standard_normal(3))
        M, b = regression_view(ds)
        np.testing.assert_array_equal(M.to_dense(), A.T)
        np.testing.assert_array_equal(b, ds.labels)


class TestSplit:
    def _dataset(self, rng, n=100):
        M = SparseColMatrix.from_dense(rng.standard_normal((5, n)))
        return Dataset(M, rng.choice([-1.0, 1.0], n))

    def test_75_25(self, rng):
        train, test = train_test_split(self._dataset(rng), 0.75, seed=1)
        assert train.matrix.n_cols == 75
        assert test.matrix.n_cols == 25

    def test_two_examples(self, rng):
        train, test = train_test_split(self._dataset(rng, n=2), 0.5, seed=1)
        assert train.matrix.n_cols == 1 and test.matrix.n_cols == 1

    def test_partition_property(self, rng):
        ds = self._dataset(rng, n=40)
        train, test = train_test_split(ds, 0.6, seed=3)
        combined = np.concatenate([
            np.sort(train.matrix.to_dense().sum(axis=0)),
            np.sort(test.matrix.to_dense().sum(axis=0))])
        np.testing.assert_allclose(np.sort(combined),
                                   np.sort(ds.matrix.to_dense().sum(axis=0)))

    def test_matches_column_loop(self, rng):
        M = matrix_with_zero_and_empty_columns(rng)
        ds = Dataset(M, rng.choice([-1.0, 1.0], M.n_cols), meta={"k": 1})
        for frac, seed in ((0.75, 0), (0.5, 3), (0.1, 9)):
            got = train_test_split(ds, frac, seed=seed)
            want = loop_train_test_split(ds, frac, seed=seed)
            for a, b in zip(got, want):
                assert_same_dataset(a, b)
                assert a.meta == b.meta

    def test_degenerate_rejected(self, rng):
        ds = self._dataset(rng, n=3)
        with pytest.raises(ValueError):
            train_test_split(ds, 0.01, seed=0)
        with pytest.raises(ValueError):
            train_test_split(ds, 1.5, seed=0)
