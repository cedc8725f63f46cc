"""Round trips and corruption handling for every on-disk format."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq.condense import (
    BinaryCode,
    Sketches,
    build_condensation,
    condense,
    condense_signs_batch,
)
from csq.errors import CorruptionError, CsqError, FormatError, IncompatibilityError
from csq.pipeline import build_model, dataset_from_matrix, embed_dataset
from csq.store import (
    CURVE_HEADER,
    read_codes,
    read_condensed,
    read_curve,
    read_model,
    read_vectors,
    write_codes,
    write_condensed,
    write_curve,
    write_model,
    write_vectors,
)


def flat(n, k, seed, radius=0.05):
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(k, n)) * 2 - 1
    return dataset_from_matrix(signs * (radius / math.sqrt(n)))


# ------------------------------------------------------------- vectors


def test_vectors_round_trip(tmp_path):
    path = tmp_path / "data.csqv"
    ds = flat(24, 5, 1)
    write_vectors(path, ds)
    back = read_vectors(path)
    assert back.k == 5 and back.n == 24
    assert np.array_equal(back.vectors, ds.vectors)


def test_vectors_binary_size(tmp_path):
    path = tmp_path / "data.csqv"
    write_vectors(path, flat(10, 3, 2))
    assert path.stat().st_size == 4 + 4 + 8 + 8 + 3 * 10 * 8


def test_vectors_csv_fallback(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.5,2.0,-3.25\n0.0,1.0,2.0\n")
    ds = read_vectors(path)
    assert ds.k == 2 and ds.n == 3
    assert ds.vectors[0].tolist() == [1.5, 2.0, -3.25]


def test_vectors_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(FormatError):
        read_vectors(path)


def test_vectors_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("1,2\nfoo,3\n")
    with pytest.raises(FormatError):
        read_vectors(path)


def test_vectors_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        read_vectors(path)


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError):
        read_vectors(tmp_path / "nope.csqv")


def test_vectors_truncation_detected(tmp_path):
    path = tmp_path / "cut.csqv"
    write_vectors(path, flat(16, 4, 3))
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(CorruptionError):
        read_vectors(path)


def test_vectors_trailing_garbage_detected(tmp_path):
    path = tmp_path / "extra.csqv"
    write_vectors(path, flat(16, 4, 3))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CorruptionError):
        read_vectors(path)


# -------------------------------------------------------------- models


def test_model_round_trip_by_seed(tmp_path):
    path = tmp_path / "model.csqm"
    model = build_model(
        method="sparse", n=96, p=8, lambda_tilde=5, r=2, sigma=6, mu=0.5, seed=77
    )
    write_model(path, model)
    back = read_model(path)
    for field in (
        "method", "n", "n_pad", "m", "p", "r", "lambda_tilde",
        "sparsity", "matrix_seed", "diagonal_seed",
    ):
        assert getattr(back, field) == getattr(model, field), field
    # same codes from the reloaded model
    data = flat(96, 3, 5)
    a = embed_dataset(model, data)
    b = embed_dataset(back, data)
    for i in range(3):
        assert np.array_equal(a.codes[i].bits, b.codes[i].bits)


def test_model_round_trip_explicit_matrix(tmp_path):
    path = tmp_path / "model_x.csqm"
    model = build_model(method="fjlt", n=20, p=2, lambda_tilde=4, r=1, seed=3)
    write_model(path, model, explicit=True)
    back = read_model(path)
    assert back.explicit_matrix is not None
    data = flat(20, 2, 9)
    a = embed_dataset(model, data)
    b = embed_dataset(back, data)
    for i in range(2):
        assert np.array_equal(a.codes[i].bits, b.codes[i].bits)


# Offset of the explicit-matrix section: magic, version, method byte,
# n/n_pad/m/p, r/lambda_tilde/sigma, mu/sparsity/wellspread_const, the two
# seeds and the explicit flag.
_EXPLICIT_AT = 4 + 4 + 1 + 32 + 12 + 24 + 16 + 1


def _explicit_model_bytes(tmp_path, method):
    path = tmp_path / f"{method}_x.csqm"
    # p=2 gives sparsity 1: every row stores all n column indices.
    model = build_model(method=method, n=16, p=2, lambda_tilde=4, r=1, seed=3)
    write_model(path, model, explicit=True)
    return path, bytearray(path.read_bytes()), model


def _col_index_offset(model, entry):
    return _EXPLICIT_AT + 8 + 8 * (model.m + 1) + 8 * entry


def test_model_explicit_column_out_of_range_is_a_format_error(tmp_path):
    path, raw, model = _explicit_model_bytes(tmp_path, "sparse")
    off = _col_index_offset(model, 0)
    raw[off : off + 8] = (10**6).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_model(path)


def test_model_explicit_unsorted_row_is_a_format_error(tmp_path):
    path, raw, model = _explicit_model_bytes(tmp_path, "sparse")
    first, second = _col_index_offset(model, 0), _col_index_offset(model, 1)
    raw[first : first + 8], raw[second : second + 8] = (
        raw[second : second + 8], raw[first : first + 8],
    )
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_model(path)


def test_model_explicit_bad_diagonal_sign_is_a_format_error(tmp_path):
    path, raw, _ = _explicit_model_bytes(tmp_path, "fjlt")
    raw[-1] = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_model(path)


def test_model_bad_magic(tmp_path):
    path = tmp_path / "bad.csqm"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(FormatError):
        read_model(path)


def test_model_truncation(tmp_path):
    path = tmp_path / "model.csqm"
    model = build_model(method="sparse", n=16, p=2, lambda_tilde=2, r=1, seed=0)
    write_model(path, model)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CorruptionError):
        read_model(path)


# --------------------------------------------------------------- codes


def test_codes_round_trip_and_size(tmp_path):
    path = tmp_path / "codes.csqc"
    rng = np.random.default_rng(5)
    m = 37
    codes = [
        BinaryCode.from_signs(np.where(rng.random(m) < 0.5, -1, 1).astype(np.int8))
        for _ in range(6)
    ]
    write_codes(path, codes)
    back = read_codes(path)
    assert len(back) == 6
    for a, b in zip(codes, back):
        assert a.length == b.length
        assert np.array_equal(a.to_signs(), b.to_signs())
    assert path.stat().st_size == 4 + 4 + 8 + 8 + 6 * ((m + 7) // 8)


def test_codes_empty_list_with_declared_length(tmp_path):
    path = tmp_path / "empty.csqc"
    write_codes(path, [], m=12)
    assert read_codes(path) == []


def test_codes_truncation(tmp_path):
    path = tmp_path / "codes.csqc"
    codes = [BinaryCode.from_signs(np.ones(64, dtype=np.int8))]
    write_codes(path, codes)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CorruptionError):
        read_codes(path)


# ----------------------------------------------------------- condensed


def test_condensed_round_trip_and_size(tmp_path):
    path = tmp_path / "sk.csqd"
    spec = build_condensation(2, 9, 16)
    rng = np.random.default_rng(6)
    codes = []
    for _ in range(9):
        signs = np.where(rng.random(spec.m) < 0.5, -1, 1).astype(np.int8)
        codes.append(condense(spec, BinaryCode.from_signs(signs)))
    write_condensed(path, codes, spec)
    back = read_condensed(path)
    assert len(back) == 9
    for a, b in zip(codes, back):
        assert np.array_equal(a.entries, b.entries)
        assert a.bit_width == b.bit_width
        assert a.norm_factor == b.norm_factor
    record = (16 * spec.bit_width + 7) // 8
    assert path.stat().st_size == 4 + 4 + 8 + 8 + 4 + 8 + 9 * record


def test_condensed_rejects_nonsense_bit_width(tmp_path):
    path = tmp_path / "sk.csqd"
    spec = build_condensation(1, 4, 2)
    code = condense(spec, BinaryCode.from_signs(np.ones(8, dtype=np.int8)))
    write_condensed(path, [code], spec)
    raw = bytearray(path.read_bytes())
    # bit_width field sits after magic+version+k+p
    off = 4 + 4 + 8 + 8
    raw[off : off + 4] = (200).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_condensed(path)


def test_condensed_truncation(tmp_path):
    path = tmp_path / "sk.csqd"
    spec = build_condensation(1, 8, 4)
    code = condense(spec, BinaryCode.from_signs(np.ones(spec.m, dtype=np.int8)))
    write_condensed(path, [code, code], spec)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(CorruptionError):
        read_condensed(path)


CSQD_HEADER = struct.Struct("<4sIQQId")


def test_condensed_sketches_and_code_lists_write_the_same_bytes(tmp_path):
    spec = build_condensation(3, 7, 5)
    rng = np.random.default_rng(8)
    signs = np.where(rng.random((6, spec.m)) < 0.5, -1, 1).astype(np.int8)
    sk = Sketches.of(spec, condense_signs_batch(spec, signs))
    write_condensed(tmp_path / "a.csqd", sk, spec)
    write_condensed(tmp_path / "b.csqd", list(sk), spec)
    assert (tmp_path / "a.csqd").read_bytes() == (tmp_path / "b.csqd").read_bytes()
    back = read_condensed(tmp_path / "a.csqd")
    assert isinstance(back, Sketches) and np.array_equal(back.entries, sk.entries)
    assert (back.p, back.bit_width, back.norm_factor) == (
        spec.p, spec.bit_width, spec.norm_factor,
    )


def test_condensed_writer_rejects_foreign_sketches(tmp_path):
    spec = build_condensation(1, 4, 2)
    other = build_condensation(1, 5, 2)
    sk = Sketches.of(other, np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(IncompatibilityError):
        write_condensed(tmp_path / "x.csqd", sk, spec)


def test_condensed_empty_header_with_huge_p(tmp_path):
    path = tmp_path / "empty.csqd"
    p = 2**61  # int16 rows of 2**62 bytes, the largest NumPy can describe
    path.write_bytes(CSQD_HEADER.pack(b"CSQD", 1, 0, p, 10, 0.5))
    sk = read_condensed(path)
    assert len(sk) == 0 and sk.entries.shape == (0, p)
    for p in (2**63 - 1, 2**64 - 1):
        path.write_bytes(CSQD_HEADER.pack(b"CSQD", 1, 0, p, 63, 0.5))
        with pytest.raises(FormatError):
            read_condensed(path)


@pytest.mark.parametrize("norm_factor", [0.0, -1.0, math.inf, math.nan])
def test_condensed_rejects_bad_norm_factor(tmp_path, norm_factor):
    path = tmp_path / "nf.csqd"
    path.write_bytes(CSQD_HEADER.pack(b"CSQD", 1, 0, 4, 10, norm_factor))
    with pytest.raises(FormatError):
        read_condensed(path)


@st.composite
def csqd_bytes(draw):
    """CSQD-shaped byte strings: mostly plausible headers, a quarter of
    each field hostile, payloads of the exact size or not, sometimes
    truncated."""

    def field(plausible, hostile):
        return draw(plausible if draw(st.integers(0, 3)) else hostile)

    u64 = st.sampled_from([2**61 + 1, 2**63 - 1, 2**64 - 1]) | st.integers(0, 2**64 - 1)
    k = field(st.sampled_from([0, 1, 3]), u64)
    p = field(st.integers(1, 24), u64)
    w = field(st.integers(1, 63), st.integers(0, 2**32 - 1))
    nf = field(st.just(0.25), st.floats())
    size = k * ((p * w + 7) // 8)
    body = field(
        st.binary(min_size=size, max_size=size) if size <= 256 else st.just(b""),
        st.binary(max_size=48),
    )
    raw = CSQD_HEADER.pack(b"CSQD", 1, k, p, w, nf) + body
    return field(st.just(raw), st.builds(lambda n: raw[:n], st.integers(0, len(raw))))


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=64) | csqd_bytes())
def test_condensed_reader_fuzz(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.csqd"
    path.write_bytes(raw)
    try:
        sk = read_condensed(path)
    except CsqError:
        return
    assert isinstance(sk, Sketches)
    assert sk.entries.shape == (len(sk), sk.p)


# ---------------------------------------------------------------- curves


def test_curve_round_trip_sorted(tmp_path):
    path = tmp_path / "curve.csv"
    rows = [
        (512, 64, 2, 0.71, 10.0),
        (256, 64, 1, 0.25, 5.0),
        (512, 64, 1, 0.125, 2.25),
    ]
    write_curve(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(CURVE_HEADER)
    back = read_curve(path)
    assert back == sorted(rows, key=lambda t: (t[2], t[1], t[0]))


def test_curve_floats_survive_exactly(tmp_path):
    path = tmp_path / "curve.csv"
    rows = [(256, 16, 1, 0.1234567890123456789, 3.000000007)]
    write_curve(path, rows)
    got = read_curve(path)[0]
    assert got[3] == rows[0][3]
    assert got[4] == rows[0][4]


def test_curve_header_is_checked(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("m,p,mape\n1,2,0.5\n")
    with pytest.raises(FormatError):
        read_curve(path)
