"""Round trips and corruption handling for every on-disk format."""

import dataclasses
import functools
import math
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csq.condense import (
    Codes,
    Sketches,
    build_condensation,
    condense_signs_batch,
    pack_rows,
)
from csq.errors import (
    CorruptionError,
    CsqError,
    FormatError,
    InputError,
)
from csq.pipeline import (
    Dataset,
    EmbeddingModel,
    build_model,
    dataset_from_matrix,
    embed_dataset,
    scale_dataset,
)
from csq.store import (
    CURVE_HEADER,
    VectorFile,
    codes_writer,
    condensed_writer,
    open_vectors,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vectors_are_refused_by_every_reader(tmp_path, bad):
    """Whichever way the dataset is made: from a matrix, by scaling, or
    from a CSQV or CSV file."""
    x = np.full((3, 5), 0.1)
    x[2, 4] = bad
    csqv = tmp_path / "x.csqv"
    csqv.write_bytes(b"CSQV" + struct.pack("<IQQ", 1, 3, 5) + x.astype("<f8").tobytes())
    csv = tmp_path / "x.csv"
    csv.write_text("\n".join(",".join(map(repr, row)) for row in x.tolist()) + "\n")
    makers = (
        Dataset, dataset_from_matrix, lambda m: scale_dataset(m, 1.0),
        lambda _: read_vectors(csqv), lambda _: read_vectors(csv),
    )
    for make in makers:
        with pytest.raises(InputError, match="finite"):
            make(x)


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


def test_vectors_csv_rejects_oversized_field(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text('"' + "1" * 200_000 + "\n")
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


CSQV_HEADER = struct.Struct("<4sIQQ")


def test_vectors_huge_header_allocates_nothing(tmp_path):
    """A header claiming far more data than the file holds is refused
    before any payload buffer exists."""
    import tracemalloc

    path = tmp_path / "huge.csqv"
    for k, n in ((2**40, 2**20), (2**64 - 1, 2**64 - 1), (1, 2**61)):
        path.write_bytes(CSQV_HEADER.pack(b"CSQV", 1, k, n) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(CsqError):
                read_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_vectors_empty_header_with_huge_dimension(tmp_path):
    path = tmp_path / "wide.csqv"
    path.write_bytes(CSQV_HEADER.pack(b"CSQV", 1, 0, 2**63))
    with pytest.raises(FormatError):
        read_vectors(path)
    path.write_bytes(CSQV_HEADER.pack(b"CSQV", 1, 0, 2**40))
    assert read_vectors(path).vectors.shape == (0, 2**40)


@st.composite
def csqv_bytes(draw):
    """CSQV-shaped byte strings: plausible or hostile k and n, payloads of
    the exact size or not, sometimes truncated."""
    u64 = st.sampled_from([2**61, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
    k = draw(st.sampled_from([0, 1, 3]) | u64)
    n = draw(st.integers(0, 5) | u64)
    size = 8 * k * n
    body = draw(
        st.binary(min_size=size, max_size=size) if size <= 256 else st.just(b"")
        | st.binary(max_size=48)
    )
    raw = CSQV_HEADER.pack(b"CSQV", draw(st.sampled_from([1, 1, 1, 2])), k, n) + body
    return draw(st.just(raw) | st.builds(lambda c: raw[:c], st.integers(0, len(raw))))


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=64) | st.text(max_size=64).map(str.encode) | csqv_bytes())
def test_vectors_reader_fuzz(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.csqv"
    path.write_bytes(raw)
    try:
        ds = read_vectors(path)
    except CsqError:
        return
    assert ds.vectors.shape == (ds.k, ds.n)
    assert ds.vectors.dtype == np.float64
    assert np.all(np.isfinite(ds.vectors))


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
    for method in ("sparse", "fjlt"):
        path = tmp_path / f"{method}_x.csqm"
        model = build_model(method=method, n=20, p=2, lambda_tilde=4, r=1, seed=3)
        write_model(path, model, explicit=True)
        back = read_model(path)
        assert back.explicit is not None and back.operator is back.explicit
        op, got = model.operator, back.operator
        for name in ("row_offsets", "col_indices", "values"):
            assert np.array_equal(getattr(got.matrix, name), getattr(op.matrix, name))
        if method == "sparse":
            assert op.signs is None and got.signs is None
        else:
            assert np.array_equal(got.signs, op.signs)
        write_model(tmp_path / "again.csqm", back, explicit=True)
        assert (tmp_path / "again.csqm").read_bytes() == path.read_bytes()
        data = flat(20, 2, 9)
        a = embed_dataset(model, data)
        b = embed_dataset(back, data)
        assert np.array_equal(a.codes.bits, b.codes.bits)
        assert np.array_equal(a.condensed.entries, b.condensed.entries)


def test_model_explicit_signs_must_match_the_method(tmp_path):
    """A sparse model with a sign section, or an fjlt model without one,
    is refused by the model's own check, as a format error."""
    for method in ("sparse", "fjlt"):
        path, raw, model = _explicit_model_bytes(tmp_path, method)
        at = len(raw) - 8 - (model.n_pad if method == "fjlt" else 0)
        if method == "sparse":
            raw[at:] = struct.pack("<Q", 16) + bytes([1]) * 16
        else:
            raw[at:] = struct.pack("<Q", 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_model(path)


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


CSQM_HEADER = struct.Struct("<4sIBQQQQIIIdddQQB")


def csqm_header(method=0, n=4, n_pad=4, m=4, p=4, r=1, lambda_tilde=1, sigma=6,
                mu=0.5, sparsity=1.0, wellspread_const=1.0, seeds=(1, 2), flag=0):
    """A CSQM header; the defaults describe a valid sparse model."""
    return CSQM_HEADER.pack(
        b"CSQM", 1, method, n, n_pad, m, p, r, lambda_tilde, sigma,
        mu, sparsity, wellspread_const, *seeds, flag,
    )


def test_model_header_default_is_valid(tmp_path):
    path = tmp_path / "model.csqm"
    path.write_bytes(csqm_header())
    model = read_model(path)
    assert (model.n, model.n_pad, model.m, model.p) == (4, 4, 4, 4)
    write_model(tmp_path / "back.csqm", model)
    assert (tmp_path / "back.csqm").read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "method, n, n_pad", [(0, 4, 8), (1, 5, 5), (1, 5, 16), (0, 0, 0)]
)
def test_model_header_n_pad_must_match_the_derived_one(tmp_path, method, n, n_pad):
    path = tmp_path / "model.csqm"
    path.write_bytes(csqm_header(method=method, n=n, n_pad=n_pad))
    with pytest.raises(FormatError):
        read_model(path)


@pytest.mark.parametrize("wellspread_const", [math.nan, -1.0, 0.0, math.inf])
def test_model_header_wellspread_const_must_be_positive_and_finite(
    tmp_path, wellspread_const
):
    path = tmp_path / "model.csqm"
    path.write_bytes(csqm_header(wellspread_const=wellspread_const))
    with pytest.raises(FormatError, match="wellspread_const"):
        read_model(path)


HOSTILE_ORDERS = [
    (r, lambda_tilde)
    for r in (100_000, 2**32 - 1)
    for lambda_tilde in (1, 2**32 - 1)
] + [(1, 2**32 - 1)]


@pytest.mark.parametrize("r, lambda_tilde", HOSTILE_ORDERS)
def test_model_hostile_order_is_refused_quickly(tmp_path, r, lambda_tilde):
    """O(r**2) tap weights, lambda_tilde**r and an r-fold convolution of a
    lambda_tilde window are all refused before they start."""
    path = tmp_path / "hostile.csqm"
    path.write_bytes(csqm_header(r=r, lambda_tilde=lambda_tilde))
    assert path.stat().st_size == 94
    t0 = time.perf_counter()
    with pytest.raises(FormatError):
        read_model(path)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("r", [2, 3, 61])
def test_model_hostile_sigma_is_refused(tmp_path, r):
    """A tap spacing that would make the quantizer keep billions of states
    per point is refused when the model is read."""
    path = tmp_path / "hostile.csqm"
    path.write_bytes(csqm_header(r=r, lambda_tilde=2, sigma=2**32 - 1))
    with pytest.raises(FormatError, match="sigma"):
        read_model(path)


@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_models_compare_and_hash_by_value(tmp_path, method):
    """Equal parameters give equal models with equal hashes, also after a
    round trip through a file; another seed gives another model."""
    make = functools.partial(build_model, method, n=24, p=4, lambda_tilde=3, r=2)
    model = make(seed=5)
    assert model == make(seed=5) and hash(model) == hash(make(seed=5))
    assert model != make(seed=6)
    write_model(tmp_path / "m.csqm", model)
    back = read_model(tmp_path / "m.csqm")
    assert back == model and hash(back) == hash(model)


# The explicit section of the default header's model (m=4) with no stored
# entries, up to its sign count.
_EMPTY_MATRIX = struct.pack("<Q", 0) + bytes(8 * (4 + 1))


@pytest.mark.parametrize(
    "flag, section",
    [
        (0, b""),
        (1, struct.pack("<Q", 2**61)),
        (1, struct.pack("<Q", 2**64 - 1)),
        (1, _EMPTY_MATRIX + struct.pack("<Q", 2**64 - 1)),
    ],
    ids=["trailing-junk", "nnz-2^61", "nnz-2^64-1", "sign-count-2^64-1"],
)
def test_model_reader_reads_only_what_the_header_declares(tmp_path, flag, section):
    """A valid CSQM header followed by megabytes it does not declare, or
    by explicit counts far beyond the file, is refused without reading the
    rest of the file."""
    import tracemalloc

    path = tmp_path / "model.csqm"
    path.write_bytes(csqm_header(flag=flag) + section + bytes(8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(CsqError):
            read_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@functools.cache
def _written_models() -> tuple[bytes, ...]:
    """Small valid models of both methods, by seed and explicit."""
    models = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csqm"
        for method in ("sparse", "fjlt"):
            model = build_model(method=method, n=6, p=2, lambda_tilde=3, r=2, seed=1)
            for explicit in (False, True):
                write_model(path, model, explicit=explicit)
                models.append(path.read_bytes())
    return tuple(models)


@st.composite
def csqm_bytes(draw):
    """CSQM-shaped byte strings: headers with mostly plausible fields and
    an eighth of each hostile, or written models with a few bytes replaced,
    sometimes truncated."""

    def field(plausible, hostile):
        return draw(plausible if draw(st.integers(0, 7)) else hostile)

    u32 = st.sampled_from([2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)
    u64 = st.sampled_from([2**61 + 1, 2**63 - 1, 2**64 - 1]) | st.integers(0, 2**64 - 1)
    if draw(st.booleans()):
        raw = bytearray(draw(st.sampled_from(_written_models())))
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(raw) - 1))
            chunk = draw(st.binary(min_size=1, max_size=8))
            raw[at : at + len(chunk)] = chunk
        raw = bytes(raw)
    else:
        method = field(st.sampled_from([0, 1]), st.integers(0, 255))
        n = field(st.integers(1, 40), u64)
        n_pad = field(st.just(n if method != 1 else 1 << (n - 1).bit_length()), u64)
        n_pad %= 2**64
        r = field(st.integers(1, 3), u32)
        lambda_tilde = field(st.integers(1, 6), u32)
        p = field(st.integers(1, 5), u64)
        m = field(st.just((r * lambda_tilde - r + 1) * p), u64)
        floats = st.floats(width=64)
        raw = csqm_header(
            method, n, n_pad, m % 2**64, p, r, lambda_tilde,
            field(st.just(6), u32),
            field(st.just(0.5), floats),
            field(st.just(1.0), floats),
            field(st.just(1.0), floats),
            (draw(u64), draw(u64)),
            field(st.just(0), st.integers(0, 255)),
        ) + field(st.just(b""), st.binary(max_size=48))
    return field(st.just(raw), st.builds(lambda c: raw[:c], st.integers(0, len(raw))))


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=96) | csqm_bytes())
@example(raw=csqm_header(r=100_000, lambda_tilde=1))
@example(raw=csqm_header(r=2**32 - 1, lambda_tilde=2**32 - 1))
@example(raw=csqm_header(r=1, lambda_tilde=2**32 - 1))
@example(raw=csqm_header(r=2, sigma=2**32 - 1))
def test_model_reader_fuzz(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.csqm"
    path.write_bytes(raw)
    try:
        model = read_model(path)
    except CsqError:
        return
    assert isinstance(model, EmbeddingModel)
    dataclasses.replace(model)  # re-runs every check of the model
    assert model.quantizer.order == model.condensation.r


def test_vector_file_reads_blocks_at_their_offsets(tmp_path):
    path = tmp_path / "x.csqv"
    data = flat(5, 11, 4)
    write_vectors(path, data)
    with open_vectors(path) as source:
        assert isinstance(source, VectorFile)
        assert (source.k, source.n) == (11, 5)
        read = source.block_reader(4)
        for lo in (8, 0, 4):
            vectors, norms = read(lo, min(lo + 4, 11))
            assert np.array_equal(vectors, data.vectors[lo : lo + 4])
            assert np.array_equal(norms, data.norms[lo : lo + 4])
        # A file cut short after its size was checked.
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorruptionError, match="truncated"):
            read(8, 11)


# --------------------------------------------------------------- codes


def test_row_writers_put_records_in_any_order(tmp_path):
    """Records written back to front give the files of the whole-file
    writers, which use the same row writers."""
    rng = np.random.default_rng(8)
    codes = Codes.from_signs(np.where(rng.random((7, 21)) < 0.5, -1, 1))
    spec = build_condensation(2, 4, 3)
    sketches = Sketches.of(spec, rng.integers(-16, 17, size=(7, 3)))
    write_codes(tmp_path / "a.csqc", codes)
    write_condensed(tmp_path / "a.csqd", sketches)
    with open(tmp_path / "b.csqc", "wb") as fc, open(tmp_path / "b.csqd", "wb") as fd:
        put_codes = codes_writer(fc.fileno(), 7, 21)
        put_sketches = condensed_writer(fd.fileno(), 7, spec)
        for lo, hi in ((5, 7), (2, 5), (0, 2)):
            put_codes(lo, codes.bits[lo:hi])
            put_sketches(lo, pack_rows(sketches.entries[lo:hi], spec.bit_width))
    for ext in ("csqc", "csqd"):
        assert (tmp_path / f"b.{ext}").read_bytes() == (tmp_path / f"a.{ext}").read_bytes()


def test_whole_file_writers_write_into_a_fifo(tmp_path):
    """A FIFO cannot seek, so the writers write a whole file front to back."""
    import os
    import threading

    codes = Codes.from_signs(np.ones((3, 20), dtype=np.int8))
    sketches = Sketches.of(build_condensation(1, 4, 2), np.arange(6).reshape(3, 2))
    for write, value, name in ((write_codes, codes, "c"), (write_condensed, sketches, "d")):
        write(tmp_path / name, value)
        fifo = tmp_path / f"{name}.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write(fifo, value)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert got == [(tmp_path / name).read_bytes()]




def test_codes_round_trip_and_size(tmp_path):
    path = tmp_path / "codes.csqc"
    rng = np.random.default_rng(5)
    m = 37
    codes = Codes.from_signs(np.where(rng.random((6, m)) < 0.5, -1, 1).astype(np.int8))
    write_codes(path, codes)
    back = read_codes(path)
    assert len(back) == 6
    for a, b in zip(codes, back):
        assert a.length == b.length
        assert np.array_equal(a.to_signs(), b.to_signs())
    assert path.stat().st_size == 4 + 4 + 8 + 8 + 6 * ((m + 7) // 8)


def test_codes_empty_list_with_declared_length(tmp_path):
    path = tmp_path / "empty.csqc"
    write_codes(path, Codes(12, np.zeros((0, 2), dtype=np.uint8)))
    back = read_codes(path)
    assert len(back) == 0 and back.length == 12 and back.bits.shape == (0, 2)


def test_codes_truncation(tmp_path):
    path = tmp_path / "codes.csqc"
    write_codes(path, Codes.from_signs(np.ones((1, 64), dtype=np.int8)))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CorruptionError):
        read_codes(path)


CSQC_HEADER = struct.Struct("<4sIQQ")


def test_codes_hostile_headers(tmp_path):
    path = tmp_path / "hostile.csqc"
    # Zero-length codes would pass the size check with no payload and give
    # 2**63 empty rows.
    path.write_bytes(CSQC_HEADER.pack(b"CSQC", 1, 2**63, 0))
    t0 = time.perf_counter()
    with pytest.raises(FormatError):
        read_codes(path)
    assert time.perf_counter() - t0 < 1.0
    for k, m in ((2**64 - 1, 8), (2**40, 2**20), (1, 2**64 - 1)):
        path.write_bytes(CSQC_HEADER.pack(b"CSQC", 1, k, m) + bytes(64))
        with pytest.raises(CorruptionError):
            read_codes(path)
    path.write_bytes(CSQC_HEADER.pack(b"CSQC", 1, 0, 2**64 - 1))
    empty = read_codes(path)
    assert len(empty) == 0 and empty.bits.shape == (0, 2**61)


@st.composite
def csqc_bytes(draw):
    """CSQC-shaped byte strings: plausible or hostile k and m, payloads of
    the exact size or not, sometimes truncated."""

    def field(plausible, hostile):
        return draw(plausible if draw(st.integers(0, 3)) else hostile)

    u64 = st.sampled_from([2**61 + 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
    k = field(st.sampled_from([0, 1, 3]), u64)
    m = field(st.integers(0, 40), u64)
    size = k * ((m + 7) // 8)
    body = field(
        st.binary(min_size=size, max_size=size) if size <= 256 else st.just(b""),
        st.binary(max_size=48),
    )
    raw = CSQC_HEADER.pack(b"CSQC", field(st.just(1), st.integers(0, 3)), k, m) + body
    return field(st.just(raw), st.builds(lambda c: raw[:c], st.integers(0, len(raw))))


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=64) | csqc_bytes())
@example(raw=CSQC_HEADER.pack(b"CSQC", 1, 2**63, 0))
def test_codes_reader_fuzz(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.csqc"
    path.write_bytes(raw)
    try:
        codes = read_codes(path)
    except CsqError:
        return
    assert isinstance(codes, Codes)
    assert codes.bits.shape == (len(codes), (codes.length + 7) // 8)
    assert codes.bits.dtype == np.uint8


# ----------------------------------------------------------- condensed


def test_condensed_round_trip_and_size(tmp_path):
    path = tmp_path / "sk.csqd"
    spec = build_condensation(2, 9, 16)
    rng = np.random.default_rng(6)
    signs = np.where(rng.random((9, spec.m)) < 0.5, -1, 1).astype(np.int8)
    sketches = Sketches.of(spec, condense_signs_batch(spec, signs))
    write_condensed(path, sketches)
    back = read_condensed(path)
    assert isinstance(back, Sketches) and len(back) == 9 and back.p == 16
    assert np.array_equal(back.entries, sketches.entries)
    assert back.entries.dtype == sketches.entries.dtype
    assert (back.bit_width, back.norm_factor) == (spec.bit_width, spec.norm_factor)
    record = (16 * spec.bit_width + 7) // 8
    assert path.stat().st_size == 4 + 4 + 8 + 8 + 4 + 8 + 9 * record


def test_condensed_rejects_nonsense_bit_width(tmp_path):
    path = tmp_path / "sk.csqd"
    spec = build_condensation(1, 4, 2)
    entries = condense_signs_batch(spec, np.ones((1, 8), dtype=np.int8))
    write_condensed(path, Sketches.of(spec, entries))
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
    entries = condense_signs_batch(spec, np.ones((2, spec.m), dtype=np.int8))
    write_condensed(path, Sketches.of(spec, entries))
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(CorruptionError):
        read_condensed(path)


CSQD_HEADER = struct.Struct("<4sIQQId")


@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, lambda e: np.ascontiguousarray(e.T).T, lambda e: e[:, ::-1]],
    ids=["fortran", "transposed", "reversed"],
)
def test_condensed_round_trip_of_non_c_ordered_entries(tmp_path, layout):
    spec = build_condensation(2, 5, 7)
    rng = np.random.default_rng(12)
    signs = np.where(rng.random((9, spec.m)) < 0.5, -1, 1).astype(np.int8)
    entries = condense_signs_batch(spec, signs)
    sk = Sketches.of(spec, layout(entries))
    assert sk.entries.flags.c_contiguous
    write_condensed(tmp_path / "sk.csqd", sk)
    back = read_condensed(tmp_path / "sk.csqd")
    assert np.array_equal(back.entries, layout(entries))


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


_CURVE_HEAD = (",".join(CURVE_HEADER) + "\n").encode()


@pytest.mark.parametrize(
    "raw",
    [
        _CURVE_HEAD + b"256,16,1,0.5\n",  # too few fields
        _CURVE_HEAD + b"256,16,1,0.5,2.0,9\n",  # too many
        _CURVE_HEAD + b"256,16,one,0.5,2.0\n",  # not a number
        _CURVE_HEAD + b"256,16,1,0.5,2.0\n\n",  # an empty row
        _CURVE_HEAD + b"256,16,1,0.5,2\x00\n",  # a NUL byte
        b"\xff\xfe" + bytes(16),  # not text
        None,  # no file
    ],
    ids=["short", "long", "non-numeric", "empty-row", "nul", "binary", "missing"],
)
def test_curve_reader_refuses_malformed_files(tmp_path, raw):
    path = tmp_path / "curve.csv"
    if raw is not None:
        path.write_bytes(raw)
    with pytest.raises(FormatError):
        read_curve(path)


def test_curve_header_is_checked(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("m,p,mape\n1,2,0.5\n")
    with pytest.raises(FormatError):
        read_curve(path)
