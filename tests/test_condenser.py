"""Kernel construction, integer block condensation, the l1 pseudometric
and fixed-width bit packing."""

import math

import numpy as np
import pytest
from oracles import l1_oracle, reference_record

from csq.condense import (
    MAX_BLOCK,
    BinaryCode,
    Codes,
    CondensedCode,
    Sketches,
    build_condensation,
    condense_real_batch,
    condense_signs_batch,
    entry_dtype,
    operator_bound,
    pack_rows,
    pairwise_l1_blocks,
    unpack_rows,
)
from csq.errors import (
    CapacityError,
    IncompatibilityError,
    ParameterError,
    ShapeError,
)
from csq.pipeline import build_model, estimate_distance

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def dense_kernel_matrix(spec):
    """Explicit block operator: p rows, one kernel copy per block."""
    v = spec.kernel.astype(np.float64)
    out = np.zeros((spec.p, spec.m))
    for b in range(spec.p):
        out[b, b * spec.lam : (b + 1) * spec.lam] = v
    return out


def sketches_of(spec, signs):
    """The sketches of (k, m) sign rows under ``spec``."""
    signs = np.asarray(signs, dtype=np.int8)
    return Sketches.of(spec, condense_signs_batch(spec, signs))


def model_of(spec):
    """A model whose condensation is ``spec``."""
    return build_model("sparse", 4, spec.p, spec.lambda_tilde, spec.r, sparsity=1.0)


def random_signs(rng, *shape):
    return np.where(rng.random(shape) < 0.5, -1, 1).astype(np.int8)


# ---------------------------------------------------------- kernels


def test_kernel_order_one_is_all_ones():
    spec = build_condensation(1, 4, 2)
    assert spec.kernel.tolist() == [1, 1, 1, 1]
    assert spec.lam == 4
    assert spec.m == 8


def test_kernel_order_two_triangle():
    spec = build_condensation(2, 3, 1)
    assert spec.kernel.tolist() == [1, 2, 3, 2, 1]
    assert spec.lam == 5


def test_kernel_order_three_binomials():
    spec = build_condensation(3, 2, 1)
    assert spec.kernel.tolist() == [1, 3, 3, 1]
    assert spec.lam == 4


@pytest.mark.parametrize("r,lt", [(1, 7), (2, 5), (3, 4), (4, 3)])
def test_kernel_palindrome_and_mass(r, lt):
    spec = build_condensation(r, lt, 2)
    v = spec.kernel
    assert v.tolist() == v[::-1].tolist()
    assert int(v.sum()) == lt**r
    assert v.shape[0] == spec.lam == r * lt - r + 1
    assert np.max(v) == spec.kernel.max()


@pytest.mark.parametrize("r,lt", [(1, 4), (2, 3), (2, 33), (3, 5)])
def test_bit_width_formula(r, lt):
    spec = build_condensation(r, lt, 1)
    assert spec.bit_width == math.ceil(math.log2(lt**r + 1)) + 1


def test_norm_factor_value():
    spec = build_condensation(1, 4, 2)
    assert spec.norm_factor == pytest.approx(SQRT_HALF_PI / (2.0 * 2.0))


def test_build_condensation_argument_errors():
    with pytest.raises(ParameterError):
        build_condensation(0, 4, 2)
    with pytest.raises(ParameterError):
        build_condensation(1, 0, 2)
    with pytest.raises(ParameterError):
        build_condensation(1, 4, 0)


def test_specs_compare_and_hash_by_their_parameters():
    spec = build_condensation(2, 5, 7)
    assert spec == build_condensation(2, 5, 7)
    assert hash(spec) == hash(build_condensation(2, 5, 7))
    for other in ((3, 5, 7), (2, 4, 7), (2, 5, 8)):
        assert spec != build_condensation(*other)


# ------------------------------------------------------ binary codes


def test_binary_code_round_trip():
    signs = np.array([1, -1, -1, 1, 1, 1, -1, 1, -1], dtype=np.int8)
    code = BinaryCode.from_signs(signs)
    assert code.length == 9
    assert code.byte_size() == 2
    assert np.array_equal(code.to_signs(), signs)


def test_binary_code_rejects_non_signs():
    from csq.errors import InputError

    with pytest.raises(InputError):
        BinaryCode.from_signs(np.array([1, 0, -1], dtype=np.int8))


# ------------------------------------------------------- condensation


def test_condense_matches_dense_operator():
    spec = build_condensation(2, 4, 3)
    signs = random_signs(np.random.default_rng(9), spec.m)
    got = sketches_of(spec, signs[None, :])[0]
    want = dense_kernel_matrix(spec) @ signs.astype(np.float64)
    assert got.entries.tolist() == [int(x) for x in want]
    assert got.p == 3
    assert got.bit_width == spec.bit_width
    assert got.norm_factor == spec.norm_factor


def test_condense_is_exact_integer_arithmetic():
    """Entries match an all-Python-int evaluation exactly."""
    spec = build_condensation(3, 6, 2)
    signs = random_signs(np.random.default_rng(21), spec.m)
    got = condense_signs_batch(spec, signs[None, :])[0]
    kernel = [int(x) for x in spec.kernel]
    for b in range(spec.p):
        block = [int(s) for s in signs[b * spec.lam : (b + 1) * spec.lam]]
        want = sum(v * s for v, s in zip(kernel, block))
        assert int(got[b]) == want


def test_condense_length_mismatch():
    spec = build_condensation(1, 4, 2)
    for signs in (np.ones((1, 7)), np.ones((2, 9)), np.ones(8)):
        with pytest.raises(ShapeError):
            condense_signs_batch(spec, signs.astype(np.int8))


def test_condense_real_batch_applies_normalization():
    spec = build_condensation(1, 4, 2)
    zs = np.arange(8, dtype=np.float64)[None, :]
    got = condense_real_batch(spec, zs)
    want = dense_kernel_matrix(spec) @ zs[0] * spec.norm_factor
    assert np.allclose(got[0], want, atol=1e-12)


# ------------------------------------------------------ l1 distance


def test_l1_distance_identical_codes_is_zero():
    spec = build_condensation(2, 3, 2)
    (a,) = sketches_of(spec, np.ones((1, spec.m)))
    assert estimate_distance(model_of(spec), a, a) == 0.0


def test_l1_distance_all_ones_vs_all_minus_ones():
    spec = build_condensation(1, 4, 2)
    a, b = sketches_of(spec, [[1] * 8, [-1] * 8])
    # entries +-4 per block, difference 8 per block, 2 blocks -> 16
    got = estimate_distance(model_of(spec), a, b)
    assert got == pytest.approx(16.0 * SQRT_HALF_PI / 4.0)
    assert got == pytest.approx(5.0132565492620005, abs=1e-14)


def test_l1_distance_equals_real_arithmetic_oracle():
    spec = build_condensation(2, 6, 5)
    model = model_of(spec)
    rng = np.random.default_rng(17)
    dense = dense_kernel_matrix(spec) * spec.norm_factor
    for _ in range(20):
        signs = random_signs(rng, 2, spec.m)
        a, b = sketches_of(spec, signs)
        want = float(np.abs(dense @ (signs[0] - signs[1]).astype(np.float64)).sum())
        assert estimate_distance(model, a, b) == pytest.approx(want, abs=1e-10)


def test_l1_distance_symmetry_and_triangle():
    spec = build_condensation(1, 8, 3)
    model = model_of(spec)
    a, b, c = sketches_of(spec, random_signs(np.random.default_rng(29), 3, spec.m))
    assert estimate_distance(model, a, b) == estimate_distance(model, b, a)
    assert estimate_distance(model, a, c) <= (
        estimate_distance(model, a, b) + estimate_distance(model, b, c) + 1e-12
    )


def test_l1_distance_incompatible_specs():
    spec = build_condensation(1, 4, 2)
    (a,) = sketches_of(spec, np.ones((1, 8)))
    (b,) = sketches_of(build_condensation(1, 4, 3), np.ones((1, 12)))
    with pytest.raises(IncompatibilityError):
        estimate_distance(model_of(spec), a, b)


# --------------------------------------------------- operator bound


def test_operator_bound_frozen_value():
    spec = build_condensation(1, 64, 1)
    assert operator_bound(spec) == pytest.approx(SQRT_HALF_PI * 8.0)
    assert operator_bound(spec) == pytest.approx(10.026513098524, abs=1e-10)


def test_operator_bound_power_law():
    r = 2
    small = build_condensation(r, 9, 1)      # lam = 17
    big = build_condensation(r, 33, 1)       # lam = 65
    got = operator_bound(small) / operator_bound(big)
    want = (65.0 / 17.0) ** (r - 0.5)
    assert got == pytest.approx(want)


def test_operator_bound_dominates_dense_row_sums():
    """The closed form really does bound the entrywise norm of the
    normalized kernel matrix against r-fold differencing."""
    for r, lt in ((1, 8), (2, 5)):
        spec = build_condensation(r, lt, 4)
        dense = dense_kernel_matrix(spec) * spec.norm_factor
        # r-fold difference operator on m points
        diff = np.eye(spec.m)
        for _ in range(r):
            diff = diff - np.vstack([np.zeros((1, spec.m)), diff[:-1]])
        entrywise = float(np.abs(dense @ diff).sum())
        assert entrywise <= operator_bound(spec)


# ----------------------------------------------------- bit packing


def test_pack_small_example():
    packed = pack_rows(np.array([[2, 2]], dtype=np.int64), 3)
    assert packed.shape == (1, 1)  # 6 bits fit one byte
    back = unpack_rows(packed, p=2, bit_width=3)
    assert back.tolist() == [[2, 2]]


def test_pack_extreme_entries_round_trip():
    spec = build_condensation(2, 5, 2)
    peak = 5**2
    entries = np.array([[-peak, peak]], dtype=np.int64)
    back = unpack_rows(pack_rows(entries, spec.bit_width), 2, spec.bit_width)
    assert back.tolist() == [[-peak, peak]]


def test_pack_rejects_overflow():
    with pytest.raises(CapacityError):
        pack_rows(np.array([[4]], dtype=np.int64), 3)


def test_pack_random_codes_round_trip():
    rng = np.random.default_rng(2718)
    for _ in range(300):
        r = int(rng.integers(1, 4))
        lt = int(rng.integers(2, 9))
        p = int(rng.integers(1, 12))
        spec = build_condensation(r, lt, p)
        entries = condense_signs_batch(spec, random_signs(rng, 1, spec.m))
        packed = pack_rows(entries, spec.bit_width)
        back = unpack_rows(packed, p, spec.bit_width)
        assert np.array_equal(back, entries)


def test_packed_size_is_ceil_of_bits():
    spec = build_condensation(2, 33, 16)   # bit_width 12
    entries = condense_signs_batch(spec, np.ones((1, spec.m), dtype=np.int8))
    packed = pack_rows(entries, spec.bit_width)
    assert packed.shape == (1, (16 * spec.bit_width + 7) // 8)


def test_pack_rows_matches_per_record_layout_for_random_specs():
    rng = np.random.default_rng(4242)
    for _ in range(60):
        r = int(rng.integers(1, 5))
        lt = int(rng.integers(2, 40))
        p = int(rng.integers(1, 20))
        spec = build_condensation(r, lt, p)
        k = int(rng.integers(0, 6))
        peak = lt**r
        entries = rng.integers(-peak, peak + 1, size=(k, p))
        packed = pack_rows(entries, spec.bit_width)
        assert packed.shape == (k, (p * spec.bit_width + 7) // 8)
        for row, got in zip(entries, packed):
            assert got.tobytes() == reference_record(row, spec.bit_width)
            assert pack_rows(row[None, :], spec.bit_width)[0].tobytes() == got.tobytes()
        back = unpack_rows(packed, p, spec.bit_width)
        assert back.dtype == entry_dtype(spec.bit_width)
        assert np.array_equal(back, entries)


@pytest.mark.parametrize("bit_width", list(range(1, 64)))
def test_pack_rows_round_trips_extremes_of_every_width(bit_width):
    half = 1 << (bit_width - 1)
    row = [-half, half - 1, 0, -1 if bit_width > 1 else 0, half // 3]
    entries = np.array([row, row[::-1]], dtype=np.int64)
    packed = pack_rows(entries, bit_width)
    for want, got in zip(entries, packed):
        assert got.tobytes() == reference_record(want, bit_width)
    assert np.array_equal(unpack_rows(packed, len(row), bit_width), entries)
    assert unpack_rows(packed[:1], len(row), bit_width)[0].tolist() == row


def test_pack_rows_rejects_overflow_at_width_63():
    with pytest.raises(CapacityError):
        pack_rows(np.array([[1 << 62]], dtype=np.int64), 63)


def test_entry_dtype_leaves_room_for_differences():
    assert entry_dtype(7) == np.int8
    assert entry_dtype(8) == np.int16
    assert entry_dtype(10) == np.int16
    assert entry_dtype(31) == np.int32
    assert entry_dtype(32) == np.int64
    assert entry_dtype(63) == np.int64
    with pytest.raises(CapacityError):
        entry_dtype(64)


# ------------------------------------------------------------ sketches


def random_sketches(rng, spec, k):
    return sketches_of(spec, random_signs(rng, k, spec.m))


def test_sketches_rows_are_condensed_codes():
    spec = build_condensation(2, 5, 3)
    sk = random_sketches(np.random.default_rng(3), spec, 4)
    assert len(sk) == 4
    assert sk.entries.dtype == entry_dtype(spec.bit_width)
    rows = list(sk)
    assert len(rows) == 4
    for i, code in enumerate(rows):
        assert isinstance(code, CondensedCode)
        assert (code.p, code.bit_width, code.norm_factor) == (
            spec.p, spec.bit_width, spec.norm_factor,
        )
        assert np.array_equal(code.entries, sk.entries[i])
        assert np.array_equal(sk[i].entries, code.entries)
    assert np.array_equal(sk[-1].entries, sk.entries[3])
    tail = sk[1:]
    assert isinstance(tail, Sketches) and len(tail) == 3


def test_codes_rows_are_binary_codes():
    signs = np.where(np.random.default_rng(4).random((5, 13)) < 0.5, -1, 1)
    codes = Codes.from_signs(signs)
    assert len(codes) == 5 and codes.length == 13
    assert codes.bits.shape == (5, 2) and codes.bits.dtype == np.uint8
    assert codes.bits.flags.c_contiguous
    for i, code in enumerate(codes):
        assert isinstance(code, BinaryCode) and code.length == 13
        assert np.array_equal(code.to_signs(), signs[i])
        assert np.array_equal(codes[i].bits, BinaryCode.from_signs(signs[i]).bits)
    assert np.array_equal(codes[-1].bits, codes.bits[4])
    tail = codes[1:3]
    assert isinstance(tail, Codes) and len(tail) == 2 and tail.length == 13
    assert np.array_equal(tail.bits, codes.bits[1:3])
    empty = Codes.from_signs(np.zeros((0, 13), dtype=np.int8))
    assert len(empty) == 0 and empty.bits.shape == (0, 2) and list(empty) == []


def test_codes_reject_bad_bits():
    with pytest.raises(ShapeError):
        Codes(13, np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ShapeError):
        Codes(13, np.zeros(2, dtype=np.uint8))
    with pytest.raises(ShapeError):
        Codes(13, np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ShapeError):
        Codes.from_signs(np.ones(4))
    bits = np.asfortranarray(np.arange(6, dtype=np.uint8).reshape(3, 2))
    assert Codes(16, bits).bits.flags.c_contiguous


def test_condensation_limits_are_checked_before_any_work():
    assert build_condensation(1, MAX_BLOCK, 1).lam == MAX_BLOCK
    with pytest.raises(ParameterError):
        build_condensation(1, MAX_BLOCK + 1, 1)
    with pytest.raises(ParameterError):
        build_condensation(2, MAX_BLOCK // 2 + 1, 1)
    # Orders past the quantizer's limit, and huge lambda_tilde, would take
    # hours of big-integer powers or convolutions if checked afterwards.
    for r, lt in ((62, 1), (2**32 - 1, 1), (2**32 - 1, 2**32 - 1), (1, 2**32 - 1)):
        with pytest.raises(ParameterError):
            build_condensation(r, lt, 4)


def test_sketches_reject_bad_entries():
    spec = build_condensation(1, 4, 2)
    with pytest.raises(ShapeError):
        Sketches.of(spec, np.zeros((3, 5), dtype=np.int64))
    with pytest.raises(ShapeError):
        Sketches.of(spec, np.zeros((3, 2)))
    with pytest.raises(CapacityError):
        Sketches.of(spec, np.full((1, 2), 1 << spec.bit_width))


@pytest.mark.parametrize(
    "p, norm_factor", [(0, 0.5), (2, 0.0), (2, -1.0), (2, math.inf), (2, math.nan)]
)
def test_sketches_reject_bad_geometry(p, norm_factor):
    """The geometry a CSQD header stores is checked where it is held, so
    write_condensed never writes a file read_condensed refuses."""
    with pytest.raises(ParameterError):
        Sketches(p, 10, norm_factor, np.zeros((1, p), dtype=np.int64))


@pytest.mark.parametrize("block_pairs", [1, 5, 1 << 17])
def test_pairwise_l1_blocks_match_naive_pairs(block_pairs):
    rng = np.random.default_rng(91)
    spec = build_condensation(2, 6, 5)
    sk = random_sketches(rng, spec, 9)
    blocks = list(pairwise_l1_blocks(sk.entries, block_pairs))
    starts = [start for start, _, _ in blocks]
    stops = [stop for _, stop, _ in blocks]
    assert starts == [0] + stops[:-1] and stops[-1] == 8
    for start, stop, sums in blocks:
        assert sums.dtype == np.int64
        assert sums.size == sum(9 - 1 - i for i in range(start, stop))
    got = np.concatenate([sums for _, _, sums in blocks])
    want = np.concatenate([sums for _, _, sums in l1_oracle(sk.entries)])
    assert np.array_equal(got, want)


def test_pairwise_l1_blocks_sum_beyond_the_entry_dtype():
    """int8 entries at the extremes of width 7: the sums leave int8 and
    int16 range and must still be exact."""
    rows = np.array([[-64] * 600, [63] * 600, [0] * 600], dtype=np.int8)
    got = np.concatenate([s for _, _, s in pairwise_l1_blocks(rows)])
    assert got.tolist() == [127 * 600, 64 * 600, 63 * 600]


def test_pairwise_l1_blocks_need_two_rows():
    assert list(pairwise_l1_blocks(np.zeros((1, 3), dtype=np.int16))) == []
    assert list(pairwise_l1_blocks(np.zeros((0, 3), dtype=np.int16))) == []
