"""One reference implementation per stage, for the tests to compare the
library's batch paths with.

Each oracle is written the plain way, independent of the kernel it
checks: a row-layout Walsh-Hadamard butterfly, one ``np.bincount`` per
point for the sparse projection, a lockstep quantizer that keeps every
filter state, an int64 condensation, one ``packbits`` per code, the
row-by-row loop of the sparse Gaussian draw, exact Python-integer l1 sums
and the documented record layout of packed sketches. The numpy and
compiled kernels must match them bit for bit (``np.array_equal``), never
within a tolerance.

This module is imported by the test modules; pytest does not collect it.
"""

import math

import numpy as np

from csq.condense import _pair_blocks


def fwht_oracle(x):
    """Row-layout butterfly along the last axis of a C-ordered copy."""
    x = np.array(x, dtype=np.float64)
    n = x.shape[-1]
    lead = x.shape[:-1]
    h = 1
    while h < n:
        y = x.reshape(lead + (n // (2 * h), 2, h))
        even = y[..., 0, :].copy()
        odd = y[..., 1, :]
        y[..., 0, :] = even + odd
        y[..., 1, :] = even - odd
        h *= 2
    x *= 1.0 / math.sqrt(n)
    return x


def dense_of(matrix):
    """Materialize a sparse Gaussian matrix row by row."""
    out = np.zeros((matrix.rows, matrix.cols))
    for i in range(matrix.rows):
        lo, hi = matrix.row_offsets[i], matrix.row_offsets[i + 1]
        out[i, matrix.col_indices[lo:hi]] = matrix.values[lo:hi]
    return out


def matmat_oracle(matrix, xs):
    """One bincount per point, entries summed in storage order."""
    rid = np.repeat(np.arange(matrix.rows), np.diff(matrix.row_offsets))
    out = np.empty((xs.shape[0], matrix.rows))
    for i in range(xs.shape[0]):
        products = matrix.values * xs[i, matrix.col_indices]
        out[i] = np.bincount(rid, weights=products, minlength=matrix.rows)
    return out


def precondition_oracle(op, xs):
    padded = np.zeros((xs.shape[0], op.matrix.cols))
    padded[:, : op.n] = xs
    padded *= op.signs
    return fwht_oracle(padded)


def project_oracle(model, xs):
    op = model.operator
    if op.signs is not None:
        return matmat_oracle(op.matrix, precondition_oracle(op, xs))
    return matmat_oracle(op.matrix, xs)


def quantize_oracle(spec, ys, ties=None):
    """Lockstep quantizer keeping the whole state; where ``ties`` is set,
    the input sample is replaced by ``-a`` so that ``a + y`` is exactly 0.

    Returns (codes, filter states w, inputs actually quantized), each
    (k, m).
    """
    ys = np.array(ys, dtype=np.float64)
    k, m = ys.shape
    pad = spec.reach
    buf = np.zeros((pad + m, k))
    codes = np.empty((m, k), dtype=np.int8)
    for i in range(m):
        a = np.zeros(k)
        for nj, d in zip(spec.positions, spec.weights):
            a += d * buf[pad - nj + i]
        if ties is not None:
            ys[ties[:, i], i] = -a[ties[:, i]]
        s = a + ys[:, i]
        q = np.where(s >= 0.0, 1.0, -1.0)
        buf[pad + i] = s - q
        codes[i] = q.astype(np.int8)
    return codes.T, buf[pad:].T, ys


def condense_oracle(spec, signs):
    """(k, m) signs -> (k, p) block sums against the kernel, in int64."""
    blocks = signs.astype(np.int64).reshape(signs.shape[0], spec.p, spec.lam)
    return blocks @ spec.kernel


def bits_oracle(signs):
    """One ``packbits`` per code, +1 -> 1, LSB first."""
    return [
        np.packbits((row > 0).astype(np.uint8), bitorder="little") for row in signs
    ]


def draw_oracle(rng, rows, cols, sparsity):
    """CSR arrays of the sparse Gaussian draw, one row at a time: ``cols``
    uniforms for the keep mask, then one normal per kept entry."""
    offsets = np.zeros(rows + 1, dtype=np.int64)
    kept, vals = [], []
    for i in range(rows):
        cols_i = np.flatnonzero(rng.random(cols) < sparsity)
        kept.append(cols_i)
        vals.append(rng.standard_normal(cols_i.size) / math.sqrt(sparsity))
        offsets[i + 1] = offsets[i] + cols_i.size
    return offsets, np.concatenate(kept), np.concatenate(vals)


def l1_oracle(rows, block_pairs=1 << 17):
    """``[(start, stop, sums)]`` as :func:`csq.condense.pairwise_l1_blocks`
    yields them for integer rows: the same block boundaries, and for each
    pair (i, j), i < j, the sum of ``|a - b|`` in Python integers, reduced
    modulo 2**64 to int64. That is the wrap both kernels document at
    width 63, the only width whose sums can leave int64."""
    exact = np.asarray(rows).astype(object)
    blocks = []
    for start, stop, _ in _pair_blocks(len(exact), block_pairs):
        sums = [
            (int(total) + 2**63) % 2**64 - 2**63
            for i in range(start, stop)
            for total in np.abs(exact[i + 1 :] - exact[i]).sum(axis=1)
        ]
        blocks.append((start, stop, np.array(sums, dtype=np.int64)))
    return blocks


def reference_record(entries, bit_width):
    """One packed sketch record as documented: entry e fills bits
    e*w .. e*w + w - 1 of a little-endian bit string, two's complement,
    zero-padded to whole bytes."""
    acc = 0
    for idx, value in enumerate(entries):
        acc |= (int(value) & ((1 << bit_width) - 1)) << (idx * bit_width)
    return acc.to_bytes((len(entries) * bit_width + 7) // 8, "little")
