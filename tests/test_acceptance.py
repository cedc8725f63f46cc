"""Acceptance suite: one test per release criterion, in order.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Every random stream is seeded, so reruns are exact.
Each timed criterion asserts its own wall-clock budget at the end.
"""

import math
import time

import numpy as np
import pytest

from csq.bench import BenchConfig, nearest_lambda_tilde, run_mape_bench
from csq.cli import main as cli_main
from csq.condense import (
    Codes,
    Sketches,
    build_condensation,
    condense_real_batch,
    operator_bound,
)
from csq.pipeline import (
    build_model,
    dataset_from_matrix,
    hamming_angular_distance,
    kappa_bound,
    sign_msq_baseline_embed,
)
from csq.sigma_delta import (
    build_quantizer,
    quantize_batch,
    reconstruct_state,
    stability_scan,
)
from csq.transforms import build_sparse_gaussian, fwht_inplace, sparse_matvec
from csq import store


def _dense_of(mat):
    out = np.zeros((mat.rows, mat.cols))
    for i in range(mat.rows):
        lo, hi = mat.row_offsets[i], mat.row_offsets[i + 1]
        out[i, mat.col_indices[lo:hi]] = mat.values[lo:hi]
    return out


def test_criterion_01_transform_oracles():
    t0 = time.perf_counter()
    for n in (2, 4, 8, 16, 32, 64):
        h = np.array(
            [[(-1.0) ** bin(i & j).count("1") for j in range(n)] for i in range(n)]
        ) / math.sqrt(n)
        rng = np.random.default_rng(n)
        xs = rng.standard_normal((5, n))
        got = fwht_inplace(xs.copy())
        assert np.abs(got - xs @ h).max() <= 1e-12

    rng = np.random.default_rng(20260501)
    for trial in range(100):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        density = float(rng.uniform(0.05, 1.0))
        mat = build_sparse_gaussian(m, n, density, seed=int(rng.integers(2**63)))
        x = rng.standard_normal(n)
        want = _dense_of(mat) @ x
        got = sparse_matvec(mat, x)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-12 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 1: PASS (transform oracles agree to 1e-12, {elapsed:.2f}s)")


def test_criterion_02_difference_identity():
    t0 = time.perf_counter()
    m = 4096
    rng = np.random.default_rng(np.random.SeedSequence([8, 1]))
    for r in (1, 2, 3):
        spec = build_quantizer(r, sigma=6)
        ys = rng.uniform(-0.3, 0.3, size=(100, m))
        quant = quantize_batch(spec, ys)
        us = reconstruct_state(r, ys, quant.codes)
        diffed = us
        for _ in range(r):
            diffed = np.diff(diffed, axis=1, prepend=0.0)
        residual = np.abs(diffed - (ys - quant.codes)).max()
        assert residual <= 1e-9 * m, f"r={r}: residual {residual}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 2: PASS (r-fold difference of u returns y - q, {elapsed:.2f}s)")


def test_criterion_03_stability_no_growth():
    t0 = time.perf_counter()
    m_list = [2**10, 2**12, 2**14]
    for r in (1, 2, 3):
        spec = build_quantizer(r, sigma=6)
        rows = stability_scan(spec, m_list, trials=100, amplitude=0.3, seed=2026)
        peaks = [peak for _, peak in rows]
        for lo, hi in zip(peaks, peaks[1:]):
            assert hi <= 1.05 * lo, f"r={r}: state grew {peaks}"

    # Exact r=1 bound: the greedy rule keeps |u| <= 1 for any input with
    # sup norm <= 1, including inputs past the nominal budget mu.
    spec1 = build_quantizer(1, sigma=6, mu=0.95)
    rng = np.random.default_rng(np.random.SeedSequence([2026, 1]))
    ys = rng.uniform(-1.0, 1.0, size=(100, 4096))
    quant = quantize_batch(spec1, ys)
    us = reconstruct_state(1, ys, quant.codes)
    assert np.abs(us).max() <= 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3: PASS (no state growth across m, r=1 bound exact, {elapsed:.2f}s)")


GRID_SEED = 101
GRID_P = 16
GRID_N = 1024
GRID_LAM_TARGETS = (4, 8, 16, 32, 64)
GRID_K = {1: 100, 2: 200}


@pytest.fixture(scope="module")
def quantization_grid():
    """Embed signflat points over r x lambda cells; shared by criteria 4-5.

    Per-order input scales follow the stability budgets: the greedy r=1
    quantizer tolerates loud inputs (radius 0.5 keeps it out of the
    limit-cycle regime where error stops decaying), while r=2 needs the
    projections inside its budget, so the radius comes from kappa_bound.
    """
    cells = []
    for r in (1, 2):
        for lam_target in GRID_LAM_TARGETS:
            lt = nearest_lambda_tilde(lam_target, r)
            model = build_model(
                "sparse", GRID_N, GRID_P, lt, r,
                seed=GRID_SEED * 1000 + r * 100 + lam_target,
            )
            k = GRID_K[r]
            rng = np.random.default_rng(
                np.random.SeedSequence([GRID_SEED, 23, r, lam_target])
            )
            signs = rng.choice((-1.0, 1.0), size=(k, GRID_N))
            radius = 0.5 if r == 1 else kappa_bound(0.2, 4.0, model.m)
            points = signs * (radius / math.sqrt(GRID_N))
            zs = model.operator.apply(points)
            quant = quantize_batch(model.quantizer, zs)
            us = reconstruct_state(r, zs, quant.codes)
            lhs = np.abs(
                condense_real_batch(model.condensation, quant.codes - zs)
            ).sum(axis=1)
            cells.append(
                dict(
                    r=r,
                    lam=model.condensation.lam,
                    lhs=lhs,
                    umax=np.abs(us).max(axis=1),
                    flags=quant.amplitude_violations,
                    bound=operator_bound(model.condensation),
                )
            )
    return cells


def test_criterion_04_quantization_decay_slope(quantization_grid):
    t0 = time.perf_counter()
    slopes = {}
    for r in (1, 2):
        sub = [c for c in quantization_grid if c["r"] == r]
        xs = np.log([c["lam"] for c in sub])
        ys = np.log([c["lhs"].mean() for c in sub])
        slope = float(np.polyfit(xs, ys, 1)[0])
        slopes[r] = slope
        assert slope <= -(r - 0.5) + 0.15, f"r={r}: slope {slope:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS (slopes r1 {slopes[1]:.3f} <= -0.35, "
        f"r2 {slopes[2]:.3f} <= -1.35, {elapsed:.2f}s)"
    )


def test_criterion_05_chain_bound_holds(quantization_grid):
    checked = 0
    for cell in quantization_grid:
        ok = ~cell["flags"]
        checked += int(ok.sum())
        violations = cell["lhs"][ok] > cell["bound"] * cell["umax"][ok]
        assert not violations.any(), f"chain bound broken in cell {cell['r']}, {cell['lam']}"
    assert checked >= 1000
    print(f"criterion 5: PASS (chain bound held on {checked} unflagged points)")


def test_criterion_06_jl_distortion():
    t0 = time.perf_counter()
    n, p = 1024, 512
    model = build_model("sparse", n, p, 4, 1, mu=0.5, seed=1131)
    rng = np.random.default_rng(np.random.SeedSequence([11, 37]))
    rel = []
    for _ in range(100):
        x = rng.choice((-1.0, 1.0), size=n) / math.sqrt(n)
        y = rng.choice((-1.0, 1.0), size=n) / math.sqrt(n)
        true = np.linalg.norm(x - y)
        image = condense_real_batch(
            model.condensation, model.operator.apply((x - y)[None, :])
        )
        rel.append(abs(float(np.abs(image).sum()) - true) / true)
    rel = np.array(rel)
    median = float(np.median(rel))
    within = float((rel <= 0.25).mean())
    assert median <= 0.15
    assert within >= 0.90
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 6: PASS (median distortion {median:.4f} <= 0.15, "
        f"{within:.0%} of pairs within 0.25, {elapsed:.2f}s)"
    )


def test_criterion_07_mape_curve_shape():
    t0 = time.perf_counter()
    cfg = BenchConfig(
        n=1024, k=50, p_list=[64], m_list=[256, 512, 1024, 2048, 4096],
        r_list=[1, 2], trials=3, seed=0,
    )
    cells = run_mape_bench(cfg)
    by = {(c.r, c.m_requested): c for c in cells}

    # (a) r=1 error is non-increasing in m up to trial noise, then flattens.
    row = [by[(1, m)] for m in cfg.m_list]
    sems = [
        float(np.std(c.trial_scores, ddof=1)) / math.sqrt(len(c.trial_scores))
        for c in row
    ]
    for i in range(len(row) - 1):
        slack = 2.0 * math.hypot(sems[i], sems[i + 1])
        assert row[i + 1].mape <= row[i].mape + slack, (
            f"m={row[i].m_requested}->{row[i + 1].m_requested}: "
            f"{row[i].mape:.4f} -> {row[i + 1].mape:.4f} (slack {slack:.4f})"
        )
    last, prev = row[-1].mape, row[-2].mape
    assert abs(last - prev) <= 0.20 * max(last, prev)

    # (b, c) the second-order curve catches up by m=4096 and lands under 0.15.
    r1_final = by[(1, 4096)].mape
    r2_final = by[(2, 4096)].mape
    assert r2_final <= r1_final
    assert r2_final < 0.15
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"criterion 7: PASS (r1 curve {row[0].mape:.4f}->{r1_final:.4f}, "
        f"r2@4096 {r2_final:.4f} < 0.15, {elapsed:.1f}s)"
    )


def test_criterion_08_storage_sizes_and_round_trips(tmp_path):
    t0 = time.perf_counter()
    for r in (1, 2, 3):
        for lt in range(2, 18):
            spec = build_condensation(r, lt, 8)
            assert spec.bit_width == math.ceil(math.log2(lt**r + 1)) + 1

    k, m = 10**4, 37
    rng = np.random.default_rng(np.random.SeedSequence([88, 1]))
    signs = np.where(rng.random((k, m)) < 0.5, -1, 1).astype(np.int8)
    codes = Codes.from_signs(signs)
    code_path = tmp_path / "codes.csqc"
    store.write_codes(code_path, codes)
    assert code_path.stat().st_size == 24 + k * math.ceil(m / 8)
    back = store.read_codes(code_path)
    assert len(back) == k
    for got, want in zip(back, codes):
        assert got.length == m and np.array_equal(got.bits, want.bits)

    spec = build_condensation(2, 9, 16)
    peak = 9**2
    entries = rng.integers(-peak, peak + 1, size=(k, 16))
    condensed = Sketches.of(spec, entries)
    cond_path = tmp_path / "sketch.csqd"
    store.write_condensed(cond_path, condensed)
    record = math.ceil(16 * spec.bit_width / 8)
    assert cond_path.stat().st_size == 36 + k * record
    back = store.read_condensed(cond_path)
    for got, want in zip(back, condensed):
        assert np.array_equal(got.entries, want.entries)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 8: PASS (file sizes exact, {k} codes round trip bit-exact, "
        f"{elapsed:.2f}s)"
    )


def test_criterion_09_baseline_sanity():
    t0 = time.perf_counter()
    n, m = 512, 4096
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        y -= (x @ y) / (x @ x) * x
        qx = sign_msq_baseline_embed(seed * 7 + 1, m, x)
        qy = sign_msq_baseline_embed(seed * 7 + 1, m, y)
        worst = max(worst, abs(hamming_angular_distance(qx, qy) - 0.5))
    assert worst <= 0.05

    rng = np.random.default_rng(12)
    x = rng.standard_normal(n)
    qx = sign_msq_baseline_embed(99, m, x)
    qneg = sign_msq_baseline_embed(99, m, -x)
    assert hamming_angular_distance(qx, qx) == 0.0
    assert hamming_angular_distance(qx, qneg) == 1.0
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 9: PASS (orthogonal pairs within {worst:.4f} of 0.5, "
        f"identical 0, antipodal 1, {elapsed:.2f}s)"
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(404)
    mat = rng.standard_normal((8, 64))
    mat *= 0.05 / np.linalg.norm(mat, axis=1, keepdims=True)
    inp = tmp_path / "points.csqv"
    store.write_vectors(inp, dataset_from_matrix(mat))

    def embed(tag):
        argv = [
            "embed", "--input", str(inp), "--p", "8", "--lambda-tilde", "4",
            "--r", "2", "--seed", "5",
            "--out-model", str(tmp_path / f"model{tag}.csqm"),
            "--out-codes", str(tmp_path / f"codes{tag}.csqc"),
            "--out-condensed", str(tmp_path / f"cond{tag}.csqd"),
        ]
        assert cli_main(argv) == 0

    embed("_a")
    embed("_b")
    for stem, ext in (("model", "csqm"), ("codes", "csqc"), ("cond", "csqd")):
        a = (tmp_path / f"{stem}_a.{ext}").read_bytes()
        b = (tmp_path / f"{stem}_b.{ext}").read_bytes()
        assert a == b, f"embed artifact {stem} differs between runs"

    for tag in ("_a", "_b"):
        rc = cli_main([
            "query", "--model", str(tmp_path / "model_a.csqm"),
            "--condensed", str(tmp_path / "cond_a.csqd"),
            "--all-pairs", "--out", str(tmp_path / f"pairs{tag}.csv"),
        ])
        assert rc == 0
    assert (tmp_path / "pairs_a.csv").read_bytes() == (tmp_path / "pairs_b.csv").read_bytes()

    for tag in ("_a", "_b"):
        rc = cli_main([
            "bench", "stability", "--r-list", "1,2", "--amplitude", "0.3",
            "--m-list", "128,256", "--trials", "10", "--seed", "7",
            "--out", str(tmp_path / f"stab{tag}.csv"),
        ])
        assert rc == 0
    assert (tmp_path / "stab_a.csv").read_bytes() == (tmp_path / "stab_b.csv").read_bytes()

    for tag in ("_a", "_b"):
        rc = cli_main([
            "bench", "mape", "--n", "32", "--k", "8", "--p", "4",
            "--m-list", "16,32", "--r-list", "1", "--trials", "2",
            "--seed", "3", "--out", str(tmp_path / f"curve{tag}.csv"),
        ])
        assert rc == 0
    rows_a = store.read_curve(tmp_path / "curve_a.csv")
    rows_b = store.read_curve(tmp_path / "curve_b.csv")
    assert len(rows_a) == len(rows_b)
    for a, b in zip(rows_a, rows_b):
        # wall_ms (the last field) is a timing measurement, not derived
        # from the seed; every seed-derived field must match exactly.
        assert a[:4] == b[:4]
    capsys.readouterr()
    print("criterion 10: PASS (repeated CLI runs produce identical artifacts)")
