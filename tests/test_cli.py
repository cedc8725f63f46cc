"""End-to-end tests for the csq command line, driven in-process via main()."""

import functools
import os
import struct
import time
import types

import numpy as np
import pytest

from csq import bench, cli, pipeline, store
from csq.cli import main
from csq.condense import Sketches, build_condensation, pairwise_l1_blocks


def _make_dataset(tmp_path, k=6, n=64, seed=77, name="points.csqv"):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((k, n))
    mat *= 0.08 / np.linalg.norm(mat, axis=1, keepdims=True)
    data = pipeline.dataset_from_matrix(mat)
    path = tmp_path / name
    store.write_vectors(path, data)
    return path, data


def _embed_argv(inp, out_dir, tag=""):
    return [
        "embed",
        "--input", str(inp),
        "--p", "4",
        "--lambda-tilde", "4",
        "--r", "1",
        "--seed", "9",
        "--out-model", str(out_dir / f"model{tag}.csqm"),
        "--out-codes", str(out_dir / f"codes{tag}.csqc"),
        "--out-condensed", str(out_dir / f"cond{tag}.csqd"),
    ]


def test_embed_writes_parseable_artifacts(tmp_path, capsys):
    inp, data = _make_dataset(tmp_path)
    assert main(_embed_argv(inp, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "embedded k=6" in out

    model = store.read_model(tmp_path / "model.csqm")
    assert model.n == 64 and model.p == 4 and model.r == 1
    assert model.m == model.condensation.lam * model.p

    codes = store.read_codes(tmp_path / "codes.csqc")
    condensed = store.read_condensed(tmp_path / "cond.csqd")
    assert len(codes) == data.k and len(condensed) == data.k

    # The stored artifacts must agree with a fresh in-memory embedding.
    res = pipeline.embed_dataset(model, data)
    for got, want in zip(codes, res.codes):
        assert np.array_equal(got.bits, want.bits)
    for got, want in zip(condensed, res.condensed):
        assert np.array_equal(got.entries, want.entries)


def test_embed_accepts_csv_input(tmp_path, capsys):
    rows = ["0.01,0.02,0.0,-0.01", "-0.02,0.0,0.01,0.005"]
    inp = tmp_path / "tiny.csv"
    inp.write_text("\n".join(rows) + "\n")
    rc = main([
        "embed", "--input", str(inp),
        "--p", "2", "--lambda-tilde", "3", "--r", "1",
        "--out-model", str(tmp_path / "m.csqm"),
        "--out-codes", str(tmp_path / "c.csqc"),
        "--out-condensed", str(tmp_path / "d.csqd"),
    ])
    assert rc == 0
    capsys.readouterr()
    assert store.read_model(tmp_path / "m.csqm").n == 4


def test_embed_repeats_are_byte_identical(tmp_path, capsys):
    inp, _ = _make_dataset(tmp_path)
    assert main(_embed_argv(inp, tmp_path, tag="_a")) == 0
    assert main(_embed_argv(inp, tmp_path, tag="_b")) == 0
    capsys.readouterr()
    for stem in ("model", "codes", "cond"):
        ext = {"model": "csqm", "codes": "csqc", "cond": "csqd"}[stem]
        a = (tmp_path / f"{stem}_a.{ext}").read_bytes()
        b = (tmp_path / f"{stem}_b.{ext}").read_bytes()
        assert a == b


def test_embed_missing_input_reports_format_error(tmp_path, capsys):
    rc = main(_embed_argv(tmp_path / "absent.csqv", tmp_path))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("format error:")


def test_embed_bad_parameter_reports_kind(tmp_path, capsys):
    inp, _ = _make_dataset(tmp_path)
    argv = _embed_argv(inp, tmp_path)
    argv[argv.index("--p") + 1] = "0"
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parameter error:")


def test_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    """One parser serves every call of main in a process; a call that ends
    in a usage error (SystemExit 2) leaves it fit for the next one."""
    assert cli._build_parser() is cli._build_parser()
    inp, _ = _make_dataset(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--input", str(inp), "--p", "four"])
    assert exc.value.code == 2
    assert main(_embed_argv(inp, tmp_path)) == 0
    assert "embedded k=6" in capsys.readouterr().out


def test_embed_of_non_finite_input_reports_input_error(tmp_path, capsys):
    inp = tmp_path / "points.csv"
    inp.write_text("0.01,0.02\n-0.02,nan\n")
    rc = main(_embed_argv(inp, tmp_path))
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_embed_to_an_unwritable_path_reports_file_error(tmp_path, capsys):
    inp, _ = _make_dataset(tmp_path)
    argv = _embed_argv(inp, tmp_path)
    argv[argv.index("--out-model") + 1] = str(tmp_path / "absent" / "a.csqm")
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith("file error:")


@pytest.fixture()
def embedded(tmp_path):
    inp, data = _make_dataset(tmp_path)
    assert main(_embed_argv(inp, tmp_path)) == 0
    model = store.read_model(tmp_path / "model.csqm")
    condensed = store.read_condensed(tmp_path / "cond.csqd")
    return tmp_path, model, condensed


def test_query_pair_prints_repr_estimate(embedded, capsys):
    tmp_path, model, condensed = embedded
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--pair", "0", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    want = pipeline.estimate_distance(model, condensed[0], condensed[1])
    assert out == repr(want) + "\n"


def test_query_to_an_unwritable_path_reports_file_error(embedded, capsys):
    tmp_path, _, _ = embedded
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--pair", "0", "1", "--out", str(tmp_path / "absent" / "p.csv"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("file error:")


def test_query_all_pairs_header_and_file_output(embedded, capsys):
    tmp_path, model, condensed = embedded
    capsys.readouterr()
    out_path = tmp_path / "pairs.csv"
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--all-pairs", "--out", str(out_path),
    ])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    lines = out_path.read_text().splitlines()
    k = len(condensed)
    assert lines[0] == "i,j,estimate"
    assert len(lines) == 1 + k * (k - 1) // 2
    i, j, est = lines[1].split(",")
    assert (int(i), int(j)) == (0, 1)
    assert float(est) == pipeline.estimate_distance(model, condensed[0], condensed[1])


def test_query_original_units_divides_by_multiplier(embedded, capsys):
    tmp_path, model, condensed = embedded
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--pair", "0", "2", "--original-units", "--multiplier", "2.5",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    want = pipeline.estimate_distance(model, condensed[0], condensed[2]) / 2.5
    assert float(out.strip()) == want


def test_query_pair_out_of_range(embedded, capsys):
    tmp_path, _, _ = embedded
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--pair", "0", "99",
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parameter error:")


def test_query_rejects_nonpositive_multiplier(embedded, capsys):
    tmp_path, _, _ = embedded
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--pair", "0", "1", "--original-units", "--multiplier", "0",
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parameter error:")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_query_rejects_nonfinite_multiplier(embedded, capsys, value):
    tmp_path, _, _ = embedded
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--pair", "0", "1", "--original-units", "--multiplier", value,
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("parameter error:")
    assert captured.out == ""


@pytest.mark.parametrize(
    "mode", [("--pair", "0", "1"), ("--all-pairs",)], ids=["pair", "all-pairs"]
)
def test_query_multiplier_without_original_units_is_refused(embedded, capsys, mode):
    """A multiplier that would be ignored is an error, not a silent no-op."""
    tmp_path, _, _ = embedded
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        *mode, "--multiplier", "2.5",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("parameter error:")
    assert "--original-units" in captured.err
    assert captured.out == ""


def test_query_original_units_alone_divides_by_one(embedded, capsys):
    tmp_path, model, condensed = embedded
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--pair", "0", "2", "--original-units",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert float(out.strip()) == pipeline.estimate_distance(model, condensed[0], condensed[2])


def test_bench_mape_writes_curve_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    rc = main([
        "bench", "mape", "--n", "32", "--k", "8",
        "--p", "4", "--m-list", "16,32", "--r-list", "1",
        "--trials", "2", "--seed", "3", "--out", str(out_path),
    ])
    assert rc == 0
    assert "r p m mape wall_ms" in capsys.readouterr().out

    cfg = bench.BenchConfig(
        n=32, k=8, p_list=[4], m_list=[16, 32], r_list=[1], trials=2, seed=3
    )
    want = bench.curve_rows(bench.run_mape_bench(cfg))
    want.sort(key=lambda row: (row[2], row[1], row[0]))  # file order is (r, p, m)
    got = store.read_curve(out_path)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:4] == w[:4]  # wall_ms is timing noise, skip it


def test_bench_mape_to_an_unwritable_path_reports_file_error(tmp_path, capsys):
    rc = main([
        "bench", "mape", "--n", "8", "--k", "3", "--p", "2", "--m-list", "4",
        "--r-list", "1", "--trials", "1", "--out", str(tmp_path / "absent" / "x.csv"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("file error:")


def test_bench_stability_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "stab.csv"
    rc = main([
        "bench", "stability", "--r-list", "1", "--amplitude", "0.3",
        "--m-list", "64,128", "--trials", "5", "--seed", "2",
        "--out", str(out_path),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    assert lines[0] == "r,m,max_u_inf"
    assert len(lines) == 3
    want = bench.run_stability_bench(
        r_list=[1], sigma=6, amplitude=0.3, m_list=[64, 128], trials=5, seed=2
    )
    for line, (r, m, peak) in zip(lines[1:], want):
        fields = line.split(",")
        assert (int(fields[0]), int(fields[1])) == (r, m)
        assert float(fields[2]) == peak


def test_bench_stability_empty_m_list(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    rc = main([
        "bench", "stability", "--r-list", "1,2", "--amplitude", "0.3",
        "--m-list", "", "--out", str(out_path),
    ])
    assert rc == 0
    capsys.readouterr()
    assert out_path.read_text() == "r,m,max_u_inf\n"


@pytest.mark.parametrize("command", ["embed", "mape", "stability"])
def test_negative_seed_is_a_parameter_error(tmp_path, capsys, command):
    inp, _ = _make_dataset(tmp_path)
    argv = {
        "embed": _embed_argv(inp, tmp_path),
        "mape": ["bench", "mape", "--n", "8", "--k", "3", "--p", "2",
                 "--m-list", "4", "--r-list", "1", "--trials", "1",
                 "--out", str(tmp_path / "curve.csv")],
        "stability": ["bench", "stability", "--r-list", "1", "--amplitude", "0.3",
                      "--m-list", "8", "--trials", "2",
                      "--out", str(tmp_path / "stab.csv")],
    }[command]
    # The last --seed wins, so this one replaces the embed's --seed 9.
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("parameter error: seeds must be")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["points.csqv"]


def _per_pair_csv(model, condensed, divisor):
    lines = ["i,j,estimate"]
    for i in range(len(condensed)):
        for j in range(i + 1, len(condensed)):
            est = pipeline.estimate_distance(model, condensed[i], condensed[j]) / divisor
            lines.append(f"{i},{j},{est!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("units", [(), ("--original-units", "--multiplier", "0.37")])
@pytest.mark.parametrize("block_pairs", [1, 5, 1 << 17])
def test_query_all_pairs_equals_per_pair_estimates(
    tmp_path, capsys, monkeypatch, units, block_pairs
):
    inp, _ = _make_dataset(tmp_path, k=11)
    assert main(_embed_argv(inp, tmp_path)) == 0
    model = store.read_model(tmp_path / "model.csqm")
    condensed = store.read_condensed(tmp_path / "cond.csqd")
    want = _per_pair_csv(model, condensed, 0.37 if units else 1.0)
    monkeypatch.setattr(
        cli, "pairwise_l1_blocks",
        functools.partial(pairwise_l1_blocks, block_pairs=block_pairs),
    )
    argv = [
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"), "--all-pairs", *units,
    ]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    out_path = tmp_path / "pairs.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    assert out_path.read_bytes() == want.encode()
    assert capsys.readouterr().out == f"wrote {1 + 11 * 10 // 2} line(s) to {out_path}\n"


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("r,lambda_tilde,p", [(1, 5, 4), (1, 4, 5), (2, 4, 4)])
@pytest.mark.parametrize("which", [("--all-pairs",), ("--pair", "0", "0")])
def test_query_rejects_sketches_of_another_condensation(
    embedded, capsys, k, r, lambda_tilde, p, which
):
    tmp_path, _, _ = embedded
    other = build_condensation(r, lambda_tilde, p)
    path = tmp_path / "foreign.csqd"
    store.write_condensed(path, Sketches.of(other, np.zeros((k, p), np.int64)))
    capsys.readouterr()
    rc = main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(path), *which,
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("incompatibility error:")


def test_query_with_corrupt_explicit_model_exits_2(embedded, capsys):
    tmp_path, model, _ = embedded
    bad = tmp_path / "bad.csqm"
    store.write_model(bad, model, explicit=True)
    raw = bytearray(bad.read_bytes())
    # The first column index follows the 94-byte header, nnz and m + 1
    # row offsets.
    off = 94 + 8 + 8 * (model.m + 1)
    raw[off : off + 8] = (10**6).to_bytes(8, "little")
    bad.write_bytes(bytes(raw))
    capsys.readouterr()
    rc = main([
        "query", "--model", str(bad),
        "--condensed", str(tmp_path / "cond.csqd"), "--pair", "0", "1",
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("format error:")



@pytest.mark.parametrize("r, lambda_tilde", [(100_000, 1), (2**32 - 1, 2**32 - 1)])
def test_query_with_hostile_model_order_exits_2_quickly(embedded, capsys, r, lambda_tilde):
    tmp_path, _, _ = embedded
    bad = tmp_path / "hostile.csqm"
    bad.write_bytes(struct.pack(
        "<4sIBQQQQIIIdddQQB",
        b"CSQM", 1, 0, 4, 4, 4, 4, r, lambda_tilde, 6, 0.5, 1.0, 1.0, 1, 2, 0,
    ))
    capsys.readouterr()
    t0 = time.perf_counter()
    rc = main([
        "query", "--model", str(bad),
        "--condensed", str(tmp_path / "cond.csqd"), "--pair", "0", "1",
    ])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert capsys.readouterr().err.startswith("format error:")


def test_embed_with_huge_order_exits_2_quickly(tmp_path, capsys):
    inp, _ = _make_dataset(tmp_path)
    argv = _embed_argv(inp, tmp_path)
    argv[argv.index("--r") + 1] = "100000"
    t0 = time.perf_counter()
    rc = main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert capsys.readouterr().err.startswith("parameter error:")

def test_embed_with_huge_sigma_exits_2(tmp_path, capsys):
    """The quantizer's ring of sigma * (r - 1)**2 + 2 states is bounded
    before anything is allocated."""
    inp, _ = _make_dataset(tmp_path)
    argv = _embed_argv(inp, tmp_path)
    argv[argv.index("--r") + 1] = "2"
    rc = main(argv + ["--sigma", "4294967295"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("parameter error:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        # 2 EiB of operator row offsets.
        ["embed", "--p", "41175768021673106", "--lambda-tilde", "4", "--r", "2"],
        # A 4 EiB stability trial.
        ["bench", "stability", "--r-list", "1", "--amplitude", "0.3",
         "--m-list", "576460752303423488", "--trials", "1"],
        # 100 of them, more bytes than NumPy can describe.
        ["bench", "stability", "--r-list", "1", "--amplitude", "0.3",
         "--m-list", "576460752303423488"],
        # A 1 EiB synthetic dataset.
        ["bench", "mape", "--n", "72057594037927936", "--k", "2", "--p", "2",
         "--m-list", "4", "--r-list", "1", "--trials", "1"],
    ],
    ids=["embed", "stability", "stability-default-trials", "mape"],
)
def test_sizes_too_large_to_allocate_are_a_capacity_error(tmp_path, capsys, argv):
    """Sizes no host can allocate, whatever its overcommit setting, exit 2
    as a capacity error rather than 1 as an internal error."""
    if argv[0] == "embed":
        inp = tmp_path / "points.csv"
        inp.write_text("0.01,0.02,0,0.01,0.02,0,0.01,0.02\n" * 2)
        argv = argv + [
            "--input", str(inp), "--out-model", str(tmp_path / "m.csqm"),
            "--out-codes", str(tmp_path / "c.csqc"),
            "--out-condensed", str(tmp_path / "d.csqd"),
        ]
    else:
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("capacity error: Unable to allocate")


def test_embed_of_data_scaled_to_the_bound_prints_no_note(tmp_path, capsys):
    """Data scaled to exactly kappa_bound, as README recommends, is inside
    the suggested ball even where rounding puts its norm an ulp above."""
    m = 16  # p 4 times lambda 4, the model _embed_argv builds
    bound = pipeline.kappa_bound(0.95, np.log(2.0), m)
    raw = np.random.default_rng(3).standard_normal((6, 64))
    inp = tmp_path / "scaled.csqv"
    store.write_vectors(inp, pipeline.scale_dataset(raw, bound))
    assert store.read_vectors(inp).kappa > bound
    assert main(_embed_argv(inp, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "m=16" in out and "note:" not in out


# sha256 of the CSQM, CSQC and CSQD files `csq embed` writes for fixed
# inputs of dimension n (37 where the key does not say). The embed kernels
# must reproduce these bytes exactly: a kernel change that moves one
# rounding shows up here. At n = 1000 (n_pad 1024) the transform runs its
# stages wider than the 128-row chunk.
EMBED_DIGESTS = {
    ("sparse", 1): (
        "5bbe8286cf3de532c6c1ba3f1102e9277ee971b93b010081e6cd4dd4122bacbf",
        "70ca0411888ed199bc0fec313d309b722e99f42209b6532e0e543ca4102a4f72",
        "2cdb9cad0488e17016c7fdd42cfc41825a77c53f2485b55d5ef7b96e19875e4e",
    ),
    ("sparse", 3): (
        "78e5c020912979270f5810fd559e96787656fb324e384fc931d5116b7bfc1b91",
        "54eb5016da322b659a758fda67444b2c893eba348842aebc9e0eefce5ccd920c",
        "90414a8915631acf4c6b2856a30d5f4814a4e5346651c2bf3f651f309eb5a670",
    ),
    ("fjlt", 2): (
        "2b8a926ca6e3fbbbcddbcdf5ec67034c1d5efa723d3d01f64e2893f08e67f8f2",
        "7e9894fc0c5b85724a7a4c2c4792d21a0589ef5e5a6a09d9c86ba21aec49ea41",
        "3bf6c74e75a0497d3bcde44da51cff7fc8930ac9fd33b8e477e79a6a09ac1aa6",
    ),
    ("fjlt", 3): (
        "42957f6bc0329367f47d37af1dcfe858a8d1b8ac4ccc5daf4add8b8e2aa8a75c",
        "afcf2e21c7f88252be66972365ee89fb2ad7c0a596bcc7a746ec3641001d57c7",
        "470315e319df89236981add3150cfe86b25ab2894e614b9e588e3613d15ad897",
    ),
    ("fjlt", 2, 1000): (
        "09d5925d060ed8591d209808cff9446814f68ea10fb5b7fb160bcc5e712afa8f",
        "ec35f649143bf70778c0151b7196e2a2b0e9f204372da6388c02180ceacb962a",
        "c6ca3cb2cfeedead0918e8b2f3027aa79d28191df8f2ce90c713de72b1567f04",
    ),
    ("sparse", 3, 1000): (
        "269d23ce5b3c0aa4d912d3995b64bca42b03befa0f353d721f11e8aac2128492",
        "04deae86fc25e705900e52391e4773047400b1132193930a9088ff5208727eab",
        "519707af63ce1818392e998a3109bafdba455142e15643fd788d183ee49c5bb8",
    ),
}


def _pin_id(key):
    """The test id: method-r, with -n<n> where the key names n."""
    method, r, *n = key
    return f"{method}-{r}" + "".join(f"-n{v}" for v in n)


PINNED = [pytest.param(key, id=_pin_id(key)) for key in sorted(EMBED_DIGESTS)]


def _pinned_embed_digests(tmp_path, method, r, n=37, run=main):
    """The sha256 of the three files of the pinned embed, run by ``run``
    (``main``, or another callable of the argv that returns the exit
    status) in ``tmp_path``."""
    import hashlib

    rng = np.random.default_rng([2026, r])
    mat = rng.standard_normal((9, n))
    mat[4] = 0.0
    mat *= 0.1 / np.linalg.norm(mat, axis=1).max()
    inp = tmp_path / "points.csqv"
    store.write_vectors(inp, pipeline.dataset_from_matrix(mat))
    argv = _embed_argv(inp, tmp_path)
    argv[argv.index("--r") + 1] = str(r)
    assert run(argv + ["--method", method]) == 0
    return tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("model.csqm", "codes.csqc", "cond.csqd")
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key", PINNED)
def test_embed_output_bytes_are_pinned(tmp_path, capsys, key):
    assert _pinned_embed_digests(tmp_path, *key) == EMBED_DIGESTS[key]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key", [("fjlt", 2, 1000), ("sparse", 3)], ids=_pin_id)
def test_back_to_back_embeds_draw_the_operator_once(tmp_path, capsys, monkeypatch, key):
    """Two ``csq embed`` jobs of one model in a process draw its operator
    once, and both write the pinned bytes, as a job in a new process does."""
    import os
    import subprocess
    import sys

    builds = []
    real = pipeline.build_sparse_gaussian
    monkeypatch.setattr(
        pipeline, "build_sparse_gaussian", lambda *a: builds.append(a) or real(*a)
    )
    for _ in range(2):
        assert _pinned_embed_digests(tmp_path, *key) == EMBED_DIGESTS[key]
    assert len(builds) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def fresh_process(argv):
        cmd = [sys.executable, "-m", "csq.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, timeout=120).returncode

    (tmp_path / "cold").mkdir()
    cold = _pinned_embed_digests(tmp_path / "cold", *key, run=fresh_process)
    assert cold == EMBED_DIGESTS[key]


BLOCKS = [1, 15, 17, 513]


def _blocks_of(monkeypatch, block, workers):
    """Embed ``block`` rows at a time on up to ``workers`` threads."""
    from csq import _native

    monkeypatch.setattr(pipeline, "_BLOCK", block)
    monkeypatch.setattr(_native, "_worker_count", lambda: workers)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("key", PINNED)
def test_embed_output_bytes_hold_at_any_block_size(
    tmp_path, capsys, monkeypatch, key, block, workers
):
    _blocks_of(monkeypatch, block, workers)
    assert _pinned_embed_digests(tmp_path, *key) == EMBED_DIGESTS[key]


def _expected_files(model, xs):
    """The CSQC and CSQD bytes of the embedding of xs, from the per-point
    oracles and the documented layouts: header, then one record a point."""
    from oracles import (
        bits_oracle, condense_oracle, project_oracle, quantize_oracle,
        reference_record,
    )

    spec = model.condensation
    codes, _, _ = quantize_oracle(model.quantizer, project_oracle(model, xs))
    entries = condense_oracle(spec, codes)
    k = xs.shape[0]
    return (
        struct.pack("<4sIQQ", b"CSQC", 1, k, model.m)
        + b"".join(bits.tobytes() for bits in bits_oracle(codes)),
        struct.pack("<4sIQQId", b"CSQD", 1, k, spec.p, spec.bit_width, spec.norm_factor)
        + b"".join(reference_record(row, spec.bit_width) for row in entries),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("rows", ["none", "one", "two blocks and five"])
@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_embed_files_match_oracles_at_any_block_size(
    tmp_path, capsys, monkeypatch, method, rows, block, workers
):
    """Blocks of 1, 15, 17 and 513 rows on 1 to 3 threads, over 0, 1 and
    2 * block + 5 points, zero rows included; the files are compared with
    bytes made without the library's embed path or writers."""
    k = {"none": 0, "one": 1, "two blocks and five": 2 * block + 5}[rows]
    xs = np.random.default_rng([k, block]).standard_normal((k, 37))
    xs[1::7] = 0.0
    xs *= 0.1 / max(1.0, float(np.linalg.norm(xs, axis=1).max(initial=0.0)))
    inp = tmp_path / "points.csqv"
    store.write_vectors(inp, pipeline.dataset_from_matrix(xs))
    _blocks_of(monkeypatch, block, workers)
    argv = _embed_argv(inp, tmp_path)
    argv[argv.index("--r") + 1] = "2"
    assert main(argv + ["--method", method]) == 0
    model = pipeline.build_model(method, 37, 4, 4, 2, seed=9)
    codes, cond = _expected_files(model, xs)
    assert (tmp_path / "codes.csqc").read_bytes() == codes
    assert (tmp_path / "cond.csqd").read_bytes() == cond
    assert store.read_model(tmp_path / "model.csqm") == model
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "codes.csqc", "cond.csqd", "model.csqm", "points.csqv",
    ]


def test_embed_files_with_more_workers_than_cpus_and_rapid_switching(
    tmp_path, capsys, monkeypatch
):
    """Six threads on short switch intervals read, embed and write
    disjoint blocks of one file; a lost or misplaced block would change
    the bytes."""
    import sys

    inp, _ = _make_dataset(tmp_path, k=200, n=37)
    _blocks_of(monkeypatch, 7, 1)
    assert main(_embed_argv(inp, tmp_path, tag="_1")) == 0
    _blocks_of(monkeypatch, 7, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert main(_embed_argv(inp, tmp_path, tag="_6")) == 0
            for name in ("codes", "cond"):
                six, one = tmp_path.glob(f"{name}_6.*"), tmp_path.glob(f"{name}_1.*")
                assert next(six).read_bytes() == next(one).read_bytes()
    finally:
        sys.setswitchinterval(interval)


def _write_csqv(path, rows):
    """The CSQV file of ``rows``, written without the library's checks."""
    header = struct.pack("<4sIQQ", b"CSQV", 1, *rows.shape)
    path.write_bytes(header + rows.astype("<f8").tobytes())


def _loud_models(monkeypatch):
    """Make ``csq embed`` build models whose matrix entries are 1e300 times
    the drawn ones: rows of 1e10 overflow their projections, rows of 0.01
    do not, and the norms of both are finite."""
    import dataclasses

    from csq.transforms import Projection, SparseGaussianMatrix

    build = pipeline.build_model

    def loud(*args, **kwargs):
        model = build(*args, **kwargs)
        op = model.operator
        big = SparseGaussianMatrix(
            op.matrix.rows, op.matrix.cols, op.matrix.row_offsets,
            op.matrix.col_indices, op.matrix.values * 1e300,
        )
        return dataclasses.replace(model, explicit=Projection(op.n, big, op.signs))

    monkeypatch.setattr(pipeline, "build_model", loud)


NAN_ERROR = "input error: dataset entries must be finite\n"
OVERFLOW_ERROR = f"input error: {pipeline._OVERFLOW}\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("fault", ["nan in the last row", "overflow in a middle block"])
@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_failed_embed_publishes_nothing(
    tmp_path, capsys, monkeypatch, method, fault, workers
):
    """A job that fails in one of its blocks exits 2 with the message of
    that failure, leaves the outputs of the job before it as they were and
    leaves no temporary file behind."""
    inp, _ = _make_dataset(tmp_path, k=13, n=37)
    argv = _embed_argv(inp, tmp_path) + ["--method", method]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _blocks_of(monkeypatch, 4, workers)
    xs = np.full((13, 37), 0.01)
    if fault == "nan in the last row":
        xs[-1, 5] = np.nan
        want = NAN_ERROR
    else:
        xs[5] = 1e10
        _loud_models(monkeypatch)
        want = OVERFLOW_ERROR
    _write_csqv(inp, xs)
    before[inp.name] = inp.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == want
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("low, high", [("nan", "overflow"), ("overflow", "nan")])
def test_the_lowest_failing_block_is_reported(
    tmp_path, capsys, monkeypatch, low, high, workers
):
    """Blocks 1 and 3 of 5 fail, in different ways; block 1 is embedded
    last, after block 3 has failed on another thread, and its error is the
    one reported."""
    _blocks_of(monkeypatch, 4, workers)
    _loud_models(monkeypatch)
    xs = np.full((20, 37), 0.01)
    for block, fault in ((1, low), (3, high)):
        if fault == "nan":
            xs[4 * block + 2, 3] = np.nan
        else:
            xs[4 * block + 1] = 1e10
    inp = tmp_path / "points.csqv"
    _write_csqv(inp, xs)
    embed_block = pipeline._embed_block

    def late(kern, model, source, lo, *args):
        if lo == 4:  # block 1
            time.sleep(0.3)
        return embed_block(kern, model, source, lo, *args)

    monkeypatch.setattr(pipeline, "_embed_block", late)
    capsys.readouterr()
    assert main(_embed_argv(inp, tmp_path)) == 2
    assert capsys.readouterr().err == {"nan": NAN_ERROR, "overflow": OVERFLOW_ERROR}[low]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["points.csqv"]


def test_a_short_csqv_is_refused_before_any_block(tmp_path, capsys, monkeypatch):
    """Neither a read of rows (``os.preadv``) nor an embed kernel call
    (which reads a file's rows itself) happens; the whole file makes one
    or the other."""
    import os

    from csq import _native

    inp, _ = _make_dataset(tmp_path)
    whole = inp.read_bytes()
    inp.write_bytes(whole[:-1])
    reads = []
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda *a: reads.append(a) or preadv(*a))
    embed_block = _native.Kernels.embed_block
    monkeypatch.setattr(
        _native.Kernels, "embed_block", lambda *a, **kw: reads.append(a) or embed_block(*a, **kw)
    )
    assert main(_embed_argv(inp, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("corruption error:")
    assert reads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["points.csqv"]
    inp.write_bytes(whole)
    assert main(_embed_argv(inp, tmp_path)) == 0
    assert reads


def _kernel_set(monkeypatch, kernels):
    """Run on the compiled (``"native"``) or the numpy kernels."""
    from csq import _native

    if kernels == "numpy":
        monkeypatch.setattr(_native, "load", lambda: None)
    elif _native.load() is None:
        pytest.skip("compiled kernels unavailable: " + _native.failure())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "kernels, workers", [("native", 1), ("native", 2), ("numpy", 1)],
    ids=["native-1", "native-2", "numpy"],
)
def test_an_input_cut_short_during_the_job_is_refused(
    tmp_path, capsys, monkeypatch, kernels, workers
):
    """The CSQV file loses its last rows, the last one in part, after its
    size was checked: the job exits 2 with a corruption error, leaves the
    outputs of the job before it as they were and leaves no temporary
    file behind."""
    import os

    inp, _ = _make_dataset(tmp_path, k=20, n=37)
    argv = _embed_argv(inp, tmp_path)
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _kernel_set(monkeypatch, kernels)
    _blocks_of(monkeypatch, 4, workers)
    embed_blocks = pipeline._embed_blocks

    def shrinking(model, source, write):
        os.truncate(inp, inp.stat().st_size - 37 * 8 * 2 - 5)
        return embed_blocks(model, source, write)

    monkeypatch.setattr(pipeline, "_embed_blocks", shrinking)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"corruption error: {inp}: truncated file\n"
    before[inp.name] = inp.read_bytes()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_the_native_file_path_buffers_no_block(tmp_path, capsys, monkeypatch):
    """The compiled kernel reads a CSQV file's rows itself: ``csq embed``
    never calls ``VectorFile.read``, and the tracemalloc peak of its block
    loop over 2048 rows of 1000 stays under 1 MiB (a 512-row block buffer
    alone is 4 MB). Two threads, and three slots of records, as many as
    the peak holds."""
    import tracemalloc

    _kernel_set(monkeypatch, "native")
    _blocks_of(monkeypatch, pipeline._BLOCK, 2)
    monkeypatch.setattr(
        store.VectorFile, "read", lambda *a: pytest.fail("block of rows read")
    )
    inp = tmp_path / "points.csqv"
    rows = np.random.default_rng(5).standard_normal((2048, 1000)) * (0.01 / np.sqrt(1000))
    _write_csqv(inp, rows)
    del rows
    embed_blocks, peaks = pipeline._embed_blocks, []

    def traced(model, source, write):
        tracemalloc.start()
        try:
            return embed_blocks(model, source, write)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(pipeline, "_embed_blocks", traced)
    argv = _embed_argv(inp, tmp_path) + ["--method", "fjlt"]
    for flag, value in (("--p", "64"), ("--lambda-tilde", "16"), ("--r", "2")):
        argv[argv.index(flag) + 1] = value
    assert main(argv) == 0
    (peak,) = peaks
    assert peak < 2**20


def test_embed_to_dev_null(tmp_path, capsys, monkeypatch):
    """An existing output that is not a regular file but can seek is
    written in place: nothing is staged in the temporary directory."""
    import os
    import stat
    import tempfile

    def refuse(*args, **kwargs):
        raise AssertionError("staged in the temporary directory")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    inp, _ = _make_dataset(tmp_path)
    argv = _embed_argv(inp, tmp_path)
    argv[argv.index("--out-codes") + 1] = os.devnull
    assert main(argv) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cond.csqd", "model.csqm", "points.csqv",
    ]


OUTPUT_FLAGS = ("--out-model", "--out-codes", "--out-condensed")


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize(
    "first, second", [(0, 1), (0, 2), (1, 2)],
    ids=["model-codes", "model-cond", "codes-cond"],
)
def test_two_outputs_naming_one_file_are_refused(
    tmp_path, capsys, monkeypatch, first, second, existing
):
    """Refused as a parameter error before the operator is built, and
    nothing is written: otherwise the output published last would replace
    the other."""
    inp, _ = _make_dataset(tmp_path)
    shared = tmp_path / "shared"
    if existing:
        shared.write_bytes(b"old")
    monkeypatch.setattr(
        pipeline, "build_sparse_gaussian", lambda *a: pytest.fail("operator built")
    )
    argv = _embed_argv(inp, tmp_path)
    for index in (first, second):
        argv[argv.index(OUTPUT_FLAGS[index]) + 1] = str(shared)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"parameter error: {OUTPUT_FLAGS[first]} and {OUTPUT_FLAGS[second]} "
        "name the same file\n"
    )
    want = ["points.csqv"] + (["shared"] if existing else [])
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    if existing:
        assert shared.read_bytes() == b"old"


@pytest.mark.parametrize("link", ["symlink", "hardlink", "dotted"])
def test_outputs_naming_one_file_through_links_are_refused(tmp_path, capsys, link):
    import os

    inp, _ = _make_dataset(tmp_path)
    argv = _embed_argv(inp, tmp_path)
    codes = tmp_path / "codes.csqc"
    other = tmp_path / "other.csqd"
    if link == "symlink":
        other.symlink_to(codes)  # dangling until codes exists
    elif link == "hardlink":
        codes.write_bytes(b"old")
        os.link(codes, other)
    else:
        other = tmp_path / "sub" / ".." / "codes.csqc"
        (tmp_path / "sub").mkdir()
    argv[argv.index("--out-condensed") + 1] = str(other)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "parameter error: --out-codes and --out-condensed name the same file\n"
    )


def test_dev_null_may_take_several_outputs(tmp_path, capsys):
    import os

    inp, _ = _make_dataset(tmp_path)
    argv = _embed_argv(inp, tmp_path)
    for flag in ("--out-codes", "--out-condensed"):
        argv[argv.index(flag) + 1] = os.devnull
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.csqm", "points.csqv"]


def test_embed_reports_the_stage_times(tmp_path, capsys):
    inp, _ = _make_dataset(tmp_path)
    assert main(_embed_argv(inp, tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [x for x in lines if x.startswith("wall ms:")]
    stages = line.split("; stages summed over workers: ")[1].split(", ")
    assert pipeline.STAGES == ("read", "precondition", "project", "quantize", "write")
    assert [stage.split()[0] for stage in stages] == list(pipeline.STAGES)
    assert all(float(stage.split()[1]) >= 0.0 for stage in stages)


def test_embed_into_a_fifo_writes_it_in_place(tmp_path, capsys):
    import os
    import stat
    import threading

    inp, _ = _make_dataset(tmp_path)
    assert main(_embed_argv(inp, tmp_path)) == 0
    want = (tmp_path / "codes.csqc").read_bytes()
    fifo = tmp_path / "codes.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    argv = _embed_argv(inp, tmp_path, tag="_2")
    argv[argv.index("--out-codes") + 1] = str(fifo)
    assert main(argv) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [want]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_new_outputs_get_the_umask_mode_without_a_umask_change(tmp_path, capsys, monkeypatch):
    """Other threads of the process may be creating files meanwhile, so
    the job must not set the process umask, even for a moment."""
    import os

    umask = os.umask(0o027)
    try:
        def refuse(mask):
            raise AssertionError("the umask was changed")

        monkeypatch.setattr(os, "umask", refuse)
        inp, _ = _make_dataset(tmp_path)
        assert main(_embed_argv(inp, tmp_path)) == 0
    finally:
        monkeypatch.undo()
        os.umask(umask)
    for name in ("model.csqm", "codes.csqc", "cond.csqd"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640


def test_embed_through_a_symlink_keeps_the_link(tmp_path, capsys):
    """The file behind the link is replaced, with the mode it had, and the
    link stays a link to it."""
    import os

    inp, _ = _make_dataset(tmp_path)
    assert main(_embed_argv(inp, tmp_path)) == 0
    want = (tmp_path / "codes.csqc").read_bytes()
    real = tmp_path / "real"
    real.mkdir()
    target = real / "codes.csqc"
    target.write_bytes(b"old")
    target.chmod(0o640)
    link = tmp_path / "link.csqc"
    link.symlink_to(target)
    argv = _embed_argv(inp, tmp_path, tag="_2")
    argv[argv.index("--out-codes") + 1] = str(link)
    assert main(argv) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == want
    assert target.stat().st_mode & 0o777 == 0o640
    assert [p.name for p in real.iterdir()] == ["codes.csqc"]


def _embed_peak(tmp_path, k, n=256):
    """The tracemalloc peak of ``csq embed`` of a CSQV of k rows."""
    import tracemalloc

    inp = tmp_path / f"points{k}.csqv"
    rows = np.random.default_rng(k).standard_normal((k, n)) * (0.01 / np.sqrt(n))
    _write_csqv(inp, rows)
    del rows
    argv = _embed_argv(inp, tmp_path) + ["--method", "fjlt"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embed_memory_does_not_grow_with_the_input(tmp_path, capsys, monkeypatch):
    """From k = 2,000 to 16,000 rows of 256 the input grows by 28 MB; the
    peak may grow by the one byte a point of each of the two per-point
    flags of the diagnostics, plus 1 MiB. One thread: with more, the peak
    also depends on whether their block temporaries coincide."""
    _blocks_of(monkeypatch, pipeline._BLOCK, 1)
    _embed_peak(tmp_path, 2000)  # builds the kernels and warms the caches
    small, large = _embed_peak(tmp_path, 2000), _embed_peak(tmp_path, 16000)
    assert large - small <= 2 * (16000 - 2000) + 2**20


# sha256 of the CSQM files `store.write_model(..., explicit=True)` writes
# for fixed models: the header plus the stored matrix (and, for fjlt, the
# diagonal signs).
EXPLICIT_MODEL_DIGESTS = {
    "sparse": "8126c98866946b6a687be1168062c34034b513e529505a39cd3142ff1e00c45f",
    "fjlt": "ce813e1c718002525957b63a3fa20a03a4524cbac73ab7b189d0af76c65800d6",
}


@pytest.mark.parametrize("method", sorted(EXPLICIT_MODEL_DIGESTS))
def test_explicit_model_bytes_are_pinned(tmp_path, method):
    import hashlib

    model = pipeline.build_model(method, n=37, p=8, lambda_tilde=4, r=2, seed=2026)
    path = tmp_path / "model.csqm"
    store.write_model(path, model, explicit=True)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == EXPLICIT_MODEL_DIGESTS[method]
    assert store.read_model(path).operator.matrix.nnz == model.operator.matrix.nnz


# sha256 of the CSV `csq query --all-pairs` writes for the sketches of
# fixed inputs (int16 entries), in scaled and in original units. Both
# kernel sets, and stdout as well as --out, must give these bytes.
ALL_PAIRS_DIGESTS = {
    (): "311aa1286fd5d244f485d55294ae65e38ef6f73186df440e56201bcb952bd59d",
    ("--original-units", "--multiplier", "0.37"): (
        "2b97df51d644c25fc7581b5503edcbf217f60203bf0e114f149015ab7bd97b3e"
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("to_stdout", [False, True])
@pytest.mark.parametrize("units", sorted(ALL_PAIRS_DIGESTS))
def test_all_pairs_csv_bytes_are_pinned(tmp_path, capsys, units, to_stdout):
    import hashlib

    inp, _ = _make_dataset(tmp_path, k=70, seed=2026)
    argv = _embed_argv(inp, tmp_path)
    for flag, value in (("--lambda-tilde", "16"), ("--r", "2"), ("--p", "8")):
        argv[argv.index(flag) + 1] = value
    assert main(argv) == 0
    assert store.read_condensed(tmp_path / "cond.csqd").entries.dtype == np.int16
    out_path = tmp_path / "pairs.csv"
    query = [
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"), "--all-pairs", *units,
    ]
    capsys.readouterr()
    assert main(query if to_stdout else query + ["--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    got = out.encode() if to_stdout else out_path.read_bytes()
    assert hashlib.sha256(got).hexdigest() == ALL_PAIRS_DIGESTS[units]


def test_all_pairs_into_a_closed_pipe_exits_141_quietly(tmp_path):
    """``csq query --all-pairs | head -2``: the reader leaves after two lines
    of an output many blocks long, and csq ends as a filter killed by
    SIGPIPE does, with status 141 and nothing on stderr."""
    import os
    import subprocess
    import sys

    model = pipeline.build_model("sparse", n=8, p=8, lambda_tilde=4, r=2, seed=1)
    spec = model.condensation
    peak = spec.lambda_tilde**spec.r
    entries = np.random.default_rng(3).integers(-peak, peak + 1, size=(1000, spec.p))
    store.write_model(tmp_path / "m.csqm", model)
    store.write_condensed(tmp_path / "d.csqd", Sketches.of(spec, entries))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "csq.cli", "query", "--model", str(tmp_path / "m.csqm"),
         "--condensed", str(tmp_path / "d.csqd"), "--all-pairs"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert lines[0] == b"i,j,estimate\n" and lines[1].startswith(b"0,1,")


@pytest.mark.parametrize("divisor", [1.0, 0.37])
@pytest.mark.parametrize("bit_width", [5, 10, 40])
def test_all_pairs_lines_match_python_formatting(bit_width, divisor):
    """Sums spread over a range far wider than the block (bit width 40)
    find their distinct values by sorting instead of counting."""
    import io

    half = 1 << (bit_width - 1)
    rng = np.random.default_rng(bit_width)
    entries = rng.integers(-half, half, size=(23, 6))
    sketches = Sketches(6, bit_width, 0.0123, entries)
    out = io.BytesIO()
    cli._write_all_pairs(out, sketches, divisor)
    rows = entries.tolist()
    want = ["i,j,estimate"]
    for i in range(23):
        for j in range(i + 1, 23):
            l1 = sum(abs(a - b) for a, b in zip(rows[i], rows[j]))
            want.append(f"{i},{j},{l1 * 0.0123 / divisor!r}")
    assert out.getvalue().decode() == "\n".join(want) + "\n"


def test_wide_sketch_sums_are_exact_or_refused(tmp_path, capsys):
    """Entries of bit width 63 whose l1 sums pass 2**63: rows 0 and 1 are
    4 * (2**63 - 1) apart and rows 1 and 2 exactly 2**64. ``--pair``
    sums them exactly; ``--all-pairs`` refuses the set, whose column
    spreads add up to 2**63 or more, before it opens ``--out``, and leaves
    an existing file as it was, as the other refusals of a query do."""
    model = pipeline.build_model("sparse", 16, 4, 1200, 6)
    spec = model.condensation
    assert spec.bit_width == 63
    entries = np.array([[2**62 - 1] * 4, [-(2**62)] * 4, [0] * 4])
    store.write_model(tmp_path / "model.csqm", model)
    store.write_condensed(tmp_path / "cond.csqd", Sketches.of(spec, entries))
    argv = _query_argv(tmp_path)[:-1]
    capsys.readouterr()
    for (i, j), l1 in (((0, 1), 4 * (2**63 - 1)), ((1, 2), 2**64), ((0, 2), 4 * (2**62 - 1))):
        assert main([*argv, "--pair", str(i), str(j)]) == 0
        assert capsys.readouterr().out == f"{l1 * spec.norm_factor!r}\n"
    assert main([*argv, "--pair", "0", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(213.67, abs=0.01)
    assert main([*argv, "--all-pairs"]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("capacity error: ")
    target = tmp_path / "pairs.csv"
    target.write_bytes(b"old lines\n")
    assert main([*argv, "--all-pairs", "--out", str(target)]) == 2
    assert target.read_bytes() == b"old lines\n"
    # The cut-over: column spreads that add up to 2**63 - 1 and to 2**63.
    for last, code in ((0, 0), (1, 2)):
        entries = np.array([[2**62 - 1, 0, 0, 0], [-(2**62), 0, 0, last]])
        store.write_condensed(tmp_path / "cond.csqd", Sketches.of(spec, entries))
        assert main([*argv, "--all-pairs"]) == code
        want = f"i,j,estimate\n0,1,{(2**63 - 1) * spec.norm_factor!r}\n"
        assert capsys.readouterr().out == (want if code == 0 else "")


def test_all_pairs_to_a_text_stdout(embedded, capsys):
    """stdout replaced by a text stream with no binary buffer under it."""
    import contextlib
    import io

    tmp_path, _, _ = embedded
    query = [
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"), "--all-pairs",
    ]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(query) == 0
    assert main(query + ["--out", str(tmp_path / "pairs.csv")]) == 0
    assert text.getvalue() == (tmp_path / "pairs.csv").read_text()


@functools.cache
def _random_sketches(k, bit_width, p=6):
    half = 1 << (bit_width - 1)
    entries = np.random.default_rng([k, bit_width]).integers(-half, half, size=(k, p))
    return Sketches(p, bit_width, 0.0123, entries)


@functools.cache
def _oracle_csv(k, bit_width, divisor):
    sketches = _random_sketches(k, bit_width)
    model = types.SimpleNamespace(condensation=sketches)
    return _per_pair_csv(model, sketches, divisor).encode()


# The kernel sets of the route test: 1 is whichever kernels load, 2 the
# numpy kernels.
NUMPY_SET = 2


@pytest.mark.parametrize("bit_width", [5, 10, 14, 17])
@pytest.mark.parametrize("divisor", [1.0, 0.37])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 11, 70])
@pytest.mark.parametrize("kernel_set", [1, NUMPY_SET])
@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("chunk", [1, 5, 1 << 16])
def test_all_pairs_routes_give_the_same_bytes(
    monkeypatch, chunk, workers, kernel_set, k, divisor, bit_width
):
    """Int8, int16, int16 and int32 entries on both kernel sets, in chunks
    of 1, 5 and 2**16 pairs, on 1, 3 or 8 workers: with the compiled
    kernels, that many chunks and one more in flight."""
    import io

    from csq import _native

    monkeypatch.setattr(cli, "_CHUNK_PAIRS", chunk)
    monkeypatch.setattr(_native, "_worker_count", lambda: workers)
    sketches = _random_sketches(k, bit_width)
    assert _native.narrow(sketches.entries)[1] < cli._WINDOW
    if kernel_set == NUMPY_SET:
        monkeypatch.setattr(_native, "load", lambda: None)
    out = io.BytesIO()
    cli._write_all_pairs(out, sketches, divisor)
    assert out.getvalue() == _oracle_csv(k, bit_width, divisor)


def _spy(monkeypatch, name, owner=cli):
    """Calls of ``owner.<name>``, each recorded as its positional
    arguments."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _route_spies(monkeypatch):
    """The calls of the two routes of :func:`cli._all_pairs`: those of
    ``pairwise_l1_blocks`` and ``_block_lines`` (the block route) and
    those of ``Kernels.l1_marks`` (the compiled route)."""
    from csq import _native

    return (
        _spy(monkeypatch, "pairwise_l1_blocks"),
        _spy(monkeypatch, "_block_lines"),
        _spy(monkeypatch, "l1_marks", _native.Kernels),
    )


@pytest.mark.parametrize("bit_width", [10, 17, 40])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("window", [8, 1024])
def test_all_pairs_windows_give_the_same_bytes(monkeypatch, window, workers, bit_width):
    """The route is picked once a query, from ``B``, the bound on every
    sum: with a window of 8 or 1024 sums at or below ``B``, the whole query
    takes the block route, :func:`cli._block_lines` making the lines of
    every chunk, and never ``Kernels.l1_marks``; with a window just past
    ``B``, and the compiled kernels, it takes the compiled route with its
    table over ``[0, B]`` and never the block route. Both give the
    oracle's bytes."""
    import io

    from csq import _native
    from csq.condense import _pair_blocks

    monkeypatch.setattr(cli, "_CHUNK_PAIRS", 5)
    monkeypatch.setattr(_native, "_worker_count", lambda: workers)
    blocks, lines, marks = _route_spies(monkeypatch)
    for k in (2, 11, 70):
        sketches = _random_sketches(k, bit_width)
        bound = _native.narrow(sketches.entries)[1]
        assert bound >= window
        # A table over [0, B] of bit width 40's sums would not fit in memory.
        for cutoff in (window, bound + 1) if bit_width < 40 else (window,):
            monkeypatch.setattr(cli, "_WINDOW", cutoff)
            for calls in (blocks, lines, marks):
                calls.clear()
            out = io.BytesIO()
            cli._write_all_pairs(out, sketches, 0.37)
            assert out.getvalue() == _oracle_csv(k, bit_width, 0.37)
            compiled = cutoff > bound and _native.load() is not None
            chunks = [(start, stop) for start, stop, _ in _pair_blocks(k, 5)]
            assert sorted(call[1:3] for call in lines) == ([] if compiled else chunks)
            assert len(blocks) == (not compiled)
            assert sorted(call[2:4] for call in marks) == (chunks if compiled else [])


def test_all_pairs_bytes_hold_with_more_workers_than_cpus(monkeypatch):
    """Eight workers, chunks of 5 pairs and a short switch interval: the
    shared table, the chunks' bitmaps and the reused buffers still give
    the oracle's bytes."""
    import io
    import sys

    from csq import _native

    monkeypatch.setattr(cli, "_CHUNK_PAIRS", 5)
    monkeypatch.setattr(_native, "_worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            out = io.BytesIO()
            cli._write_all_pairs(out, _random_sketches(70, 10), 0.37)
            assert out.getvalue() == _oracle_csv(70, 10, 0.37)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("over", [False, True])
def test_all_pairs_cutover_keeps_the_bytes(monkeypatch, over):
    """Column spreads that sum to ``B`` = 2**24 - 1, one below
    :data:`cli._WINDOW`: with the compiled kernels the query takes the
    compiled route, its table over ``[0, B]`` holding every sum, and never
    calls ``pairwise_l1_blocks`` or ``_block_lines``. One more, ``B`` =
    2**24: the whole query takes the block route and never calls
    ``Kernels.l1_marks``, as every query does without the kernels. Both
    give the reference's bytes."""
    import io

    from csq import _native

    assert cli._WINDOW == 1 << 24
    bound = (1 << 24) - 1 + over
    entries = np.array(
        [[0, 0], [1 << 23, bound - (1 << 23)], [3, 7], [1 << 22, 1 << 22], [5, 2]]
    )
    sketches = Sketches(2, 25, 0.0123, entries - (1 << 24))
    assert _native.narrow(sketches.entries)[1] == bound
    blocks, lines, marks = _route_spies(monkeypatch)
    out = io.BytesIO()
    cli._write_all_pairs(out, sketches, 0.37)
    model = types.SimpleNamespace(condensation=sketches)
    assert out.getvalue() == _per_pair_csv(model, sketches, 0.37).encode()
    compiled = not over and _native.load() is not None
    assert bool(marks) == compiled
    assert bool(blocks) == bool(lines) == (not compiled)


def _query_argv(tmp_path, *rest):
    return [
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"), "--all-pairs", *rest,
    ]


@pytest.mark.parametrize("which", ["missing directory", "directory", "read-only"])
def test_all_pairs_out_errors_write_nothing(embedded, capsys, monkeypatch, which):
    """Errors of the --out open end the query with exit 2 and the open's
    message, nothing is written, and no thread is left behind."""
    import threading

    tmp_path, _, _ = embedded
    target = {
        "missing directory": tmp_path / "absent" / "pairs.csv",
        "directory": tmp_path,
        "read-only": tmp_path / "pairs.csv",
    }[which]
    if which == "read-only":
        target.write_bytes(b"kept\n")
        target.chmod(0o444)
        if os.geteuid() == 0:
            # The superuser may write any file; refuse it as the kernel
            # refuses everyone else.
            def refused(path, mode="r", *args, **kwargs):
                if str(path) == str(target) and "w" in mode:
                    raise PermissionError(13, "Permission denied", str(path))
                return open(path, mode, *args, **kwargs)

            monkeypatch.setattr(cli, "open", refused, raising=False)
    before = sorted(tmp_path.iterdir())
    threads = threading.active_count()
    capsys.readouterr()
    assert main(_query_argv(tmp_path, "--out", str(target))) == 2
    assert threading.active_count() == threads
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("file error: ") and str(target) in err
    assert sorted(tmp_path.iterdir()) == before
    if which == "read-only":
        assert target.read_bytes() == b"kept\n"


def test_all_pairs_to_dev_null(embedded, capsys):
    import threading

    tmp_path, _, condensed = embedded
    threads = threading.active_count()
    capsys.readouterr()
    assert main(_query_argv(tmp_path, "--out", "/dev/null")) == 0
    assert threading.active_count() == threads
    count = 1 + len(condensed) * (len(condensed) - 1) // 2
    assert capsys.readouterr().out == f"wrote {count} line(s) to /dev/null\n"


@pytest.mark.parametrize("before", ["longer", "shorter", "equal"])
def test_all_pairs_out_is_rewritten_in_place(embedded, capsys, before):
    """--out over a file of more, fewer or as many bytes as the CSV: the
    same file, holding the per-pair oracle's bytes and nothing of the old
    ones."""
    tmp_path, model, condensed = embedded
    want = _per_pair_csv(model, condensed, 1.0).encode()
    size = {"longer": 3 * len(want) + 5, "shorter": len(want) // 3, "equal": len(want)}
    target = tmp_path / "pairs.csv"
    target.write_bytes(b"x" * size[before])
    inode = target.stat().st_ino
    assert main(_query_argv(tmp_path, "--out", str(target))) == 0
    assert target.read_bytes() == want
    assert target.stat().st_ino == inode


def test_all_pairs_out_through_links_keeps_file_links_and_mode(embedded, capsys):
    """--out naming a symbolic link writes the link's target and leaves the
    link; a hard link to the file sees the new bytes; the file keeps its
    mode."""
    import stat

    tmp_path, model, condensed = embedded
    want = _per_pair_csv(model, condensed, 1.0).encode()
    target, link, hard = tmp_path / "pairs.csv", tmp_path / "link", tmp_path / "hard"
    target.write_bytes(b"0,1,old\n" * 1000)
    target.chmod(0o640)
    link.symlink_to(target)
    os.link(target, hard)
    assert main(_query_argv(tmp_path, "--out", str(link))) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == hard.read_bytes() == want
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_query_pair_out_over_a_large_file_leaves_one_line(embedded, capsys):
    tmp_path, model, condensed = embedded
    target = tmp_path / "pairs.csv"
    target.write_bytes(b"0,1,0.5\n" * (13 << 17))  # 13 MiB
    assert main([
        "query", "--model", str(tmp_path / "model.csqm"),
        "--condensed", str(tmp_path / "cond.csqd"),
        "--pair", "0", "1", "--out", str(target),
    ]) == 0
    want = pipeline.estimate_distance(model, condensed[0], condensed[1])
    assert target.read_bytes() == repr(want).encode() + b"\n"


@pytest.mark.parametrize("short", [False, True])
def test_all_pairs_out_on_a_full_disk_keeps_only_what_was_written(
    embedded, capsys, monkeypatch, short
):
    """The disk fills after the header and the first chunk, at once or
    after a short write of the second chunk (as a write that meets the end
    of the space returns): exit 2 with the error, and the file holds just
    the bytes written, a prefix of the CSV, with no tail of the longer
    file it replaced."""
    import errno
    import io

    tmp_path, model, condensed = embedded
    want = _per_pair_csv(model, condensed, 1.0).encode()
    monkeypatch.setattr(cli, "_CHUNK_PAIRS", 3)
    monkeypatch.setattr(
        cli, "pairwise_l1_blocks", functools.partial(pairwise_l1_blocks, block_pairs=3)
    )
    calls = []

    class Full(io.FileIO):
        def write(self, data):
            calls.append(len(data))
            if len(calls) == 3 and short:
                return super().write(memoryview(data)[: len(data) // 2])
            if len(calls) >= 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(data)

    def full_open(path, mode="r", buffering=-1, opener=None):
        assert mode == "wb" and opener is not None
        return Full(opener(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), mode)

    target = tmp_path / "pairs.csv"
    target.write_bytes(b"x" * (2 * len(want)))
    monkeypatch.setattr(cli, "open", full_open, raising=False)
    capsys.readouterr()
    assert main(_query_argv(tmp_path, "--out", str(target))) == 2
    assert capsys.readouterr().err.startswith("file error: ")
    got = target.read_bytes()
    assert len(calls) == 3 + short
    assert len(got) == calls[0] + calls[1] + short * (calls[2] // 2)
    assert 0 < len(got) < len(want) and got == want[: len(got)]


@pytest.mark.parametrize("workers", [1, 2])
def test_all_pairs_memory_does_not_grow_with_k(monkeypatch, workers):
    """Sketches of the benchmark's geometry (p = 64, int16 entries): from
    k = 1500 to 3000 the CSV grows from 29 to 117 MB, and the traced peak
    stays under 10 MiB: for each of the workers + 1 chunks in flight, a
    line buffer of about 2.3 MB and 256 KiB of sums, and small tables.
    Neither the output nor all the sums are held."""
    import tracemalloc

    from csq import _native

    monkeypatch.setattr(_native, "_worker_count", lambda: workers)
    entries = np.random.default_rng(6).integers(-400, 400, size=(3000, 64))
    with open("/dev/null", "wb") as out:
        for k in (1500, 3000):
            sketches = Sketches(64, 10, 1.7e-3, entries[:k])
            tracemalloc.start()
            try:
                cli._write_all_pairs(out, sketches, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 << 20, (k, peak)


def test_import_cli_leaves_bench_unimported():
    """`import csq.cli` does not import the bench module, and the parser
    offers bench's generators; every name of csq, the bench ones too, is
    still there."""
    import subprocess
    import sys

    code = (
        "import sys, csq.cli\n"
        "assert 'csq.bench' not in sys.modules\n"
        "mape = csq.cli._build_parser().parse_args(\n"
        "    ['bench', 'mape', '--n', '1', '--k', '1', '--p', '1', '--m-list', '1',\n"
        "     '--r-list', '1', '--out', 'x'])\n"
        "actions = csq.cli._build_parser()._subparsers._group_actions[0].choices\n"
        "bench = actions['bench']._subparsers._group_actions[0].choices['mape']\n"
        "choices = bench._option_string_actions['--generator'].choices\n"
        "assert 'csq.bench' not in sys.modules\n"
        "import csq\n"
        "missing = [n for n in csq.__all__ if not hasattr(csq, n)]\n"
        "assert not missing, missing\n"
        "from csq import BenchConfig, run_mape_bench\n"
        "assert csq.bench.BenchConfig is BenchConfig\n"
        "assert tuple(choices) == csq.bench.GENERATORS, choices\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=120, env=env
    )
    assert proc.stdout == b"ok\n", proc.stderr.decode()
