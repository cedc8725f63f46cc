"""End-to-end tests for the csq command line, driven in-process via main()."""

import functools

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
    store.write_condensed(path, Sketches.of(other, np.zeros((k, p), np.int64)), other)
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
