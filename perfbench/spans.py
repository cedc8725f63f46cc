"""Span tracing of csq from outside, by wrapping the names callers resolve.

``Tracer.install`` replaces module attributes (and two class attributes)
with timing wrappers. That works because every caller looks these names up
at call time: the CLI calls ``pipeline.embed_dataset`` and
``store.read_condensed`` through the module, ``pipeline`` calls the
functions it imported by their global names, and ``store`` imports
``pack_condensed``/``unpack_condensed`` inside its functions.

A plain wrapper records one span per call: name, layer, parent, operation,
start and end. Functions called once per item (a pair estimate, a packed
record, a code) would make one span each, so their wrapper instead adds to
one aggregate span per (parent, name) with a call count, which bounds both
the memory and the per-call cost. A span's self time is its duration minus
the time of the spans it caused.

Spans stay in memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict

LAYERS = ("bench", "cli", "pipeline", "transforms", "sigma_delta", "condense", "store")


def _fwht_counts(args, kwargs, out):
    x = args[0]
    n = x.shape[-1]
    rows = x.size // n
    # Computed: log2(n) butterfly stages of n adds/subtracts, then one
    # normalizing multiply per entry.
    return {"fwht_flops": rows * n * (int(math.log2(n)) + 1)}


def _project_counts(args, kwargs, out):
    matrix, xs = args[0], args[1]
    work = matrix.nnz * xs.shape[0]
    # Computed: a multiply and an add per stored entry per point; the value,
    # its column index and the gathered input entry are 8 bytes each.
    return {"project_flops": 2 * work, "project_bytes": 24 * work}


def _state_counts(args, kwargs, out):
    states = getattr(out, "states", None)
    return {"state_bytes": int(getattr(states, "nbytes", 0))}


def _path(args, kwargs):
    return args[0] if args else kwargs["path"]


def _read_counts(args, kwargs, out):
    return {"bytes_read": os.path.getsize(_path(args, kwargs))}


def _write_counts(args, kwargs, out):
    return {"bytes_written": os.path.getsize(_path(args, kwargs))}


# (module, attribute, per-item?, computed counts). Attributes a later
# version of the program lacks are skipped, and their metrics read 0.
_TARGETS = (
    ("cli", "main", False, None),
    ("pipeline", "build_model", False, None),
    ("pipeline", "dataset_from_matrix", False, None),
    ("pipeline", "embed_dataset", False, None),
    ("pipeline", "project_dataset", False, None),
    ("pipeline", "model_operator", False, None),
    ("pipeline", "build_fjlt", False, None),
    ("pipeline", "build_sparse_gaussian", False, None),
    ("pipeline", "sparse_matmat", False, _project_counts),
    ("pipeline", "quantize_batch", False, _state_counts),
    ("pipeline", "condense_signs_batch", False, None),
    ("pipeline", "estimate_distance", True, None),
    ("pipeline", "l1_distance", True, None),
    ("transforms", "fwht_inplace", False, _fwht_counts),
    ("condense", "pack_condensed", True, None),
    ("condense", "unpack_condensed", True, None),
    ("store", "read_vectors", False, _read_counts),
    ("store", "read_model", False, _read_counts),
    ("store", "read_codes", False, _read_counts),
    ("store", "read_condensed", False, _read_counts),
    ("store", "write_model", False, _write_counts),
    ("store", "write_codes", False, _write_counts),
    ("store", "write_condensed", False, _write_counts),
)
# (module, class, method, per-item?)
_METHOD_TARGETS = (
    ("transforms", "FjltOperator", "precondition", False),
    ("condense", "BinaryCode", "from_signs", True),
)


def _home(fn) -> tuple[str, str]:
    """(layer, span name) from where the function is defined."""
    layer = fn.__module__.rsplit(".", 1)[-1]
    return layer, f"{layer}.{fn.__qualname__}"


class Tracer:
    """Records spans of every wrapped call made inside :meth:`run_op`."""

    def __init__(self):
        # A record: name, layer, parent record id, op, start, end, total
        # and child seconds, call count and computed counts.
        self.records: list[dict] = []
        # The running call: [seconds its wrapped callees took, record id].
        self._current = [0.0, None]
        self._op = None

    def install(self) -> None:
        # The attribute csq.condense is the function condense(), which
        # shadows the module, so modules are looked up by their full name.
        modules = {name: importlib.import_module(f"csq.{name}") for name in LAYERS[1:]}
        for mod_name, attr, per_item, counts in _TARGETS:
            fn = getattr(modules[mod_name], attr, None)
            if fn is not None:
                setattr(modules[mod_name], attr, self._wrap(fn, per_item, counts))
        for mod_name, cls_name, attr, per_item in _METHOD_TARGETS:
            cls = getattr(modules[mod_name], cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, per_item, None)))
            else:
                setattr(cls, attr, self._wrap(raw, per_item, None))

    def _wrap(self, fn, per_item: bool, counts, home=None):
        layer, name = home or _home(fn)
        records, current = self.records, self._current
        clock = time.perf_counter

        if per_item:
            # The aggregate of the last parent seen: [parent id, record id,
            # record]. Per-item calls come in long runs under one parent.
            last = [-1, None, None]

            def aggregate(*args, **kwargs):
                parent = current[1]
                if parent != last[0]:
                    last[:] = [parent, len(records), self._record(name, layer, parent)]
                    records.append(last[2])
                rid, rec = last[1], last[2]
                outer = current[0]
                current[0] = 0.0
                current[1] = rid
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    rec["total"] += t1 - t0
                    rec["child"] += current[0]
                    rec["count"] += 1
                    rec["end"] = t1
                    current[0] = outer + (t1 - t0)
                    current[1] = parent

            return aggregate

        def span(*args, **kwargs):
            parent = current[1]
            rec = self._record(name, layer, parent)
            rid = len(records)
            records.append(rec)
            outer = current[0]
            current[0] = 0.0
            current[1] = rid
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                rec.update(start=t0, end=t1, total=t1 - t0, child=current[0], count=1)
                current[0] = outer + (t1 - t0)
                current[1] = parent
            if counts is not None:
                rec["counts"] = counts(args, kwargs, out)
            return out

        return span

    def _record(self, name: str, layer: str, parent) -> dict:
        return {
            "name": name, "layer": layer, "parent": parent, "op": self._op,
            "start": time.perf_counter(), "end": None, "total": 0.0,
            "child": 0.0, "count": 0,
        }

    def run_op(self, op: int, fn):
        """Run one benchmark operation under a root span of the bench layer."""
        self._op = op
        return self._wrap(fn, False, None, ("bench", "bench.op"))()


def layer_metrics(records: list[dict], ops: int) -> dict[str, float]:
    """Per-operation means of the per-layer metrics over ``ops`` operations."""
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    self_s = defaultdict(float)
    for rec in records:
        name = rec["name"]
        total[name] += rec["total"]
        calls[name] += rec["count"]
        self_s[name] += rec["total"] - rec["child"]
        self_s["layer:" + rec["layer"]] += rec["total"] - rec["child"]
        for key, value in rec.get("counts", {}).items():
            counts[key] += value

    def ms(value: float) -> float:
        return 1000.0 * value / ops

    builds = ("transforms.build_fjlt", "transforms.build_sparse_gaussian")
    reads = [n for n in total if n.startswith("store.read_")]
    writes = [n for n in total if n.startswith("store.write_")]
    out = {
        "transforms.operator_builds": sum(calls[n] for n in builds) / ops,
        "transforms.operator_build_ms": ms(sum(total[n] for n in builds)),
        "transforms.fwht_ms": ms(total["transforms.fwht_inplace"]),
        "transforms.fwht_flops": counts["fwht_flops"] / ops,
        "transforms.precondition_ms": ms(total["transforms.FjltOperator.precondition"]),
        "transforms.project_ms": ms(total["transforms.sparse_matmat"]),
        "transforms.project_flops": counts["project_flops"] / ops,
        "transforms.project_bytes": counts["project_bytes"] / ops,
        "sigma_delta.quantize_ms": ms(total["sigma_delta.quantize_batch"]),
        "sigma_delta.state_bytes": counts["state_bytes"] / ops,
        "condense.condense_ms": ms(total["condense.condense_signs_batch"]),
        "condense.from_signs_ms": ms(total["condense.BinaryCode.from_signs"]),
        "condense.pack_ms": ms(total["condense.pack_condensed"]),
        "condense.unpack_ms": ms(total["condense.unpack_condensed"]),
        "condense.l1_calls": calls["condense.l1_distance"] / ops,
        "condense.l1_ms": ms(total["condense.l1_distance"]),
        "pipeline.embed_ms": ms(total["pipeline.embed_dataset"]),
        "pipeline.embed_self_ms": ms(self_s["pipeline.embed_dataset"]),
        "pipeline.estimate_self_ms": ms(self_s["pipeline.estimate_distance"]),
        "store.read_ms": ms(sum(total[n] for n in reads)),
        "store.bytes_read": counts["bytes_read"] / ops,
        "store.write_ms": ms(sum(total[n] for n in writes)),
        "store.bytes_written": counts["bytes_written"] / ops,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(self_s["layer:" + layer])
    out["trace.self_sum_ms"] = sum(out[f"{layer}.self_ms"] for layer in LAYERS)
    return out
