"""The library calls mixed-small-batch makes, kept in one place.

A change to the public sketch API (for example storing sketches as columns
instead of per-point objects) updates only this module. What the worker
records and the checks read comes out as plain NumPy arrays.
"""

from __future__ import annotations

import numpy as np

from csq import pipeline, store


def load_base(model_path: str, sketch_path: str):
    """Read the model and the stored sketches the queries run against."""
    return store.read_model(model_path), store.read_condensed(sketch_path)


def embed_batch(model, rows: np.ndarray):
    """Embed new rows with the model; returns the library's result."""
    return pipeline.embed_dataset(model, pipeline.dataset_from_matrix(rows))


def one_vs_all(model, embedded, base) -> np.ndarray:
    """Estimate the distance of every newly embedded point to every stored one."""
    return np.array(
        [
            [pipeline.estimate_distance(model, a, b) for b in base]
            for a in embedded.condensed
        ],
        dtype=np.float64,
    )


def batch_outputs(embedded) -> tuple[np.ndarray, np.ndarray]:
    """Sketch entries (b, p) and packed code bits (b, ceil(m/8)) of a batch."""
    entries = np.stack([c.entries for c in embedded.condensed]).astype(np.int64)
    bits = np.stack([c.bits for c in embedded.codes]).astype(np.uint8)
    return entries, bits
