"""Reproducible counter-based random streams.

One master seed expands into named substreams through Philox keyed by a
SeedSequence spawn key derived from (label, index) pairs; adding workers or
reordering execution cannot reshuffle any other stream.  Block reductions
must iterate blocks in index order to keep results bit-identical across
worker counts.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream"]


def label_key(label: str | int) -> int:
    """Stable 32-bit key for a stream label."""
    if isinstance(label, int):
        if label < 0:
            raise ValueError("integer stream labels must be >= 0")
        return label
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "little")


def substream(seed: int, *labels: str | int) -> np.random.Generator:
    """Independent generator for (seed, labels...); deterministic and
    insensitive to how many other substreams exist."""
    key = tuple(label_key(l) for l in labels)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))
