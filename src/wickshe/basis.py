"""Hermite polynomials, Hermite functions, and the graded multi-index machinery.

Two Hermite conventions coexist and are exposed as distinct operations:

* ``hermite_poly(n, x)`` is the probabilists' polynomial H_n with weight
  exp(-x^2/2), H_0 = 1, H_1 = x, and recurrence H_{n+1} = x H_n - n H_{n-1}.
* ``hermite_function(j, x)`` is the j-th member (j >= 1) of the orthonormal
  L^2(R) basis e_j(x) = c_{j-1} H^phys_{j-1}(x) exp(-x^2/2) built on the
  physicists' weight exp(-x^2); e_j is the standard Hermite function of
  order j - 1.

Mixing the two conventions silently is the most likely implementation bug in
this problem family, hence the split API.

Multi-indices are finitely supported sequences of non-negative integers; the
enumeration of the degree-graded slice is part of the public contract
(graded lexicographic, deterministic) so that exported coefficient tables are
reproducible and diffable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "MultiIndex",
    "TruncationSpec",
    "hermite_poly",
    "hermite_function",
    "hermite_function_dx",
    "hermite_function_table",
    "enumerate_multiindices",
    "FORCING_CHUNK",
    "LevelWiring",
    "snapshot_steps",
    "snapshot_at",
]


@dataclass(frozen=True, order=False)
class MultiIndex:
    """A finitely supported sequence of non-negative integers.

    Entries are stored 1-based conceptually (entry j multiplies mode e_j) in a
    trailing-zero-trimmed tuple, so ``MultiIndex((1, 0))`` equals
    ``MultiIndex((1,))``.
    """

    entries: tuple[int, ...]

    def __init__(self, entries: Sequence[int] = ()):
        ent = tuple(int(v) for v in entries)
        if any(v < 0 for v in ent):
            raise ValueError(f"multi-index entries must be >= 0, got {ent}")
        while ent and ent[-1] == 0:
            ent = ent[:-1]
        object.__setattr__(self, "entries", ent)

    def degree(self) -> int:
        """|alpha| = sum of the entries."""
        return sum(self.entries)

    def factorial(self) -> int:
        """alpha! = product of entry factorials (exact integer, >= 1)."""
        out = 1
        for v in self.entries:
            out *= math.factorial(v)
        return out

    def characteristic_vector(self) -> tuple[int, ...]:
        """k_alpha: the non-decreasing length-|alpha| vector where mode j
        appears exactly alpha_j times, e.g. (2, 0, 1) -> (1, 1, 3)."""
        out: list[int] = []
        for j, v in enumerate(self.entries, start=1):
            out.extend([j] * v)
        return tuple(out)

    def support(self) -> tuple[int, ...]:
        """1-based mode indices with non-zero entry."""
        return tuple(j for j, v in enumerate(self.entries, start=1) if v > 0)

    def entry(self, j: int) -> int:
        """alpha_j for 1-based mode j (0 beyond the stored support)."""
        return self.entries[j - 1] if 1 <= j <= len(self.entries) else 0

    def lowered(self, j: int) -> "MultiIndex":
        """alpha with entry j lowered by one (alpha^-_(j)); floor at zero."""
        ent = list(self.entries) + [0] * max(0, j - len(self.entries))
        ent[j - 1] = max(ent[j - 1] - 1, 0)
        return MultiIndex(ent)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        n = max(len(self.entries), len(other.entries))
        return MultiIndex(tuple(self.entry(j) + other.entry(j) for j in range(1, n + 1)))

    def __repr__(self) -> str:  # compact: (0), (1,0,2), ...
        return "(" + ",".join(map(str, self.entries)) + ")" if self.entries else "(0)"


ZERO_INDEX = MultiIndex(())
ENUMERATION_CAP = 2_000_000  # memory guard on the number of enumerated indices


@dataclass(frozen=True)
class TruncationSpec:
    """Finite truncation of the multi-index set: degree <= max_order, support
    within modes {1..max_mode}."""

    max_order: int
    max_mode: int

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        if self.max_mode < 1:
            raise ValueError("max_mode must be >= 1")

    def count(self) -> int:
        """Number of enumerated indices: sum_{n<=N} C(n+J-1, J-1)."""
        return sum(math.comb(n + self.max_mode - 1, self.max_mode - 1)
                   for n in range(self.max_order + 1))

    def lowerings(self) -> int:
        """Number of pairs (alpha, j) with alpha_j >= 1, i.e. of forcing terms:
        alpha lowered at j runs once over every index of degree < N, per j."""
        if self.max_order == 0:
            return 0
        return self.max_mode * TruncationSpec(self.max_order - 1, self.max_mode).count()

    def contains(self, alpha: MultiIndex) -> bool:
        return alpha.degree() <= self.max_order and len(alpha.entries) <= self.max_mode


def hermite_poly(n: int, x) -> float | np.ndarray:
    """Probabilists' Hermite polynomial H_n(x) by the stable three-term
    recurrence H_{k+1} = x H_k - k H_{k-1}."""
    if n < 0:
        raise ValueError("order must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for k in range(1, n):
        h, h_prev = x * h - k * h_prev, h
    return h if h.ndim else float(h)


def _hermite_rows(j_max: int, x: np.ndarray) -> np.ndarray:
    """Leading axis 0..j_max-1 holds e_1(x)..e_{j_max}(x) (normalized
    recurrence), elementwise over any input shape."""
    E = np.empty((j_max,) + x.shape)
    E[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if j_max > 1:
        E[1] = np.sqrt(2.0) * x * E[0]
    for j in range(2, j_max):
        # e_{j+1}(x) = x sqrt(2/j) e_j(x) - sqrt((j-1)/j) e_{j-1}(x)
        E[j] = np.sqrt(2.0 / j) * x * E[j - 1] - np.sqrt((j - 1) / j) * E[j - 2]
    return E


def hermite_function(j: int, x) -> float | np.ndarray:
    """Orthonormal Hermite function e_j(x), j >= 1 (e_j is the standard
    Hermite function of order j-1; e_1(x) = pi^{-1/4} exp(-x^2/2)).

    Evaluated with the normalized recurrence; factorial formulas overflow
    beyond j ~ 85.
    """
    if j < 1:
        raise ValueError("hermite_function index starts at 1")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = _hermite_rows(j, xa)[j - 1]
    return out if np.ndim(x) else float(out.ravel()[0])


def hermite_function_dx(j: int, x) -> float | np.ndarray:
    """Derivative e_j'(x) = sqrt((j-1)/2) e_{j-1}(x) - sqrt(j/2) e_{j+1}(x)."""
    if j < 1:
        raise ValueError("hermite_function index starts at 1")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    E = _hermite_rows(j + 1, xa)
    out = -np.sqrt(j / 2.0) * E[j]
    if j > 1:
        out = out + np.sqrt((j - 1) / 2.0) * E[j - 2]
    return out if np.ndim(x) else float(out.ravel()[0])


def hermite_function_table(j_max: int, x: np.ndarray) -> np.ndarray:
    """(j_max, len(x)) table with row j-1 holding e_j on the given points."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    return _hermite_rows(j_max, np.asarray(x, dtype=float))


def enumerate_multiindices(spec: TruncationSpec) -> list[MultiIndex]:
    """All multi-indices with degree <= N and support in {1..J}, in graded
    lexicographic order (by degree, then descending lex on the entry tuples),
    duplicate-free and deterministic.

    Raises if the enumeration would exceed ``ENUMERATION_CAP`` entries.
    """
    total = spec.count()
    if total > ENUMERATION_CAP:
        raise ValueError(f"enumeration size {total} exceeds cap {ENUMERATION_CAP}")
    J = spec.max_mode
    out: list[MultiIndex] = []

    def compositions(n: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (n,)
            return
        for head in range(n, -1, -1):
            for rest in compositions(n - head, slots - 1):
                yield (head,) + rest

    for n in range(spec.max_order + 1):
        if n == 0:
            out.append(ZERO_INDEX)
            continue
        out.extend(MultiIndex(c) for c in compositions(n, J))
    return out


FORCING_CHUNK = 256  # rows of one level whose forcing is built at a time


class ForcingChunk(NamedTuple):
    """Up to ``FORCING_CHUNK`` consecutive rows of one level and their wiring.

    ``block`` is the chunk's slice of the graded index list.  ``modes`` lists,
    by ascending mode j, ``(j - 1, rows, parents, weighted)``: the rows within
    the chunk that carry mode j (a slice where they run contiguously), the
    parents' indices in the list, and sqrt(alpha_j) * e_j on the grid, one row
    per entry of ``rows``.  A row appears at most once per mode.
    """

    block: slice
    modes: list[tuple[int, slice | np.ndarray, np.ndarray, np.ndarray]]

    @property
    def size(self) -> int:
        return self.block.stop - self.block.start


class LevelWiring:
    """Forcing plan of the triangular coefficient system on one grid, in which
    alpha is forced by sqrt(alpha_j) e_j u_{alpha lowered at j}; shared by
    both sweeps.

    ``E`` holds e_1..e_J on the grid, one row per mode.  ``slices[n]`` is level
    n's contiguous block of the graded index list and ``chunks[n]`` splits it
    into ``ForcingChunk`` runs of at most ``FORCING_CHUNK`` rows, so that a
    chunk's forcing, state and transforms stay in cache.  The products
    sqrt(alpha_j) * e_j are formed once here; ``spec.lowerings()`` of them
    exist, one grid row each.
    """

    def __init__(self, indices: Sequence[MultiIndex], E: np.ndarray):
        index_of = {a: i for i, a in enumerate(indices)}
        degrees = [a.degree() for a in indices]
        self.slices: list[slice] = []
        self.chunks: list[list[ForcingChunk]] = []
        for n in range(max(degrees) + 1):
            start = degrees.index(n)
            stop = start + degrees.count(n)
            if set(degrees[start:stop]) != {n}:
                raise ValueError(f"level {n} is not contiguous in the index list")
            self.slices.append(slice(start, stop))
            self.chunks.append([])
            for lo in range(start, stop, FORCING_CHUNK):
                block = slice(lo, min(lo + FORCING_CHUNK, stop))
                by_mode: dict[int, list[tuple[int, int, float]]] = {}
                for r, a in enumerate(indices[block]):
                    for j in a.support():
                        by_mode.setdefault(j, []).append(
                            (r, index_of[a.lowered(j)], math.sqrt(a.entry(j))))
                modes = []
                for j in sorted(by_mode):
                    rows, parents, weights = map(np.array, zip(*by_mode[j]))
                    if rows[-1] - rows[0] + 1 == rows.size:
                        rows = slice(int(rows[0]), int(rows[-1]) + 1)
                    modes.append((j - 1, rows, parents, weights[:, None] * E[j - 1]))
                self.chunks[-1].append(ForcingChunk(block, modes))
        self._term = np.empty((FORCING_CHUNK, E.shape[1]))

    def force(self, chunk: ForcingChunk, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write one chunk's forcing into ``out`` and return it.  Modes are added
        onto zeros in ascending order, each as (sqrt(alpha_j) * e_j) *
        state[parents]; only the wiring's own scratch row block is touched, so
        one wiring serves one sweep at a time."""
        out.fill(0.0)
        for _, rows, parents, weighted in chunk.modes:
            # mode="raise" would gather through a temporary; parents are in range
            term = np.take(state, parents, axis=0, out=self._term[:parents.size],
                           mode="clip")
            np.multiply(weighted, term, out=term)
            out[rows] += term
        return out


def snapshot_steps(times: Iterable[float], dt: float) -> dict[int, float]:
    """Step index -> requested time, for the snapshot times of a sweep with step
    dt; a time that is not a positive multiple of dt (to 1e-9) raises ValueError."""
    steps = {}
    for t in times:
        k = round(t / dt)
        if abs(k * dt - t) > 1e-9 or k <= 0:
            raise ValueError(f"time {t} must be a positive multiple of dt = {dt}")
        steps[k] = t
    return steps


def snapshot_at(snapshots: Mapping[float, np.ndarray], t: float) -> tuple[float, np.ndarray]:
    """The stored time within 1e-9 of t and its snapshot (ValueError if none)."""
    for ts, state in snapshots.items():
        if abs(ts - t) < 1e-9:
            return ts, state
    raise ValueError(f"no snapshot at t={t}; stored: {sorted(snapshots)}")

