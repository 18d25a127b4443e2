"""Monte Carlo realization of the path-integral representation.

The field at (t, x) is the path average of u0(B_t^x) exp(Psi) where, for a
fixed noise realization W, the exponent of a path with local-time profile L is

    Psi = int L dW - (1/2) int L^2 da,

discretized on a uniform level grid as sum_i L_i dW_i - (da/2) sum_i L_i^2
with dW_i ~ N(0, da).  The local-time profile is the occupation histogram of
the discrete path skeleton, normalized so that da * sum_i L_i = t exactly.

Everything here is a plain array: a path is its time grid and positions,
a profile is the vector L on the level grid (bin centres), and a noise
sample is the vector dW on that same grid.

Estimator bias: the histogram carries O(da) binning bias and the skeleton
O(sqrt(dt)) time-discretization bias; ensemble checks quote a stated budget
of these orders next to the Monte Carlo error instead of hiding them.

Every ensemble routine is a reducer on ``path_ensemble``, the one blocked
loop: it streams paths in blocks of ``DEFAULT_BLOCK``, each block draws from
its own counter-based substream, and the per-block results come back in
block order, so estimates are bit-identical no matter how many worker
threads ran them.  Within a block the loop draws, scales and cumulates
``ROW_CHUNK`` paths at a time into one chunk buffer, and the reducer maps
each chunk to per-path values; a block's sums are taken over its whole
per-path vector.  A block whose position or profile array would exceed
``ARRAY_BUDGET_BYTES`` is refused before anything is drawn.  Blocks go
through ``ordered_map``, which runs a single item inline; a caller with many
one-block ensembles (the fk double average) maps them over the workers
instead, each ensemble on one thread.

Memory: no block-sized array exists.  A block holds one chunk of positions,
the reducer's chunk-sized work buffers (made once per block and reused from
chunk to chunk: the occupation binning, the left endpoints of the
S-transform sums, the psi-law noise) and its per-path values.  At M = 1000
steps that is 3 to 4 MB per block for the binning reducers, where the
whole block's positions alone took 16 MB.

Common random numbers: ``s_transform_ensemble_mc`` reduces one ensemble to
the S-transform values of u and dx u for several test functions at once,
and ``local_time_ensemble_stats`` reduces one ensemble to the local-time
statistics at the start and the spatial increment law, from the same
per-block profiles.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .kernels import InitialCondition
from .streams import substream

__all__ = [
    "simulate_path",
    "local_time",
    "psi_sample",
    "fk_conditional_estimate",
    "s_transform_mc",
    "s_transform_dx_mc",
    "s_transform_ensemble_mc",
    "build_level_grid",
    "sample_noise",
    "local_time_ensemble_stats",
    "standard_error",
    "psi_law_stats",
    "path_ensemble",
    "ordered_map",
    "chunk_binner",
    "EnsembleMemoryError",
    "check_array_budget",
]

DEFAULT_BLOCK = 2000
# paths per chunk of the block loop, and rows per chunk of the conditional
# psi-law noise draws
ROW_CHUNK = 128
ARRAY_BUDGET_BYTES = 1 << 30  # largest array an ensemble step or a coefficient state may take


class EnsembleMemoryError(ValueError):
    """Raised before allocation when an ensemble array, or the state of a
    coefficient sweep, would exceed the budget."""


def simulate_path(t: float, dt: float, x: float,
                  stream: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exact-law Gaussian skeleton of Brownian motion started at x: the time
    grid (uniform, the final step shortened so that it ends exactly at t) and
    the positions on it, starting with x."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_grid = _time_grid(t, dt)
    positions = np.concatenate([[x], _positions(1, np.diff(t_grid), x, stream)[0]])
    return t_grid, positions


def _step_count(t: float, dt: float) -> int:
    """Steps of the time grid to t: the whole dt steps, plus a shortened last
    one when t is not a multiple of dt (to 1e-12 relative)."""
    n_full = int(math.floor(t / dt + 1e-12))
    return n_full + (t - dt * n_full > 1e-12 * max(t, 1.0))


def _time_grid(t: float, dt: float) -> np.ndarray:
    grid = dt * np.arange(_step_count(t, dt) + 1)
    grid[-1] = t
    return grid


def build_level_grid(t: float, x: float, delta_a: float) -> np.ndarray:
    """Uniform level grid (bin centers) covering the +-6 sqrt(t) path range
    around x."""
    lo, hi = x - 6.0 * math.sqrt(t), x + 6.0 * math.sqrt(t)
    k_lo = math.floor(lo / delta_a) - 3
    k_hi = math.ceil(hi / delta_a) + 3
    return delta_a * (np.arange(k_lo, k_hi + 1) + 0.5)


def local_time(t_grid: np.ndarray, positions: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Occupation-density histogram L of one path skeleton on ``levels``.

    Each step contributes its dt to the bin of its right endpoint, so the
    identity da * sum L = t holds exactly (counting identity).  The one row
    is binned by ``chunk_binner`` in a work buffer, so ``positions`` is left
    as it is.
    """
    steps = np.diff(t_grid)
    return chunk_binner(steps, levels, 1)(positions[None, 1:], np.empty(steps.size))[0]


def _occupation_sums(left: np.ndarray, steps: np.ndarray, phi: Callable) -> np.ndarray:
    """int_0^t phi(B_s) ds as the left-endpoint sum phi(left) @ steps, one per
    row of left endpoints; a sum is non-finite whenever a value is."""
    sums = np.asarray(phi(left), dtype=float) @ steps
    if not np.all(np.isfinite(sums)):
        raise ValueError("phi returned non-finite values along the path")
    return sums


def sample_noise(levels: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """White-noise increments dW_i ~ N(0, da) over the level bins."""
    da = float(levels[1] - levels[0])
    return stream.standard_normal(levels.size) * math.sqrt(da)


def psi_sample(L: np.ndarray, dW: np.ndarray, delta_a: float) -> float:
    """Psi = sum_i L_i dW_i - (da/2) sum_i L_i^2 for one profile L and one
    noise sample dW on the same level grid of spacing ``delta_a``."""
    if L.shape != dW.shape:
        raise ValueError("noise grid does not match the profile grid")
    return float(np.dot(L, dW)) - 0.5 * float(delta_a * np.dot(L, L))


# ---------------------------------------------------------------------------
# blocked ensembles


def check_array_budget(n_values: int, what: str):
    """Refuse ``what``, which holds ``n_values`` float64 values, over budget."""
    nbytes = 8 * n_values
    if nbytes > ARRAY_BUDGET_BYTES:
        raise EnsembleMemoryError(f"{what} needs {nbytes / 2**30:.3g} GiB, over the "
                                  f"{ARRAY_BUDGET_BYTES / 2**30:.3g} GiB per-array budget")


def _positions(nb: int, steps: np.ndarray, x: float, stream: np.random.Generator,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """(nb, steps) positions at t_1..t_M of nb paths started at x: the stream's
    next nb * M normals, scaled and summed in place in ``out`` (a fresh array
    when None), so that successive chunks draw what one whole draw would."""
    pos = stream.standard_normal((nb, steps.size), out=out)
    pos *= np.sqrt(steps)[None, :]
    np.cumsum(pos, axis=1, out=pos)
    pos += x
    return pos


def chunk_binner(steps: np.ndarray, levels: np.ndarray,
                 rows: int) -> Callable[..., np.ndarray]:
    """``bin(pos, work=None)``: the (n, n_bins) occupation histograms of a
    chunk ``pos`` of n <= ``rows`` paths over ``steps``; each step adds its
    dt to the bin of its right endpoint.  Raises if a path escapes the level
    grid.

    The bin coordinates are formed in ``work``, a flat float64 buffer of at
    least n * steps.size values, or in place in a contiguous ``pos`` when
    ``work`` is None, and cast to bin indices in that same memory; the step
    weights are tiled once, for ``rows`` rows.  Only the histograms are new
    per call, and every bin sums the steps of its own row in step order.
    """
    da = float(levels[1] - levels[0])
    lo = float(levels[0] - 0.5 * da)
    K = levels.size
    m = steps.size
    weights = np.tile(steps, rows)
    offsets = K * np.arange(rows)[:, None]

    def bin_chunk(pos: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
        n = pos.shape[0]
        coords = pos.reshape(-1) if work is None else work[:n * m]
        np.subtract(pos, lo, out=coords.reshape(n, m))
        coords /= da
        # truncation is floor on [0, K); a NaN fails the test too
        if not (coords.min() >= 0 and coords.max() < K):
            raise ValueError("level grid does not cover the simulated paths")
        bins = coords.view(np.int64)
        np.copyto(bins, coords, casting="unsafe")  # elementwise, in place
        grid = bins.reshape(n, m)
        grid += offsets[:n]
        counts = np.bincount(bins, weights=weights[:n * m], minlength=n * K)
        counts /= da
        return counts.reshape(n, K)

    return bin_chunk


def _increment_shifts(h_values: Sequence[float], delta_a: float) -> dict[float, int]:
    """Level shift per nonzero lag h; every h must be a multiple of delta_a
    with h >= 2 delta_a, and no h may repeat."""
    if len(set(map(float, h_values))) < len(h_values):
        raise ValueError(f"lags must be distinct, got {list(h_values)}")
    shifts = {}
    for h in h_values:
        if h == 0.0:
            continue
        s = round(h / delta_a)
        if abs(s * delta_a - h) > 1e-9 or s < 2:
            raise ValueError(f"h={h} must be a multiple of delta_a={delta_a} with h >= 2 delta_a")
        shifts[float(h)] = s
    return shifts


def _increment_table(h_values: Sequence[float], totals: dict[float, float],
                     n_paths: int) -> list[tuple[float, float]]:
    """(h, E int (L_a - L_{a-h})^2 da / h) per lag in increasing order, from
    the ensemble total of that integral per nonzero lag; h = 0 gives 0."""
    return [(0.0, 0.0) if h == 0.0 else (h, totals[h] / n_paths / h)
            for h in sorted(float(v) for v in h_values)]


def ordered_map(fn: Callable[[object], object], items: Sequence, threads: int) -> list:
    """``[fn(i) for i in items]`` on up to ``threads`` worker threads, results in
    item order.  One item, or one thread, runs inline without a pool."""
    if threads <= 1 or len(items) <= 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def path_ensemble(t: float, x: float, dt: float, n_paths: int, stream_seed: int,
                  stream_label: str, threads: int,
                  reduce: Callable[[int, np.ndarray, int, Iterator[np.ndarray]], object],
                  levels: Optional[np.ndarray] = None) -> list:
    """Map ``reduce(b, steps, rows, chunks)`` over blocks of ``DEFAULT_BLOCK``
    paths started at x; the last block may be short.

    Block b draws from ``substream(stream_seed, stream_label, b)``.
    ``steps`` are the time steps, and ``chunks`` yields the block's paths in
    order, ``rows`` = min(ROW_CHUNK, paths in the block) at a time (the last
    chunk may be short): the (n, M) positions at t_1..t_M, each chunk drawn
    over the last one in one buffer.  A reducer maps each chunk to per-path
    values, copying what it keeps, and may overwrite the chunk.  ``levels``
    enters only the block budget; a reducer bins what it reads.  Results
    come back in block order for any thread count.
    """
    n_steps = _step_count(t, dt)
    n_levels = 0 if levels is None else levels.size
    width, unit = (n_steps, "steps") if n_steps >= n_levels else (n_levels, "levels")
    check_array_budget(DEFAULT_BLOCK * width, f"a block of {DEFAULT_BLOCK} paths x {width} {unit}")
    steps = np.diff(_time_grid(t, dt))

    def chunks(nb: int, rows: int, stream: np.random.Generator) -> Iterator[np.ndarray]:
        buf = np.empty((rows, steps.size))
        for r0 in range(0, nb, rows):
            n = min(rows, nb - r0)
            yield _positions(n, steps, x, stream, buf[:n])

    def one_block(b: int):
        nb = min(DEFAULT_BLOCK, n_paths - b * DEFAULT_BLOCK)
        rows = min(ROW_CHUNK, nb)
        return reduce(b, steps, rows, chunks(nb, rows, substream(stream_seed, stream_label, b)))

    return ordered_map(one_block, range(-(-n_paths // DEFAULT_BLOCK)), threads)


def standard_error(values: np.ndarray) -> float:
    """Standard error of the sample mean, std(ddof=1) / sqrt(n); NaN below two values."""
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / math.sqrt(values.size))


def fk_conditional_estimate(t: float, x: float, u0: InitialCondition,
                            levels: np.ndarray, dW: np.ndarray, n_paths: int,
                            stream_seed: int, dt: float = 1e-3, threads: int = 1,
                            stream_label: str = "fk-paths") -> tuple[float, float]:
    """Path average of u0(B_t^x) exp(Psi) at a fixed noise realization, the
    increments ``dW`` over the bins of ``levels``.

    Returns (estimate, standard error).  This is one sample of the
    random field at (t, x); averaging estimates over independent noise draws
    converges to the heat-semigroup mean.
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    if dW.shape != levels.shape:
        raise ValueError(f"noise increments of shape {dW.shape} do not match the "
                         f"level grid of shape {levels.shape}")
    da = float(levels[1] - levels[0])

    def reduce(b, steps, rows, chunks) -> np.ndarray:
        bin_chunk = chunk_binner(steps, levels, rows)
        ends, psi = [], []
        for pos in chunks:
            ends.append(pos[:, -1].copy())  # the binning overwrites the chunk
            prof = bin_chunk(pos)
            psi.append(prof @ dW - 0.5 * da * np.einsum("ij,ij->i", prof, prof))
        return u0(np.concatenate(ends)) * np.exp(np.concatenate(psi))

    vals = np.concatenate(path_ensemble(t, x, dt, n_paths, stream_seed, stream_label,
                                        threads, reduce, levels))
    if float(vals.std()) == 0.0:
        raise RuntimeError("degenerate path ensemble: all samples identical")
    return float(vals.mean()), standard_error(vals)

def s_transform_ensemble_mc(t: float, x: float, u0: InitialCondition,
                            phis: Sequence[tuple[Callable[[np.ndarray], np.ndarray],
                                                 Optional[Callable[[np.ndarray], np.ndarray]],
                                                 Optional[float]]],
                            n_paths: int, stream_seed: int, dt: float = 1e-3,
                            threads: int = 1, stream_label: str = "stransform"
                            ) -> list[tuple[tuple[float, float], Optional[tuple[float, float]]]]:
    """S-transform values of u and dx u for several test functions, all from
    one path ensemble (common random numbers).

    ``phis`` holds (phi, phi_prime, phi_sup) per test function.  Each gets
    ((u value, se), (dx u value, se)) back, the second None when phi_prime
    is None; the values are those of ``s_transform_mc`` and
    ``s_transform_dx_mc`` on the same stream label.  ``phi_sup`` (when known)
    guards the exponent: sup|phi| * t > 50 would overflow far before Monte
    Carlo error matters.

    Each chunk's left endpoints are formed in one buffer per block, and
    every phi and phi_prime is evaluated on them; a path's values are those
    of ``phi(left) @ steps`` over the whole block.
    """
    need_dx = any(phi_prime is not None for _, phi_prime, _ in phis)
    if need_dx and not u0.has_derivative:
        raise ValueError("the S-transform of dx u needs an initial condition with a derivative")
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    for _, _, phi_sup in phis:
        if phi_sup is not None and phi_sup * t > 50.0:
            raise ValueError(f"exponent guard: sup|phi| * t = {phi_sup * t} > 50")

    fns = [f for phi, phi_prime, _ in phis for f in (phi, phi_prime) if f is not None]

    def reduce(b, steps, rows, chunks) -> np.ndarray:
        # left endpoints: start point x plus all but the last position
        left = np.empty((rows, steps.size))
        left[:, 0] = x
        sums, ends = [], []
        for pos in chunks:
            n = pos.shape[0]
            left[:n, 1:] = pos[:, :-1]
            sums.append([_occupation_sums(left[:n], steps, f) for f in fns])
            ends.append(pos[:, -1].copy())
        occ = iter(np.concatenate(sums, axis=1))
        end = np.concatenate(ends)
        u_end = u0(end)
        du_end = u0.derivative(end) if need_dx else None
        out = []
        for _, phi_prime, _ in phis:
            grow = np.exp(next(occ))
            out.append(u_end * grow)
            if phi_prime is not None:
                # u0'(B_t) e^{int phi} + u0(B_t) e^{int phi} int phi'
                out.append(du_end * grow + out[-1] * next(occ))
        return np.array(out)

    fields = iter(np.concatenate(path_ensemble(t, x, dt, n_paths, stream_seed, stream_label,
                                               threads, reduce), axis=1))

    def estimate(vals: np.ndarray) -> tuple[float, float]:
        return float(vals.mean()), standard_error(vals)

    return [(estimate(next(fields)), None if phi_prime is None else estimate(next(fields)))
            for _, phi_prime, _ in phis]


def s_transform_mc(t: float, x: float, u0: InitialCondition,
                   phi: Callable[[np.ndarray], np.ndarray], n_paths: int,
                   stream_seed: int, dt: float = 1e-3, threads: int = 1,
                   phi_sup: Optional[float] = None,
                   stream_label: str = "stransform") -> tuple[float, float]:
    """Monte Carlo S-transform value E[u0(B_t^x) exp(int_0^t phi(B_s^x) ds)].

    ``phi_sup`` (when known) guards the exponent: sup|phi| * t > 50 would
    overflow far before Monte Carlo error matters.
    """
    ((u, _),) = s_transform_ensemble_mc(t, x, u0, [(phi, None, phi_sup)], n_paths,
                                        stream_seed, dt, threads, stream_label)
    return u


def s_transform_dx_mc(t: float, x: float, u0: InitialCondition,
                      phi: Callable[[np.ndarray], np.ndarray],
                      phi_prime: Callable[[np.ndarray], np.ndarray],
                      n_paths: int, stream_seed: int, dt: float = 1e-3,
                      threads: int = 1, phi_sup: Optional[float] = None,
                      stream_label: str = "stransform-dx") -> tuple[float, float]:
    """Monte Carlo S-transform of the spatial-derivative field,

        E[ u0'(B_t^x) e^{int phi} + u0(B_t^x) e^{int phi} int_0^t phi'(B_s^x) ds ].
    """
    ((_, dx),) = s_transform_ensemble_mc(t, x, u0, [(phi, phi_prime, phi_sup)], n_paths,
                                         stream_seed, dt, threads, stream_label)
    return dx


# ---------------------------------------------------------------------------
# ensemble statistics used by the local-time verification targets


def local_time_ensemble_stats(t: float, dt: float, delta_a: float, n_paths: int,
                              stream_seed: int, x: float = 0.0, threads: int = 1,
                              h_values: Sequence[float] = (),
                              stream_label: str = "localtime") -> dict:
    """Ensemble means of the occupation histogram at level x, of the
    quadratic functional int L^2 da, the exact mass-identity defect, and the
    spatial increment law of the same profiles.

    Returns means with standard errors plus the stated discretization-bias
    budget: the skeleton's O(sqrt(dt)) and the binning's.  x sits on a bin
    edge of ``build_level_grid``, where E L_a has a cusp, so the binning
    bias of ``mean_L_at_start`` is first order in da; the da^2 term of
    ``bias_budget_L`` does not cover it.

    ``"increment_table"`` holds (h, E int (L_a - L_{a-h})^2 da / h) for each
    lag of ``h_values`` in increasing order, [] when none is given; the
    ratio approaches 4t as h decreases.  Every h must be a multiple of
    delta_a with h >= 2 delta_a, and none may repeat (checked before
    anything is drawn); h = 0 gives exactly 0.  The lags leave the
    statistics unchanged.
    """
    shifts = _increment_shifts(h_values, delta_a)
    levels = build_level_grid(t, x, delta_a)
    j0 = int(np.argmin(np.abs(levels - x)))

    def reduce(b, steps, rows, chunks) -> np.ndarray:
        bin_chunk = chunk_binner(steps, levels, rows)
        diff = np.empty(rows * levels.size)
        vals = []
        for pos in chunks:
            prof = bin_chunk(pos)
            n, K = prof.shape
            out = np.empty((3 + len(shifts), n))
            out[0] = prof[:, j0]
            np.einsum("ij,ij->i", prof, prof, out=out[1])
            prof.sum(axis=1, out=out[2])
            for row, s in zip(out[3:], shifts.values()):
                D = diff[:n * (K - s)].reshape(n, K - s)
                np.subtract(prof[:, s:], prof[:, :-s], out=D)
                np.einsum("ij,ij->i", D, D, out=row)
            vals.append(out)
        # per path: L at the start, int L^2 da, the mass defect, and
        # int (L_a - L_{a-h})^2 da per lag
        v = np.concatenate(vals, axis=1)
        v[1] *= delta_a
        v[2] = np.abs(delta_a * v[2] - t)
        v[3:] *= delta_a
        return v

    blocks = path_ensemble(t, x, dt, n_paths, stream_seed, stream_label, threads,
                           reduce, levels)
    L0, Q, defect = np.concatenate([p[:3] for p in blocks], axis=1)
    # each block's sum over its paths, the blocks added in order
    totals = dict(zip(shifts, map(float, sum(p[3:].sum(axis=1) for p in blocks))))
    return {
        "mean_L_at_start": float(L0.mean()),
        "se_L_at_start": standard_error(L0),
        "mean_int_L2": float(Q.mean()),
        "se_int_L2": standard_error(Q),
        "mass_identity_defect": float(defect.max()),
        "bias_budget_L": math.sqrt(2.0 * dt / math.pi) + delta_a * delta_a,
        "bias_budget_L2": math.sqrt(dt) + 0.5 * delta_a,
        "increment_table": _increment_table(h_values, totals, n_paths),
    }


def psi_law_stats(t: float, dt: float, delta_a: float, n_paths_b: int, n_noise: int,
                  stream_seed: int, x: float = 0.0, threads: int = 1) -> dict:
    """Conditional-law and unit-mean checks of the exponent.

    For one fixed path, Psi over noise draws is Gaussian with mean
    -(1/2) int L^2 and variance int L^2 (exact at the discrete level); over
    independent (path, noise) pairs, E exp(Psi) = 1 exactly in expectation.

    The ``n_noise`` conditional draws come from the "psi-noise" substream
    ``ROW_CHUNK`` rows at a time, the same numbers as one (n_noise, levels)
    draw; only the n_noise Psi values and one chunk of draws are held, and
    those two arrays are what the budget counts.  The (path, noise) pairs
    draw each chunk's noise from their block's "psi-pairs-noise" substream,
    the same numbers as one draw per block.
    """
    levels = build_level_grid(t, x, delta_a)
    rows = min(ROW_CHUNK, n_noise)
    check_array_budget(n_noise, f"{n_noise} psi values")
    check_array_budget(rows * levels.size, f"a chunk of {rows} noise draws x {levels.size} levels")
    da = float(levels[1] - levels[0])
    L = local_time(*simulate_path(t, dt, x, substream(stream_seed, "psi-path")), levels)
    q = float(da * np.dot(L, L))

    noise = substream(stream_seed, "psi-noise")
    psi = np.empty(n_noise)
    for r0 in range(0, n_noise, ROW_CHUNK):
        dW = noise.standard_normal((min(ROW_CHUNK, n_noise - r0), levels.size))
        dW *= math.sqrt(da)
        np.matmul(dW, L, out=psi[r0:r0 + dW.shape[0]])
    psi -= 0.5 * q
    m, s = psi.mean(), psi.std(ddof=1)
    skew = float(np.mean(((psi - m) / s) ** 3))

    # unconditional E exp(Psi) over fresh (path, noise) pairs
    def reduce(b, steps, rows, chunks) -> np.ndarray:
        bin_chunk = chunk_binner(steps, levels, rows)
        pair_noise = substream(stream_seed, "psi-pairs-noise", b)
        dW = np.empty((rows, levels.size))
        psi = []
        for pos in chunks:
            prof = bin_chunk(pos)
            dWc = pair_noise.standard_normal(prof.shape, out=dW[:prof.shape[0]])
            dWc *= math.sqrt(da)
            psi.append(np.einsum("ij,ij->i", prof, dWc)
                       - 0.5 * da * np.einsum("ij,ij->i", prof, prof))
        return np.exp(np.concatenate(psi))

    ew = np.concatenate(path_ensemble(t, x, dt, n_paths_b, stream_seed, "psi-pairs-path",
                                      threads, reduce, levels))
    return {
        "conditional_mean": float(m), "conditional_mean_target": -0.5 * q,
        "conditional_se": float(s / math.sqrt(n_noise)),
        "conditional_var": float(s * s), "conditional_var_target": q,
        "conditional_var_se": float(s * s * math.sqrt(2.0 / (n_noise - 1))),
        "skewness": skew, "skew_se": math.sqrt(6.0 / n_noise),
        "exp_mean": float(ew.mean()),
        "exp_se": standard_error(ew),
    }
