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
threads ran them.  A reducer gets its block's positions and bins any
occupation profile it reads; a block whose position or profile array would
exceed ``ARRAY_BUDGET_BYTES`` is refused before anything is drawn.  Blocks go
through ``ordered_map``, which runs a single item inline; a caller with many
one-block ensembles (the fk double average) maps them over the workers
instead, each ensemble on one thread.

Memory: the reducer holds the only reference to its block's positions, and
the reducers that only bin them drop it right after binning, so a block's
positions are freed before its increment or noise arrays exist.  Row work
runs ``ROW_CHUNK`` rows at a time: the binning, the S-transform sums
int phi(B_s) ds and the noise draws of the psi law, each bit for bit the
whole-array result.

Common random numbers: ``s_transform_ensemble_mc`` reduces one ensemble to
the S-transform values of u and dx u for several test functions at once,
and ``local_time_ensemble_stats`` reduces one ensemble to the local-time
statistics at the start and the spatial increment law, from the same
per-block profiles.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

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
    "occupation_profiles",
    "EnsembleMemoryError",
    "check_array_budget",
]

DEFAULT_BLOCK = 2000
# rows per chunk of the row-by-row block work: the occupation binning, the
# S-transform sums and the psi-law noise draws
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
    identity da * sum L = t holds exactly (counting identity).
    """
    return occupation_profiles(positions[None, 1:], np.diff(t_grid), levels)[0]


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


def _positions(nb: int, steps: np.ndarray, x: float,
               stream: np.random.Generator) -> np.ndarray:
    """(nb, steps) positions at t_1..t_M, summed in place in the increments'
    array so that no second block-sized array outlives this call."""
    pos = stream.standard_normal((nb, steps.size))
    pos *= np.sqrt(steps)[None, :]
    np.cumsum(pos, axis=1, out=pos)
    pos += x
    return pos


def occupation_profiles(pos: np.ndarray, steps: np.ndarray,
                        levels: np.ndarray) -> np.ndarray:
    """(n_paths, n_bins) occupation histograms; each step adds its dt to the bin
    of its right endpoint.  Raises if a path escapes the level grid.

    Rows are binned ``ROW_CHUNK`` at a time through one reused bin-index
    buffer and one tiled step-weight array, so the transient memory is a few
    chunk-sized arrays beside the output.  Every bin still sums the steps of
    its own row in step order, so the result does not depend on the chunking.
    """
    da = float(levels[1] - levels[0])
    lo = float(levels[0] - 0.5 * da)
    K = levels.size
    nb, m = pos.shape
    out = np.empty((nb, K))
    rows = min(ROW_CHUNK, nb)
    buf = np.empty((rows, m))
    weights = np.tile(steps, rows)
    offsets = K * np.arange(rows)[:, None]
    for r0 in range(0, nb, rows):
        n = min(rows, nb - r0)
        idx = buf[:n]  # bin coordinate, computed in place until the cast
        np.subtract(pos[r0:r0 + n], lo, out=idx)
        idx /= da
        np.floor(idx, out=idx)
        if not (idx.min() >= 0 and idx.max() < K):
            raise ValueError("level grid does not cover the simulated paths")
        bins = idx.astype(np.int64)
        bins += offsets[:n]
        counts = np.bincount(bins.ravel(), weights=weights[:n * m], minlength=n * K)
        np.divide(counts.reshape(n, K), da, out=out[r0:r0 + n])
    return out


def _increment_shifts(h_values: Sequence[float], delta_a: float) -> dict[float, int]:
    """Level shift per nonzero lag h; every h must be a multiple of delta_a
    with h >= 2 delta_a."""
    shifts = {}
    for h in h_values:
        if h == 0.0:
            continue
        s = round(h / delta_a)
        if abs(s * delta_a - h) > 1e-9 or s < 2:
            raise ValueError(f"h={h} must be a multiple of delta_a={delta_a} with h >= 2 delta_a")
        shifts[float(h)] = s
    return shifts


def _increment_sums(prof: np.ndarray, shifts: dict[float, int], delta_a: float) -> dict:
    """Per lag, the block sum of int (L_a - L_{a-h})^2 da over its paths."""
    out = {}
    for h, s in shifts.items():
        D = prof[:, s:] - prof[:, :-s]
        D *= D
        out[h] = float(np.sum(D) * delta_a)
    return out


def _increment_table(h_values: Sequence[float], parts: Sequence[dict],
                     n_paths: int) -> list[tuple[float, float]]:
    table = []
    for h in sorted(float(v) for v in h_values):
        if h == 0.0:
            table.append((0.0, 0.0))
            continue
        total = sum(p[h] for p in parts)
        table.append((h, total / n_paths / h))
    return table


def ordered_map(fn: Callable[[object], object], items: Sequence, threads: int) -> list:
    """``[fn(i) for i in items]`` on up to ``threads`` worker threads, results in
    item order.  One item, or one thread, runs inline without a pool."""
    if threads <= 1 or len(items) <= 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def path_ensemble(t: float, x: float, dt: float, n_paths: int, stream_seed: int,
                  stream_label: str, threads: int,
                  reduce: Callable[[int, np.ndarray, np.ndarray], object],
                  levels: Optional[np.ndarray] = None) -> list:
    """Map ``reduce(b, steps, pos)`` over blocks of ``DEFAULT_BLOCK`` paths
    started at x; the last block may be short.

    Block b draws from ``substream(stream_seed, stream_label, b)``.  ``steps``
    are the time steps and ``pos`` the (paths, steps) positions at t_1..t_M.
    ``levels`` enters only the block budget; a reducer bins what it reads.
    Results come back in block order for any thread count.
    """
    n_steps = _step_count(t, dt)
    n_levels = 0 if levels is None else levels.size
    width, unit = (n_steps, "steps") if n_steps >= n_levels else (n_levels, "levels")
    check_array_budget(DEFAULT_BLOCK * width, f"a block of {DEFAULT_BLOCK} paths x {width} {unit}")
    steps = np.diff(_time_grid(t, dt))

    def one_block(b: int):
        nb = min(DEFAULT_BLOCK, n_paths - b * DEFAULT_BLOCK)
        # no reference here: the reducer holds the block's only one
        return reduce(b, steps, _positions(nb, steps, x, substream(stream_seed, stream_label, b)))

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

    def reduce(b, steps, pos) -> np.ndarray:
        prof = occupation_profiles(pos, steps, levels)
        psi = prof @ dW - 0.5 * da * np.einsum("ij,ij->i", prof, prof)
        return u0(pos[:, -1]) * np.exp(psi)

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

    Each block's left endpoints are formed, and every phi and phi_prime
    evaluated on them, ``ROW_CHUNK`` rows at a time; the sums go into one
    (paths,) array per callable, the same bits as ``phi(left) @ steps``
    over the whole block, so a block holds its positions and chunk-sized
    temporaries only.
    """
    need_dx = any(phi_prime is not None for _, phi_prime, _ in phis)
    if need_dx and not u0.has_derivative:
        raise ValueError("the S-transform of dx u needs an initial condition with a derivative")
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    for _, _, phi_sup in phis:
        if phi_sup is not None and phi_sup * t > 50.0:
            raise ValueError(f"exponent guard: sup|phi| * t = {phi_sup * t} > 50")

    def reduce(b, steps, pos) -> list:
        nb, m = pos.shape
        fns = [f for phi, phi_prime, _ in phis for f in (phi, phi_prime) if f is not None]
        occ = np.empty((len(fns), nb))
        rows = min(ROW_CHUNK, nb)
        # left endpoints: start point x plus all but the last position
        left = np.empty((rows, m))
        left[:, 0] = x
        for r0 in range(0, nb, rows):
            n = min(rows, nb - r0)
            left[:n, 1:] = pos[r0:r0 + n, :-1]
            for k, f in enumerate(fns):
                occ[k, r0:r0 + n] = _occupation_sums(left[:n], steps, f)
        end = pos[:, -1]
        u_end = u0(end)
        du_end = u0.derivative(end) if need_dx else None
        sums = iter(occ)
        out = []
        for _, phi_prime, _ in phis:
            grow = np.exp(next(sums))
            u = u_end * grow
            dx = None
            if phi_prime is not None:
                # u0'(B_t) e^{int phi} + u0(B_t) e^{int phi} int phi'
                dx = du_end * grow + u * next(sums)
            out.append((u, dx))
        return out

    parts = path_ensemble(t, x, dt, n_paths, stream_seed, stream_label, threads, reduce)

    def estimate(i: int, field: int) -> tuple[float, float]:
        vals = np.concatenate([p[i][field] for p in parts])
        return float(vals.mean()), standard_error(vals)

    return [(estimate(i, 0), None if phi_prime is None else estimate(i, 1))
            for i, (_, phi_prime, _) in enumerate(phis)]


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
    delta_a with h >= 2 delta_a (checked before anything is drawn); h = 0
    gives exactly 0.  The lags leave the statistics unchanged.
    """
    shifts = _increment_shifts(h_values, delta_a)
    levels = build_level_grid(t, x, delta_a)
    j0 = int(np.argmin(np.abs(levels - x)))

    def reduce(b, steps, pos):
        prof = occupation_profiles(pos, steps, levels)
        del pos  # frees the block's positions before the increments are formed
        mass_err = np.abs(delta_a * prof.sum(axis=1) - t).max()
        # copy the column: a view would keep the whole block's profiles alive
        return (prof[:, j0].copy(), delta_a * np.einsum("ij,ij->i", prof, prof), mass_err,
                _increment_sums(prof, shifts, delta_a))

    parts = path_ensemble(t, x, dt, n_paths, stream_seed, stream_label, threads,
                          reduce, levels)
    L0 = np.concatenate([p[0] for p in parts])
    Q = np.concatenate([p[1] for p in parts])
    mass_defect = max(p[2] for p in parts)
    return {
        "mean_L_at_start": float(L0.mean()),
        "se_L_at_start": standard_error(L0),
        "mean_int_L2": float(Q.mean()),
        "se_int_L2": standard_error(Q),
        "mass_identity_defect": float(mass_defect),
        "bias_budget_L": math.sqrt(2.0 * dt / math.pi) + delta_a * delta_a,
        "bias_budget_L2": math.sqrt(dt) + 0.5 * delta_a,
        "increment_table": _increment_table(h_values, [p[3] for p in parts], n_paths),
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
    those two arrays are what the budget counts.  The pairs reducer drops
    each block's positions once they are binned, before it draws that
    block's noise.
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
    def reduce(b, steps, pos):
        profs = occupation_profiles(pos, steps, levels)
        del pos  # frees the block's positions before its noise is drawn
        dWb = substream(stream_seed, "psi-pairs-noise", b).standard_normal(profs.shape)
        dWb *= math.sqrt(da)
        return np.exp(np.einsum("ij,ij->i", profs, dWb)
                      - 0.5 * da * np.einsum("ij,ij->i", profs, profs))

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
