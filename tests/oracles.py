"""Reference computations that only the tests read: samplers and closed forms
that unit tests compare the package's results against, and one-path or
whole-lattice views of those results.  No subcommand, demo, benchmark job or
acceptance criterion calls them, so they live here rather than in ``wickshe``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Literal, Sequence

import numpy as np

from wickshe import chain_moments
from wickshe.basis import MultiIndex, TruncationSpec, enumerate_multiindices, snapshot_at
from wickshe.chaos import ChaosCoefficients, order_norm, second_moment
from wickshe.feynman_kac import _occupation_sums
from wickshe.kernels import graded_panels, simplex_from_unit
from wickshe.propagator import PropagatorSolution
from wickshe.regularity import TAIL_SHARE_GATE, IncrementMomentCurve, TruncationTailError


def sample_xi_batch(indices: list[MultiIndex], g_matrix: np.ndarray) -> np.ndarray:
    """Cameron-Martin variables xi_alpha = prod_j H_{alpha_j}(W_{e_j}) / sqrt(alpha_j!)
    for every alpha in ``indices`` at every coordinate row of ``g_matrix``
    (draws, modes); returns (draws, len(indices)).

    Shares the per-mode Hermite tables across indices; used by Monte Carlo
    checks that need 1e5+ draws.
    """
    g_matrix = np.atleast_2d(np.asarray(g_matrix, dtype=float))
    n_draws, j_max = g_matrix.shape
    reach = max((len(a.entries) for a in indices), default=0)
    if reach > j_max:
        raise ValueError(f"support of an index reaches mode {reach} but only "
                         f"{j_max} coordinates were given")
    max_deg = max((a.degree() for a in indices), default=0)
    # H[d, draw, j] = H_d(g[draw, j]) / sqrt(d!)
    H = np.empty((max_deg + 1, n_draws, j_max))
    H[0] = 1.0
    if max_deg >= 1:
        H[1] = g_matrix
    for d in range(1, max_deg):
        H[d + 1] = g_matrix * H[d] - d * H[d - 1]
    for d in range(2, max_deg + 1):
        H[d] /= math.sqrt(math.factorial(d))
    out = np.ones((n_draws, len(indices)))
    for col, alpha in enumerate(indices):
        for j, aj in enumerate(alpha.entries, start=1):
            if aj:
                out[:, col] *= H[aj, :, j - 1]
    return out


def sample_realization_batch(coeffs: ChaosCoefficients, g_matrix: np.ndarray) -> np.ndarray:
    """Realizations sum_alpha F_alpha xi_alpha(g) of the truncated field for
    every coordinate row of ``g_matrix`` (draws, modes)."""
    g_matrix = np.atleast_2d(np.asarray(g_matrix, dtype=float))
    if g_matrix.shape[1] < coeffs.spec.max_mode:
        raise ValueError(f"need at least {coeffs.spec.max_mode} coordinates, "
                         f"got {g_matrix.shape[1]}")
    indices = list(coeffs.values.keys())
    xi = sample_xi_batch(indices, g_matrix)
    vals = np.array([coeffs.values[a] for a in indices])
    return xi @ vals


def stochastic_exponential_coefficients(psi_modes: Sequence[float],
                                        spec: TruncationSpec) -> ChaosCoefficients:
    """Coefficients of the stochastic exponential of a function with the given
    Hermite-mode coordinates: F_alpha = prod_j psi_j^{alpha_j} / sqrt(alpha_j!).

    Its S-transform at phi is exp(<phi, psi>) up to truncation tail; used as a
    closed-form oracle for the S-transform identities.
    """
    psi = np.asarray(psi_modes, dtype=float)
    vals: Dict[MultiIndex, float] = {}
    for a in enumerate_multiindices(spec):
        term = 1.0
        for j, aj in enumerate(a.entries, start=1):
            if aj:
                term *= psi[j - 1] ** aj / math.sqrt(math.factorial(aj))
        vals[a] = term
    return ChaosCoefficients(point=(0.0, 0.0), spec=spec, values=vals)


def increment_moments(field: Callable[[float, float], ChaosCoefficients],
                      base: tuple[float, float],
                      direction: Literal["space", "time"],
                      lags: Sequence[float]) -> IncrementMomentCurve:
    """Moment curve from a per-point coefficient supplier.

    ``field(t, x)`` must return coefficient tables on one shared truncation.
    The moments are exact at that truncation (no sampling noise enters).
    """
    lags = np.asarray(sorted(float(h) for h in lags))
    t0, x0 = base
    points = [(t0, x0)]
    for h in lags:
        points.append((t0 + h, x0) if direction == "time" else (t0, x0 + h))
    tables = {}
    worst_share = 0.0
    spec = None
    for (t, x) in points:
        c = field(t, x)
        if spec is None:
            spec = c.spec
        elif c.spec != spec:
            raise ValueError("supplier changed truncation between probe points")
        total = second_moment(c)
        share = order_norm(c, spec.max_order) / total if total > 0 else 0.0
        worst_share = max(worst_share, share)
        tables[(t, x)] = c
    if worst_share > TAIL_SHARE_GATE:
        raise TruncationTailError(
            f"top-order mass share {worst_share:.3%} exceeds the {TAIL_SHARE_GATE:.0%} gate; "
            "raise the truncation order before fitting slopes")
    base_c = tables[points[0]]
    moments = []
    for h, p in zip(lags, points[1:]):
        c = tables[p]
        keys = set(base_c.values) | set(c.values)
        moments.append(sum((c.get(a) - base_c.get(a)) ** 2 for a in keys))
    return IncrementMomentCurve(lags=lags, moments=np.asarray(moments),
                                tail_share=worst_share)


def occupation_functional(t_grid: np.ndarray, positions: np.ndarray,
                          phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Left-endpoint Riemann sum of int_0^t phi(B_s) ds along one path (its
    time grid and positions): the one-row case of the sum the path-side
    S-transforms use."""
    return float(_occupation_sums(positions[None, :-1], np.diff(t_grid), phi)[0])


def lattice_values(sol: PropagatorSolution, t: float, alpha: MultiIndex) -> np.ndarray:
    """One coefficient's Crank-Nicolson snapshot over the whole lattice."""
    return snapshot_at(sol.snapshots, t)[1][sol.indices.index(alpha)]


def tensor_box(n: int, t: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(times, weights) of the chain engine's tensor rule on one copy of the
    increment region v_n in [t, t+h], inner simplex below (n <= 2), mapped
    for this lag alone: the rows the engine scales from its unit box."""
    bx, bw = graded_panels(chain_moments._BOX_AXIS_NODES, 1.0)
    if n == 1:
        return (t + h * bx)[:, None], h * bw
    ui, wi = graded_panels(chain_moments._TENSOR_AXIS_NODES[1], chain_moments._AXIS_GRADING)
    nb, ni = bx.size, ui.size
    V, jv = _box_times(np.tile(ui, nb)[:, None], t + h * np.repeat(bx, ni))
    return V, jv * np.tile(wi, nb) * np.repeat(bw, ni) * h


def _box_times(inner: np.ndarray, v_top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner simplex rows below the top times v_n = v_top: the chain times
    with v_n as their last column, and the Jacobians."""
    Vin, jv = simplex_from_unit(inner, v_top)
    return np.concatenate([Vin, v_top[:, None]], axis=1), jv


def _sobol_box(n: int, t: float, h: float, U: np.ndarray):
    """One block U of Sobol rows mapped onto both copies of this lag's
    increment region: (v side, w side, weights)."""
    sides, wts = [], 1.0
    for half in (U[:, :n], U[:, n:]):
        V, jv = _box_times(half[:, :n - 1], t + h * half[:, n - 1])
        sides.append(chain_moments._chain_side(V))
        wts = wts * jv * h
    return sides[0], sides[1], wts / (1 << chain_moments._QMC_LOG2[n])


def box_blocks_per_lag(n: int, t: float, lags: Sequence[float], rng_seed: int):
    """Per lag k, the generator of the blocks (v side, w side, weights) of
    rule k of ``chain_moments._box_blocks``, each lag's region mapped from
    the rows on its own rather than scaled from the unit box."""
    def lag_blocks(h):
        if n <= 2:
            yield from chain_moments._square_blocks(*tensor_box(n, t, h))
            return
        for U in chain_moments._sobol_blocks(n, rng_seed):
            yield _sobol_box(n, t, h, U)

    return [lag_blocks(float(h)) for h in lags]
