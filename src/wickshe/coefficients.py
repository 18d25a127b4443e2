"""Deterministic quadrature of the iterated-kernel coefficient formulas.

For a multi-index alpha with |alpha| = n >= 1 and characteristic vector k,
the solution-field coefficient at (t, x) is

    u_alpha(t,x) = (alpha!)^{-1/2} sum_{sigma in P_n} C(k_sigma(1), ..., k_sigma(n)),

    C(m_1..m_n) = int_{0<=s_1<=...<=s_n<=t} int_{R^n}
                  p(t-s_n, x-y_n) p(s_n-s_{n-1}, y_n-y_{n-1}) ... p(s_2-s_1, y_2-y_1)
                  e_{m_1}(y_1) ... e_{m_n}(y_n) u_bar(s_1, y_1)  dy ds,

with u_bar(s, y) the heat semigroup of the initial datum.  The derivative
field replaces the leading kernel p(t - s_n, x - y_n) by its x-derivative;
the epsilon-regularized variant integrates s over [0, t - eps] only.

Spatial integrals run on a composite Gauss-Legendre grid; transfer operators
P(tau) between grid functions fall back to a panel-spectral Taylor
I + (tau/2) D2 + (tau^2/8) D2^2 once tau is below the width the grid can
resolve (per-coefficient integrands are regular there, the grid just cannot
represent a near-delta kernel).  One level sweep assembles C for all mode
tuples of the level at once, so computing every |alpha| = n coefficient
costs barely more than one.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from .basis import (MultiIndex, TruncationSpec, ZERO_INDEX, _distinct_permutations,
                    enumerate_multiindices, hermite_function_table)
from .kernels import (HeatOperator, InitialCondition, SimplexSpec, simplex_map,
                      apply_heat_semigroup, apply_heat_semigroup_dx)

__all__ = [
    "CoefficientQuadrature",
    "cs_coefficient",
    "dx_coefficient",
    "cs_level_coefficients",
    "dx_level_coefficients",
]

QUADRATURE_ORDER_CAP = 3  # cost is (time nodes)^n (m^2) per level sweep
CONVERGENCE_TOL = 1e-3  # refined-mesh check, relative floored at absolute


class CoefficientQuadrature:
    """Shared spatial grid, heat transfer operator and time-simplex settings."""

    def __init__(self, half_width: float = 12.0, panels: int = 48,
                 nodes_per_panel: int = 16, time_points: int = 12,
                 grading: float = 2.0):
        self.heat = HeatOperator(half_width, panels, nodes_per_panel)
        self.grid = self.heat.grid
        self.panels = panels
        self.npp = nodes_per_panel
        self.time_points = time_points
        self.grading = grading
        self.tau_res = self.heat.tau_res

    # -- transfer operators --------------------------------------------------

    def kernel_matrix(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """P(tau) from grid functions to grid values (quadrature weights
        included) as block-Toeplitz panel blocks; Taylor fallback below the
        resolvable width."""
        return self.heat.blocks(tau)

    def apply_P(self, tau: float, V: np.ndarray) -> np.ndarray:
        """P(tau) applied to rows-last arrays of grid functions."""
        return self.heat.apply(self.kernel_matrix(tau), V)

    def u0_on_grid(self, u0: InitialCondition, s: float) -> np.ndarray:
        """u_bar(s, .) on the grid (s = 0 allowed)."""
        base = u0(self.grid.nodes)
        return base if s <= 0.0 else self.apply_P(s, base)


# ---------------------------------------------------------------------------
# level sweeps


def _level_sweep(n: int, t: float, x: float, u0: InitialCondition,
                 J: int, quad: CoefficientQuadrature, deriv: bool,
                 horizon: float | None = None) -> np.ndarray:
    """C[m_1, ..., m_n] for all mode tuples in {1..J}^n (0-based array).

    ``horizon`` < t gives the epsilon-regularized variant (s_n <= horizon)
    while the leading kernel keeps its t - s_n argument.
    """
    if n < 1:
        raise ValueError("level sweep needs n >= 1")
    if n > QUADRATURE_ORDER_CAP:
        raise ValueError(f"order {n} exceeds quadrature cap {QUADRATURE_ORDER_CAP}; "
                         "use the propagator or spectral engines")
    th = t if horizon is None else horizon
    if not 0 < th <= t:
        raise ValueError("horizon must lie in (0, t]")
    spec = SimplexSpec(order=n, horizon=th, points_per_axis=quad.time_points,
                       grading=quad.grading)
    pts, wts = simplex_map(spec)
    E = hermite_function_table(J, quad.grid.nodes)      # (J, m)
    out = np.zeros((J,) * n)
    for idx in range(pts.shape[0]):
        s = pts[idx]
        w = wts[idx]
        V = E * quad.u0_on_grid(u0, s[0])[None, :]       # (J, m): e_{m1} u_bar(s1)
        shape = (J,)
        for k in range(1, n):
            V = quad.apply_P(s[k] - s[k - 1], V)
            V = (E[:, None, :] * V[None, ...]).reshape(-1, quad.grid.nodes.size)
            shape = (J,) + shape
        lead = V @ quad.heat.row(t - s[n - 1], x, deriv)
        out += w * lead.reshape(shape).T if n > 1 else w * lead
    return out


def _assemble_from_sweep(C: np.ndarray, alpha: MultiIndex) -> float:
    """(alpha!)^{-1/2} sum over permutations of C at the characteristic vector."""
    k = alpha.characteristic_vector()
    total = 0.0
    for arrangement in _distinct_permutations(tuple(k)):
        total += float(C[tuple(m - 1 for m in arrangement)])
    afact = alpha.factorial()
    # each distinct arrangement stands for alpha! identical permutations
    return total * afact / math.sqrt(afact)


def _level_coefficients(n: int, t: float, x: float, u0: InitialCondition,
                        spec: TruncationSpec, quad: CoefficientQuadrature | None,
                        deriv: bool) -> Dict[MultiIndex, float]:
    quad = quad or CoefficientQuadrature()
    C = _level_sweep(n, t, x, u0, spec.max_mode, quad, deriv=deriv)
    out: Dict[MultiIndex, float] = {}
    for alpha in enumerate_multiindices(spec):
        if alpha.degree() == n:
            out[alpha] = _assemble_from_sweep(C, alpha)
    return out


def cs_level_coefficients(n: int, t: float, x: float, u0: InitialCondition,
                          spec: TruncationSpec,
                          quad: CoefficientQuadrature | None = None) -> Dict[MultiIndex, float]:
    """All solution-field coefficients of degree n at (t, x) in one sweep."""
    return _level_coefficients(n, t, x, u0, spec, quad, deriv=False)


def dx_level_coefficients(n: int, t: float, x: float, u0: InitialCondition,
                          spec: TruncationSpec,
                          quad: CoefficientQuadrature | None = None) -> Dict[MultiIndex, float]:
    """All derivative-field coefficients of degree n at (t, x) in one sweep."""
    return _level_coefficients(n, t, x, u0, spec, quad, deriv=True)


def _coefficient(name: str, alpha: MultiIndex, t: float, x: float, u0: InitialCondition,
                 quad: CoefficientQuadrature | None, deriv: bool, epsilon: float = 0.0,
                 check_convergence: bool = False) -> float:
    """One coefficient of u (or of its x-derivative); ``name`` heads the errors."""
    if t <= 0:
        raise ValueError(f"{name} needs t > 0")
    if epsilon < 0 or epsilon >= t:
        raise ValueError("epsilon must lie in [0, t)")
    quad = quad or CoefficientQuadrature()
    if alpha == ZERO_INDEX:
        semigroup = apply_heat_semigroup_dx if deriv else apply_heat_semigroup
        return float(semigroup(u0, t, x, quad.grid))
    n = alpha.degree()
    J = len(alpha.entries)
    horizon = None if epsilon == 0.0 else t - epsilon
    C = _level_sweep(n, t, x, u0, J, quad, deriv=deriv, horizon=horizon)
    val = _assemble_from_sweep(C, alpha)
    if check_convergence:
        fine = CoefficientQuadrature(half_width=quad.grid.half_width, panels=quad.panels,
                                     nodes_per_panel=quad.npp,
                                     time_points=quad.time_points * 2,
                                     grading=quad.grading)
        val2 = _coefficient(name, alpha, t, x, u0, fine, deriv, epsilon)
        if abs(val - val2) > max(CONVERGENCE_TOL, CONVERGENCE_TOL * abs(val2)):
            raise ValueError(f"{name} did not converge on mesh refinement: "
                             f"{val} vs {val2}")
        val = val2
    return val


def cs_coefficient(alpha: MultiIndex, t: float, x: float, u0: InitialCondition,
                   quad: CoefficientQuadrature | None = None) -> float:
    """Solution-field coefficient u_alpha(t, x) by simplex quadrature of the
    iterated-kernel formula; the (0)-coefficient is the plain heat semigroup."""
    return _coefficient("cs_coefficient", alpha, t, x, u0, quad, deriv=False)


def dx_coefficient(alpha: MultiIndex, t: float, x: float, u0: InitialCondition,
                   epsilon: float = 0.0,
                   quad: CoefficientQuadrature | None = None,
                   check_convergence: bool = False) -> float:
    """Derivative-field coefficient K_alpha^eps(t, x).

    eps = 0 integrates up to the singular endpoint on the graded mesh; with
    ``check_convergence`` the value is recomputed on a refined mesh and a
    ValueError is raised if the two differ by more than ``CONVERGENCE_TOL``
    (relative, floored at the absolute tolerance).
    """
    return _coefficient("dx_coefficient", alpha, t, x, u0, quad, deriv=True, epsilon=epsilon,
                        check_convergence=check_convergence)
