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

Spatial integrals run on a composite Gauss-Legendre grid, and every one of
them goes through one transfer operator P(tau) between grid functions,
held with the grid by ``CoefficientQuadrature``:
block-Toeplitz panel blocks formed only within the Gaussian's reach
(``KERNEL_CUTOFF``), point rows, and below the width the grid can
resolve a panel-spectral Taylor I + (tau/2) D2 + (tau^2/8) D2^2
(per-coefficient integrands are regular there, the grid just cannot
represent a near-delta kernel).  One level sweep assembles C for all mode
tuples of the level at once, so computing every |alpha| = n coefficient
costs barely more than one; a sweep whose arrays would take more than
``feynman_kac.ARRAY_BUDGET_BYTES`` is refused before it starts.  The time simplex has one fixed rule, one
``TIME_POINTS``-node Gauss-Legendre panel per axis under the smoothstep warp
of ``kernels.simplex_from_unit``, shared with the chain kernels of
``wiener_kernels``.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Dict

import numpy as np

from .basis import (MultiIndex, TruncationSpec, ZERO_INDEX, enumerate_multiindices,
                    hermite_function_table)
from .feynman_kac import check_array_budget
from .kernels import (NODES_PER_PANEL, InitialCondition, _panel_rule,
                      apply_heat_semigroup, apply_heat_semigroup_dx, build_line_grid,
                      heat_kernel, heat_kernel_dx, require_cover, simplex_map)

__all__ = [
    "CoefficientQuadrature",
    "cs_coefficient",
    "dx_coefficient",
    "cs_level_coefficients",
    "dx_level_coefficients",
]

# simplex nodes per time axis, one Gauss-Legendre panel under the smoothstep
# warp, which absorbs the s_n -> t singularity; the level sweep and the chain
# kernels share it
TIME_POINTS = 12
QUADRATURE_ORDER_CAP = 3  # cost grows as TIME_POINTS^n per sweep or kernel value
# P(tau) forms only the panel blocks within the reach r of the Gaussian,
# exp(-r^2 / (2 tau)) = KERNEL_CUTOFF: an entry left out is below this share of
# p(tau, 0) w_b, 7 bits under the rounding of a double
KERNEL_CUTOFF = 2.0 ** -60


def _bary_weights(xs: np.ndarray) -> np.ndarray:
    w = np.ones_like(xs)
    for i in range(xs.size):
        w[i] = 1.0 / np.prod(xs[i] - np.delete(xs, i))
    return w


def _lagrange_diff(xs: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix on arbitrary distinct nodes."""
    n = xs.size
    bw = _bary_weights(xs)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = bw[j] / bw[i] / (xs[i] - xs[j])
        D[i, i] = -np.sum(D[i])
    return D


class CoefficientQuadrature:
    """The line grid of ``build_line_grid`` and the transfer operator P(tau)
    between grid functions on it.

    Every panel is a translate of one local q-node rule (nodes g, weights
    w), so P(tau) is block-Toeplitz in the panel offset d = p_out - p_in:

        K_d[a, b] = p(tau, d * width + g_a - g_b) w_b,

    one q x q block per offset |d| <= min(P - 1, floor(r / width) + 1) with
    r = sqrt(2 tau ln(1 / KERNEL_CUTOFF)) the Gaussian's reach, of which
    those with a non-zero entry are kept.  Nodes of panels d apart lie at
    least (|d| - 1) width apart, so every entry of a block beyond the reach
    is below KERNEL_CUTOFF p(tau, 0) w_b.  Below the resolvable width
    tau_res the grid cannot represent the near-delta kernel and P(tau) is
    the panel-spectral Taylor I + (tau/2) D2 + (tau^2/8) D2^2,
    block-diagonal with one shared block.  No m x m array is ever formed.
    """

    def __init__(self, half_width: float = 12.0, panels: int = 48):
        self.grid = build_line_grid(half_width, panels)
        self.panels = panels
        self.q = NODES_PER_PANEL
        self.width = 2.0 * half_width / panels
        self.tau_res = (self.width / 5.0) ** 2
        self.local_nodes, self.local_weights = _panel_rule(  # about the panel centre
            np.array([-0.5, 0.5]) * self.width, self.q)
        self.bary = _bary_weights(self.local_nodes)
        self.D1 = _lagrange_diff(self.local_nodes)
        self.D2 = self.D1 @ self.D1
        self.D2sq = self.D2 @ self.D2

    def _taylor(self, tau, M: np.ndarray) -> np.ndarray:
        """M times the Taylor block I + (tau/2) D2 + (tau^2/8) D2^2, one
        product per entry of tau (leading axes)."""
        tau = np.reshape(tau, np.shape(tau) + (1,) * M.ndim)
        return M + (tau / 2.0) * (M @ self.D2) + (tau * tau / 8.0) * (M @ self.D2sq)

    def kernel_matrix(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """P(tau) as (panel offsets d, blocks K_d of shape (len(d), q, q)),
        quadrature weights included, the offsets within the Gaussian's
        reach; the Taylor block below tau_res."""
        if tau < self.tau_res:
            return np.zeros(1, dtype=int), self._taylor(tau, np.eye(self.q))[None]
        D = self.reach_offset(tau)
        d = np.arange(-D, D + 1)
        g = self.local_nodes
        diff = (d * self.width)[:, None, None] + (g[:, None] - g[None, :])
        K = heat_kernel(tau, diff) * self.local_weights
        keep = np.any(K != 0.0, axis=(1, 2))
        return d[keep], K[keep]

    def reach_offset(self, tau: float) -> int:
        """The largest panel offset |d| of the blocks P(tau) forms: 0 for
        the Taylor block below tau_res, and non-decreasing in tau."""
        if tau < self.tau_res:
            return 0
        reach = math.sqrt(-2.0 * tau * math.log(KERNEL_CUTOFF))
        return min(self.panels - 1, math.floor(reach / self.width) + 1)

    def apply_P(self, tau: float, V: np.ndarray) -> np.ndarray:
        """P(tau) applied to rows-last arrays of grid functions, panel by panel."""
        P, q = self.panels, self.q
        V = np.asarray(V, dtype=float)
        X = np.ascontiguousarray(V.reshape(-1, P, q).transpose(1, 0, 2))   # (P, rows, q)
        rows = X.shape[1]
        out = np.zeros_like(X)
        offsets, blocks = self.kernel_matrix(tau)
        for d, K in zip(offsets.tolist(), blocks):
            # output panels lo..lo+k-1 collect K_d applied to input panel p - d
            lo, k = max(d, 0), P - abs(d)
            src = X[lo - d:lo - d + k].reshape(-1, q)
            out[lo:lo + k] += (src @ K.T).reshape(k, rows, q)
        return out.transpose(1, 0, 2).reshape(V.shape)

    def _interp(self, x: float) -> tuple[slice, np.ndarray]:
        """The grid slice of the panel containing x and x's interpolation
        weights on it."""
        p = int(np.clip((x + self.grid.half_width) // self.width, 0, self.panels - 1))
        sl = slice(p * self.q, (p + 1) * self.q)
        xs = self.grid.nodes[sl]
        if np.any(np.abs(xs - x) < 1e-14):
            w = np.zeros(self.q)
            w[int(np.argmin(np.abs(xs - x)))] = 1.0
        else:
            w = self.bary / (x - xs)
            w = w / w.sum()
        return sl, w

    def row(self, tau, x: float, deriv: int = 0) -> np.ndarray:
        """The quadrature row r with [P(tau) v](x) = r . v, or with the
        x-derivative of P(tau) v for ``deriv`` = 1; an array of tau gives one
        row per entry, shape (len(tau), m).

        At or above tau_res r is the Gaussian kernel row times the grid
        weights; below it, x's panel-interpolation weights times D1^deriv
        times the Taylor block of ``kernel_matrix``.  An x off the grid
        [-L, L] is refused: the edge panel's interpolant diverges there.
        """
        if abs(x) > self.grid.half_width:
            raise ValueError(f"x = {x} lies off the grid [-{self.grid.half_width}, "
                             f"{self.grid.half_width}]")
        taus = np.atleast_1d(np.asarray(tau, dtype=float))
        small = taus < self.tau_res
        out = np.zeros((taus.size, self.grid.nodes.size))
        if not small.all():
            kernel = heat_kernel_dx if deriv else heat_kernel
            gauss = kernel(taus[~small, None], x - self.grid.nodes)
            gauss *= self.grid.weights
            out[~small] = gauss
        if small.any():
            sl, w = self._interp(x)
            out[small, sl] = self._taylor(taus[small], w @ self.D1 if deriv else w)
        return out if np.ndim(tau) else out[0]


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
    m = quad.grid.nodes.size
    # what the sweep below holds, in float64 values: V at the top two levels
    # (J^n and J^(n-1) rows, where the last product forms) and E, J rows, of
    # m grid values; the J^n output table; and P(tau)'s offset blocks with
    # kernel_matrix's temporaries, 4 (2D + 1) q^2 at the widest offset D,
    # that of tau = th, since no tau of the sweep exceeds th
    check_array_budget((J ** n + J ** (n - 1) + J) * m + J ** n
                       + 4 * (2 * quad.reach_offset(th) + 1) * quad.q ** 2,
                       f"the level-{n} sweep of {J}^{n} mode tuples x {m} grid nodes")
    pts, wts = simplex_map(n, th, TIME_POINTS)
    E = hermite_function_table(J, quad.grid.nodes)      # (J, m)
    base = u0(quad.grid.nodes)
    out = np.zeros((J,) * n)
    for idx in range(pts.shape[0]):
        s = pts[idx]
        w = wts[idx]
        V = E * quad.apply_P(s[0], base)[None, :]        # (J, m): e_{m1} u_bar(s1), s1 > 0
        shape = (J,)
        for k in range(1, n):
            V = quad.apply_P(s[k] - s[k - 1], V)
            V = (E[:, None, :] * V[None, ...]).reshape(-1, quad.grid.nodes.size)
            shape = (J,) + shape
        lead = V @ quad.row(t - s[n - 1], x, deriv)
        out += w * lead.reshape(shape).T if n > 1 else w * lead
    return out


def _assemble_from_sweep(C: np.ndarray, alpha: MultiIndex) -> float:
    """(alpha!)^{-1/2} sum over permutations of C at the characteristic vector."""
    total = 0.0
    # distinct arrangements, lexicographically descending: a fixed summation order
    for arrangement in sorted(set(permutations(alpha.characteristic_vector())), reverse=True):
        total += float(C[tuple(m - 1 for m in arrangement)])
    afact = alpha.factorial()
    # each distinct arrangement stands for alpha! identical permutations
    return total * afact / math.sqrt(afact)


def _level_coefficients(n: int, t: float, x: float, u0: InitialCondition,
                        spec: TruncationSpec, quad: CoefficientQuadrature | None,
                        deriv: bool) -> Dict[MultiIndex, float]:
    if t <= 0:
        raise ValueError("level coefficients need t > 0")
    quad = quad or CoefficientQuadrature()
    require_cover(quad.grid.half_width, t, x)
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
                 quad: CoefficientQuadrature | None, deriv: bool, epsilon: float = 0.0) -> float:
    """One coefficient of u (or of its x-derivative); ``name`` heads the errors."""
    if t <= 0:
        raise ValueError(f"{name} needs t > 0")
    if epsilon < 0 or epsilon >= t:
        raise ValueError("epsilon must lie in [0, t)")
    quad = quad or CoefficientQuadrature()
    require_cover(quad.grid.half_width, t, x)
    if alpha == ZERO_INDEX:
        semigroup = apply_heat_semigroup_dx if deriv else apply_heat_semigroup
        return float(semigroup(u0, t, x, quad.grid))
    n = alpha.degree()
    J = len(alpha.entries)
    horizon = None if epsilon == 0.0 else t - epsilon
    C = _level_sweep(n, t, x, u0, J, quad, deriv=deriv, horizon=horizon)
    return _assemble_from_sweep(C, alpha)


def cs_coefficient(alpha: MultiIndex, t: float, x: float, u0: InitialCondition,
                   quad: CoefficientQuadrature | None = None) -> float:
    """Solution-field coefficient u_alpha(t, x) by simplex quadrature of the
    iterated-kernel formula; the (0)-coefficient is the plain heat semigroup."""
    return _coefficient("cs_coefficient", alpha, t, x, u0, quad, deriv=False)


def dx_coefficient(alpha: MultiIndex, t: float, x: float, u0: InitialCondition,
                   epsilon: float = 0.0,
                   quad: CoefficientQuadrature | None = None) -> float:
    """Derivative-field coefficient K_alpha^eps(t, x); eps = 0 integrates up
    to the singular endpoint t, which the warped simplex rule absorbs."""
    return _coefficient("dx_coefficient", alpha, t, x, u0, quad, deriv=True, epsilon=epsilon)
