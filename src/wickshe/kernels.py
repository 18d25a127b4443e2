"""Gaussian heat kernel, its spatial derivative, closed-form cross-integrals,
and the quadrature rules (spatial line, time simplex) shared by the
deterministic solvers.  The transfer operator P(tau) on the line grid is
``coefficients.CoefficientQuadrature``.

Domain truncation and mesh grading are artifact decisions: the spatial line
is cut at [-L, L] with L large enough that both the kernel mass and the
Hermite-function mass outside are below 1e-8, and simplex meshes are graded
geometrically toward the singular time endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "heat_kernel",
    "heat_kernel_dx",
    "dxp_cross_inner",
    "QuadratureGrid",
    "build_line_grid",
    "NODES_PER_PANEL",
    "simplex_quadrature",
    "simplex_map",
    "graded_panels",
    "tensor_rule",
    "simplex_from_unit",
    "increments",
    "InitialCondition",
    "constant_ic",
    "sine_ic",
    "gaussian_bump_ic",
    "tanh_ic",
    "INITIAL_CONDITIONS",
    "initial_condition_from_tag",
    "apply_heat_semigroup",
    "apply_heat_semigroup_dx",
    "covers",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)


def heat_kernel(t, x) -> float | np.ndarray:
    """Gaussian heat kernel p(t, x) = (2 pi t)^{-1/2} exp(-x^2 / (2t)), t > 0;
    t and x broadcast against each other."""
    if np.any(np.asarray(t) <= 0):
        raise ValueError(f"heat_kernel needs t > 0, got t = {t}")
    out = np.asarray(-np.square(x, dtype=float) / (2.0 * t))
    np.exp(out, out=out)  # in place: one allocation for a whole row block
    out /= np.sqrt(2.0 * math.pi * t)
    return out if out.ndim else float(out)


def heat_kernel_dx(t, x) -> float | np.ndarray:
    """Spatial derivative of the heat kernel: -(x/t) p(t, x)."""
    return -(np.asarray(x, dtype=float) / t) * heat_kernel(t, x)


def dxp_cross_inner(t1: float, t2: float, x1: float, x2: float) -> float:
    """Closed form of the cross integral of two kernel derivatives,

        int dxp(t1, x1 - z) dxp(t2, x2 - z) dz
            = (2 pi)^{-1/2} e^{-d^2/(2T)} T^{-3/2} (1 - d^2/T),

    with d = x1 - x2 and T = t1 + t2.  Symmetric under (t1,x1) <-> (t2,x2);
    reduces to (2 pi)^{-1/2} T^{-3/2} at x1 = x2.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("dxp_cross_inner needs positive times")
    d = x1 - x2
    T = t1 + t2
    return math.exp(-d * d / (2.0 * T)) / SQRT_2PI * T ** -1.5 * (1.0 - d * d / T)


# ---------------------------------------------------------------------------
# spatial line quadrature


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre rule on [-L, L]; nodes strictly increasing,
    weights positive, total weight 2L."""

    half_width: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if abs(self.weights.sum() - 2 * self.half_width) > 1e-12 * max(1.0, self.half_width):
            raise ValueError("weights do not integrate the constant 1 to 2L")


NODES_PER_PANEL = 16  # spectral accuracy on the smooth integrands between singular endpoints


def build_line_grid(half_width: float, panels: int = 48) -> QuadratureGrid:
    """Uniform composite Gauss-Legendre panels of ``NODES_PER_PANEL`` nodes
    on [-L, L]; ``panels`` controls the resolvable kernel width (roughly
    sqrt(t) down to ~ (2L/panels/4)^2)."""
    edges = np.linspace(-half_width, half_width, panels + 1)
    nodes, weights = _panel_rule(edges, NODES_PER_PANEL)
    return QuadratureGrid(half_width=half_width, nodes=nodes, weights=weights)


def _panel_rule(edges: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule, q nodes per panel between edges."""
    gx, gw = np.polynomial.legendre.leggauss(q)
    nodes = np.concatenate([0.5 * (hi - lo) * gx + 0.5 * (hi + lo)
                            for lo, hi in zip(edges[:-1], edges[1:])])
    weights = np.concatenate([0.5 * (hi - lo) * gw
                              for lo, hi in zip(edges[:-1], edges[1:])])
    return nodes, weights


# ---------------------------------------------------------------------------
# initial conditions


@dataclass(frozen=True)
class InitialCondition:
    """Bounded initial datum with optional derivative.

    ``evaluator`` must be vectorized over numpy arrays.  ``sup_norm`` bounds
    |u0|.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    tag: str = "custom"
    derivative_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=float)

    def derivative(self, x) -> np.ndarray:
        if self.derivative_evaluator is None:
            raise ValueError(f"initial condition '{self.tag}' has no derivative evaluator")
        return np.asarray(self.derivative_evaluator(np.asarray(x, dtype=float)), dtype=float)

    @property
    def has_derivative(self) -> bool:
        return self.derivative_evaluator is not None


def constant_ic(value: float = 1.0) -> InitialCondition:
    return InitialCondition(
        evaluator=lambda x: np.full_like(np.asarray(x, dtype=float), value),
        derivative_evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sup_norm=abs(value), tag="constant")


def sine_ic(amplitude: float = 1.0) -> InitialCondition:
    return InitialCondition(
        evaluator=lambda x: amplitude * np.sin(x),
        derivative_evaluator=lambda x: amplitude * np.cos(x),
        sup_norm=abs(amplitude), tag="sine")


def gaussian_bump_ic(center: float = 0.0, width: float = 1.0, height: float = 1.0) -> InitialCondition:
    w2 = width * width

    def f(x):
        return height * np.exp(-(x - center) ** 2 / (2 * w2))

    def df(x):
        return -height * (x - center) / w2 * np.exp(-(x - center) ** 2 / (2 * w2))

    return InitialCondition(evaluator=f, derivative_evaluator=df, sup_norm=abs(height),
                            tag="gaussian_bump")


def tanh_ic(scale: float = 1.0) -> InitialCondition:
    return InitialCondition(
        evaluator=lambda x: np.tanh(scale * x),
        derivative_evaluator=lambda x: scale / np.cosh(scale * x) ** 2,
        sup_norm=1.0, tag="tanh")


# the package's one list of initial-condition tags: tag -> constructor of the
# condition at a given amplitude
INITIAL_CONDITIONS: dict[str, Callable[[float], InitialCondition]] = {
    "constant": constant_ic,
    "sine": sine_ic,
    "gaussian_bump": lambda amplitude: gaussian_bump_ic(height=amplitude),
    "tanh": lambda amplitude: tanh_ic(scale=amplitude),
}


def initial_condition_from_tag(tag: str, amplitude: float = 1.0) -> InitialCondition:
    if tag not in INITIAL_CONDITIONS:
        raise ValueError(f"unknown initial condition tag '{tag}'")
    return INITIAL_CONDITIONS[tag](amplitude)


# ---------------------------------------------------------------------------
# heat semigroup applications


def covers(half_width: float, t: float, x: float) -> bool:
    """Whether [-half_width, half_width] holds the heat kernel p(t, x - .)
    out to six standard deviations: |x| + 6 sqrt(t) <= half_width."""
    return abs(x) + 6.0 * math.sqrt(t) <= half_width


def _semigroup_quadrature(kernel, u0: InitialCondition, t: float, x, grid: QuadratureGrid):
    """int kernel(t, x - y) u0(y) dy by line quadrature, at each x."""
    if t <= 0:
        raise ValueError(f"the heat semigroup needs t > 0, got t = {t}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    for xv in xs.tolist():
        if not covers(grid.half_width, t, xv):
            raise ValueError(
                f"grid half-width {grid.half_width} insufficient for x = {xv}, t = {t} "
                f"(need |x| + 6 sqrt(t))")
    out = kernel(t, xs[:, None] - grid.nodes[None, :]) @ (u0(grid.nodes) * grid.weights)
    return out if np.ndim(x) else float(out[0])


def apply_heat_semigroup(u0: InitialCondition, t: float, x, grid: QuadratureGrid) -> float | np.ndarray:
    """(P_t u0)(x) = int p(t, x - y) u0(y) dy by line quadrature."""
    return _semigroup_quadrature(heat_kernel, u0, t, x, grid)


def apply_heat_semigroup_dx(u0: InitialCondition, t: float, x, grid: QuadratureGrid) -> float | np.ndarray:
    """d/dx of the heat semigroup, int dxp(t, x - y) u0(y) dy."""
    return _semigroup_quadrature(heat_kernel_dx, u0, t, x, grid)


# ---------------------------------------------------------------------------
# time-simplex quadrature


SIMPLEX_ORDER_CAP = 4  # cost grows as points^n; higher orders use other engines


def graded_panels(n_points: int, grading: float,
                  both_ends: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (0,1) from Gauss-Legendre panels graded toward the
    endpoint(s): panel edges u^grading (and mirrored when both_ends)."""
    per_panel = 6
    if both_ends:
        n_half = max(1, round(n_points / (2 * per_panel)))
        half = 0.5 * np.linspace(0.0, 1.0, n_half + 1) ** grading
        edges = np.unique(np.concatenate([half, (1 - half[:-1])[::-1]]))
    else:
        n_panels = max(1, round(n_points / per_panel))
        edges = np.linspace(0.0, 1.0, n_panels + 1) ** grading
    return _panel_rule(edges, per_panel)


def tensor_rule(xs: np.ndarray, ws: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The dim-fold tensor product of the rule (xs, ws): nodes (len(xs)^dim,
    dim), with the last axis varying fastest, and their weights."""
    grids = np.meshgrid(*([xs] * dim), indexing="ij")
    wmesh = np.ones_like(grids[0])
    for wa in np.ix_(*([ws] * dim)):
        wmesh = wmesh * wa
    return np.stack([g.ravel() for g in grids], axis=1), wmesh.ravel()


def simplex_from_unit(U: np.ndarray, horizon: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map unit-cube rows to ordered simplex times v_1 <= ... <= v_n <= horizon
    (a scalar or one horizon per row); returns (times (B, n), Jacobians (B,)).

    Each axis first takes the smoothstep warp x = 3 u^2 - 2 u^3; its Jacobian
    6 u (1 - u) turns x^{-1/2}- and (1-x)^{-1/2}-type endpoint singularities
    into smooth integrands (and softens any exponent > -1), which plain
    graded Gauss panels resolve poorly.  Then the nested substitution
    v_n = horizon x_n, v_k = v_{k+1} x_k adds the factor horizon prod_{k>=2} v_k.
    """
    B, n = U.shape
    X = U * U * (3.0 - 2.0 * U)
    jac = np.ones(B)
    for k in range(n):
        jac *= 6.0 * U[:, k] * (1.0 - U[:, k])
    V = np.empty_like(U)
    V[:, n - 1] = horizon * X[:, n - 1]
    jac = jac * horizon
    for k in range(n - 2, -1, -1):
        V[:, k] = V[:, k + 1] * X[:, k]
        jac = jac * V[:, k + 1]
    return V, jac


def increments(V: np.ndarray, first) -> np.ndarray:
    """Along the last axis of V: ``first``, then the consecutive differences
    V[..., k] - V[..., k - 1].  Turns ordered chain times into gaps and
    visited points into steps."""
    out = np.empty_like(V)
    out[..., 0] = first
    out[..., 1:] = V[..., 1:] - V[..., :-1]
    return out


def simplex_map(order: int, horizon: float, points_per_axis: int = 24,
                grading: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Tensor quadrature for the ordered simplex {0 <= s_1 <= ... <= s_n <= t}
    of ``order`` n and ``horizon`` t, through ``simplex_from_unit``.

    Returns (points, weights): points has shape (n_nodes, n) with ordered
    rows; weights include the Jacobian.  Axes are double-graded so integrable
    endpoint and consecutive-gap singularities converge; ``grading`` >= 1 is
    the geometric mesh exponent pushing panel boundaries toward the singular
    endpoints of each mapped axis.  ``points_per_axis`` must be a positive
    multiple of 12, the counts ``graded_panels`` builds; any other is refused.
    """
    if order < 1:
        raise ValueError("simplex order must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if grading < 1:
        raise ValueError("grading must be >= 1")
    axis = graded_panels(points_per_axis, grading)
    if axis[0].size != points_per_axis:
        raise ValueError(f"points_per_axis must be a positive multiple of 12 (6-node "
                         f"panels, mirrored): {points_per_axis} would build {axis[0].size}")
    U, w = tensor_rule(*axis, order)
    S, jac = simplex_from_unit(U, horizon)
    return S, jac * w


def simplex_quadrature(order: int, horizon: float, integrand: Callable[..., np.ndarray],
                       points_per_axis: int = 24, grading: float = 2.0) -> float:
    """Integral of ``integrand(s_1, ..., s_n)`` over the ordered simplex.

    The integrand must accept equal-length numpy arrays (one per time
    variable) and may have integrable singularities at the endpoints or at
    coinciding arguments.  Non-finite samples are rejected.
    """
    if order > SIMPLEX_ORDER_CAP:
        raise ValueError(f"simplex order {order} exceeds cap {SIMPLEX_ORDER_CAP}")
    pts, w = simplex_map(order, horizon, points_per_axis, grading)
    vals = np.asarray(integrand(*[pts[:, k] for k in range(order)]), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values on the open simplex")
    return float(np.dot(vals, w))
