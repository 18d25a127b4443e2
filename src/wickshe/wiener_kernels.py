"""Multiple-Wiener kernels of the solution in its three chain orderings.

All three kernels are time-simplex integrals of products of heat kernels
threaded through the argument points, differing only in parameterisation:

* forward ("path") ordering: a chain started at the space-time origin (0, x)
  visiting the arguments in increasing time,

      G(t, x; v_1..v_n) = int_{0<w_1<...<w_n<t}
          p(w_1, v_1 - x) p(w_2 - w_1, v_2 - v_1) ... p(w_n - w_{n-1}, v_n - v_{n-1})
          u_bar(t - w_n, v_n) dw;

* backward ("mild-solution") ordering: a chain anchored at (t, x) running
  down to the initial datum.  The substitution r_i = t - s_i maps one onto
  the other exactly, so the backward evaluator is realized as G with the
  visit sequence reversed; symmetrized sums over permutations then make the
  forward-built and backward-built kernels literally the same computation
  and they agree bitwise.

* the ordered chaos kernel F_n^cs keeps the backward ordering without
  symmetrization; its symmetrization is quadratured on its own path and is
  the cross-check target for the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientQuadrature
from .kernels import InitialCondition, SimplexSpec, apply_heat_semigroup, simplex_map

__all__ = [
    "WienerKernel",
    "fk_kernel",
    "mw_kernel",
    "cs_kernel",
    "sym_cs_kernel",
]

KERNEL_ORDER_CAP = 3  # pointwise quadrature cost grows as (time nodes)^n


@dataclass(frozen=True)
class WienerKernel:
    """Evaluator of an order-n multiple-Wiener kernel at one (t, x).

    ``evaluator`` maps an n-vector of real arguments to the kernel value; for
    the symmetrized kernels it is invariant under argument permutations by
    construction.
    """

    order: int
    point: tuple[float, float]
    evaluator: Callable[[Sequence[float]], float]
    label: str = ""

    def __call__(self, *ys: float) -> float:
        if self.order == 0:
            return float(self.evaluator(np.empty(0)))
        y = np.atleast_1d(np.asarray(ys if len(ys) > 1 else ys[0], dtype=float)).ravel()
        if y.size != self.order:
            raise ValueError(f"kernel of order {self.order} called with {y.size} arguments")
        return float(self.evaluator(y))


class _ChainContext:
    """Precomputed simplex nodes and the initial datum on the line grid.  The
    chains' tail u_bar(tau, xi) is the heat operator's row at (tau, xi)
    applied to that datum, one row per time node."""

    def __init__(self, n: int, t: float, u0: InitialCondition,
                 quad: CoefficientQuadrature | None = None, time_points: int = 16):
        self.n, self.t = n, t
        self.quad = quad or CoefficientQuadrature()
        self.u0_grid = u0(self.quad.grid.nodes)
        spec = SimplexSpec(order=n, horizon=t, points_per_axis=time_points, grading=2.0)
        self.w_nodes, self.w_weights = simplex_map(spec)


def _forward_chain(ctx: _ChainContext, x: float, visits: np.ndarray) -> float:
    """G(t, x; visits) -- forward chain through the given visit sequence."""
    n, t = ctx.n, ctx.t
    W = ctx.w_nodes  # (nodes, n), rows 0 <= w_1 <= ... <= w_n <= t
    gaps = np.empty_like(W)
    gaps[:, 0] = W[:, 0]
    if n > 1:
        gaps[:, 1:] = W[:, 1:] - W[:, :-1]
    steps = np.empty(n)
    steps[0] = visits[0] - x
    if n > 1:
        steps[1:] = visits[1:] - visits[:-1]
    with np.errstate(divide="ignore", over="ignore"):
        log_vals = -steps[None, :] ** 2 / (2.0 * gaps) - 0.5 * np.log(2 * math.pi * gaps)
    vals = np.exp(np.sum(log_vals, axis=1))
    vals = np.where(np.isfinite(vals), vals, 0.0)  # zero-gap, non-zero-step limit
    tail = ctx.quad.heat.row(t - W[:, n - 1], float(visits[n - 1])) @ ctx.u0_grid
    return float(np.dot(ctx.w_weights, vals * tail))


def _symmetrized(ctx: _ChainContext, x: float, y: np.ndarray) -> float:
    """(1/n!) sum over canonical-order permutations of the forward chain."""
    n = ctx.n
    total = 0.0
    for perm in permutations(range(n)):  # itertools order: fixed, lexicographic
        total += _forward_chain(ctx, x, y[list(perm)])
    return total / math.factorial(n)


def fk_kernel(n: int, t: float, x: float, u0: InitialCondition,
              quad: CoefficientQuadrature | None = None,
              time_points: int = 16) -> WienerKernel:
    """Order-n kernel in the path (forward-visit) parameterisation,
    symmetrized over the visit order of its arguments."""
    _check_order(n)
    if n == 0:
        return _order_zero(t, x, u0, quad, "fk")
    ctx = _ChainContext(n, t, u0, quad, time_points)
    return WienerKernel(order=n, point=(t, x), label="fk",
                        evaluator=lambda y: _symmetrized(ctx, x, np.asarray(y, dtype=float)))


# Order-n kernel in the mild-solution (backward-chain) parameterisation.  Each
# backward chain over ordered times r_1 < ... < r_n equals a forward chain with
# reversed visits under r_i = t - s_i; after that exact substitution its
# evaluator is the path kernel's canonical permutation sum, so the two kernels
# are one function and agree bitwise by construction.
mw_kernel = fk_kernel


def cs_kernel(n: int, t: float, x: float, u0: InitialCondition,
              quad: CoefficientQuadrature | None = None,
              time_points: int = 16) -> WienerKernel:
    """Ordered (unsymmetrized) chaos kernel F_n^cs.

    Quadratured in the backward parameterisation directly:

        F_n^cs(t,x; y_1..y_n) = int_{0<=s_1<=...<=s_n<=t}
            p(t-s_n, x-y_n) p(s_n-s_{n-1}, y_n-y_{n-1}) ... p(s_2-s_1, y_2-y_1)
            u_bar(s_1, y_1) ds,

    a genuinely distinct code path from the forward kernels (different time
    variables, different singular endpoints), used as their cross-check.
    """
    _check_order(n)
    if n == 0:
        return _order_zero(t, x, u0, quad, "cs")
    ctx = _ChainContext(n, t, u0, quad, time_points)

    def evaluate(y: np.ndarray) -> float:
        S = ctx.w_nodes           # rows 0 <= s_1 <= ... <= s_n <= t
        gaps = np.empty_like(S)   # leading gap is t - s_n, then s_{k+1}-s_k
        gaps[:, 0] = t - S[:, n - 1]
        if n > 1:
            gaps[:, 1:] = S[:, 1:] - S[:, :-1]
        steps = np.empty(n)
        steps[0] = x - y[n - 1]
        if n > 1:
            steps[1:] = y[1:] - y[:-1]
        with np.errstate(divide="ignore", over="ignore"):
            log_vals = -steps[None, :] ** 2 / (2.0 * gaps) - 0.5 * np.log(2 * math.pi * gaps)
        vals = np.exp(np.sum(log_vals, axis=1))
        vals = np.where(np.isfinite(vals), vals, 0.0)
        tail = ctx.quad.heat.row(S[:, 0], float(y[0])) @ ctx.u0_grid
        return float(np.dot(ctx.w_weights, vals * tail))

    return WienerKernel(order=n, point=(t, x), label="cs",
                        evaluator=lambda y: evaluate(np.asarray(y, dtype=float)))


def sym_cs_kernel(n: int, t: float, x: float, u0: InitialCondition,
                  quad: CoefficientQuadrature | None = None,
                  time_points: int = 16) -> WienerKernel:
    """Symmetrization of the ordered chaos kernel, (1/n!) sum_sigma F_n^cs(y_sigma)."""
    base = cs_kernel(n, t, x, u0, quad, time_points)
    if n == 0:
        return base

    def evaluate(y: np.ndarray) -> float:
        total = 0.0
        for perm in permutations(range(n)):
            total += base.evaluator(y[list(perm)])
        return total / math.factorial(n)

    return WienerKernel(order=n, point=(t, x), label="sym_cs",
                        evaluator=lambda y: evaluate(np.asarray(y, dtype=float)))


def _check_order(n: int):
    if n < 0:
        raise ValueError("kernel order must be >= 0")
    if n > KERNEL_ORDER_CAP:
        raise ValueError(f"kernel order {n} exceeds pointwise-quadrature cap {KERNEL_ORDER_CAP}")


def _order_zero(t: float, x: float, u0: InitialCondition,
                quad: CoefficientQuadrature | None, label: str) -> WienerKernel:
    quad = quad or CoefficientQuadrature()
    val = float(apply_heat_semigroup(u0, t, x, quad.grid))
    return WienerKernel(order=0, point=(t, x), label=label,
                        evaluator=lambda y, v=val: v)
