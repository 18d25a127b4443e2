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

from .coefficients import QUADRATURE_ORDER_CAP, TIME_POINTS, CoefficientQuadrature
from .kernels import InitialCondition, apply_heat_semigroup, increments, simplex_map

__all__ = [
    "WienerKernel",
    "fk_kernel",
    "mw_kernel",
    "cs_kernel",
    "sym_cs_kernel",
]


@dataclass(frozen=True)
class WienerKernel:
    """Evaluator of an order-n multiple-Wiener kernel at one (t, x).

    ``evaluator`` maps an n-vector of real arguments to the kernel value; for
    the symmetrized kernels it is invariant under argument permutations by
    construction.
    """

    order: int
    evaluator: Callable[[Sequence[float]], float]

    def __call__(self, *ys: float) -> float:
        if self.order == 0:
            return float(self.evaluator(np.empty(0)))
        y = np.atleast_1d(np.asarray(ys if len(ys) > 1 else ys[0], dtype=float)).ravel()
        if y.size != self.order:
            raise ValueError(f"kernel of order {self.order} called with {y.size} arguments")
        return float(self.evaluator(y))


class _ChainContext:
    """The simplex nodes of the level sweep's time rule (``TIME_POINTS`` per
    axis) and the initial datum on the line grid.  The chains' tail
    u_bar(tau, xi) is the quadrature's P(tau) row at (tau, xi) applied to
    that datum, one row per distinct tail time."""

    def __init__(self, n: int, t: float, u0: InitialCondition,
                 quad: CoefficientQuadrature | None = None):
        self.t = t
        self.quad = quad or CoefficientQuadrature()
        self.u0_grid = u0(self.quad.grid.nodes)
        self.w_nodes, self.w_weights = simplex_map(n, t, TIME_POINTS)

    def integral(self, gaps: np.ndarray, steps: np.ndarray, tail_times: np.ndarray,
                 tail_point: float) -> float:
        """Simplex quadrature of prod_k p(gaps_k, steps_k) u_bar(tail_times, tail_point),
        one row of gaps and one tail time per simplex node."""
        with np.errstate(divide="ignore", over="ignore"):
            log_vals = -steps[None, :] ** 2 / (2.0 * gaps) - 0.5 * np.log(2 * math.pi * gaps)
        vals = np.exp(np.sum(log_vals, axis=1))
        vals = np.where(np.isfinite(vals), vals, 0.0)  # zero-gap, non-zero-step limit
        # the tail times repeat across nodes (12 distinct of 144 in the forward
        # chain at n = 2): one P(tau) row per distinct time, gathered per node
        times, node_time = np.unique(tail_times, return_inverse=True)
        tail = (self.quad.row(times, float(tail_point)) @ self.u0_grid)[node_time]
        return float(np.dot(self.w_weights, vals * tail))


def _forward_chain(ctx: _ChainContext, x: float, visits: np.ndarray) -> float:
    """G(t, x; visits) -- forward chain from (0, x) through the given visit
    sequence, tail at (t - w_n, v_n)."""
    W = ctx.w_nodes  # (nodes, n), rows 0 <= w_1 <= ... <= w_n <= t
    return ctx.integral(increments(W, W[:, 0]), increments(visits, visits[0] - x),
                        ctx.t - W[:, -1], visits[-1])


def _backward_chain(ctx: _ChainContext, x: float, y: np.ndarray) -> float:
    """F_n^cs(t, x; y) -- backward chain from (t, x): leading gap t - s_n,
    then s_{k+1} - s_k, tail at (s_1, y_1)."""
    S = ctx.w_nodes  # rows 0 <= s_1 <= ... <= s_n <= t
    return ctx.integral(increments(S, ctx.t - S[:, -1]), increments(y, x - y[-1]),
                        S[:, 0], y[0])


def _chain_kernel(n: int, t: float, x: float, u0: InitialCondition,
                  quad: CoefficientQuadrature | None,
                  chain: Callable[[_ChainContext, float, np.ndarray], float],
                  symmetrize: bool) -> WienerKernel:
    """The order-n kernel of ``chain`` at (t, x); with ``symmetrize`` the
    (1/n!) average over permutations of its arguments, in itertools' fixed
    lexicographic order."""
    if n < 0:
        raise ValueError("kernel order must be >= 0")
    if n > QUADRATURE_ORDER_CAP:
        raise ValueError(f"kernel order {n} exceeds pointwise-quadrature cap "
                         f"{QUADRATURE_ORDER_CAP}")
    if n == 0:
        val = float(apply_heat_semigroup(u0, t, x, (quad or CoefficientQuadrature()).grid))
        return WienerKernel(order=0, evaluator=lambda y: val)
    ctx = _ChainContext(n, t, u0, quad)

    def evaluate(y) -> float:
        y = np.asarray(y, dtype=float)
        if not symmetrize:
            return chain(ctx, x, y)
        total = 0.0
        for perm in permutations(range(n)):
            total += chain(ctx, x, y[list(perm)])
        return total / math.factorial(n)

    return WienerKernel(order=n, evaluator=evaluate)


def fk_kernel(n: int, t: float, x: float, u0: InitialCondition,
              quad: CoefficientQuadrature | None = None) -> WienerKernel:
    """Order-n kernel in the path (forward-visit) parameterisation,
    symmetrized over the visit order of its arguments."""
    return _chain_kernel(n, t, x, u0, quad, _forward_chain, True)


# Order-n kernel in the mild-solution (backward-chain) parameterisation.  Each
# backward chain over ordered times r_1 < ... < r_n equals a forward chain with
# reversed visits under r_i = t - s_i; after that exact substitution its
# evaluator is the path kernel's canonical permutation sum, so the two kernels
# are one function and agree bitwise by construction.
mw_kernel = fk_kernel


def cs_kernel(n: int, t: float, x: float, u0: InitialCondition,
              quad: CoefficientQuadrature | None = None) -> WienerKernel:
    """Ordered (unsymmetrized) chaos kernel F_n^cs.

    Quadratured in the backward parameterisation directly:

        F_n^cs(t,x; y_1..y_n) = int_{0<=s_1<=...<=s_n<=t}
            p(t-s_n, x-y_n) p(s_n-s_{n-1}, y_n-y_{n-1}) ... p(s_2-s_1, y_2-y_1)
            u_bar(s_1, y_1) ds,

    a genuinely distinct parameterisation from the forward kernels (different
    time variables, different singular endpoints), used as their cross-check.
    """
    return _chain_kernel(n, t, x, u0, quad, _backward_chain, False)


def sym_cs_kernel(n: int, t: float, x: float, u0: InitialCondition,
                  quad: CoefficientQuadrature | None = None) -> WienerKernel:
    """Symmetrization of the ordered chaos kernel, (1/n!) sum_sigma F_n^cs(y_sigma)."""
    return _chain_kernel(n, t, x, u0, quad, _backward_chain, True)

