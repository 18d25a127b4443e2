"""Closed-form order masses and increment moments for constant initial data.

For u0 = 1 the order-n part of the solution (or of its spatial derivative)
is an iterated heat-kernel chain over the time simplex, and every quantity
of the form

    sum_{|alpha| = n} F_alpha(p) F_alpha(q)

reduces, by orthonormal-basis completeness in L^2(R^n), to a sum over
permutations sigma of Gaussian pairings of two chains.  Integrating the n
spatial variables in closed form leaves A(sigma; v, w) exp(-d^2 / 2S) with

    A = prod_e (2 pi tau_e)^{-1/2} (2 pi)^{n/2} det(M)^{-1/2},
    1/S = 1/v_1 - (M^{-1})_{aa} / v_1^2,

where M is the n x n precision matrix assembled from the two chains' gap
times and a is the anchored vertex.  Derivative fields differentiate the
pairing in the anchor offset d, giving (A/S)(1 - d^2/S) e^{-d^2/2S}.

Only time-simplex quadrature remains: graded tensor rules up to order 2,
scrambled Sobol points at orders 3 and 4.  The (A, S) tables are independent
of the lag, so a whole lag ladder costs one assembly; spatial increments
evaluate

    K-field: (2A/S) [1 - e^{-z}(1 - 2z)],   u-field: 2A [1 - e^{-z}],

at z = h^2 / (2S) per node, with no subtractive cancellation at small h.
This engine is exact in the mode index (no J truncation), which is what the
regularity experiments need: mode-truncated suppliers smooth the singular
chain endpoint and push every measured space slope toward 2.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Dict, Iterable, Sequence

import numpy as np

__all__ = [
    "CHAIN_ORDERS",
    "field_order_masses",
    "space_increment_masses",
    "time_increment_masses",
]

_TENSOR_AXIS_NODES = {1: 60, 2: 30}
_QMC_LOG2 = {3: 16, 4: 16}  # Sobol points at orders 3 and 4
CHAIN_ORDERS = (1, 2, 3, 4)  # the orders with a time-simplex rule above


def _check_orders(orders: Iterable[int]) -> list[int]:
    orders = list(orders)
    for n in orders:
        if n not in CHAIN_ORDERS:
            raise ValueError(f"chain order {n} is not supported; the chain-pairing "
                             f"engine handles orders {CHAIN_ORDERS[0]}..{CHAIN_ORDERS[-1]}")
    return orders


def _clip_unit(U: np.ndarray) -> np.ndarray:
    """Keep Sobol points strictly inside (0, 1): the smoothstep warp rounds
    to exactly 1.0 within ~1e-8 of the endpoint, and a zero gap time would
    poison the pairing tables.  The clamp displaces a ~1e-6 sliver whose
    integrand weight is O(1e-6) via the warp Jacobian."""
    return np.clip(U, 1e-6, 1.0 - 1e-6)


def _warp(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smoothstep map of unit coordinates with its Jacobian (see kernels)."""
    return u * u * (3.0 - 2.0 * u), 6.0 * u * (1.0 - u)


def _simplex_from_unit(U: np.ndarray, horizon: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map unit-cube rows to ordered simplex times v_1 <= ... <= v_n <= horizon
    via v_n = horizon x_n, v_{k} = v_{k+1} x_k, with the smoothstep warp per
    axis; returns (times (B, n), jacobian weights (B,))."""
    B, n = U.shape
    X = np.empty_like(U)
    jac = np.ones(B)
    for k in range(n):
        X[:, k], dj = _warp(U[:, k])
        jac *= dj
    V = np.empty_like(U)
    V[:, n - 1] = horizon * X[:, n - 1]
    jac = jac * horizon
    for k in range(n - 2, -1, -1):
        V[:, k] = V[:, k + 1] * X[:, k]
        jac = jac * V[:, k + 1]
    return V, jac


def _axis_rule(n_nodes: int, grading: float = 2.5) -> tuple[np.ndarray, np.ndarray]:
    """Panels on (0,1) graded toward 0 (the singular chain endpoint)."""
    gx, gw = np.polynomial.legendre.leggauss(6)
    edges = np.linspace(0.0, 1.0, max(1, round(n_nodes / 6)) + 1) ** grading
    xs = np.concatenate([0.5 * (hi - lo) * gx + 0.5 * (hi + lo)
                         for lo, hi in zip(edges[:-1], edges[1:])])
    ws = np.concatenate([0.5 * (hi - lo) * gw
                         for lo, hi in zip(edges[:-1], edges[1:])])
    return xs, ws


def _tensor_unit_nodes(dim: int, n_axis: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = _axis_rule(n_axis)
    grids = np.meshgrid(*([xs] * dim), indexing="ij")
    wmesh = np.ones_like(grids[0])
    for wa in np.ix_(*([ws] * dim)):
        wmesh = wmesh * wa
    U = np.stack([g.ravel() for g in grids], axis=1)
    return U, wmesh.ravel()


def _chain_edges(n: int, sigma: Sequence[int]) -> list[np.ndarray]:
    """Unit vectors of the chain's difference arguments over y_1..y_n; first
    edge is the anchored one (argument d - y_{visited last})."""
    seq = [sigma[n - 1 - k] for k in range(n)]
    edges = []
    u = np.zeros(n)
    u[seq[0]] = -1.0
    edges.append(u.copy())
    for k in range(1, n):
        u = np.zeros(n)
        u[seq[k - 1]] = 1.0
        u[seq[k]] = -1.0
        edges.append(u.copy())
    return edges


def _pair_AS(n: int, sigma: Sequence[int], Vg: np.ndarray, Wg: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """(A, S) for the pairing of the identity chain (gaps Vg) with the
    sigma-permuted chain (gaps Wg); arrays are (B, n) gap tables."""
    ident = tuple(range(n))
    ed1 = _chain_edges(n, ident)
    ed2 = _chain_edges(n, sigma)
    B = Vg.shape[0]
    M = np.zeros((B, n, n))
    for u, tau in zip(ed1, Vg.T):
        M += (u[:, None] * u[None, :])[None, :, :] / tau[:, None, None]
    for u, tau in zip(ed2, Wg.T):
        M += (u[:, None] * u[None, :])[None, :, :] / tau[:, None, None]
    anchor = n - 1  # identity chain anchors at y_n
    e = np.zeros((B, n, 1))
    e[:, anchor, 0] = 1.0
    Minv_col = np.linalg.solve(M, e)[..., 0]
    v1 = Vg[:, 0]
    quad = 1.0 / v1 - Minv_col[:, anchor] / (v1 * v1)
    S = 1.0 / quad
    detM = np.linalg.det(M)
    logA = (-0.5 * np.sum(np.log(2 * math.pi * Vg), axis=1)
            - 0.5 * np.sum(np.log(2 * math.pi * Wg), axis=1)
            + 0.5 * n * math.log(2 * math.pi) - 0.5 * np.log(detM))
    return np.exp(logA), S


def _gaps(V: np.ndarray) -> np.ndarray:
    G = np.empty_like(V)
    G[:, 0] = V[:, 0]
    if V.shape[1] > 1:
        G[:, 1:] = V[:, 1:] - V[:, :-1]
    return G


def _pair_nodes_space(n: int, t: float, rng_seed: int
                      ) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Quadrature nodes for the double simplex (v, w) in T^n x T^n."""
    if n <= 2:
        U, wq = _tensor_unit_nodes(n, _TENSOR_AXIS_NODES[n])
        V, jv = _simplex_from_unit(U, t)
        # all (v, w) pairs from the tensor square, streamed in blocks
        return V, jv * wq, None
    from scipy.stats import qmc  # loaded only for chain orders 3 and 4
    sob = qmc.Sobol(d=2 * n, scramble=True, seed=rng_seed)
    U = _clip_unit(sob.random_base2(m=_QMC_LOG2[n]))
    V, jv = _simplex_from_unit(U[:, :n], t)
    W, jw = _simplex_from_unit(U[:, n:], t)
    wts = jv * jw / U.shape[0]  # QMC average with jacobians
    return np.concatenate([V, W], axis=1), wts, "qmc"


def _accumulate_space(n: int, t: float, lags: np.ndarray, deriv: bool,
                      rng_seed: int, block: int = 1 << 18
                      ) -> tuple[np.ndarray, float]:
    """(increment masses per lag, field mass) for one chaos order."""
    nodes, wts, mode = _pair_nodes_space(n, t, rng_seed)
    inc = np.zeros(lags.size)
    mass = 0.0
    sigmas = list(permutations(range(n)))
    if mode == "qmc":
        Vg, Wg = _gaps(nodes[:, :n]), _gaps(nodes[:, n:])
        for sigma in sigmas:
            A, S = _pair_AS(n, sigma, Vg, Wg)
            base = A / S if deriv else A
            mass += float(np.dot(wts, base))
            z = lags[:, None] ** 2 / (2.0 * S[None, :])
            if deriv:
                g = -np.expm1(-z) + 2.0 * z * np.exp(-z)
            else:
                g = -np.expm1(-z)
            inc += (g * (2.0 * wts * base)[None, :]).sum(axis=1)
        return inc, mass
    V, jw = nodes, wts
    B = V.shape[0]
    Vg_all = _gaps(V)
    for sigma in sigmas:
        for i0 in range(0, B, max(1, block // B + 1)):
            i1 = min(i0 + max(1, block // B + 1), B)
            nb = i1 - i0
            Vg = np.repeat(Vg_all[i0:i1], B, axis=0)
            Wg = np.tile(Vg_all, (nb, 1))
            wq = np.repeat(jw[i0:i1], B) * np.tile(jw, nb)
            A, S = _pair_AS(n, sigma, Vg, Wg)
            base = A / S if deriv else A
            mass += float(np.dot(wq, base))
            z = lags[:, None] ** 2 / (2.0 * S[None, :])
            if deriv:
                g = -np.expm1(-z) + 2.0 * z * np.exp(-z)
            else:
                g = -np.expm1(-z)
            inc += (g * (2.0 * wq * base)[None, :]).sum(axis=1)
    return inc, mass


def field_order_masses(t: float, orders: Iterable[int], deriv: bool,
                       rng_seed: int = 10103) -> Dict[int, float]:
    """sum_{|alpha| = n} F_alpha(t, x)^2 per order (x-independent here)."""
    out: Dict[int, float] = {}
    for n in _check_orders(orders):
        _, mass = _accumulate_space(n, t, np.asarray([1.0]), deriv, rng_seed)
        out[n] = mass
    return out


def space_increment_masses(t: float, lags: Sequence[float], orders: Iterable[int],
                           deriv: bool, rng_seed: int = 10103
                           ) -> tuple[Dict[int, np.ndarray], Dict[int, float]]:
    """Per-order sum_{|alpha|=n} (F_alpha(t, x+h) - F_alpha(t, x))^2 across the
    lag ladder, plus the per-order field masses (for the truncation gate)."""
    lags = np.asarray(lags, dtype=float)
    inc: Dict[int, np.ndarray] = {}
    mass: Dict[int, float] = {}
    for n in _check_orders(orders):
        inc[n], mass[n] = _accumulate_space(n, t, lags, deriv, rng_seed)
    return inc, mass


def _time_region_nodes(n: int, t: float, h: float, rng_seed: int,
                       n_axis_box: int = 12) -> tuple[np.ndarray, np.ndarray, bool]:
    """One copy of the increment region: v_n in [t, t+h], inner simplex below.

    Tensor product for n <= 2, Sobol for deeper orders.  Returns (times,
    weights, paired) where ``paired`` means rows already hold both copies.
    """
    if n == 1:
        bx, bw = _axis_rule(n_axis_box, grading=1.0)
        return (t + h * bx)[:, None], h * bw, False
    if n == 2:
        bx, bw = _axis_rule(n_axis_box, grading=1.0)
        Ui, wi = _tensor_unit_nodes(1, _TENSOR_AXIS_NODES[1])
        parts, wparts = [], []
        for k, v_top in enumerate(t + h * bx):
            Vin, jv = _simplex_from_unit(Ui, v_top)
            V = np.concatenate([Vin, np.full((Vin.shape[0], 1), v_top)], axis=1)
            parts.append(V)
            wparts.append(jv * wi * bw[k] * h)
        return np.concatenate(parts, axis=0), np.concatenate(wparts), False
    from scipy.stats import qmc  # loaded only for chain orders 3 and 4
    sob = qmc.Sobol(d=2 * n, scramble=True, seed=rng_seed)
    U = _clip_unit(sob.random_base2(m=_QMC_LOG2[n]))
    out = []
    wts = np.ones(U.shape[0])
    for half in (U[:, :n], U[:, n:]):
        v_top = t + h * half[:, n - 1]
        Vin, jv = _simplex_from_unit(half[:, :n - 1], v_top)
        out.append(np.concatenate([Vin, v_top[:, None]], axis=1))
        wts = wts * jv * h
    return np.concatenate(out, axis=1), wts / U.shape[0], True


def time_increment_masses(t: float, lags: Sequence[float], orders: Iterable[int],
                          deriv: bool, rng_seed: int = 10103
                          ) -> tuple[Dict[int, np.ndarray], Dict[int, float]]:
    """Per-order sum_{|alpha|=n} (F_alpha(t+h, x) - F_alpha(t, x))^2 across the
    lag ladder, plus the per-order field masses at the latest probed time
    t + max(lags), where the top-order share is largest (for the truncation
    gate).

    For constant data the t-dependence sits only in the simplex upper limit,
    so for t > 0 the increment is the chain integral restricted to v_n in
    [t, t+h]; the pairing is integrated over that box times two inner
    simplices.  The box rule is uniform: exact to rounding while the box
    stays clear of the singular chain endpoint (t >= h/4) and inaccurate
    nearer to it, so 0 < t < max(lags)/4 is refused.  At t = 0 every
    coefficient of order >= 1 vanishes, so the increment is the field mass
    at time h, from the graded double-simplex rule.  By Brownian scaling
    that mass is the mass at time 1 times h^{3n/2} (u) or h^{3n/2 - 1}
    (dx u), and the rule is scale-equivariant, so one table per order
    serves the whole lag ladder.
    """
    lags = np.asarray(lags, dtype=float)
    orders = _check_orders(orders)
    top = int(np.argmax(lags))
    if 0.0 < t < lags[top] / 4.0:
        raise ValueError(f"time increments from t = {t} with lags up to {lags[top]} are "
                         "inaccurate; the accurate range is t = 0 or t >= h/4")
    out: Dict[int, np.ndarray] = {}
    if t == 0.0:
        unit = field_order_masses(1.0, orders, deriv, rng_seed)
        for n in orders:
            out[n] = unit[n] * lags ** (1.5 * n - (1.0 if deriv else 0.0))
        return out, {n: float(m[top]) for n, m in out.items()}
    for n in orders:
        masses = np.zeros(lags.size)
        for li, h in enumerate(lags):
            nodes, wfull, paired = _time_region_nodes(n, t, float(h), rng_seed)
            total = 0.0
            if paired:
                Vg, Wg = _gaps(nodes[:, :n]), _gaps(nodes[:, n:])
                for sigma in permutations(range(n)):
                    A, S = _pair_AS(n, sigma, Vg, Wg)
                    total += float(np.dot(wfull, A / S if deriv else A))
            else:
                Vg_all = _gaps(nodes)
                B = nodes.shape[0]
                chunk = max(1, (1 << 18) // B + 1)
                for sigma in permutations(range(n)):
                    for i0 in range(0, B, chunk):
                        i1 = min(i0 + chunk, B)
                        nb = i1 - i0
                        Vg = np.repeat(Vg_all[i0:i1], B, axis=0)
                        Wg = np.tile(Vg_all, (nb, 1))
                        wq = np.repeat(wfull[i0:i1], B) * np.tile(wfull, nb)
                        A, S = _pair_AS(n, sigma, Vg, Wg)
                        total += float(np.dot(wq, A / S if deriv else A))
            masses[li] = total
        out[n] = masses
    return out, field_order_masses(t + float(lags[top]), orders, deriv, rng_seed)
