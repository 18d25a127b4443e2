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

M is a weighted graph Laplacian of the two chains plus anchor terms, so it
is symmetric positive definite for positive gaps.  Both quantities come
from the pivots d_1..d_n of one unrolled LDL^T factorisation, M = L D L^T
with L unit lower triangular, batched over the quadrature nodes.  The
anchor is the last index, so

    (M^{-1})_{aa} = 1/d_n,   1/S = 1/v_1 - 1/(d_n v_1^2),
    det M = prod_j d_j,   A = norm / sqrt(det M),

with norm = prod_e (2 pi tau_e)^{-1/2} (2 pi)^{n/2} formed once per block of
node pairs, so each sigma costs one square root and one divide.  A pivot is
at most its diagonal entry M_jj, a sum of at most four reciprocal gaps; the
rules below give gaps >= 3.9e-16 at t = 1, so det M stays below about 1e64
and norm below 5.3e29, far from overflow.

The elimination runs on the Laplacian's couplings and anchor weights and
only ever adds non-negative terms; d_n = a_n + 1/v_1, where a_n is y_n's
anchor weight without the identity chain's own anchored edge, so that
S = v_1 + 1/a_n carries no cancellation either.  A gap that is not positive
and finite, or a pivot d_j <= 0, raises ``numpy.linalg.LinAlgError``, and
a base time that is not finite and non-negative, or a lag that is not finite
and positive, raises ``ValueError`` before any block is made; no NaN
reaches a moment.

Only time-simplex quadrature remains: graded tensor rules up to order 2,
scrambled Sobol points at orders 3 and 4, all mapped onto the simplex by the
warped nested substitution; the axis rules, their tensor products and that
map are those of ``kernels`` (``graded_panels``, ``tensor_rule``,
``simplex_from_unit``).  The Sobol points (Joe-Kuo direction numbers,
linear matrix scrambling and a digital shift) are generated here, bit for
bit those of ``scipy.stats.qmc.Sobol``, without importing scipy.

Node pairs go through in blocks of at most ``_PAIR_BLOCK`` = 2^14, so that a
block's tables and its (lags, pairs) work arrays stay in cache; each block is
built once and serves every sigma.  A Sobol row holds both copies, and the
rows are generated one block of 2^14 at a time, each block from the Gray-code
state of its first point: the block is mapped onto the quadrature region,
paired, added and dropped, so no array holds more than one block of rows or
nodes, whatever the point count, and nothing is kept between calls.

A time ladder from t > 0 integrates over the boxes v_n in [t, t + h], one
per lag, and each is the unit box scaled row by row: with v_n = s = t + h u,
the chain times are s (V_1, 1), V_1 the inner rows mapped at horizon 1.  So
each block is mapped onto the unit box once, its side (whose gap check
stands for every lag) and Jacobians j_1 kept, and each lag's side follows
by scaling: reciprocal gaps recip_1 / s, log density log_dens_1 -
(n/2) log s, first gap s g_1 and weight j_1 s^(n-1) h per half, written
over one set of arrays per block, lag by lag.  The last gap s (1 - x) then
comes from 1 - x, free of cancellation (exact for x >= 1/2), rather than
from s - s x, so only rounding moves.  The truncation-gate mass at
t + max(lags) is the space pass there with an empty lag ladder.

The tensor rules pair every node with every node, and there each unordered
pair i <= j is taken once with weight 2 w_i w_j off the diagonal.  This is
exact: swapping the two chains and inverting sigma only relabels the
vertices and flips the sign of d, under which the pairing is even, so
tables(v, w, sigma) = tables(w, v, sigma^-1); as sigma runs over S_n so
does sigma^-1, so the pairs (i, j) and (j, i) have the same sum over sigma.

The (A, S) tables are independent of the lag, so a whole lag ladder costs
one assembly; spatial increments evaluate

    K-field: (2A/S) [1 - e^{-z}(1 - 2z)],   u-field: 2A [1 - e^{-z}],

at z = h^2 / (2S) per node, with no subtractive cancellation at small h;
e^{-z} is formed as 1 + expm1(-z) from the expm1 already at hand.
This engine is exact in the mode index (no J truncation), which is what the
regularity experiments need: mode-truncated suppliers smooth the singular
chain endpoint and push every measured space slope toward 2.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Dict, Iterable, NamedTuple, Sequence

import numpy as np

from .kernels import graded_panels, increments, simplex_from_unit, tensor_rule

__all__ = [
    "CHAIN_ORDERS",
    "space_increment_masses",
    "time_increment_masses",
]

_TENSOR_AXIS_NODES = {1: 60, 2: 30}
_AXIS_GRADING = 2.5  # panels graded toward 0, the singular chain endpoint
_BOX_AXIS_NODES = 12  # ungraded nodes on the top time v_n in [t, t + h]
_QMC_LOG2 = {3: 16, 4: 16}  # Sobol points at orders 3 and 4
_SOBOL_BITS = 30
# primitive polynomials (bits high to low, leading term included) and initial
# m_j of the first 8 Sobol dimensions, which cover d = 2n <= 8
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37)
_SOBOL_INIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
               (1, 1, 5, 5, 17))
_PAIR_BLOCK = 1 << 14  # node pairs per block, sized for the cache
CHAIN_ORDERS = (1, 2, 3, 4)  # the orders with a time-simplex rule above


def _check_orders(orders: Iterable[int]) -> list[int]:
    orders = list(orders)
    for n in orders:
        if n not in CHAIN_ORDERS:
            raise ValueError(f"chain order {n} is not supported; the chain-pairing "
                             f"engine handles orders {CHAIN_ORDERS[0]}..{CHAIN_ORDERS[-1]}")
    return orders


def _check_times(t: float, lags: Sequence[float] = ()) -> tuple[float, np.ndarray]:
    """(t, lags as an array), refused unless t is finite and non-negative and
    every lag finite and positive: a NaN or negative time would reach the
    moments, and the scaled box sides of a negative t pass the gap check."""
    t, lags = float(t), np.asarray(lags, dtype=float)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"base time t = {t} must be finite and non-negative")
    if not np.all(np.isfinite(lags) & (lags > 0.0)):
        raise ValueError(f"lags must be finite and positive, got {lags.tolist()}")
    return t, lags


def _clip_unit(U: np.ndarray) -> np.ndarray:
    """Keep Sobol points strictly inside (0, 1), in place: the smoothstep warp
    rounds to exactly 1.0 within ~1e-8 of the endpoint, and a zero gap time
    would poison the pairing tables.  The clamp displaces a ~1e-6 sliver
    whose integrand weight is O(1e-6) via the warp Jacobian."""
    return np.clip(U, 1e-6, 1.0 - 1e-6, out=U)


def _acc(E: dict, owned: set, key, x: np.ndarray):
    """E[key] += x.  An entry is updated in place only once it belongs to
    this table; until then it may be shared with the block or be x itself."""
    if key in owned:
        E[key] += x
    elif key in E:
        E[key] = E[key] + x
        owned.add(key)
    else:
        E[key] = x


class _Side(NamedTuple):
    """Per-row data of one chain's (B, n) gap table G: the reciprocal gaps as
    an (n, B) array, -1/2 sum_e log(2 pi tau_e) and the first gap (a copy,
    so that a side does not keep G).  Each field is row-wise, so the sides of
    a block of node pairs are cut from it by indexing."""

    recip: np.ndarray
    log_dens: np.ndarray
    first: np.ndarray

    @classmethod
    def of(cls, G: np.ndarray) -> "_Side":
        if not (G.min() > 0.0 and G.max() < np.inf):  # a NaN fails too
            raise np.linalg.LinAlgError("chain gap times must be positive and finite")
        return cls(np.ascontiguousarray((1.0 / G).T),
                   -0.5 * np.sum(np.log(2 * math.pi * G), axis=1), G[:, 0].copy())


class _Pairing:
    """(A, S) tables for one block of node pairs: the identity chain with
    v-gaps paired with each permuted chain with w-gaps (sides v and w).

    A chain over y_1..y_n visits its vertices from last to first: the
    identity chain's anchored edge acts on y_n with gap v_1 and its edge k
    joins y_{n-k+1} and y_{n-k} with gap v_{k+1}; the sigma chain does the
    same along y_sigma(n), ..., y_sigma(1) with the w-gaps.  An edge with
    reciprocal gap r adds r to the diagonal entries of both its vertices and
    -r to their off-diagonal pair; an anchored edge adds r to one diagonal
    entry.  So M is a weighted graph Laplacian plus anchor terms, and it is
    held that way: couplings c_ik = -M_ik >= 0 (i > k) and anchor weights
    a_i >= 0, with M_ii = a_i + sum_k c_ik.  Everything that does not depend
    on sigma (the reciprocal gaps, the Gaussian normalisations and the
    identity chain's couplings) is built once per block, not once per sigma.
    """

    def __init__(self, v: _Side, w: _Side):
        n = self.n = v.recip.shape[0]
        self.rW = w.recip
        self.norm = np.exp(v.log_dens + w.log_dens + 0.5 * n * math.log(2 * math.pi))
        self.v1, self.inv_v1 = v.first, v.recip[0]
        self.ident = {(n - k, n - k - 1): v.recip[k] for k in range(1, n)}

    def tables(self, sigma: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(A, S), each (B,), for the pairing with the sigma-permuted chain."""
        n, rW = self.n, self.rW
        c, c_own = dict(self.ident), set()
        seq = sigma[::-1]
        anchor, a_own = {seq[0]: rW[0]}, set()  # y_n's 1/v_1 enters last
        for k in range(1, n):
            i, j = seq[k - 1], seq[k]
            _acc(c, c_own, (max(i, j), min(i, j)), rW[k])
        # Unrolled LDL^T, keeping only the pivots d_j.  Eliminating y_j adds
        # c_ij c_kj / d_j to c_ik and c_ij a_j / d_j to a_i, and
        # d_j = a_j + sum_i c_ij: sums of non-negative terms, free of
        # cancellation.  y_n goes last, so the pivots before it do not see
        # its anchor weight, and its own pivot is d_n = a_n + 1/v_1.
        pivots = []
        for j in range(n - 1):
            col = [i for i in range(j + 1, n) if (i, j) in c]
            terms = ([anchor[j]] if j in anchor else []) + [c[i, j] for i in col]
            d = sum(terms[1:], terms[0])
            pivots.append(d)
            for i in col:
                f = c[i, j] / d
                if j in anchor:
                    _acc(anchor, a_own, i, f * anchor[j])
                for k in col:
                    if k >= i:
                        break
                    _acc(c, c_own, (i, k), f * c[k, j])
        a_n = anchor[n - 1]
        if not all(d.min() > 0.0 for d in pivots + [a_n]):  # a NaN fails too
            raise np.linalg.LinAlgError("pairing matrix M is not positive definite")
        # 1/S = 1/v_1 - (M^{-1})_{nn} / v_1^2 with (M^{-1})_{nn} = 1/d_n, and
        # det M = prod d_j: a pivot is at most M_jj, so with gaps >= 3.9e-16
        # det M < ~1e64 and norm < 5.3e29 (module docstring), far from overflow
        S = self.v1 + 1.0 / a_n
        return self.norm / np.sqrt(math.prod(pivots, start=a_n + self.inv_v1)), S


def _chain_side(V: np.ndarray) -> _Side:
    """The side of chain times V (B, n): their gaps, first from 0."""
    return _Side.of(increments(V, V[:, 0]))


def _cut(side: _Side, rows: np.ndarray) -> _Side:
    """The side of the given rows."""
    return _Side(*(x[..., rows] for x in side))


def _square_pairs(size: int):
    """(i, j, weight factors) blocks of at most ``_PAIR_BLOCK`` pairs of the
    tensor square of ``size`` rows, taken once per unordered pair i <= j, the
    factor 2 off the diagonal: this is exact, since tables(v_i, v_j, sigma)
    equals tables(v_j, v_i, sigma^-1) and sigma -> sigma^-1 is a bijection of
    S_n, so the pairs (i, j) and (j, i) have the same sum over sigma."""
    # the pairs of np.triu_indices(size) in its row-major order, formed one
    # block at a time: row i starts at the flat index of (i, i)
    lengths = np.arange(size, 0, -1)
    starts = np.cumsum(lengths) - lengths
    n_pairs = int(lengths.sum())
    for k in range(0, n_pairs, _PAIR_BLOCK):
        flat = np.arange(k, min(k + _PAIR_BLOCK, n_pairs))
        i = np.searchsorted(starts, flat, side="right") - 1
        j = i + (flat - starts[i])
        yield i, j, np.where(i == j, 1.0, 2.0)


def _square_blocks(nodes: np.ndarray, w: np.ndarray):
    """(v side, w side, weights) blocks of the tensor square of the rows
    (``_square_pairs``), cut from one side built for all rows."""
    side = _chain_side(nodes)
    for i, j, c in _square_pairs(w.size):
        yield _cut(side, i), _cut(side, j), c * w[i] * w[j]


def _pairing_sums(n: int, blocks, term) -> list[tuple]:
    """Componentwise sums of term(A, S, weights) over the permutations sigma
    of the second chain and the node blocks, one sum per rule.  ``blocks``
    yields (rule, v side, w side, weights), the rules numbered 0, 1, ... in
    order of first appearance; each block is built once and serves every
    sigma, and each rule's terms are added sigma-major, block-minor, so a
    rule's sum does not depend on how its blocks interleave with others'."""
    sigmas = list(permutations(range(n)))
    parts: Dict[int, list[list[tuple]]] = {}
    for rule, v, w_side, w in blocks:
        pairing = _Pairing(v, w_side)
        for row, sigma in zip(parts.setdefault(rule, [[] for _ in sigmas]), sigmas):
            row.append(term(*pairing.tables(sigma), w))
        del pairing, v, w_side, w  # so that one block at a time exists
    sums = []
    for rows in parts.values():
        totals = None
        for row in rows:
            for p in row:
                totals = p if totals is None else tuple(a + b for a, b in zip(totals, p))
        sums.append(totals)
    return sums


def _sobol_direction_numbers(d: int) -> np.ndarray:
    """(d, 30) Sobol direction numbers of the first d dimensions (Joe & Kuo
    2008): m_j from each primitive polynomial's recurrence, shifted to v_j =
    m_j 2^(29 - j); the first dimension is van der Corput's, all m_j = 1."""
    V = np.empty((d, _SOBOL_BITS), dtype=np.uint32)
    for k in range(d):
        poly, init = _SOBOL_POLY[k], _SOBOL_INIT[k]
        deg = len(init)
        m = list(init) if deg else [1] * _SOBOL_BITS
        for j in range(len(m), _SOBOL_BITS):
            new = m[j - deg] ^ (m[j - deg] << deg)
            for i in range(1, deg):
                if (poly >> (deg - i)) & 1:
                    new ^= m[j - i] << i
            m.append(new)
        V[k] = [x << (_SOBOL_BITS - 1 - j) for j, x in enumerate(m)]
    return V


def _scrambled_sobol(d: int, log2_points: int, seed: int, rows: int):
    """The first 2^log2_points points of the d-dimensional Sobol sequence with
    linear matrix scrambling and a digital shift, in blocks of at most
    ``rows`` points, bit for bit those of
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random_base2``:
    the same draws from ``default_rng(seed)`` (the shift's bits, then the
    lower-triangular scrambling matrices with unit diagonal), the same
    scrambled direction numbers and the same Gray-code order.  Point i is
    the shift XOR the direction numbers of the set bits of its Gray code
    i ^ (i >> 1), so a block starts from that state of its first point and
    steps from there; XOR is exact, so any cut gives the same points."""
    rng = np.random.default_rng(seed)
    lsb_first = np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = (rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32)
             @ (np.uint32(1) << lsb_first))
    ltm = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, lsb_first, lsb_first] = 1
    # bit 29 - p of a scrambled number is the parity of matrix row p against
    # the number's bits, most significant first
    msb_first = lsb_first[::-1]
    v_bits = (_sobol_direction_numbers(d)[:, :, None] >> msb_first) & 1
    sv = ((np.einsum("dpi,dji->djp", ltm, v_bits) & 1) @ (np.uint32(1) << msb_first)).T
    n_points = 1 << log2_points
    for r in range(0, n_points, rows):
        gray = r ^ (r >> 1)
        first = shift.copy()
        for bit in range(log2_points):
            if gray >> bit & 1:
                first ^= sv[bit]
        i = np.arange(r + 1, min(r + rows, n_points))
        ctz = np.log2(i & -i).astype(np.intp)  # point i flips direction ctz(i)
        steps = np.concatenate([first[None, :], sv[ctz]])
        yield np.bitwise_xor.accumulate(steps, axis=0) * 2.0 ** -_SOBOL_BITS


def _sobol_blocks(n: int, rng_seed: int):
    """Scrambled Sobol points in the 2n-cube, clipped into its interior, in
    blocks of ``_PAIR_BLOCK`` rows: the unit nodes of the order-n double
    rules (orders 3 and 4).  Each block is made when it is asked for."""
    for U in _scrambled_sobol(2 * n, _QMC_LOG2[n], rng_seed, _PAIR_BLOCK):
        yield _clip_unit(U)


def _tensor_space(n: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(times, weights) of the graded tensor rule on one simplex T^n (n <= 2),
    paired with itself by ``_square_blocks``."""
    axis = graded_panels(_TENSOR_AXIS_NODES[n], _AXIS_GRADING)
    U, wq = tensor_rule(*axis, n)
    V, jv = simplex_from_unit(U, t)
    return V, jv * wq


def _sobol_space(n: int, t: float, U: np.ndarray) -> tuple[_Side, _Side, np.ndarray]:
    """One block U of Sobol rows mapped onto the double simplex (v, w) in
    T^n x T^n: (v side, w side, weights), the weights a QMC average over the
    whole set with the Jacobians."""
    V, jv = simplex_from_unit(U[:, :n], t)
    W, jw = simplex_from_unit(U[:, n:], t)
    return _chain_side(V), _chain_side(W), jv * jw / (1 << _QMC_LOG2[n])


def _space_blocks(n: int, t: float, rng_seed: int):
    """The blocks of the one rule (0) on the double simplex, as
    ``_pairing_sums`` takes them."""
    if n <= 2:
        yield from ((0, *b) for b in _square_blocks(*_tensor_space(n, t)))
        return
    for U in _sobol_blocks(n, rng_seed):
        yield (0, *_sobol_space(n, t, U))


def _accumulate(n: int, blocks, lags: np.ndarray, deriv: bool
                ) -> list[tuple[np.ndarray, float]]:
    """(increment masses per lag, field mass) for one chaos order, one pair
    per rule of the blocks (``_pairing_sums``); an empty lag ladder gives
    the masses alone, with no (lags, B) work."""
    neg_lags_sq = -lags[:, None] ** 2
    buffers: dict = {}

    def term(A, S, w):
        # g = -expm1(-z) + 2z e^{-z} (K-field) or -expm1(-z) (u-field) at
        # z = h^2 / 2S, built as -g in reused (lags, B) buffers: every
        # rounding is that of g itself, with the sign flipped.  The mass is a
        # pairwise sum, whose bits depend on the values alone; a BLAS dot
        # product would depend on its thread count
        base = A / S if deriv else A
        mass = float(np.sum(w * base))
        if not lags.size:  # the masses alone: no (lags, B) work
            return mass, np.zeros(0)
        if S.size not in buffers:
            buffers[S.size] = [np.empty((lags.size, S.size)) for _ in range(3)]
        m, neg_g, e = buffers[S.size]
        np.divide(neg_lags_sq, 2.0 * S[None, :], out=m)
        np.expm1(m, out=neg_g)
        if deriv:
            np.add(neg_g, 1.0, out=e)  # e^{-z} = 1 + expm1(-z)
            m *= 2.0
            m *= e
            neg_g += m
        neg_g *= (2.0 * w * base)[None, :]
        return mass, -neg_g.sum(axis=1)

    return [(inc, mass) for mass, inc in _pairing_sums(n, blocks, term)]


def space_increment_masses(t: float, lags: Sequence[float], orders: Iterable[int],
                           deriv: bool, rng_seed: int = 10103
                           ) -> tuple[Dict[int, np.ndarray], Dict[int, float]]:
    """Per-order sum_{|alpha|=n} (F_alpha(t, x+h) - F_alpha(t, x))^2 across the
    lag ladder, plus the per-order field masses sum_{|alpha|=n} F_alpha(t, x)^2
    (x-independent here; for the truncation gate).  An empty ladder gives the
    masses alone."""
    t, lags = _check_times(t, lags)
    inc: Dict[int, np.ndarray] = {}
    mass: Dict[int, float] = {}
    for n in _check_orders(orders):
        [(inc[n], mass[n])] = _accumulate(n, _space_blocks(n, t, rng_seed), lags, deriv)
    return inc, mass


def _unit_box(inner: np.ndarray) -> tuple[_Side, np.ndarray]:
    """The side of the unit box rows, chain times (V_1, 1) with V_1 the inner
    simplex rows mapped at horizon 1, and their Jacobians.  The rows at
    v_n = s are these times scaled by s (``_lag_blocks``), with Jacobians
    j_1 s^(n-1)."""
    B, inner_n = inner.shape
    V, jac = simplex_from_unit(inner, 1.0) if inner_n else (inner, np.ones(B))
    return _chain_side(np.concatenate([V, np.ones((B, 1))], axis=1)), jac


def _tensor_unit_box(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inner rows, top coordinates u, weights) of the tensor rule on the
    unit box (n <= 2): box nodes u outer, inner nodes inner, so that v_n =
    t + h u spans [t, t + h]."""
    bx, bw = graded_panels(_BOX_AXIS_NODES, 1.0)
    if n == 1:
        return np.empty((bx.size, 0)), bx, bw
    ui, wi = graded_panels(_TENSOR_AXIS_NODES[1], _AXIS_GRADING)
    nb, ni = bx.size, ui.size
    return np.tile(ui, nb)[:, None], np.repeat(bx, ni), np.tile(wi, nb) * np.repeat(bw, ni)


def _lag_blocks(t: float, lags: np.ndarray, v: _Side, w_side: _Side, w: np.ndarray,
                uv: np.ndarray, uw: np.ndarray):
    """(rule k, v side, w side, weights) of one block of node pairs on each
    lag's box in turn, scaled from its unit sides, unit weights and top
    coordinates u: at v_n = s = t + h u per row and half, reciprocal gaps
    recip / s, log density log_dens - (n/2) log s and first gap s first,
    weights times s^(n-1) h per half.  The scaled block is written into
    arrays made once per block and overwritten lag by lag, so a yielded
    block holds only until the next one is asked for."""
    n = v.recip.shape[0]
    units, tops = (v, w_side), (uv, uw)
    sides = [_Side(*map(np.empty_like, unit)) for unit in units]
    ss = [np.empty_like(u) for u in tops]
    wk = np.empty_like(w)
    for k, h in enumerate(lags):
        for unit, u, side, s in zip(units, tops, sides, ss):
            np.multiply(h, u, out=s)
            s += t
            np.divide(unit.recip, s, out=side.recip)
            log_s = np.log(s, out=side.first)  # scratch until the first gap
            log_s *= 0.5 * n
            np.subtract(unit.log_dens, log_s, out=side.log_dens)
            np.multiply(s, unit.first, out=side.first)
        np.multiply(*ss, out=wk)
        wk **= n - 1
        wk *= w
        wk *= h * h
        yield k, *sides, wk


def _box_blocks(n: int, t: float, lags: np.ndarray, rng_seed: int):
    """The blocks of one rule per lag (rule k for lags[k]) on the increment
    regions v_n in [t, t+h], as ``_pairing_sums`` takes them.  Every lag's
    box is the unit box scaled row by row by s = t + h u, so a block's unit
    sides are built once and scaled to each lag in turn, one lag at a time:
    for n <= 2 each i <= j block of the unit box's tensor square, gathered
    once, and for deeper orders each block of Sobol rows, made once, so that
    the ladder generates the order's rows once."""
    if n <= 2:
        inner, top, wq = _tensor_unit_box(n)
        side, jac = _unit_box(inner)
        w1 = jac * wq
        for i, j, c in _square_pairs(top.size):
            yield from _lag_blocks(t, lags, _cut(side, i), _cut(side, j),
                                   c * w1[i] * w1[j], top[i], top[j])
        return
    for U in _sobol_blocks(n, rng_seed):
        (v, jv), (w_side, jw) = (_unit_box(half[:, :n - 1]) for half in (U[:, :n], U[:, n:]))
        w = jv * jw / (1 << _QMC_LOG2[n])
        del jv, jw
        yield from _lag_blocks(t, lags, v, w_side, w, U[:, n - 1], U[:, 2 * n - 1])
        del v, w_side, w  # before the next block of rows is made


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

    For t > 0 each lag's box is the unit box scaled by s = t + h u row by
    row, so each block's unit sides are built once and scaled to every lag
    in place (``_box_blocks``), and the ladder generates each order's Sobol
    rows once; the gate mass at t + max(lags) is the space pass there with
    an empty lag ladder.
    """
    t, lags = _check_times(t, lags)
    orders = _check_orders(orders)
    top = int(np.argmax(lags))
    if 0.0 < t < lags[top] / 4.0:
        raise ValueError(f"time increments from t = {t} with lags up to {lags[top]} are "
                         "inaccurate; the accurate range is t = 0 or t >= h/4")
    out: Dict[int, np.ndarray] = {}
    if t == 0.0:
        _, unit = space_increment_masses(1.0, (), orders, deriv, rng_seed)
        for n in orders:
            out[n] = unit[n] * lags ** (1.5 * n - (1.0 if deriv else 0.0))
        return out, {n: float(m[top]) for n, m in out.items()}

    for n in orders:
        rules = _accumulate(n, _box_blocks(n, t, lags, rng_seed), np.zeros(0), deriv)
        out[n] = np.array([mass for _, mass in rules])
    return out, space_increment_masses(t + float(lags[top]), (), orders, deriv, rng_seed)[1]
