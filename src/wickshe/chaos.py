"""Chaos-coefficient containers and the algebra on them: Wick product,
chaos-side S-transform, weighted order norms and second moments.

A coefficient table is a sparse map alpha -> real attached to one point
(t, x).  On the Cameron-Martin basis the Wick product is

    xi_alpha <> xi_beta = sqrt((alpha+beta)! / (alpha! beta!)) xi_{alpha+beta},

and the S-transform of xi_alpha at test-function modes (phi_1, phi_2, ...) is
prod_j phi_j^{alpha_j} / sqrt(alpha_j!); both are implemented exactly on the
truncated index set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from .basis import MultiIndex, TruncationSpec, ZERO_INDEX

__all__ = [
    "ChaosCoefficients",
    "second_moment",
    "order_norm",
    "wick_product",
    "s_transform_chaos",
    "s_transform_tail_estimate",
]


@dataclass
class ChaosCoefficients:
    """Sparse chaos coefficients of a random field evaluated at one (t, x).

    ``dropped_mass`` records squared-coefficient mass discarded by the last
    truncating operation that produced this table (0.0 when nothing was
    dropped); it makes truncation bias observable instead of silent.
    """

    point: tuple[float, float]
    spec: TruncationSpec
    values: Dict[MultiIndex, float] = field(default_factory=dict)
    dropped_mass: float = 0.0

    def __post_init__(self):
        for alpha in self.values:
            if not self.spec.contains(alpha):
                raise ValueError(f"coefficient key {alpha} violates truncation "
                                 f"(N={self.spec.max_order}, J={self.spec.max_mode})")

    def get(self, alpha: MultiIndex) -> float:
        return self.values.get(alpha, 0.0)

    @property
    def mean(self) -> float:
        """The (0)-coefficient: E of the field at this point."""
        return self.values.get(ZERO_INDEX, 0.0)


def second_moment(coeffs: ChaosCoefficients) -> float:
    """Truncated L^2 norm squared: sum of squared coefficients."""
    return float(sum(v * v for v in coeffs.values.values()))


def order_norm(coeffs: ChaosCoefficients, n: int, lam: float = 0.0) -> float:
    """Weighted order mass e^{2 lam n} sum_{|alpha| = n} coefficient^2.

    Public: the weighted order norms are part of the Wick algebra's API, and
    the order-norm decay check (acceptance criterion 9) reads them."""
    if n > coeffs.spec.max_order:
        raise ValueError(f"order {n} exceeds truncation N={coeffs.spec.max_order}")
    mass = sum(v * v for a, v in coeffs.values.items() if a.degree() == n)
    return float(math.exp(2.0 * lam * n) * mass)


def wick_product(F: ChaosCoefficients, G: ChaosCoefficients) -> ChaosCoefficients:
    """Wick product on coefficient tables:

        (F <> G)_gamma = sum_{alpha+beta=gamma} F_alpha G_beta
                         sqrt(gamma! / (alpha! beta!)).

    Terms of degree beyond the shared truncation order are dropped; their
    squared mass is reported on the result's ``dropped_mass``.
    """
    if F.spec != G.spec:
        raise ValueError("wick_product operands must share a TruncationSpec")
    kept: Dict[MultiIndex, float] = {}
    overflow: Dict[MultiIndex, float] = {}
    N = F.spec.max_order
    for a, fa in F.values.items():
        if fa == 0.0:
            continue
        for b, gb in G.values.items():
            if gb == 0.0:
                continue
            gamma = a + b
            w = math.sqrt(gamma.factorial() / (a.factorial() * b.factorial()))
            target = kept if gamma.degree() <= N else overflow
            target[gamma] = target.get(gamma, 0.0) + fa * gb * w
    dropped = sum(v * v for v in overflow.values())
    return ChaosCoefficients(point=F.point, spec=F.spec, values=kept, dropped_mass=dropped)


def s_transform_chaos(coeffs: ChaosCoefficients, phi_modes: Sequence[float]) -> float:
    """Truncated S-transform sum_alpha F_alpha prod_j phi_j^{alpha_j} / sqrt(alpha_j!)
    where phi_j are the Hermite-mode coordinates of the test function."""
    phi = np.asarray(phi_modes, dtype=float)
    if phi.size < coeffs.spec.max_mode:
        raise ValueError(f"phi_modes must cover {coeffs.spec.max_mode} modes, got {phi.size}")
    total = 0.0
    for a, v in coeffs.values.items():
        term = v
        for j, aj in enumerate(a.entries, start=1):
            if aj:
                term *= phi[j - 1] ** aj / math.sqrt(math.factorial(aj))
        total += term
    return float(total)


def s_transform_tail_estimate(coeffs: ChaosCoefficients, phi_modes: Sequence[float]) -> float:
    """Cauchy-Schwarz style estimate of the S-transform truncation tail.

    The dropped degree->infinity part is bounded by
    sqrt(tail mass of F) * sqrt(sum_{n>N} |phi|^{2n} / n!); the unavailable
    coefficient tail mass is extrapolated geometrically from the last two
    measured order masses.  A diagnostic, not a certified bound.
    """
    N = coeffs.spec.max_order
    m_last = order_norm(coeffs, N)
    m_prev = order_norm(coeffs, N - 1) if N >= 1 else 0.0
    if m_prev <= 0.0 or m_last <= 0.0:
        tail_mass = m_last
    else:
        r = min(m_last / m_prev, 0.9)
        tail_mass = m_last * r / (1.0 - r)
    phi = np.asarray(phi_modes, dtype=float)
    p2 = float(phi @ phi)
    # sum_{n>N} p2^n / n!
    s_tail = math.exp(p2) - sum(p2 ** n / math.factorial(n) for n in range(N + 1))
    s_tail = max(s_tail, 0.0)
    return math.sqrt(max(tail_mass, 0.0)) * math.sqrt(s_tail)
