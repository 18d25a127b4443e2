"""Empirical regularity probes: second moments of field increments, log-log
exponent fits, and the local-time increment laws.

The fitted slope of E|F(p+h) - F(p)|^2 against the lag h is twice the
moment-level Hoelder exponent (the Kolmogorov-criterion reading).  Moment
curves are deterministic: for constant initial data they come from the exact
chain-pairing engine, which is free of mode truncation.  A truncation gate
refuses curves whose top-order mass share exceeds 5% of the total second
moment at any probed point, since order truncation biases slopes downward
before anything else does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .basis import snapshot_steps
from .chain_moments import CHAIN_ORDERS, space_increment_masses, time_increment_masses
from .feynman_kac import build_level_grid, chunk_binner, local_time_ensemble_stats, path_ensemble

__all__ = [
    "IncrementMomentCurve",
    "ExponentEstimate",
    "TruncationTailError",
    "exact_increment_curve",
    "fit_exponent",
    "local_time_increment_check",
    "local_time_temporal_increment_check",
]

TAIL_SHARE_GATE = 0.05
LOW_R2 = 0.98  # fits with a smaller r^2 are flagged ``low_r2``


class TruncationTailError(ValueError):
    """Raised when the top-order mass share says truncation would corrupt a slope."""


@dataclass(frozen=True)
class IncrementMomentCurve:
    """Second moments of field increments over a lag ladder.

    Moments are non-negative (a constant field yields all zeros); fitting an
    exponent additionally requires them strictly positive.
    """

    lags: np.ndarray
    moments: np.ndarray
    tail_share: float = 0.0

    def __post_init__(self):
        if self.lags.size != self.moments.size:
            raise ValueError("lags and moments must align")
        if np.any(np.diff(self.lags) <= 0):
            raise ValueError("lags must be strictly increasing")
        if np.any(self.moments < 0):
            raise ValueError("moments must be non-negative")

    @property
    def monotone(self) -> bool:
        """Whether the moments are non-decreasing along the lag ladder."""
        return bool(np.all(np.diff(self.moments) >= 0))


def _sorted_lags(lags: Sequence[float]) -> np.ndarray:
    """The lags in increasing order, refused when one repeats, since a
    moment curve needs strictly increasing lags."""
    lags = np.asarray(sorted(float(h) for h in lags))
    if np.any(np.diff(lags) == 0):
        raise ValueError(f"lags must be distinct, got {lags.tolist()}")
    return lags


@dataclass(frozen=True)
class ExponentEstimate:
    slope: float
    stderr: float
    r_squared: float
    fit_range: tuple[float, float]
    low_r2: bool = False


def exact_increment_curve(t: float, direction: Literal["space", "time"],
                          lags: Sequence[float], deriv: bool,
                          max_order: int = 4, rng_seed: int = 10103) -> IncrementMomentCurve:
    """Moment curve for constant initial data from the chain-pairing engine
    (exact in the mode index; quadrature only over time simplices).

    The solution field's order-0 part is constant in both directions, so the
    per-order sums over |alpha| = 1..max_order are the whole increment
    moment; the truncation gate applies to the order cut alone.  It is
    evaluated at the latest probed time (t in space, t + max(lags) in time),
    where the top-order share is largest, against ``TAIL_SHARE_GATE`` as it
    reads at the call, and a share that is not finite is refused.  So is a
    space curve at t = 0: every chain mass vanishes there and the share is
    0/0.  A direction other than "space" or "time", an unsupported order or
    a repeated lag is refused before the chain pass; the chain engine
    refuses a base time that is not finite and non-negative, and a lag that
    is not finite and positive.

    Away from t = 0 both fields are smooth in time, so a time curve from
    t > 0 with lags well below t measures slope ~2.  The Hoelder exponents
    (time slopes 3/2 for u, 1/2 for dx u) are attained from t = 0.
    """
    if direction not in ("space", "time"):
        raise ValueError(f"direction must be 'space' or 'time', got {direction!r}")
    if max_order not in CHAIN_ORDERS:
        raise ValueError(f"max_order {max_order} is not supported; the chain-pairing "
                         f"engine handles orders {CHAIN_ORDERS[0]}..{CHAIN_ORDERS[-1]}")
    lags = _sorted_lags(lags)
    orders = range(1, max_order + 1)
    if direction == "space" and t == 0.0:
        raise TruncationTailError("top-order mass share is 0/0 at base time 0, "
                                  "where every chain mass vanishes")
    if direction == "space":
        inc, mass = space_increment_masses(t, lags, orders, deriv, rng_seed)
    else:
        inc, mass = time_increment_masses(t, lags, orders, deriv, rng_seed)
    total_mass = sum(mass.values()) + (0.0 if deriv else 1.0)  # order-0 of u is 1
    share = mass[max_order] / total_mass
    if not math.isfinite(share):
        raise TruncationTailError(
            f"top-order mass share is {share} at base time {t}; the chain masses "
            "are undefined there")
    if share > TAIL_SHARE_GATE:
        raise TruncationTailError(
            f"top-order mass share {share:.3%} exceeds the {TAIL_SHARE_GATE:.0%} gate")
    return IncrementMomentCurve(lags=lags, moments=np.asarray(sum(inc.values())),
                                tail_share=share)


def fit_exponent(curve: IncrementMomentCurve) -> ExponentEstimate:
    """Least-squares slope of log2(moment) against log2(lag).

    Fitting log2 ratios against the first point makes the slope invariant
    under any float-exact rescaling of the moments (scale equivariance up to
    IEEE product rounding otherwise).  Requires at least 6 points.
    """
    if curve.lags.size < 6:
        raise ValueError(f"need at least 6 lag points, got {curve.lags.size}")
    if np.any(curve.moments <= 0):
        raise ValueError("cannot fit an exponent to non-positive moments")
    lx = np.log2(curve.lags / curve.lags[0])
    ly = np.log2(curve.moments / curve.moments[0])
    if np.ptp(ly) == 0.0:
        raise ValueError("degenerate moment curve: no log range to regress on")
    n = lx.size
    mx, my = lx.mean(), ly.mean()
    sxx = np.sum((lx - mx) ** 2)
    slope = float(np.sum((lx - mx) * (ly - my)) / sxx)
    resid = ly - my - slope * (lx - mx)
    dof = max(n - 2, 1)
    stderr = float(math.sqrt(np.sum(resid ** 2) / dof / sxx))
    ss_tot = float(np.sum((ly - my) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return ExponentEstimate(slope=slope, stderr=stderr, r_squared=r2,
                            fit_range=(float(curve.lags[0]), float(curve.lags[-1])),
                            low_r2=r2 < LOW_R2)


# ---------------------------------------------------------------------------
# local-time increment laws (Monte Carlo)


def local_time_increment_check(t: float, h_values: Sequence[float], n_paths: int,
                               stream_seed: int, dt: float = 1e-3,
                               delta_a: float = 0.025, x: float = 0.0,
                               threads: int = 1) -> list[tuple[float, float]]:
    """Table of (h, E int (L_a - L_{a-h})^2 da / h).

    The ratio approaches 4t as h decreases (linear local-time increment law).
    Every h must be a multiple of the level resolution delta_a with
    h >= 2 delta_a, and none may repeat; h = 0 is allowed and returns
    exactly 0.  This is the
    ``"increment_table"`` of ``local_time_ensemble_stats`` on its own stream
    label, "lt-increments".
    """
    return local_time_ensemble_stats(t, dt, delta_a, n_paths, stream_seed, x=x,
                                     threads=threads, h_values=h_values,
                                     stream_label="lt-increments")["increment_table"]


def local_time_temporal_increment_check(t_hi: float, lags: Sequence[float],
                                        n_paths: int, stream_seed: int,
                                        dt: float = 1e-3, delta_a: float = 0.025,
                                        x: float = 0.0,
                                        threads: int = 1) -> IncrementMomentCurve:
    """E int (L_a(t) - L_a(t - h))^2 da over a lag ladder (exponent 3/2 law).

    The local-time increments show the (t - s)^{3/2} scaling at every t; the
    solution field shows it only from t = 0 (see ``exact_increment_curve``)
    and is smooth in time away from it.  t_hi and every lag must be positive
    multiples of dt, and no lag may exceed t_hi (ValueError), so that each
    increment is cut at exactly t_hi - h.  A repeated lag is refused before
    any path is drawn.
    """
    lags = _sorted_lags(lags)
    if np.any(lags > t_hi):
        raise ValueError(f"lags {lags[lags > t_hi].tolist()} exceed t_hi = {t_hi}")
    snapshot_steps([t_hi, *lags.tolist()], dt)
    cuts = [round(t_hi / dt) - round(h / dt) for h in lags]
    levels = build_level_grid(t_hi, x, delta_a)

    def reduce(b, steps, rows, chunks) -> np.ndarray:
        # L_a(t) - L_a(t - h) is the occupation of the steps after the cut alone
        windows = [(cut, chunk_binner(steps[cut:], levels, rows)) for cut in cuts]
        work = np.empty(rows * (steps.size - min(cuts, default=steps.size)))
        vals = []
        for pos in chunks:
            out = np.empty((len(cuts), pos.shape[0]))
            for row, (cut, bin_tail) in zip(out, windows):
                D = bin_tail(pos[:, cut:], work)
                np.einsum("ij,ij->i", D, D, out=row)
            vals.append(out)
        v = np.concatenate(vals, axis=1)
        v *= delta_a  # per path and cut: int (L_a(t) - L_a(t - h))^2 da
        return v

    blocks = path_ensemble(t_hi, x, dt, n_paths, stream_seed, "lt-temporal", threads,
                           reduce, levels)
    # each block's sum over its paths, the blocks added in order
    return IncrementMomentCurve(lags=lags, moments=sum(p.sum(axis=1) for p in blocks) / n_paths)
