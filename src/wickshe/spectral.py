"""Fourier exponential-integrator sweep of the coefficient system.

Same lower-triangular system as the finite-difference propagator, but the
heat semigroup acts exactly on a periodic Fourier representation and the
Duhamel integral over each step is evaluated by the third-order exponential
Adams rule (Cox & Matthews 2002; Hochbruck & Ostermann 2010): the forcing is
interpolated quadratically through steps k-1, k and k+1, the last of which is
known because the lower level has already been advanced.  The first step has
no k-1 and interpolates linearly through k and k+1.  The weights come from
``phi_functions``; the step is third order in dt (default 1/128) and
spectrally accurate in space.  This engine supplies per-point coefficient
tables for S-transform cross-checks, order-norm scans at deep truncations,
and the moment-curve machinery; it is cheap enough to carry thousands of
multi-indices.

Each step runs level by level, and each level chunk by chunk through the
forcing plan of the shared ``basis.LevelWiring``: the chunk's forcing, its
transform and the update all write into buffers reused across steps; two
state buffers are swapped and three forcing buffers (steps k-1, k, k+1)
rotated instead of allocated.  The top level forces nothing, so its
real-space values are never transformed back.  A truncation whose state and
third forcing buffer (plus the plan) exceed ``feynman_kac.ARRAY_BUDGET_BYTES``
is refused before the indices are enumerated.  A snapshot time must be a
positive multiple of the step dt (to within 1e-9, ``basis.snapshot_steps``);
any other time is refused.

The domain is [-L, L) periodic with L = 4 pi by default: the sine initial
datum is exactly periodic there and Hermite-function mass beyond |x| = 4 pi
is ~ 5e-35, so periodization error is far below double precision.  Initial
data must be compatible with the periodic extension, and evaluation points
must lie in [-L, L) (both checked).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

import numpy as np

from .basis import (FORCING_CHUNK, LevelWiring, TruncationSpec, enumerate_multiindices,
                    hermite_function_table, snapshot_at, snapshot_steps)
from .chaos import ChaosCoefficients
from .feynman_kac import check_array_budget
from .kernels import InitialCondition

__all__ = ["SpectralChaosField", "phi_functions"]

PHI_SERIES_RADIUS = 1.0  # |z| below which phi_1..phi_3 are summed as series
_PHI_SERIES_TERMS = 20  # the first term dropped at |z| = 1 is 1/23! ~ 4e-23


def _phi_series(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    phi3 = np.zeros_like(z)
    for j in range(_PHI_SERIES_TERMS - 1, -1, -1):
        phi3 = phi3 * z + 1.0 / math.factorial(j + 3)
    phi2 = 0.5 + z * phi3
    return 1.0 + z * phi2, phi2, phi3


def _phi_closed(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    phi1 = np.expm1(z) / z
    phi2 = (phi1 - 1.0) / z
    return phi1, phi2, (phi2 - 0.5) / z


def phi_functions(z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_1, phi_2 and phi_3 of the exponential integrators at z, with
    phi_k(z) = sum_j z^j / (j + k)! and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z.

    The closed forms cancel as |z| -> 0, so below ``PHI_SERIES_RADIUS`` phi_3
    is summed as its series and phi_2, phi_1 follow from the recurrence read
    upwards, phi_k = 1/k! + z phi_{k+1}.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < PHI_SERIES_RADIUS
    series, closed = _phi_series(z[small]), _phi_closed(z[~small])
    out = tuple(np.empty_like(z) for _ in range(3))
    for phi, s, c in zip(out, series, closed):
        phi[small], phi[~small] = s, c
    return out


class SpectralChaosField:
    """Chaos coefficients of the solution field on a periodic grid.

    After ``run`` the object holds Fourier states for every requested
    snapshot time; ``coefficients_at``/``values_at`` evaluate the stored
    Fourier series (and, with ``deriv``, its exact spectral x-derivative,
    which is the derivative field's coefficient table) at arbitrary points.
    """

    def __init__(self, spec: TruncationSpec, u0: InitialCondition,
                 half_width: float = 4.0 * math.pi, modes: int = 384,
                 dt: float = 1.0 / 128.0):
        self.spec = spec
        self.u0 = u0
        self.L = half_width
        self.m = modes
        self.dt = dt
        self.x = -self.L + (2.0 * self.L / modes) * np.arange(modes)
        u_left, u_right = float(u0(np.array([-self.L]))[0]), float(u0(np.array([self.L]))[0])
        if abs(u_left - u_right) > 1e-10 * max(1.0, u0.sup_norm):
            raise ValueError(f"initial condition '{u0.tag}' is not compatible with a "
                             f"periodic domain of half-width {self.L}")
        self.k = math.pi / self.L * np.arange(modes // 2 + 1)
        z = -self.k ** 2 * dt / 2.0
        self.heat_mult = np.exp(z)
        phi1, phi2, phi3 = phi_functions(z)
        # the forcing weights of steps k and k+1 on the first step, and of
        # k-1, k and k+1 on every later one
        self.w_first = (dt * (phi1 - phi2), dt * phi2)
        self.w_step = (dt * (phi3 - phi2 / 2.0), dt * (phi1 - 2.0 * phi3),
                       dt * (phi3 + phi2 / 2.0))

        # the complex state and the third forcing buffer, then the plan's
        # sqrt(alpha_j) * e_j rows
        check_array_budget(spec.count() * 4 * self.k.size + spec.lowerings() * modes,
                           f"the spectral state and forcing plan of {spec.count()} "
                           f"indices x {modes} modes")
        self.indices = enumerate_multiindices(spec)
        self.levels = np.array([a.degree() for a in self.indices])
        self.E = hermite_function_table(spec.max_mode, self.x)

        self.wiring = LevelWiring(self.indices, self.E)
        self.snapshots: Dict[float, np.ndarray] = {}

    # -- time stepping -------------------------------------------------------

    def run(self, snapshot_times: Iterable[float]) -> "SpectralChaosField":
        wanted = snapshot_steps(snapshot_times, self.dt)
        n_steps = max(wanted)
        N = self.spec.max_order
        wiring, m = self.wiring, self.m
        level_chunks = [wiring.chunks[n] for n in range(1, N + 1)]

        # real values only of the levels that force a next one
        U_real = np.zeros((wiring.slices[N].start, m))
        new_real = np.empty_like(U_real)
        U_hat = np.empty((len(self.indices), self.k.size), dtype=complex)
        U_hat[0] = np.fft.rfft(self.u0(self.x))  # the zero index leads the graded order
        U_hat[1:] = np.fft.rfft(np.zeros(m))  # signed zeros as a transformed zero row
        if N:
            U_real[0] = self.u0(self.x)
        new_hat = np.empty_like(U_hat)
        F_prev, F_hat, new_F_hat = (np.empty_like(U_hat) for _ in range(3))
        forcing = np.empty((FORCING_CHUNK, m))
        term = np.empty((FORCING_CHUNK, self.k.size), dtype=complex)
        for chunk in (c for level in level_chunks for c in level):
            np.fft.rfft(wiring.force(chunk, U_real, forcing[:chunk.size]), axis=1,
                        out=F_hat[chunk.block])

        for k in range(1, n_steps + 1):
            if k == 1:
                weights, forcings = self.w_first, (F_hat, new_F_hat)
            else:
                weights, forcings = self.w_step, (F_prev, F_hat, new_F_hat)
            np.multiply(self.heat_mult, U_hat[0], out=new_hat[0])
            if N:
                np.fft.irfft(new_hat[0], n=m, out=new_real[0])
            for n, level in enumerate(level_chunks, start=1):
                for chunk in level:
                    sl = chunk.block
                    np.fft.rfft(wiring.force(chunk, new_real, forcing[:chunk.size]),
                                axis=1, out=new_F_hat[sl])
                    # heat * U, then each weight times its step's forcing, oldest first
                    out, tmp = new_hat[sl], term[:chunk.size]
                    np.multiply(self.heat_mult, U_hat[sl], out=out)
                    for w, F in zip(weights, forcings):
                        out += np.multiply(w, F[sl], out=tmp)
                    if n < N:  # the top level forces nothing
                        np.fft.irfft(out, n=m, axis=1, out=new_real[sl])
            U_hat, new_hat = new_hat, U_hat
            U_real, new_real = new_real, U_real
            F_prev, F_hat, new_F_hat = F_hat, new_F_hat, F_prev
            if k in wanted:
                self.snapshots[wanted[k]] = U_hat.copy()
        return self

    # -- evaluation ----------------------------------------------------------

    def values_at(self, t: float, xs, deriv: bool = False) -> np.ndarray:
        """(n_indices, n_points) coefficient values of the solution field (or
        its exact spatial derivative) at arbitrary points."""
        _, state = snapshot_at(self.snapshots, t)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        outside = xs[~((xs >= -self.L) & (xs < self.L))]
        if outside.size:
            raise ValueError(f"points {outside} lie outside the periodic domain "
                             f"[-{self.L:.6g}, {self.L:.6g}) of the spectral engine")
        weights = np.ones(self.m // 2 + 1)
        weights[1:-1] = 2.0
        C = state * (weights / self.m)
        if deriv:
            C = C * (1j * self.k)
        phases = np.exp(1j * np.outer(self.k, xs + self.L))
        return np.real(C @ phases)

    def coefficients_at(self, t: float, x: float, deriv: bool = False) -> ChaosCoefficients:
        vals = self.values_at(t, [x], deriv=deriv)[:, 0]
        table = {a: float(vals[i]) for i, a in enumerate(self.indices)}
        return ChaosCoefficients(point=(t, x), spec=self.spec, values=table)

    def order_masses(self, t: float, x: float, deriv: bool = False) -> np.ndarray:
        """sum_{|alpha| = n} coefficient^2 for n = 0..N."""
        vals = self.values_at(t, [x], deriv=deriv)[:, 0]
        return np.bincount(self.levels, weights=vals * vals, minlength=self.spec.max_order + 1)
