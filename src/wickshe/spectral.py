"""Fourier exponential-integrator sweep of the coefficient system.

Same lower-triangular system as the finite-difference propagator, but the
heat semigroup acts exactly on a periodic Fourier representation and the
Duhamel integral over each step is evaluated with the phi-function trapezoid
(second order in dt, spectrally accurate in space).  This engine supplies
per-point coefficient tables for S-transform cross-checks, order-norm scans
at deep truncations, and the moment-curve machinery; it is cheap enough to
carry thousands of multi-indices.

Each step runs level by level, and each level chunk by chunk through the
forcing plan of the shared ``basis.LevelWiring``: the chunk's forcing, its
transform and the update all write into buffers reused across steps, and two
state buffers are swapped instead of allocated.  The top level forces
nothing, so its real-space values are never transformed back.  A state (plus
the plan) over ``feynman_kac.ARRAY_BUDGET_BYTES`` is refused before the
indices are enumerated.  A snapshot time must be a positive multiple of the
step dt (to within 1e-9, ``basis.snapshot_steps``); any other time is refused.

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

__all__ = ["SpectralChaosField"]


class SpectralChaosField:
    """Chaos coefficients of the solution field on a periodic grid.

    After ``run`` the object holds Fourier states for every requested
    snapshot time; ``coefficients_at``/``values_at`` evaluate the stored
    Fourier series (and, with ``deriv``, its exact spectral x-derivative,
    which is the derivative field's coefficient table) at arbitrary points.
    """

    def __init__(self, spec: TruncationSpec, u0: InitialCondition,
                 half_width: float = 4.0 * math.pi, modes: int = 384,
                 dt: float = 1.0 / 512.0):
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
        with np.errstate(divide="ignore", invalid="ignore"):
            phi1 = np.where(z == 0.0, 1.0, np.expm1(z) / z)
            phi2 = np.where(z == 0.0, 0.5, (np.expm1(z) - z) / (z * z))
        self.w_old = dt * (phi1 - phi2)
        self.w_new = dt * phi2

        # the complex state, then the plan's sqrt(alpha_j) * e_j rows
        check_array_budget(spec.count() * 2 * self.k.size + spec.lowerings() * modes,
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
        F_hat, new_F_hat = np.empty_like(U_hat), np.empty_like(U_hat)
        forcing = np.empty((FORCING_CHUNK, m))
        term = np.empty((FORCING_CHUNK, self.k.size), dtype=complex)
        for chunk in (c for level in level_chunks for c in level):
            np.fft.rfft(wiring.force(chunk, U_real, forcing[:chunk.size]), axis=1,
                        out=F_hat[chunk.block])

        for k in range(1, n_steps + 1):
            np.multiply(self.heat_mult, U_hat[0], out=new_hat[0])
            if N:
                np.fft.irfft(new_hat[0], n=m, out=new_real[0])
            for n, level in enumerate(level_chunks, start=1):
                for chunk in level:
                    sl = chunk.block
                    fh_new = np.fft.rfft(wiring.force(chunk, new_real, forcing[:chunk.size]),
                                         axis=1, out=new_F_hat[sl])
                    # (heat * U + w_old * F_old) + w_new * F_new
                    out, tmp = new_hat[sl], term[:chunk.size]
                    np.multiply(self.heat_mult, U_hat[sl], out=out)
                    out += np.multiply(self.w_old, F_hat[sl], out=tmp)
                    out += np.multiply(self.w_new, fh_new, out=tmp)
                    if n < N:  # the top level forces nothing
                        np.fft.irfft(out, n=m, axis=1, out=new_real[sl])
            U_hat, new_hat = new_hat, U_hat
            U_real, new_real = new_real, U_real
            F_hat, new_F_hat = new_F_hat, F_hat
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
