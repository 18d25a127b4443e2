"""Finite-difference propagator for the lower-triangular coefficient system.

Unrolling the mild-solution identity coefficient-wise gives, for each
multi-index alpha, a deterministic forced heat equation

    d/dt u_alpha = (1/2) d2/dx2 u_alpha + sum_j sqrt(alpha_j) e_j(x) u_{alpha-,j},
    u_alpha(0, .) = u0 * 1{alpha = 0},

which this module integrates with an implicit Crank-Nicolson sweep on a
uniform lattice (unconditionally stable, second order in dt and dx).  The
sweep is independent of the simplex-quadrature coefficient path and serves
as its oracle.

Each step advances one whole level |alpha| = n at a time: the level's
forcing comes from the forcing plan of the shared ``basis.LevelWiring`` (as
in the spectral sweep) and is carried to the next step, the right-hand side
is built in place in the level's rows of the next state, and a single banded
solve overwrites it with the level's coefficients.  Forcings and states
live in buffers allocated once per sweep; a state (plus the plan) over
``feynman_kac.ARRAY_BUDGET_BYTES`` is refused before the indices are
enumerated.  A snapshot time must be a positive multiple of the step dt (to
within 1e-9, ``basis.snapshot_steps``); any other time is refused.

Dirichlet values at the lattice ends: level 0 takes heat-semigroup values of
the initial datum, all higher levels take zero (their forcings decay like
Hermite functions, far below tolerance at |x| = 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

import numpy as np

from .basis import (LevelWiring, MultiIndex, TruncationSpec, enumerate_multiindices,
                    hermite_function_table, snapshot_at, snapshot_steps)
from .chaos import ChaosCoefficients
from .feynman_kac import check_array_budget
from .kernels import InitialCondition, apply_heat_semigroup, build_line_grid

__all__ = ["PropagatorGrid", "PropagatorSolution", "propagator_oracle"]


def solve_banded(l_and_u, ab, b, **kwargs):
    """``scipy.linalg.solve_banded``, imported on the first call: nothing else
    in the package needs scipy, so importing ``wickshe`` does not load it."""
    from scipy.linalg import solve_banded as banded
    return banded(l_and_u, ab, b, **kwargs)


@dataclass(frozen=True)
class PropagatorGrid:
    """Uniform space-time lattice for the coefficient sweep.  The spacing dx
    must divide the width 2 * half_width (to within 1e-9), so that the last
    node is the Dirichlet end ``half_width``."""

    dt: float = 0.0025
    dx: float = 0.025
    half_width: float = 12.0

    def __post_init__(self):
        if self.dt <= 0 or self.dx <= 0 or self.half_width <= 0:
            raise ValueError("dt, dx and half_width must be positive")
        cells = 2 * self.half_width / self.dx
        if abs(cells - round(cells)) > 1e-9:
            raise ValueError(f"dx = {self.dx} does not divide the lattice width "
                             f"2 * half_width = {2 * self.half_width}")

    @property
    def x(self) -> np.ndarray:
        n = int(round(2 * self.half_width / self.dx))
        return -self.half_width + self.dx * np.arange(n + 1)


@dataclass
class PropagatorSolution:
    """Per-alpha lattice values at the requested snapshot times."""

    grid: PropagatorGrid
    spec: TruncationSpec
    indices: list[MultiIndex]
    snapshots: Dict[float, np.ndarray] = field(default_factory=dict)  # (n_alpha, n_x)

    def coefficients_at(self, t: float, x: float) -> ChaosCoefficients:
        """Coefficient table at a lattice node (raises off-lattice)."""
        ts, state = snapshot_at(self.snapshots, t)
        xs = self.grid.x
        i = int(round((x + self.grid.half_width) / self.grid.dx))
        if not (0 <= i < xs.size) or abs(xs[i] - x) > 1e-9:
            raise ValueError(f"x={x} is not a lattice node (dx={self.grid.dx})")
        vals = {a: float(state[k, i]) for k, a in enumerate(self.indices)}
        return ChaosCoefficients(point=(ts, x), spec=self.spec, values=vals)


def _tridiagonal_banded(n: int, lam: float) -> np.ndarray:
    """Banded (ab) form of I - lam * D2 with Dirichlet rows pinned."""
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 + 2.0 * lam
    ab[0, 1:] = -lam
    ab[2, :-1] = -lam
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = 0.0
    ab[2, -2] = 0.0
    return ab


def propagator_oracle(spec: TruncationSpec, u0: InitialCondition,
                      grid: PropagatorGrid | None = None,
                      snapshot_times: Sequence[float] = (1.0,),
                      mode_functions: Callable[[int, np.ndarray], np.ndarray] | None = None,
                      ) -> PropagatorSolution:
    """Sweep all coefficients up to the truncation over the lattice.

    ``mode_functions(j, x)`` overrides the forcing basis e_j (test hook: with
    the basis switched off every |alpha| >= 1 coefficient stays identically
    zero).  Each snapshot time must be a positive multiple of ``grid.dt``.
    """
    grid = grid or PropagatorGrid()
    x = grid.x
    nx = x.size
    J = spec.max_mode
    steps_of = snapshot_steps(snapshot_times, grid.dt)
    n_steps = max(steps_of)
    check_array_budget((spec.count() + spec.lowerings()) * nx,
                       f"the propagator state and forcing plan of {spec.count()} "
                       f"indices x {nx} lattice nodes")
    indices = enumerate_multiindices(spec)
    if mode_functions is None:
        E = hermite_function_table(J, x)
    else:
        E = np.stack([np.asarray(mode_functions(j, x), dtype=float) for j in range(1, J + 1)])
    wiring = LevelWiring(indices, E)

    # boundary values of the level-0 field (heat semigroup of u0)
    bgrid = build_line_grid(grid.half_width + 8.0, panels=64)
    t_all = grid.dt * np.arange(1, n_steps + 1)
    bc_lo = np.array([apply_heat_semigroup(u0, float(tk), -grid.half_width, bgrid) for tk in t_all])
    bc_hi = np.array([apply_heat_semigroup(u0, float(tk), grid.half_width, bgrid) for tk in t_all])

    U = np.zeros((len(indices), nx))
    U[0] = u0(x)  # the zero index leads the graded order
    U_new = np.zeros_like(U)
    f_old, f_new = np.empty_like(U), np.empty_like(U)
    for chunk in (c for level in wiring.chunks for c in level):
        wiring.force(chunk, U, f_old[chunk.block])

    lam = grid.dt / (4.0 * grid.dx * grid.dx)  # (dt/2) * (1/2) / dx^2
    ab = _tridiagonal_banded(nx, lam)

    sol = PropagatorSolution(grid=grid, spec=spec, indices=indices)
    for k in range(1, n_steps + 1):
        for n, sl in enumerate(wiring.slices):
            for chunk in wiring.chunks[n]:  # lower levels already advanced
                wiring.force(chunk, U_new, f_new[chunk.block])
            # the right-hand side (U + lam S) + (dt/2)(f_old + f_new) is built in
            # U_new[sl] and solved in place, so the assignment below copies nothing
            u, rhs = U[sl], U_new[sl]
            inner = rhs[:, 1:-1]  # S = (U[:-2] - 2 U[1:-1]) + U[2:]
            np.multiply(2.0, u[:, 1:-1], out=inner)
            np.subtract(u[:, :-2], inner, out=inner)
            inner += u[:, 2:]
            inner *= lam
            inner += u[:, 1:-1]
            f = f_old[sl]
            f += f_new[sl]
            f *= 0.5 * grid.dt
            inner += f[:, 1:-1]
            rhs[:, 0] = bc_lo[k - 1] if n == 0 else 0.0
            rhs[:, -1] = bc_hi[k - 1] if n == 0 else 0.0
            U_new[sl] = solve_banded((1, 1), ab, rhs.T, overwrite_b=True).T
        U, U_new = U_new, U
        f_old, f_new = f_new, f_old
        if not np.all(np.isfinite(U)):
            raise FloatingPointError(f"propagator sweep blew up at step {k}")
        if k in steps_of:
            sol.snapshots[steps_of[k]] = U.copy()
    return sol
