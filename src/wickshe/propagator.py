"""Finite-difference propagator for the lower-triangular coefficient system.

Unrolling the mild-solution identity coefficient-wise gives, for each
multi-index alpha, a deterministic forced heat equation

    d/dt u_alpha = (1/2) d2/dx2 u_alpha + sum_j sqrt(alpha_j) e_j(x) u_{alpha-,j},
    u_alpha(0, .) = u0 * 1{alpha = 0},

which this module integrates with an implicit Crank-Nicolson sweep on a
uniform lattice (unconditionally stable, second order in dt and dx).  The
sweep is independent of the simplex-quadrature coefficient path and serves
as its oracle.

The implicit operator A = I - lam * D2 (lam = dt / (4 dx^2)) is written with
its two Dirichlet rows decoupled: diagonal [1, 1 + 2 lam, ..., 1 + 2 lam, 1]
and off-diagonal [0, -lam, ..., -lam, 0], so the boundary values enter rows 1
and nx - 2 as lam * bc on the right-hand side.  A is then symmetric positive
definite; it is factored once per sweep as L D L^T (LAPACK ``dpttrf``), and
each step is

    U_new = A^{-1} (2 U + (dt/2)(f_old + f_new) + lam (U_end + bc_new) at rows 1, nx - 2) - U,

with U_end the current end values, then the Dirichlet values bc_new are set
at the ends: the same Crank-Nicolson scheme as
(I - lam D2) U_new = (I + lam D2) U + (dt/2)(f_old + f_new) with pinned ends.
``scipy.linalg`` is imported when the first sweep factors its operator:
nothing else in the package needs scipy, so importing ``wickshe`` does not
load it.

Each step advances one whole level |alpha| = n at a time: the level's
forcing comes from the forcing plan of the shared ``basis.LevelWiring`` (as
in the spectral sweep) and is carried to the next step, the right-hand side
is built in place in the level's rows of the next state, and a single
factored solve (``dpttrs``) overwrites it with the level's coefficients.
Forcings and states live in buffers allocated once per sweep; a state (plus
the plan) over ``feynman_kac.ARRAY_BUDGET_BYTES`` is refused before the
indices are enumerated.  A snapshot time must be a positive multiple of the
step dt (to within 1e-9, ``basis.snapshot_steps``); any other time is refused.

Dirichlet values at the lattice ends: level 0 takes heat-semigroup values of
the initial datum (line quadrature on a grid wide enough for the last
snapshot time, evaluated a block of steps at a time), all higher levels take
zero (their forcings decay like Hermite functions, far below tolerance at
|x| = 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

import numpy as np

from .basis import (FORCING_CHUNK, LevelWiring, MultiIndex, TruncationSpec,
                    enumerate_multiindices, hermite_function_table, snapshot_at,
                    snapshot_steps)
from .chaos import ChaosCoefficients
from .feynman_kac import check_array_budget
from .kernels import InitialCondition, build_line_grid, heat_kernel, require_cover

__all__ = ["PropagatorGrid", "PropagatorSolution", "propagator_oracle"]


def factor_operator(nx: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """L D L^T factors (``dpttrf``) of the symmetric Crank-Nicolson operator
    I - lam * D2 on nx nodes, its Dirichlet rows decoupled (module docstring)."""
    from scipy.linalg.lapack import dpttrf
    d = np.full(nx, 1.0 + 2.0 * lam)
    d[0] = d[-1] = 1.0
    e = np.full(nx - 1, -lam)
    e[0] = e[-1] = 0.0
    d, e, info = dpttrf(d, e, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf failed with info = {info}")
    return d, e


def solve_banded(factors: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve A x = b for every column of b with the factors of
    ``factor_operator`` (``dpttrs``), in place when b is Fortran-ordered.
    The sweep's one solve, called once per level per step under the name
    that ``perfbench/tracing.py`` counts."""
    from scipy.linalg.lapack import dpttrs
    x, info = dpttrs(*factors, b, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrs failed with info = {info}")
    if not np.shares_memory(x, b):
        b[...] = x
    return b


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


BOUNDARY_PANEL_COUNT = 64  # line-quadrature panels over half_width + 8 for the boundary values
BOUNDARY_CHUNK = 8  # steps per block of boundary values: 64 KB of kernel rows on the
# default 1,024-node grid; blocks of 64 steps raised the oracle's peak RSS by 0.2 MB


def _boundary_values(u0: InitialCondition, times: np.ndarray,
                     half_width: float) -> np.ndarray:
    """(P_t u0)(-half_width) and (P_t u0)(half_width) at each time, shape
    (2, len(times)): ``apply_heat_semigroup``'s line quadrature with u0 times
    the weights formed once and the kernel rows built a block of times at a
    time.  The grid reaches half_width + max(8, 6 sqrt(t_max)), so it covers
    every time; its panels are ``BOUNDARY_PANEL_COUNT`` over half_width + 8,
    and no wider when the grid widens."""
    reach = half_width + max(8.0, 6.0 * math.sqrt(float(times[-1])))
    panels = math.ceil(BOUNDARY_PANEL_COUNT * reach / (half_width + 8.0))
    bgrid = build_line_grid(reach, panels=panels)
    require_cover(bgrid.half_width, float(times[-1]), half_width)
    weighted = u0(bgrid.nodes) * bgrid.weights
    out = np.empty((2, times.size))
    for lo in range(0, times.size, BOUNDARY_CHUNK):
        t = times[lo:lo + BOUNDARY_CHUNK, None]
        for row, end in enumerate((-half_width, half_width)):
            out[row, lo:lo + t.shape[0]] = heat_kernel(t, end - bgrid.nodes) @ weighted
    return out


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
    # what the sweep below holds, in lattice rows: the forcing plan (one
    # row per lowering), E and the wiring's scratch block, the states U and
    # U_new, the forcings f_old and f_new, and one state copy per snapshot;
    # then the boundary values, two per step
    check_array_budget((spec.lowerings() + J + FORCING_CHUNK
                        + (4 + len(steps_of)) * spec.count()) * nx + 2 * n_steps,
                       f"the propagator states, snapshots and forcing plan of "
                       f"{spec.count()} indices x {nx} lattice nodes")
    indices = enumerate_multiindices(spec)
    if mode_functions is None:
        E = hermite_function_table(J, x)
    else:
        E = np.stack([np.asarray(mode_functions(j, x), dtype=float) for j in range(1, J + 1)])
    wiring = LevelWiring(indices, E)

    # Dirichlet values of the level-0 field (heat semigroup of u0)
    bc = _boundary_values(u0, grid.dt * np.arange(1, n_steps + 1), grid.half_width)

    U = np.zeros((len(indices), nx))
    U[0] = u0(x)  # the zero index leads the graded order
    U_new = np.zeros_like(U)
    f_old, f_new = np.empty_like(U), np.empty_like(U)
    for chunk in (c for level in wiring.chunks for c in level):
        wiring.force(chunk, U, f_old[chunk.block])

    lam = grid.dt / (4.0 * grid.dx * grid.dx)  # (dt/2) * (1/2) / dx^2
    factors = factor_operator(nx, lam)

    sol = PropagatorSolution(grid=grid, spec=spec, indices=indices)
    for k in range(1, n_steps + 1):
        for n, sl in enumerate(wiring.slices):
            for chunk in wiring.chunks[n]:  # lower levels already advanced
                wiring.force(chunk, U_new, f_new[chunk.block])
            # the right-hand side 2U + (dt/2)(f_old + f_new) is built in U_new[sl]
            # and solved there in place (its transpose is Fortran-ordered)
            u, rhs, f = U[sl], U_new[sl], f_old[sl]
            f += f_new[sl]
            f *= 0.5 * grid.dt
            np.multiply(2.0, u, out=rhs)
            rhs += f
            if n == 0:  # higher levels have zero boundary values
                rhs[:, 1] += lam * (u[:, 0] + bc[0, k - 1])
                rhs[:, -2] += lam * (u[:, -1] + bc[1, k - 1])
            solve_banded(factors, rhs.T)
            rhs -= u
            rhs[:, 0] = bc[0, k - 1] if n == 0 else 0.0
            rhs[:, -1] = bc[1, k - 1] if n == 0 else 0.0
        U, U_new = U_new, U
        f_old, f_new = f_new, f_old
        if not np.all(np.isfinite(U)):
            raise FloatingPointError(f"propagator sweep blew up at step {k}")
        if k in steps_of:
            sol.snapshots[steps_of[k]] = U.copy()
    return sol
