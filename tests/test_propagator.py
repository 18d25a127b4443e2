import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

from scipy.linalg import solve_banded

import wickshe
from wickshe.basis import (FORCING_CHUNK, LevelWiring, MultiIndex, TruncationSpec,
                           enumerate_multiindices, hermite_function_table)
from wickshe.chaos import order_norm, second_moment
from wickshe import coefficients
from wickshe.coefficients import (CoefficientQuadrature, cs_coefficient, cs_level_coefficients,
                                  dx_level_coefficients)
from wickshe.feynman_kac import EnsembleMemoryError
from wickshe.kernels import (apply_heat_semigroup, build_line_grid, constant_ic, sine_ic,
                             tanh_ic)
from wickshe import propagator
from wickshe.propagator import (PropagatorGrid, _boundary_values, factor_operator,
                                propagator_oracle)
from wickshe import spectral
from wickshe.spectral import SpectralChaosField, phi_functions

from oracles import lattice_values

ZERO = MultiIndex(())


@pytest.fixture(scope="module")
def cn_const():
    return propagator_oracle(TruncationSpec(2, 4), constant_ic(),
                             PropagatorGrid(), snapshot_times=[0.5, 1.0])


@pytest.fixture(scope="module")
def spectral_const():
    f = SpectralChaosField(TruncationSpec(2, 4), constant_ic())
    return f.run([0.5, 1.0])


class TestCrankNicolson:
    def test_level_zero_eigenfunction(self):
        sol = propagator_oracle(TruncationSpec(0, 1), sine_ic(), PropagatorGrid(),
                                snapshot_times=[0.5])
        vals = lattice_values(sol, 0.5, ZERO)
        x = sol.grid.x
        ref = math.exp(-0.25) * np.sin(x)
        interior = (np.abs(x) < 10)
        assert np.max(np.abs(vals - ref)[interior]) <= 1e-3

    def test_order_one_matches_quadrature(self, cn_const, coeff_quad):
        c = cn_const.coefficients_at(1.0, 0.0)
        ref = cs_coefficient(MultiIndex((1,)), 1.0, 0.0, constant_ic(), coeff_quad)
        assert c.get(MultiIndex((1,))) == pytest.approx(ref, rel=1e-3)

    def test_forcing_switch_off(self):
        # with the basis forced to zero the triangular system is unforced and
        # every coefficient of degree >= 1 stays identically zero
        sol = propagator_oracle(TruncationSpec(1, 3), constant_ic(), PropagatorGrid(dt=0.01),
                                snapshot_times=[0.5],
                                mode_functions=lambda j, x: np.zeros_like(x))
        for a in sol.indices:
            if a.degree() >= 1:
                assert np.all(lattice_values(sol, 0.5, a) == 0.0)

    def test_off_step_snapshot_time_rejected(self):
        # t = 0.014 lies between the steps 0.01 and 0.02; a rounded snapshot
        # would return the t = 0.01 field labelled as t = 0.014
        with pytest.raises(ValueError, match="multiple"):
            propagator_oracle(TruncationSpec(0, 1), sine_ic(), PropagatorGrid(dt=0.01),
                              snapshot_times=[0.014])

    def test_off_lattice_probe_rejected(self, cn_const):
        with pytest.raises(ValueError, match="lattice"):
            cn_const.coefficients_at(1.0, 0.0123)

    def test_scipy_linalg_loaded_on_the_first_solve(self):
        # importing the propagator loads no scipy; its first banded solve does
        src = str(Path(wickshe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = ("import sys\n"
                "from wickshe.basis import TruncationSpec\n"
                "from wickshe.kernels import constant_ic\n"
                "from wickshe.propagator import PropagatorGrid, propagator_oracle\n"
                "print(any(m.startswith('scipy') for m in sys.modules))\n"
                "propagator_oracle(TruncationSpec(1, 1), constant_ic(), PropagatorGrid(dt=0.01),\n"
                "                  snapshot_times=[0.1])\n"
                "print('scipy.linalg' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "True"]

    @pytest.mark.parametrize("u0", [constant_ic(), sine_ic()], ids=["constant", "sine"])
    def test_snapshot_past_the_former_boundary_grid(self, u0):
        # t = 2 needs |x| + 6 sqrt(t) = 20.5 > 20, the half-width + 8 that the
        # boundary-value grid used to stop at; it now widens with t
        sol = propagator_oracle(TruncationSpec(1, 1), u0, PropagatorGrid(dt=0.05),
                                snapshot_times=[2.0])
        x = sol.grid.x
        interior = np.abs(x) <= 10.0
        ref = apply_heat_semigroup(u0, 2.0, x[interior], build_line_grid(30.0, panels=96))
        assert np.max(np.abs(lattice_values(sol, 2.0, ZERO)[interior] - ref)) <= 1e-8

    def test_boundary_values_match_the_semigroup(self):
        # block-wise kernel rows against one semigroup call per time: on the
        # half-width + 8 grid up to t = 1.75, on the widened grid to t = 4
        # (half-width 12 + 6 sqrt(4), 77 = ceil(64 * 24 / 20) panels)
        u0 = sine_ic()
        for t_max, reach, panels in ((1.75, 20.0, 64), (4.0, 24.0, 77)):
            times = 0.05 * np.arange(1, round(t_max / 0.05) + 1)
            bc = _boundary_values(u0, times, 12.0)
            grid = build_line_grid(reach, panels=panels)
            ref = np.array([[apply_heat_semigroup(u0, float(t), end, grid) for t in times]
                            for end in (-12.0, 12.0)])
            assert np.max(np.abs(bc - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lam", [0.1, 1.0, 2.0, 16.0])
    def test_factored_step_matches_dense_pinned_solve(self, lam):
        # two steps of the symmetric factored form against a dense solve of
        # the Crank-Nicolson system with its Dirichlet rows pinned
        # (non-symmetric: rows 1 and nx - 2 keep their -lam couplings)
        dx = 0.1
        grid = PropagatorGrid(dt=4.0 * lam * dx * dx, dx=dx, half_width=1.0)
        spec, u0 = TruncationSpec(1, 2), sine_ic()
        sol = propagator_oracle(spec, u0, grid, snapshot_times=[grid.dt, 2 * grid.dt])
        x = grid.x
        nx = x.size
        E = hermite_function_table(2, x)
        M = (np.diag(np.full(nx, 1.0 + 2.0 * lam)) + np.diag(np.full(nx - 1, -lam), 1)
             + np.diag(np.full(nx - 1, -lam), -1))
        M[0, :] = M[-1, :] = 0.0
        M[0, 0] = M[-1, -1] = 1.0
        bgrid = build_line_grid(grid.half_width + 8.0, panels=64)
        U = np.zeros((3, nx))
        U[0] = u0(x)
        for k in (1, 2):
            U_new = np.zeros_like(U)
            for i in range(3):
                rhs = U[i].copy()
                rhs[1:-1] += lam * (U[i, :-2] - 2.0 * U[i, 1:-1] + U[i, 2:])
                if i > 0:  # alpha = e_1, e_2 forced by E_j times the zero index
                    rhs += 0.5 * grid.dt * E[i - 1] * (U[0] + U_new[0])
                rhs[0], rhs[-1] = ([apply_heat_semigroup(u0, k * grid.dt, end, bgrid)
                                    for end in (x[0], x[-1])] if i == 0 else [0.0, 0.0])
                U_new[i] = np.linalg.solve(M, rhs)
            U = U_new
            got = sol.snapshots[k * grid.dt]
            for i in range(3):
                assert np.max(np.abs(got[i] - U[i])) <= 1e-13 * np.max(np.abs(U[i]))

    def test_operator_factored_once_per_sweep(self, monkeypatch):
        # one dpttrf per sweep, one solve per level per step
        counts = {"factor": 0, "solve": 0}
        dpttrf, solve = scipy.linalg.lapack.dpttrf, propagator.solve_banded

        def count(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", count("factor", dpttrf))
        monkeypatch.setattr(propagator, "solve_banded", count("solve", solve))
        propagator_oracle(TruncationSpec(2, 3), sine_ic(), PropagatorGrid(dt=0.01),
                          snapshot_times=[0.05, 0.1])
        assert counts == {"factor": 1, "solve": 3 * 10}

    def test_non_dividing_dx_rejected(self):
        # 24 / 0.07 is not an integer: the last node would sit at 12.01, past
        # the Dirichlet end at half_width where the boundary value is taken
        with pytest.raises(ValueError, match="divide"):
            PropagatorGrid(dx=0.07)
        for dx in (0.025, 0.0125):
            x = PropagatorGrid(dx=dx).x
            assert x[0] == -12.0 and x[-1] == 12.0


class TestSpectralEngine:
    def test_matches_quadrature_coefficients(self, spectral_const, coeff_quad):
        c = spectral_const.coefficients_at(1.0, 0.0)
        for a in (MultiIndex((1,)), MultiIndex((0, 0, 1))):
            ref = cs_coefficient(a, 1.0, 0.0, constant_ic(), coeff_quad)
            assert c.get(a) == pytest.approx(ref, abs=2e-7)

    def test_matches_crank_nicolson(self, spectral_const, cn_const):
        sp = spectral_const.coefficients_at(0.5, 0.3)
        cn = cn_const.coefficients_at(0.5, 0.3)
        scale = math.sqrt(second_moment(sp))
        for a in sp.values:
            assert abs(sp.get(a) - cn.get(a)) <= 1e-3 * max(abs(sp.get(a)), 0.05 * scale)

    def test_sine_level_zero(self):
        f = SpectralChaosField(TruncationSpec(1, 2), sine_ic()).run([0.5])
        c = f.coefficients_at(0.5, 0.3)
        assert c.mean == pytest.approx(math.exp(-0.25) * math.sin(0.3), abs=1e-10)

    def test_derivative_view_matches_fd(self, spectral_const):
        h = 1e-4
        a = MultiIndex((0, 1))
        up = spectral_const.coefficients_at(1.0, 0.2 + h).get(a)
        dn = spectral_const.coefficients_at(1.0, 0.2 - h).get(a)
        dv = spectral_const.coefficients_at(1.0, 0.2, deriv=True).get(a)
        assert dv == pytest.approx((up - dn) / (2 * h), abs=1e-6)

    def test_periodicity_guard(self):
        with pytest.raises(ValueError, match="periodic"):
            SpectralChaosField(TruncationSpec(1, 2), tanh_ic())

    def test_points_outside_the_periodic_domain_rejected(self, spectral_const):
        L = spectral_const.L
        assert spectral_const.values_at(1.0, [-L, L - 1e-9]).shape == (15, 2)
        for x in (L, -L - 1e-9, 20.0, float("nan")):
            with pytest.raises(ValueError, match="periodic domain"):
                spectral_const.values_at(1.0, [0.0, x])

    def test_snapshot_time_alignment(self):
        f = SpectralChaosField(TruncationSpec(0, 1), constant_ic())
        with pytest.raises(ValueError, match="multiple"):
            f.run([0.3141])

    def test_order_masses_match_tables(self, spectral_const):
        masses = spectral_const.order_masses(1.0, 0.0, deriv=True)
        c = spectral_const.coefficients_at(1.0, 0.0, deriv=True)
        for n in range(3):
            assert masses[n] == pytest.approx(order_norm(c, n), abs=1e-14)

    def test_second_moment_short_time_and_refinement(self):
        # at t -> 0+ the field is the deterministic datum (second moment 1);
        # at t = 1 the truncated second moment is stable under refining the
        # truncation from (N=4, J=8) to (N=5, J=10)
        coarse = SpectralChaosField(TruncationSpec(4, 8), constant_ic(),
                                    modes=256, dt=1.0 / 256.0)
        coarse.run([1.0 / 256.0, 1.0])
        early = second_moment(coarse.coefficients_at(1.0 / 256.0, 0.0))
        assert early == pytest.approx(1.0, abs=2e-3)
        sm_coarse = second_moment(coarse.coefficients_at(1.0, 0.0))
        fine = SpectralChaosField(TruncationSpec(5, 10), constant_ic(),
                                  modes=256, dt=1.0 / 256.0)
        fine.run([1.0])
        sm_fine = second_moment(fine.coefficients_at(1.0, 0.0))
        assert abs(sm_fine - sm_coarse) / sm_fine < 0.01

    # the second-order step's error at its former default dt 1/512, against
    # a 1/1024 run, measured as below
    FORMER_ERROR = {"constant": 8.1e-8, "sine": 5.6e-8}

    @pytest.mark.parametrize("tag", ["constant", "sine"])
    def test_step_is_third_order(self, tag):
        # u and dx u at N = 4, J = 6, t = 0.5 and nine points against a 1/1024
        # run: each halving of dt cuts the error at least 7x (8x for a
        # third-order step), and the default dt runs at most a quarter of the
        # former steps with no larger error
        ic = {"constant": constant_ic, "sine": sine_ic}[tag]()
        xs = np.linspace(-2.0, 2.0, 9)

        def table(**dt):
            f = SpectralChaosField(TruncationSpec(4, 6), ic, **dt).run([0.5])
            return f.dt, np.concatenate([f.values_at(0.5, xs),
                                         f.values_at(0.5, xs, deriv=True)])

        _, ref = table(dt=1.0 / 1024.0)
        errors = [np.max(np.abs(table(dt=1.0 / n)[1] - ref)) for n in (64, 128, 256)]
        assert errors[0] >= 7.0 * errors[1] and errors[1] >= 7.0 * errors[2]
        dt, default = table()
        assert dt >= 4.0 / 512.0
        assert np.max(np.abs(default - ref)) <= self.FORMER_ERROR[tag]


def test_phi_functions_series_meets_closed_form():
    assert [float(phi[0]) for phi in phi_functions(np.zeros(1))] == [1.0, 0.5, 1.0 / 6.0]
    z = spectral.PHI_SERIES_RADIUS * np.array([-1.5, -1.01, -1.0, -0.99, -0.9,
                                               0.9, 0.99, 1.0, 1.01, 1.5])
    for series, closed in zip(spectral._phi_series(z), spectral._phi_closed(z)):
        np.testing.assert_allclose(series, closed, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("engine", ["spectral", "propagator"])
def test_state_over_budget_refused_before_enumeration(engine, monkeypatch):
    # N = 5, J = 40 has 1,221,759 indices: under the enumeration cap, but
    # one state array would take several GiB
    def no_enumeration(*args, **kwargs):
        raise AssertionError("indices enumerated")

    monkeypatch.setattr(f"wickshe.{engine}.enumerate_multiindices", no_enumeration)
    with pytest.raises(EnsembleMemoryError, match="1221759 indices"):
        if engine == "spectral":
            SpectralChaosField(TruncationSpec(5, 40), constant_ic())
        else:
            propagator_oracle(TruncationSpec(5, 40), constant_ic())


def _peak_and_count(engine, monkeypatch, sweep):
    """(tracemalloc peak, largest budget-checked byte count) of one sweep,
    after a small warm-up run has done the one-off imports."""
    module = {"spectral": spectral, "propagator": propagator}[engine]
    real, counted = module.check_array_budget, []

    def spy(n_values, what):
        counted.append(8 * n_values)
        return real(n_values, what)

    if engine == "spectral":
        SpectralChaosField(TruncationSpec(1, 1), constant_ic()).run([0.5])
    else:
        propagator_oracle(TruncationSpec(1, 1), constant_ic(), PropagatorGrid(dt=0.05), [0.1])
    monkeypatch.setattr(module, "check_array_budget", spy)
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, max(counted)


@pytest.mark.parametrize("engine", ["spectral", "propagator"])
def test_budget_counts_what_the_sweep_holds(engine, monkeypatch):
    # states, forcing buffers, plan and one state copy per snapshot: measured
    # peaks 1.01-1.02x the count; the former counts were 2-3x (spectral) and
    # 6-13x (propagator) under the peak
    if engine == "spectral":
        def sweep():
            SpectralChaosField(TruncationSpec(4, 6), sine_ic()).run([0.25, 0.5])
    else:
        def sweep():
            propagator_oracle(TruncationSpec(3, 6), constant_ic(), PropagatorGrid(dt=0.01),
                              [0.1 * k for k in range(1, 9)])
    peak, counted = _peak_and_count(engine, monkeypatch, sweep)
    assert 0.8 * counted <= peak <= 1.5 * counted, (peak / 2 ** 20, counted / 2 ** 20)


@pytest.mark.parametrize("panels", [48, 128])
def test_level_sweep_budget_counts_what_it_holds(monkeypatch, panels):
    # V at its top two levels, E, the output table and P(tau)'s offset
    # blocks: measured peaks 0.99x (48 panels) and 0.90x (128) the count;
    # the former count, none, was exceeded 2.1-2.3x by J^n m alone
    real, counted = coefficients.check_array_budget, []

    def spy(n_values, what):
        counted.append(8 * n_values)
        return real(n_values, what)

    dx_level_coefficients(1, 0.5, 0.0, constant_ic(), TruncationSpec(1, 1))
    quad = CoefficientQuadrature(panels=panels)
    monkeypatch.setattr(coefficients, "check_array_budget", spy)
    tracemalloc.start()
    try:
        dx_level_coefficients(2, 0.5, 0.0, constant_ic(), TruncationSpec(2, 6), quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.8 * max(counted) <= peak <= 1.5 * max(counted), (peak / 2 ** 20,
                                                              max(counted) / 2 ** 20)


def test_level_sweep_over_budget_refused_before_the_sweep(monkeypatch):
    # 64^3 mode tuples x 8192 grid nodes: 17 GB per array
    def no_table(*args, **kwargs):
        raise AssertionError("Hermite table built")

    monkeypatch.setattr(coefficients, "hermite_function_table", no_table)
    with pytest.raises(EnsembleMemoryError, match="level-3 sweep of 64"):
        cs_level_coefficients(3, 1.0, 0.0, constant_ic(), TruncationSpec(3, 64),
                              CoefficientQuadrature(panels=512))


def test_spectral_snapshots_refused_before_the_sweep(monkeypatch):
    # the field's plan fits, but a run keeping 64 snapshots of the state
    # would not: run refuses before it allocates anything
    field = SpectralChaosField(TruncationSpec(4, 6), constant_ic())
    budget = 8 * field._sweep_values(8)
    monkeypatch.setattr("wickshe.feynman_kac.ARRAY_BUDGET_BYTES", budget)
    with pytest.raises(EnsembleMemoryError, match="64 snapshots"):
        field.run([k / 128 for k in range(1, 65)])


class TestLevelWiring:
    """The shared forcing plan: a plain indexed add drops a duplicate row,
    so each (alpha, j) must be wired exactly once and rows must be unique
    within each (chunk, mode)."""

    spec = TruncationSpec(3, 4)

    @staticmethod
    def unit_wiring(indices, J):
        # with e_j = 1 on a one-point grid the plan's rows are the weights
        return LevelWiring(indices, np.ones((J, 1)))

    @staticmethod
    def local_rows(chunk, rows):
        return np.arange(chunk.size)[rows]

    def test_every_lowering_wired_once(self):
        indices = enumerate_multiindices(self.spec)
        index_of = {a: i for i, a in enumerate(indices)}
        wiring = self.unit_wiring(indices, self.spec.max_mode)
        seen = []
        for chunk in (c for level in wiring.chunks for c in level):
            for j0, rows, parents, weighted in chunk.modes:
                rows = self.local_rows(chunk, rows)
                assert weighted.shape == (rows.size, 1)
                seen += [(chunk.block.start + int(r), j0 + 1, int(p), float(w))
                         for r, p, w in zip(rows, parents, weighted[:, 0])]
        expected = [(index_of[a], j, index_of[a.lowered(j)], math.sqrt(a.entry(j)))
                    for a in indices for j in a.support()]
        assert len(seen) == len(set(seen)) == self.spec.lowerings()
        assert sorted(seen) == sorted(expected)

    def test_rows_unique_per_level_and_mode(self):
        wiring = self.unit_wiring(enumerate_multiindices(self.spec), self.spec.max_mode)
        for chunk in (c for level in wiring.chunks for c in level):
            modes = chunk.modes
            assert [j0 for j0, *_ in modes] == sorted({j0 for j0, *_ in modes})
            for _, rows, _, _ in modes:
                rows = self.local_rows(chunk, rows)
                assert np.unique(rows).size == rows.size

    def test_level_slices_tile_the_index_list(self):
        spec = TruncationSpec(6, 6)  # level 6 has 462 rows: two chunks
        indices = enumerate_multiindices(spec)
        wiring = self.unit_wiring(indices, spec.max_mode)
        assert len(wiring.slices) == spec.max_order + 1
        covered = np.concatenate([np.arange(len(indices))[sl] for sl in wiring.slices])
        np.testing.assert_array_equal(covered, np.arange(len(indices)))
        for n, sl in enumerate(wiring.slices):
            assert {a.degree() for a in indices[sl]} == {n}
            blocks = [c.block for c in wiring.chunks[n]]
            assert [b.start for b in blocks] == list(range(sl.start, sl.stop, FORCING_CHUNK))
            assert blocks[-1].stop == sl.stop
        assert len(wiring.chunks[6]) == 2

    def test_spectral_forcing_matches_add_at_reference(self):
        field = SpectralChaosField(self.spec, constant_ic(), modes=64)
        state = np.random.default_rng(7).standard_normal((len(field.indices), field.m))
        index_of = {a: i for i, a in enumerate(field.indices)}
        for n in range(self.spec.max_order + 1):
            level = [a for a in field.indices if a.degree() == n]
            wires = [(r, index_of[a.lowered(j)], j - 1, math.sqrt(a.entry(j)))
                     for r, a in enumerate(level) for j in a.support()]
            F = np.zeros((len(level), field.m))
            if wires:
                rows, parents, modes_j, weights = (np.array(c) for c in zip(*wires))
                np.add.at(F, rows, weights[:, None] * field.E[modes_j] * state[parents])
            planned = np.concatenate([
                np.fft.rfft(field.wiring.force(c, state, np.empty((c.size, field.m))), axis=1)
                for c in field.wiring.chunks[n]])
            assert np.array_equal(planned, np.fft.rfft(F, axis=1))

    def test_spectral_sweep_matches_reference_across_chunks(self):
        # reference: the whole-level step with a per-mode indexed-add forcing
        # and an inverse transform of every level, two forcing weights on the
        # first step and three after; level 6 spans two chunks
        spec, steps = TruncationSpec(6, 6), 4
        field = SpectralChaosField(spec, sine_ic(), modes=64)
        field.run([steps * field.dt])
        m, indices = field.m, field.indices
        index_of = {a: i for i, a in enumerate(indices)}
        levels = [slice(min(i for i, a in enumerate(indices) if a.degree() == n),
                        max(i for i, a in enumerate(indices) if a.degree() == n) + 1)
                  for n in range(spec.max_order + 1)]
        wires = [[(r, index_of[a.lowered(j)], j - 1, math.sqrt(a.entry(j)))
                  for r, a in enumerate(indices[sl]) for j in a.support()] for sl in levels]

        def forcing_hat(n, state):
            F = np.zeros((levels[n].stop - levels[n].start, m))
            if wires[n]:
                rows, parents, modes_j, weights = (np.array(c) for c in zip(*wires[n]))
                np.add.at(F, rows, weights[:, None] * field.E[modes_j] * state[parents])
            return np.fft.rfft(F, axis=1)

        U_real = np.zeros((len(indices), m))
        U_real[0] = field.u0(field.x)
        U_hat = np.fft.rfft(U_real, axis=1)
        F_hat = [forcing_hat(n, U_real) for n in range(spec.max_order + 1)]
        F_prev = [None] * (spec.max_order + 1)
        for k in range(1, steps + 1):
            new_hat, new_real = np.empty_like(U_hat), np.empty_like(U_real)
            new_hat[0] = field.heat_mult * U_hat[0]
            new_real[0] = np.fft.irfft(new_hat[0], n=m)
            for n in range(1, spec.max_order + 1):
                sel = levels[n]
                fh_new = forcing_hat(n, new_real)
                if k == 1:
                    w_old, w_new = field.w_first
                    new_hat[sel] = (field.heat_mult * U_hat[sel]
                                    + w_old * F_hat[n] + w_new * fh_new)
                else:
                    w_prev, w_old, w_new = field.w_step
                    new_hat[sel] = (field.heat_mult * U_hat[sel] + w_prev * F_prev[n]
                                    + w_old * F_hat[n] + w_new * fh_new)
                new_real[sel] = np.fft.irfft(new_hat[sel], n=m, axis=1)
                F_prev[n], F_hat[n] = F_hat[n], fh_new
            U_hat, U_real = new_hat, new_real
        assert field.snapshots[steps * field.dt].tobytes() == U_hat.tobytes()

    def test_batched_oracle_matches_per_column_solves(self):
        spec, grid, t = TruncationSpec(1, 2), PropagatorGrid(dt=0.01), 0.1
        u0 = constant_ic()
        sol = propagator_oracle(spec, u0, grid, snapshot_times=[t])
        # reference 1, bit for bit: the same factored solve, one alpha (one
        # column) at a time; reference 2: the pinned banded system of
        # I - lam * D2 solved by scipy's solve_banded, with one semigroup call
        # per boundary value, to within 1e-13 (the two differ by rounding)
        x = grid.x
        indices = enumerate_multiindices(spec)
        index_of = {a: i for i, a in enumerate(indices)}
        E = hermite_function_table(2, x)
        lam = grid.dt / (4.0 * grid.dx * grid.dx)
        n_steps = round(t / grid.dt)
        factors = factor_operator(x.size, lam)
        bc = _boundary_values(u0, grid.dt * np.arange(1, n_steps + 1), grid.half_width)
        ab = np.zeros((3, x.size))
        ab[0, 2:] = ab[2, :-2] = -lam
        ab[1, :] = 1.0 + 2.0 * lam
        ab[1, 0] = ab[1, -1] = 1.0
        bgrid = build_line_grid(grid.half_width + 8.0, panels=64)

        def forcing(a, state):
            f = np.zeros(x.size)
            for j in a.support():
                f += math.sqrt(a.entry(j)) * E[j - 1] * state[index_of[a.lowered(j)]]
            return f

        U = np.zeros((len(indices), x.size))
        U[0] = u0(x)
        V = U.copy()
        for k in range(1, n_steps + 1):
            U_new, V_new = np.zeros_like(U), np.zeros_like(V)
            for i, a in enumerate(indices):
                ends = bc[:, k - 1] if a.degree() == 0 else (0.0, 0.0)
                f = forcing(a, U) + forcing(a, U_new)
                f *= 0.5 * grid.dt
                rhs = 2.0 * U[i] + f
                rhs[1] += lam * (U[i, 0] + ends[0])
                rhs[-2] += lam * (U[i, -1] + ends[1])
                U_new[i] = propagator.solve_banded(factors, rhs[:, None])[:, 0] - U[i]
                U_new[i, 0], U_new[i, -1] = ends

                rhs = V[i].copy()
                rhs[1:-1] += lam * (V[i, :-2] - 2.0 * V[i, 1:-1] + V[i, 2:])
                rhs += 0.5 * grid.dt * (forcing(a, V) + forcing(a, V_new))
                for end, xe in ((0, -grid.half_width), (-1, grid.half_width)):
                    rhs[end] = (apply_heat_semigroup(u0, k * grid.dt, xe, bgrid)
                                if a.degree() == 0 else 0.0)
                V_new[i] = solve_banded((1, 1), ab, rhs)
            U, V = U_new, V_new
        assert np.array_equal(sol.snapshots[t], U)
        assert np.max(np.abs(sol.snapshots[t] - V)) <= 1e-13
