import math
import tracemalloc

import numpy as np
import pytest

from wickshe import feynman_kac
from wickshe.basis import hermite_function, hermite_function_dx
from wickshe.cli import _phi_cases
from wickshe.feynman_kac import (EnsembleMemoryError, build_level_grid, chunk_binner,
                                 fk_conditional_estimate, local_time,
                                 local_time_ensemble_stats, ordered_map, path_ensemble,
                                 psi_law_stats, psi_sample, sample_noise, simulate_path,
                                 s_transform_dx_mc, s_transform_ensemble_mc, s_transform_mc,
                                 standard_error)
from wickshe.kernels import constant_ic, sine_ic
from wickshe.regularity import local_time_increment_check, local_time_temporal_increment_check
from wickshe.streams import substream

from oracles import occupation_functional


class TestPaths:
    def test_grid_and_start(self):
        t_grid, positions = simulate_path(1.0, 1e-3, 0.5, substream(1, "p"))
        assert t_grid[0] == 0.0 and t_grid[-1] == 1.0
        assert positions[0] == 0.5
        steps = np.diff(t_grid)
        assert steps.max() <= 1e-3 + 1e-15

    def test_last_step_shortened(self):
        t_grid, _ = simulate_path(0.0025, 1e-3, 0.0, substream(1, "p"))
        np.testing.assert_allclose(t_grid, [0.0, 1e-3, 2e-3, 2.5e-3])

    def test_ensemble_moments(self):
        gen = substream(42, "path-moments")
        n = 100_000
        inc = gen.standard_normal((n, 4)) * math.sqrt(0.25)
        b1 = inc.sum(axis=1)
        # martingale mean and unit variance at t = 1
        assert abs(b1.mean()) <= 3 * b1.std(ddof=1) / math.sqrt(n)
        v = b1.var(ddof=1)
        assert abs(v - 1.0) <= 3 * v * math.sqrt(2.0 / (n - 1))

    def test_dt_guard(self):
        with pytest.raises(ValueError):
            simulate_path(1.0, -0.1, 0.0, substream(1, "p"))


class TestLocalTime:
    def test_mass_identity_exact(self):
        p = simulate_path(0.7, 1e-3, -0.4, substream(9, "lt"))
        levels = build_level_grid(0.7, -0.4, 0.05)
        L = local_time(*p, levels)
        assert float((levels[1] - levels[0]) * L.sum()) == pytest.approx(0.7, abs=1e-12)

    def test_positions_left_as_they_are(self):
        # the binner overwrites its input when given no work buffer
        t_grid, positions = simulate_path(0.7, 1e-3, -0.4, substream(9, "lt"))
        before = positions.copy()
        local_time(t_grid, positions, build_level_grid(0.7, -0.4, 0.05))
        assert np.array_equal(positions, before)

    @pytest.mark.parametrize("law", [
        lambda h: local_time_ensemble_stats(0.5, 1e-2, 0.1, 200, 1, h_values=h),
        lambda h: local_time_increment_check(0.5, h, 200, 1, dt=1e-2, delta_a=0.1),
    ], ids=["ensemble-stats", "increment-check"])
    @pytest.mark.parametrize("h_values", [[0.2, 0.2, 0.4], [0.0, 0.4, 0.0]])
    def test_repeated_lag_refused_before_any_path(self, monkeypatch, law, h_values):
        def no_paths(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(feynman_kac, "path_ensemble", no_paths)
        with pytest.raises(ValueError, match="distinct"):
            law(h_values)

    def test_coverage_guard(self):
        p = simulate_path(1.0, 1e-3, 0.0, substream(9, "lt2"))
        narrow = np.arange(-0.2, 0.2, 0.05)
        with pytest.raises(ValueError, match="cover"):
            local_time(*p, narrow)

    def test_mean_local_time_at_origin(self):
        stats = local_time_ensemble_stats(1.0, 1e-3, 0.025, 30_000, 1234)
        target = math.sqrt(2.0 / math.pi)
        dev = abs(stats["mean_L_at_start"] - target)
        assert dev <= 3 * stats["se_L_at_start"] + stats["bias_budget_L"]

    def test_mean_quadratic_occupation(self):
        stats = local_time_ensemble_stats(1.0, 1e-3, 0.025, 30_000, 1234)
        target = 8.0 / (3.0 * math.sqrt(2.0 * math.pi))
        dev = abs(stats["mean_int_L2"] - target)
        assert dev <= 3 * stats["se_int_L2"] + stats["bias_budget_L2"]


def _whole_block_profiles(pos, steps, levels):
    """Reference histogram: one weighted bincount over the whole block."""
    da = float(levels[1] - levels[0])
    K = levels.size
    idx = np.floor((pos - float(levels[0] - 0.5 * da)) / da).astype(np.int64)
    idx += K * np.arange(pos.shape[0])[:, None]
    counts = np.bincount(idx.ravel(), weights=np.broadcast_to(steps, pos.shape).ravel(),
                         minlength=pos.shape[0] * K)
    return counts.reshape(pos.shape[0], K) / da


def _block(nb, n_steps, seed=3):
    t = n_steps * 1e-3
    steps = np.diff(feynman_kac._time_grid(t, 1e-3))
    pos = feynman_kac._positions(nb, steps, 0.1, substream(seed, "occ-block"))
    return pos, steps, build_level_grid(t, 0.1, 0.79 * math.sqrt(1e-3))


def _chunked_profiles(pos, steps, levels):
    """The block binned as the reducers bin it: ``ROW_CHUNK`` rows at a time
    by one ``chunk_binner`` through one work buffer."""
    nb, m = pos.shape
    rows = min(feynman_kac.ROW_CHUNK, nb)
    bin_chunk = chunk_binner(steps, levels, rows)
    work = np.empty(rows * m)
    out = np.empty((nb, levels.size))
    for r0 in range(0, nb, rows):
        out[r0:r0 + rows] = bin_chunk(pos[r0:r0 + rows], work)
    return out


class TestOccupationProfiles:
    # 50 rows: one short chunk; 300 rows: two full chunks and a short one
    @pytest.mark.parametrize("nb, n_steps", [(50, 300), (300, 200), (2000, 1000)])
    def test_chunks_match_whole_block_bincount(self, nb, n_steps):
        pos, steps, levels = _block(nb, n_steps)
        before = pos.copy()
        got = _chunked_profiles(pos, steps, levels)
        assert got.shape == (nb, levels.size)
        assert np.array_equal(pos, before)  # the work buffer took the binning
        assert np.array_equal(got, _whole_block_profiles(pos, steps, levels))

    def test_column_slice_matches(self):
        # column slices are not contiguous; the temporal increment check
        # bins the trailing columns after each cut
        pos, steps, levels = _block(300, 200)
        for cols in (slice(None, 150), slice(50, None)):
            got = _chunked_profiles(pos[:, cols], steps[cols], levels)
            assert np.array_equal(got, _whole_block_profiles(pos[:, cols], steps[cols], levels))

    def test_escape_in_last_row_of_last_chunk(self):
        pos, steps, levels = _block(300, 200)
        pos[-1, -1] = levels[-1] + levels[1] - levels[0]
        with pytest.raises(ValueError, match="cover"):
            _chunked_profiles(pos, steps, levels)
        pos[-1, -1] = np.nan
        with pytest.raises(ValueError, match="cover"):
            _chunked_profiles(pos, steps, levels)

    def test_peak_memory_is_bounded_by_the_output(self):
        pos, steps, levels = _block(2000, 1000)
        tracemalloc.start()
        try:
            out = _chunked_profiles(pos, steps, levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * out.nbytes


class TestOrderedMap:
    def test_order_and_inline_single_item(self, monkeypatch):
        assert ordered_map(lambda i: i * i, range(7), 3) == [i * i for i in range(7)]

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(feynman_kac, "ThreadPoolExecutor", no_pool)
        assert ordered_map(lambda i: i + 1, [4], 8) == [5]
        assert ordered_map(lambda i: i + 1, [4, 5], 1) == [5, 6]
        # a one-block estimate runs without a pool at any thread count
        levels = build_level_grid(0.2, 0.0, 0.05)
        dW = sample_noise(levels, substream(1, "n"))
        fk_conditional_estimate(0.2, 0.0, constant_ic(), levels, dW, 500, 1, threads=4)


class TestOccupationFunctional:
    def test_constant_exact(self):
        p = simulate_path(0.8, 1e-3, 0.1, substream(5, "occ"))
        assert occupation_functional(*p, lambda y: np.full_like(y, 3.0)) == pytest.approx(
            2.4, abs=1e-12)

    def test_agrees_with_profile_sum(self):
        p = simulate_path(1.0, 1e-4, 0.0, substream(5, "occ2"))
        levels = build_level_grid(1.0, 0.0, 0.02)
        L = local_time(*p, levels)
        phi = lambda y: hermite_function(1, y)
        occ = occupation_functional(*p, phi)
        via_profile = float(levels[1] - levels[0]) * float(np.dot(L, phi(levels)))
        # O(da + sqrt(dt)) discretization gap, scaled by |phi'| and t
        assert abs(occ - via_profile) <= 2.0 * (0.02 + math.sqrt(1e-4))

    def test_short_time_mean(self):
        # E int_0^t e_1(B_s^x) ds ~ t e_1(x) for small t
        t, x = 0.01, 0.3
        gen = substream(6, "occ3")
        vals = []
        for k in range(2000):
            p = simulate_path(t, 1e-4, x, substream(6, "occ3", k))
            vals.append(occupation_functional(*p, lambda y: hermite_function(1, y)))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - t * hermite_function(1, x)) <= 3 * se + 5e-4

    def test_nonfinite_guard(self):
        p = simulate_path(0.1, 1e-3, 0.0, substream(5, "occ4"))
        with pytest.raises(ValueError, match="non-finite"):
            occupation_functional(*p, lambda y: np.where(np.abs(y) < 10, np.inf, 1.0))


class TestPsi:
    def test_zero_noise_is_negative_quadratic(self):
        p = simulate_path(1.0, 1e-3, 0.0, substream(7, "psi"))
        levels = build_level_grid(1.0, 0.0, 0.05)
        L = local_time(*p, levels)
        da = float(levels[1] - levels[0])
        psi = psi_sample(L, np.zeros_like(levels), da)
        assert psi == -0.5 * float(da * np.dot(L, L)) < 0

    def test_grid_mismatch_guard(self):
        p = simulate_path(1.0, 1e-3, 0.0, substream(7, "psi2"))
        levels = build_level_grid(1.0, 0.0, 0.05)
        L = local_time(*p, levels)
        other = sample_noise(build_level_grid(1.0, 0.0, 0.04), substream(7, "x"))
        with pytest.raises(ValueError, match="grid"):
            psi_sample(L, other, float(levels[1] - levels[0]))

    def test_conditional_law_and_unit_mean(self):
        stats = psi_law_stats(1.0, 1e-3, 0.05, 20_000, 20_000, 77)
        assert abs(stats["conditional_mean"] - stats["conditional_mean_target"]) <= \
            3 * stats["conditional_se"]
        assert abs(stats["conditional_var"] - stats["conditional_var_target"]) <= \
            3 * stats["conditional_var_se"]
        assert abs(stats["skewness"]) <= 3 * stats["skew_se"]
        assert abs(stats["exp_mean"] - 1.0) <= 3 * stats["exp_se"]

    def test_chunked_noise_matches_one_whole_draw(self):
        # 1000 noise rows: seven full chunks and a short one
        t, dt, x, seed, n_noise = 0.5, 1e-3, 0.1, 31, 1000
        stats = psi_law_stats(t, dt, 0.05, 200, n_noise, seed, x=x)
        levels = build_level_grid(t, x, 0.05)
        L = local_time(*simulate_path(t, dt, x, substream(seed, "psi-path")), levels)
        da = float(levels[1] - levels[0])
        dW = substream(seed, "psi-noise").standard_normal((n_noise, levels.size))
        dW *= math.sqrt(da)
        psi = dW @ L - 0.5 * float(da * np.dot(L, L))
        m, s = psi.mean(), psi.std(ddof=1)
        assert stats["conditional_mean"] == float(m)
        assert stats["conditional_var"] == float(s * s)
        assert stats["skewness"] == float(np.mean(((psi - m) / s) ** 3))


class TestConditionalEstimate:
    def test_zero_noise_contracts_and_decreases_in_t(self):
        # with zero noise the estimate is E exp(-1/2 int L^2) < 1, decreasing
        # in t; brute-force path oracle at two horizons
        vals = {}
        for t in (0.25, 1.0):
            levels = build_level_grid(t, 0.0, 0.05)
            est, se = fk_conditional_estimate(t, 0.0, constant_ic(), levels,
                                              np.zeros_like(levels), 4000,
                                              stream_seed=31, dt=1e-3)
            vals[t] = (est, se)
        assert vals[0.25][0] < 1.0 and vals[1.0][0] < 1.0
        assert vals[1.0][0] < vals[0.25][0]
        # brute-force oracle with independently simulated paths
        acc = []
        for k in range(2000):
            p = simulate_path(0.25, 1e-3, 0.0, substream(32, "bf", k))
            levels = build_level_grid(0.25, 0.0, 0.05)
            L = local_time(*p, levels)
            acc.append(math.exp(-0.5 * float((levels[1] - levels[0]) * np.dot(L, L))))
        acc = np.asarray(acc)
        se = acc.std(ddof=1) / math.sqrt(acc.size)
        assert abs(vals[0.25][0] - acc.mean()) <= 3 * (se + vals[0.25][1])

    def test_noise_average_recovers_semigroup_mean(self):
        # E^W of the conditional estimate is the heat-semigroup mean exactly
        t, x = 0.5, math.pi / 2
        levels = build_level_grid(t, x, 0.05)
        ests = []
        for k in range(150):
            dW = sample_noise(levels, substream(33, "avg", k))
            est, _ = fk_conditional_estimate(t, x, sine_ic(), levels, dW, 300,
                                             stream_seed=34 + k, dt=2e-3)
            ests.append(est)
        ests = np.asarray(ests)
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean() - math.exp(-t / 2) * math.sin(x)) <= 3 * se

    def test_path_count_guard(self):
        levels = build_level_grid(0.5, 0.0, 0.05)
        dW = sample_noise(levels, substream(1, "g"))
        with pytest.raises(ValueError, match="n_paths"):
            fk_conditional_estimate(0.5, 0.0, constant_ic(), levels, dW, 10, stream_seed=1)

    def test_noise_off_the_level_grid_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a substream was drawn")

        monkeypatch.setattr(feynman_kac, "substream", no_draw)
        levels = build_level_grid(0.5, 0.0, 0.05)
        with pytest.raises(ValueError, match="level grid"):
            fk_conditional_estimate(0.5, 0.0, constant_ic(), levels, np.zeros(levels.size - 1),
                                    500, stream_seed=1)


class TestSTransformMC:
    def test_phi_zero_gives_mean(self):
        est, se = s_transform_mc(0.5, math.pi / 2, sine_ic(),
                                 lambda y: np.zeros_like(y), 40_000, 21)
        assert abs(est - math.exp(-0.25)) <= 3 * se

    def test_constant_phi_exact_exponent(self):
        est, se = s_transform_mc(1.0, 0.0, constant_ic(),
                                 lambda y: np.full_like(y, 0.7), 500, 21, phi_sup=0.7)
        assert est == pytest.approx(math.exp(0.7), abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="guard"):
            s_transform_mc(1.0, 0.0, constant_ic(), lambda y: np.full_like(y, 60.0),
                           500, 21, phi_sup=60.0)

    def test_dx_phi_zero_sine(self):
        est, se = s_transform_dx_mc(1.0, 0.0, sine_ic(), lambda y: np.zeros_like(y),
                                    lambda y: np.zeros_like(y), 60_000, 22)
        assert abs(est - math.exp(-0.5)) <= 3 * se + 1e-3

    def test_dx_phi_zero_constant_vanishes(self):
        est, se = s_transform_dx_mc(1.0, 0.0, constant_ic(), lambda y: np.zeros_like(y),
                                    lambda y: np.zeros_like(y), 500, 23)
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_shared_ensemble_matches_single_routines(self):
        # one phi on the shared routine: the same bits as the two single-field
        # routines at the same stream label
        ((u, dx),) = s_transform_ensemble_mc(0.5, 0.2, sine_ic(), [(_half_e1, _half_e1_dx, 0.5)],
                                             4500, 24, stream_label="shared")
        assert u == s_transform_mc(0.5, 0.2, sine_ic(), _half_e1, 4500, 24, phi_sup=0.5,
                                   stream_label="shared")
        assert dx == s_transform_dx_mc(0.5, 0.2, sine_ic(), _half_e1, _half_e1_dx, 4500, 24,
                                       phi_sup=0.5, stream_label="shared")

    def test_shared_ensemble_serves_every_phi(self):
        # common random numbers: each phi gets what a run on it alone gets
        bump = lambda y: 0.6 * np.exp(-y * y)
        phis = [(_half_e1, _half_e1_dx, None), (bump, None, 0.6)]
        shared = s_transform_ensemble_mc(0.5, 0.0, sine_ic(), phis, 2500, 25,
                                         stream_label="crn")
        assert shared[1][1] is None
        for phi, out in zip(phis, shared):
            assert out == s_transform_ensemble_mc(0.5, 0.0, sine_ic(), [phi], 2500, 25,
                                                  stream_label="crn")[0]

    def test_row_chunks_match_whole_block_sums(self):
        # 2300 paths: a full block and a 300-row block, whose last chunk is
        # short; each block drawn whole, independently of the chunked loop
        t, x, n_paths, seed = 0.5, 0.2, 2300, 26
        phis = [(phi, phi_dx, None) for _, phi, phi_dx, _ in _phi_cases()]
        u0 = sine_ic()
        steps = np.diff(feynman_kac._time_grid(t, 1e-3))
        fields = [[] for _ in range(2 * len(phis))]
        for b, nb in enumerate([2000, 300]):
            pos = feynman_kac._positions(nb, steps, x, substream(seed, "chunks", b))
            left = np.concatenate([np.full((nb, 1), x), pos[:, :-1]], axis=1)
            end = pos[:, -1]
            for i, (phi, phi_dx, _) in enumerate(phis):
                grow = np.exp(phi(left) @ steps)
                u = u0(end) * grow
                fields[2 * i].append(u)
                fields[2 * i + 1].append(u0.derivative(end) * grow + u * (phi_dx(left) @ steps))
        got = s_transform_ensemble_mc(t, x, u0, phis, n_paths, seed, stream_label="chunks")
        for (est, se), parts in zip([f for pair in got for f in pair], fields):
            vals = np.concatenate(parts)
            assert est == float(vals.mean())
            assert se == standard_error(vals)

    def test_block_peak_memory_near_its_positions(self):
        # one 2000 x 1000 block: the positions (16 MB) and chunk-sized temporaries
        phis = [(phi, phi_dx, None) for _, phi, phi_dx, _ in _phi_cases()]
        tracemalloc.start()
        try:
            s_transform_ensemble_mc(1.0, 0.0, sine_ic(), phis, 2000, 27)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2000 * 1000 * 8

    def test_nonfinite_phi_refused(self):
        # phi is infinite at the start point, so every path's integral is too
        inf_near_0 = lambda y: np.where(np.abs(y) < 0.05, np.inf, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            s_transform_mc(0.1, 0.0, constant_ic(), inf_near_0, 200, 5)
        with pytest.raises(ValueError, match="non-finite"):
            s_transform_dx_mc(0.1, 0.0, sine_ic(), lambda y: np.zeros_like(y), inf_near_0,
                              200, 5)

    def test_shared_ensemble_guards(self):
        from wickshe.kernels import InitialCondition
        bare = InitialCondition(evaluator=lambda x: np.ones_like(x), sup_norm=1.0)
        zero = lambda y: np.zeros_like(y)
        with pytest.raises(ValueError, match="derivative"):
            s_transform_ensemble_mc(1.0, 0.0, bare, [(zero, None, 0.0), (zero, zero, 0.0)],
                                    500, 23)
        with pytest.raises(ValueError, match="guard"):
            s_transform_ensemble_mc(1.0, 0.0, constant_ic(), [(zero, None, 0.0),
                                                              (zero, None, 60.0)], 500, 23)

    def test_missing_derivative_guard(self):
        from wickshe.kernels import InitialCondition
        bare = InitialCondition(evaluator=lambda x: np.ones_like(x), sup_norm=1.0)
        with pytest.raises(ValueError, match="derivative"):
            s_transform_dx_mc(1.0, 0.0, bare, lambda y: np.zeros_like(y),
                              lambda y: np.zeros_like(y), 500, 23)


def _half_e1(y):
    return 0.5 * hermite_function(1, y)


def _half_e1_dx(y):
    return 0.5 * hermite_function_dx(1, y)


def _fk(threads):
    levels = build_level_grid(0.5, 0.0, 0.05)
    dW = sample_noise(levels, substream(99, "noise"))
    return fk_conditional_estimate(0.5, 0.0, sine_ic(), levels, dW, 4500, 99, threads=threads)


def _temporal(threads):
    curve = local_time_temporal_increment_check(0.5, [0.05, 0.1], 4500, 99, delta_a=0.05,
                                                threads=threads)
    return curve.lags.tolist(), curve.moments.tolist()


# every path-ensemble routine at 4500 paths: two full blocks and a short one
ENSEMBLE_ROUTINES = {
    "fk_conditional_estimate": _fk,
    "s_transform_mc": lambda th: s_transform_mc(0.5, 0.2, sine_ic(), _half_e1, 4500, 99,
                                                threads=th),
    "s_transform_dx_mc": lambda th: s_transform_dx_mc(0.5, 0.2, sine_ic(), _half_e1,
                                                      _half_e1_dx, 4500, 99, threads=th),
    "local_time_ensemble_stats": lambda th: local_time_ensemble_stats(0.5, 1e-3, 0.05, 4500,
                                                                      99, threads=th),
    "psi_law_stats": lambda th: psi_law_stats(0.5, 1e-3, 0.05, 4500, 1000, 99, threads=th),
    "local_time_increment_check": lambda th: local_time_increment_check(
        0.5, [0.1, 0.2], 4500, 99, delta_a=0.05, threads=th),
    "local_time_temporal_increment_check": _temporal,
    "s_transform_ensemble_mc": lambda th: s_transform_ensemble_mc(
        0.5, 0.2, sine_ic(), [(_half_e1, _half_e1_dx, None), (_half_e1, None, None)],
        4500, 99, threads=th),
    # the localtime subcommand's profile checks: statistics and increment table in one pass
    "local_time_profile_checks": lambda th: local_time_ensemble_stats(
        0.5, 1e-3, 0.05, 4500, 99, threads=th, h_values=[0.1, 0.2]),
}


# routines whose chunks go through a BLAS matrix-vector product (prof @ dW,
# phi(left) @ steps, the conditional psi draws): its rounding of a row
# depends on the row's place in its call modulo the kernel's row group, so
# their chunk sizes are kept to multiples of 16
BLAS_ROUTINES = {"fk_conditional_estimate", "s_transform_mc", "s_transform_dx_mc",
                 "s_transform_ensemble_mc", "psi_law_stats"}


class TestDeterminism:
    @pytest.mark.parametrize("routine", sorted(ENSEMBLE_ROUTINES))
    def test_thread_count_invariance(self, routine):
        run = ENSEMBLE_ROUTINES[routine]
        assert run(1) == run(3)

    @pytest.mark.parametrize("routine", sorted(ENSEMBLE_ROUTINES))
    def test_row_chunk_invariance(self, routine, monkeypatch):
        # per-path values, and block sums over whole blocks: the same bits at
        # 128 rows per chunk and at a size that cuts the blocks elsewhere,
        # into more and shorter chunks
        run = ENSEMBLE_ROUTINES[routine]
        assert feynman_kac.ROW_CHUNK == 128
        at_128 = run(1)
        monkeypatch.setattr(feynman_kac, "ROW_CHUNK", 16 if routine in BLAS_ROUTINES else 7)
        assert run(1) == at_128
        assert run(2) == at_128

    def test_seed_reproducibility(self):
        e1 = s_transform_mc(0.5, 0.0, constant_ic(),
                            lambda y: 0.5 * hermite_function(1, y), 3000, 77)
        e2 = s_transform_mc(0.5, 0.0, constant_ic(),
                            lambda y: 0.5 * hermite_function(1, y), 3000, 77)
        assert e1 == e2


class TestPathEnsemble:
    def test_blocks_in_order_with_short_tail(self):
        # 4500 paths: blocks of 2000, 2000 and 500, each in chunks of 128
        # rows with a short last chunk
        levels = build_level_grid(0.1, 0.0, 0.05)

        def record(b, steps, rows, chunks):
            bin_chunk = feynman_kac.chunk_binner(steps, levels, rows)
            shapes = [(pos.shape, bin_chunk(pos).shape) for pos in chunks]
            return b, rows, shapes, steps.sum()

        seen = path_ensemble(0.1, 0.0, 1e-3, 4500, 5, "pe", 2, record, levels)
        assert [r[0] for r in seen] == [0, 1, 2]
        assert [r[1] for r in seen] == [128, 128, 128]
        for (_, _, shapes, _), nb in zip(seen, [2000, 2000, 500]):
            sizes = [128] * (nb // 128) + [nb % 128]
            assert shapes == [((n, 100), (n, levels.size)) for n in sizes]
        assert seen[0][3] == pytest.approx(0.1, abs=1e-12)
        # a block smaller than a chunk is one chunk of its own size
        (one,) = path_ensemble(0.1, 0.0, 1e-3, 50, 5, "pe", 1, record, levels)
        assert one[1:3] == (50, [((50, 100), (50, levels.size))])

    def test_matches_single_path_simulation(self):
        # one block of one path draws the same numbers as simulate_path
        (pos,) = path_ensemble(0.3, 0.4, 1e-3, 1, 5, "pe", 1,
                               lambda b, steps, rows, chunks: [p[0].copy() for p in chunks][0])
        _, positions = simulate_path(0.3, 1e-3, 0.4, substream(5, "pe", 0))
        assert np.array_equal(positions[1:], pos)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunks_share_one_buffer_and_match_a_whole_draw(self, threads):
        # every chunk of a block is drawn over the last one in one buffer, and
        # the chunks are bit for bit the rows of one whole-block draw
        steps = np.diff(feynman_kac._time_grid(0.1, 1e-3))

        def check(b, steps_, rows, chunks):
            nb = min(2000, 4500 - 2000 * b)
            whole = feynman_kac._positions(nb, steps, 0.3, substream(5, "pe", b))
            first, r0 = None, 0
            for pos in chunks:
                first = pos if first is None else first
                assert np.shares_memory(pos, first) and pos.shape[0] <= rows
                assert np.array_equal(pos, whole[r0:r0 + pos.shape[0]])
                r0 += pos.shape[0]
            return r0

        assert path_ensemble(0.1, 0.3, 1e-3, 4500, 5, "pe", threads, check) == [2000, 2000, 500]

    @pytest.mark.parametrize("routine", ["local_time_ensemble_stats", "temporal_check",
                                         "psi_law_stats", "fk_conditional_estimate"])
    def test_block_peak_memory_is_a_few_chunks(self, routine):
        # one 2000-path x 1000-step block, whose positions alone would take
        # 16 MB: the chunk (1 MB), the reducer's chunk-sized buffers and the
        # per-path values
        da = 0.79 * math.sqrt(1e-3)
        levels = build_level_grid(1.0, 0.0, da)
        runs = {
            "local_time_ensemble_stats": lambda: local_time_ensemble_stats(
                1.0, 1e-3, da, 2000, 7, h_values=[2 * da, 4 * da]),
            "temporal_check": lambda: local_time_temporal_increment_check(
                1.0, [0.05, 0.1, 0.15, 0.2, 0.3, 0.4], 2000, 7, delta_a=da),
            "psi_law_stats": lambda: psi_law_stats(1.0, 1e-3, da, 2000, 100, 7),
            "fk_conditional_estimate": lambda: fk_conditional_estimate(
                1.0, 0.0, sine_ic(), levels, sample_noise(levels, substream(7, "n")), 2000, 7),
        }
        substream(0, "warm-up")  # numpy.random's first import stays outside the trace
        tracemalloc.start()
        try:
            runs[routine]()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_budget_refuses_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a substream was drawn")

        monkeypatch.setattr(feynman_kac, "substream", no_draw)
        monkeypatch.setattr(feynman_kac, "ARRAY_BUDGET_BYTES", 2000 * 8 * 999)
        with pytest.raises(EnsembleMemoryError, match="2000 paths x 1000 steps"):
            path_ensemble(1.0, 0.0, 1e-3, 100, 5, "pe", 1, lambda *a: None)

    def test_budget_counts_the_steps_of_the_time_grid(self, monkeypatch):
        # a time a hair above one dt: the grid has one step, and the block
        # budget counts that one step, not two
        asked = []
        monkeypatch.setattr(feynman_kac, "check_array_budget", lambda n, what: asked.append(n))
        t = 0.001000000000003
        steps = np.diff(feynman_kac._time_grid(t, 1e-3))
        assert steps.size == 1
        path_ensemble(t, 0.0, 1e-3, 100, 5, "pe", 1, lambda *a: None)
        assert asked == [feynman_kac.DEFAULT_BLOCK * steps.size]

    def test_budget_counts_levels_wider_than_the_steps(self, monkeypatch):
        # the loop bins nothing, yet a level grid wider than the step count
        # sizes the block budget and is refused before any draw
        def no_draw(*args):
            raise AssertionError("a substream was drawn")

        monkeypatch.setattr(feynman_kac, "substream", no_draw)
        monkeypatch.setattr(feynman_kac, "ARRAY_BUDGET_BYTES", 2000 * 8 * 999)
        levels = 0.01 * (np.arange(1000) + 0.5)
        with pytest.raises(EnsembleMemoryError, match="1000 levels"):
            path_ensemble(0.1, 0.0, 1e-3, 100, 5, "pe", 1, lambda *a: None, levels)

    def test_psi_law_budget(self, monkeypatch):
        # the budget counts what is held: the n_noise psi values and one
        # chunk of ROW_CHUNK noise draws x levels
        def no_draw(*args):
            raise AssertionError("a substream was drawn")

        real_substream = feynman_kac.substream
        monkeypatch.setattr(feynman_kac, "substream", no_draw)
        monkeypatch.setattr(feynman_kac, "ARRAY_BUDGET_BYTES", 20 * 2 ** 20)
        with pytest.raises(EnsembleMemoryError, match="3000000 psi values"):
            psi_law_stats(1.0, 1e-3, 0.05, 200, 3_000_000, 77)
        monkeypatch.setattr(feynman_kac, "ARRAY_BUDGET_BYTES", 2 ** 17)
        with pytest.raises(EnsembleMemoryError, match="128 noise draws x 247 levels"):
            psi_law_stats(1.0, 1e-3, 0.05, 200, 1000, 77)
        # 20000 draws x 347 levels, 55 MB if held at once, run under 20 MiB
        monkeypatch.setattr(feynman_kac, "substream", real_substream)
        monkeypatch.setattr(feynman_kac, "ARRAY_BUDGET_BYTES", 20 * 2 ** 20)
        stats = psi_law_stats(0.5, 1e-3, 0.79 * 1e-3 ** 0.5, 200, 20_000, 77)
        assert stats["conditional_var"] > 0
