import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

import wickshe
from wickshe import chain_moments, regularity
from wickshe.basis import MultiIndex, TruncationSpec
from wickshe.chain_moments import (_Pairing, _Side, _clip_unit, _scrambled_sobol,
                                   _sobol_blocks, space_increment_masses,
                                   time_increment_masses)
from wickshe.chaos import ChaosCoefficients
from wickshe.feynman_kac import chunk_binner, local_time_ensemble_stats
from wickshe.kernels import constant_ic
from wickshe.regularity import (IncrementMomentCurve, TruncationTailError,
                                exact_increment_curve, fit_exponent,
                                local_time_increment_check,
                                local_time_temporal_increment_check)
from wickshe.spectral import SpectralChaosField
from wickshe.streams import substream

from oracles import box_blocks_per_lag, increment_moments, sample_realization_batch, tensor_box

LAGS6 = [2.0 ** -k for k in range(3, 9)]


def make_curve(lags, moments):
    return IncrementMomentCurve(lags=np.asarray(lags), moments=np.asarray(moments))


class TestFitExponent:
    def test_exact_power_law(self):
        lags = np.array(LAGS6[::-1])
        est = fit_exponent(make_curve(sorted(lags), sorted(lags)))
        assert est.slope == pytest.approx(1.0, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not est.low_r2

    def test_perturbed_power_law(self):
        gen = substream(4, "fit")
        lags = np.sort(np.array(LAGS6))
        moments = lags ** 1.5 * (1.0 + 0.01 * gen.standard_normal(lags.size))
        est = fit_exponent(make_curve(lags, moments))
        assert est.slope == pytest.approx(1.5, abs=0.05)

    def test_degenerate_curve_rejected(self):
        with pytest.raises(ValueError, match="exponent|degenerate"):
            fit_exponent(make_curve(sorted(LAGS6), np.ones(6)))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="6"):
            fit_exponent(make_curve([0.1, 0.2, 0.4], [1, 2, 4]))

    def test_scale_equivariance_dyadic_exact(self):
        lags = np.sort(np.array(LAGS6))
        moments = lags ** 1.3 * 0.7
        base = fit_exponent(make_curve(lags, moments))
        scaled = fit_exponent(make_curve(lags, moments * 2.0 ** 10))
        assert scaled.slope == base.slope  # bit-identical under dyadic scaling

    def test_scale_equivariance_general(self):
        lags = np.sort(np.array(LAGS6))
        moments = lags ** 1.3 * 0.7
        base = fit_exponent(make_curve(lags, moments))
        scaled = fit_exponent(make_curve(lags, moments * 3.7))
        assert scaled.slope == pytest.approx(base.slope, abs=1e-12)


class TestIncrementMoments:
    def test_constant_field_all_zero(self):
        spec = TruncationSpec(1, 2)

        def supplier(t, x):
            return ChaosCoefficients((t, x), spec, {MultiIndex(()): 2.0,
                                                    MultiIndex((1,)): 0.1})

        curve = increment_moments(supplier, (1.0, 0.0), "space", LAGS6)
        assert np.all(curve.moments == 0.0)

    def test_tail_gate_refuses(self):
        spec = TruncationSpec(2, 1)

        def supplier(t, x):
            # all the mass on the top order: the gate must refuse
            return ChaosCoefficients((t, x), spec, {MultiIndex((2,)): 1.0 + x})

        with pytest.raises(TruncationTailError):
            increment_moments(supplier, (1.0, 0.0), "space", LAGS6)

    def test_spectral_supplier_curve_matches_sampling(self):
        # deterministic moments vs Monte Carlo over coordinate draws
        spec = TruncationSpec(4, 4)
        fld = SpectralChaosField(spec, constant_ic()).run([1.0])
        sup = lambda t, x: fld.coefficients_at(t, x)
        lags = [0.0625, 0.125, 0.1875, 0.25, 0.375, 0.5]
        curve = increment_moments(sup, (1.0, 0.0), "space", lags)
        gen = substream(17, "curve-mc-a")
        G = gen.standard_normal((50_000, 4))
        for h, m in zip(curve.lags, curve.moments):
            c0 = fld.coefficients_at(1.0, 0.0)
            c1 = fld.coefficients_at(1.0, 0.0 + h)
            diff = ChaosCoefficients((1.0, h), spec,
                                     {a: c1.get(a) - c0.get(a)
                                      for a in set(c0.values) | set(c1.values)})
            vals = sample_realization_batch(diff, G) ** 2
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - m) <= 3 * se

    def test_supplier_truncation_must_match(self):
        def supplier(t, x):
            spec = TruncationSpec(1, 1) if x == 0.0 else TruncationSpec(2, 1)
            return ChaosCoefficients((t, x), spec, {MultiIndex((1,)): x + 1.0})

        with pytest.raises(ValueError, match="truncation"):
            increment_moments(supplier, (1.0, 0.0), "space", LAGS6)


def _order_one_kernel(deriv):
    """G(y) = int_0^1 d^d/dy^d p_s(y) ds in closed form, d = 0 (u) or 1 (dx u):
    the order-1 chain of constant data at t = 1 is G against each mode."""
    if deriv:
        return lambda y: -math.copysign(math.erfc(abs(y) / math.sqrt(2.0)), y)
    return lambda y: (2.0 * math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
                      - abs(y) * math.erfc(abs(y) / math.sqrt(2.0)))


def _line_integral(f, cuts):
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


class TestExactCurves:
    # low-order slope checks open the gate; the acceptance runs use
    # max_order = 4 where the top-order share is ~2%
    def test_derivative_space_slope_near_one(self, monkeypatch):
        monkeypatch.setattr(regularity, "TAIL_SHARE_GATE", 1.0)
        curve = exact_increment_curve(1.0, "space", LAGS6, deriv=True, max_order=2)
        est = fit_exponent(curve)
        assert est.slope == pytest.approx(1.0, abs=0.1)
        assert curve.monotone

    def test_solution_space_slope_near_two(self, monkeypatch):
        monkeypatch.setattr(regularity, "TAIL_SHARE_GATE", 1.0)
        curve = exact_increment_curve(1.0, "space", LAGS6, deriv=False, max_order=2)
        est = fit_exponent(curve)
        assert est.slope == pytest.approx(2.0, abs=0.1)

    def test_time_direction_is_quadratic(self, monkeypatch):
        # the solution field is quadratically smooth in time at fixed
        # truncation: its t-dependence sits in the simplex upper limit only
        monkeypatch.setattr(regularity, "TAIL_SHARE_GATE", 1.0)
        curve = exact_increment_curve(1.0, "time", LAGS6, deriv=False, max_order=2)
        est = fit_exponent(curve)
        assert est.slope == pytest.approx(2.0, abs=0.1)

    def test_order_gate(self, monkeypatch):
        monkeypatch.setattr(regularity, "TAIL_SHARE_GATE", 0.05)
        with pytest.raises(TruncationTailError):
            exact_increment_curve(1.0, "space", LAGS6, deriv=True, max_order=2)

    @pytest.mark.parametrize("deriv, inc_rtol, mass_rtol", [
        # measured: u increments within 2.8e-7, u mass 5.2e-12 high
        (False, [5e-7] * 6, 1e-11),
        # measured: dx u increments 6.7e-4, 1.3e-3, 2.5e-3, 5.0e-3, 1.0e-2,
        # 1.8e-2 high (the graded tensor rule under-resolves S ~ h^2), mass
        # 1.68e-4 high
        (True, [8.5e-4, 1.6e-3, 3.2e-3, 6.3e-3, 1.26e-2, 2.3e-2], 2.1e-4),
    ])
    def test_space_order_one_closed_form(self, deriv, inc_rtol, mass_rtol):
        # M_1(h) = (1/pi) int_0^inf xi^{2d} ((1 - e^{-xi^2/2}) / (xi^2/2))^2
        # 2 (1 - cos xi h) dxi at t = 1, and the field mass the same integral
        # without the cosine factor; by Plancherel these are
        # int (G(y + h) - G(y))^2 dy and int G^2 dy
        G = _order_one_kernel(deriv)
        inc, mass = space_increment_masses(1.0, LAGS6, [1], deriv)
        exact_inc = np.array([_line_integral(lambda y: (G(y + h) - G(y)) ** 2,
                                             [-14.0, -h, 0.0, 14.0]) for h in LAGS6])
        exact_mass = _line_integral(lambda y: G(y) ** 2, [-14.0, 0.0, 14.0])
        if deriv:  # (1/pi) int 4 (1 - e^{-xi^2/2})^2 / xi^2 dxi
            assert exact_mass == pytest.approx(4.0 * (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi),
                                               rel=1e-13)
        np.testing.assert_array_less(np.abs(inc[1] / exact_inc - 1.0), inc_rtol)
        assert abs(mass[1] / exact_mass - 1.0) <= mass_rtol
        assert space_increment_masses(1.0, (), [1], deriv)[1][1] == mass[1]

    @pytest.mark.parametrize("deriv, closed_form", [
        # (2 pi)^{-1/2} int int_{[0,h]^2} (v+w)^{-1/2} dv dw and (v+w)^{-3/2}
        (False, lambda h: 8.0 / 3.0 * (math.sqrt(2.0) - 1.0) * h ** 1.5),
        (True, lambda h: (8.0 - 4.0 * math.sqrt(2.0)) * h ** 0.5),
    ])
    def test_time_increment_from_zero_order_one_closed_form(self, deriv, closed_form):
        inc, _ = time_increment_masses(0.0, LAGS6, [1], deriv)
        exact = np.array([closed_form(h) for h in LAGS6]) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(inc[1], exact, rtol=1e-3)

    @pytest.mark.parametrize("deriv", [False, True])
    def test_time_increment_from_zero_is_field_mass(self, deriv):
        # every coefficient of order >= 1 vanishes at t = 0
        inc, mass = time_increment_masses(0.0, LAGS6, [1, 2], deriv)
        for i, h in enumerate(LAGS6):
            _, ref = space_increment_masses(h, (), [1, 2], deriv)
            for n in (1, 2):
                assert inc[n][i] == pytest.approx(ref[n], rel=1e-3)
        # gate masses are taken at the latest probed time
        assert mass == {n: inc[n][LAGS6.index(max(LAGS6))] for n in (1, 2)}

    @pytest.mark.parametrize("deriv", [False, True])
    def test_time_increment_from_zero_scales_one_table(self, deriv):
        # Brownian scaling: one mass table per order, scaled to each lag,
        # reproduces the per-lag tables
        lags = [2.0 ** -3, 2.0 ** -8]
        inc, _ = time_increment_masses(0.0, lags, [1, 3], deriv)
        for i, h in enumerate(lags):
            _, ref = space_increment_masses(h, (), [1, 3], deriv)
            for n in (1, 3):
                assert inc[n][i] == pytest.approx(ref[n], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("deriv", [False, True])
    def test_time_increment_refuses_base_near_endpoint(self, deriv):
        # the uniform box rule is inaccurate for 0 < t < h/4 (order 1 of dx u
        # is off by -5e-3 at t = 1e-3, h = 1/8)
        with pytest.raises(ValueError, match=r"t = 0 or t >= h/4"):
            time_increment_masses(1e-3, LAGS6, [1], deriv)

    @pytest.mark.parametrize("order", [0, 5])
    def test_unsupported_orders_are_named(self, order):
        with pytest.raises(ValueError, match=r"1\.\.4"):
            exact_increment_curve(1.0, "space", LAGS6, deriv=True, max_order=order)
        if order:
            with pytest.raises(ValueError, match=r"1\.\.4"):
                time_increment_masses(0.0, LAGS6, [order], deriv=True)
            with pytest.raises(ValueError, match=r"1\.\.4"):
                space_increment_masses(1.0, (), [order], deriv=False)

    def test_time_curve_from_zero_is_finite_and_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = exact_increment_curve(0.0, "time", LAGS6, deriv=True, max_order=2)
        assert math.isfinite(curve.tail_share)
        assert 0.0 < curve.tail_share <= 0.05
        assert fit_exponent(curve).slope == pytest.approx(0.5, abs=0.1)

    def test_gate_refuses_non_finite_share(self):
        # at t = 0 the space-direction masses are 0/0
        with pytest.raises(TruncationTailError, match="share"), np.errstate(all="ignore"):
            exact_increment_curve(0.0, "space", LAGS6, deriv=True, max_order=1)

    def test_rejects_negative_base_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            exact_increment_curve(-0.5, "time", LAGS6, deriv=False, max_order=1)


def _dense_edges(n, sigma):
    """Unit vectors of a chain's difference arguments over y_1..y_n; the
    first edge is the anchored one (argument d - y_{visited last})."""
    seq = [sigma[n - 1 - k] for k in range(n)]
    edges = [np.zeros(n)]
    edges[0][seq[0]] = -1.0
    for k in range(1, n):
        u = np.zeros(n)
        u[seq[k - 1]] = 1.0
        u[seq[k]] = -1.0
        edges.append(u)
    return edges


def _dense_M(n, sigma, Vg, Wg):
    M = np.zeros((Vg.shape[0], n, n))
    for edges, gaps in ((_dense_edges(n, tuple(range(n))), Vg), (_dense_edges(n, sigma), Wg)):
        for u, tau in zip(edges, gaps.T):
            M += (u[:, None] * u[None, :])[None, :, :] / tau[:, None, None]
    return M


def _dense_AS(n, sigma, Vg, Wg):
    """(A, S) from the dense (B, n, n) matrices with np.linalg.solve and det."""
    M = _dense_M(n, sigma, Vg, Wg)
    e = np.zeros((Vg.shape[0], n, 1))
    e[:, n - 1, 0] = 1.0
    minv = np.linalg.solve(M, e)[:, n - 1, 0]
    v1 = Vg[:, 0]
    S = 1.0 / (1.0 / v1 - minv / (v1 * v1))
    logA = (-0.5 * np.sum(np.log(2 * math.pi * Vg), axis=1)
            - 0.5 * np.sum(np.log(2 * math.pi * Wg), axis=1)
            + 0.5 * n * math.log(2 * math.pi) - 0.5 * np.log(np.linalg.det(M)))
    return np.exp(logA), S


def _exact_logdet_S(n, sigma, v, w):
    """log det M and S of one node pair, by Gaussian elimination in exact
    rational arithmetic on the same float gaps."""
    M = [[Fraction(0)] * n for _ in range(n)]
    for edges, gaps in ((_dense_edges(n, tuple(range(n))), v), (_dense_edges(n, sigma), w)):
        for u, tau in zip(edges, gaps):
            r = 1 / Fraction(float(tau))
            for i in range(n):
                for j in range(n):
                    M[i][j] += int(u[i] * u[j]) * r
    det = Fraction(1)
    for j in range(n):
        det *= M[j][j]
        for i in range(j + 1, n):
            f = M[i][j] / M[j][j]
            for k in range(j, n):
                M[i][k] -= f * M[j][k]
    v1 = Fraction(float(v[0]))
    S = 1 / (1 / v1 - 1 / (M[n - 1][n - 1] * v1 * v1))
    return math.log(det), float(S)


def _pairing(Vg, Wg):
    return _Pairing(_Side.of(Vg), _Side.of(Wg))


class TestPairingKernel:
    """The unrolled LDL^T pairing kernel against a dense np.linalg reference
    and an exact rational one, for every sigma at orders 1..4."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_reference(self, n):
        gen = np.random.default_rng(100 + n)
        Vg, Wg = gen.uniform(1e-6, 1.0, (2, 64, n))
        eps = np.finfo(float).eps
        for sigma in permutations(range(n)):
            A, S = _pairing(Vg, Wg).tables(sigma)
            A_ref, S_ref = _dense_AS(n, sigma, Vg, Wg)
            # the reference's LU carries ~eps cond(M); its S also loses
            # S/v_1 to the subtraction in 1/S = 1/v_1 - (M^-1)_nn / v_1^2
            kappa = np.linalg.cond(_dense_M(n, sigma, Vg, Wg))
            assert np.all(np.abs(A / A_ref - 1.0) <= 1e-12 + 4 * eps * kappa), sigma
            assert np.all(np.abs(S / S_ref - 1.0)
                          <= 1e-12 + 4 * eps * kappa * S / Vg[:, 0]), sigma

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_exact_rational_reference(self, n):
        # log-uniform gaps down to 1e-6: ratios up to 1e6 between the edges
        gen = np.random.default_rng(200 + n)
        Vg, Wg = 10.0 ** gen.uniform(-6.0, 0.0, (2, 12, n))
        for sigma in permutations(range(n)):
            pairing = _pairing(Vg, Wg)
            A, S = pairing.tables(sigma)
            for b in range(Vg.shape[0]):
                log_det, S_exact = _exact_logdet_S(n, sigma, Vg[b], Wg[b])
                # the Gaussian normaliser prod_e (2 pi tau_e)^{-1/2} (2 pi)^{n/2}
                # of both chains, formed here from the gaps themselves
                log_norm = 0.5 * math.fsum([n * math.log(2 * math.pi)]
                                           + [-math.log(2 * math.pi * g)
                                              for g in (*Vg[b], *Wg[b])])
                A_exact = math.exp(log_norm - 0.5 * log_det)
                assert A[b] == pytest.approx(A_exact, rel=1e-13, abs=0.0)
                assert S[b] == pytest.approx(S_exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_swapping_the_chains_inverts_sigma(self, n):
        # tables(v, w, sigma) = tables(w, v, sigma^-1): the identity that lets
        # a tensor square take each unordered node pair once
        gen = np.random.default_rng(300 + n)
        Vg, Wg = 10.0 ** gen.uniform(-6.0, 0.0, (2, 64, n))
        for sigma in permutations(range(n)):
            inverse = tuple(int(k) for k in np.argsort(sigma))
            A, S = _pairing(Vg, Wg).tables(sigma)
            A_swap, S_swap = _pairing(Wg, Vg).tables(inverse)
            np.testing.assert_allclose(A_swap, A, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(S_swap, S, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [0.0, -0.25, np.nan])
    def test_non_positive_gap_raises(self, n, bad):
        Vg = np.full((3, n), 0.5)
        Wg = np.full((3, n), 0.5)
        for gaps in (Vg, Wg):
            G = gaps.copy()
            G[1, n - 1] = bad
            tables = (G, Wg) if gaps is Vg else (Vg, G)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError, match="positive"):
                    _pairing(*tables).tables(tuple(range(n))[::-1])

    def test_masses_refuse_a_zero_gap(self):
        # at t = 0 every simplex node collapses: the engine raises instead of
        # returning NaN masses
        with pytest.raises(np.linalg.LinAlgError):
            space_increment_masses(0.0, (), [2], deriv=True)


def test_an_empty_ladder_gives_the_laddered_pass_masses():
    # the mass-only accumulation (an empty lag ladder) returns the mass that
    # the space increment pass computes beside its increments, bit for bit
    for deriv in (False, True):
        inc, masses = space_increment_masses(0.7, (), [1, 2, 3], deriv, rng_seed=5)
        _, ref = space_increment_masses(0.7, [1.0], [1, 2, 3], deriv, rng_seed=5)
        assert masses == ref
        assert all(inc[n].shape == (0,) for n in (1, 2, 3))


def _run_python(code: str, **env_vars) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this
    wickshe, with ``env_vars`` added to the environment."""
    src = str(Path(wickshe.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_chain_numbers_do_not_depend_on_the_blas_thread_count():
    # the order-2 rule sums blocks of 2^14 node pairs; a BLAS dot product
    # splits one that long across its threads, which moved the last bit of
    # the dx u mass between one and two threads
    code = ("from wickshe.chain_moments import space_increment_masses\n"
            "for deriv in (False, True):\n"
            "    inc, mass = space_increment_masses(1.0, [0.125, 0.25], [2], deriv)\n"
            "    print(*(float(x).hex() for x in [*inc[2], mass[2]]))\n")
    one, two = (_run_python(code, OPENBLAS_NUM_THREADS=k) for k in ("1", "2"))
    assert len(one.split()) == 6
    assert one == two


LAYOUT_LAGS = [2.0 ** -3, 2.0 ** -6]


def _chain_numbers(orders, deriv):
    """Every chain-engine entry point on the given orders, as one dict."""
    out = {}
    for name, (inc, mass) in (
            ("space", space_increment_masses(1.0, LAYOUT_LAGS, orders, deriv)),
            ("time", time_increment_masses(1.0, LAYOUT_LAGS, orders, deriv)),
            ("time0", time_increment_masses(0.0, LAYOUT_LAGS, orders, deriv))):
        for n in orders:
            out[name, "inc", n], out[name, "mass", n] = inc[n], mass[n]
    for n, m in space_increment_masses(0.7, (), orders, deriv)[1].items():
        out["field", "mass", n] = m
    return out


def _ordered_square_pairs(size):
    """Reference tensor square: every ordered pair (i, j), with weight factor
    1, in blocks of about 2^18 pairs."""
    step = (1 << 18) // size + 1
    for i0 in range(0, size, step):
        rows = np.arange(i0, min(i0 + step, size))
        yield np.repeat(rows, size), np.tile(np.arange(size), rows.size), np.ones(rows.size * size)


def _assert_same_numbers(got, ref):
    assert got.keys() == ref.keys()
    for key in ref:
        np.testing.assert_allclose(got[key], ref[key], rtol=1e-13, atol=0.0, err_msg=str(key))


class TestPairBlocks:
    """The block layout of the chain-pairing engine moves no moment beyond
    rounding, and a block pass holds little memory."""

    @pytest.mark.parametrize("deriv", [False, True])
    def test_small_blocks_agree(self, monkeypatch, deriv):
        ref = _chain_numbers([1, 2, 3, 4], deriv)
        # 2^10 pairs per block also generates the 2^16 Sobol rows of orders
        # 3, 4 in 64 blocks
        monkeypatch.setattr(chain_moments, "_PAIR_BLOCK", 1 << 10)
        _assert_same_numbers(_chain_numbers([1, 2, 3, 4], deriv), ref)

    @pytest.mark.parametrize("deriv", [False, True])
    def test_ordered_square_agrees(self, monkeypatch, deriv):
        # the space rule and the time ladder's unit box both take their
        # pairs from ``_square_pairs``
        got = _chain_numbers([1, 2], deriv)
        monkeypatch.setattr(chain_moments, "_square_pairs", _ordered_square_pairs)
        _assert_same_numbers(got, _chain_numbers([1, 2], deriv))

    @pytest.mark.parametrize("n", [1, 2])
    def test_pair_weights_sum_to_the_squared_total(self, n):
        rules = (chain_moments._tensor_space(n, 1.0), tensor_box(n, 1.0, 0.125))
        for nodes, w in rules:
            blocks = list(chain_moments._square_blocks(nodes, w))
            assert all(b[2].size <= chain_moments._PAIR_BLOCK for b in blocks)
            total = math.fsum(float(b[2].sum()) for b in blocks)
            assert total == pytest.approx(math.fsum(w) ** 2, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("block", [1 << 14, 1000])
    def test_pairs_are_the_upper_triangle_in_row_order(self, monkeypatch, block):
        # the i <= j pairs, formed block by block, are np.triu_indices(B) in
        # its order, cut at the same block boundaries
        monkeypatch.setattr(chain_moments, "_PAIR_BLOCK", block)
        nodes, w = chain_moments._tensor_space(2, 1.0)
        side = chain_moments._Side.of(chain_moments.increments(nodes, nodes[:, 0]))
        I, J = np.triu_indices(w.size)
        got = list(chain_moments._square_blocks(nodes, w))
        assert len(got) == -(-I.size // block)
        for k, (v, w_side, wts) in zip(range(0, I.size, block), got):
            i, j = I[k:k + block], J[k:k + block]
            assert all(np.array_equal(a, b[..., i]) for a, b in zip(v, side))
            assert all(np.array_equal(a, b[..., j]) for a, b in zip(w_side, side))
            assert np.array_equal(wts, np.where(i == j, 1.0, 2.0) * w[i] * w[j])

    def test_order_2_pass_holds_no_index_list(self):
        # the whole i <= j index list of order 2 (405,450 pairs) took 6.2 MiB
        # of a 12.5 MiB peak; formed per block, the pass peaks near 5.9 MiB
        tracemalloc.start()
        try:
            space_increment_masses(1.0, LAGS6, [2], deriv=True)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 7.0, peak

    def test_bounded_memory(self):
        # Sobol generation included: the rows are made block by block and
        # no set is kept, so nothing is left over once a pass returns.
        # Measured 8.8, 5.8 and 7.0 MiB peaks; a whole 2^16-row set per
        # order, cached, read 17.0 and 14.0 MiB for the first two and kept
        # 4.7 and 4.0 MiB afterwards.  The t = 1 ladder holds one block of
        # rows, its unit box sides and one lag's scaled sides at a time
        space_increment_masses(1.0, [0.125], [1], deriv=True)  # warm numpy up
        peaks, held = [], []
        for increments_of, t, orders in ((space_increment_masses, 1.0, [2, 4]),
                                         (time_increment_masses, 0.0, [2, 4]),
                                         (time_increment_masses, 1.0, [3, 4])):
            tracemalloc.start()
            try:
                increments_of(t, LAGS6, orders, deriv=True)
                now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak / 2 ** 20)
            held.append(now / 2 ** 20)
        assert peaks[0] <= 10.0 and peaks[1] <= 7.0 and peaks[2] <= 8.0, peaks
        assert max(held) <= 1.0, held


class TestSobolRule:
    @pytest.mark.parametrize("seed", [7, 10103, 12345])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_scipy_sobol(self, n, seed):
        ref = qmc.Sobol(d=2 * n, scramble=True, seed=seed).random_base2(16)
        assert np.array_equal(np.concatenate(list(_sobol_blocks(n, seed))), _clip_unit(ref))

    @pytest.mark.parametrize("seed", [7, 10103, 12345])
    @pytest.mark.parametrize("d", [6, 8])
    def test_first_points_in_scipy_order(self, d, seed):
        # eight points pin the first point (the digital shift) and the
        # Gray-code order of the direction numbers
        ref = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(3)
        assert np.array_equal(next(_scrambled_sobol(d, 3, seed, 8)), ref)

    def test_blocks_match_scipy_sobol(self, monkeypatch):
        # each block starts from the Gray-code state of its first point; 1000
        # rows put the block boundaries off the powers of two.  Every block is
        # a new array of at most one block of rows: no set is kept
        for rows in (chain_moments._PAIR_BLOCK, 1000):
            monkeypatch.setattr(chain_moments, "_PAIR_BLOCK", rows)
            for n in (3, 4):
                for seed in (7, 10103, 12345):
                    ref = _clip_unit(qmc.Sobol(d=2 * n, scramble=True,
                                               seed=seed).random_base2(16))
                    blocks = list(_sobol_blocks(n, seed))
                    assert [b.shape for b in blocks] == [
                        (min(rows, ref.shape[0] - r), 2 * n)
                        for r in range(0, ref.shape[0], rows)]
                    for r, b in zip(range(0, ref.shape[0], rows), blocks):
                        assert np.array_equal(b, ref[r:r + rows]), (rows, n, seed, r)
                    again = next(_sobol_blocks(n, seed))
                    assert again is not blocks[0] and again.flags.writeable
                    assert np.array_equal(again, blocks[0])

    def test_time_ladder_generates_each_order_once(self, monkeypatch):
        # a t > 0 ladder maps each block of rows onto all six lags' boxes:
        # one pass over each order's 2^16 rows for the ladder, one for the
        # gate mass at t + max(lags)
        passes, rows = [], []
        real = chain_moments._sobol_blocks

        def counted(n, rng_seed):
            passes.append(n)
            for U in real(n, rng_seed):
                rows.append(U.shape[0])
                yield U

        monkeypatch.setattr(chain_moments, "_sobol_blocks", counted)
        time_increment_masses(1.0, LAGS6, [3, 4], deriv=False)
        assert passes == [3, 4, 3, 4]
        assert sum(rows) == 4 << 16
        assert max(rows) <= chain_moments._PAIR_BLOCK

    def test_orders_3_and_4_do_not_load_scipy_stats(self):
        code = ("import sys\n"
                "from wickshe.chain_moments import space_increment_masses, time_increment_masses\n"
                "space_increment_masses(1.0, [0.125], [3, 4], True)\n"
                "time_increment_masses(1.0, [0.125], [3, 4], True)\n"
                "print('scipy.stats' in sys.modules)")
        assert _run_python(code).strip() == "False"


class TestScaledLadder:
    """A t > 0 time ladder maps each block onto the unit box once and
    scales its sides to every lag; ``oracles.box_blocks_per_lag`` maps each
    lag's box on its own instead."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_blocks_match_the_per_lag_map(self, t):
        # Every gap within 4 ulp of its box's top time t + h (measured 2):
        # the per-lag map forms the last gap as (t + h u) - v_{n-1} and
        # loses up to 1e-5 of it, relatively, next to the top, where the
        # scaled side takes s (1 - x), free of cancellation.  Each log density
        # is that of its own gaps, and first gaps and weights match, within
        # 4e-15 relative (measured 1.1e-15, 5.2e-16 and 1.4e-15)
        eps = np.finfo(float).eps
        lags = np.array(LAGS6)
        for n in (1, 2, 3, 4):
            for seed in ((7, 12345) if n > 2 else (7,)):
                per_lag = box_blocks_per_lag(n, t, lags, seed)
                for k, v, w_side, wts in chain_moments._box_blocks(n, t, lags, seed):
                    ref_v, ref_w, ref_wts = next(per_lag[k])
                    for got, ref in ((v, ref_v), (w_side, ref_w)):
                        gaps = 1.0 / got.recip
                        assert np.all(np.abs(gaps - 1.0 / ref.recip) <= 4 * eps * (t + lags[k]))
                        own = -0.5 * np.sum(np.log(2 * math.pi * gaps), axis=0)
                        assert np.all(np.abs(got.log_dens - own) <= 4e-15 * (1.0 + np.abs(own)))
                        np.testing.assert_allclose(got.first, ref.first, rtol=4e-15, atol=0.0)
                    np.testing.assert_allclose(wts, ref_wts, rtol=4e-15, atol=0.0)
                assert all(next(blocks, None) is None for blocks in per_lag)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_lag_of_a_block_reuses_its_arrays(self, n):
        # a block's sides and weights are scaled to each lag in place: every
        # lag of a block yields the arrays of its first lag, overwritten
        first, blocks = None, 0
        for k, v, w_side, wts in chain_moments._box_blocks(n, 1.0, np.array(LAGS6), 7):
            arrays = (*v, *w_side, wts)
            if k == 0:
                first, blocks = arrays, blocks + 1
            else:
                assert all(a is b for a, b in zip(arrays, first, strict=True))
        assert blocks > 0

    @pytest.mark.parametrize("t, seed, deriv", [(0.5, 7, True), (1.0, 12345, False),
                                                (2.0, 12345, True)])
    def test_moments_match_the_per_lag_map(self, t, seed, deriv):
        inc, _ = time_increment_masses(t, LAGS6, [1, 2, 3, 4], deriv, seed)
        for n in (1, 2, 3, 4):
            per_lag = box_blocks_per_lag(n, t, LAGS6, seed)
            blocks = ((k, *b) for k, lag_blocks in enumerate(per_lag) for b in lag_blocks)
            ref = chain_moments._accumulate(n, blocks, np.zeros(0), deriv)
            np.testing.assert_allclose(inc[n], [mass for _, mass in ref], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_unit_box_is_mapped_once_per_block(self, monkeypatch, n):
        # per block of Sobol rows: both halves onto the unit box, however
        # many lags; mapping each lag's box took two calls per lag
        calls = []
        real = chain_moments.simplex_from_unit

        def counted(U, horizon):
            calls.append(U.shape[0])
            return real(U, horizon)

        monkeypatch.setattr(chain_moments, "simplex_from_unit", counted)
        for lags in ([0.125], LAGS6):
            calls.clear()
            rules = [k for k, *_ in chain_moments._box_blocks(n, 1.0, np.array(lags), 7)]
            blocks = rules.count(0)
            assert blocks == 4 and len(rules) == blocks * len(lags)
            assert len(calls) == 2 * blocks
            assert max(calls) <= chain_moments._PAIR_BLOCK


def _no_blocks(*args):
    raise AssertionError("a block was made")


class TestTimesAndLags:
    """Every chain entry point refuses a base time or lag that is not finite,
    or a negative base time or a lag that is not positive, before it makes
    a block; t = 0 keeps its own behaviour."""

    @pytest.mark.parametrize("entry, t, lags", [
        (space_increment_masses, 1.0, [np.nan, 0.1]),
        (time_increment_masses, 0.0, [np.nan, 0.1]),
        (time_increment_masses, 0.0, [-0.125, 0.0625]),
        (time_increment_masses, 1.0, [-0.125, 0.0625]),
        (time_increment_masses, 1.0, [0.0, 0.0625]),
        (space_increment_masses, 1.0, [np.inf, 0.1]),
        (time_increment_masses, -1.0, [0.125]),
        (space_increment_masses, -1.0, [0.125]),
        (space_increment_masses, -1.0, ()),
        (time_increment_masses, np.nan, [0.125]),
        (space_increment_masses, np.inf, [0.125]),
        (space_increment_masses, np.nan, ()),
    ], ids=["space-nan-lag", "time0-nan-lag", "time0-negative-lag", "time1-negative-lag",
            "time1-zero-lag", "space-inf-lag", "time-negative-t", "space-negative-t",
            "space0-negative-t", "time-nan-t", "space-inf-t", "space0-nan-t"])
    def test_refused_before_any_block(self, monkeypatch, entry, t, lags):
        monkeypatch.setattr(chain_moments, "_accumulate", _no_blocks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                entry(t, lags, [1, 3], True)


class TestCurveRequests:
    """A malformed curve request is refused before the chain pass or the
    path draws."""

    @pytest.mark.parametrize("t, direction, lags, match", [
        (1.0, "spcae", LAGS6, "direction"),
        (1.0, "space", [0.125, 0.0625, 0.125], "distinct"),
        (1.0, "time", [0.125, 0.0625, 0.125], "distinct"),
        (-0.5, "space", LAGS6, "non-negative"),
        (-0.5, "time", LAGS6, "non-negative"),
    ])
    def test_exact_curve_refused_before_any_block(self, monkeypatch, t, direction, lags,
                                                  match):
        monkeypatch.setattr(chain_moments, "_accumulate", _no_blocks)
        with pytest.raises(ValueError, match=match):
            exact_increment_curve(t, direction, lags, deriv=True)

    def test_temporal_check_refuses_a_repeated_lag_before_any_path(self, monkeypatch):
        monkeypatch.setattr(regularity, "path_ensemble", _no_blocks)
        with pytest.raises(ValueError, match="distinct"):
            local_time_temporal_increment_check(1.0, [0.1, 0.05, 0.1], 20_000, 1)


class TestLocalTimeIncrements:
    def test_ratio_table(self):
        table = local_time_increment_check(1.0, [0.0, 0.1, 0.2], 30_000, 55,
                                           dt=1e-3, delta_a=0.025)
        assert table[0] == (0.0, 0.0)
        ratios = {h: r for h, r in table}
        assert 3.6 <= ratios[0.1] <= 4.4
        # linear law: larger h carries a visible negative correction
        assert ratios[0.2] < ratios[0.1]

    def test_four_t_law_small_h(self):
        # the ratio approaches 4t as h decreases; within 10% for h <= 0.1
        # (the O(h) correction reaches -14% by h = 0.2, and bins much finer
        # than sqrt(dt) inflate the estimator with count noise)
        table = local_time_increment_check(1.0, [0.05, 0.1], 40_000, 58,
                                           dt=1e-3, delta_a=0.025)
        for h, ratio in table:
            assert abs(ratio - 4.0) <= 0.4, (h, ratio)

    def test_linear_in_t(self):
        # exact continuum target 4 int_0^t (t-tau) p(tau, 0)(1 - e^{-h^2/2tau}) dtau / h
        from scipy.integrate import quad
        t, h = 0.5, 0.1
        exact = 4 * quad(lambda tau: (t - tau) / math.sqrt(2 * math.pi * tau)
                         * (-math.expm1(-h * h / (2 * tau))), 0, t,
                         points=[0], limit=400)[0] / h
        table = local_time_increment_check(t, [h], 30_000, 56, dt=1e-3, delta_a=0.025)
        assert table[0][1] == pytest.approx(exact, rel=0.02)
        # linearity in t: halving the horizon halves the leading 4t constant
        table1 = local_time_increment_check(1.0, [h], 30_000, 56, dt=1e-3, delta_a=0.025)
        assert table[0][1] / table1[0][1] == pytest.approx(0.5, abs=0.04)

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="delta_a"):
            local_time_increment_check(1.0, [0.03], 1000, 1, delta_a=0.025)
        with pytest.raises(ValueError, match="delta_a"):
            local_time_ensemble_stats(1.0, 1e-3, 0.025, 1000, 1, h_values=[0.03])

    def test_fused_pass_keeps_the_ensemble_statistics(self):
        # the lags leave the statistics of the same seed unchanged, bit for
        # bit, and add the increment table of those same paths
        stats = local_time_ensemble_stats(1.0, 2e-3, 0.05, 4500, 59, threads=2,
                                          h_values=[0.0, 0.1, 0.2])
        table = stats.pop("increment_table")
        plain = local_time_ensemble_stats(1.0, 2e-3, 0.05, 4500, 59)
        assert plain.pop("increment_table") == []
        assert stats == plain
        assert [h for h, _ in table] == [0.0, 0.1, 0.2] and table[0][1] == 0.0
        assert 3.0 <= table[1][1] <= 4.4 and table[2][1] < table[1][1]

    def test_temporal_check_bins_only_tail_windows(self, monkeypatch):
        # no occupation histogram of the temporal check covers all M steps
        # of a block: each lag bins only the steps after its cut, one chunk
        # of at most ROW_CHUNK paths at a time
        binners, calls = [], []

        def recording(steps, levels, rows):
            bin_chunk = chunk_binner(steps, levels, rows)
            binners.append(steps.size)

            def bin_recorded(pos, work=None):
                calls.append(pos.shape)
                return bin_chunk(pos, work)

            return bin_recorded

        monkeypatch.setattr(regularity, "chunk_binner", recording)
        local_time_temporal_increment_check(1.0, [0.05, 0.1, 0.15, 0.2, 0.3, 0.4], 2500, 3,
                                            dt=1e-3, delta_a=0.05)
        widths = [50, 100, 150, 200, 300, 400]
        assert binners == widths * 2  # two blocks, one window per lag
        # blocks of 2000 and 500 paths: 16 + 4 chunks, each binned per window
        rows = [128] * 15 + [80] + [128] * 3 + [116]
        assert calls == [(n, w) for n in rows for w in widths]

    @pytest.mark.parametrize("t_hi, lags, dt", [(1.0, [0.05, 0.1], 0.02),
                                                (1.0, [0.05, 0.1, 0.15, 0.2], 0.1),
                                                (1.01, [0.1], 0.02)])
    def test_temporal_check_refuses_times_off_the_dt_grid(self, t_hi, lags, dt):
        # a cut rounded to the dt grid would measure another lag than its label
        with pytest.raises(ValueError, match="positive multiple of dt"):
            local_time_temporal_increment_check(t_hi, lags, 100, 1, dt=dt, delta_a=0.05)

    def test_off_grid_lag_refusal_names_no_snapshot(self):
        # the lag, not a snapshot of a sweep, is what is off the dt grid
        with pytest.raises(ValueError, match="positive multiple of dt") as err:
            local_time_temporal_increment_check(1.0, [0.05, 0.1], 100, 1, dt=0.02,
                                                delta_a=0.05)
        assert "snapshot" not in str(err.value)

    def test_temporal_check_refuses_lag_beyond_t_hi(self):
        with pytest.raises(ValueError, match="exceed t_hi"):
            local_time_temporal_increment_check(0.2, [0.1, 0.3], 100, 1, dt=0.01,
                                                delta_a=0.05)

    def test_temporal_increment_slope(self):
        curve = local_time_temporal_increment_check(
            1.0, [0.05, 0.1, 0.15, 0.2, 0.3, 0.4], 8000, 57, dt=1e-3, delta_a=0.025)
        est = fit_exponent(curve)
        # E int (L_a(t) - L_a(s))^2 da = (8/3) (2 pi)^{-1/2} (t-s)^{3/2}
        assert est.slope == pytest.approx(1.5, abs=0.1)
        pref = 8.0 / (3.0 * math.sqrt(2 * math.pi))
        mid = curve.moments[1] / curve.lags[1] ** 1.5
        assert mid == pytest.approx(pref, rel=0.1)
