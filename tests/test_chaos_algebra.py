import math

import numpy as np
import pytest

from wickshe.basis import MultiIndex, TruncationSpec, enumerate_multiindices
from wickshe.chaos import (ChaosCoefficients, order_norm, s_transform_chaos, second_moment,
                           wick_product)
from wickshe.streams import substream

from oracles import sample_realization_batch, stochastic_exponential_coefficients

SPEC = TruncationSpec(4, 3)


def table(entries: dict) -> ChaosCoefficients:
    vals = {MultiIndex(k): v for k, v in entries.items()}
    return ChaosCoefficients(point=(1.0, 0.0), spec=SPEC, values=vals)


class TestWickProduct:
    def test_unit(self):
        F = table({(): 2.5})
        G = table({(): 1.0, (1,): 0.3, (0, 2): -0.7})
        P = wick_product(F, G)
        for a, v in G.values.items():
            assert P.get(a) == pytest.approx(2.5 * v, abs=1e-15)

    def test_xi1_diamond_xi1(self):
        # xi_(1) <> xi_(1) = sqrt(2) xi_(2)
        F = table({(1,): 1.0})
        P = wick_product(F, F)
        assert P.get(MultiIndex((2,))) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert len([v for v in P.values.values() if v != 0.0]) == 1

    def test_s_multiplicativity(self):
        gen = substream(11, "wick-smult")
        idx = enumerate_multiindices(TruncationSpec(2, 3))
        F = ChaosCoefficients((0, 0), SPEC, {a: float(gen.normal()) for a in idx})
        G = ChaosCoefficients((0, 0), SPEC, {a: float(gen.normal()) for a in idx})
        phi = gen.normal(size=3)
        P = wick_product(F, G)
        lhs = s_transform_chaos(P, phi)
        rhs = s_transform_chaos(F, phi) * s_transform_chaos(G, phi)
        # deg F + deg G = 4 <= N, so nothing is truncated away
        assert P.dropped_mass == 0.0
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_commutative_and_associative(self):
        gen = substream(12, "wick-assoc")
        idx1 = enumerate_multiindices(TruncationSpec(1, 3))
        mk = lambda: ChaosCoefficients((0, 0), SPEC, {a: float(gen.normal()) for a in idx1})
        F, G, H = mk(), mk(), mk()
        FG = wick_product(F, G)
        GF = wick_product(G, F)
        assert FG.values == GF.values
        left = wick_product(FG, H).values
        right = wick_product(F, wick_product(G, H)).values
        for a in set(left) | set(right):
            assert left.get(a, 0.0) == pytest.approx(right.get(a, 0.0), abs=1e-12)

    def test_dropped_mass_reported(self):
        F = ChaosCoefficients((0, 0), SPEC, {MultiIndex((3,)): 2.0})
        G = ChaosCoefficients((0, 0), SPEC, {MultiIndex((2,)): 1.0})
        P = wick_product(F, G)
        assert P.values == {}
        w = math.sqrt(math.factorial(5) / (math.factorial(3) * math.factorial(2)))
        assert P.dropped_mass == pytest.approx((2.0 * w) ** 2, abs=1e-12)

    def test_spec_mismatch(self):
        F = table({(): 1.0})
        G = ChaosCoefficients((0, 0), TruncationSpec(2, 2), {MultiIndex(()): 1.0})
        with pytest.raises(ValueError, match="TruncationSpec"):
            wick_product(F, G)


class TestSTransform:
    def test_zero_gives_mean(self):
        F = table({(): 0.7, (1,): 2.0, (2, 1): -1.0})
        assert s_transform_chaos(F, np.zeros(3)) == pytest.approx(0.7, abs=1e-15)

    def test_single_mode_value(self):
        # coefficient 1 on alpha = (2): value phi_1^2 / sqrt(2!)
        F = table({(2,): 1.0})
        val = s_transform_chaos(F, np.array([0.5, 0.0, 0.0]))
        assert val == pytest.approx(0.25 / math.sqrt(2), abs=1e-12)

    def test_stochastic_exponential_identity(self):
        spec = TruncationSpec(8, 3)
        psi = np.array([0.3, -0.2, 0.1])
        phi = np.array([0.4, 0.5, -0.3])
        F = stochastic_exponential_coefficients(psi, spec)
        val = s_transform_chaos(F, phi)
        exact = math.exp(float(phi @ psi))
        # truncation tail of the exponential series at degree 8
        ip = abs(float(phi @ psi))
        tail = sum(ip ** n / math.factorial(n) for n in range(9, 30)) * math.exp(1)
        assert abs(val - exact) <= tail + 1e-12

    def test_linearity(self):
        F = table({(1,): 1.0, (2,): 0.5})
        G = table({(): 2.0, (1, 1): -0.25})
        phi = np.array([0.7, -0.4, 0.2])
        lhs = s_transform_chaos(
            ChaosCoefficients((0, 0), SPEC,
                              {a: 2.0 * F.get(a) + 3.0 * G.get(a)
                               for a in set(F.values) | set(G.values)}), phi)
        rhs = 2.0 * s_transform_chaos(F, phi) + 3.0 * s_transform_chaos(G, phi)
        assert lhs == pytest.approx(rhs, abs=1e-14)


class TestNormsAndSampling:
    def test_second_moment_and_order_norm(self):
        F = table({(): 1.0, (1,): 0.5, (0, 1): -0.5, (2,): 0.25})
        assert second_moment(F) == pytest.approx(1.0 + 0.25 + 0.25 + 0.0625, abs=1e-15)
        assert order_norm(F, 0) == 1.0
        assert order_norm(F, 1) == pytest.approx(0.5, abs=1e-15)
        assert order_norm(F, 1, lam=1.0) == pytest.approx(0.5 * math.exp(2.0), abs=1e-12)
        with pytest.raises(ValueError):
            order_norm(F, 9)

    def test_sample_at_origin_coordinates(self):
        F = table({(): 0.9, (1,): 2.0, (0, 1): 1.0, (2,): 3.0})
        g = np.zeros(3)
        # degree-1 terms vanish at the origin; H_2(0) = -1 contributes
        expected = 0.9 + 3.0 * (-1.0) / math.sqrt(2)
        assert sample_realization_batch(F, g)[0] == pytest.approx(expected, abs=1e-14)

    def test_monte_carlo_mean_and_variance(self):
        F = table({(): 0.8, (1,): 0.5, (0, 1): -0.3, (1, 1): 0.2, (2,): 0.1})
        gen = substream(5, "chaos-sampling")
        G = gen.standard_normal((120_000, 3))
        vals = sample_realization_batch(F, G)
        se_mean = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - F.mean) <= 3 * se_mean
        var_target = second_moment(F) - F.mean ** 2
        v = vals.var(ddof=1)
        se_var = v * math.sqrt(2.0 / (vals.size - 1))  # normal-theory scale, loose
        assert abs(v - var_target) <= 4 * se_var

    def test_coordinate_length_guard(self):
        F = table({(): 1.0})
        with pytest.raises(ValueError):
            sample_realization_batch(F, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="coordinates"):
            sample_realization_batch(F, np.zeros((5, 2)))

    def test_truncation_key_guard(self):
        with pytest.raises(ValueError, match="truncation"):
            ChaosCoefficients((0, 0), TruncationSpec(1, 1), {MultiIndex((2,)): 1.0})
