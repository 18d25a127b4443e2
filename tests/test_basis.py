import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wickshe.basis import (MultiIndex, TruncationSpec, enumerate_multiindices,
                           hermite_function, hermite_function_dx, hermite_function_table,
                           hermite_poly)
from wickshe.streams import substream

from oracles import sample_xi_batch


class TestHermitePoly:
    def test_examples(self):
        assert hermite_poly(0, 3.7) == 1.0
        assert hermite_poly(2, 0.0) == -1.0
        # H_3(x) = x^3 - 3x by the recurrence
        assert hermite_poly(3, 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_appell_derivative(self):
        # d/dx H_n = n H_{n-1}, via central differences
        eps = 1e-6
        for n in range(1, 11):
            for x in np.linspace(-3, 3, 13):
                fd = (hermite_poly(n, x + eps) - hermite_poly(n, x - eps)) / (2 * eps)
                assert fd == pytest.approx(n * hermite_poly(n - 1, x), abs=1e-5, rel=1e-6)

    def test_recurrence_exact(self):
        x = np.linspace(-4, 4, 9)
        for n in range(1, 12):
            lhs = hermite_poly(n + 1, x)
            rhs = x * hermite_poly(n, x) - n * hermite_poly(n - 1, x)
            np.testing.assert_array_equal(lhs, rhs)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            hermite_poly(-1, 0.0)


class TestHermiteFunction:
    def test_examples(self):
        assert hermite_function(1, 0.0) == pytest.approx(np.pi ** -0.25, abs=1e-15)
        assert hermite_function(2, 0.0) == 0.0  # odd function

    def test_orthonormal(self, line_grid):
        E = hermite_function_table(8, line_grid.nodes)
        gram = (E * line_grid.weights) @ E.T
        assert np.abs(gram - np.eye(8)).max() <= 1e-8

    def test_derivative_vs_fd(self):
        for j in (1, 2, 5, 9):
            for x in (-1.3, 0.0, 0.4, 2.2):
                fd = (hermite_function(j, x + 1e-6) - hermite_function(j, x - 1e-6)) / 2e-6
                assert hermite_function_dx(j, x) == pytest.approx(fd, abs=1e-7)

    def test_no_overflow_at_high_index(self):
        # factorial formulas overflow near j ~ 85; the recurrence must not
        val = hermite_function(150, 1.0)
        assert np.isfinite(val)

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            hermite_function(0, 1.0)


class TestMultiIndex:
    def test_canonical_trailing_zeros(self):
        assert MultiIndex((1, 0, 0)) == MultiIndex((1,))

    def test_characteristic_vector(self):
        assert MultiIndex((2, 0, 1)).characteristic_vector() == (1, 1, 3)
        assert MultiIndex(()).characteristic_vector() == ()

    def test_enumeration_examples(self):
        assert enumerate_multiindices(TruncationSpec(0, 5)) == [MultiIndex(())]
        assert enumerate_multiindices(TruncationSpec(1, 2)) == [
            MultiIndex(()), MultiIndex((1,)), MultiIndex((0, 1))]
        found = enumerate_multiindices(TruncationSpec(2, 2))
        assert len(found) == 6 == TruncationSpec(2, 2).count()

    def test_enumeration_graded_and_unique(self):
        out = enumerate_multiindices(TruncationSpec(4, 3))
        assert len(set(out)) == len(out) == TruncationSpec(4, 3).count()
        degs = [a.degree() for a in out]
        assert degs == sorted(degs)
        assert all(len(a.entries) <= 3 for a in out)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_multiindices(TruncationSpec(30, 30))

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=6))
    def test_degree_factorial_invariants(self, entries):
        a = MultiIndex(entries)
        assert a.degree() == sum(entries)
        assert a.factorial() >= 1
        k = a.characteristic_vector()
        assert len(k) == a.degree()
        assert list(k) == sorted(k)
        for j in set(k):
            assert k.count(j) == a.entry(j)

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=5),
           st.lists(st.integers(min_value=0, max_value=4), max_size=5))
    def test_addition_componentwise(self, e1, e2):
        a, b = MultiIndex(e1), MultiIndex(e2)
        s = a + b
        for j in range(1, 8):
            assert s.entry(j) == a.entry(j) + b.entry(j)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))


class TestSymBasis:
    @pytest.mark.parametrize("alpha", [
        MultiIndex((1,)), MultiIndex((2,)), MultiIndex((1, 1)),
        MultiIndex((3,)), MultiIndex((2, 1)), MultiIndex((1, 1, 1)),
        MultiIndex((0, 2, 0, 1)),
    ])
    def test_unit_norm_by_tensor_quadrature(self, alpha):
        # int e_alpha^2 over R^n = 1; tensor composite-Gauss grid per axis
        from wickshe.kernels import build_line_grid
        n = alpha.degree()
        g = build_line_grid(9.0, panels=12)
        nodes, wts = g.nodes, g.weights
        vals = np.zeros([nodes.size] * n)
        k = alpha.characteristic_vector()
        tables = hermite_function_table(max(k), nodes)
        # tensor contraction of the symmetrized product, axis by axis
        from itertools import permutations
        total = 0.0
        dists = set(permutations(k))
        for arr1 in dists:
            for arr2 in dists:
                prod = 1.0
                for j1, j2 in zip(arr1, arr2):
                    prod *= float(np.dot(wts, tables[j1 - 1] * tables[j2 - 1]))
                total += prod
        afact = alpha.factorial()
        norm2 = total * afact * afact / (math.factorial(n) * afact)
        assert norm2 == pytest.approx(1.0, abs=1e-6)


class TestSampleXi:
    def test_trivial_cases(self):
        g = np.array([0.4, -1.0])
        assert sample_xi_batch([MultiIndex(())], g)[0, 0] == 1.0
        assert sample_xi_batch([MultiIndex((1,))], g)[0, 0] == pytest.approx(0.4)

    def test_support_exceeds_coordinates(self):
        with pytest.raises(ValueError):
            sample_xi_batch([MultiIndex((0, 0, 1))], np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError, match="reaches mode 3"):
            sample_xi_batch([MultiIndex((1,)), MultiIndex((0, 0, 1))], np.zeros((4, 2)))

    def test_monte_carlo_orthonormality(self):
        # sample covariance of the xi family is the identity to 3 stderr
        indices = [MultiIndex(e) for e in [(), (1,), (0, 1), (2,), (1, 1), (3,)]]
        gen = substream(2024, "xi-orthonormality")
        G = gen.standard_normal((1_000_000, 2))
        X = sample_xi_batch(indices, G)
        gram = X.T @ X / X.shape[0]
        for i in range(len(indices)):
            for j in range(len(indices)):
                target = 1.0 if i == j else 0.0
                pair = X[:, i] * X[:, j]
                se = pair.std(ddof=1) / math.sqrt(pair.size)
                if se == 0.0:  # xi_0 * xi_0 is the constant 1
                    assert gram[i, j] == target
                else:
                    assert abs(gram[i, j] - target) <= 3 * se
