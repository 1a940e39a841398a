"""The summing derivation, its kernel, and the support property."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from h14.derivation import apply_E, kernel_degree_basis, support_property_check
from h14.errors import PreconditionError, UsageError
from h14.laurent import QQ, LaurentPoly
from h14.linalg import sparse_nullspace


def y(i, n=4):
    return LaurentPoly.variable(n, i)


def differences(n=4):
    """The kernel generators Y_n - Y_i."""
    return [y(n - 1, n) - y(i, n) for i in range(n - 1)]


class TestApplyE:
    def test_difference_killed(self):
        assert apply_E(y(3) - y(0)).is_zero()

    def test_single_variable(self):
        assert apply_E(y(0)) == LaurentPoly.constant(4, 1)

    def test_product(self):
        assert apply_E(y(0) * y(1)) == y(0) + y(1)


class TestKernelCheck:
    def test_kernel_product(self):
        f = (y(3) - y(1)) ** 3 * (y(3) - y(2))
        assert apply_E(f).is_zero()

    def test_two_variable_difference(self):
        assert apply_E(y(1, n=2) - y(0, n=2)).is_zero()

    def test_sum_not_in_kernel(self):
        assert not apply_E(y(3) + y(0)).is_zero()

    def test_closure_under_ring_ops(self):
        g1, g2, g3 = differences()
        assert apply_E(g1 * g2 - 3 * g3 ** 2).is_zero()
        assert apply_E((g1 + g2) ** 3).is_zero()


kernel_polys = st.builds(
    lambda coeffs: sum(
        (c * g ** k for (c, k), g in zip(coeffs, differences())),
        LaurentPoly.zero(4),
    ),
    st.tuples(*(st.tuples(st.integers(-3, 3), st.integers(0, 3)),) * 3),
)

small_y_polys = st.builds(
    lambda terms: LaurentPoly(4, QQ, {e: c for e, c in terms}),
    st.lists(
        st.tuples(
            st.tuples(*(st.integers(0, 2),) * 4),
            st.integers(-4, 4),
        ),
        max_size=3,
    ),
)


class TestLeibniz:
    @settings(max_examples=80, deadline=None)
    @given(small_y_polys, small_y_polys)
    def test_product_rule(self, f, g):
        assert apply_E(f * g) == apply_E(f) * g + f * apply_E(g)

    @settings(max_examples=40, deadline=None)
    @given(kernel_polys, kernel_polys)
    def test_kernel_is_subring(self, f, g):
        assert apply_E(f + g).is_zero()
        assert apply_E(f * g).is_zero()


class TestKernelDegreeBasis:
    def test_dimensions(self):
        for d in range(0, 9):
            basis = kernel_degree_basis(d)
            assert len(basis) == math.comb(d + 3, 3)
            for b in basis:
                assert apply_E(b).is_zero()
                assert b.is_polynomial()

    def test_degree_cap(self):
        with pytest.raises(UsageError):
            kernel_degree_basis(9)
        with pytest.raises(UsageError):
            kernel_degree_basis(-1)

    @pytest.mark.parametrize("d", [True, 2.5])
    def test_degree_bound_must_be_an_int(self, d):
        with pytest.raises(UsageError, match="nonnegative integer"):
            kernel_degree_basis(d)

    @pytest.mark.parametrize("nvars", [True, 2.0, 0])
    def test_variable_count_must_be_a_positive_int(self, nvars):
        with pytest.raises(UsageError, match="integer"):
            kernel_degree_basis(2, nvars=nvars)

    def test_many_variables_are_refused_quickly(self):
        # comb(8 + 100, 100) monomials, far above the budget; the
        # (d + 1)^nvars box they were once filtered from is never walked
        start = time.perf_counter()
        with pytest.raises(UsageError, match="enumeration budget"):
            kernel_degree_basis(8, nvars=100)
        assert time.perf_counter() - start < 0.5

    def test_term_budget_boundary(self):
        # at d = 8 the closed form writes comb(8 + 2v - 2, 2v - 2) terms:
        # 1 562 275 for 10 variables, 3 108 105 for 11 (budget 2 000 000)
        assert math.comb(8 + 18, 18) == 1_562_275 and math.comb(8 + 20, 20) == 3_108_105
        basis = kernel_degree_basis(8, nvars=5)
        assert len(basis) == math.comb(8 + 4, 4)
        assert sum(len(b.terms) for b in basis) == math.comb(8 + 8, 8)
        start = time.perf_counter()
        with pytest.raises(UsageError, match="3108105 terms"):
            kernel_degree_basis(8, nvars=11)
        assert time.perf_counter() - start < 0.5

    def test_sixteen_variables_at_degree_two(self):
        # 153 monomials; their kernel is spanned by the constant and the
        # 15 + 120 degree-1 and degree-2 polynomials in the 15 differences
        assert len(kernel_degree_basis(2, nvars=16)) == math.comb(2 + 15, 15)


def reference_kernel_degree_basis(d, nvars):
    """The kernel by elimination: one homogeneous equation per image monomial
    m of degree < d (the coefficient of m in E(f), with weights m_i + 1 at the
    keys m + e_i), solved over Q for the canonical nullspace basis."""
    monomials = sorted(tuple(map(c.count, range(nvars)))
                       for k in range(d + 1) for c in itertools.combinations_with_replacement(range(nvars), k))
    constraints = {}
    for e in monomials:
        for i in range(nvars):
            if e[i]:
                img = e[:i] + (e[i] - 1,) + e[i + 1:]
                constraints.setdefault(img, {})[e] = Fraction(e[i])
    vecs = sparse_nullspace([constraints[img] for img in sorted(constraints)], monomials, QQ)
    return [LaurentPoly(nvars, QQ, v) for v in vecs]


KERNEL_ORACLE_CASES = (
    [(d, 4) for d in range(9)]
    + [(d, n) for n in range(1, 7) for d in range(4)]
    + [(d, 5) for d in range(4, 7)]
)


class TestClosedFormKernel:
    """The closed-form basis against the elimination it replaced."""

    @pytest.mark.parametrize("d, nvars", KERNEL_ORACLE_CASES)
    def test_matches_the_elimination(self, d, nvars):
        basis = kernel_degree_basis(d, nvars=nvars)
        expected = reference_kernel_degree_basis(d, nvars)
        assert [b.to_text() for b in basis] == [b.to_text() for b in expected]
        assert len(basis) == math.comb(d + nvars - 1, nvars - 1)
        for b in basis:
            assert apply_E(b).is_zero()
            assert all(type(c) is int for c in b.terms.values())  # integral, so ints over Q

    def test_free_monomials_in_ascending_order(self):
        # the basis element of f is f(Y1 - Y3, Y2 - Y3): 1 at f, 0 at the
        # other Y3-free monomials
        basis = kernel_degree_basis(3, nvars=3)
        free = [{e: c for e, c in b.terms.items() if e[-1] == 0} for b in basis]
        assert all(len(f) == 1 and 1 in f.values() for f in free)
        assert [min(f) for f in free] == sorted(e for e in itertools.product(range(4), range(4), [0]) if sum(e) <= 3)


class TestSupportProperty:
    def test_constant(self):
        assert support_property_check(LaurentPoly.constant(4, 1))

    def test_synthetic_violator(self):
        f = LaurentPoly.monomial(4, (0, 0, 0, 2)) + LaurentPoly.monomial(4, (1, 1, 0, 1))
        assert not support_property_check(f)

    def test_good_element(self):
        f = LaurentPoly.monomial(4, (1, 0, 0, 1)) + LaurentPoly.monomial(4, (0, 2, 0, 0))
        assert support_property_check(f)

    def test_laurent_input_rejected(self):
        with pytest.raises(PreconditionError):
            support_property_check(LaurentPoly.monomial(4, (-1, 0, 0, 1)))
