"""Laurent polynomial arithmetic, substitution, grading, serialization."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from h14.errors import UsageError
from h14.laurent import QQ, LaurentPoly, _is_prime, coeff_of, inverse, parse_field
from h14.linalg import sparse_nullspace


def mono(n, e, c=1, field=QQ):
    return LaurentPoly.monomial(n, e, c, field)


class TestFieldTags:
    def test_parse(self):
        assert parse_field("Q") == QQ
        assert parse_field("Fp:5") == 5
        assert parse_field("F7") == 7
        assert parse_field(13) == 13

    def test_non_prime_rejected(self):
        with pytest.raises(UsageError):
            parse_field("Fp:9")
        with pytest.raises(UsageError):
            parse_field(1)

    @pytest.mark.parametrize("tag", [True, False])
    def test_boolean_is_not_a_modulus(self, tag):
        # True used to fail as "field modulus True is not prime"
        with pytest.raises(UsageError, match=f"unrecognized field tag {tag}"):
            parse_field(tag)

    def test_large_prime_accepted_quickly(self):
        start = time.perf_counter()
        assert parse_field("Fp:2305843009213693951") == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [561, 2**61 + 1, 318665857834031151167461])
    def test_composites_rejected(self, n):
        # 561 is a Carmichael number; the last is the least strong pseudoprime
        # to the twelve prime bases 2..37, which base 41 exposes
        with pytest.raises(UsageError, match="not prime"):
            parse_field(n)

    def test_modulus_beyond_the_exact_range_rejected(self):
        with pytest.raises(UsageError, match="too large"):
            parse_field(10**29 + 7)

    def test_primality_agrees_with_trial_division(self):
        limit = 10**5
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for d in range(2, 317):
            if sieve[d]:
                sieve[d * d::d] = bytearray(len(range(d * d, limit, d)))
        assert all(_is_prime.__wrapped__(n) == bool(sieve[n]) for n in range(limit))

    def test_prime_field_arithmetic(self):
        a, b = coeff_of(7, 3), coeff_of(7, 2)
        assert coeff_of(7, a + 5) == 1
        assert coeff_of(7, a * a) == 2
        assert coeff_of(7, a * inverse(7, b) * b) == a
        assert coeff_of(7, inverse(7, a) * a) == 1
        assert coeff_of(7, Fraction(3, 2)) * 2 % 7 == 3
        assert coeff_of(7, -1) == 6
        with pytest.raises(ZeroDivisionError):
            inverse(7, coeff_of(7, 14))

    def test_coefficient_types(self):
        # over Q an int when integral, else a Fraction with denominator > 1
        assert type(coeff_of(QQ, 3)) is int and type(coeff_of(QQ, True)) is int
        assert type(coeff_of(QQ, Fraction(6, 3))) is int and type(coeff_of(QQ, Fraction(3, 2))) is Fraction
        assert type(coeff_of(5, 8)) is int
        assert inverse(QQ, 4) == Fraction(1, 4) and type(inverse(QQ, 4)) is Fraction
        assert inverse(QQ, Fraction(-1, 4)) == -4 and type(inverse(QQ, Fraction(-1, 4))) is int
        assert type(inverse(QQ, -1)) is int
        with pytest.raises(ZeroDivisionError):
            inverse(QQ, Fraction(0))
        with pytest.raises(UsageError):
            coeff_of(QQ, 0.5)

    def test_int_rows_give_int_nullspace(self):
        basis = sparse_nullspace([{0: 1, 1: 1}], [0, 1, 2], "Q")
        assert basis == [{1: 1, 0: -1}, {2: 1}]
        assert all(type(c) is int for vec in basis for c in vec.values())


class TestRingOps:
    def test_difference_of_squares(self):
        x1, x2 = (LaurentPoly.variable(2, i) for i in range(2))
        assert (x1 - x2) * (x1 + x2) == x1 ** 2 - x2 ** 2

    def test_laurent_cancellation(self):
        assert mono(1, (-1,)) * mono(1, (1,)) == LaurentPoly.constant(1, 1)

    def test_square_of_difference(self):
        f = mono(2, (1, -1)) - mono(2, (-1, 1))
        expected = mono(2, (2, -2)) - 2 + mono(2, (-2, 2))
        assert f ** 2 == expected

    def test_field_mismatch_rejected(self):
        with pytest.raises(UsageError, match=r"^field mismatch: Q vs Fp:5$"):
            mono(1, (1,)) + mono(1, (1,), field=5)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(UsageError):
            mono(1, (1,)) + mono(2, (1, 0))

    def test_negative_power_rejected(self):
        with pytest.raises(UsageError):
            mono(1, (1,)) ** -1

    def test_boolean_power_rejected(self):
        with pytest.raises(UsageError, match="nonnegative integer"):
            mono(1, (1,)) ** True

    @pytest.mark.parametrize("n", [True, 2.0, -1, "3"])
    def test_ambient_must_be_a_nonnegative_integer(self, n):
        # these used to build; True then multiplied with an n=1 polynomial
        with pytest.raises(UsageError, match="number of variables must be a nonnegative integer"):
            LaurentPoly(n, QQ, {(1,): 1} if n is True else None)
        with pytest.raises(UsageError, match="number of variables"):
            LaurentPoly.constant(n, 1)

    @pytest.mark.parametrize("i", [2, 5, -1, True])
    def test_variable_index_out_of_range_rejected(self, i):
        # 5 used to raise IndexError, and -1 built X2
        with pytest.raises(UsageError, match="variable index"):
            LaurentPoly.variable(2, i)

    @pytest.mark.parametrize("entry", [1.5, 2.0, True, False, "1"])
    def test_exponent_entries_must_be_integers(self, entry):
        # 1.5 used to print "1 * X1^1.5" and True "2 * X1^True"
        with pytest.raises(UsageError, match="non-integer entry"):
            LaurentPoly(2, QQ, {(0, entry): 2})
        with pytest.raises(UsageError, match="non-integer entry"):
            LaurentPoly.monomial(1, (entry,))


small_polys = st.builds(
    lambda terms: LaurentPoly(2, QQ, dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.integers(-5, 5),
        ),
        max_size=4,
    ),
)


class TestRingAxioms:
    @settings(max_examples=100, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_associativity_distributivity(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert (f + g) * h == f * h + g * h
        assert f + g == g + f
        assert f * g == g * f


class TestSubstitute:
    def test_binomial_image(self):
        pi = LaurentPoly.variable(4, 3) - LaurentPoly.variable(4, 0)
        images = [
            mono(4, (-1, 1, 1, 0)),
            mono(4, (1, -1, 1, 0)),
            mono(4, (1, 1, -1, 0)),
            mono(4, (0, 0, 0, 1)),
        ]
        out = pi.substitute(images)
        assert out == mono(4, (0, 0, 0, 1)) - mono(4, (-1, 1, 1, 0))

    def test_identity_images(self):
        f = mono(2, (2, -1), Fraction(3, 2)) + mono(2, (0, 1))
        idv = [LaurentPoly.variable(2, i) for i in range(2)]
        assert f.substitute(idv) == f

    def test_collision_cancellation(self):
        f = LaurentPoly.variable(2, 0) - LaurentPoly.variable(2, 1)
        img = mono(2, (1, -1))
        assert f.substitute([img, img]).is_zero()

    def test_non_monomial_image_rejected(self):
        f = LaurentPoly.variable(1, 0)
        with pytest.raises(UsageError):
            f.substitute([LaurentPoly.variable(2, 0) + LaurentPoly.variable(2, 1)])

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys)
    def test_homomorphism(self, f, g):
        images = [mono(2, (1, -1)), mono(2, (2, 1))]
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


int_polys = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-9, 9)),
    max_size=4,
)


def _reduced(f, p):
    """The Q polynomial ``f`` (integer coefficients) with each coefficient mod p."""
    return LaurentPoly(f.n, p, {e: int(c) % p for e, c in f.terms.items()})


class TestPrimeFieldAgainstQ:
    """Over F_p, ring operations on integer polynomials commute with reduction."""

    @settings(max_examples=80, deadline=None)
    @given(int_polys, int_polys, st.sampled_from([2, 3, 5, 7, 32003]), st.integers(0, 3))
    def test_reduction_is_a_ring_map(self, ta, tb, p, k):
        f, g = LaurentPoly(2, QQ, dict(ta)), LaurentPoly(2, QQ, dict(tb))
        fp, gp = LaurentPoly(2, p, dict(ta)), LaurentPoly(2, p, dict(tb))
        images = [mono(2, (1, -1)), mono(2, (2, 1), -1)]
        images_p = [mono(2, (1, -1), field=p), mono(2, (2, 1), -1, p)]
        assert fp + gp == _reduced(f + g, p)
        assert fp - gp == _reduced(f - g, p)
        assert fp * gp == _reduced(f * g, p)
        assert fp ** k == _reduced(f ** k, p)
        assert fp.substitute(images_p) == _reduced(f.substitute(images), p)
        assert all(type(c) is int and 0 < c < p for c in (fp * gp).terms.values())


class TestSupportAndGrading:
    def test_support(self):
        assert LaurentPoly.zero(2).support() == set()
        f = mono(4, (0, 0, 0, 1)) - mono(4, (-1, 1, 1, 0))
        assert f.support() == {(0, 0, 0, 1), (-1, 1, 1, 0)}
        g = (mono(2, (1, -1)) - mono(2, (-1, 1))) ** 2
        assert g.support() == {(2, -2), (0, 0), (-2, 2)}

    def test_is_polynomial(self):
        assert not mono(2, (-1, 1)).is_polynomial()
        assert LaurentPoly.constant(2, 5).is_polynomial()

    def test_partial_derivative(self):
        x = LaurentPoly.variable(1, 0)
        assert (x ** 2).partial_derivative(0) == 2 * x
        assert mono(1, (-1,)).partial_derivative(0) == mono(1, (-2,), -1)
        assert mono(1, (2,), field=2).partial_derivative(0).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys)
    def test_leibniz(self, f, g):
        for i in range(2):
            lhs = (f * g).partial_derivative(i)
            rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
            assert lhs == rhs

    def test_grade_by(self):
        x1, x2 = (LaurentPoly.variable(2, i) for i in range(2))
        assert (x1 ** 2 + x1 * x2).grade_by((1, 1)) == {2: x1 ** 2 + x1 * x2}
        parts = (x1 + x2 ** 2).grade_by((1, 1))
        assert parts == {1: x1, 2: x2 ** 2}
        f = mono(4, (0, 0, 0, 1)) - mono(4, (2, 0, 0, 0))
        assert f.grade_by((1, 1, 1, 2)) == {2: f}

    @settings(max_examples=60, deadline=None)
    @given(small_polys)
    def test_grading_resums(self, f):
        parts = f.grade_by((2, -1))
        total = LaurentPoly.zero(2)
        for d, p in parts.items():
            assert list(p.grade_by((2, -1))) == [d]
            total = total + p
        assert total == f


class TestTextForm:
    def test_canonical_output(self):
        f = mono(2, (1, 0), Fraction(-3, 2)) + mono(2, (0, 2))
        assert f.to_text() == "1 * X1^0 X2^2 + -3/2 * X1^1 X2^0"

    @staticmethod
    def format_rendering(f):
        """The text form with one ``str.format`` parse per term."""
        if not f.terms:
            return "0"
        template = "{} * " + " ".join(f"X{i + 1}^{{}}" for i in range(f.n))
        return " + ".join(template.format(c, *e) for e, c in sorted(f.terms.items()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.tuples(*[st.integers(-4, 4)] * n),
                        st.one_of(st.fractions(max_denominator=99), st.integers(), st.booleans()), max_size=6),
    )))
    def test_same_text_as_one_format_parse_per_term(self, case):
        # _trusted keeps every value as given, bools included; Q and F_p
        # coefficients print alike, as their str
        n, terms = case
        f = LaurentPoly._trusted(n, QQ, terms)
        assert f.to_text() == self.format_rendering(f)
        fp = LaurentPoly(n, 32003, {e: int(c) for e, c in terms.items()})
        assert fp.to_text() == self.format_rendering(fp)
