"""The coefficient invariant of the field layer, on every public path that
makes coefficients: over Q an exact ``int`` when integral (never a bool) and
a ``Fraction`` with denominator > 1 otherwise; over F_p an ``int`` in
``range(p)``.  ``canonical`` is the invariant; the other test modules pin
their outputs with it."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from h14 import linalg
from h14.intersect import graded_intersection, kuroda_intersection_basis
from h14.kuroda import random_instance
from h14.laurent import QQ, LaurentPoly, coeff_of, inverse
from h14.linalg import SparseRREF, sparse_nullspace

FIELDS = (QQ, 2, 3, 7, 32003)


def canonical(field, c):
    """Whether ``c`` is a coefficient of ``field`` in the field layer's form."""
    if field == QQ:
        return type(c) is int or type(c) is Fraction and c.denominator > 1
    return type(c) is int and 0 <= c < field


def canonical_poly(poly):
    return all(canonical(poly.field, c) for c in poly.terms.values())


def rref_rows(rr):
    """The rows of a ``SparseRREF``, copied, in ascending pivot order: its
    canonical basis."""
    return [dict(rr.rows[k]) for k in sorted(rr.rows)]


def scalars(field):
    """Exact scalars of every kind the field layer accepts: ints, bools and
    Fractions, integral ones (4/2) included; over F_p no denominator p."""
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.one_of(st.integers(-6, 6), st.booleans(), fractions.filter(
        lambda q: field == QQ or q.denominator % field))


def units(field):
    return scalars(field).filter(lambda c: coeff_of(field, c))


def polys(field, n=2):
    return st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), scalars(field), max_size=4).map(
        lambda terms: LaurentPoly(n, field, terms))


fields = st.sampled_from(FIELDS)


class TestFieldLayer:
    @settings(max_examples=100, deadline=None)
    @given(fields.flatmap(lambda f: st.tuples(st.just(f), units(f))))
    def test_coercion_and_inverse(self, args):
        field, c = args
        assert canonical(field, coeff_of(field, c))
        assert canonical(field, inverse(field, coeff_of(field, c)))


class TestLaurentPoly:
    @settings(max_examples=150, deadline=None)
    @given(fields.flatmap(lambda f: st.tuples(polys(f), polys(f), scalars(f))), st.integers(0, 3))
    def test_ring_operations(self, args, k):
        f, g, c = args
        for h in (f, g, f + g, f - g, f * g, -f, f ** k, f * c, c * f, f + c, c - f,
                  f.partial_derivative(0), f.partial_derivative(1)):
            assert canonical_poly(h), h.terms

    @settings(max_examples=100, deadline=None)
    @given(fields.flatmap(lambda f: st.tuples(
        polys(f), st.lists(st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
                                     units(f)), min_size=2, max_size=2))))
    def test_substitute(self, args):
        f, images = args
        images = [LaurentPoly.monomial(3, v, c, f.field) for v, c in images]
        assert canonical_poly(f.substitute(images))


def entries(field):
    """Nonzero entries of sparse rows: raw scalars over Q, field elements over
    F_p (the elimination takes them as they come)."""
    return units(field).map(lambda c: c if field == QQ else coeff_of(field, c))


class TestLinalg:
    @settings(max_examples=100, deadline=None)
    @given(fields, st.data())
    def test_sparse_rref_rows_and_nullspaces(self, field, data):
        rows = data.draw(st.lists(st.dictionaries(st.integers(0, 5), entries(field), max_size=4), max_size=6))
        rr = SparseRREF(field)
        for row in rows:
            rr.add(row)
        vecs = rref_rows(rr) + rr.null_basis(range(6)) + sparse_nullspace(rows, range(6), field)
        coeffs = data.draw(st.lists(entries(field), max_size=len(vecs)))
        vecs.append(linalg.combination(dict(enumerate(coeffs)), vecs, field))
        assert all(canonical(field, c) for vec in vecs for c in vec.values())

    def test_combination_coerces_its_coefficients(self):
        # a Fraction coefficient over F_p becomes the field's int, as the
        # rows' entries are
        out = linalg.combination({0: Fraction(1)}, [{0: 1}], 2)
        assert out == {0: 1} and type(out[0]) is int
        assert linalg.combination({0: Fraction(1, 2)}, [{0: 1}], 5) == {0: 3}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(0, 5), units(QQ).map(lambda c: coeff_of(QQ, c)), max_size=4)))
    def test_lift(self, rows):
        lifted = linalg.lift(linalg.residues(rows))
        assert lifted == rows
        assert all(canonical(QQ, c) for row in lifted for c in row.values())


def forms(field, degree):
    """Nonzero forms of ``degree`` in two variables."""
    return st.dictionaries(st.integers(0, degree).map(lambda i: (i, degree - i)), units(field), min_size=1).map(
        lambda terms: LaurentPoly(2, field, terms)).filter(lambda g: not g.is_zero())


class TestEngineReports:
    @settings(max_examples=30, deadline=None)
    @given(fields.flatmap(lambda f: st.tuples(
        st.lists(st.integers(1, 2).flatmap(lambda d: forms(f, d)), min_size=1, max_size=2),
        st.lists(st.integers(1, 2).flatmap(lambda d: forms(f, d)), min_size=1, max_size=2))))
    def test_graded_bases(self, gens):
        bases = graded_intersection(*gens, (1, 1), 4)
        assert all(canonical_poly(b) for bs in bases.values() for b in bs)

    @settings(max_examples=20, deadline=None)
    @given(fields, st.sampled_from([3, 4]), st.integers(0, 10 ** 6), st.booleans())
    def test_pi_engine_bases_and_images(self, field, n, seed, fraction_path):
        inst = random_instance(random.Random(seed), n, 3, field)
        assume(inst.det_t)
        with mock.patch.object(linalg, "lift", (lambda rows: None) if fraction_path else linalg.lift):
            report = kuroda_intersection_basis(inst, 4)
        polys = [p for d in report.bases for p in report.bases[d] + report.images[d]]
        assert all(canonical_poly(p) for p in polys)
