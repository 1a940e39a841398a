"""Bounded-degree intersection algebras and structural instance checks."""

import dataclasses
import functools
import io
import itertools
import random
import re
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from math import lcm
from operator import add, mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from h14 import intersect, linalg
from h14.derivation import support_property_check
from h14.errors import PreconditionError, UsageError
from h14.intersect import (
    freeness_certificate,
    freeness_coset_check,
    graded_intersection,
    kuroda_intersection_basis,
    minimal_generator_degrees,
    no_monomial_units_check,
)
from h14.kuroda import build_f0, build_instance, condition_holds, delta_box, lemma31_find_p, ratio_sum, star_tables
from h14.laurent import QQ, LaurentPoly, coeff_of
from h14.linalg import SparseRREF
from test_coefficients import canonical, canonical_poly, rref_rows


def mono(e, field=QQ):
    return LaurentPoly.monomial(4, e, 1, field)


def pairwise_products_data(field):
    """Generators of the two degree-graded algebras used across these tests:
    pairwise products of three degree-1 variables plus a weight-2 variable,
    against the three differences (weight-2 variable minus a square)."""
    gens_a = [mono((1, 1, 0, 0), field), mono((0, 1, 1, 0), field),
              mono((1, 0, 1, 0), field), mono((0, 0, 0, 1), field)]
    x = mono((0, 0, 0, 1), field)
    gens_b = [x - mono((2, 0, 0, 0), field), x - mono((0, 2, 0, 0), field),
              x - mono((0, 0, 2, 0), field)]
    return gens_a, gens_b


WEIGHTS = (1, 1, 1, 2)

ONES_DELTA = [[1, 1, 1]] * 3
OFF3_DELTA = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
ONES = build_instance(4, 1, ONES_DELTA)
OFF3 = build_instance(4, 1, OFF3_DELTA)


class TestGradedIntersection:
    def test_rational_case_trivial(self):
        gens_a, gens_b = pairwise_products_data(QQ)
        bases = graded_intersection(gens_a, gens_b, WEIGHTS, 16)
        assert sorted(bases) == list(range(17))
        assert len(bases[0]) == 1
        assert not any(bases[d] for d in range(1, 17))
        assert minimal_generator_degrees(bases) == []

    @pytest.mark.parametrize("field", [QQ, 5, 2])
    def test_generators_may_be_iterators(self, field):
        # iterators were used up before the product tables read them, so
        # both sides came out empty; here B shares A's first generator, so
        # degree 2 is not (over F_2 degree 4 is not either)
        gens_a, gens_b = pairwise_products_data(field)
        gens_b.append(gens_a[0])
        bases = graded_intersection(gens_a, gens_b, WEIGHTS, 4)
        assert bases[2] and (field != 2 or bases[4])
        assert graded_contents(graded_intersection(iter(gens_a), iter(gens_b), WEIGHTS, 4)) == graded_contents(bases)

    @pytest.mark.parametrize("p", [5, 7])
    def test_odd_prime_fields_trivial(self, p):
        gens_a, gens_b = pairwise_products_data(p)
        bases = graded_intersection(gens_a, gens_b, WEIGHTS, 12)
        assert not any(bases[d] for d in range(1, 13))

    def test_char2_degree4_element(self):
        gens_a, gens_b = pairwise_products_data(2)
        bases = graded_intersection(gens_a, gens_b, WEIGHTS, 4)
        assert len(bases[4]) >= 1
        target = (mono((0, 1, 1, 0), 2) ** 2 - mono((1, 0, 1, 0), 2) ** 2
                  - mono((1, 1, 0, 0), 2) ** 2 + mono((0, 0, 0, 1), 2) ** 2)
        rr = SparseRREF(2)
        for b in bases[4]:
            rr.add(b.terms)
        assert rr.contains(target.terms)
        assert minimal_generator_degrees(bases) == [(4, 1)]

    def test_char3_table_is_zero(self):
        # characteristic 3 is outside the range any engine-independent claim
        # covers; the computed table itself is all zero up to degree 12
        gens_a, gens_b = pairwise_products_data(3)
        bases = graded_intersection(gens_a, gens_b, WEIGHTS, 12)
        assert not any(bases[d] for d in range(1, 13))

    def test_single_generator(self):
        x = mono((0, 0, 0, 1))
        bases = graded_intersection([x], [x], WEIGHTS, 8)
        for d in range(9):
            assert len(bases[d]) == (1 if d % 2 == 0 else 0)

    def test_non_homogeneous_rejected(self):
        x = mono((0, 0, 0, 1))
        with pytest.raises(UsageError, match=r"^generator A\[0\] = .* is not homogeneous for weights \(1, 1, 1, 2\)$"):
            graded_intersection([x + mono((1, 0, 0, 0))], [x], WEIGHTS, 4)

    def test_degree_cap(self):
        x = mono((0, 0, 0, 1))
        with pytest.raises(UsageError, match=r"^degree bound 64 exceeds the maximum 32$"):
            graded_intersection([x], [x], WEIGHTS, 64)

    def test_monomial_algebra_matches_hilbert_counts(self):
        # the monomial algebra generated by the worked-example intersection
        # generators: degree-wise dimensions count monoid monomials
        m = lambda e: LaurentPoly.monomial(2, e)
        gens = [m((1, 1)), m((2, 0)), m((0, 2))]
        bases = graded_intersection(gens, gens, (1, 1), 10)
        for d in range(11):
            assert len(bases[d]) == ((d + 1) if d % 2 == 0 else 0)
        assert minimal_generator_degrees(bases) == [(2, 3)]

    def test_order_independence(self):
        m = lambda e: LaurentPoly.monomial(2, e)
        gens = [m((1, 1)), m((2, 0)), m((0, 2))]
        bases1 = graded_intersection(gens, gens, (1, 1), 8)
        bases2 = graded_intersection(gens[::-1], gens[::-1], (1, 1), 8)
        assert all(bases1[d] == bases2[d] for d in range(9))

    @pytest.mark.parametrize("weights", [(1.7, True), (1, 1.0), ("1", 1), (True, 1)])
    def test_weights_are_validated_not_truncated(self, weights):
        m = lambda e: LaurentPoly.monomial(2, e)
        with pytest.raises(UsageError, match=r"^weights entries must be integers, got (1\.7|1\.0|'1'|True)$"):
            graded_intersection([m((1, 1))], [m((1, 1))], weights, 4)

    def test_basis_elements_homogeneous(self):
        gens_a, gens_b = pairwise_products_data(2)
        bases = graded_intersection(gens_a, gens_b, WEIGHTS, 6)
        for d in range(1, 7):
            for b in bases[d]:
                assert list(b.grade_by(WEIGHTS)) == [d]


class TestKurodaIntersectionBasis:
    def test_ones_constants_only(self):
        rep = kuroda_intersection_basis(ONES, 3)
        assert rep.dims[0] == 1
        assert all(rep.dims[d] == 0 for d in (1, 2, 3))
        assert minimal_generator_degrees(rep.bases) == []

    def test_degree_zero(self):
        rep = kuroda_intersection_basis(OFF3, 0)
        assert rep.dims == {0: 1}

    def test_ones_trivial_up_to_twelve(self):
        rep = kuroda_intersection_basis(ONES, 12)
        assert all(rep.dims[d] == 0 for d in range(1, 13))
        assert rep.new_generators == ()

    def test_off3_contains_certificate(self):
        rep = kuroda_intersection_basis(OFF3, 12)
        assert any(rep.dims[d] > 0 for d in range(1, 13))
        p, p1, p2, p3 = lemma31_find_p(OFF3.xi)
        assert p == 12
        f0 = build_f0(OFF3, p1, p2, p3)
        rr = SparseRREF(OFF3.field)
        for d in sorted(rep.images):
            for img in rep.images[d]:
                rr.add(img.terms)
        assert rr.contains(f0.terms)
        assert rep.new_generators != ()

    def test_images_are_polynomial(self):
        rep = kuroda_intersection_basis(OFF3, 8)
        for d in sorted(rep.images):
            for img in rep.images[d]:
                assert img.is_polynomial()

    def test_support_property_of_images(self):
        rep = kuroda_intersection_basis(OFF3, 8)
        for d in sorted(rep.images):
            for img in rep.images[d]:
                if not img.is_constant():
                    assert support_property_check(img)

    def test_singular_rejected(self):
        inst = build_instance(3, 1, [[1, 1], [1, 1]])  # det 0
        with pytest.raises(PreconditionError, match=r"^exponent matrix is singular; the pis are dependent$"):
            kuroda_intersection_basis(inst, 2)


def seeded_n4(count, seed, star):
    """Nonsingular n=4 instances with delta entries in 1..4; with ``star``,
    only those meeting the three-ratio condition, whose pi-spans contain
    polynomials of positive degree."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rows = [[rng.randint(1, 4) for _ in range(3)] for _ in range(3)]
        inst = build_instance(4, rng.randint(1, 2), rows)
        if inst.det_t and (ratio_sum(rows) < 1 or not star):
            out.append(inst)
    return out


DIFFERENTIAL_CASES = (
    [(OFF3, 8), (ONES, 8)]
    + [(inst, 6) for inst in seeded_n4(5, 14, star=True)]
    + [(inst, 8) for inst in seeded_n4(2, 41, star=True)]
    + [(inst, 6) for inst in seeded_n4(3, 7, star=False)]
    + [(build_instance(3, g, rows), 6)
       for g, rows in ((1, [[3, 1], [1, 1]]), (2, [[1, 2], [3, 1]]), (1, [[2, 1], [1, 3]]))]
)


def report_contents(rep):
    """Everything a report states, with coefficients and their text form."""
    return (
        rep.pi_monomials, rep.constraints, rep.dims, rep.new_generators,
        {d: [(b.terms, b.to_text()) for b in bs] for d, bs in rep.bases.items()},
        {d: [(i.terms, i.to_text()) for i in ims] for d, ims in rep.images.items()},
    )


def count_solves(monkeypatch):
    """Records (variables, nullspace dimension) of every pi-engine solve."""
    calls = []
    solve = intersect.sparse_nullspace

    def counted(constraints, variables, field):
        out = solve(constraints, variables, field)
        calls.append((list(variables), len(out)))
        return out

    monkeypatch.setattr(intersect, "sparse_nullspace", counted)
    return calls


def reference_degree_bases(constraints, degree, dmax, fld):
    """The per-degree loop: one nullspace solve per degree d <= dmax, over
    the pi-monomials beta with ``degree[beta] <= d``.

    Returns degree -> the canonical rows that are new at that degree: the
    RREF of the degree-d solutions that vanish at the pivots of all earlier
    rows.  A reduced row echelon form is unique, so the rows depend only on
    the solution spaces, not on the order of the work.
    """
    seen = SparseRREF(fld)
    bases = {}
    ordered = [constraints[e] for e in sorted(constraints)]
    for d in range(dmax + 1):
        rows = []
        for con in ordered:
            row = {b: c for b, c in con.items() if degree[b] <= d}
            if row:
                rows.append(row)
        null = linalg.sparse_nullspace(rows, [b for b, deg in degree.items() if deg <= d], fld)
        fresh = SparseRREF(fld)
        for vec in null:
            res = seen.reduce(vec)
            if res:
                fresh.add(res)
        bases[d] = rref_rows(fresh)
        for row in bases[d]:
            seen.add(row)
    return bases


class _Captured(Exception):
    pass


def cancellation_system(inst, dmax):
    """The integer cancellation constraints, keyed by -beta, and the degree
    map that the Q pi-engine hands to ``_degree_bases`` on its Fraction path,
    forced by failing every lift of the pass mod P."""
    captured = []
    degree_bases = intersect._degree_bases

    def capture(constraints, degree, dmax, fld):
        if fld != inst.field:  # the pass mod P
            return degree_bases(constraints, degree, dmax, fld)
        captured.append((constraints, degree))
        raise _Captured

    with mock.patch.object(intersect, "_degree_bases", capture), \
            mock.patch.object(linalg, "lift", lambda rows: None), pytest.raises(_Captured):
        kuroda_intersection_basis(inst, dmax)
    return captured[0]


def constraints_in(constraints, field):
    """Integer constraints as a system over ``field``: "P" for the residues
    mod ``linalg.P``, Q with Fractions, or a prime p."""
    if field == "P":
        return dict(zip(constraints, linalg.residues(constraints.values())))
    if field == QQ:
        return {e: {b: Fraction(c) for b, c in row.items()} for e, row in constraints.items()}
    reduced = {e: {b: r for b, c in row.items() if (r := c % field)} for e, row in constraints.items()}
    return {e: row for e, row in reduced.items() if row}


TOP_DOWN_CASES = (
    DIFFERENTIAL_CASES
    + [(OFF3, 12), (ONES, 12)]
    + [(inst, 10) for inst in seeded_n4(3, 2718, star=True)]
)
TOP_DOWN_FIELDS = ("P", QQ, 2, 3, 5, 32003)


class TestTopDownDegreeBases:
    """``_degree_bases`` solves once at dmax and restricts degree by degree;
    the per-degree loop it replaced is its oracle, row for row."""

    @pytest.mark.parametrize("field", TOP_DOWN_FIELDS)
    @pytest.mark.parametrize("case", range(len(TOP_DOWN_CASES)))
    def test_same_rows_as_the_per_degree_loop(self, case, field):
        inst, dmax = TOP_DOWN_CASES[case]
        constraints, degree = cancellation_system(inst, dmax)
        system = constraints_in(constraints, field)
        fld = linalg.P if field == "P" else field
        keyed_by_beta = {e: {-b: c for b, c in row.items()} for e, row in system.items()}
        assert intersect._degree_bases(system, degree, dmax, fld) == \
            reference_degree_bases(keyed_by_beta, degree, dmax, fld)

    def test_cases_cover_positive_dimensions_and_empty_ones(self):
        dims = set()
        for inst, dmax in TOP_DOWN_CASES[-5:]:
            constraints, degree = cancellation_system(inst, dmax)
            bases = intersect._degree_bases(constraints, degree, dmax, QQ)
            dims.add(sum(len(rows) for d, rows in bases.items() if d))
        assert 0 in dims and len(dims) > 2

    @pytest.mark.parametrize("field", [QQ, 32003])
    def test_nullspace_ignores_the_row_order(self, field):
        constraints, degree = cancellation_system(OFF3, 8)
        rows = list(constraints_in(constraints, field).values())
        variables = [-b for b in degree]
        expected = linalg.sparse_nullspace(rows, variables, field)
        rng = random.Random(8)
        for _ in range(20):
            rng.shuffle(rows)
            assert linalg.sparse_nullspace(rows, variables, field) == expected
            unsorted = SparseRREF(field)
            for row in rows:
                unsorted.add(row)
            assert unsorted.null_basis(variables) == expected

    @pytest.mark.parametrize("field", ["Q", "Fp:32003"])
    @pytest.mark.parametrize("inst, dmax", [(OFF3, 8), (ONES, 6)])
    def test_one_solve_per_degree_block(self, monkeypatch, inst, dmax, field):
        # n=4: every degree is its own block, solved over its own pi-monomials
        inst = build_instance(inst.n, inst.gamma, [list(r) for r in inst.delta], field)
        degree = intersect._pi_monomial_images(inst, dmax)[1]
        calls = count_solves(monkeypatch)
        kuroda_intersection_basis(inst, dmax)
        assert len(calls) == dmax + 1
        solved = [sorted(-b for b in variables) for variables, _ in calls]
        assert sorted(solved) == sorted(sorted(b for b in degree if degree[b] == d) for d in range(dmax + 1))

    @pytest.mark.parametrize("field", ["Q", "Fp:32003"])
    def test_a_linked_block_walks_down_its_degrees(self, monkeypatch, field):
        inst = build_instance(3, 1, [[1, 3], [3, 1]], field)
        degree = intersect._pi_monomial_images(inst, 8)[1]
        calls = count_solves(monkeypatch)
        kuroda_intersection_basis(inst, 8)
        assert len(calls) == 9
        covered, widest, i = [], 0, 0
        while i < len(calls):
            degs = {degree[-b] for b in calls[i][0]}
            assert sorted(-b for b in calls[i][0]) == sorted(b for b in degree if degree[b] in degs)
            for (variables, _), (_, above) in zip(calls[i + 1:i + len(degs)], calls[i:]):
                assert variables == list(range(above))  # restrictions, one per lower degree
            covered += degs
            widest = max(widest, len(degs))
            i += len(degs)
        assert sorted(covered) == list(range(9)) and widest > 1

    @pytest.mark.parametrize("case", [(OFF3, 12), (ONES, 12)]
                             + [(inst, 10) for inst in seeded_n4(4, 2718, star=True) + seeded_n4(4, 7, star=False)]
                             + [case for case in DIFFERENTIAL_CASES if case[0].n == 3])
    def test_constraints_link_degrees_only_for_n3(self, case):
        constraints, degree = cancellation_system(*case)
        assert constraints
        linked = any(len({degree[-b] for b in row}) > 1 for row in constraints.values())
        assert linked == (case[0].n == 3)


class TestModularPiEngine:
    """The Q pi-engine solves mod P; the Fraction loop (reached by failing
    every lift) is its oracle, byte for byte."""

    def fraction_path(self, monkeypatch, inst, dmax):
        with monkeypatch.context() as m:
            m.setattr(linalg, "lift", lambda rows: None)
            return kuroda_intersection_basis(inst, dmax)

    @pytest.mark.parametrize("case", range(len(DIFFERENTIAL_CASES)))
    def test_real_prime_matches_fraction_path(self, monkeypatch, case):
        inst, dmax = DIFFERENTIAL_CASES[case]
        expected = report_contents(self.fraction_path(monkeypatch, inst, dmax))
        calls = count_solves(monkeypatch)
        rep = kuroda_intersection_basis(inst, dmax)
        assert len(calls) == dmax + 1  # one solve per degree, no fallback
        assert report_contents(rep) == expected
        for d in rep.bases:
            for poly in rep.bases[d] + rep.images[d]:
                assert canonical_poly(poly)

    @pytest.mark.parametrize("prime", [3, 5])
    @pytest.mark.parametrize("case", range(len(DIFFERENTIAL_CASES)))
    def test_tiny_prime_falls_back(self, monkeypatch, case, prime):
        # mod 3 every residue lifts to 0 or +-1, so only the exact image check
        # can reject a wrong lift; mod 5 the lifts of 2 and 3 fail
        inst, dmax = DIFFERENTIAL_CASES[case]
        expected = report_contents(self.fraction_path(monkeypatch, inst, dmax))
        monkeypatch.setattr(linalg, "P", prime)
        assert report_contents(kuroda_intersection_basis(inst, dmax)) == expected

    def test_tiny_prime_really_falls_back_on_off3(self, monkeypatch):
        monkeypatch.setattr(linalg, "P", 3)
        calls = count_solves(monkeypatch)
        kuroda_intersection_basis(OFF3, 6)
        assert len(calls) == 2 * 7

    def test_fp_field_unchanged(self):
        # over F_p the loop runs in the instance's own field, one solve per degree
        off3_p = build_instance(4, 1, [[1, 3, 3], [3, 1, 3], [3, 3, 1]], "Fp:32003")
        rep_p = kuroda_intersection_basis(off3_p, 8)
        assert rep_p.dims == kuroda_intersection_basis(OFF3, 8).dims
        assert all(isinstance(c, int) for ims in rep_p.images.values()
                   for i in ims for c in i.terms.values())


def order_case(name, field):
    """The n=3 linked instance or the n=4 OFF3 and ONES tables, over ``field``."""
    gamma, delta = {"n3-linked": N3_LINKED, "OFF3": (1, OFF3_DELTA), "ONES": (1, ONES_DELTA)}[name]
    return build_instance(len(delta) + 1, gamma, [list(r) for r in delta], field)


ORDER_CASES = [(name, field) for name in ("n3-linked", "OFF3", "ONES") for field in ("Q", "Fp:32003")]


class TestTableOrderAndDecoding:
    """The pi-engine reads a constraint's lowest degree off its first entry,
    and decodes each key the report holds once, after the certificate."""

    @pytest.mark.parametrize("name, field", ORDER_CASES)
    def test_table_lists_beta_by_degree_and_rows_start_at_their_lowest(self, name, field):
        inst = order_case(name, field)
        images, degree, _ = intersect._pi_monomial_images(inst, 8)
        degrees = [degree[b] for b in images]
        assert degrees == sorted(degrees) and list(degree) == list(images)
        constraints, degree = cancellation_system(inst, 8)
        systems = [constraints] + ([constraints_in(constraints, "P")] if inst.field == QQ else [])
        for system in systems:
            for row in filter(None, system.values()):
                degs = [degree[-b] for b in row]
                assert degs[0] == min(degs) and degs[-1] == max(degs)

    @pytest.mark.parametrize("name, field", ORDER_CASES)
    def test_each_reported_key_is_decoded_once(self, monkeypatch, name, field):
        inst = order_case(name, field)
        decoded = []  # (the box's lower corner, key, vector)
        vector = intersect._Packing.vector

        def spy(box, key):
            decoded.append((box.lo, key, vector(box, key)))
            return decoded[-1][2]

        monkeypatch.setattr(intersect._Packing, "vector", spy)
        rep = kuroda_intersection_basis(inst, 8)
        monkeypatch.undo()
        support = lambda polys: sorted(set().union(*(p.support() for ps in polys.values() for p in ps)))
        betas = (0,) * len(inst.pis)  # the corner of the beta box; the X box reaches below 0
        x_keys = [key for lo, key, _ in decoded if lo != betas]
        assert sorted(v for lo, _, v in decoded if lo != betas) == support(rep.images)
        assert sorted(v for lo, _, v in decoded if lo == betas) == support(rep.bases)
        assert len(decoded) == len({(lo, key) for lo, key, _ in decoded})  # each key once
        # every key a constraint holds has a negative exponent; none is decoded
        images, _, box = intersect._pi_monomial_images(inst, 8)
        constrained = {e for img in images.values() for e in img if min(box.vector(e)) < 0}
        assert constrained and constrained.isdisjoint(x_keys)


def reference_x_image(row, images, fld):
    """X-image of the pi-combination ``row``, summed one row at a time.

    The images have integer coefficients and the entries are put over their
    common denominator D (1 over F_p), so every X-coefficient is one integer
    sum s: ``Fraction(s, D)`` over Q, ``s mod p`` over F_p.
    """
    big = lcm(*(c.denominator for c in row.values()))
    sums = {}
    for beta, c in row.items():
        m = c.numerator * (big // c.denominator)
        for e, v in images[beta].items():
            sums[e] = sums.get(e, 0) + m * v
    if fld == QQ:
        return {e: Fraction(s, big) for e, s in sums.items() if s}
    return {e: r for e, s in sums.items() if (r := s % fld)}


def reference_certified_images(bases, images, fld, negative):
    """Every row's X-image by ``reference_x_image``, or None if one has a
    key in ``negative``."""
    out = {d: [reference_x_image(row, images, fld) for row in rows] for d, rows in bases.items()}
    if any(not negative.isdisjoint(img) for imgs in out.values() for img in imgs):
        return None
    return out


def assert_same_images(got, expected, fld):
    assert got == expected
    if got is not None:
        assert all(canonical(fld, c) for imgs in got.values() for img in imgs for c in img.values())


IMAGE_FIELDS = (QQ, 2, 3, 5, 32003)


@st.composite
def image_cases(draw, poisoned):
    """(bases, images, field, negative) for ``_certified_images``.

    Pi-monomials 2i and 2i + 1 share their one negative key -(i + 1), with
    one coefficient; every other image key is >= 0.  A row takes pairs as
    lam * (beta_2i - beta_2i+1), whose images cancel at -(i + 1) (over F_p
    only mod p: the entries are reduced), plus any images without a negative
    key.  Coefficients and numerators reach 2^80, denominators 2^71, so the
    slots are wider than 64 bits.  A poisoned case drops one pair's partner
    from one row, which leaves lam * c != 0 at -(i + 1).
    """
    fld = draw(st.sampled_from(IMAGE_FIELDS))
    p = 0 if fld == QQ else fld
    coeff = st.one_of(st.integers(-9, 9), st.integers(2 ** 70, 2 ** 80), st.integers(-2 ** 80, -2 ** 70))
    coeff = coeff.filter(lambda c: c % p if p else c)
    dens = st.one_of(st.just(1), st.integers(1, 12), st.integers(2 ** 70, 2 ** 71))
    entry = lambda lam, den: lam % p if p else Fraction(lam, den)
    pairs, plain = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    images = {}
    for i in range(pairs):
        low = draw(coeff)
        for b in (2 * i, 2 * i + 1):
            images[b] = {**draw(st.dictionaries(st.integers(0, 6), coeff, max_size=4)), -(i + 1): low}
    for b in range(2 * pairs, 2 * pairs + plain):
        images[b] = draw(st.dictionaries(st.integers(0, 6), coeff, min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = {}
        for i in draw(st.sets(st.integers(0, pairs - 1))) or {0}:
            lam, den = draw(coeff), draw(dens)
            row[2 * i], row[2 * i + 1] = entry(lam, den), entry(-lam, den)
        for b in range(2 * pairs, 2 * pairs + plain):
            if draw(st.booleans()):
                row[b] = entry(draw(coeff), draw(dens))
        rows.append(row)
    if poisoned:
        row, i = rows[draw(st.integers(0, len(rows) - 1))], draw(st.integers(0, pairs - 1))
        if 2 * i in row:
            del row[2 * i + 1]
        else:
            row[2 * i] = entry(draw(coeff), draw(dens))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=2, max_size=2)))
    bases = {0: rows[:cuts[0]], 1: rows[cuts[0]:cuts[1]], 2: rows[cuts[1]:]}
    return bases, images, fld, {-(i + 1) for i in range(pairs)}


class TestCertifiedImages:
    """``_certified_images`` packs a degree's rows into one integer per
    pi-monomial; the per-row exact sum is its oracle."""

    @settings(max_examples=50, deadline=None)
    @given(image_cases(poisoned=False))
    def test_matches_the_per_row_sums(self, case):
        expected = reference_certified_images(*case)
        assert expected is not None
        assert_same_images(intersect._certified_images(*case), expected, case[2])

    @settings(max_examples=30, deadline=None)
    @given(image_cases(poisoned=True))
    def test_one_row_left_at_a_negative_key_gives_none(self, case):
        assert reference_certified_images(*case) is None
        assert intersect._certified_images(*case) is None

    @pytest.mark.parametrize("field, prime", [(QQ, None), (QQ, 3), (2, None), (3, None), (32003, None)],
                             ids=["Q", "Q-P3", "F2", "F3", "F32003"])
    @pytest.mark.parametrize("case", [0, 1, len(DIFFERENTIAL_CASES) - 1], ids=["OFF3", "ONES", "n3"])
    def test_matches_the_per_row_sums_on_pi_engine_inputs(self, monkeypatch, case, field, prime):
        inst, dmax = DIFFERENTIAL_CASES[case]
        inst = build_instance(inst.n, inst.gamma, [list(r) for r in inst.delta], field)
        calls = []
        certified = intersect._certified_images

        def spy(bases, images, fld, negative):
            out = certified(bases, images, fld, negative)
            calls.append((out, reference_certified_images(bases, images, fld, negative), fld))
            return out

        monkeypatch.setattr(intersect, "_certified_images", spy)
        if prime is not None:
            monkeypatch.setattr(linalg, "P", prime)
        kuroda_intersection_basis(inst, dmax)
        for got, expected, fld in calls:
            assert_same_images(got, expected, fld)
        # mod 3 some lift of OFF3 is wrong, and only its X-image shows it
        assert [got is None for got, _, _ in calls] == [True, False] if (case, prime) == (0, 3) else [False]


def reference_times(f, g, p):
    """The plain double loop over both factors: exact if p is 0, else mod p."""
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: r for k, c in out.items() if (r := c % p if p else c)}


packed_terms = st.dictionaries(st.integers(-20, 20), st.integers(-50, 50).filter(bool), max_size=6)


@st.composite
def packed_factors(draw):
    """Two factors of 0-5 terms over Q, F_2, F_5 or F_32003, with exponents in
    [-2, 2]^2 and coefficients in the field's form.  The second is often the
    first, or the first with one sign flipped, so that terms cancel, as in
    (x + y)^2 mod 2 and (x - y)(x + y)."""
    field = draw(st.sampled_from([QQ, 2, 5, 32003]))
    if field == QQ:
        coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    else:
        coeff = st.integers(1, field - 1)
    terms = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeff, max_size=5)
    f = draw(terms)
    twin = dict(f)
    if f and draw(st.booleans()):
        e = next(iter(f))
        twin[e] = -twin[e] if field == QQ else field - twin[e]
    return field, f, draw(st.one_of(terms, st.just(twin)))


def naive_product(f, g, field):
    """The product on tuple exponent keys, reduced once at the end."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: r for e, c in out.items() if (r := c if field == QQ else c % field)}


class TestTimes:
    @settings(max_examples=100, deadline=None)
    @given(packed_factors())
    @example((QQ, {(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 1})).via("(x - y)(x + y)")
    @example((2, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1})).via("(x + y)^2 mod 2")
    def test_matches_the_naive_product_on_tuple_keys(self, case):
        field, f, g = case
        box = intersect._Packing((-4, -4), (4, 4))
        pf, pg = box.pack(f), box.pack(g)
        before = (dict(pf), dict(pg))
        p = 0 if field == QQ else field
        out = intersect._times(pf, pg, p)
        assert {box.vector(k): c for k, c in out.items()} == naive_product(f, g, field)
        assert intersect._times(pg, pf, p) == out
        assert all(out.values())
        assert p == 0 or all(0 <= c < p for c in out.values())
        assert (pf, pg) == before

    @settings(max_examples=100, deadline=None)
    @given(packed_terms, packed_terms, st.sampled_from([0, 2, 3, 5, 32003]))
    def test_matches_the_double_loop_in_both_orders(self, f, g, p):
        expected = reference_times(f, g, p)
        assert intersect._times(f, g, p) == expected
        assert intersect._times(g, f, p) == expected

    @pytest.mark.parametrize("p", [0, 3])
    def test_an_empty_factor_gives_the_empty_product(self, p):
        assert intersect._times({}, {1: 2}, p) == intersect._times({1: 2}, {}, p) == intersect._times({}, {}, p) == {}

    def test_cancelled_terms_are_dropped(self):
        # x = key 1, y = key 10: (x - y)(x + y) = x^2 - y^2, and mod 2 the
        # term x^2 + y^2 is left of (x + y)^2
        f, g = {1: 1, 10: -1}, {1: 1, 10: 1}
        assert intersect._times(f, g, 0) == {2: 1, 20: -1}
        assert intersect._times(g, g, 2) == {2: 1, 20: 1}


def seeded_generator(rng, field=QQ):
    """A combination of one to three monomials in three variables of one
    weighted degree 1-3 under the weights (1, 1, 2), with integer and
    fractional coefficients."""
    deg = rng.randint(1, 3)
    monos = [e for e in itertools.product(range(deg + 1), repeat=3) if e[0] + e[1] + 2 * e[2] == deg]
    support = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
    coeffs = [1, -1, 2, 3, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)]
    return LaurentPoly(3, field, {e: rng.choice(coeffs) for e in support})


def seeded_graded(count, seed):
    """Seeded generator sets (see ``seeded_generator``).  B shares A's first
    generator, so the intersections are not all zero."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens_a = [seeded_generator(rng) for _ in range(rng.randint(2, 3))]
        gens_b = [gens_a[0]] + [seeded_generator(rng) for _ in range(rng.randint(1, 2))]
        out.append((gens_a, gens_b, (1, 1, 2), 7))
    return out


def monomial_algebra_case():
    m = lambda e: LaurentPoly.monomial(2, e)
    gens = [m((1, 1)), m((2, 0)), m((0, 2))]
    return gens, gens, (1, 1), 10


def fractional_case():
    # B has fractional coefficients; the intersection is spanned by the
    # powers of B's third generator, with fractional RREF entries (-4/9, 4/81)
    gens_a, gens_b = pairwise_products_data(QQ)
    x = mono((0, 0, 0, 1))
    gens_b = [x - Fraction(1, 3) * mono((2, 0, 0, 0)), x - Fraction(5, 2) * mono((0, 2, 0, 0)),
              Fraction(2, 3) * mono((1, 1, 0, 0)) - 3 * mono((0, 1, 1, 0))]
    return gens_a, gens_b, WEIGHTS, 8


def wrong_lift_cases():
    # pivots are the smallest exponent keys, so d, c, b come first; the
    # spans' RREFs have entries 0 and +-1 only and lift correctly mod 3, but
    # their intersection d + c + 2b does not (2 lifts to -1), and d + c - b
    # lies in span(d, c, b) but in neither span of the other side
    a, b, c, d = (LaurentPoly.variable(4, i) for i in range(4))
    side = [d + b + a, c + b - a]
    return [([d + b, c + b], side, (1, 1, 1, 1), 3), ([d, c, b], side, (1, 1, 1, 1), 3),
            (side, [d, c, b], (1, 1, 1, 1), 3)]


GRADED_CASES = (
    [(*pairwise_products_data(QQ), WEIGHTS, 10), monomial_algebra_case(), fractional_case()]
    + wrong_lift_cases() + seeded_graded(5, 15)
)


def graded_contents(bases):
    """Every basis of the graded engine, with coefficients and their text."""
    return {d: [(b.terms, b.to_text()) for b in bs] for d, bs in bases.items()}


def slice_sizes(gens, weights, dmax):
    """Degree d <= dmax -> (the number of products of ``gens`` of degree d,
    the rank of their span), by one SparseRREF per degree over Q."""
    degs = intersect._validate_gens("A", gens, weights)
    table, degree = intersect._product_table(gens, degs, dmax, intersect._Packing.around(gens, dmax), QQ)
    spans = {d: SparseRREF(QQ) for d in range(dmax + 1)}
    for beta, terms in table.items():
        spans[degree[beta]].add({k: coeff_of(QQ, c) for k, c in terms.items()})
    count = Counter(degree.values())
    return {d: (count[d], span.rank) for d, span in spans.items()}


def count_intersections(monkeypatch):
    """Wrap the exact elimination of ``span_intersection``; the list collects
    the field of each call."""
    calls = []
    full = linalg._intersection

    def counted(rows_a, rows_b, field):
        calls.append(field)
        return full(rows_a, rows_b, field)

    monkeypatch.setattr(linalg, "_intersection", counted)
    return calls


class TestGradedIndependenceCertificate:
    """Over Q, span_intersection proves a zero intersection by independence
    mod P and otherwise eliminates exactly in Fractions; the oracle is the
    run with the certificate switched off."""

    def exact_path(self, monkeypatch, case):
        with monkeypatch.context() as m:
            m.setattr(linalg, "independent_echelon", lambda rows, field: False)
            calls = count_intersections(m)
            bases = graded_intersection(*case)
        # the switch must reach span_intersection: every degree is eliminated
        assert len(calls) == case[3] + 1
        return bases

    def test_cases_have_dropped_rows_and_intersections(self, monkeypatch):
        # both outcomes of the certificate are exercised by the cases below
        results = [self.exact_path(monkeypatch, case) for case in GRADED_CASES]
        assert sum(any(bs for d, bs in bases.items() if d) for bases in results) >= 4
        assert any(rank < count for gens_a, _, weights, dmax in GRADED_CASES
                   for count, rank in slice_sizes(gens_a, weights, dmax).values())

    @pytest.mark.parametrize("prime", [linalg.P, 3, 5])
    @pytest.mark.parametrize("case", range(len(GRADED_CASES)))
    def test_certificate_matches_the_exact_path(self, monkeypatch, case, prime):
        expected = graded_contents(self.exact_path(monkeypatch, GRADED_CASES[case]))
        monkeypatch.setattr(linalg, "P", prime)
        bases = graded_intersection(*GRADED_CASES[case])
        assert graded_contents(bases) == expected
        for bs in bases.values():
            for b in bs:
                assert canonical_poly(b)

    def test_the_intersections_lift_nothing(self, monkeypatch):
        # neither the certificate nor the generator count lifts a row
        def no_lift(rows):
            raise AssertionError("graded_intersection lifted a row")

        monkeypatch.setattr(linalg, "lift", no_lift)
        for case in GRADED_CASES:
            graded_intersection(*case)

    def test_l215_eliminates_only_degree_0(self, monkeypatch):
        # the certificate proves every positive degree zero; degree 0 is one
        # constant against one constant
        calls = count_intersections(monkeypatch)
        dmax = intersect.GRADED_MAX_DEGREE
        bases = graded_intersection(*pairwise_products_data(QQ), WEIGHTS, dmax)
        assert calls == [QQ]
        assert len(bases[0]) == 1 and not any(bases[d] for d in range(1, dmax + 1))

    def test_denominator_divisible_by_p_is_eliminated_exactly(self, monkeypatch):
        monkeypatch.setattr(linalg, "P", 3)
        calls = count_intersections(monkeypatch)
        rows_a = [{(1, 0): Fraction(1, 3)}, {(0, 1): 1}]
        rows_b = [{(1, 0): 1, (0, 1): Fraction(2, 9)}]
        assert linalg.independent_echelon(rows_a + rows_b, QQ) is False
        assert linalg.span_intersection(rows_a, rows_b, QQ) == [{(0, 1): 1, (1, 0): Fraction(9, 2)}]
        assert calls == [QQ]


def reference_pi_images(inst, dmax):
    """The pi-monomial images as built by ``LaurentPoly`` products over the
    instance's own field, each the image of beta - e_i times pi_i."""
    k = len(inst.pis)
    images = {(0,) * k: LaurentPoly.constant(inst.n, 1, inst.field)}
    for d in range(1, dmax + 1):
        for beta in itertools.product(range(d + 1), repeat=k):
            if sum(beta) != d:
                continue
            i = next(j for j in range(k) if beta[j])
            prev = list(beta)
            prev[i] -= 1
            images[beta] = images[tuple(prev)] * inst.pis[i]
    return images


def decoded_table(table, k, dmax, box, n, field):
    """A packed product table as {beta: LaurentPoly}, keys and terms decoded."""
    betas = intersect._Packing((0,) * k, (dmax,) * k)
    return {betas.vector(b): LaurentPoly._trusted(n, field, {box.vector(k): c for k, c in t.items()})
            for b, t in table.items()}


@st.composite
def box_and_vectors(draw, count):
    """A box lo <= e <= hi in one to five dimensions, with negative lows and
    one-point axes, and ``count`` vectors in it."""
    axes = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 5)), min_size=1, max_size=5))
    lo, hi = [a for a, _ in axes], [a + w for a, w in axes]
    vecs = [tuple(draw(st.integers(a, b)) for a, b in zip(lo, hi)) for _ in range(count)]
    return intersect._Packing(lo, hi), lo, hi, vecs


class TestPacking:
    @given(box_and_vectors(1))
    def test_decoding_a_key_returns_its_vector(self, case):
        box, _, _, (e,) = case
        assert box.vector(box.key(e)) == e
        assert box.polys({0: [box.pack({e: 7})]}, len(e), QQ) == {0: [LaurentPoly.monomial(len(e), e, 7)]}

    @given(st.lists(st.tuples(st.integers(-6, 0), st.integers(0, 6)), min_size=1, max_size=4), st.data())
    def test_negative_reads_the_digits_as_the_decoded_vector_does(self, axes, data):
        # lo <= 0 <= hi on every axis, as in every box of ``_Packing.around``
        lo, hi = [a for a, _ in axes], [b for _, b in axes]
        box = intersect._Packing(lo, hi)
        for _ in range(8):
            e = tuple(data.draw(st.integers(a, b)) for a, b in zip(lo, hi))
            assert box.negative(box.key(e)) == (min(box.vector(box.key(e))) < 0) == (min(e) < 0)

    @given(box_and_vectors(2))
    def test_key_order_is_tuple_order(self, case):
        box, _, _, (e, f) = case
        assert (box.key(e) < box.key(f)) == (e < f)
        assert (box.key(e) == box.key(f)) == (e == f)

    @given(box_and_vectors(1), st.data())
    def test_keys_add_without_carry_inside_the_box(self, case, data):
        box, lo, hi, (a,) = case
        b = tuple(data.draw(st.integers(x - y, z - y)) for x, y, z in zip(lo, a, hi))
        s = tuple(map(sum, zip(a, b)))
        assert box.key(a) + box.key(b) == box.key(s)
        assert box.vector(box.key(a) + box.key(b)) == s

    def test_laurent_products_reach_both_corners_at_degree_dmax(self):
        # g is homogeneous of degree 1 for the weights (1, -1); g^dmax holds
        # the corners dmax * (-1, -2) and dmax * (2, 1) of the proved box
        x = lambda e, c=1: LaurentPoly.monomial(2, e, c)
        gens = [x((-1, -2)) + x((2, 1), 3), x((1, 0), -2)]
        weights, dmax = (1, -1), 7
        degs = intersect._validate_gens("A", gens, weights)
        box = intersect._Packing.around(gens, dmax)
        assert (box.lo, box.vector(box.key((2 * dmax, dmax)))) == ((-dmax, -2 * dmax), (2 * dmax, dmax))
        table, degree = intersect._product_table(gens, degs, dmax, box, QQ)
        decoded = decoded_table(table, 2, dmax, box, 2, QQ)
        for beta, poly in decoded.items():
            assert poly == gens[0] ** beta[0] * gens[1] ** beta[1]
        top = decoded[(dmax, 0)]
        assert {(-dmax, -2 * dmax), (2 * dmax, dmax)} <= top.support()
        keys = {k for terms in table.values() for k in terms}
        assert (min(keys), max(keys)) == (box.key(box.lo), box.key((2 * dmax, dmax)))
        bases = graded_intersection(gens, gens, weights, dmax)
        assert {d: len(bs) for d, bs in bases.items()} == {d: d + 1 for d in range(dmax + 1)}
        assert minimal_generator_degrees(bases) == oracle_new_generators(bases) == [(1, 2)]
        assert {(-dmax, -2 * dmax), (2 * dmax, dmax)} <= set().union(*(b.support() for b in bases[dmax]))

    @pytest.mark.parametrize("field", [2, 5], ids=["F2", "F5"])
    @pytest.mark.parametrize("case", ["OFF3", "n3-linked", "l2.15-B"])
    def test_tables_over_small_primes_are_the_laurent_power_products(self, case, field):
        # terms cancel mod p while the table is built: (x - a^2)^2 = x^2 + a^4
        # mod 2 and (x - a^2)^5 = x^5 - a^10 mod 5, so each table holds fewer
        # terms than over Q
        def table(fld):
            if case == "l2.15-B":
                gens, dmax = pairwise_products_data(fld)[1], 12
                degs = intersect._validate_gens("B", gens, WEIGHTS)
                box = intersect._Packing.around(gens, dmax)
                return gens, degs, dmax, box, intersect._product_table(gens, degs, dmax, box, fld)[0]
            gamma, delta = (1, OFF3_DELTA) if case == "OFF3" else N3_LINKED
            inst = build_instance(4 if case == "OFF3" else 3, gamma, [list(r) for r in delta], fld)
            images, _, box = intersect._pi_monomial_images(inst, 6)
            return inst.pis, (1,) * len(inst.pis), 6, box, images

        gens, degs, dmax, box, packed = table(field)
        decoded = decoded_table(packed, len(gens), dmax, box, gens[0].n, field)
        one = LaurentPoly.constant(gens[0].n, 1, field)
        expected = {
            beta: functools.reduce(mul, (g ** b for g, b in zip(gens, beta)), one)
            for beta in itertools.product(range(dmax + 1), repeat=len(gens))
            if sum(map(mul, beta, degs)) <= dmax
        }
        assert decoded == expected
        assert all(0 < c < field for terms in packed.values() for c in terms.values())
        size = lambda t: sum(map(len, t.values()))
        assert size(packed) < size(table(QQ)[4])

    @pytest.mark.parametrize("field", [QQ, 32003])
    def test_count_products_leave_the_box_of_single_basis_elements(self, field):
        # the basis spans only [0, 1]^2, where (0, 2) and (1, 0) would share a
        # key; y^2 is tried at degree 2, so the count needs the wider box
        x, y = (LaurentPoly.variable(2, i, field) for i in range(2))
        bases = {0: [LaurentPoly.constant(2, 1, field)], 1: [y], 2: [x]}
        assert minimal_generator_degrees(bases) == oracle_new_generators(bases) == [(1, 1), (2, 1)]


class TestProductTable:
    @pytest.mark.parametrize("field", [QQ, 5, 32003])
    @pytest.mark.parametrize("seed", range(6))
    def test_one_entry_per_exponent_equal_to_power_product(self, field, seed):
        # two to four generators of degree 1-3, so degrees repeat; a
        # coefficient 5/3 vanishes over F_5
        rng = random.Random(seed)
        gens = [g for g in (seeded_generator(rng, field) for _ in range(rng.randint(2, 4))) if g.terms]
        degs = intersect._validate_gens("A", gens, (1, 1, 2))
        dmax = 6
        box = intersect._Packing.around(gens, dmax)
        table, _ = intersect._product_table(gens, degs, dmax, box, field)
        table = decoded_table(table, len(gens), dmax, box, 3, field)
        expected = {}
        for beta in itertools.product(range(dmax + 1), repeat=len(gens)):
            if sum(map(mul, beta, degs)) <= dmax:
                prod = LaurentPoly.constant(3, 1, field)
                for g, b in zip(gens, beta):
                    prod = prod * g ** b
                expected[beta] = prod
        assert table.keys() == expected.keys()
        assert all(table[beta] == expected[beta] for beta in expected)

    def test_no_generators(self):
        box = intersect._Packing((0, 0), (0, 0))
        table, _ = intersect._product_table([], [], 4, box, QQ)
        assert decoded_table(table, 0, 4, box, 2, QQ) == {(): LaurentPoly.constant(2, 1)}

    @pytest.mark.parametrize("inst", [ONES, OFF3, build_instance(3, 2, [[1, 2], [3, 1]])])
    def test_pi_images_are_the_integer_products(self, inst):
        images, _, box = intersect._pi_monomial_images(inst, 6)
        images = decoded_table(images, len(inst.pis), 6, box, inst.n, inst.field)
        reference = reference_pi_images(inst, 6)
        assert images == reference
        assert all(type(c) is int for img in images.values() for c in img.terms.values())
        assert all(type(c) is int for img in reference.values() for c in img.terms.values())

    def test_non_integral_pi_raises(self):
        halved = dataclasses.replace(OFF3, pis=(OFF3.pis[0] * Fraction(1, 2),) + OFF3.pis[1:])
        with pytest.raises(PreconditionError, match="non-integral coefficient"):
            kuroda_intersection_basis(halved, 2)
        with pytest.raises(PreconditionError, match="non-integral"):
            no_monomial_units_check(halved, 2)


class TestFreenessCosetCheck:
    def test_standard_instances(self):
        assert freeness_coset_check(ONES, 5)
        assert freeness_coset_check(OFF3, 5)

    def test_n3_instance(self):
        assert freeness_coset_check(build_instance(3, 1, [[3, 1], [1, 1]]), 4)

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError, match=r"^exponent matrix is singular$"):
            freeness_coset_check(build_instance(3, 1, [[1, 1], [1, 1]]), 2)

    @pytest.mark.parametrize("bound", [-1, 2.5, True])
    def test_box_bound_must_be_a_nonnegative_int(self, bound):
        # -1 was an empty box and a vacuous pass, 2.5 a bare TypeError
        with pytest.raises(UsageError, match="nonnegative integer"):
            freeness_coset_check(ONES, bound)

    @pytest.mark.parametrize("bound", [19, 10**6])
    def test_box_past_the_enumeration_budget_is_refused_up_front(self, monkeypatch, bound):
        # 39^4 > 2 * 10^6 points; the refusal comes before the coset decomposition
        queries = []
        monkeypatch.setattr(intersect, "coset_decomposition", lambda *args: queries.append(args))
        start = time.perf_counter()
        with pytest.raises(UsageError, match="freeness box has [0-9]+ lattice points.*enumeration budget"):
            freeness_coset_check(OFF3, bound)
        assert time.perf_counter() - start < 0.5 and not queries


class TestFreenessCertificate:
    """The certificate on all of Z^n against the box sweep as the oracle."""

    def test_agrees_with_the_sweep_on_every_n3_table(self):
        checked = 0
        for flat in itertools.product(range(1, 4), repeat=4):
            inst = build_instance(3, 1, [list(flat[:2]), list(flat[2:])])
            if inst.det_t:
                assert freeness_certificate(inst) == freeness_coset_check(inst, 2)
                checked += 1
        assert checked == 66

    def test_agrees_with_the_sweep_on_seeded_n4_tables(self):
        rng = random.Random(13)
        checked = 0
        while checked < 30:
            delta = [[rng.randint(1, 4) for _ in range(3)] for _ in range(3)]
            inst = build_instance(4, rng.choice((1, 2)), delta)
            if inst.det_t:
                assert freeness_certificate(inst) == freeness_coset_check(inst, 2)
                checked += 1

    @pytest.mark.parametrize("n, delta", [(3, [[1, 1], [1, 1]]), (4, [[2, 1, 1], [1, 2, 1], [1, 1, 2]])])
    def test_singular_tables_rejected_by_both(self, n, delta):
        inst = build_instance(n, 1, delta)
        with pytest.raises(PreconditionError, match=r"^exponent matrix is singular$"):
            freeness_certificate(inst)
        with pytest.raises(PreconditionError, match=r"^exponent matrix is singular$"):
            freeness_coset_check(inst, 1)

    def test_certifies_the_smith_form_of_h(self, monkeypatch):
        seen = []
        monkeypatch.setattr(intersect, "smith_certificate", lambda m, sf: seen.append((m, sf)) or False)
        assert not freeness_certificate(OFF3)
        [(m, sf)] = seen
        assert m.entries == ((-1, 3, 3, 0), (3, -1, 3, 0), (3, 3, -1, 0), (0, 0, 0, 1))
        assert sf.invariants == (1, 1, 4, 20)


class TestNoMonomialUnits:
    def test_standard_instances(self):
        assert no_monomial_units_check(ONES, 4)
        assert no_monomial_units_check(OFF3, 4)

    @pytest.mark.parametrize("table, expected", [
        # x^5 = (x^5 + x^7) - x^7 lies in the span, though no image is a monomial
        ({0: {0: 1}, 1: {5: 1, 7: 1}, 2: {7: 1}}, False),
        ({0: {0: 1}, 1: {5: 1, 7: -1}, 2: {5: 2, 7: 3}}, False),
        # the constant is the only monomial of these spans
        ({0: {0: 1}, 1: {5: 1, 7: 1}, 2: {6: 1, 7: 1}}, True),
        ({0: {0: 1}, 1: {5: 1, 7: 1}, 2: {5: 2, 7: 2}}, True),
    ])
    def test_synthetic_control(self, monkeypatch, table, expected):
        monkeypatch.setattr(intersect, "_pi_monomial_images", lambda inst, dmax: (table, None, None))
        assert no_monomial_units_check(ONES, 4) is expected

    @given(
        st.sampled_from([QQ, 2, 3, 5, 32003]),
        st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=4), max_size=5),
    )
    def test_a_monomial_is_in_the_span_iff_a_row_equals_it(self, field, rows):
        span = SparseRREF(field)
        for row in rows:
            span.add({k: c for k, x in row.items() if (c := coeff_of(field, x))})
        one = coeff_of(field, 1)
        for e in range(6):
            assert span.contains({e: one}) == (span.rows.get(e) == {e: one})

    def test_degree_cap(self):
        with pytest.raises(UsageError):
            no_monomial_units_check(ONES, 9)


def monomial_units_oracle(inst, dmax):
    """The units check read off monomial by monomial: no X^e, e a nonconstant
    key of the images' supports, reduces to zero against the RREF over the
    instance's field of the X-substituted pi-monomials.  A monomial outside
    every support is outside their span."""
    images = intersect._pi_monomial_images(inst, dmax)[0].values()
    span = SparseRREF(inst.field)
    for img in images:
        span.add(img)
    one = coeff_of(inst.field, 1)
    return all(span.reduce({e: one}) for e in set().union(*images) if e)


def field_path_units(inst, dmax):
    """The units check read off its definition with the images in the
    product table's order: the RREF over the instance's field of the
    X-substituted pi-monomials has no one-term row off key 0."""
    span = SparseRREF(inst.field)
    for img in intersect._pi_monomial_images(inst, dmax)[0].values():
        span.add(img)
    return not any(k and len(row) == 1 for k, row in span.rows.items())


def count_units_eliminations(monkeypatch):
    """One entry, the field, per elimination that ``no_monomial_units_check``
    runs."""
    calls = []

    def counted(field):
        calls.append(field)
        return SparseRREF(field)

    monkeypatch.setattr(intersect, "SparseRREF", counted)
    return calls


UNITS_CASES = DIFFERENTIAL_CASES + [(inst, 6) for inst in seeded_n4(3, 99, star=True)]
F5_TABLES = [
    ({0: {0: 1}, 1: {5: 1, 7: 1}, 2: {7: 1}}, False),
    ({0: {0: 1}, 1: {5: 1, 7: 4}, 2: {5: 2, 7: 1}}, False),  # (2, 1) - 2 (1, 4) = (0, 3) mod 5
    ({0: {0: 1}, 1: {5: 1, 7: 1}, 2: {6: 1, 7: 1}}, True),
]
STAR_TABLES = [build_instance(4, 1, [list(r) for r in t]) for t in delta_box(4, 3) if condition_holds(t)]


class TestUnitsCertificate:
    """One RREF in the instance's field decides the check; the monomial
    read-off is its oracle."""

    @pytest.mark.parametrize("case", range(len(UNITS_CASES)))
    def test_agrees_with_the_monomial_read_off(self, case):
        inst, dmax = UNITS_CASES[case]
        assert no_monomial_units_check(inst, dmax) is monomial_units_oracle(inst, dmax)

    @pytest.mark.parametrize("prime", [linalg.P, 3, 5])
    @pytest.mark.parametrize("case", range(len(UNITS_CASES)))
    def test_agrees_with_the_field_path(self, monkeypatch, case, prime):
        # the check eliminates in packed-key order, the field path in the
        # product table's: the RREF is the same, and no prime is read
        inst, dmax = UNITS_CASES[case]
        expected = field_path_units(inst, dmax)
        monkeypatch.setattr(linalg, "P", prime)
        assert no_monomial_units_check(inst, dmax) is expected

    @pytest.mark.parametrize("prime", [linalg.P, 3, 5])
    @pytest.mark.parametrize("table, expected", [
        ({0: {0: 1}, 1: {5: 1, 7: 1}, 2: {7: 1}}, False),
        ({0: {0: 1}, 1: {5: 1, 7: -1}, 2: {5: 2, 7: 3}}, False),
        ({0: {0: 1}, 1: {5: 1, 7: 1}, 2: {6: 1, 7: 1}}, True),
    ])
    def test_synthetic_control(self, monkeypatch, prime, table, expected):
        # one elimination over Q whatever the prime, a monomial in the span
        # or not
        monkeypatch.setattr(intersect, "_pi_monomial_images", lambda inst, dmax: (table, None, None))
        monkeypatch.setattr(linalg, "P", prime)
        eliminations = count_units_eliminations(monkeypatch)
        assert no_monomial_units_check(ONES, 4) is expected
        assert eliminations == [QQ]

    def test_one_elimination_over_q_on_the_star_tables(self):
        assert len(STAR_TABLES) == 58 and all(inst.det_t for inst in STAR_TABLES)
        cases = [(inst, dmax) for dmax in (4, 8) for inst in STAR_TABLES]
        expected = [monomial_units_oracle(inst, dmax) for inst, dmax in cases]
        with pytest.MonkeyPatch.context() as m:
            eliminations = count_units_eliminations(m)
            assert [no_monomial_units_check(inst, dmax) for inst, dmax in cases] == expected
        assert all(expected) and eliminations == [QQ] * 116

    @pytest.mark.parametrize("table, expected", F5_TABLES)
    def test_synthetic_control_over_f5(self, monkeypatch, table, expected):
        monkeypatch.setattr(intersect, "_pi_monomial_images", lambda inst, dmax: (table, None, None))
        eliminations = count_units_eliminations(monkeypatch)
        assert no_monomial_units_check(build_instance(4, 1, ONES_DELTA, 5), 4) is expected
        assert eliminations == [5]

    @pytest.mark.parametrize("table, expected", F5_TABLES)
    def test_one_elimination_over_f5(self, monkeypatch, table, expected):
        # over F_p the span's RREF decides the check: one SparseRREF, in
        # the field, whichever module builds it
        monkeypatch.setattr(intersect, "_pi_monomial_images", lambda inst, dmax: (table, None, None))
        built = []

        class Counted(SparseRREF):
            def __init__(self, field):
                built.append(field)
                super().__init__(field)

        monkeypatch.setattr(linalg, "SparseRREF", Counted)
        monkeypatch.setattr(intersect, "SparseRREF", Counted)
        assert no_monomial_units_check(build_instance(4, 1, ONES_DELTA, 5), 4) is expected
        assert built == [5]

    @pytest.mark.parametrize("field", [5, 32003])
    def test_prime_field_elimination_agrees_with_the_field_path(self, monkeypatch, field):
        deltas = [OFF3_DELTA, ONES_DELTA] + [[list(r) for r in inst.delta] for inst in STAR_TABLES[::6]]
        cases = [(build_instance(4, 1, delta, field), dmax) for delta in deltas for dmax in (4, 6)]
        expected = [monomial_units_oracle(inst, dmax) for inst, dmax in cases]
        eliminations = count_units_eliminations(monkeypatch)
        assert [no_monomial_units_check(inst, dmax) for inst, dmax in cases] == expected
        assert eliminations == [field] * len(cases)


@pytest.mark.parametrize("dmax", [True, 2.5])
@pytest.mark.parametrize(
    "entry",
    [
        lambda dmax: kuroda_intersection_basis(OFF3, dmax),
        lambda dmax: graded_intersection(*pairwise_products_data(QQ), WEIGHTS, dmax),
        lambda dmax: no_monomial_units_check(OFF3, dmax),
    ],
    ids=["kuroda_intersection_basis", "graded_intersection", "no_monomial_units_check"],
)
def test_degree_bound_must_be_an_int(entry, dmax):
    with pytest.raises(UsageError, match="nonnegative integer"):
        entry(dmax)


def exponent_vectors(labels, bound):
    """Every exponent vector over ``labels`` (all >= 1) of weighted sum <= bound."""
    if not labels:
        yield ()
        return
    for b in range(bound // labels[0] + 1):
        for rest in exponent_vectors(labels[1:], bound - b * labels[0]):
            yield (b,) + rest


def oracle_new_generators(bases):
    """New-generator counts from scratch: at each degree d, the span of every
    product of the generators chosen so far of label <= d (constant 1
    included), then the basis elements of degree d outside it, chosen in
    order."""
    field = bases[0][0].field
    one = LaurentPoly.constant(bases[0][0].n, 1, field)
    chosen = []  # (label, poly)
    out = []
    for d in sorted(bases):
        span = SparseRREF(field)
        labels = [label for label, _ in chosen]
        for beta in exponent_vectors(labels, d):
            prod = one
            for (_, g), b in zip(chosen, beta):
                prod = prod * g ** b
            span.add(prod.terms)
        new = 0
        for b in bases[d]:
            if not b.is_constant() and span.add(b.terms) is not None:
                new += 1
                chosen.append((d, b))
        if new:
            out.append((d, new))
    return out


def monomial_algebra(dmax):
    m = lambda e: LaurentPoly.monomial(2, e)
    gens = [m((1, 1)), m((2, 0)), m((0, 2))]
    return graded_intersection(gens, gens, (1, 1), dmax)


def pi_case(inst, dmax):
    """The pi-engine's bases and the count its report carries."""
    rep = kuroda_intersection_basis(inst, dmax)
    return rep.bases, rep.new_generators


def graded_case(gens_a, gens_b, weights, dmax):
    """The graded engine's bases; it carries no count."""
    return graded_intersection(gens_a, gens_b, weights, dmax), None


# name -> a function of no arguments that gives (bases, carried count or None)
ORACLE_CASES = (
    [(f"{name}-{field}", lambda delta=delta, field=field: pi_case(build_instance(4, 1, delta, field), 9))
     for name, delta in (("OFF3", OFF3_DELTA), ("ONES", ONES_DELTA))
     for field in ("Q", "Fp:32003", "Fp:5")]
    + [("monomial-algebra", lambda: (monomial_algebra(10), None)),
       ("l215-char2", lambda: graded_case(*pairwise_products_data(2), WEIGHTS, 8))]
    + [(f"seeded-graded-{i}", lambda case=case: graded_case(*case))
       for i, case in enumerate(seeded_graded(5, 7))]
)


class TestMinimalGeneratorDegrees:
    def test_constants_only_report(self):
        rep = kuroda_intersection_basis(ONES, 4)
        assert minimal_generator_degrees(rep.bases) == []

    def test_off3_nonempty(self):
        rep = kuroda_intersection_basis(OFF3, 6)
        degs = minimal_generator_degrees(rep.bases)
        assert degs and all(d >= 3 for d, _ in degs)

    @pytest.mark.parametrize("build", [b for _, b in ORACLE_CASES], ids=[i for i, _ in ORACLE_CASES])
    def test_agrees_with_all_products_oracle(self, build):
        bases, carried = build()
        expected = oracle_new_generators(bases)
        assert minimal_generator_degrees(bases) == expected
        # the pi-engine's report carries the same count
        assert carried is None or carried == tuple(expected)

    def test_oracle_cases_have_generators(self):
        # every case but ONES has a nonconstant intersection element to count
        for name, build in ORACLE_CASES:
            bases, _ = build()
            assert bool(minimal_generator_degrees(bases)) == (not name.startswith("ONES")), name

    @pytest.mark.parametrize("field", [QQ, 32003])
    def test_off3_paper_signal(self, field):
        rep = kuroda_intersection_basis(build_instance(4, 1, OFF3_DELTA, field), 12)
        assert rep.new_generators == ((3, 1),) + tuple((d, 3) for d in range(4, 13))

    def test_monomial_algebra_generators_in_degree_two_only(self):
        assert minimal_generator_degrees(monomial_algebra(10)) == [(2, 3)]

    def test_the_graded_engine_never_counts(self, monkeypatch):
        # no command reads a graded count; a caller that wants one calls it
        calls = []
        monkeypatch.setattr(intersect, "minimal_generator_degrees", lambda *args: calls.append(args) or [])
        monkeypatch.setattr(intersect, "_generator_degrees", lambda *args: calls.append(args) or [])
        for case in GRADED_CASES:
            graded_intersection(*case)
        assert calls == []
        # the spy bites: the pi-engine's report carries its count
        kuroda_intersection_basis(OFF3, 4)
        assert len(calls) == 1


def rank_drop_case():
    # the degree-1 RREF rows z + x/15 and y + x/15 scale to 15z + x and
    # 15y + x, which vanish mod 3 and mod 5 on the pivots z and y: the rank
    # mod p falls short of dim F_1
    x, y, z = (LaurentPoly.variable(3, i) for i in range(3))
    gens = [x + 15 * y, x + 15 * z]
    return graded_case(gens, gens, (1, 1, 1), 4)


def syzygy_case():
    # w = xy + 15z has the RREF row z + xy/15, which scales to w and vanishes
    # mod 3 and mod 5 on the pivots z, y^2, x^2: the rank mod p falls short
    # of dim F_2
    x, y, z = (LaurentPoly.variable(3, i) for i in range(3))
    gens = [x * x, y * y, x * y + 15 * z]
    return graded_case(gens, gens, (1, 1, 2), 8)


def tried_overcount_case():
    # the degree-4 products c^2 * (b^2 + 3a^2) and (bc)^2 differ by 3a^2c^2,
    # and a^2c^2 is a basis element: on the pivots the two products agree
    # mod 3, so the count mod 3 takes a^2c^2 for a new generator although
    # the products span it over Q
    a, b, c = (LaurentPoly.variable(3, i) for i in range(3))
    gens = [c * c, b * c, b * b + 3 * a * a]
    return graded_case(gens, gens, (1, 1, 1), 4)


def filtered_case():
    # not graded: F_d is spanned by the products of g1 (label 1) and g2
    # (label 2) of label sum <= d, and its basis elements mix degrees, so a
    # certificate functional can vanish on every product tried at d mod 3
    # and not on F_{d-1} over Q
    x, y = (LaurentPoly.variable(2, i) for i in range(2))
    gens, labels, dmax = [x * y + Fraction(1, 3) * y * y + 2, Fraction(1, 5) * y], (1, 2), 5
    one = LaurentPoly.constant(2, 1)
    seen, bases = SparseRREF(QQ), {}
    for d in range(dmax + 1):
        fresh = SparseRREF(QQ)
        for beta in exponent_vectors(labels, d):
            res = seen.reduce((one * gens[0] ** beta[0] * gens[1] ** beta[1]).terms)
            if res:
                fresh.add(res)
        bases[d] = [LaurentPoly._trusted(2, QQ, r) for r in rref_rows(fresh)]
        for b in bases[d]:
            seen.add(b.terms)
    return bases, None


COUNT_CASES = (
    [(name, build) for name, build in ORACLE_CASES if "Fp:" not in name and name != "l215-char2"]
    + [(f"pi-{i}", lambda case=case: pi_case(*case)) for i, case in enumerate(DIFFERENTIAL_CASES)]
    + [(f"graded-{i}", lambda case=case: graded_case(*case)) for i, case in enumerate(GRADED_CASES)]
    + [("rank-drop", rank_drop_case), ("syzygy", syzygy_case), ("tried-overcount", tried_overcount_case),
       ("filtered", filtered_case)]
)
COUNT_IDS = [name for name, _ in COUNT_CASES]


@functools.cache
def count_case(name):
    """The bases of COUNT_CASES and their count by the all-products
    oracle."""
    bases, _ = dict(COUNT_CASES)[name]()
    return bases, oracle_new_generators(bases)


def count_mod(bases, p):
    """The one-pass count mod p on the integer-scaled basis, projected on its
    pivots like every count: a count over Q run mod p, which no check
    corrects."""
    box = intersect._Packing.around([b for bs in bases.values() for b in bs], max(bases) + 1)
    ints = {d: [box.pack(intersect._integer_scaled(b).terms) for b in bs] for d, bs in bases.items()}
    return intersect._generator_degrees(ints, p)


def count_calls(monkeypatch):
    """Every call of ``linalg.residues`` and ``linalg.lift``, by name."""
    calls = []
    for name in ("residues", "lift"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda rows, name=name, original=original:
                            calls.append(name) or original(rows))
    return calls


class TestModularGeneratorCount:
    """Over Q minimal_generator_degrees counts once, exactly, on the integer-
    scaled basis, never mod a prime: the adversarial fixtures defeat the same
    pass mod p.  The all-products oracle and the unprojected pass are its
    oracles."""

    def test_cases_are_over_q_and_the_oracle_agrees(self):
        for name in COUNT_IDS:
            bases, expected = count_case(name)
            assert bases[0][0].field == QQ and expected == reference_generator_degrees(bases), name

    @pytest.mark.parametrize("name", COUNT_IDS)
    def test_real_prime_matches_fraction_path_without_fallback(self, monkeypatch, name):
        # one exact pass over Q: nothing is reduced mod P, lifted or redone
        bases, expected = count_case(name)
        passes, count = [], intersect._generator_degrees
        monkeypatch.setattr(intersect, "_generator_degrees",
                            lambda bases, field: passes.append(field) or count(bases, field))
        calls = count_calls(monkeypatch)
        assert minimal_generator_degrees(bases) == expected
        assert passes == [QQ] and calls == []

    @pytest.mark.parametrize("prime", [3, 5])
    @pytest.mark.parametrize("name", COUNT_IDS)
    def test_tiny_prime_matches_fraction_path(self, monkeypatch, name, prime):
        # the count over Q reads no prime: a count mod 3 or 5 fails the
        # adversarial fixtures (test_fixtures_defeat_a_count_mod_p)
        bases, expected = count_case(name)
        monkeypatch.setattr(linalg, "P", prime)
        assert minimal_generator_degrees(bases) == expected

    @pytest.mark.parametrize(
        "name, prime, expected, modular",
        [
            # a rank short of dim F_1 undercounts
            ("rank-drop", 3, [(1, 2)], []),
            ("rank-drop", 5, [(1, 2)], []),
            # a rank short of dim F_2 undercounts
            ("syzygy", 3, [(2, 3)], [(2, 2)]),
            ("syzygy", 5, [(2, 3)], [(2, 2)]),
            # a basis element of F_{d-1} enters mod p as new at d
            ("filtered", 3, [(1, 1), (2, 1)], [(1, 1), (2, 1), (4, 1)]),
            # products dependent only mod p overcount
            ("tried-overcount", 3, [(2, 3)], [(2, 3), (4, 1)]),
        ],
    )
    def test_fixtures_defeat_a_count_mod_p(self, name, prime, expected, modular):
        bases, oracle = count_case(name)
        assert oracle == expected and count_mod(bases, prime) == modular
        assert minimal_generator_degrees(bases) == expected

    def test_the_pass_reads_the_integer_scaled_basis(self, monkeypatch):
        # the rank-drop basis has the rows z + x/15 and y + x/15: the one
        # pass over Q reads them scaled to 15z + x and 15y + x
        bases, expected = count_case("rank-drop")
        calls = []
        count = intersect._generator_degrees
        monkeypatch.setattr(intersect, "_generator_degrees",
                            lambda bases, field: calls.append((bases, field)) or count(bases, field))
        assert minimal_generator_degrees(bases) == expected
        [(packed, field)] = calls
        assert field == QQ and all(type(c) is int for rows in packed.values() for row in rows for c in row.values())
        assert sorted(packed[1][0].values()) == [1, 15]

    @pytest.mark.parametrize("inst, dmax", [(OFF3, 8), (build_instance(3, 1, [[1, 3], [3, 1]]), 8)],
                             ids=["OFF3-8", "n3-8"])
    def test_count_and_units_check_neither_reduce_nor_lift(self, monkeypatch, inst, dmax):
        rep = kuroda_intersection_basis(inst, dmax)
        assert rep.new_generators
        calls = count_calls(monkeypatch)
        assert minimal_generator_degrees(rep.bases) == list(rep.new_generators)
        assert no_monomial_units_check(inst, dmax) is monomial_units_oracle(inst, dmax)
        assert calls == []
        kuroda_intersection_basis(inst, dmax)  # the spy sees the pi-engine's lifts
        assert {"residues", "lift"} <= set(calls)

    @pytest.mark.parametrize("field", [QQ, 32003])
    def test_rows_sharing_a_pivot_are_refused(self, field):
        # both degree-1 rows have the pivot y: a projection on the pivots
        # would not be injective
        x, y = (LaurentPoly.variable(2, i, field) for i in range(2))
        bases = {0: [LaurentPoly.constant(2, 1, field)], 1: [y + x, y + 2 * x]}
        with pytest.raises(ValueError, match="share a pivot"):
            minimal_generator_degrees(bases)


def reference_generator_degrees(bases):
    """The unprojected one-pass count: every product is reduced over its full
    support, exactly in the field of the constant ``bases[0][0]`` (Fractions
    over Q).

    The pass of ``minimal_generator_degrees`` before it reduced on the basis
    pivots only, with the same packed keys, products and order of work.
    """
    box = intersect._Packing.around([b for bs in bases.values() for b in bs], max(bases) + 1)
    field = bases[0][0].field
    p = 0 if field == QQ else field
    span = SparseRREF(field)
    gens, kept, out = [], {}, []
    for d in sorted(bases):
        level = []
        for label, g in gens:
            for f in kept.get(d - label, ()):
                q = intersect._times(f, g, p)
                if span.add(q) is not None:
                    level.append(q)
        new = 0
        for b in bases[d]:
            terms = box.pack(b.terms)
            res = span.reduce(terms)
            if res and any(terms):
                gens.append((d, terms))
                level.append(terms)
                new += 1
            if res:
                span.add(res)
        kept[d] = level
        if new:
            out.append((d, new))
    return out


PROJECTION_CASES = (
    [(f"pi-{i}", case) for i, case in enumerate(DIFFERENTIAL_CASES)]
    + [("OFF3-12", (OFF3, 12)), ("ONES-12", (ONES, 12))]
    + [(f"star-{i}", (inst, 10)) for i, inst in enumerate(seeded_n4(8, 20, star=True))]
    + [(f"graded-{i}", case) for i, case in enumerate(GRADED_CASES)]
)
PROJECTION_IDS = [name for name, _ in PROJECTION_CASES]


@functools.cache
def projection_case(name, field):
    """The bases of a PROJECTION_CASES case over ``field``, the count its
    report carries (None for the graded engine) and its count by the
    unprojected pass."""
    case = dict(PROJECTION_CASES)[name]
    if len(case) == 2:
        inst, dmax = case
        bases, carried = pi_case(build_instance(inst.n, inst.gamma, [list(r) for r in inst.delta], field), dmax)
    else:
        gens_a, gens_b, weights, dmax = case
        bases, carried = graded_case([LaurentPoly(g.n, field, g.terms) for g in gens_a],
                                     [LaurentPoly(g.n, field, g.terms) for g in gens_b], weights, dmax)
    return bases, carried, reference_generator_degrees(bases)


class TestProjectedCount:
    """minimal_generator_degrees reduces every product on the basis pivots
    only; the unprojected pass is its oracle, over Q and over F_32003.  The
    count over Q reads no prime, so it is the same at tiny ones."""

    @pytest.mark.parametrize("field, prime", [(QQ, None), (QQ, 3), (QQ, 5), (32003, None)],
                             ids=["Q", "Q-P3", "Q-P5", "F32003"])
    @pytest.mark.parametrize("name", PROJECTION_IDS)
    def test_equals_the_unprojected_pass(self, monkeypatch, name, field, prime):
        bases, _, expected = projection_case(name, field)
        if prime is not None:
            monkeypatch.setattr(linalg, "P", prime)
        assert minimal_generator_degrees(bases) == expected

    def test_generators_times_basis_rows_are_tried_on_the_pivots_only(self, monkeypatch):
        # OFF3 at dmax 12 over Q: 153 products are tried, each a generator
        # times a basis row and added on the pivots only; none runs _times,
        # and they fill the span's rank 83 with the 28 generators and the
        # constant
        bases, _, expected = projection_case("OFF3-12", QQ)
        pivots, added, built = set(), [], []
        count, times = intersect._generator_degrees, intersect._times

        class Spied(SparseRREF):
            def add(self, vec):
                added.append((vec, super().add(vec)))
                return added[-1][1]

        def spy(bases, field):
            pivots.update(min(r) for rs in bases.values() for r in rs)
            return count(bases, field)

        monkeypatch.setattr(intersect, "_generator_degrees", spy)
        monkeypatch.setattr(intersect, "SparseRREF", Spied)
        monkeypatch.setattr(intersect, "_times", lambda f, g, p: built.append(p) or times(f, g, p))
        assert minimal_generator_degrees(bases) == expected
        generators = sum(c for _, c in expected)
        # every add is a tried product or one of the generators and the constant
        assert len(added) == 153 + generators + 1 and all(q.keys() <= pivots for q, _ in added)
        rank = sum(k is not None for _, k in added)
        assert built == [] and rank == sum(map(len, bases.values())) == 83

    def test_off3_count_reduces_on_the_pivots(self, monkeypatch):
        # the count's _axpy row entries on OFF3 at dmax 12 over Q: 53 741 on
        # the products' full supports, 4 965 on the basis pivots
        bases, _, expected = projection_case("OFF3-12", QQ)
        entries = []
        axpy = linalg._axpy

        def counted(terms, c, row, field):
            entries.append(len(row))
            return axpy(terms, c, row, field)

        monkeypatch.setattr(linalg, "_axpy", counted)
        assert minimal_generator_degrees(bases) == expected and 0 < sum(entries) <= 6000

    def test_cases_count_generators_and_nothing(self):
        # 25 of the 36 cases count a new generator over Q, 11 none
        counted = {name for name in PROJECTION_IDS if projection_case(name, QQ)[2]}
        assert len(PROJECTION_IDS) == 36 and len(counted) == 25
        assert "OFF3-12" in counted and "ONES-12" not in counted


def pivot_bound(bases):
    r"""Per degree d >= 1, |P_d \ {p + q : p in P_e, q in P_e', e, e' >= 1,
    e + e' <= d}|, with P_e the pivots (smallest exponent vectors) of the
    label-e basis rows.

    It bounds the count from above.  The rows have distinct pivots, so the
    smallest exponents of the elements of F_d are P_<=d, and leading
    exponents add under multiplication.  S_d holds F_{d-1} and every product
    of basis rows of labels e + e' <= d, so its smallest exponents cover
    P_<d and every sum p + q; F_d / S_d then has dimension at most the
    number of pivots of P_d outside them.
    """
    pivots = {d: {min(b.terms) for b in bs} for d, bs in bases.items() if d}
    return {
        d: len(ps - {tuple(map(add, p, q))
                     for e in pivots for f in pivots if e + f <= d for p in pivots[e] for q in pivots[f]})
        for d, ps in pivots.items()
    }


N3_LINKED = (1, ((1, 3), (3, 1)))
STAR_TABLES_4 = star_tables(4)
COUNT_FIELDS = ("Q", "Fp:5", "Fp:32003", "Q-P3")


@st.composite
def random_count_cases(draw):
    """(n, gamma, delta, dmax, field) of a nonsingular instance: n = 4 with a
    drawn (*)-table, or n = 3 with a drawn 2 x 2 table, whose degrees can
    link into blocks.  "Q-P3" is Q with linalg.P = 3, so that the pi-engine
    reruns its solves with Fractions."""
    n = draw(st.sampled_from([3, 4]))
    if n == 4:
        delta = draw(st.sampled_from(STAR_TABLES_4))
    else:
        delta = tuple(tuple(draw(st.integers(1, 4)) for _ in range(2)) for _ in range(2))
    case = (n, draw(st.integers(1, 2)), delta, draw(st.integers(3, 8)), draw(st.sampled_from(COUNT_FIELDS)))
    assume(build_instance(n, case[1], [list(r) for r in delta]).det_t)
    return case


def random_count_report(n, gamma, delta, dmax, field):
    inst = build_instance(n, gamma, [list(r) for r in delta], field.removesuffix("-P3"))
    with mock.patch.object(linalg, "P", 3 if field == "Q-P3" else linalg.P):
        return kuroda_intersection_basis(inst, dmax)


class TestRandomCount:
    """The count on drawn n = 4 and n = 3 instances over Q, F_5 and F_32003:
    the unprojected pass that builds every product is its oracle, and the
    pivot bound caps it."""

    @settings(max_examples=60, deadline=None)
    @given(random_count_cases())
    @example((3, *N3_LINKED, 8, "Q")).via("the linked n = 3 instance")
    @example((3, *N3_LINKED, 8, "Q-P3")).via("the linked n = 3 instance")
    def test_matches_the_report_and_the_unprojected_pass(self, case):
        rep = random_count_report(*case)
        count = minimal_generator_degrees(rep.bases)
        assert count == list(rep.new_generators) == reference_generator_degrees(rep.bases)

    @settings(max_examples=60, deadline=None)
    @given(random_count_cases())
    @example((3, *N3_LINKED, 8, "Fp:32003")).via("the linked n = 3 instance")
    def test_never_exceeds_the_pivot_bound(self, case):
        rep = random_count_report(*case)
        count = dict(rep.new_generators)
        assert all(count.get(d, 0) <= bound for d, bound in pivot_bound(rep.bases).items())

    @pytest.mark.parametrize("field", [QQ, 32003], ids=["Q", "F32003"])
    def test_pivot_bound_is_the_off3_count(self, field):
        # at every degree 1..12, 0 at 1 and 2, then 1 at 3 and 3 from 4 on
        bases, carried, expected = projection_case("OFF3-12", field)
        bound = pivot_bound(bases)
        assert sorted(bound) == list(range(1, 13))
        assert [(d, b) for d, b in sorted(bound.items()) if b] == expected == list(carried)


def test_readme_library_example_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    namespace, out = {}, io.StringIO()
    with redirect_stdout(out):
        exec(block, namespace)
    dims, generators = out.getvalue().splitlines()
    value_comment = next(line for line in lines if line.startswith("value, holds")).partition("# ")[2]
    assert (namespace["value"], namespace["holds"]) == eval(value_comment, {"Fraction": Fraction})
    assert generators == lines[-1].removeprefix("# ")
    assert sorted(eval(dims)) == list(range(13))
