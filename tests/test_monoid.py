"""Affine monoid computations: cones, Hilbert bases, membership."""

import itertools
import random

import pytest

from h14 import monoid
from h14.errors import IndependenceError, LinealityError, UsageError, ValidationError
from h14.lattice import IntMatrix, row_times_matrix
from h14.monoid import (
    HilbertBasis,
    SubalgebraGens,
    alg_independence,
    cone_membership,
    hilbert_basis,
    intersection_generators,
    monomial_membership,
    triangle_criterion,
)


def brute_force_monoid(u, box):
    """All beta with ||beta||_inf <= box satisfying beta U >= 0 (the oracle)."""
    t = u.rows
    out = set()
    for beta in itertools.product(range(-box, box + 1), repeat=t):
        if min(row_times_matrix(beta, u), default=0) >= 0:
            out.add(beta)
    return out


def make_representable(vectors, u):
    """Exact membership test for the monoid generated by the vectors.

    Recursion on the additive level sum(beta U), which strictly decreases
    when a nonzero monoid element is subtracted (pointedness), so no search
    box is needed.  The memo is shared across queries.
    """
    memo = {}

    def rec(b):
        if not any(b):
            return True
        if b in memo:
            return memo[b]
        memo[b] = False
        for v in vectors:
            r = tuple(x - y for x, y in zip(b, v))
            if min(row_times_matrix(r, u), default=0) >= 0 and rec(r):
                memo[b] = True
                break
        return memo[b]

    return rec


class TestConeMembership:
    def test_examples(self):
        u = IntMatrix.from_rows([[1, 1], [1, -1]])
        assert cone_membership(u, (1, 1))
        assert cone_membership(u, (0, 0))
        assert not cone_membership(u, (0, 1))


class TestHilbertBasis:
    def test_worked_example(self):
        hb = hilbert_basis(IntMatrix.from_rows([[1, 1], [1, -1]]))
        assert set(hb.vectors) == {(1, 0), (1, 1), (1, -1)}

    def test_identity(self):
        for t in (1, 2, 3):
            hb = hilbert_basis(IntMatrix.identity(t))
            expected = {tuple(int(i == j) for j in range(t)) for i in range(t)}
            assert set(hb.vectors) == expected

    def test_negative_half_line(self):
        hb = hilbert_basis(IntMatrix.from_rows([[-1]]))
        assert hb.vectors == ((-1,),)

    def test_lineality_rejected(self):
        with pytest.raises(LinealityError) as exc:
            hilbert_basis(IntMatrix.from_rows([[1, 1], [2, 2]]))
        assert exc.value.direction is not None

    def test_oracle_agreement(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 50:
            t = rng.randint(1, 3)
            n = rng.randint(1, 3)
            u = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(t)]
            )
            try:
                hb = hilbert_basis(u)
            except LinealityError:
                continue
            checked += 1
            for beta in hb.vectors:
                assert cone_membership(u, beta)
            reachable = make_representable(hb.vectors, u)
            for beta in brute_force_monoid(u, 6):
                assert reachable(beta), (u.entries, hb.vectors, beta)

    def test_minimality(self):
        rng = random.Random(99)
        checked = 0
        while checked < 20:
            t = rng.randint(1, 3)
            n = rng.randint(1, 3)
            u = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(t)]
            )
            try:
                hb = hilbert_basis(u)
            except LinealityError:
                continue
            if not hb.vectors:
                continue
            checked += 1
            for leave_out, removed in enumerate(hb.vectors):
                rest = [v for i, v in enumerate(hb.vectors) if i != leave_out]
                assert not make_representable(rest, u)(removed)

    def test_images_and_monomials(self):
        rng = random.Random(31)
        checked = 0
        while checked < 30:
            t = rng.randint(1, 3)
            u = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(t)])
            try:
                hb = hilbert_basis(u)
            except LinealityError:
                continue
            checked += 1
            assert hb.images == tuple(row_times_matrix(b, u) for b in hb.vectors)
            assert hb.monomials == sorted(set(hb.images))

    def test_negative_image_is_an_arithmetic_error(self):
        hb = HilbertBasis(IntMatrix.from_rows([[1]]), ((1,),), ((-1,),))
        with pytest.raises(ArithmeticError):
            hb.monomials


class TestEnumerationBudget:
    """Exponential enumerations are sized first and refused past the budget."""

    def test_ray_box_past_budget(self):
        u = IntMatrix.from_rows([[20, 1, 0], [0, 20, 1], [1, 0, 20]])
        with pytest.raises(UsageError, match=f"ray box has [0-9]+ lattice points.*{monoid.ENUMERATION_BUDGET}"):
            hilbert_basis(u)

    def test_ray_box_size_is_the_enumerated_box(self, monkeypatch):
        u = IntMatrix.identity(2)  # rays e1, e2: the box [0, 1]^2 has 4 points
        monkeypatch.setattr(monoid, "ENUMERATION_BUDGET", 4)
        assert set(hilbert_basis(u).vectors) == {(1, 0), (0, 1)}
        monkeypatch.setattr(monoid, "ENUMERATION_BUDGET", 3)
        with pytest.raises(UsageError, match="4 lattice points"):
            hilbert_basis(u)

    def test_membership_search_past_budget(self):
        # dependent generators force the exhaustive search; B = 400, (B + 1)^3 points
        gens = SubalgebraGens.of(2, [(1, 0), (0, 1), (1, 1)])
        with pytest.raises(UsageError, match=f"{401 ** 3} lattice points"):
            monomial_membership(gens, (200, 200))

    def test_membership_search_within_budget(self):
        gens = SubalgebraGens.of(2, [(1, 0), (0, 1), (1, 1)])
        beta = monomial_membership(gens, (2, 1))
        assert row_times_matrix(beta, gens.matrix) == (2, 1) and min(beta) >= 0


class TestTriangleCriterion:
    def test_examples(self):
        assert triangle_criterion(1, 1, 0)
        assert not triangle_criterion(1, 1, 1)
        assert not triangle_criterion(2, 0, 0)

    def test_agrees_with_membership(self):
        gens = SubalgebraGens.of(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        for i, j, k in itertools.product(range(13), repeat=3):
            witness = monomial_membership(gens, (i, j, k))
            assert (witness is not None) == triangle_criterion(i, j, k), (i, j, k)


class TestMonomialMembership:
    def test_witness(self):
        gens = SubalgebraGens.of(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        assert monomial_membership(gens, (2, 2, 2)) == (1, 1, 1)
        assert monomial_membership(gens, (0, 0, 0)) == (0, 0, 0)
        assert monomial_membership(gens, (2, 0, 0)) is None


class TestIntegerInput:
    """Non-integer entries are rejected, never truncated by ``int()``."""

    @pytest.mark.parametrize("bad", [(1, 1.7), (1, True)])
    def test_generators(self, bad):
        with pytest.raises(ValidationError):
            SubalgebraGens.of(2, [bad, (1, -1)])

    @pytest.mark.parametrize("target", [(2.6, 0), (True, 0)])
    def test_membership_target(self, target):
        gens = SubalgebraGens.of(2, [(1, 1), (1, -1)])
        with pytest.raises(ValidationError):
            monomial_membership(gens, target)


class TestIndependence:
    def test_examples(self):
        assert alg_independence(SubalgebraGens.of(2, [(1, 1), (1, -1)]))
        assert not alg_independence(SubalgebraGens.of(1, [(1,), (2,)]))
        assert alg_independence(SubalgebraGens.of(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]))


class TestIntersectionGenerators:
    def test_worked_example(self):
        gens = SubalgebraGens.of(2, [(1, 1), (1, -1)])
        assert intersection_generators(gens) == [(0, 2), (1, 1), (2, 0)]

    def test_single_variable(self):
        assert intersection_generators(SubalgebraGens.of(1, [(1,)])) == [(1,)]

    def test_trivial_intersection(self):
        assert intersection_generators(SubalgebraGens.of(2, [(1, -1)])) == []

    def test_dependent_rejected(self):
        with pytest.raises(IndependenceError):
            intersection_generators(SubalgebraGens.of(1, [(1,), (2,)]))

    def test_outputs_are_polynomial(self):
        rng = random.Random(17)
        checked = 0
        while checked < 30:
            t = rng.randint(1, 3)
            n = rng.randint(t, 3)
            vecs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(t)]
            if len(set(vecs)) != t:
                continue
            gens = SubalgebraGens.of(n, vecs)
            try:
                monos = intersection_generators(gens)
            except (IndependenceError, LinealityError):
                continue
            checked += 1
            for m in monos:
                assert min(m, default=0) >= 0

    def test_duplicates_rejected(self):
        with pytest.raises(UsageError):
            SubalgebraGens.of(2, [(1, 1), (1, 1)])
