"""Affine monoid computations: cones, Hilbert bases, membership."""

import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from h14 import monoid
from h14.errors import PreconditionError, UsageError
from h14.lattice import IntMatrix, coset_decomposition, left_kernel, row_times_matrix
from h14.linalg import rational_nullspace, rational_solve, row_reduce
from h14.monoid import (
    HilbertBasis,
    SubalgebraGens,
    alg_independence,
    cone_membership,
    hilbert_basis,
    intersection_generators,
    monomial_membership,
)


def triangle_criterion(i, j, k):
    """Membership of a^i b^j c^k in the subalgebra of ab, bc, ca (the oracle)."""
    return (i + j + k) % 2 == 0 and i + j >= k and j + k >= i and i + k >= j


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


def reference_membership(gens, target):
    """The ``Fraction`` membership path the Smith form replaced: one rational
    solve per target, then the same budgeted box search when the solution is
    not unique."""
    u, t = gens.matrix, gens.t
    if t == 0:
        return () if not any(target) else None
    system = [[u.entries[i][j] for i in range(t)] for j in range(gens.n)]
    sol = rational_solve(system, [Fraction(x) for x in target])
    if sol is None:
        return None
    x, null = sol
    if not null:
        if all(f.denominator == 1 and f >= 0 for f in x):
            return tuple(int(f) for f in x)
        return None
    if all(e >= 0 for row in u.entries for e in row):
        if min(target) < 0:
            return None
        bounds = [min((x_ // e for x_, e in zip(target, row) if e > 0), default=0) for row in u.entries]
    else:
        bounds = [sum(map(abs, target)) * max(abs(e) for row in u.entries for e in row)] * t
    monoid._check_budget("the membership search box", prod(b + 1 for b in bounds))
    for beta in itertools.product(*(range(b + 1) for b in bounds)):
        if row_times_matrix(beta, u) == target:
            return beta
    return None


def primitive_vector(vec):
    """Clear denominators, divide by the content, first nonzero entry > 0."""
    fracs = [Fraction(x) for x in vec]
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = gcd(*ints)
    ints = [x // g for x in ints] if g else ints
    return tuple(-x for x in ints) if next((x for x in ints if x), 0) < 0 else tuple(ints)


def reference_extreme_rays(u):
    """Extreme rays from ``rational_nullspace`` and ``primitive_vector``."""
    t, cols = u.rows, u.columns
    rays = set()
    for subset in itertools.combinations(range(u.cols), t - 1):
        ns = rational_nullspace([cols[j] for j in subset], ncols=t)
        if len(ns) != 1:
            continue
        d = primitive_vector(ns[0])
        for d in (d, tuple(-x for x in d)):
            if all(sum(x * c for x, c in zip(d, col)) >= 0 for col in cols):
                rays.add(d)
    return sorted(rays)


def random_generators(rng):
    """Distinct generator rows: t < n, t = n and t > n, negative entries,
    zero rows and rows that are sums or multiples of others."""
    while True:
        n, t = rng.randint(1, 3), rng.randint(1, 4)
        lo = rng.choice([-2, 0])
        rows = [tuple(rng.randint(lo, 2) for _ in range(n)) for _ in range(t)]
        if t > 1 and rng.random() < 0.3:
            rows[-1] = (0,) * n
        if t > 2 and rng.random() < 0.3:
            rows[-2] = tuple(a + b for a, b in zip(rows[0], rows[1]))
        if t > 1 and rng.random() < 0.2:
            rows[-1] = tuple(2 * a for a in rows[0])
        if len(set(rows)) == t:
            return SubalgebraGens.of(n, rows)


class TestSmithAgainstFractionPath:
    """The Smith-form answers against the ``Fraction`` path they replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_membership_agrees(self, seed, monkeypatch):
        # a small budget keeps the dependent searches short and makes refusals common
        monkeypatch.setattr(monoid, "ENUMERATION_BUDGET", 3000)
        rng = random.Random(seed)
        shapes, outcomes = set(), set()
        for _ in range(25):
            gens = random_generators(rng)
            u, n, t = gens.matrix, gens.n, gens.t
            unique = row_reduce(u.entries).rank == t
            shapes.add((t > n) - (t < n))
            targets = [(0,) * n, tuple(rng.randint(-3, 3) for _ in range(n))]
            targets += [row_times_matrix([rng.randint(lo, 2) for _ in range(t)], u) for lo in (0, 0, -2)]
            for target in targets:
                try:
                    ref = reference_membership(gens, target)
                except UsageError as exc:
                    ref = exc
                try:
                    new = monomial_membership(gens, target)
                except UsageError as exc:
                    new = exc
                if isinstance(ref, UsageError):
                    outcomes.add("refused")
                    if isinstance(new, UsageError):
                        assert str(new) == str(ref)
                    else:  # the integer test answers before the box is sized
                        assert new is None and not coset_decomposition(gens.vectors, n).contains(target)
                    continue
                outcomes.add((unique, ref is None))
                if unique:
                    assert new == ref, (gens.vectors, target)
                else:
                    assert (new is None) == (ref is None), (gens.vectors, target)
                if new is not None:
                    assert min(new, default=0) >= 0 and row_times_matrix(new, u) == target
        assert shapes == {-1, 0, 1}
        assert {(True, True), (True, False), (False, False)} <= outcomes

    def test_integer_test_answers_before_the_budget(self):
        # rationally solvable, but 401 is odd: no integer witness, so no box is sized
        gens = SubalgebraGens.of(2, [(2, 0), (0, 2), (2, 2)])
        with pytest.raises(UsageError, match=f"{201 ** 3} lattice points"):
            reference_membership(gens, (401, 401))
        assert monomial_membership(gens, (401, 401)) is None

    def test_rays_rank_and_lineality_agree(self):
        rng = random.Random(7)
        one_dim = 0
        for _ in range(400):
            t, n = rng.randint(1, 4), rng.randint(1, 4)
            u = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(t)])
            assert monoid._extreme_rays(u) == reference_extreme_rays(u), u.entries
            assert alg_independence(SubalgebraGens(n, u.entries)) == (row_reduce(u.entries).rank == t)
            old = rational_nullspace(list(u.columns), ncols=t)
            if not old:
                assert left_kernel(u) == []
                continue
            beta = left_kernel(u)[0]
            message = f"cone is not pointed; contains the line through {beta}"
            with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                hilbert_basis(u)
            assert any(beta) and gcd(*beta) == 1 and not any(row_times_matrix(beta, u))
            if len(old) == 1:
                one_dim += 1
                assert beta == primitive_vector(old[0])
        assert one_dim > 50

    def test_one_smith_form_per_generator_set(self, monkeypatch):
        built, checked = [], []
        snf, cert = monoid.smith_normal_form, monoid.smith_certificate
        monkeypatch.setattr(monoid, "smith_normal_form", lambda m: built.append(m) or snf(m))
        monkeypatch.setattr(monoid, "smith_certificate", lambda m, sf: checked.append(m) or cert(m, sf))
        gens = SubalgebraGens.of(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        rng = random.Random(40)
        for _ in range(40):
            monomial_membership(gens, tuple(rng.randint(0, 12) for _ in range(3)))
        assert alg_independence(gens)
        assert built == checked == [gens.matrix]

    def test_failed_certificate_is_an_arithmetic_error(self, monkeypatch):
        monkeypatch.setattr(monoid, "smith_certificate", lambda m, sf: False)
        with pytest.raises(ArithmeticError):
            monomial_membership(SubalgebraGens.of(2, [(1, 1), (1, -1)]), (2, 0))


class TestConeMembership:
    def test_examples(self):
        u = IntMatrix.from_rows([[1, 1], [1, -1]])
        assert cone_membership(u, (1, 1))
        assert cone_membership(u, (0, 0))
        assert not cone_membership(u, (0, 1))

    @pytest.mark.parametrize("beta", [(0.5, 0.5), (True, False), (1, 1.0)])
    def test_non_integers_rejected(self, beta):
        with pytest.raises(UsageError, match=r"^beta entries must be integers, got (0\.5|True|1\.0)$"):
            cone_membership(IntMatrix.from_rows([[1, 1], [1, -1]]), beta)

    @pytest.mark.parametrize("beta", [(1,), (1, 1, 0), ()])
    def test_wrong_length_rejected(self, beta):
        with pytest.raises(UsageError, match=rf"^row of length {len(beta)} times 2x2 matrix$"):
            cone_membership(IntMatrix.from_rows([[1, 1], [1, -1]]), beta)


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
        with pytest.raises(PreconditionError, match=r"^cone is not pointed; contains the line through \(2, -1\)$"):
            hilbert_basis(IntMatrix.from_rows([[1, 1], [2, 2]]))

    def test_oracle_agreement(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 50:
            t = rng.randint(1, 3)
            n = rng.randint(1, 3)
            u = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(t)]
            )
            if left_kernel(u):  # a cone with a line
                continue
            hb = hilbert_basis(u)
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
            if left_kernel(u):  # a cone with a line
                continue
            hb = hilbert_basis(u)
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
            if left_kernel(u):  # a cone with a line
                continue
            hb = hilbert_basis(u)
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
        # dependent nonnegative generators force the exhaustive search; each
        # beta_i <= 200 (the least target_j // U[i][j]), so 201^3 points
        gens = SubalgebraGens.of(2, [(1, 0), (0, 1), (1, 1)])
        with pytest.raises(UsageError, match=f"{201 ** 3} lattice points"):
            monomial_membership(gens, (200, 200))

    def test_membership_search_with_a_negative_entry_keeps_the_old_box(self):
        # a negative entry of U: B = sum |target| * max |U entry| = 400
        gens = SubalgebraGens.of(2, [(1, 0), (0, 1), (1, -1)])
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

    def test_empty_shapes(self):
        # no generators: only the zero target; one generator in no variables
        assert monomial_membership(SubalgebraGens.of(2, []), (0, 0)) == ()
        assert monomial_membership(SubalgebraGens.of(2, []), (1, 0)) is None
        assert monomial_membership(SubalgebraGens.of(0, [()]), ()) == (0,)

    def test_nonnegative_generators_are_bounded_by_the_target(self):
        # the old box (B + 1)^3 with B = 126 was over budget here
        gens = SubalgebraGens.of(2, [(1, 0), (0, 1), (1, 1)])
        assert monomial_membership(gens, (63, 63)) == (0, 0, 63)
        assert monomial_membership(gens, (63, -1)) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_nonnegative_generators_agree_with_brute_force(self, seed):
        # U >= 0 with more rows than rank (zero rows included), so the
        # exhaustive search runs; any witness has beta_i <= max(target) on a
        # nonzero row and may take beta_i = 0 on a zero row
        rng = random.Random(seed)
        n, t = rng.randint(1, 3), 4
        vectors = set()
        while len(vectors) < t:
            vectors.add(tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n)))
        gens = SubalgebraGens.of(n, sorted(vectors))
        u = gens.matrix
        for target in itertools.product(range(-1, 6), repeat=n):
            box = [range(max(target) + 1) if any(row) else range(1) for row in u.entries]
            reachable = any(row_times_matrix(b, u) == target for b in itertools.product(*box))
            beta = monomial_membership(gens, target)
            assert (beta is not None) == reachable, (sorted(vectors), target)
            if beta is not None:
                assert min(beta) >= 0 and row_times_matrix(beta, u) == target


class TestIntegerInput:
    """Non-integer entries are rejected, never truncated by ``int()``."""

    @pytest.mark.parametrize("bad", [(1, 1.7), (1, True)])
    def test_generators(self, bad):
        with pytest.raises(UsageError, match=r"^generator entries must be integers, got (1\.7|True)$"):
            SubalgebraGens.of(2, [bad, (1, -1)])

    @pytest.mark.parametrize("target", [(2.6, 0), (True, 0)])
    def test_membership_target(self, target):
        gens = SubalgebraGens.of(2, [(1, 1), (1, -1)])
        with pytest.raises(UsageError, match=r"^target entries must be integers, got (2\.6|True)$"):
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
        with pytest.raises(PreconditionError, match=r"^generators are algebraically dependent$"):
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
            if left_kernel(gens.matrix):  # dependent generators: a cone with a line
                continue
            monos = intersection_generators(gens)
            checked += 1
            for m in monos:
                assert min(m, default=0) >= 0

    def test_duplicates_rejected(self):
        with pytest.raises(UsageError):
            SubalgebraGens.of(2, [(1, 1), (1, 1)])
