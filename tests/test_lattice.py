"""Integer lattice algebra: determinants, unit-row solves, Smith form, cosets."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from h14.errors import PreconditionError, UsageError
from h14.lattice import (
    IntMatrix,
    SmithForm,
    coset_decomposition,
    det,
    row_times_matrix,
    smith_certificate,
    smith_normal_form,
    solve_unit_row,
)
from h14.linalg import rational_solve


def det_oracle(rows):
    """Permutation-expansion determinant, independent of the implementation."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def naive_product(a_rows, b_rows, inner, ncols):
    """Triple-loop matrix product, the reference for the column kernel."""
    return tuple(
        tuple(sum(row[k] * b_rows[k][j] for k in range(inner)) for j in range(ncols))
        for row in a_rows
    )


def shaped_rows(nrows, ncols):
    return st.lists(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


# (k, m, n) shapes with every dimension allowed to be 0, then A (k x m), B (m x n)
product_operands = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3).flatmap(
    lambda kmn: st.tuples(st.just(kmn), shaped_rows(kmn[0], kmn[1]), shaped_rows(kmn[1], kmn[2]))
)


class TestProductKernel:
    """``row_times_matrix`` and ``IntMatrix.__mul__`` against a triple loop."""

    @settings(max_examples=200, deadline=None)
    @given(product_operands)
    def test_against_triple_loop(self, operands):
        (k, m, n), a_rows, b_rows = operands
        a = IntMatrix(k, m, tuple(map(tuple, a_rows)))
        b = IntMatrix(m, n, tuple(map(tuple, b_rows)))
        expected = naive_product(a_rows, b_rows, m, n)
        assert (a * b).entries == expected
        assert ((a * b).rows, (a * b).cols) == (k, n)
        for row, want in zip(a_rows, expected):
            assert row_times_matrix(row, b) == want
        # the cached columns are no field: equality and hashing ignore them
        fresh = IntMatrix(m, n, tuple(map(tuple, b_rows)))
        assert b == fresh and hash(b) == hash(fresh)
        assert len(b.columns) == n and all(len(c) == m for c in b.columns)

    def test_wrong_lengths_rejected(self):
        b = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(UsageError, match=r"^row of length 2 times 3x2 matrix$"):
            row_times_matrix((1, 2), b)
        with pytest.raises(UsageError, match=r"^cannot multiply 1x2 by 3x2$"):
            IntMatrix.from_rows([[1, 2]]) * b


class TestDet:
    def test_singular_symmetric(self):
        assert det(IntMatrix.from_rows([[-1, 1], [1, -1]])) == 0

    def test_two_by_two(self):
        assert det(IntMatrix.from_rows([[-3, 1], [1, -1]])) == 2

    def test_three_by_three(self):
        m = [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]
        assert det(IntMatrix.from_rows(m)) == 4
        assert det(IntMatrix.from_rows(m)) == det_oracle(m)

    def test_non_square_rejected(self):
        with pytest.raises(UsageError, match=r"^determinant of non-square 2x3 matrix$"):
            det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_against_oracle_random(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert det(IntMatrix.from_rows(rows)) == det_oracle(rows)

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 3)
            a = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            b = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            assert det(a * b) == det(a) * det(b)


class TestSolveUnitRow:
    def test_worked_example(self):
        m, s = solve_unit_row(IntMatrix.from_rows([[-3, 1], [1, -1]]), 0)
        assert m == 2
        assert s == (-1, -1)

    def test_identity(self):
        m, s = solve_unit_row(IntMatrix.identity(2), 0)
        assert (m, s) == (1, (1, 0))

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError, match=r"^matrix is singular$"):
            solve_unit_row(IntMatrix.from_rows([[-1, 1], [1, -1]]), 0)

    @pytest.mark.parametrize("i", [True, 0.0, -1, 2])
    def test_row_index_must_be_an_int_in_range(self, i):
        with pytest.raises(UsageError, match="row index"):
            solve_unit_row(IntMatrix.identity(2), i)

    def test_identity_property_random(self):
        rng = random.Random(3)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 4)
            t = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            if det(t) == 0:
                continue
            checked += 1
            i = rng.randrange(n)
            m, s = solve_unit_row(t, i)
            expected = tuple(m if j == i else 0 for j in range(n))
            assert row_times_matrix(s, t) == expected
            assert m > 0
            # least positive m: s/m is in lowest terms, so m' < m would force
            # a fractional coordinate in m'/m * s
            assert math.gcd(m, *s) == 1 or m == 1

    @staticmethod
    def fraction_oracle(t, i):
        """The rational path: solve t^T x = e_i over Q, then clear the
        denominators of the unique solution by their lcm."""
        x, null = rational_solve([list(c) for c in t.columns], [Fraction(int(j == i)) for j in range(t.rows)])
        assert not null
        m = math.lcm(*(f.denominator for f in x))
        return m, tuple(int(f * m) for f in x)

    @staticmethod
    def unimodular(rng, n):
        """A random |det| = 1 matrix: signed identity rows mixed by row adds."""
        rows = [[rng.choice((1, -1)) * int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        return rows

    def test_against_fraction_oracle(self):
        rng = random.Random(17)
        dets = set()
        for case in range(300):
            n = rng.randint(2, 4)
            kind = case % 3
            if kind == 0:
                rows = self.unimodular(rng, n)
            else:
                bound = 5 if kind == 1 else 10**6
                rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            t = IntMatrix.from_rows(rows)
            d = det(t)
            if d == 0:
                continue
            dets.add(min(abs(d), 10**12))
            for i in range(n):
                assert solve_unit_row(t, i) == self.fraction_oracle(t, i)
        # unimodular, small and large determinants all occurred
        assert 1 in dets and 10**12 in dets and any(1 < x < 10**4 for x in dets)

    def test_singular_three_by_three_rejected(self):
        t = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        for i in range(3):
            with pytest.raises(PreconditionError, match=r"^matrix is singular$"):
                solve_unit_row(t, i)


int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )
)


class TestSmithForm:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices)
    def test_decomposition_properties(self, rows):
        m = IntMatrix.from_rows(rows)
        sf = smith_normal_form(m)
        # D = U A V
        assert sf.u * m * sf.v == sf.d
        # transforms unimodular
        assert det(sf.u) in (1, -1)
        assert det(sf.v) in (1, -1)
        # rows of U A = D V^-1 are d_j times integer rows below the rank, 0 past it
        ua = (sf.u * m).entries
        assert all(x % d == 0 for row, d in zip(ua, sf.invariants) for x in row)
        assert not any(map(any, ua[len(sf.invariants):]))
        # diagonal with a divisibility chain
        for i in range(sf.d.rows):
            for j in range(sf.d.cols):
                if i != j:
                    assert sf.d[i, j] == 0
        inv = sf.invariants
        assert all(x > 0 for x in inv)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        assert smith_certificate(m, sf)

    def test_known_diagonal(self):
        sf = smith_normal_form(IntMatrix.from_rows([[2, 4], [4, 2]]))
        assert sf.invariants == (2, 6)


class TestSmithCertificate:
    """Each corrupted form breaks exactly one condition of the certificate."""

    # the generators of the exponent subgroup H of the OFF3 instance
    GENERATORS = IntMatrix.from_rows([[-1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0], [0, 0, 0, 1]])

    def test_product_must_be_d(self):
        sf = smith_normal_form(self.GENERATORS)
        assert sf.invariants == (1, 1, 4, 20) and smith_certificate(self.GENERATORS, sf)
        d = sf.d.to_lists()
        d[3][3] *= 2  # (1, 1, 4, 40) is still a nonnegative diagonal chain
        assert not smith_certificate(self.GENERATORS, SmithForm(IntMatrix.from_rows(d), sf.u, sf.v))

    def test_u_must_be_unimodular(self):
        # D's second row is zero, so doubling U's second row keeps U m V = D
        m = IntMatrix.from_rows([[1, 2], [2, 4]])
        sf = smith_normal_form(m)
        assert sf.invariants == (1,)
        u = sf.u.to_lists()
        u[1] = [2 * x for x in u[1]]
        corrupt = SmithForm(sf.d, IntMatrix.from_rows(u), sf.v)
        assert corrupt.u * m * corrupt.v == corrupt.d and abs(det(corrupt.u)) == 2
        assert not smith_certificate(m, corrupt)

    def test_v_must_be_unimodular(self):
        # D's second column is zero, so doubling V's second column keeps U m V = D
        m = IntMatrix.from_rows([[1, 2], [2, 4]])
        sf = smith_normal_form(m)
        v = sf.v.to_lists()
        for row in v:
            row[1] *= 2
        corrupt = SmithForm(sf.d, sf.u, IntMatrix.from_rows(v))
        assert corrupt.u * m * corrupt.v == corrupt.d and abs(det(corrupt.v)) == 2
        assert not smith_certificate(m, corrupt)

    @pytest.mark.parametrize(
        "d, holds",
        [
            ([[2, 0, 0], [0, 6, 0]], True),
            ([[1, 1], [0, 1]], False),  # an off-diagonal nonzero
            ([[2, 0], [0, 3]], False),  # 2 does not divide 3
            ([[0, 0], [0, 2]], False),  # a zero invariant before a nonzero one
            ([[1, 0], [0, -2]], False),  # a negative invariant
        ],
    )
    def test_d_must_be_a_nonnegative_diagonal_chain(self, d, holds):
        # with identity transforms U m V = D holds for m = D
        m = IntMatrix.from_rows(d)
        one = IntMatrix.identity(m.cols)
        assert smith_certificate(m, SmithForm(m, IntMatrix.identity(m.rows), one)) == holds


class TestIntegerInput:
    """Non-integer entries are rejected, never truncated by ``int()``."""

    @pytest.mark.parametrize("rows", [[[1.9, 2], [0, 1]], [[True, 0], [0, 1]]])
    def test_matrix_rows(self, rows):
        with pytest.raises(UsageError, match=r"^matrix entries must be integers, got (1\.9|True)$"):
            IntMatrix.from_rows(rows)

    @pytest.mark.parametrize("gen", [(2.0, 0), (False, 1)])
    def test_coset_generators(self, gen):
        with pytest.raises(UsageError, match=r"^generator entries must be integers, got (2\.0|False)$"):
            coset_decomposition([gen, (0, 2)], 2)


class TestCosets:
    def test_parity_subgroup(self):
        cd = coset_decomposition([(1, 1), (1, -1)], 2)
        assert cd.contains((2, 0))
        assert not cd.contains((1, 0))
        assert cd.representative((2, 0)) == (0, 0)

    def test_full_lattice(self):
        cd = coset_decomposition([(1, 0), (0, 1)], 2)
        for v in itertools.product(range(-3, 4), repeat=2):
            assert cd.contains(v)
            assert cd.representative(v) == (0, 0)

    def test_instance_rows_membership(self):
        # rows (-1,1,1,0),(1,-1,1,0),(1,1,-1,0) plus the last unit vector
        gens = [(-1, 1, 1, 0), (1, -1, 1, 0), (1, 1, -1, 0), (0, 0, 0, 1)]
        cd = coset_decomposition(gens, 4)
        assert cd.contains((-1, 1, 1, 0))

    def test_representative_properties(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 4)
            k = rng.randint(0, n)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
            cd = coset_decomposition(gens, n)
            for _ in range(10):
                v = tuple(rng.randint(-6, 6) for _ in range(n))
                r = cd.representative(v)
                assert cd.representative(r) == r
                assert cd.contains(tuple(a - b for a, b in zip(v, r)))
                for g in gens:
                    shifted = tuple(a + b for a, b in zip(v, g))
                    assert cd.representative(shifted) == r

    @staticmethod
    def reference(cd, vec):
        """The unreduced formula: rep(v) = (v V mod D) V^-1, and v in H iff
        every coordinate of v V is divisible by its invariant and vanishes
        past the rank.  V^-1 is solved column by column over Q, independently
        of the U A rows that the decomposition reads."""
        sf, n = cd.smith, cd.ambient
        r = len(sf.invariants)
        v_inv_cols = [rational_solve(sf.v.entries, [int(i == j) for i in range(n)])[0] for j in range(n)]
        w = [sum(vec[i] * sf.v[i, j] for i in range(n)) for j in range(n)]
        member = all(w[j] % sf.d[j, j] == 0 for j in range(r)) and not any(w[r:])
        for j in range(r):
            w[j] %= sf.d[j, j]
        rep = tuple(sum(a * b for a, b in zip(w, col)) for col in v_inv_cols)
        return rep, member

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=n + 1),
                st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=8),
            )
        )
    )
    def test_queries_match_reference_formula(self, data):
        gens, vectors = data
        n = len(vectors[0])
        cd = coset_decomposition(gens, n)
        for v in vectors:
            rep, member = self.reference(cd, v)
            assert cd.representative(v) == rep
            assert cd.contains(v) == member
        for g in gens:
            assert cd.contains(g)

    def test_wrong_length_rejected(self):
        cd = coset_decomposition([(2, 0), (0, 3)], 2)
        for vec in [(1,), (1, 2, 3)]:
            with pytest.raises(UsageError, match=rf"^vector of length {len(vec)} in Z\^2$"):
                cd.representative(vec)
            with pytest.raises(UsageError, match=rf"^vector of length {len(vec)} in Z\^2$"):
                cd.contains(vec)

    def test_synthetic_four_cosets(self):
        cd = coset_decomposition([(2, 0), (0, 2)], 2)
        reps = {cd.representative(v) for v in itertools.product(range(-4, 5), repeat=2)}
        assert len(reps) == 4
