"""The one elimination engine: SparseRREF and its dense adapters over Q.

Oracles are independent of the engine: the residue of the rescanning
reduction, ranks read from the largest nonvanishing minor (Bareiss
determinants of ``lattice.det``), direct matrix-vector products, for
rational reconstruction a search over every fraction in the bound, and for
span intersections the tag-and-combine Zassenhaus loop.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from h14 import linalg
from h14.lattice import IntMatrix, det
from h14.laurent import QQ, _axpy, coeff_of
from h14.linalg import (
    SparseRREF,
    rational_nullspace,
    rational_reconstruction,
    rational_solve,
    row_reduce,
)
from test_coefficients import canonical, rref_rows

FIELDS = [QQ, 2, 3, 5, 32003]
SPAN_FIELDS = FIELDS + [linalg.P]
NCOLS = 5

small_rows = st.lists(st.lists(st.integers(-3, 3), min_size=NCOLS, max_size=NCOLS), max_size=5)
small_row = st.lists(st.integers(-3, 3), min_size=NCOLS, max_size=NCOLS)


@st.composite
def int_matrices(draw, min_rows=1, square=False):
    nrows = draw(st.integers(min_rows, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    return [draw(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)) for _ in range(nrows)]


def sparse(row, field):
    out = {}
    for k, x in enumerate(row):
        c = coeff_of(field, x)
        if c:
            out[k] = c
    return out


def integral(vec):
    """A dense integer row spanning the same line as a sparse vector."""
    den = lcm(*(Fraction(c).denominator for c in vec.values()))
    return [int(Fraction(vec.get(k, 0)) * den) for k in range(NCOLS)]


def rescan_residue(rr, vec):
    """Reference reduction: eliminate the smallest pivot key left until none is."""
    out = dict(vec)
    while True:
        hits = [k for k in out if k in rr.rows]
        if not hits:
            return out
        k = min(hits)
        _axpy(out, -out[k], rr.rows[k], rr.field)


def minor_rank(rows, field=QQ):
    """Size of the largest minor that is nonzero in the field."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                d = det(IntMatrix.from_rows([[rows[i][j] for j in ci] for i in ri]))
                if d if field == QQ else d % field:
                    return k
    return 0


def times(rows, x):
    return [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]


class TestSparseRREF:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FIELDS), small_rows, small_row)
    def test_single_pass_reduce(self, field, rows, vec):
        rr = SparseRREF(field)
        for row in rows:
            rr.add(sparse(row, field))
        v = sparse(vec, field)
        res = rr.reduce(v)
        assert not set(res) & set(rr.rows)
        assert res == rescan_residue(rr, v)
        # vec - residue lies in the span of the inserted rows
        diff = dict(v)
        _axpy(diff, -1, res, field)
        if diff:
            assert minor_rank(rows + [integral(diff)], field) == minor_rank(rows, field)


def reference_intersection(rows_a, rows_b, field):
    """The RREF basis of span(rows_a) & span(rows_b) by tag and combine: each
    row i of A's RREF, reduced by B, is tagged with the indicator ("t", i);
    the tag part of a row with a "t" pivot is a relation among the residues,
    and the same combination of A's rows lies in B."""
    ra = SparseRREF(field)
    for r in rows_a:
        ra.add(r)
    rb = SparseRREF(field)
    for r in rows_b:
        rb.add(r)
    basis_a = rref_rows(ra)
    tagged = SparseRREF(field)
    inter = SparseRREF(field)
    one = coeff_of(field, 1)
    for i, arow in enumerate(basis_a):
        res = {("m", k): v for k, v in rb.reduce(arow).items()}
        res[("t", i)] = one
        tagged.add(res)
    for pk in sorted(tagged.rows):
        if pk[0] != "t":
            continue
        elem = linalg.combination({i: c for (kind, i), c in tagged.rows[pk].items() if kind == "t"}, basis_a, field)
        if elem:
            inter.add(elem)
    return rref_rows(inter)


@st.composite
def span_pairs(draw):
    """Two lists of dense integer rows: unrelated, A inside B, A = B (B holds
    sums of A's rows) or A with a dependent row; either side may be empty."""
    rows_a = draw(small_rows)
    rows_b = draw(small_rows)
    shape = draw(st.sampled_from(["random", "a_in_b", "equal", "dependent"]))
    if shape == "a_in_b":
        rows_b = rows_b + rows_a
    elif shape == "equal":
        rows_b = [[x + y for x, y in zip(r, s)] for r, s in zip(rows_a, rows_a[1:])] + rows_a[:1]
    elif shape == "dependent" and len(rows_a) >= 2:
        rows_a = rows_a + [[2 * x - y for x, y in zip(rows_a[0], rows_a[1])]]
    return shape, rows_a, rows_b


class TestIntersection:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SPAN_FIELDS), span_pairs())
    def test_read_off_matches_tag_and_combine(self, field, pair):
        shape, rows_a, rows_b = pair
        a = [sparse(r, field) for r in rows_a]
        b = [sparse(r, field) for r in rows_b]
        inter = linalg._intersection(a, b, field)
        expected = reference_intersection(a, b, field)
        assert inter == expected
        assert sparse_rank(a, field) == minor_rank(rows_a, field) and sparse_rank(b, field) == minor_rank(rows_b, field)
        assert linalg.span_intersection(a, b, field) == expected
        if shape in ("a_in_b", "equal"):
            ra = SparseRREF(field)
            for r in a:
                ra.add(r)
            assert inter == rref_rows(ra)


class TestDenseAdapters:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_nullspace(self, rows):
        ncols = len(rows[0])
        null = rational_nullspace(rows)
        for v in null:
            assert all(canonical(QQ, x) for x in v)
            assert times(rows, v) == [0] * len(rows)
        assert len(null) == ncols - row_reduce(rows).rank == ncols - minor_rank(rows)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(square=True))
    def test_full_rank_iff_nonzero_det(self, rows):
        assert (row_reduce(rows).rank == len(rows)) == (det(IntMatrix.from_rows(rows)) != 0)

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(), st.data())
    def test_solve_consistent(self, rows, data):
        x0 = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows[0]), max_size=len(rows[0])))
        b = times(rows, x0)
        x, null = rational_solve(rows, b)
        assert all(canonical(QQ, c) for c in x)
        assert times(rows, x) == b
        assert null == rational_nullspace(rows)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(), st.data())
    def test_solve_inconsistent(self, rows, data):
        ncols = len(rows[0])
        b = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
        weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        # a combination of the rows whose rhs is the same combination plus one
        combo = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(ncols)]
        rhs = sum(w * c for w, c in zip(weights, b)) + 1
        assert rational_solve(rows + [combo], b + [rhs]) is None

    def test_empty_matrix(self):
        assert rational_nullspace([], ncols=2) == [[1, 0], [0, 1]]
        assert row_reduce([]).rank == 0


ODD_PRIMES = [p for p in range(3, 200) if all(p % q for q in range(2, p))]
MERSENNE_61 = 2**61 - 1


def in_bound_preimages(u, m):
    """Every n/d with |n|, d <= isqrt(m // 2) and n = d*u (mod m)."""
    bound = isqrt(m // 2)
    return {
        Fraction(n, d)
        for d in range(1, bound + 1)
        for n in range(-bound, bound + 1)
        if gcd(n, d) == 1 and (n - d * u) % m == 0
    }


class TestRationalReconstruction:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ODD_PRIMES), st.data())
    def test_matches_exhaustive_search(self, m, data):
        u = data.draw(st.integers(0, m - 1))
        found = in_bound_preimages(u, m)
        assert len(found) <= 1
        assert rational_reconstruction(u, m) == (found.pop() if found else None)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-isqrt(MERSENNE_61 // 2), isqrt(MERSENNE_61 // 2)),
           st.integers(1, isqrt(MERSENNE_61 // 2)))
    def test_inverts_in_bound_fractions(self, n, d):
        u = n * pow(d, -1, MERSENNE_61) % MERSENNE_61
        assert rational_reconstruction(u, MERSENNE_61) == Fraction(n, d)

    def test_failures_return_none(self):
        # 2 and 3 mod 5 have no preimage with |n|, d <= 1
        assert rational_reconstruction(2, 5) is None
        assert rational_reconstruction(3, 5) is None
        # a residue of a fraction just past the bound
        bound = isqrt(MERSENNE_61 // 2)
        u = pow(bound + 1, -1, MERSENNE_61)
        assert rational_reconstruction(u, MERSENNE_61) is None
        assert rational_reconstruction(0, 5) == 0 and rational_reconstruction(1, 5) == 1

    def test_lift_rows(self):
        assert MERSENNE_61 == linalg.P
        half = pow(2, -1, MERSENNE_61)
        assert linalg.lift([{"a": 1, "b": half}, {"c": MERSENNE_61 - 3}]) == [
            {"a": 1, "b": Fraction(1, 2)}, {"c": Fraction(-3)}]
        bound = isqrt(MERSENNE_61 // 2)
        assert linalg.lift([{"a": 1}, {"b": 1, "c": pow(bound + 1, -1, MERSENNE_61)}]) is None


def counted_intersections(calls):
    """``linalg._intersection`` wrapped to append one entry per call."""
    full = linalg._intersection

    def counted(*args):
        calls.append(args[2])
        return full(*args)

    return mock.patch.object(linalg, "_intersection", counted)


class TestJointIndependence:
    """``span_intersection`` skips the elimination when every row of A and B
    together is independent; the full ``_intersection`` is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FIELDS), st.sampled_from([linalg.P, 3]), span_pairs())
    def test_agrees_with_the_full_elimination(self, field, prime, pair):
        _, rows_a, rows_b = pair
        a = [sparse(r, field) for r in rows_a]
        b = [sparse(r, field) for r in rows_b]
        expected = reference_intersection(a, b, field)
        calls = []
        with mock.patch.object(linalg, "P", prime), counted_intersections(calls):
            assert linalg.span_intersection(a, b, field) == expected
        modulus = prime if field == QQ else field
        independent = minor_rank(rows_a + rows_b, modulus) == len(a) + len(b)
        assert bool(calls) == (not independent)
        if field == QQ and independent:
            # independent mod the prime, hence over Q: the intersection is 0
            assert expected == []

    def test_independent_over_q_but_dependent_mod_3_falls_through(self):
        # det [[1, 1], [1, 4]] = 3: a zero intersection over Q that mod 3 is
        # the whole line
        a, b = [{0: 1, 1: 1}], [{0: 1, 1: 4}]
        calls = []
        with mock.patch.object(linalg, "P", 3), counted_intersections(calls):
            assert linalg.span_intersection(a, b, QQ) == reference_intersection(a, b, QQ) == []
        assert calls == [QQ]  # no certificate mod 3, so the exact elimination
        a3, b3 = [sparse([1, 1], 3)], [sparse([1, 4], 3)]
        assert linalg.span_intersection(a3, b3, 3) == reference_intersection(a3, b3, 3) == [{0: 1, 1: 1}]

    def test_certificates_stop_at_the_first_dependent_row(self):
        seen = []

        def rows():
            for row in ({0: 1}, {1: 1}, {0: 2}, {2: 1}):
                seen.append(row)
                yield row

        for field in (QQ, 5):
            seen.clear()
            assert linalg.independent_echelon(rows(), field) is False
            assert len(seen) == 3

    @pytest.mark.parametrize("field", [QQ, 5])
    def test_rows_may_be_iterators(self, field):
        a = [sparse(r, field) for r in ([1, 2, 0, 0, 0], [0, 1, 1, 0, 0])]
        b = [sparse(r, field) for r in ([1, 3, 1, 0, 0], [0, 0, 0, 1, 0])]
        expected = reference_intersection(a, b, field)
        assert expected  # (1, 3, 1) = row 0 + row 1 of A
        assert linalg.span_intersection(a, b, field) == expected
        assert linalg.span_intersection(iter(a), iter(b), field) == expected
        assert linalg.span_intersection((r for r in a), (r for r in b[:1]), field) == [b[0]]


@st.composite
def sparse_row_lists(draw, field):
    """Up to 5 random sparse rows in ``field`` on int keys 0..5 or on tuple
    keys (0..2, 0..2), over Q with denominators 1 to 6, sometimes followed by
    a combination of them, so that both answers occur."""
    keys = draw(st.sampled_from([list(range(6)), [(i, j) for i in range(3) for j in range(3)]]))
    entry = (st.fractions(-3, 3, max_denominator=6) if field == QQ else st.integers(-3, 3)).filter(bool)
    rows = []
    for raw in draw(st.lists(st.dictionaries(st.sampled_from(keys), entry, min_size=1, max_size=4), max_size=5)):
        rows.append({k: c for k, x in raw.items() if (c := coeff_of(field, x))})
    if rows and draw(st.booleans()):
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        rows.append(linalg.combination({i: coeff_of(field, w) for i, w in enumerate(weights) if w}, rows, field))
    return rows


def sparse_rank(rows, field):
    rr = SparseRREF(field)
    for row in rows:
        rr.add(row)
    return rr.rank


class TestIndependentEchelon:
    """``independent_echelon`` against the rank of the full ``SparseRREF``."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 5, 32003]), st.data())
    def test_agrees_with_the_rank_over_fp(self, field, data):
        rows = data.draw(sparse_row_lists(field))
        assert linalg.independent_echelon(rows, field) == (sparse_rank(rows, field) == len(rows))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 5]), sparse_row_lists(QQ))
    def test_over_q_true_means_full_rank(self, prime, rows):
        # with a small P both outcomes occur on rows independent over Q
        with mock.patch.object(linalg, "P", prime):
            certified = linalg.independent_echelon(rows, QQ)
            mod_p = linalg.residues(rows)
        assert certified == (mod_p is not None and sparse_rank(mod_p, prime) == len(rows))
        if certified:
            assert sparse_rank(rows, QQ) == len(rows)

    @pytest.mark.parametrize("prime, expected", [(3, False), (5, True), (linalg.P, True)])
    def test_independent_over_q_certified_iff_independent_mod_p(self, prime, expected):
        # det [[1, 1], [1, 4]] = 3
        with mock.patch.object(linalg, "P", prime):
            assert linalg.independent_echelon([{0: 1, 1: 1}, {0: 1, 1: 4}], QQ) is expected

    @pytest.mark.parametrize("field", FIELDS)
    def test_edge_cases(self, field):
        one = coeff_of(field, 1)
        assert linalg.independent_echelon([], field) is True
        assert linalg.independent_echelon([{}], field) is False
        assert linalg.independent_echelon([{(0, 1): one}, {}], field) is False
        assert linalg.independent_echelon([{3: one}, {1: one, 3: one}], field) is True

    def test_denominator_divisible_by_p_gives_false(self):
        with mock.patch.object(linalg, "P", 3):
            assert linalg.independent_echelon([{0: 1}, {1: Fraction(1, 6)}], QQ) is False
            assert linalg.independent_echelon([{0: 1}, {1: Fraction(1, 5)}], QQ) is True
        assert linalg.independent_echelon([{0: Fraction(1, linalg.P)}], QQ) is False

    def test_rows_are_not_modified(self):
        rows = [{0: 1, 1: 2}, {1: 3, 0: 1}]
        linalg.independent_echelon(rows, 5)
        assert rows == [{0: 1, 1: 2}, {1: 3, 0: 1}]


@st.composite
def pinned_systems(draw, field):
    """A sparse system on keys 0..9 whose singleton presolve has work to do:
    random rows, planted one-term rows (some duplicated), cascades that
    become one-term only once the key before them is pinned, rows that vanish
    after peeling, and empty rows, shuffled."""
    entry = (st.fractions(-3, 3, max_denominator=4) if field == QQ else st.integers(-3, 3)).map(
        lambda x: coeff_of(field, x)).filter(bool)
    keys = st.integers(0, 9)
    rows = [dict(r) for r in draw(st.lists(st.dictionaries(keys, entry, min_size=2, max_size=4), max_size=6))]
    planted = draw(st.lists(keys, max_size=4, unique=True))
    rows += [{k: draw(entry)} for k in planted for _ in range(draw(st.integers(1, 2)))]
    chain = draw(st.lists(keys, max_size=4, unique=True))
    rows += [{a: draw(entry), b: draw(entry)} for a, b in zip(chain, chain[1:])]
    if chain:
        rows.append({chain[0]: draw(entry)})
    pinned = planted + chain
    if pinned:
        rows += [{k: draw(entry) for k in draw(st.lists(st.sampled_from(pinned), min_size=1, max_size=3))}
                 for _ in range(draw(st.integers(0, 2)))]
    rows += [{}] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


def plain_null_basis(rows, variables, field):
    rr = SparseRREF(field)
    for row in rows:
        if row:
            rr.add(row)
    return rr.null_basis(variables)


class TestSparseNullspace:
    """The singleton presolve of ``sparse_nullspace`` against a plain
    ``SparseRREF`` of every row."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([QQ, 2, 5, 32003]), st.data())
    def test_matches_the_plain_elimination(self, field, data):
        rows = data.draw(pinned_systems(field))
        copies = [dict(r) for r in rows]
        variables = data.draw(st.sampled_from([range(10), range(12)]))
        assert linalg.sparse_nullspace(rows, variables, field) == plain_null_basis(rows, variables, field)
        assert rows == copies  # the caller's rows are not modified

    @pytest.mark.parametrize("field", [QQ, 2, 5, 32003])
    def test_edge_cases(self, field):
        one, two = coeff_of(field, 1), coeff_of(field, 3)
        ns = linalg.sparse_nullspace
        assert ns([{0: one}, {1: two}, {2: one}], range(3), field) == []  # every variable pinned
        assert ns([{0: one, 1: one}, {1: one}], range(2), field) == []  # pinned by a cascade
        assert ns([{}, {}], range(2), field) == [{0: one}, {1: one}]  # empty rows
        assert ns([{1: one}, {1: two}, {1: one}], range(3), field) == [{0: one}, {2: one}]  # duplicates
        # rows that vanish once 0 and 1 are pinned
        assert ns([{0: one}, {1: one}, {0: one, 1: two}, {0: two, 1: one}], range(3), field) == [{2: one}]
        assert ns([], range(2), field) == [{0: one}, {1: one}]

    @staticmethod
    def added_rows(rows, variables):
        """The rows that ``sparse_nullspace`` hands to ``SparseRREF.add``, and its basis."""
        added = []
        add = SparseRREF.add

        def spy(self, vec):
            added.append(dict(vec))
            return add(self, vec)

        with mock.patch.object(SparseRREF, "add", spy):
            null = linalg.sparse_nullspace(rows, variables, QQ)
        return added, null

    def test_pinned_variables_never_reach_the_elimination(self):
        rows = [{0: 1}, {0: 2, 1: 1}, {1: 1, 2: 1, 3: 1}, {2: 1, 3: 2, 4: 1}, {4: 1, 1: 5}]
        added, null = self.added_rows(rows, range(6))
        # 0 pins 1, and 1 then pins 4; only the rows on 2 and 3 are eliminated
        assert added == [{2: 1, 3: 1}, {2: 1, 3: 2}]
        assert null == [{5: Fraction(1)}]

    def test_elimination_stops_at_full_column_rank(self):
        # the three sparsest rows have rank 3 (det 3); the two after them depend on them
        rows = [{0: 1, 1: 2, 2: 1}, {0: 1, 1: 1}, {1: 1, 2: 1}, {0: 2, 1: 1, 2: 3}, {0: 1, 2: 2}]
        added, null = self.added_rows(rows, range(3))
        assert added == [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 2}]
        assert null == []


class TestResidues:
    """``residues`` reduces ``int`` entries with ``%``; ``coeff_of`` is the
    oracle for every entry."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 5, linalg.P]), st.lists(st.dictionaries(
        st.integers(0, 5), st.one_of(st.integers(-10**20, 10**20), st.fractions(max_denominator=12)), max_size=4),
        max_size=4))
    def test_matches_coeff_of(self, prime, rows):
        with mock.patch.object(linalg, "P", prime):
            got = linalg.residues(rows)
        try:
            expected = [{k: r for k, c in row.items() if (r := coeff_of(prime, c))} for row in rows]
        except ZeroDivisionError:
            expected = None
        assert got == expected
        if got is not None:
            assert all(type(r) is int for row in got for r in row.values())
