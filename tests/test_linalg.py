"""The one elimination engine: SparseRREF and its dense adapters over Q.

Oracles are independent of the engine: the residue of the rescanning
reduction, ranks read from the largest nonvanishing minor (Bareiss
determinants of ``lattice.det``), and direct matrix-vector products.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from hypothesis import given, settings, strategies as st

from h14.lattice import IntMatrix, det
from h14.laurent import QQ, _axpy, coeff_of
from h14.linalg import SparseRREF, rational_nullspace, rational_solve, row_reduce

FIELDS = [QQ, 2, 3, 5, 32003]
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


class TestDenseAdapters:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_nullspace(self, rows):
        ncols = len(rows[0])
        null = rational_nullspace(rows)
        for v in null:
            assert all(isinstance(x, Fraction) for x in v)
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
        assert all(isinstance(c, Fraction) for c in x)
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
