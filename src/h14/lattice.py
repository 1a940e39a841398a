"""Exact integer linear algebra on exponent vectors.

Determinants (fraction-free), Smith normal form with unimodular
transforms and its integer certificate, unit-row solving and left kernels
read off the Smith form, and subgroup/coset structure of Z^n.  Integers
only, of arbitrary precision, throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import PreconditionError, UsageError, check_int, int_vector


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    @classmethod
    def from_rows(cls, rows):
        rows = [int_vector(r, "matrix") for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise UsageError("ragged rows")
        else:
            ncols = 0
        return cls(len(rows), ncols, tuple(rows))

    @classmethod
    def identity(cls, n):
        return cls.from_rows([[int(i == j) for j in range(n)] for i in range(n)])

    @cached_property
    def columns(self):
        """The columns as tuples, computed once (a cached value, not a field)."""
        if not self.rows:
            return ((),) * self.cols
        return tuple(zip(*self.entries))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def is_square(self):
        return self.rows == self.cols

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise UsageError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix(self.rows, other.cols, tuple(row_times_matrix(r, other) for r in self.entries))

    def to_lists(self):
        return [list(r) for r in self.entries]


def row_times_matrix(vec, m: IntMatrix):
    if len(vec) != m.rows:
        raise UsageError(f"row of length {len(vec)} times {m.rows}x{m.cols} matrix")
    return tuple([sum(map(mul, vec, col)) for col in m.columns])


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise UsageError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return 0
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """D = U A V with U, V unimodular and D diagonal (divisibility chain).
    No V^-1 is stored: row j of U A = D V^-1 is d_j times row j of V^-1."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @cached_property
    def invariants(self):
        r = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(r) if self.d.entries[i][i] != 0)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """D = U m V by one pivot rule (Kannan-Bachem; Cohen, section 2.4.4).

    At step t the entry of least absolute value in the lower-right block
    moves to (t, t) and reduces its column and row.  A nonzero remainder is
    smaller than the pivot and becomes the next one; once row and column t
    are clear, a row holding an entry the pivot does not divide is added to
    row t, which leaves such a remainder.  |pivot| drops every round, so the
    loop ends, and the pivot then divides everything after it.  Row steps
    act on A and U, column steps on A and V.
    """
    k, n = m.rows, m.cols
    a = m.to_lists()
    u = IntMatrix.identity(k).to_lists()
    v = IntMatrix.identity(n).to_lists()

    def add_row(i, j, c):  # row i += c * row j, on A and U
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(j, i, c):  # col j += c * col i, on A and V
        for r in a + v:
            r[j] += c * r[i]

    t = 0
    while t < min(k, n):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, k) for j in range(t, n) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
        for r in a + v:
            r[t], r[j] = r[j], r[t]
        p = a[t][t]
        for i in range(t + 1, k):
            add_row(i, t, -(a[i][t] // p))
        for j in range(t + 1, n):
            add_col(j, t, -(a[t][j] // p))
        if any(a[i][t] for i in range(t + 1, k)) or any(a[t][t + 1:]):
            continue
        bad = next((i for i in range(t + 1, k) if any(x % p for x in a[i][t + 1:])), None)
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if p < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
        t += 1
    as_mat = lambda rows, nc: IntMatrix(len(rows), nc, tuple(tuple(r) for r in rows))
    return SmithForm(as_mat(a, n), as_mat(u, k), as_mat(v, n))


def smith_certificate(m: IntMatrix, sf: SmithForm) -> bool:
    """Whether ``sf`` is a Smith form of ``m``, checked in integers.

    It holds when U m V = D, |det U| = |det V| = 1 and D is diagonal with
    d_1 | d_2 | ... >= 0 (0 divides only 0).  An integer V with |det V| = 1
    is invertible over Z, so the row span H of m is {x D V^-1}: v lies in H
    exactly when coordinate j of v V is a multiple of d_j, and 0 past the
    rank.  ``CosetDecomposition`` takes those multiples off v along the rows
    of U m = D V^-1, so for every v in Z^n: v - rep(v) lies in H, rep is
    idempotent, and rep(v + g) = rep(v) for every g in H.
    """
    d = sf.d
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    return (
        sf.u * m * sf.v == d
        and abs(det(sf.u)) == 1
        and abs(det(sf.v)) == 1
        and all(x >= 0 if i == j else x == 0 for i, row in enumerate(d.entries) for j, x in enumerate(row))
        and all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    )


def solve_unit_row(t: IntMatrix, i: int):
    """Integer row vector s and least positive m with ``s . t = m e_i``.

    ``i`` is a 0-based row index.  Read off the Smith form D = U t V: with
    w = s U^-1, s . t = m e_i holds exactly when w D = m (row i of V), that is
    w_j = m V_ij / d_j.  So m = lcm_j(d_j / gcd(d_j, V_ij)) is the least
    positive m with an integer w, and s = w U.
    """
    if not t.is_square:
        raise UsageError(f"solve_unit_row needs a square matrix, got {t.rows}x{t.cols}")
    check_int(i, "row index", 0, t.rows - 1)
    sf = smith_normal_form(t)
    d = sf.invariants
    if len(d) < t.rows:
        raise PreconditionError("matrix is singular")
    vi = sf.v.entries[i]
    m = lcm(*(dj // gcd(dj, x) for dj, x in zip(d, vi)))
    return m, row_times_matrix([m * x // dj for dj, x in zip(d, vi)], sf.u)


def left_kernel(m: IntMatrix):
    """A basis of {x in Z^k : x m = 0}, first nonzero entries positive: rows
    r, r+1, ... of U for D = U m V of rank r (those rows of D = (U m) V are
    zero, and U is unimodular, so they are primitive and span the kernel)."""
    sf = smith_normal_form(m)
    rows = sf.u.entries[len(sf.invariants):]
    return [row if next(x for x in row if x) > 0 else tuple(-x for x in row) for row in rows]


# ---------------------------------------------------------------------------
# coset decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetDecomposition:
    """Subgroup H of Z^n with canonical coset representatives.

    For the Smith form D = U A V of the generator matrix A and w = v V, the
    representative is rep(v) = v - sum_j floor(w_j / d_j) (U A)_j over the
    coordinates j below the rank.  Row j of U A = D V^-1 is d_j times row j
    of V^-1, so coordinate j of rep(v) V is w_j mod d_j below the rank and
    w_j past it: rep(v) == rep(w) iff v - w lies in H, and rep vanishes
    exactly on H.
    """

    ambient: int
    generators: IntMatrix
    smith: SmithForm

    @cached_property
    def _reduction(self):
        """(column j of V, d_j, row j of U A) for each coordinate j below the
        rank, computed once.  A coordinate with d_j = 1 is kept: rep takes
        all of w_j off v along its row."""
        sf = self.smith
        return tuple(zip(sf.v.columns, sf.invariants, (sf.u * self.generators).entries))

    def _representative(self, vec):
        if len(vec) != self.ambient:
            raise UsageError(f"vector of length {len(vec)} in Z^{self.ambient}")
        rep = list(vec)
        for col, d, row in self._reduction:
            q = sum(map(mul, vec, col)) // d
            if q:
                rep = [x - q * y for x, y in zip(rep, row)]
        return tuple(rep)

    def contains(self, vec) -> bool:
        # the helper, not ``representative``: a traced query counts once
        return not any(self._representative(vec))

    def representative(self, vec):
        return self._representative(vec)


def coset_decomposition(generators, ambient: int) -> CosetDecomposition:
    """Coset structure of the subgroup of Z^ambient spanned by the generators."""
    gens = [int_vector(g, "generator") for g in generators]
    for g in gens:
        if len(g) != ambient:
            raise UsageError(f"generator {g} has length != {ambient}")
    mat = IntMatrix(len(gens), ambient, tuple(gens)) if gens else IntMatrix(0, ambient, ())
    return CosetDecomposition(ambient, mat, smith_normal_form(mat))
