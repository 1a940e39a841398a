"""Exact integer linear algebra on exponent vectors.

Determinants (fraction-free), unit-row solving with least positive
denominator clearing, Smith normal form with unimodular transforms, and
subgroup/coset structure of Z^n.  Arbitrary-precision integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .errors import ShapeError, SingularMatrixError, UsageError, int_vector
from .linalg import rational_solve


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
                raise ShapeError("ragged rows")
        else:
            ncols = 0
        return cls(len(rows), ncols, tuple(rows))

    @classmethod
    def identity(cls, n):
        return cls.from_rows([[int(i == j) for j in range(n)] for i in range(n)])

    def row(self, i):
        return self.entries[i]

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
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix(self.rows, other.cols, tuple(row_times_matrix(r, other) for r in self.entries))

    def to_lists(self):
        return [list(r) for r in self.entries]


def row_times_matrix(vec, m: IntMatrix):
    if len(vec) != m.rows:
        raise ShapeError(f"row of length {len(vec)} times {m.rows}x{m.cols} matrix")
    return tuple([sum(map(mul, vec, col)) for col in m.columns])


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ShapeError(f"determinant of non-square {m.rows}x{m.cols} matrix")
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


def solve_unit_row(t: IntMatrix, i: int):
    """Integer row vector s and least positive m with ``s . t = m e_i``.

    ``i`` is a 0-based row index.  m is the lcm of the denominators of the
    unique rational solution, which makes it the least positive integer
    admitting an integer solution.
    """
    if not t.is_square:
        raise ShapeError(f"solve_unit_row needs a square matrix, got {t.rows}x{t.cols}")
    n = t.rows
    if not 0 <= i < n:
        raise UsageError(f"row index {i} out of range for size {n}")
    if det(t) == 0:
        raise SingularMatrixError("matrix is singular")
    # x . t = e_i  <=>  t^T x^T = e_i^T
    rhs = [Fraction(int(j == i)) for j in range(n)]
    sol = rational_solve([list(c) for c in t.columns], rhs)
    if sol is None:
        raise ArithmeticError("a nonsingular system has no rational solution")
    x, _ = sol
    m = 1
    for f in x:
        m = m * f.denominator // gcd(m, f.denominator)
    s = tuple(int(f * m) for f in x)
    return m, s


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """D = U A V with U, V unimodular and D diagonal (divisibility chain)."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix

    @cached_property
    def invariants(self):
        r = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(r) if self.d.entries[i][i] != 0)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    k, n = m.rows, m.cols
    a = m.to_lists()
    u = IntMatrix.identity(k).to_lists()
    v = IntMatrix.identity(n).to_lists()
    vinv = IntMatrix.identity(n).to_lists()

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_add(i, j, c):  # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(j, i, c):  # col j += c * col i ; V = V*E, Vinv = E^-1 * Vinv
        for r in a:
            r[j] += c * r[i]
        for r in v:
            r[j] += c * r[i]
        vinv[i] = [x - c * y for x, y in zip(vinv[i], vinv[j])]

    def col_neg(j):
        for r in a:
            r[j] = -r[j]
        for r in v:
            r[j] = -r[j]
        vinv[j] = [-x for x in vinv[j]]

    def nonzero_in(t):
        best = None
        for i in range(t, k):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(k, n):
        pos = nonzero_in(t)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            row_swap(t, i0)
        if j0 != t:
            col_swap(t, j0)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, k):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)  # smaller remainder becomes the pivot
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining submatrix
            bad = None
            for i in range(t + 1, k):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        if a[t][t] < 0:
            row_neg(t)
        t += 1
    # the pivot-divides-submatrix step above already yields the chain d_i | d_{i+1}
    as_mat = lambda rows, nc: IntMatrix(len(rows), nc, tuple(tuple(r) for r in rows))
    return SmithForm(as_mat(a, n), as_mat(u, k), as_mat(v, n), as_mat(vinv, n))


# ---------------------------------------------------------------------------
# coset decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetDecomposition:
    """Subgroup H of Z^n with canonical coset representatives.

    The representative of v is the unique vector whose image under the Smith
    column transform has coordinates reduced modulo the diagonal invariants;
    rep(v) == rep(w) iff v - w lies in H, and rep vanishes exactly on H.
    """

    ambient: int
    generators: IntMatrix
    smith: SmithForm

    @cached_property
    def _reduction(self):
        """The Smith data that coset queries need, computed once.

        Coordinate j of v V is reduced modulo the j-th invariant d_j and must
        vanish past the rank.  Coordinates with d_j = 1 always reduce to 0,
        so only the others are kept: (V columns, moduli) of the torsion
        coordinates, V columns of the free coordinates, and the columns of
        V^-1 restricted to the rows of the kept coordinates.
        """
        inv = self.smith.invariants
        r = len(inv)
        kept = [j for j, d in enumerate(inv) if d != 1]
        v_cols = self.smith.v.columns
        back_rows = tuple(self.smith.v_inv.entries[j] for j in kept + list(range(r, self.ambient)))
        return (
            tuple(v_cols[j] for j in kept),
            tuple(inv[j] for j in kept),
            v_cols[r:],
            IntMatrix(len(back_rows), self.ambient, back_rows).columns,
        )

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise ShapeError(f"vector of length {len(vec)} in Z^{self.ambient}")
        torsion_cols, moduli, free_cols, _ = self._reduction
        for col, d in zip(torsion_cols, moduli):
            if sum(map(mul, vec, col)) % d:
                return False
        for col in free_cols:
            if sum(map(mul, vec, col)):
                return False
        return True

    def representative(self, vec):
        if len(vec) != self.ambient:
            raise ShapeError(f"vector of length {len(vec)} in Z^{self.ambient}")
        torsion_cols, moduli, free_cols, back_cols = self._reduction
        w = [sum(map(mul, vec, col)) % d for col, d in zip(torsion_cols, moduli)]
        w += [sum(map(mul, vec, col)) for col in free_cols]
        return tuple([sum(map(mul, w, col)) for col in back_cols])

    @property
    def rank(self) -> int:
        return len(self.smith.invariants)


def coset_decomposition(generators, ambient: int) -> CosetDecomposition:
    """Coset structure of the subgroup of Z^ambient spanned by the generators."""
    gens = [int_vector(g, "generator") for g in generators]
    for g in gens:
        if len(g) != ambient:
            raise ShapeError(f"generator {g} has length != {ambient}")
    mat = IntMatrix(len(gens), ambient, tuple(gens)) if gens else IntMatrix(0, ambient, ())
    return CosetDecomposition(ambient, mat, smith_normal_form(mat))
