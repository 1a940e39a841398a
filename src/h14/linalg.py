"""Exact linear algebra helpers.

Dense routines work over Q with ``fractions.Fraction`` entries and are used
for small systems (extreme rays, unit-row solves, rank checks).  The sparse
reduced-row-echelon machinery works over either coefficient field (Fraction
entries over Q, ints in ``range(p)`` over F_p) through the field layer of
:mod:`h14.laurent`, with sortable keys, and backs the graded-intersection and
derivation-kernel computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .laurent import _axpy, coeff_of, inverse


# ---------------------------------------------------------------------------
# dense rational routines
# ---------------------------------------------------------------------------


def _as_fraction_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def row_reduce(rows):
    """Reduced row echelon form over Q.

    Returns ``(mat, pivots)`` where pivots is a list of column indices,
    one per nonzero row of ``mat``.
    """
    mat = _as_fraction_matrix(rows)
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rational_rank(rows) -> int:
    return len(row_reduce(rows)[1])


def rational_nullspace(rows, ncols=None):
    """Basis of ``{x : A x = 0}`` (right nullspace), canonical order."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("need ncols for an empty matrix")
    mat, pivots = row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -mat[r][f]
        basis.append(vec)
    return basis


def rational_solve(rows, rhs):
    """Solve ``A x = b`` exactly.

    Returns ``(particular, nullspace_basis)`` with free variables set to 0,
    or ``None`` when the system is inconsistent.
    """
    if not rows:
        return [ ], []
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    mat, pivots = row_reduce(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = mat[r][ncols]
    return x, rational_nullspace(rows, ncols)


def primitive_vector(vec):
    """Clear denominators and divide by the content; the sign is normalized so
    that the first nonzero entry is positive."""
    fracs = [Fraction(x) for x in vec]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# sparse reduction over an arbitrary exact field
# ---------------------------------------------------------------------------


class SparseRREF:
    """Incremental reduced row echelon form on sparse rows.

    Rows are dicts mapping sortable keys to nonzero field elements.  The
    pivot of a row is its smallest key; inserted rows are kept mutually
    reduced, so the stored rows form a canonical basis of the span.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot key -> normalized row dict

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> dict:
        """Residue of ``vec`` after reduction by the current rows (a copy)."""
        out = dict(vec)
        while True:
            hits = [k for k in out if k in self.rows]
            if not hits:
                return out
            k = min(hits)
            _axpy(out, -out[k], self.rows[k], self.field)

    def add(self, vec):
        """Insert ``vec``; returns its pivot key, or None if dependent."""
        res = self.reduce(vec)
        if not res:
            return None
        k = min(res)
        row = {}
        _axpy(row, inverse(self.field, res[k]), res, self.field)
        # back-substitute into existing rows for full RREF
        for prow in self.rows.values():
            c = prow.get(k)
            if c:
                _axpy(prow, -c, row, self.field)
        self.rows[k] = row
        return k

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def basis(self):
        """Canonical basis rows sorted by pivot key."""
        return [dict(self.rows[k]) for k in sorted(self.rows)]


def sparse_nullspace(constraints, variables, field):
    """Nullspace of a sparse constraint system.

    ``constraints`` is an iterable of dicts mapping variable keys to field
    coefficients; each represents one homogeneous equation.  Returns a
    canonical basis of solution vectors (dicts over ``variables``), ordered
    by ascending free variable.
    """
    rr = SparseRREF(field)
    for row in constraints:
        if row:
            rr.add(row)
    pivots = set(rr.rows)
    basis = []
    one = coeff_of(field, 1)
    for f in sorted(variables):
        if f in pivots:
            continue
        vec = {f: one}
        for p, row in rr.rows.items():
            c = row.get(f)
            if c:
                vec[p] = coeff_of(field, -c)
        basis.append(vec)
    return basis


def span_intersection(rows_a, rows_b, field):
    """Intersection of two spans of sparse vectors.

    Returns ``(dim_a, dim_b, inter_basis)`` where ``inter_basis`` is a
    canonical (RREF) basis of span(rows_a) & span(rows_b).
    """
    ra = SparseRREF(field)
    for r in rows_a:
        ra.add(r)
    # B is stored over the same ("m", key)-wrapped coordinates used below
    rb = SparseRREF(field)
    for r in rows_b:
        rb.add({("m", k): v for k, v in r.items()})
    basis_a = ra.basis()
    # Zassenhaus-style: reduce A's basis by B, tag with indicator coordinates;
    # relations among the residues yield intersection elements.
    tagged = SparseRREF(field)
    inter = SparseRREF(field)
    one = coeff_of(field, 1)
    for i, arow in enumerate(basis_a):
        res = rb.reduce({("m", k): v for k, v in arow.items()})
        res[("t", i)] = one
        tagged.add(res)
    for pk in sorted(tagged.rows):
        if pk[0] != "t":
            continue
        combo = tagged.rows[pk]
        elem = {}
        for (kind, i), c in combo.items():
            if kind != "t":
                continue
            _axpy(elem, c, basis_a[i], field)
        if elem:
            inter.add(elem)
    return ra.rank, rb.rank, inter.basis()
