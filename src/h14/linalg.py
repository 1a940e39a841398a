"""Exact linear algebra.

``SparseRREF`` is the one elimination engine: an incremental reduced row
echelon form on sparse rows with sortable keys, over either coefficient field
(Fraction entries over Q, ints in ``range(p)`` over F_p) through the field
layer of :mod:`h14.laurent`.  It backs the graded-intersection and
derivation-kernel computations directly.  ``row_reduce``,
``rational_nullspace`` and ``rational_solve`` are thin adapters that feed it
dense rows over Q, keyed by column index, for the small systems of the monoid
and lattice code (extreme rays, unit-row solves, rank checks); their outputs
are ``Fraction`` lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .laurent import QQ, _axpy, coeff_of, inverse

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# dense rows over Q
# ---------------------------------------------------------------------------


def row_reduce(rows) -> SparseRREF:
    """Reduced row echelon form over Q of dense rows, keyed by column index."""
    rr = SparseRREF(QQ)
    for row in rows:
        rr.add({j: x for j, x in enumerate(row) if x})
    return rr


def _dense(vecs, ncols):
    return [[v.get(j, _ZERO) for j in range(ncols)] for v in vecs]


def rational_nullspace(rows, ncols=None):
    """Basis of ``{x : A x = 0}`` (right nullspace), canonical order."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("need ncols for an empty matrix")
    return _dense(row_reduce(rows).null_basis(range(ncols)), ncols)


def rational_solve(rows, rhs):
    """Solve ``A x = b`` exactly.

    Returns ``(particular, nullspace_basis)`` with free variables set to 0,
    or ``None`` when the system is inconsistent.  One reduction of [A | b]
    gives both: the rhs column has the largest key, so it is a pivot only
    when the system is inconsistent, and otherwise the reduced rows cut to
    the columns of A are the reduced row echelon form of A.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    rr = row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in rr.rows:
        return None
    x = [rr.rows.get(j, {}).get(ncols, _ZERO) for j in range(ncols)]
    return x, _dense(rr.null_basis(range(ncols)), ncols)


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
        """Residue of ``vec`` after reduction by the current rows (a copy).

        Every stored row vanishes at every other pivot, so one pass that
        subtracts ``vec[k]`` times the row of each pivot key ``k`` of ``vec``
        leaves the unique residue.
        """
        out = dict(vec)
        for k, c in vec.items():
            row = self.rows.get(k)
            if row is not None:
                _axpy(out, -c, row, self.field)
        return out

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

    def null_basis(self, variables):
        """Canonical basis of the solutions of the stored rows, read as
        homogeneous equations in ``variables``: one vector per free variable,
        in ascending order, with 1 there and minus each pivot row's entry
        there at that row's pivot."""
        one = coeff_of(self.field, 1)
        basis = {f: {f: one} for f in sorted(variables) if f not in self.rows}
        for p, row in self.rows.items():
            for f, c in row.items():
                vec = basis.get(f)
                if vec is not None:
                    vec[p] = coeff_of(self.field, -c)
        return list(basis.values())


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
    return rr.null_basis(variables)


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
