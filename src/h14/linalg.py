"""Exact linear algebra.

``SparseRREF`` is the one elimination engine: an incremental reduced row
echelon form on sparse rows with sortable keys, over either coefficient field
(over Q an ``int`` when integral and a ``Fraction`` otherwise, ints in
``range(p)`` over F_p) through the field layer of :mod:`h14.laurent`.  It
backs the intersection computations of :mod:`h14.intersect` directly.
``row_reduce``, ``rational_nullspace`` and ``rational_solve`` feed it dense
rows over Q, keyed by column index, and return lists of such rationals.  No
module of the package calls them any more (:mod:`h14.lattice` and
:mod:`h14.monoid` read their answers off the Smith form); they remain as the
exact rational oracles of the lattice and monoid tests and as the dense
layer the benchmark traces.

Modular layer over Q: ``residues`` reduces rows modulo the prime ``P`` =
2^61 - 1, the elimination runs over F_P, ``lift`` takes its rows back to Q by
rational reconstruction (Wang's algorithm, ``rational_reconstruction``), and
the caller certifies the lifted rows exactly, falling back to ``Fraction``
elimination when a residue, a lift or a check fails.  Only the pi-engine of
:mod:`h14.intersect` lifts.  Every other answer over Q is either certified
without a lift or computed exactly.  Rows independent mod P are independent
over Q, so an elimination mod P that finds full rank certifies it.
``independent_echelon`` is the one certificate here: a yes or no from an
echelon form on each row's largest key, with no back-substitution; it
certifies a zero intersection (``span_intersection``).  The generator count
and the units check of :mod:`h14.intersect` eliminate exactly, in the field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .laurent import QQ, _axpy, coeff_of, inverse

# The prime of modular elimination over Q (a Mersenne prime, 2^61 - 1).
P = 2**61 - 1


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
    return [[v.get(j, 0) for j in range(ncols)] for v in vecs]


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
    x = [rr.rows.get(j, {}).get(ncols, 0) for j in range(ncols)]
    return x, _dense(rr.null_basis(range(ncols)), ncols)


def rational_reconstruction(u, m):
    """The fraction n/d with n = d*u (mod m), |n| <= N and 0 < d <= N for
    N = isqrt(m // 2), or None if there is none (Wang's algorithm); an
    ``int`` when d = 1, as the field layer stores rationals.

    For an odd m, 2*N*N < m, so such a fraction is unique when it exists.
    The extended Euclidean algorithm on (m, u) stops at the first remainder
    r <= N; its cofactor s gives the only candidate r/s.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, u % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not 0 < abs(s1) <= bound or gcd(r1, s1) != 1:
        return None
    return r1 * s1 if abs(s1) == 1 else Fraction(r1, s1)


def residues(rows):
    """Every row mod P, zeros dropped; None if a denominator is divisible by P.

    ``int`` entries reduce with ``%``; only ``Fraction`` entries need
    ``coeff_of`` and its inverse mod P."""
    try:
        return [{k: r for k, c in row.items() if (r := c % P if type(c) is int else coeff_of(P, c))}
                for row in rows]
    except ZeroDivisionError:
        return None


def lift(rows):
    """Rational reconstruction mod P of every entry of every row; None if one
    fails."""
    out = []
    for row in rows:
        lifted = {}
        for k, c in row.items():
            lifted[k] = rational_reconstruction(c, P)
            if lifted[k] is None:
                return None
        out.append(lifted)
    return out


# ---------------------------------------------------------------------------
# sparse reduction over an arbitrary exact field
# ---------------------------------------------------------------------------


class SparseRREF:
    """Incremental reduced row echelon form on sparse rows.

    Rows are dicts mapping sortable keys to nonzero field elements, which
    must already be in the field layer's form (``coeff_of``): ``add`` and
    ``reduce`` coerce no entry, so over F_p a ``Fraction`` would stay one.
    The pivot of a row is its smallest key; inserted rows are kept mutually
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

    Singleton presolve first (Andersen and Andersen, 1995): a one-term
    constraint pins its variable to 0, so the pinned variables are dropped
    from every constraint until no one-term constraint is left, and only the
    rest is eliminated, sparsest first.  The answer is the same: the unit
    row {b: 1} lies in the row space and vanishes at every other pivot, so it
    is the RREF row of b, and no other RREF row and no null vector holds b.

    Every key of a constraint must be one of ``variables``.  The surviving
    rows then lie in the unpinned variables, so once each of them is a pivot
    every later row is dependent and the elimination stops: the basis is
    empty either way.
    """
    rows, pinned = [row for row in constraints if row], set()
    while single := {k for row in rows if len(row) == 1 for k in row}:
        pinned |= single
        rows = [row if pinned.isdisjoint(row) else {k: c for k, c in row.items() if k not in pinned}
                for row in rows if len(row) > 1]
        rows = [row for row in rows if row]
    unpinned = [v for v in variables if v not in pinned]
    rr = SparseRREF(field)
    for row in sorted(rows, key=len):  # sparsest first: less fill, same RREF
        if rr.rank == len(unpinned):
            break
        rr.add(row)
    return rr.null_basis(unpinned)


def combination(coeffs, vecs, field):
    """The sparse vector sum of c * vecs[i] over the entries i: c of
    ``coeffs``, each c coerced into ``field`` first."""
    out = {}
    for i, c in coeffs.items():
        _axpy(out, coeff_of(field, c), vecs[i], field)
    return out


def span_intersection(rows_a, rows_b, field):
    """The canonical (RREF) basis of span(rows_a) & span(rows_b), a list of
    sparse vectors.  The rows may be any iterables; they are read once.
    First one joint test: if all rows of A and B together are independent
    (``independent_echelon``, mod P over Q), the intersection is 0;
    otherwise both spans and their intersection are eliminated exactly in
    ``field``.  The test needs only the rank, so it keeps no RREF.
    """
    rows_a, rows_b = list(rows_a), list(rows_b)
    if independent_echelon(rows_a + rows_b, field):
        return []
    return _intersection(rows_a, rows_b, field)


def independent_echelon(rows, field) -> bool:
    """A certificate that ``rows`` are linearly independent over ``field``:
    True, or False at the first row that depends on those before it.

    Rank only, by an echelon form without back-substitution.  While the
    largest key of a row leads a stored row, the row takes away that row
    times its own entry there over the stored row's; it is then stored,
    unnormalised, under its new leading key.  Stored rows have pairwise
    distinct leading keys, so they are independent; each step adds only keys
    below the one it removes, so the reduction ends.  The largest key, not
    the smallest: packed keys add under multiplication, so the largest key
    of a product is the sum of its factors' largest keys, and products of
    generators whose leading terms are independent lead with distinct keys.
    Generators that share their smallest term (x - a^2, x - b^2, ...) would
    collide there at every degree.

    Over F_p the echelon form is computed in the field and False means
    dependent.  Over Q each row is reduced mod P as it is read; False then
    means only that no certificate was found: a row is dependent mod P, or P
    divides a denominator.  Rows independent mod P are independent over Q:
    a rational dependence, cleared to coprime integers, has a coefficient
    that is a unit mod P and stays a dependence mod P.
    """
    modulus = P if field == QQ else field
    lead = {}  # leading key -> (stored row, inverse of its leading entry)
    for row in rows:
        if field == QQ:
            res = residues([row])
            if res is None:
                return False
            vec = res[0]
        else:
            vec = dict(row)
        while vec:
            k = max(vec)
            stored = lead.get(k)
            if stored is None:
                break
            prow, inv = stored
            _axpy(vec, -vec[k] * inv % modulus, prow, modulus)
        if not vec:
            return False
        lead[k] = vec, inverse(modulus, vec[k])
    return True


def _intersection(rows_a, rows_b, field):
    """The RREF basis of the intersection of both spans.

    Zassenhaus read-off: each RREF row a of A enters as (a mod B, a), keyed
    ("m", k) < ("t", k).  The rows with a "t" pivot span the vectors (0, v),
    v in A & B, so their "t" parts are the RREF of A & B.
    """
    ra, rb, tagged = SparseRREF(field), SparseRREF(field), SparseRREF(field)
    for span, rows in ((ra, rows_a), (rb, rows_b)):
        for r in rows:
            span.add(r)
    for arow in ra.rows.values():
        res = {("m", k): v for k, v in rb.reduce(arow).items()}
        res.update((("t", k), v) for k, v in arow.items())
        tagged.add(res)
    return [{k: v for (_, k), v in tagged.rows[pk].items()} for pk in sorted(tagged.rows) if pk[0] == "t"]
