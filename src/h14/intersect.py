"""Bounded-degree intersection algebras by exact linear algebra.

Two engines share one report type.  ``graded_intersection`` works degree by
degree under a weight grading: each side of the intersection is spanned by
all products of its generators of the given weighted degree, and the two
coefficient spaces are intersected exactly.  ``kuroda_intersection_basis``
works in the pi-coordinates of an instance: it looks for combinations of
pi-monomials whose X-substitution has no negative exponents, one exact
cancellation constraint per offending X-monomial.  Over Q it eliminates
modulo the prime P = 2^61 - 1, lifts every basis entry by rational
reconstruction and verifies every lifted vector exactly through its integer
X-image; the same loop over Q with Fractions is the fallback.  Its reports
equal those of the Fraction loop byte for byte.

Both computations are complete only up to their degree bound, and the
reports say so; nothing here decides (non-)finite generation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import add, sub

from .errors import GradingError, SingularMatrixError, UsageError
from .kuroda import KurodaInstance
from .lattice import coset_decomposition
from .laurent import QQ, LaurentPoly, coeff_of
from .linalg import SparseRREF, rational_reconstruction, span_intersection, sparse_nullspace

# The prime of the modular pi-engine over Q (a Mersenne prime, 2^61 - 1).
P = 2**61 - 1

BOUND_NOTE = (
    "new-generator counts use subalgebra spans up to the report's own degree "
    "bound and under-approximate minimal generation beyond it"
)


@dataclass(frozen=True)
class GradedIntersectionReport:
    """Per-degree dimensions and bases of a bounded-degree intersection."""

    weights: tuple
    field: object
    dmax: int
    ambient_a: dict   # degree -> spanning dimension of the first algebra
    ambient_b: dict   # degree -> spanning dimension of the second algebra
    dims: dict        # degree -> intersection dimension
    bases: dict       # degree -> canonical basis (list of LaurentPoly)
    new_generators: tuple  # ((degree, count), ...) for nonconstant degrees
    note: str = BOUND_NOTE
    images: dict = None    # pi-engine only: degree -> X-substituted bases

    def table_rows(self):
        """Rows (degree, dim A, dim B, intersection dim, new generators)."""
        newg = dict(self.new_generators)
        return [
            (d, self.ambient_a[d], self.ambient_b[d], self.dims[d], newg.get(d, 0))
            for d in sorted(self.dims)
        ]


def _weighted_degree(poly: LaurentPoly, weights):
    e = next(iter(poly.terms))
    return sum(x * w for x, w in zip(e, weights))


def _graded_products(gens, degs, n, field, d):
    """All products of the generators with total weighted degree exactly d."""
    out = []

    def rec(i, r, acc):
        if i == len(gens):
            if r == 0:
                out.append(acc)
            return
        cur = acc
        c = 0
        while True:
            rec(i + 1, r - c * degs[i], cur)
            c += 1
            if c * degs[i] > r:
                break
            cur = cur * gens[i]

    rec(0, d, LaurentPoly.constant(n, 1, field))
    return out


def _validate_gens(label, gens, weights):
    degs = []
    for idx, g in enumerate(gens):
        if g.is_zero() or not g.is_homogeneous(weights):
            raise GradingError(
                f"generator {label}[{idx}] = {g} is not homogeneous for weights {weights}"
            )
        deg = _weighted_degree(g, weights)
        if deg <= 0:
            raise GradingError(
                f"generator {label}[{idx}] = {g} has non-positive weighted degree {deg}"
            )
        degs.append(deg)
    return degs


def graded_intersection(gensA, gensB, weights, dmax, maximum: int = 32):
    """Degree-by-degree intersection of the two generated algebras.

    For each degree d <= dmax the slice of either algebra is spanned by all
    products of its generators of total weighted degree d; the intersection
    of the two spans is computed exactly and returned in canonical (RREF,
    lexicographic pivot) form.
    """
    if not isinstance(dmax, int) or dmax < 0:
        raise UsageError("degree bound must be a nonnegative integer")
    if dmax > maximum:
        raise UsageError(f"degree bound {dmax} exceeds the configured maximum {maximum}")
    all_gens = list(gensA) + list(gensB)
    if not all_gens:
        raise UsageError("need at least one generator")
    n, fld = all_gens[0].n, all_gens[0].field
    for g in all_gens:
        g._compat(all_gens[0])
    weights = tuple(int(w) for w in weights)
    if len(weights) != n:
        raise UsageError(f"need {n} weights, got {len(weights)}")
    degs_a = _validate_gens("A", gensA, weights)
    degs_b = _validate_gens("B", gensB, weights)

    ambient_a, ambient_b, dims, bases = {}, {}, {}, {}
    for d in range(dmax + 1):
        rows_a = [p.terms for p in _graded_products(gensA, degs_a, n, fld, d) if p.terms]
        rows_b = [p.terms for p in _graded_products(gensB, degs_b, n, fld, d) if p.terms]
        dim_a, dim_b, inter = span_intersection(rows_a, rows_b, fld)
        basis = [LaurentPoly._trusted(n, fld, r) for r in inter]
        for b in basis:
            if not b.is_homogeneous(weights) or (d and _weighted_degree(b, weights) != d):
                raise ArithmeticError(f"a degree-{d} intersection basis element is not homogeneous of degree {d}")
        ambient_a[d], ambient_b[d] = dim_a, dim_b
        dims[d], bases[d] = len(basis), basis
    report = GradedIntersectionReport(
        weights, fld, dmax, ambient_a, ambient_b, dims, bases, ()
    )
    return replace(report, new_generators=tuple(minimal_generator_degrees(report)))


# ---------------------------------------------------------------------------
# pi-coordinate engine
# ---------------------------------------------------------------------------


def _pi_monomial_images(inst: KurodaInstance, dmax: int):
    """X-substituted pi-monomials, keyed by exponent vector, degree <= dmax."""
    k = len(inst.pis)
    images = {(0,) * k: LaurentPoly.constant(inst.n, 1, inst.field)}
    for d in range(1, dmax + 1):
        for beta in itertools.product(range(d + 1), repeat=k):
            if sum(beta) != d:
                continue
            i = next(j for j in range(k) if beta[j])
            prev = list(beta)
            prev[i] -= 1
            images[beta] = images[tuple(prev)] * inst.pis[i]
    return images


def _integer_images(images):
    """Each pi-monomial image as (common denominator, integer numerators)."""
    out = {}
    for beta, img in images.items():
        den = lcm(*(c.denominator for c in img.terms.values()))
        out[beta] = (den, {e: c.numerator * (den // c.denominator) for e, c in img.terms.items()})
    return out


def _x_image(row, ints, fld):
    """X-image of the pi-combination ``row``, summed in integers.

    The entries are put over their common denominator D (1 over F_p, whose
    ints have denominator 1), so every X-coefficient is one integer sum s:
    ``Fraction(s, D)`` over Q, ``s mod p`` over F_p.
    """
    dens = {beta: c.denominator * ints[beta][0] for beta, c in row.items()}
    big = lcm(*dens.values())
    sums = {}
    for beta, c in row.items():
        m = c.numerator * (big // dens[beta])
        for e, v in ints[beta][1].items():
            sums[e] = sums.get(e, 0) + m * v
    if fld == QQ:
        return {e: Fraction(s, big) for e, s in sums.items() if s}
    return {e: r for e, s in sums.items() if (r := s % fld)}


def _degree_bases(constraints, variables, dmax, fld):
    """The per-degree loop: one nullspace solve per degree d <= dmax.

    Returns degree -> the canonical rows that are new at that degree: the
    RREF of the degree-d solutions that vanish at the pivots of all earlier
    rows.  A reduced row echelon form is unique, so the rows depend only on
    the solution spaces, not on the order of the work.
    """
    seen = SparseRREF(fld)
    bases = {}
    for d in range(dmax + 1):
        rows = []
        for e in sorted(constraints):
            row = {b: c for b, c in constraints[e].items() if sum(b) <= d}
            if row:
                rows.append(row)
        null = sparse_nullspace(rows, [b for b in variables if sum(b) <= d], fld)
        fresh = SparseRREF(fld)
        for vec in null:
            res = seen.reduce(vec)
            if res:
                fresh.add(res)
        bases[d] = fresh.basis()
        for row in bases[d]:
            seen.add(row)
    return bases


def _lift(bases):
    """Rational reconstruction of every entry mod P; None if one fails."""
    out = {}
    for d, rows in bases.items():
        out[d] = []
        for row in rows:
            lifted = {}
            for b, c in row.items():
                lifted[b] = rational_reconstruction(c, P)
                if lifted[b] is None:
                    return None
            out[d].append(lifted)
    return out


def _certified_images(bases, images, fld):
    """X-images of every basis row, or None if one is not a polynomial.

    The negative-exponent coefficients of a row's image are exactly its
    cancellation constraints, so a polynomial image proves A_d v = 0.
    """
    ints = _integer_images({b: images[b] for rows in bases.values() for row in rows for b in row})
    out = {}
    for d, rows in bases.items():
        out[d] = []
        for row in rows:
            img = _x_image(row, ints, fld)
            if any(min(e) < 0 for e in img):
                return None
            out[d].append(img)
    return out


def kuroda_intersection_basis(inst: KurodaInstance, dmax: int, maximum: int = 12):
    """Basis of the polynomial part of the bounded-degree pi-span.

    At each degree d this finds all combinations of pi-monomials of total
    degree <= d whose X-substitution is a genuine polynomial; each negative-
    exponent X-monomial contributes one exact linear cancellation constraint
    and the null space is solved.  The report is graded by the first bound d
    at which an element appears.

    Over Q the constraints are reduced mod the prime P and solved over F_P;
    every entry of every basis row is lifted back by rational reconstruction
    and every lifted row is certified by its exact X-image.  The nullspace
    over F_P is never smaller than over Q, and the certified lifts lie in the
    one over Q and are independent (their residues are), so the dimensions
    agree; lifting keeps zeros and ones, so the lifted rows are the unique
    RREF the same loop computes over Q.  If a lift or a certificate fails,
    that loop runs over Q with Fractions.
    """
    if inst.det_t == 0:
        raise SingularMatrixError("exponent matrix is singular; the pis are dependent")
    if not isinstance(dmax, int) or dmax < 0:
        raise UsageError("degree bound must be a nonnegative integer")
    if dmax > maximum:
        raise UsageError(f"degree bound {dmax} exceeds the configured maximum {maximum}")
    k = len(inst.pis)
    fld = inst.field
    images = _pi_monomial_images(inst, dmax)
    # cancellation constraints over the full variable set, restricted per degree
    constraints = {}
    for beta, img in images.items():
        for e, c in img.terms.items():
            if min(e) < 0:
                constraints.setdefault(e, {})[beta] = c
    # a constraint counts from the lowest degree of its pi-monomials on
    first = Counter(min(sum(b) for b in row) for row in constraints.values())

    bases = ximages = None
    if fld == QQ:
        residues = {
            e: {b: r for b, c in row.items() if (r := coeff_of(P, c))}
            for e, row in constraints.items()
        }
        bases = _lift(_degree_bases(residues, images, dmax, P))
        if bases is not None:
            ximages = _certified_images(bases, images, fld)
    if ximages is None:
        bases = _degree_bases(constraints, images, dmax, fld)
        ximages = _certified_images(bases, images, fld)
        if ximages is None:
            raise ArithmeticError("a nullspace vector has a non-polynomial X-image")
    report = GradedIntersectionReport(
        (1,) * k, fld, dmax,
        {d: sum(1 for b in images if sum(b) == d) for d in bases},
        dict(enumerate(itertools.accumulate(first[d] for d in bases))),
        {d: len(rows) for d, rows in bases.items()},
        {d: [LaurentPoly._trusted(k, fld, r) for r in rows] for d, rows in bases.items()},
        (),
        images={d: [LaurentPoly._trusted(inst.n, fld, t) for t in imgs] for d, imgs in ximages.items()},
    )
    return replace(report, new_generators=tuple(minimal_generator_degrees(report)))


def minimal_generator_degrees(report: GradedIntersectionReport):
    """Degrees at which the report's basis leaves the prior subalgebra.

    At each degree d, counts basis elements not in the span of products of
    previously found generators with degree labels summing to at most d.
    Constants never count.  The answer is exact only up to the report's
    degree bound (see the report note).

    The subalgebra span is closed incrementally, keeping only products that
    enlarge it: a reducible product is a combination of kept products of the
    same or lower label, so its multiples are covered by theirs.
    """
    fld = report.field
    one = coeff_of(fld, 1)
    degrees = sorted(report.bases)
    first = next(
        (report.bases[d][0] for d in degrees if report.bases[d]), None
    )
    if first is None:
        return []
    nvars = first.n
    span = SparseRREF(fld)
    span.add({(0,) * nvars: one})
    gens = []   # (label, poly) minimal generators found so far
    prods = [(0, LaurentPoly.constant(nvars, 1, fld))]
    tried = set()
    out = []
    for d in degrees:
        progress = True
        while progress:
            progress = False
            for pi_ in range(len(prods)):
                for gi in range(len(gens)):
                    key = (pi_, gi)
                    if key in tried:
                        continue
                    label = prods[pi_][0] + gens[gi][0]
                    if label > d:
                        continue
                    tried.add(key)
                    q = prods[pi_][1] * gens[gi][1]
                    if not span.contains(q.terms):
                        span.add(q.terms)
                        prods.append((label, q))
                        progress = True
        new = 0
        for b in report.bases[d]:
            if b.is_constant() or span.contains(b.terms):
                continue
            new += 1
            span.add(b.terms)
            gens.append((d, b))
            prods.append((d, b))
        if new:
            out.append((d, new))
    return out


# ---------------------------------------------------------------------------
# structural checks on instances
# ---------------------------------------------------------------------------


def freeness_coset_check(inst: KurodaInstance, box_bound: int) -> bool:
    """Coset/freeness structure of the monomial exponent subgroup.

    H is generated by the exponent-matrix rows extended by a trailing 0
    together with the last unit vector.  Every v in the box [-B, B]^n must
    decompose as rep(v) + h with h in H, with the representative canonical
    (idempotent and invariant under shifts by generators of H).
    """
    if inst.det_t == 0:
        raise SingularMatrixError("exponent matrix is singular")
    n = inst.n
    gens = [tuple(row) + (0,) for row in inst.t_matrix.entries]
    gens.append((0,) * (n - 1) + (1,))
    cd = coset_decomposition(gens, n)
    for v in itertools.product(range(-box_bound, box_bound + 1), repeat=n):
        r = cd.representative(v)
        h = tuple(map(sub, v, r))
        if not cd.contains(h):
            return False
        if cd.representative(r) != r:
            return False
        for g in gens:
            if cd.representative(tuple(map(add, v, g))) != r:
                return False
    return True


def no_monomial_units_check(inst: KurodaInstance, dmax: int, maximum: int = 8) -> bool:
    """No nonconstant Laurent monomial lies in the bounded-degree pi-span.

    Reduces each candidate X-monomial against the exact span of the
    X-substituted pi-monomials of degree <= dmax; only monomials in the
    span's support can possibly belong, so the check is complete for the
    bound.
    """
    if inst.det_t == 0:
        raise SingularMatrixError("exponent matrix is singular")
    if not isinstance(dmax, int) or dmax < 0:
        raise UsageError("degree bound must be a nonnegative integer")
    if dmax > maximum:
        raise UsageError(f"degree bound {dmax} exceeds the configured maximum {maximum}")
    span = SparseRREF(inst.field)
    support = set()
    for beta, img in sorted(_pi_monomial_images(inst, dmax).items()):
        span.add(img.terms)
        support.update(img.terms)
    one = coeff_of(inst.field, 1)
    zero = (0,) * inst.n
    for e in sorted(support):
        if e != zero and span.contains({e: one}):
            return False
    return True
