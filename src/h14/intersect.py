"""Bounded-degree intersection algebras by exact linear algebra.

Two engines share one product table: every product of a generator list up
to a weighted degree bound, keyed by its exponent vector and built with one
multiplication each (``_product_table``).  Over Q both feed it generators
with integer coefficients, so the products are integers.

``graded_intersection`` works degree by degree under a weight grading: each
side of the intersection is spanned by all products of its generators of the
given weighted degree, and the two coefficient spaces are intersected by
``linalg.span_intersection``; it returns the RREF basis of each degree.  It
certifies only zero intersections: when all products of A and B of one
degree are independent (mod the prime P = 2^61 - 1 of :mod:`h14.linalg` over
Q, with no lift), the intersection is 0; any other degree is eliminated
exactly in the field.
``kuroda_intersection_basis`` works in the pi-coordinates of an instance: it
looks for combinations of pi-monomials whose X-substitution has no negative
exponents, one exact cancellation constraint per offending X-monomial.  The
pis have integer coefficients, so over Q the constraints reduce mod P without
an inverse.  The system splits into blocks of linked degrees (two degrees are
linked when one constraint holds pi-monomials of both; for n = 4 every degree
is its own block).  Each block is solved once, with its keys negated, so that
its null basis is already the RREF of its part of N_dmax.  A block of several
degrees then walks down them: on a vector of degree <= d a constraint
restricted to degree <= d is the whole constraint, so N_d = N_{d+1} & {v :
v_b = 0 for every pi-monomial b of degree d + 1}, solved in the coordinates
of the RREF of N_{d+1} for the RREF of N_d; rows new at d have pivots N_{d-1}
lacks.  It lifts every basis entry by rational reconstruction and verifies
every lifted vector exactly through its integer X-image; a failed lift or
check reruns the solves with Fractions.  The X-images of one degree are
summed in one pass (``_certified_images``; Kronecker substitution along the
row axis): each row, scaled to integers, takes a W-bit slot of one integer
per pi-monomial, with W two bits above any sum a slot can hold, so the
signed W-bit digits of the packed sum at an X-monomial are the rows'
coefficients there.  Over Q a zero at every negative key certifies all rows
at once; over F_p every digit is reduced mod p and a nonzero residue at a
negative key rejects them.

Only the pi-engine's report, a ``PiIntersectionReport``, carries a count,
by ``minimal_generator_degrees``: it tries each generator times the basis
rows of the complementary degree and reduces every product on the pivots of
the basis only: exact, since the basis spans a graded subalgebra.
``no_monomial_units_check`` eliminates the pi-monomial images; a one-term
row off the constant puts a monomial in their span.  Both run once, exactly
in the field: over Q on integer rows, with Fractions where the elimination
makes them.  Only the pi-engine lifts from mod P.

Inside the engines exponent vectors are packed ``int`` keys (``_Packing``;
Monagan and Pearce, CASC 2007): on a box, mixed-radix keys are injective,
keep lex order and are linear, so products add keys with no carry.  The box
is proved: every generator has degree >= 1, so a product of degree <= dmax
has at most dmax factors, and lo_j = dmax * min(0, min e_j), hi_j = dmax *
max(0, max e_j) over the generators' terms.  Key order is tuple order, so
pivots, RREF rows, lifts and certificates are those of tuple keys; only the
report decodes them.

Both computations are complete only up to their degree bound, and the
reports say so; nothing here decides (non-)finite generation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import add, mul, sub

from . import linalg
from .errors import PreconditionError, UsageError, check_int, int_vector
from .kuroda import KurodaInstance
from .lattice import coset_decomposition, smith_certificate
from .laurent import QQ, LaurentPoly, coeff_of
from .linalg import SparseRREF, span_intersection, sparse_nullspace
from .monoid import _check_budget

# Resource guards on the degree bounds, not correctness bounds.
GRADED_MAX_DEGREE = 32
PI_MAX_DEGREE = 20
UNITS_MAX_DEGREE = 8

BOUND_NOTE = (
    "new-generator counts use subalgebra spans up to the report's own degree "
    "bound and under-approximate minimal generation beyond it"
)


@dataclass(frozen=True)
class PiIntersectionReport:
    """The pi-engine's answer by degree 0..dmax, named after the columns of
    ``h14 intersect``."""

    pi_monomials: dict    # degree -> number of pi-monomials of that degree
    constraints: dict     # degree -> cancellation constraints counted from d on
    dims: dict            # degree -> number of new basis elements
    bases: dict           # degree -> basis in pi-coordinates (list of LaurentPoly)
    images: dict          # degree -> the bases X-substituted
    new_generators: tuple  # ((degree, count), ...) for nonconstant degrees


def _check_nonsingular(inst: KurodaInstance, message="exponent matrix is singular"):
    if inst.det_t == 0:
        raise PreconditionError(message)


class _Packing:
    """Packed ``int`` keys of the exponent vectors in the box lo <= e <= hi.

    key(e) = sum of e_j * W_j, with W_j the product of the radices hi_i -
    lo_i + 1 over i > j.  If e and f first differ at j, with e_j < f_j, then
    key(f) - key(e) >= W_j - sum over i > j of (hi_i - lo_i) * W_i = 1: keys
    are injective on the box and keep lex order.
    """

    def __init__(self, lo, hi):
        self.lo, self.radices = tuple(lo), [b - a + 1 for a, b in zip(lo, hi)]
        self.weights = [prod(self.radices[j + 1:]) for j in range(len(lo))]
        self.base = self.key(self.lo)

    @classmethod
    def around(cls, polys, factors):
        """The box of the products of at most ``factors`` terms of ``polys``."""
        cols = list(zip(*(e for g in polys for e in g.terms)))
        return cls([factors * min(0, *c) for c in cols], [factors * max(0, *c) for c in cols])

    def key(self, e):
        return sum(map(mul, e, self.weights))

    def vector(self, key):
        key -= self.base
        return tuple(a + key // w % r for a, w, r in zip(self.lo, self.weights, self.radices))

    def pack(self, terms):
        return {self.key(e): c for e, c in terms.items()}

    def unpack(self, terms):
        return {self.vector(k): c for k, c in terms.items()}


def _times(f, g, p):
    """The product of the packed terms ``f`` and ``g``: exact if p is 0, else
    reduced mod p, each term written once.  The shorter factor runs in the
    outer loop; its first term fills a fresh dict (the keys k1 + k2 are
    distinct for one k1), and each later sum is reduced as it is written,
    its key popped if it cancels, so no zero is stored."""
    if len(f) > len(g):
        f, g = g, f
    if not f:
        return {}
    terms = iter(f.items())
    k1, c1 = next(terms)
    out = {k1 + k2: r for k2, c2 in g.items() if (r := c1 * c2 % p if p else c1 * c2)}
    for k1, c1 in terms:
        for k2, c2 in g.items():
            k = k1 + k2
            s = out.get(k, 0) + c1 * c2
            if p:
                s %= p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _product_table(gens, degs, dmax, box, field):
    """Every product of ``gens`` of weighted degree <= dmax, packed in ``box``
    (which contains ``_Packing.around(gens, dmax)``) and keyed by its packed
    exponent vector beta in [0, dmax]^k; and the map from beta to its degree.
    Generator i has degree degs[i] > 0.

    Each product is one multiplication: the entry of beta - e_i times
    gens[i], for the first nonzero index i of beta.  So the parent of beta
    has no nonzero index below i, and beta extends it at indices <= i only.
    """
    k = len(gens)
    units = _Packing((0,) * k, (dmax,) * k).weights
    packed = [box.pack(g.terms) for g in gens]
    p = 0 if field == QQ else field
    table, degree = {0: {0: 1}}, {0: 0}
    todo = [(0, k)]  # (beta, its first nonzero index or k)
    for beta, first in todo:  # extended while it is walked
        for i in range(min(first + 1, k)):
            if degree[beta] + degs[i] <= dmax:
                child = beta + units[i]
                table[child] = _times(table[beta], packed[i], p)
                degree[child] = degree[beta] + degs[i]
                todo.append((child, i))
    return table, degree


def _integer_scaled(g: LaurentPoly) -> LaurentPoly:
    """``g`` over Q times its common denominator: int coefficients, so its
    products stay in integers, and the same span."""
    den = lcm(*(c.denominator for c in g.terms.values()))
    return LaurentPoly._trusted(g.n, g.field, {e: c.numerator * (den // c.denominator) for e, c in g.terms.items()})


def _validate_gens(label, gens, weights):
    degs = []
    for idx, g in enumerate(gens):
        parts = g.grade_by(weights)
        if len(parts) != 1:
            raise UsageError(f"generator {label}[{idx}] = {g} is not homogeneous for weights {weights}")
        (deg,) = parts
        if deg <= 0:
            raise UsageError(f"generator {label}[{idx}] = {g} has non-positive weighted degree {deg}")
        degs.append(deg)
    return degs


def graded_intersection(gensA, gensB, weights, dmax):
    """Degree-by-degree intersection of the two generated algebras: degree d
    -> its basis (a list of LaurentPoly), for d = 0..dmax.

    For each degree d <= dmax the slice of either algebra is spanned by all
    products of its generators of total weighted degree d; the intersection
    of the two spans is computed exactly and returned in canonical (RREF,
    lexicographic pivot) form.  Over Q the products are built from the
    integer-scaled generators, so ``span_intersection`` gets integer rows;
    its bases hold ints and Fractions (integral coefficients are ints).  The
    generators may be any iterables; they are read once.
    """
    check_int(dmax, "degree bound", high=GRADED_MAX_DEGREE)
    gensA, gensB = list(gensA), list(gensB)
    all_gens = gensA + gensB
    if not all_gens:
        raise UsageError("need at least one generator")
    n, fld = all_gens[0].n, all_gens[0].field
    for g in all_gens:
        g._compat(all_gens[0])
    weights = int_vector(weights, "weights")
    if len(weights) != n:
        raise UsageError(f"need {n} weights, got {len(weights)}")
    degs_a = _validate_gens("A", gensA, weights)
    degs_b = _validate_gens("B", gensB, weights)
    if fld == QQ:
        gensA, gensB = [_integer_scaled(g) for g in gensA], [_integer_scaled(g) for g in gensB]
    box = _Packing.around(gensA + gensB, dmax)
    slices = []  # the packed rows of each side's product table, by degree
    for gens, degs in ((gensA, degs_a), (gensB, degs_b)):
        slices.append({d: [] for d in range(dmax + 1)})
        table, degree = _product_table(gens, degs, dmax, box, fld)
        for beta, terms in table.items():
            slices[-1][degree[beta]].append(terms)

    bases = {}
    for d in range(dmax + 1):
        inter = span_intersection(slices[0][d], slices[1][d], fld)
        bases[d] = [LaurentPoly._trusted(n, fld, box.unpack(r)) for r in inter]
        for b in bases[d]:
            if list(b.grade_by(weights)) != [d]:
                raise ArithmeticError(f"a degree-{d} intersection basis element is not homogeneous of degree {d}")
    return bases


# ---------------------------------------------------------------------------
# pi-coordinate engine
# ---------------------------------------------------------------------------


def _pi_monomial_images(inst: KurodaInstance, dmax: int):
    """X-substituted pi-monomials of degree <= dmax: the product table, its
    degree map and the box of its X-keys; over Q with ``int`` coefficients.
    A non-integral pi raises, since scaling would change the reported basis."""
    pis = inst.pis
    if inst.field == QQ:
        for pi in pis:
            if any(c.denominator != 1 for c in pi.terms.values()):
                raise PreconditionError(f"pi {pi} has a non-integral coefficient")
    box = _Packing.around(pis, dmax)
    return (*_product_table(pis, (1,) * len(pis), dmax, box, inst.field), box)


def _degree_bases(constraints, degree, dmax, fld):
    """The nullspaces N_d, d <= dmax, of the cancellation constraints over the
    pi-monomials beta with ``degree[beta] <= d``, read off one solve per
    degree.  The constraints are keyed by -beta (see below).

    Two degrees are linked when one constraint holds pi-monomials of both;
    the blocks are the classes of degrees 0..dmax under that relation.  The
    system is block-diagonal over disjoint pi-monomials, so N_d is the direct
    sum of the blocks' spaces at d, and its RREF is the union of theirs.
    Each block is solved once, over all its pi-monomials, with every key
    negated (as the constraints come): each pivot of the constraints is then
    the largest beta of its row, so the null vector of a free beta f is 1 at
    f, nonzero only at pivots above f and 0 at every other free beta.  The
    null basis is the RREF of the block's N_dmax, in descending pivots.

    A block of several degrees walks down them.  On a vector supported in
    degree <= d a constraint restricted to degree <= d is the whole
    constraint, so N_d = N_e & {v : v_b = 0 for every b of degree e}, for
    the block's degree e above d: one row {i: r_i[b]} per such b, in the
    coordinates of the RREF rows r_i of N_e, pivots f_0 > f_1 > ...  A
    solution x maps to v = sum of x_i * r_i, so v[f_i] = x_i; the one of free
    index j is 1 at j and 0 above j and at the other free indices, so the
    solutions map to the RREF of N_d, again in descending pivots.

    Returns degree -> the RREF rows of N_d whose pivot is not one of N_{d-1}:
    they vanish at its pivots, so they are the RREF of N_d modulo N_{d-1},
    the span of all earlier rows, and unique.
    """
    label = list(range(dmax + 1))  # degree -> the smallest degree linked to it
    rows = [row for row in constraints.values() if row]  # empty mod a tiny prime
    for row in rows:
        degs = {degree[-b] for b in row}
        if len(degs) > 1:
            linked = {label[d] for d in degs}
            label = [min(linked) if lab in linked else lab for lab in label]
    blocks = {}  # smallest degree -> (the block's degrees, its rows)
    for d, lab in enumerate(label):
        blocks.setdefault(lab, ([], []))[0].append(d)
    for row in rows:
        blocks[label[degree[-next(iter(row))]]][1].append(row)
    negated = {d: [] for d in range(dmax + 1)}  # degree -> its pi-monomials, keys negated
    for b, d in degree.items():
        negated[d].append(-b)
    bases = {}
    for degs, block in blocks.values():
        degs.reverse()
        null = {degs[0]: sparse_nullspace(block, [b for d in degs for b in negated[d]], fld)}
        for d, below in zip(degs, degs[1:]):
            above = null[d]
            system = [{i: v[b] for i, v in enumerate(above) if b in v} for b in negated[d]]
            null[below] = [linalg.combination(x, above, fld) for x in sparse_nullspace(system, range(len(above)), fld)]
        pivots = set()  # a row's pivot, its smallest beta, is its largest negated key
        for d in reversed(degs):
            new = [row for row in reversed(null[d]) if max(row) not in pivots]
            pivots.update(map(max, new))
            bases[d] = [{-b: c for b, c in row.items()} for row in new]
    return dict(sorted(bases.items()))


def _certified_images(bases, images, fld, negative):
    """X-images of every basis row, or None if one is not a polynomial.

    The negative-exponent coefficients of a row's image are exactly its
    cancellation constraints, so a polynomial image proves A_d v = 0.  An
    image's keys are among the images' keys, so ``negative``, the set of
    those keys with a negative exponent, decides it.

    One pass per degree sums all its rows at once.  The images have integer
    coefficients and row r is put over its common denominator D_r (1 over
    F_p) as the integers m_r, so each X-coefficient of its image is one
    integer sum s_r with |s_r| <= sum of |m_r[beta]| * c_beta, c_beta the
    largest |coefficient| of images[beta].  W, two bits above the largest
    such bound, makes every |s_r| < 2^(W-1): V_beta = sum of m_r[beta] <<
    W*r packs the rows, and sum of c * V_beta over the image terms c * X^e
    is sum of s_r << W*r at e, whose signed W-bit digits are the s_r, with
    no carry between slots.  Over Q that packing is injective, so a zero at
    every negative key certifies every row at once; over F_p each digit is
    reduced mod p.  A sum becomes ``s_r / D_r`` over Q, in the field
    layer's form (``s_r`` itself when D_r = 1), and ``s_r mod p`` over F_p.
    """
    p = 0 if fld == QQ else fld
    height = {}  # beta -> c_beta
    out = {}
    for d, rows in bases.items():
        dens = [lcm(*(c.denominator for c in row.values())) for row in rows]
        ints = [{b: c.numerator * (den // c.denominator) for b, c in row.items()} for row, den in zip(rows, dens)]
        for b in set().union(*ints) - height.keys():
            height[b] = max(map(abs, images[b].values()))
        width = max((sum(abs(m) * height[b] for b, m in row.items()) for row in ints), default=0).bit_length() + 2
        packed = {}
        for r, row in enumerate(ints):
            for b, m in row.items():
                packed[b] = packed.get(b, 0) + (m << width * r)
        acc = {}
        for b, v in packed.items():
            for e, c in images[b].items():
                acc[e] = acc.get(e, 0) + c * v
        half, mask = 1 << width - 1, (1 << width) - 1
        out[d] = imgs = [{} for _ in rows]
        for e, v in acc.items():
            neg = e in negative
            if neg and not p:
                if v:
                    return None
                continue
            r = 0
            while v:  # the signed digits, lowest first
                v += half
                s, v = (v & mask) - half, v >> width
                if p:
                    s %= p
                if s:
                    if neg:
                        return None
                    imgs[r][e] = s if p or dens[r] == 1 else coeff_of(QQ, Fraction(s, dens[r]))
                r += 1
    return out


def kuroda_intersection_basis(inst: KurodaInstance, dmax: int):
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
    RREF the same solves compute over Q.  If a lift or a certificate fails,
    those solves run over Q with Fractions.  Either way ``_degree_bases``
    solves one degree block at a time (see there).
    """
    _check_nonsingular(inst, "exponent matrix is singular; the pis are dependent")
    check_int(dmax, "degree bound", high=PI_MAX_DEGREE)
    k = len(inst.pis)
    fld = inst.field
    images, degree, box = _pi_monomial_images(inst, dmax)
    vectors = {e: box.vector(e) for e in set().union(*images.values())}  # decoded once
    negative = {e for e, v in vectors.items() if min(v) < 0}
    # one cancellation constraint per negative-exponent X-monomial, over every
    # pi-monomial beta, keyed by -beta as _degree_bases solves it
    constraints = {}
    for beta, img in images.items():
        for e, c in img.items():
            if e in negative:
                constraints.setdefault(e, {})[-beta] = c
    # a constraint counts from the lowest degree of its pi-monomials on
    first = Counter(min(degree[-b] for b in row) for row in constraints.values())

    bases = ximages = None
    if fld == QQ:
        modular = dict(zip(constraints, linalg.residues(constraints.values())))
        bases = {d: linalg.lift(rows) for d, rows in _degree_bases(modular, degree, dmax, linalg.P).items()}
        if None not in bases.values():
            ximages = _certified_images(bases, images, fld, negative)
    if ximages is None:
        bases = _degree_bases(constraints, degree, dmax, fld)
        ximages = _certified_images(bases, images, fld, negative)
        if ximages is None:
            raise ArithmeticError("a nullspace vector has a non-polynomial X-image")
    betas = _Packing((0,) * k, (dmax,) * k)
    count = Counter(degree.values())
    polys = {d: [LaurentPoly._trusted(k, fld, betas.unpack(r)) for r in rows] for d, rows in bases.items()}
    return PiIntersectionReport(
        {d: count[d] for d in bases},
        dict(enumerate(itertools.accumulate(first[d] for d in bases))),
        {d: len(rows) for d, rows in bases.items()},
        polys,
        {d: [LaurentPoly._trusted(inst.n, fld, {vectors[e]: c for e, c in t.items()}) for t in imgs]
         for d, imgs in ximages.items()},
        tuple(minimal_generator_degrees(polys)),
    )


def minimal_generator_degrees(bases):
    """Degrees at which the basis ``bases`` (degree label -> list of
    LaurentPoly) leaves the prior subalgebra.

    ``bases[0][0]`` must be the constant 1, as both engines put it there; the
    count runs in its field, and every basis element must be over it.

    At each degree d, counts basis elements not in the span S_d of products
    of previously found generators with degree labels summing to at most d.
    Constants never count.  The answer is exact only up to the basis's
    degree bound (see ``BOUND_NOTE``).

    One pass per degree (``_generator_degrees``).  At d it tries each
    generator of label l times each basis row of label d - l, and it reduces
    every product on the pivots of the basis only, the columns k = min(b) of
    its rows b, never on the product's full support.  Let F_d be the span of
    the basis elements of label <= d.  ``bases`` must span a graded
    subalgebra up to its top label: a product of elements of labels d and e
    lies in F_{d+e} whenever d + e <= top.  Then every product tried at d
    lies in F_d, inside F_top, the span of the whole basis.  The pi-engine's
    bases do (X-substitution is a ring map, so a product of polynomial
    images is polynomial), and so do those of ``graded_intersection``.  The
    basis rows must also have pairwise distinct pivots (a ValueError
    otherwise); then the projection v -> (v[k]) is injective on F_top: in a
    nonzero combination, the row of the smallest pivot k with a nonzero
    coefficient is the only one nonzero at k.  So every rank, and with it
    every count, is that of the full rows.

    Over Q the pass runs exactly on the basis scaled to integer coefficients
    (no span changes), so every product is an integer row.  The basis is
    packed once.  Packed keys suffice: a tried product has two basis rows as
    factors, so it lies in the box of two factors.
    """
    field = bases[0][0].field
    box = _Packing.around([b for bs in bases.values() for b in bs], 2)
    scale = _integer_scaled if field == QQ else (lambda b: b)
    return _generator_degrees({d: [box.pack(scale(b).terms) for b in bs] for d, bs in bases.items()}, field)


def _generator_degrees(bases, field):
    """The one-pass count over ``field`` on the packed terms ``bases``.

    Every row enters the span restricted to the pivots of ``bases`` (see
    ``minimal_generator_degrees``), and reduced mod ``field`` when it is a
    prime.  A tried product is formed on those pivots only: the span reads
    nothing else, so no product is built in full.

    Let F_e be the span of the basis rows of label <= e; the span holds F_{d-1}
    when degree d starts.  At d it tries b * g for every generator g found so
    far, of label l, and every basis row b of label d - l.  That is enough:
    F_{d-l} = F_{d-l-1} + span(bases[d - l]), and F_{d-l-1} * g lies in
    F_{d-1} because the span is multiplicative (F_e * F_l lies in F_{e+l}).  So
    S_d = F_{d-1} + span{b * g} is the span of all generator products of label
    <= d.  A product of two generators is tried once, with the earlier found
    one as b.  The constant 1 of ``bases[0]`` enters the span as a basis
    element.
    """
    pivots = {min(r) for rs in bases.values() for r in rs}
    if len(pivots) < sum(map(len, bases.values())):
        raise ValueError("two basis rows share a pivot: the count's projection onto the pivots is not injective")
    p = 0 if field == QQ else field
    row = lambda terms: {k: r for k, c in terms.items() if k in pivots and (r := c % p if p else c)}

    def on_pivots(f, g):
        sums = {}
        for k1, c1 in f.items():
            for k2, c2 in g.items():
                if (k := k1 + k2) in pivots:
                    sums[k] = sums.get(k, 0) + c1 * c2
        return sums

    span = SparseRREF(field)
    gens = {}   # (label, index in bases[label]) -> row, the generators found so far
    out = []
    for d in sorted(bases):
        for (label, i), g in gens.items():
            e = d - label
            for j, b in enumerate(bases.get(e, ())):
                if (label, i) < (e, j) and (e, j) in gens:
                    continue  # tried with b and g swapped
                span.add(row(on_pivots(b, g)))
        new = 0
        for j, b in enumerate(bases[d]):
            res = span.reduce(row(b))
            if res and any(b):  # key 0 is the zero vector: b is not constant
                new += 1
                gens[d, j] = b
            if res:
                span.add(res)
        if new:
            out.append((d, new))
    return out


# ---------------------------------------------------------------------------
# structural checks on instances
# ---------------------------------------------------------------------------


def _exponent_subgroup(inst: KurodaInstance):
    """The coset decomposition of H, generated by the exponent-matrix rows
    extended by a trailing 0 together with the last unit vector."""
    _check_nonsingular(inst)
    gens = [tuple(row) + (0,) for row in inst.t_matrix.entries]
    gens.append((0,) * (inst.n - 1) + (1,))
    return coset_decomposition(gens, inst.n)


def freeness_certificate(inst: KurodaInstance) -> bool:
    """``freeness_coset_check`` on all of Z^n, by ``smith_certificate`` of H."""
    cd = _exponent_subgroup(inst)
    return smith_certificate(cd.generators, cd.smith)


def freeness_coset_check(inst: KurodaInstance, box_bound: int) -> bool:
    """Coset/freeness structure of the monomial exponent subgroup H, swept.

    Every v in the box [-B, B]^n must decompose as rep(v) + h with h in H,
    with the representative canonical (idempotent and invariant under shifts
    by generators of H).  The bounded oracle of ``freeness_certificate``.  A
    box of more than ``monoid.ENUMERATION_BUDGET`` points is refused up front.
    """
    check_int(box_bound, "box bound")
    _check_budget("the freeness box", (2 * box_bound + 1) ** inst.n)
    cd = _exponent_subgroup(inst)
    for v in itertools.product(range(-box_bound, box_bound + 1), repeat=inst.n):
        r = cd.representative(v)
        h = tuple(map(sub, v, r))
        if not cd.contains(h):
            return False
        if cd.representative(r) != r:
            return False
        for g in cd.generators.entries:
            if cd.representative(tuple(map(add, v, g))) != r:
                return False
    return True


def no_monomial_units_check(inst: KurodaInstance, dmax: int) -> bool:
    """No nonconstant Laurent monomial lies in the bounded-degree pi-span.

    In the RREF over the instance's field of the X-substituted pi-monomials
    of degree <= dmax, a monomial {e: 1} reduces to zero only against a row
    equal to it, so a one-term row off key 0 (the constant) decides the
    check for the bound.  The images enter in packed-key order: the RREF is
    the same in any order, and this one eliminates faster than the product
    table's own order.
    """
    _check_nonsingular(inst)
    check_int(dmax, "degree bound", high=UNITS_MAX_DEGREE)
    span = SparseRREF(inst.field)
    for _, img in sorted(_pi_monomial_images(inst, dmax)[0].items()):
        span.add(img)
    return not any(k and len(row) == 1 for k, row in span.rows.items())
