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
by ``minimal_generator_degrees`` on the integer rows of the certificate,
still keyed by beta in [0, dmax]^k, a box that holds every product tried.
It tries each generator times the basis rows of the complementary degree
and reduces every product on the pivots of the basis only: exact, since the
basis spans a graded subalgebra.  A count above the bound the pivots give
raises.
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
report decodes them, each distinct key once (``_Packing.polys``), and the
pi-engine finds negative exponents on the digits of a key.

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
        self.below = [(w, r, -a) for a, w, r in zip(self.lo, self.weights, self.radices) if a < 0]

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

    def negative(self, key):
        """Whether the vector of ``key`` has a negative entry, no tuple built:
        ``vector`` gives entry j as lo_j + digit_j, the mixed-radix digit
        (key - key(lo)) // W_j % r_j, so it is negative exactly when digit_j <
        -lo_j, which only an axis with lo_j < 0 allows."""
        key -= self.base
        for w, r, a in self.below:
            if key // w % r < a:
                return True
        return False

    def pack(self, terms):
        return {self.key(e): c for e, c in terms.items()}

    def polys(self, groups, n, field):
        """The packed rows of ``groups`` (label -> list of rows) as LaurentPoly,
        each distinct key of all the rows decoded once."""
        vectors = {k: self.vector(k) for k in set().union(*itertools.chain(*groups.values()))}
        return {d: [LaurentPoly._trusted(n, field, {vectors[k]: c for k, c in row.items()}) for row in rows]
                for d, rows in groups.items()}


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
    The walk is first in, first out, so when every generator has degree 1
    (the pis) the table lists beta in nondecreasing degree.
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


def _integer_scaled(terms):
    """``terms`` times their common denominator D: (D, the int terms), with
    the same span and products in integers.  Over F_p D is 1."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


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
        scaled = lambda g: LaurentPoly._trusted(n, fld, _integer_scaled(g.terms)[1])
        gensA, gensB = list(map(scaled, gensA)), list(map(scaled, gensB))
    box = _Packing.around(gensA + gensB, dmax)
    slices = []  # the packed rows of each side's product table, by degree
    for gens, degs in ((gensA, degs_a), (gensB, degs_b)):
        slices.append({d: [] for d in range(dmax + 1)})
        table, degree = _product_table(gens, degs, dmax, box, fld)
        for beta, terms in table.items():
            slices[-1][degree[beta]].append(terms)

    bases = box.polys({d: span_intersection(slices[0][d], slices[1][d], fld) for d in range(dmax + 1)}, n, fld)
    for d, bs in bases.items():
        for b in bs:
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

    Rows list their pi-monomials in nondecreasing degree, as the product
    table does (a residue mod P drops entries, not order), so a row whose
    first and last entries share a degree links nothing: for n = 4, every row.
    """
    label = list(range(dmax + 1))  # degree -> the smallest degree linked to it
    rows = [row for row in constraints.values() if row]  # empty mod a tiny prime
    for row in rows:
        if degree[-next(iter(row))] != degree[-next(reversed(row))]:
            linked = {label[degree[-b]] for b in row}
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
    """Every basis row scaled to integers and its X-image, both by degree, or
    None if one image is not a polynomial.

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
    The rows m_r, keyed by beta, are what ``minimal_generator_degrees``
    counts on.
    """
    p = 0 if fld == QQ else fld
    height = {}  # beta -> c_beta
    scaled, out = {}, {}
    for d, rows in bases.items():
        dens, ints = zip(*map(_integer_scaled, rows)) if rows else ((), ())
        scaled[d] = list(ints)
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
    return scaled, out


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

    The constraints are found with no key decoded (``_Packing.negative``);
    the report decodes each key it holds once, after the certificate, and
    counts on the certificate's integer rows, keys as they are.
    """
    _check_nonsingular(inst, "exponent matrix is singular; the pis are dependent")
    check_int(dmax, "degree bound", high=PI_MAX_DEGREE)
    k = len(inst.pis)
    fld = inst.field
    images, degree, box = _pi_monomial_images(inst, dmax)
    negative = set(filter(box.negative, set().union(*images.values())))
    # one cancellation constraint per negative-exponent X-monomial, over every
    # pi-monomial beta in table order, keyed by -beta as _degree_bases solves it
    constraints = {}
    for beta, img in images.items():
        for e, c in img.items():
            if e in negative:
                constraints.setdefault(e, {})[-beta] = c
    # a constraint counts from its lowest degree on, that of its first entry
    first = Counter(degree[-next(iter(row))] for row in constraints.values())

    certified = None
    if fld == QQ:
        modular = dict(zip(constraints, linalg.residues(constraints.values())))
        bases = {d: linalg.lift(rows) for d, rows in _degree_bases(modular, degree, dmax, linalg.P).items()}
        if None not in bases.values():
            certified = _certified_images(bases, images, fld, negative)
    if certified is None:
        bases = _degree_bases(constraints, degree, dmax, fld)
        certified = _certified_images(bases, images, fld, negative)
        if certified is None:
            raise ArithmeticError("a nullspace vector has a non-polynomial X-image")
    ints, ximages = certified
    count = Counter(degree.values())
    return PiIntersectionReport(
        {d: count[d] for d in bases},
        dict(enumerate(itertools.accumulate(first[d] for d in bases))),
        {d: len(rows) for d, rows in bases.items()},
        _Packing((0,) * k, (dmax,) * k).polys(bases, k, fld),
        box.polys(ximages, inst.n, fld),
        tuple(minimal_generator_degrees(ints, fld)),
    )


def minimal_generator_degrees(rows, field):
    """Degrees at which the basis ``rows`` leaves the prior subalgebra:
    (degree, count) pairs, for the degrees with new generators.

    ``rows`` maps a degree label to basis rows, packed terms over ``field``
    with int coefficients over Q, so every product is an integer row.  The
    rows of label 0 hold the constant 1 (key 0), which enters the span and
    never counts.  The keys lie in a box that holds the sum of a label-e and
    a label-l key whenever e + l <= the top label; the pi-engine passes its
    certificate's rows in [0, dmax]^k, where a label-e row holds only
    pi-monomials of degree <= e.

    Let F_e be the span of the rows of label <= e.  At degree d the count is
    the number of rows not in S_d, the span of the products of generators
    found so far with labels summing to <= d; exact only up to the top label
    (``BOUND_NOTE``).  The span holds F_{d-1} when d starts, and the pass
    tries b * g for each generator g, of label l, and each row b of label
    d - l, each pair of generators once.  That is enough when the rows span
    a graded (or filtered) subalgebra, F_e * F_l in F_{e+l}, as both
    engines' do (X-substitution is a ring map): F_{d-l-1} * g lies in
    F_{d-1}, so S_d = F_{d-1} + span{b * g}, and every product lies in
    F_top.

    Products are formed and reduced on the pivots min(b) of the rows only.
    The pivots must be distinct (a ValueError otherwise); then v -> (v[k])
    is injective on F_top (in a nonzero combination, the row of the smallest
    pivot with a nonzero coefficient is the only one nonzero there), so
    every rank, and with it every count, is that of the full rows.

    With P_e the pivots of label e, a product's smallest key is the sum of
    its factors', so the smallest keys of S_d cover P_<d and every p + q,
    p in P_e, q in P_e', e, e' >= 1, e + e' <= d: a count above |P_d minus
    those sums| is a bug and raises ArithmeticError.
    """
    pivots = [{min(r) for r in rows.get(d, ())} for d in range(max(rows) + 1)]  # by label
    columns = set().union(*pivots)
    if len(columns) < sum(map(len, rows.values())):
        raise ValueError("two basis rows share a pivot: the count's projection onto the pivots is not injective")
    p = 0 if field == QQ else field
    row = lambda terms: {k: r for k, c in terms.items() if k in columns and (r := c % p if p else c)}

    def on_pivots(f, g):
        sums = {}
        for k1, c1 in f.items():
            for k2, c2 in g.items():
                if (k := k1 + k2) in columns:
                    sums[k] = sums.get(k, 0) + c1 * c2
        return sums

    span = SparseRREF(field)
    gens = {}     # (label, index in rows[label]) -> row, the generators found so far
    sums = set()  # p + q over the pivots of labels e, e' >= 1 with e + e' <= d
    out = []
    for d, firsts in enumerate(pivots):
        for e in range(1, d // 2 + 1):
            sums.update(a + b for a in pivots[e] for b in pivots[d - e])
        for (label, i), g in gens.items():
            e = d - label
            for j, b in enumerate(rows.get(e, ())):
                if (label, i) < (e, j) and (e, j) in gens:
                    continue  # tried with b and g swapped
                span.add(row(on_pivots(b, g)))
        new = 0
        for j, b in enumerate(rows.get(d, ())):
            res = span.reduce(row(b))
            if res and any(b):  # key 0 is the zero vector: b is not constant
                new += 1
                gens[d, j] = b
            if res:
                span.add(res)
        if new > (bound := len(firsts - sums)):
            raise ArithmeticError(f"{new} new generators at degree {d} exceed the pivot bound {bound}")
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
