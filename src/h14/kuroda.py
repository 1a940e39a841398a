"""Laurent-monomial instances: construction, ratio conditions, certificates.

An instance is the data (gamma, delta) defining the binomials

    n = 4:  pi_i = X4^gamma - X1^.. X2^.. X3^.. X4^..   (sign flip at slot i)
    n = 3:  pi_1 = X1^d21 X2^-d22 - X1^-d11 X2^d12,
            pi_2 = X3^gamma - X1^-d11 X2^d12,
            pi_3 = 2 X1^(d21-d11) X2^(d12-d22) - X1^-2d11 X2^2d12

together with the signed exponent matrix T (negative diagonal, positive
off-diagonal) and, for n = 4, the ratios

    xi_1 = d11 / (d11 + min(d21, d31))   (and cyclic analogues),

whose sum is the strict-inequality condition (*) for the non-finite-generation
regime; the two-variable analogue (**) compares against 1/2.  One walk,
:func:`delta_box`, yields the delta-tables of a family, and one integer test,
:func:`condition_holds`, decides (*) or (**); ``Fraction`` sums are only reported.
:func:`star_tables` builds the (*)-tables of the n=4 box column by column,
deciding (*) once per column-minimum choice instead of once per table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import PreconditionError, UsageError, check_int, is_int
from .laurent import QQ, LaurentPoly, parse_field
from .lattice import IntMatrix, det

# Resource guard on the delta-box bound of implication_scan.
SCAN_MAX_BOUND = 4


@dataclass(frozen=True)
class KurodaInstance:
    n: int
    gamma: int
    delta: tuple  # (n-1) x n exponent rows for n=4; 2 x 2 for n=3
    field: object = QQ
    t_matrix: IntMatrix = dc_field(default=None, compare=False)
    xi: tuple = dc_field(default=None, compare=False)
    pis: tuple = dc_field(default=None, compare=False)
    y_images: tuple = dc_field(default=None, compare=False)

    @property
    def det_t(self) -> int:
        return det(self.t_matrix)


def build_instance(n, gamma, delta, field_tag=QQ) -> KurodaInstance:
    """Materialize an instance from (gamma, delta) data, validating signs."""
    fld = parse_field(field_tag)
    check_int(n, "n", 3, 4)
    check_int(gamma, "gamma", 1)
    if not isinstance(delta, list) or not all(isinstance(r, list) for r in delta):
        raise UsageError(f"delta must be a list of integer rows, got {delta!r}")
    rows = [list(r) for r in delta]
    if n == 4:
        if len(rows) != 3:
            raise UsageError(f"delta must have 3 rows for n=4, got {len(rows)}")
        for i, r in enumerate(rows):
            if len(r) == 3:
                r.append(0)
            if len(r) != 4:
                raise UsageError(f"delta[{i}] must have 3 or 4 entries, got {len(r)}")
            for j in range(3):
                check_int(r[j], f"delta[{i}][{j}]", 1)
            check_int(r[3], f"delta[{i}][3]")
        dmat = tuple(tuple(r) for r in rows)
        y_vecs = _flip_diagonal(dmat)
        t_matrix = IntMatrix(3, 3, tuple(v[:3] for v in y_vecs))
        y_images = tuple(
            [LaurentPoly.monomial(4, v, 1, fld) for v in y_vecs]
            + [LaurentPoly.monomial(4, (0, 0, 0, gamma), 1, fld)]
        )
        pis = tuple(y_images[3] - y_images[i] for i in range(3))
        return KurodaInstance(4, gamma, dmat, fld, t_matrix, _xi(dmat), pis, y_images)
    # n == 3
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise UsageError("delta must be a 2x2 matrix for n=3")
    for i in range(2):
        for j in range(2):
            check_int(rows[i][j], f"delta[{i}][{j}]", 1)
    (d11, d12), (d21, d22) = rows
    dmat = ((d11, d12), (d21, d22))
    t_matrix = IntMatrix(2, 2, _flip_diagonal(dmat))
    mono = lambda e: LaurentPoly.monomial(3, e, 1, fld)
    a = mono((-d11, d12, 0))
    b = mono((d21, -d22, 0))
    x3g = mono((0, 0, gamma))
    pi1 = b - a
    pi2 = x3g - a
    pi3 = 2 * mono((d21 - d11, d12 - d22, 0)) - mono((-2 * d11, 2 * d12, 0))
    return KurodaInstance(3, gamma, dmat, fld, t_matrix, None, (pi1, pi2, pi3), None)


def _ratio_terms(d):
    """(numerator, denominator) of each ratio: the xi_i above for the 3 rows of
    n=4 (3x3 or 3x4), d11 / (d11 + d21) and d22 / (d22 + d12) for n=3 (2x2)."""
    if len(d) == 2:
        (d11, d12), (d21, d22) = d
        return (d11, d11 + d21), (d22, d22 + d12)
    (d11, d12, d13, *_), (d21, d22, d23, *_), (d31, d32, d33, *_) = d
    return (d11, d11 + min(d21, d31)), (d22, d22 + min(d32, d12)), (d33, d33 + min(d13, d23))


def condition_holds(delta) -> bool:
    """(*) for an n=4 table (sum xi_i < 1) or (**) for an n=3 one (< 1/2), in
    integers: with xi_i = a_i / b_i, b_i > 0, the unreduced sum num / den has
    den = prod b_j and num = sum_i a_i prod_{j != i} b_j; it is < 1/t iff t * num < den."""
    num, den = 0, 1
    for a, b in _ratio_terms(delta):
        num, den = num * b + a * den, den * b
    return (2 if len(delta) == 2 else 1) * num < den


def _xi(delta):
    """The ratios of :func:`_ratio_terms` as ``Fraction``s."""
    return tuple(Fraction(a, b) for a, b in _ratio_terms(delta))


def ratio_sum(delta):
    """The exact ratio sum of a delta table: the three xi_i of n=4, or the two
    ratios of n=3 (see :func:`_ratio_terms`)."""
    return sum(_xi(delta))


def _flip_diagonal(rows):
    """Rows with the diagonal entries negated: the sign rule of T and the Y-images."""
    return tuple(
        tuple(-x if i == j else x for j, x in enumerate(row)) for i, row in enumerate(rows)
    )


def delta_box(n: int, bound: int):
    """The delta-tables of family n with entries in [1, bound], in lex order, as
    row tuples (2x2 for n=3, 3x3 for n=4); the arguments are checked at the call."""
    check_int(n, "n", 3, 4)
    check_int(bound, "bound", 1, SCAN_MAX_BOUND)
    rows = itertools.product(range(1, bound + 1), repeat=n - 1)
    return itertools.product(tuple(rows), repeat=n - 1)


def star_tables(bound: int):
    """The tables of ``delta_box(4, bound)`` that satisfy (*), in lex order.

    (*) factors by column: xi_i reads only d_ii and m_i, the smaller of the
    two other entries of column i, and the three off-diagonal pairs
    (d21, d31), (d12, d32), (d13, d23) are disjoint.  So (*) is decided once
    per (d11, m1, d22, m2, d33, m3), by :func:`condition_holds` on the table
    ((d11, m2, m3), (m1, d22, m3), (m1, m2, d33)), whose column minima are
    m1, m2, m3; each passing choice yields every table whose off-diagonal
    pairs have those minima, 2 (bound - m_i) + 1 pairs for column i.
    """
    check_int(bound, "bound", 1, SCAN_MAX_BOUND)
    vals = range(1, bound + 1)
    pairs = {m: [(a, b) for a in vals for b in vals if min(a, b) == m] for m in vals}
    tables = []
    for d1, m1, d2, m2, d3, m3 in itertools.product(vals, repeat=6):
        if condition_holds(((d1, m2, m3), (m1, d2, m3), (m1, m2, d3))):
            for (d21, d31), (d12, d32), (d13, d23) in itertools.product(pairs[m1], pairs[m2], pairs[m3]):
                tables.append(((d1, d12, d13), (d21, d2, d23), (d31, d32, d3)))
    return sorted(tables)


@dataclass(frozen=True)
class ScanReport:
    """One box of delta-tables: its size, violations and converse-witness count."""

    total: int
    implication_violations: tuple  # condition holds but det T == 0 (expected empty)
    converse_witnesses: int        # how many tables have det T != 0 but fail the condition


def implication_scan(n: int, bound: int) -> ScanReport:
    """Exhaustive scan of ``delta_box(n, bound)`` for condition => det T != 0:
    collects the violations, with the exact ratio sum as ``value``, and
    counts the converse witnesses (det T != 0, the condition fails), which
    ``h14 scan`` reports only as a number."""
    violations, witnesses, total = [], 0, 0
    for delta in delta_box(n, bound):
        total += 1
        holds = condition_holds(delta)
        dt = det(IntMatrix(n - 1, n - 1, _flip_diagonal(delta)))
        if holds and dt == 0:
            violations.append({"delta": delta, "value": ratio_sum(delta), "det": dt})
        elif not holds and dt:
            witnesses += 1
    return ScanReport(total, tuple(violations), witnesses)


def lemma31_find_p(xi):
    """Deterministic positive integers (p, p1, p2, p3) for the ratio triple.

    p is the least positive integer with p(1 - sum xi) >= 3; p1 and p2 are
    the ceilings of p*xi_1 and p*xi_2 (raised to at least 1), and p3 takes
    the remainder.  Each p_i then satisfies p_i >= p*xi_i and p_i >= 1.
    The ratios are exact: ``Fraction``s or integers, never floats.
    """
    xi = tuple(xi)
    bad = [x for x in xi if not (isinstance(x, Fraction) or is_int(x))]
    if bad:
        raise UsageError(f"ratios must be Fractions or integers, got {bad[0]!r}")
    if len(xi) != 3:
        raise UsageError("need exactly three ratios")
    for i, x in enumerate(xi):
        if not (0 < x < 1):
            raise PreconditionError(f"ratio {i + 1} = {x} is not in (0, 1)")
    s = sum(xi)
    if s >= 1:
        raise PreconditionError(f"ratio sum {s} is >= 1; the strict-sum hypothesis fails")
    p = max(1, math.ceil(Fraction(3) / (1 - s)))
    p1 = max(1, math.ceil(p * xi[0]))
    p2 = max(1, math.ceil(p * xi[1]))
    p3 = p - p1 - p2
    if p3 < max(1, p * xi[2]):
        raise PreconditionError(f"no feasible split of p={p} into three parts")
    return p, p1, p2, p3


def _check_n4_exponents(inst: KurodaInstance, product: str, **exponents):
    """Refuse an instance outside the n=4 family, or an exponent that is not an integer."""
    if inst.n != 4:
        raise UsageError(f"{product} is defined for the n=4 family")
    for name, v in exponents.items():
        check_int(v, name)


def build_f0(inst: KurodaInstance, p1: int, p2: int, p3: int) -> LaurentPoly:
    """The certificate product expanded and pushed down to the X-variables.

    Expands (Y3 - Y2)^p1 (Y3 - Y1)^p2 (Y2 - Y1)^p3 by multinomials in the
    Y-monomial lattice (where the map to X-monomials is injective because
    the exponent matrix is nonsingular), then substitutes.
    """
    _check_n4_exponents(inst, "the certificate product", p1=p1, p2=p2, p3=p3)
    c1 = [math.comb(p1, i) for i in range(p1 + 1)]
    c2 = [math.comb(p2, j) for j in range(p2 + 1)]
    c3 = [math.comb(p3, k) for k in range(p3 + 1)]
    yterms = {}
    for i in range(p1 + 1):
        for j in range(p2 + 1):
            base = c1[i] * c2[j]
            for k in range(p3 + 1):
                coef = base * c3[k]
                if (i + j + k) % 2:
                    coef = -coef
                e = (j + k, i + p3 - k, (p1 - i) + (p2 - j), 0)
                s = yterms.get(e, 0) + coef
                if s:
                    yterms[e] = s
                else:
                    del yterms[e]
    ypoly = LaurentPoly(4, inst.field, yterms)
    return ypoly.substitute(list(inst.y_images))


def f0_is_polynomial(inst: KurodaInstance, p1: int, p2: int, p3: int) -> bool:
    """Exact polynomiality check for the certificate product.

    Bounds each X-exponent over the multinomial index box: the exponent is
    affine-linear in the indices, so the minimum is attained at a box corner.
    The bound is exact.  By Ostrowski, Newt(fg) = Newt(f) + Newt(g) in the
    Laurent ring over a field (an integral domain), so the least exponent of
    a product is the sum of the factors' least exponents; each factor
    Y_a - Y_b maps to a nonzero binomial, because the Y-images of a valid
    instance are pairwise distinct.  :func:`build_f0` expands the product
    and serves as the oracle of this check.
    """
    _check_n4_exponents(inst, "the certificate product", p1=p1, p2=p2, p3=p3)
    vecs = [next(iter(img.terms)) for img in inst.y_images[:3]]
    for a0, a1, a2 in zip(*vecs):
        const = p3 * a1 + (p1 + p2) * a2
        ci, cj, ck = a1 - a2, a0 - a2, a0 - a1
        low = const + min(0, ci * p1) + min(0, cj * p2) + min(0, ck * p3)
        if low < 0:
            return False
    return True


@dataclass(frozen=True)
class GProduct:
    poly: LaurentPoly
    x2_x3_nonnegative: bool


def build_G(inst: KurodaInstance, s: int, p2bar: int, p3bar: int, e: int) -> GProduct:
    """(Y3-Y2)^s (Y3-Y1)^p2bar (Y2-Y1)^p3bar (Y4-Y1)^e in the X-variables.

    Also reports whether every X2 and X3 exponent in the support is >= 0.
    """
    _check_n4_exponents(inst, "the product G", s=s, p2bar=p2bar, p3bar=p3bar, e=e)
    y = [LaurentPoly.variable(4, i, inst.field) for i in range(4)]
    g = (y[2] - y[1]) ** s * (y[2] - y[0]) ** p2bar * (y[1] - y[0]) ** p3bar
    g = g * (y[3] - y[0]) ** e
    poly = g.substitute(list(inst.y_images))
    ok = all(v[1] >= 0 and v[2] >= 0 for v in poly.support())
    return GProduct(poly, ok)


def verify_t214(inst: KurodaInstance, pis=None) -> bool:
    """Symbolic check of the three exact identities of the n=3 triple.

    Optionally takes replacement pi polynomials (mutation controls).
    """
    if inst.n != 3:
        raise UsageError("these identities concern the n=3 family")
    pi1, pi2, pi3 = pis if pis is not None else inst.pis
    (d11, d12), (d21, d22) = inst.delta
    fld = inst.field
    mono = lambda e: LaurentPoly.monomial(3, e, 1, fld)
    x3g = mono((0, 0, inst.gamma))
    ok1 = pi2 - pi1 + mono((d21, -d22, 0)) == x3g
    ok2 = pi1 ** 2 + pi3 == mono((2 * d21, -2 * d22, 0))
    lhs = x3g ** 2 + 2 * (pi1 - pi2) * x3g + (pi1 - pi2) ** 2 - (pi1 ** 2 + pi3)
    ok3 = lhs.is_zero()
    return ok1 and ok2 and ok3


def random_instance(rng, n: int, max_entry: int = 5, field_tag=QQ) -> KurodaInstance:
    """Random valid instance with entries in [1, max_entry] (seeded rng)."""
    gamma = rng.randint(1, max_entry)
    if n == 3:
        delta = [[rng.randint(1, max_entry) for _ in range(2)] for _ in range(2)]
    else:
        delta = [[rng.randint(1, max_entry) for _ in range(3)] + [rng.randint(0, max_entry)]
                 for _ in range(3)]
    return build_instance(n, gamma, delta, field_tag)
