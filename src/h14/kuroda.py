"""Laurent-monomial instances: construction, ratio conditions, certificates.

An instance is the data (gamma, delta) defining the binomials

    n = 4:  pi_i = X4^gamma - X1^.. X2^.. X3^.. X4^..   (sign flip at slot i)
    n = 3:  pi_1 = X1^d21 X2^-d22 - X1^-d11 X2^d12,
            pi_2 = X3^gamma - X1^-d11 X2^d12,
            pi_3 = 2 X1^(d21-d11) X2^(d12-d22) - X1^-2d11 X2^2d12

together with the signed exponent matrix T (negative diagonal, positive
off-diagonal) and, for n = 4, the ratios

    xi_1 = d11 / (d11 + min(d21, d31))   (and cyclic analogues),

whose sum is the strict-inequality condition for the non-finite-generation
regime; the two-variable analogue compares against 1/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import ConditionError, UsageError, ValidationError, is_int
from .laurent import QQ, LaurentPoly, parse_field
from .lattice import IntMatrix, det


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


def _check_entry(name, value, minimum):
    if not is_int(value) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def build_instance(n, gamma, delta, field_tag=QQ) -> KurodaInstance:
    """Materialize an instance from (gamma, delta) data, validating signs."""
    fld = parse_field(field_tag)
    if n not in (3, 4):
        raise ValidationError(f"n must be 3 or 4, got {n}")
    _check_entry("gamma", gamma, 1)
    if not isinstance(delta, list) or not all(isinstance(r, list) for r in delta):
        raise ValidationError(f"delta must be a list of integer rows, got {delta!r}")
    rows = [list(r) for r in delta]
    if n == 4:
        if len(rows) != 3:
            raise ValidationError(f"delta must have 3 rows for n=4, got {len(rows)}")
        for i, r in enumerate(rows):
            if len(r) == 3:
                r.append(0)
            if len(r) != 4:
                raise ValidationError(f"delta[{i}] must have 3 or 4 entries, got {len(r)}")
            for j in range(3):
                _check_entry(f"delta[{i}][{j}]", r[j], 1)
            _check_entry(f"delta[{i}][3]", r[3], 0)
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
        raise ValidationError("delta must be a 2x2 matrix for n=3")
    for i in range(2):
        for j in range(2):
            _check_entry(f"delta[{i}][{j}]", rows[i][j], 1)
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


def check_star(inst: KurodaInstance):
    """Exact value of the three-ratio sum; holds iff it is < 1 (n=4)."""
    if inst.n != 4:
        raise UsageError("the three-ratio condition applies to the n=4 family")
    value = star_value(inst.delta)
    return value, value < 1


def check_starstar(inst: KurodaInstance):
    """Exact value of the two-ratio sum; holds iff it is < 1/2 (n=3)."""
    if inst.n != 3:
        raise UsageError("the two-ratio condition applies to the n=3 family")
    value = starstar_value(*inst.delta[0], *inst.delta[1])
    return value, value < Fraction(1, 2)


def starstar_value(d11, d12, d21, d22):
    """The two-ratio sum of an n=3 instance."""
    return Fraction(d11, d11 + d21) + Fraction(d22, d22 + d12)


def _xi(rows):
    """The three ratios xi_i = d_ii / (d_ii + min of the other rows' column i)."""
    return tuple(
        Fraction(rows[i][i], rows[i][i] + min(rows[(i + 1) % 3][i], rows[(i + 2) % 3][i]))
        for i in range(3)
    )


def star_value(rows):
    """The three-ratio sum of an n=4 instance (delta rows)."""
    return sum(_xi(rows))


def _flip_diagonal(rows):
    """Rows with the diagonal entries negated: the sign rule of T and the Y-images."""
    return tuple(
        tuple(-x if i == j else x for j, x in enumerate(row)) for i, row in enumerate(rows)
    )


@dataclass(frozen=True)
class ScanReport:
    n: int
    bound: int
    total: int
    implication_violations: tuple  # condition holds but det T == 0 (expected empty)
    converse_witnesses: tuple      # det T != 0 but condition fails


def implication_scan(n: int, bound: int, maximum: int = 4) -> ScanReport:
    """Exhaustive delta-box scan of condition => det T != 0.

    Entries run over [1, bound].  Collects all converse counterexamples
    (nonzero determinant with the condition failing).
    """
    if bound > maximum:
        raise UsageError(f"bound {bound} exceeds the configured maximum {maximum}")
    if bound < 1:
        raise UsageError("bound must be >= 1")
    violations = []
    witnesses = []
    total = 0
    rng = range(1, bound + 1)
    if n == 3:
        for d11, d12, d21, d22 in itertools.product(rng, repeat=4):
            total += 1
            value = starstar_value(d11, d12, d21, d22)
            holds = value < Fraction(1, 2)
            dt = d11 * d22 - d12 * d21  # det [[-d11,d12],[d21,-d22]]
            entry = {"delta": ((d11, d12), (d21, d22)), "value": value, "det": dt}
            if holds and dt == 0:
                violations.append(entry)
            if dt != 0 and not holds:
                witnesses.append(entry)
    elif n == 4:
        for flat in itertools.product(rng, repeat=9):
            total += 1
            rows = (flat[0:3], flat[3:6], flat[6:9])
            value = star_value(rows)
            holds = value < 1
            dt = det(IntMatrix(3, 3, _flip_diagonal(rows)))
            entry = {"delta": rows, "value": value, "det": dt}
            if holds and dt == 0:
                violations.append(entry)
            if dt != 0 and not holds:
                witnesses.append(entry)
    else:
        raise UsageError(f"n must be 3 or 4, got {n}")
    return ScanReport(n, bound, total, tuple(violations), tuple(witnesses))


def lemma31_find_p(xi):
    """Deterministic positive integers (p, p1, p2, p3) for the ratio triple.

    p is the least positive integer with p(1 - sum xi) >= 3; p1 and p2 are
    the ceilings of p*xi_1 and p*xi_2 (raised to at least 1), and p3 takes
    the remainder.  Each p_i then satisfies p_i >= p*xi_i and p_i >= 1.
    """
    xi = tuple(Fraction(x) for x in xi)
    if len(xi) != 3:
        raise UsageError("need exactly three ratios")
    for i, x in enumerate(xi):
        if not (0 < x < 1):
            raise ConditionError(f"ratio {i + 1} = {x} is not in (0, 1)")
    s = sum(xi)
    if s >= 1:
        raise ConditionError(f"ratio sum {s} is >= 1; the strict-sum hypothesis fails")
    p = max(1, math.ceil(Fraction(3) / (1 - s)))
    p1 = max(1, math.ceil(p * xi[0]))
    p2 = max(1, math.ceil(p * xi[1]))
    p3 = p - p1 - p2
    if p3 < max(1, p * xi[2]):
        raise ConditionError(f"no feasible split of p={p} into three parts")
    return p, p1, p2, p3


def _check_exponents(**exponents):
    for name, v in exponents.items():
        if not is_int(v) or v < 0:
            raise UsageError(f"{name} must be a nonnegative integer")


def build_f0(inst: KurodaInstance, p1: int, p2: int, p3: int) -> LaurentPoly:
    """The certificate product expanded and pushed down to the X-variables.

    Expands (Y3 - Y2)^p1 (Y3 - Y1)^p2 (Y2 - Y1)^p3 by multinomials in the
    Y-monomial lattice (where the map to X-monomials is injective because
    the exponent matrix is nonsingular), then substitutes.
    """
    if inst.n != 4:
        raise UsageError("the certificate product is defined for the n=4 family")
    _check_exponents(p1=p1, p2=p2, p3=p3)
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
    if inst.n != 4:
        raise UsageError("the certificate product is defined for the n=4 family")
    _check_exponents(p1=p1, p2=p2, p3=p3)
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
    if inst.n != 4:
        raise UsageError("defined for the n=4 family")
    _check_exponents(s=s, p2bar=p2bar, p3bar=p3bar, e=e)
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
