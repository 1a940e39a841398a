"""The equal-coefficient derivation on a polynomial ring in Y-variables.

E sends f to the sum of its partial derivatives.  Its kernel in four
variables is generated by the differences Y4-Y1, Y4-Y2, Y4-Y3; the module
checks kernel membership symbolically and recovers bounded-degree kernel
bases by exact linear algebra on monomial coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .errors import PreconditionError, UsageError, check_int
from .laurent import QQ, LaurentPoly
from .linalg import sparse_nullspace
from .monoid import _check_budget

# Resource guard on the degree bound of kernel_degree_basis.
MAX_DEGREE = 8


def apply_E(f: LaurentPoly) -> LaurentPoly:
    """Sum of the partial derivatives in all variables."""
    out = LaurentPoly.zero(f.n, f.field)
    for i in range(f.n):
        out = out + f.partial_derivative(i)
    return out


def kernel_check(f: LaurentPoly) -> bool:
    """True iff f is annihilated by the derivation."""
    return apply_E(f).is_zero()


def kernel_generators(nvars: int = 4, field=QQ):
    """The difference generators Y_n - Y_i of the kernel."""
    y = [LaurentPoly.variable(nvars, i, field) for i in range(nvars)]
    return [y[-1] - y[i] for i in range(nvars - 1)]


def kernel_degree_basis(d: int, nvars: int = 4, field=QQ):
    """Basis of the kernel within polynomials of total degree <= d.

    Solved as exact linear algebra over Q on monomial coefficients; the
    dimension claim needs characteristic 0, so prime fields are rejected.
    A table of more than ``monoid.ENUMERATION_BUDGET`` exponents (monomials
    times nvars) is refused up front, and so is an elimination of more than
    the budget of monomials times equations (one per monomial of degree
    below d).
    """
    if field != QQ:
        raise UsageError("kernel degree bases are computed over Q (characteristic 0)")
    check_int(d, "degree bound", high=MAX_DEGREE)
    check_int(nvars, "nvars", 1)
    what = f"the table of degree-{d} monomials in {nvars} variables"
    count = comb(d + nvars, nvars)
    _check_budget(what, count * nvars, "exponents")
    _check_budget(what, count * comb(d - 1 + nvars, nvars), "constraint-matrix entries")
    monomials = sorted(tuple(map(c.count, range(nvars)))
                       for k in range(d + 1) for c in itertools.combinations_with_replacement(range(nvars), k))
    # one homogeneous equation per image monomial: the e_i-weighted sum of the
    # coefficients at e + unit_i must vanish
    constraints = {}
    for e in monomials:
        for i in range(nvars):
            if e[i] == 0:
                continue
            img = list(e)
            img[i] -= 1
            constraints.setdefault(tuple(img), {})[e] = Fraction(e[i])
    rows = [constraints[img] for img in sorted(constraints)]
    vecs = sparse_nullspace(rows, monomials, QQ)
    return [LaurentPoly(nvars, QQ, v) for v in vecs]


def support_property_check(f: LaurentPoly) -> bool:
    """Support condition: any term with positive last exponent also carries
    positive total exponent in the remaining variables.

    Only meaningful for genuine polynomials; Laurent input is rejected.
    """
    if not f.is_polynomial():
        raise PreconditionError("support property concerns polynomial elements only")
    for e in f.support():
        if e[-1] > 0 and sum(e[:-1]) <= 0:
            return False
    return True
