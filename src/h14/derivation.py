"""The equal-coefficient derivation on a polynomial ring in Y-variables.

E sends f to the sum of its partial derivatives.  Its kernel in four
variables is generated by the differences Y4-Y1, Y4-Y2, Y4-Y3, and in n
variables it is Q[Y1-Yn, ..., Y(n-1)-Yn] (Freudenburg, Algebraic Theory of
Locally Nilpotent Derivations).  The module writes bounded-degree kernel
bases in that closed form.
"""

from __future__ import annotations

import itertools
from math import comb, prod
from operator import sub

from .errors import PreconditionError, check_int
from .laurent import QQ, LaurentPoly
from .monoid import _check_budget

# Resource guard on the degree bound of kernel_degree_basis.
MAX_DEGREE = 8


def apply_E(f: LaurentPoly) -> LaurentPoly:
    """Sum of the partial derivatives in all variables."""
    out = LaurentPoly.zero(f.n, f.field)
    for i in range(f.n):
        out = out + f.partial_derivative(i)
    return out


def kernel_degree_basis(d: int, nvars: int = 4):
    """Basis of the kernel within polynomials of total degree <= d, in closed
    form: one polynomial f(Y1 - Yn, ..., Y(n-1) - Yn) per Yn-free monomial f
    of degree <= d, in ascending order of f, with ``int`` coefficients (over
    Q the field layer stores integral coefficients as ints).

    It is the canonical basis of the nullspace of E on monomial coefficients
    (lex-ordered keys, pivots least), which needs no elimination.  E has one
    equation per monomial m of degree < d, on the coefficients at m + e_i
    with weights m_i + 1; its least key is m + e_n, weight m_n + 1 != 0 in
    characteristic 0.  Distinct equations have distinct least keys, so the
    pivots are the monomials with a positive last exponent and the free
    variables are the Yn-free monomials f.  The null vector of f has 1 at f
    and 0 at every other free monomial.  f(Y1 - Yn, ...) is killed by E,
    since E(Yi - Yn) = 0, and setting Yn = 0 leaves f, so it is that vector.

    The dimension claim needs characteristic 0, so the basis is over Q.  A
    basis of more than ``monoid.ENUMERATION_BUDGET`` terms is refused up
    front: f = Y^a has prod(a_i + 1) terms, C(d + 2n - 2, 2n - 2) in all
    (one per choice of a - j and j, 2(n - 1) exponents of sum <= d).
    """
    check_int(d, "degree bound", high=MAX_DEGREE)
    check_int(nvars, "nvars", 1)
    terms = comb(d + 2 * nvars - 2, 2 * nvars - 2)
    _check_budget(f"the degree-{d} kernel basis in {nvars} variables", terms, "terms")
    free = sorted(tuple(map(c.count, range(nvars - 1)))
                  for k in range(d + 1) for c in itertools.combinations_with_replacement(range(nvars - 1), k))
    # (Y_i - Y_n)^(a_i) = sum over j_i of C(a_i, j_i) Y_i^(a_i - j_i) (-Y_n)^(j_i), for f = Y^a
    return [LaurentPoly._trusted(nvars, QQ, {
        tuple(map(sub, f, js)) + (sum(js),): (-1) ** sum(js) * prod(map(comb, f, js))
        for js in itertools.product(*(range(a + 1) for a in f))}) for f in free]


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
