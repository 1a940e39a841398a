"""Affine-monoid computations on exponent lattices.

The central object is the monoid S = {beta in Z^t : beta U >= 0 in every
coordinate} cut out by a t x n integer matrix U whose rows are the exponent
vectors of t Laurent monomials.  For pointed cones the unique minimal
generating set (Hilbert basis) is computed by enumerating extreme rays,
collecting lattice points of the spanned zonotope box, and sieving to the
irreducible elements.  Integers only: membership and rank are read off one
certified Smith form per ``SubalgebraGens``, and kernels (rays, lines in a
cone) are rows of a Smith transform (``lattice.left_kernel``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import ge, mul

from .errors import PreconditionError, UsageError, int_vector
from .lattice import IntMatrix, SmithForm, left_kernel, row_times_matrix, smith_certificate, smith_normal_form


@dataclass(frozen=True)
class SubalgebraGens:
    """t monomial generators of a subalgebra, as exponent vectors in Z^n."""

    n: int
    vectors: tuple

    @classmethod
    def of(cls, n, vectors):
        vecs = [int_vector(v, "generator") for v in vectors]
        for v in vecs:
            if len(v) != n:
                raise UsageError(f"generator {v} has length != {n}")
        if len(set(vecs)) != len(vecs):
            raise UsageError("duplicate generators")
        return cls(n, tuple(vecs))

    @property
    def t(self):
        return len(self.vectors)

    @cached_property
    def matrix(self) -> IntMatrix:
        return IntMatrix(self.t, self.n, self.vectors)

    @cached_property
    def smith(self) -> SmithForm:
        """D = S U V for the generator matrix U, checked by ``smith_certificate``."""
        sf = smith_normal_form(self.matrix)
        if not smith_certificate(self.matrix, sf):
            raise ArithmeticError("the Smith form of the generator matrix fails its certificate")
        return sf


# Largest box of lattice points an exhaustive enumeration may visit.  Every
# box in the tests and the benchmark is far smaller (at most 12 000 points).
# Time and memory grow with the box, so a larger one is refused as a usage
# error up front instead of running for minutes.
ENUMERATION_BUDGET = 2_000_000


def _check_budget(what, points, unit="lattice points"):
    if points > ENUMERATION_BUDGET:
        raise UsageError(
            f"{what} has {points} {unit}, above the enumeration budget of {ENUMERATION_BUDGET}"
        )


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generating set of S = {beta : beta U >= 0}, lex-sorted, with
    the image beta U of each vector in the same order."""

    u: IntMatrix
    vectors: tuple
    images: tuple

    @property
    def monomials(self):
        """The generator monomials: the images beta U, sorted and deduplicated.

        Every image is a genuine polynomial monomial (all exponents >= 0).
        """
        if any(min(img, default=0) < 0 for img in self.images):
            raise ArithmeticError("a Hilbert basis vector has an image with a negative exponent")
        return sorted(set(self.images))


def cone_membership(u: IntMatrix, beta) -> bool:
    """True iff beta U >= 0 componentwise."""
    return min(row_times_matrix(int_vector(beta, "beta"), u), default=0) >= 0


def _extreme_rays(u: IntMatrix):
    t, n = u.rows, u.cols

    def feasible(d):
        return all(sum(map(mul, d, col)) >= 0 for col in u.columns)

    rays = set()
    for subset in itertools.combinations(range(n), t - 1):
        kernel = left_kernel(IntMatrix(t, t - 1, tuple(tuple(row[j] for j in subset) for row in u.entries)))
        if len(kernel) != 1:
            continue
        d = kernel[0]
        if feasible(d):
            rays.add(d)
        nd = tuple(-x for x in d)
        if feasible(nd):
            rays.add(nd)
    return sorted(rays)


def hilbert_basis(u: IntMatrix) -> HilbertBasis:
    """The unique minimal generating set of S (pointed cones only).

    Extreme rays are found from the inequality description; every
    irreducible element of S lies in the box spanned by them (Gordan's
    argument), so lattice points of the box are enumerated and sieved
    greedily in increasing order of the additive level sum(beta U).
    """
    t = u.rows
    lineal = left_kernel(u)  # beta U = 0
    if lineal:
        raise PreconditionError(f"cone is not pointed; contains the line through {lineal[0]}")
    rays = _extreme_rays(u)
    if not rays:
        return HilbertBasis(u, (), ())
    lo = [sum(min(r[j], 0) for r in rays) for j in range(t)]
    hi = [sum(max(r[j], 0) for r in rays) for j in range(t)]
    _check_budget("the ray box", prod(b - a + 1 for a, b in zip(lo, hi)))
    cands = []
    for beta in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        img = row_times_matrix(beta, u)
        if min(img) >= 0 and any(beta):
            cands.append((sum(img), beta, img))
    cands.sort()
    # Candidates come in increasing level, so every earlier basis vector b has
    # a level no higher; beta - b lies in S exactly when its image
    # img - bimg >= 0, and beta U = b U forces beta = b (S is pointed).
    basis = []
    for _, beta, img in cands:
        if not any(all(map(ge, img, bimg)) for _, bimg in basis):
            basis.append((beta, img))
    basis.sort()
    return HilbertBasis(u, tuple(b for b, _ in basis), tuple(img for _, img in basis))


def monomial_membership(gens: SubalgebraGens, target):
    """A witness beta >= 0 with beta U = target, or None.

    With D = S U V (``SubalgebraGens.smith``) and w = target V, beta = g S
    solves beta U = target iff g D = w: an integer solution exists iff d_j
    divides w_j below the rank r and w_j = 0 from r on.  For independent
    generators (r = t) it is unique, g_j = w_j / d_j, checked exactly, and a
    witness iff beta >= 0.  Only dependent generators are searched, over a box
    0 <= beta_i <= B_i.  When every entry of U is >= 0, beta_i * U[i][j] <=
    target_j bounds B_i by the least target_j // U[i][j] over U[i][j] > 0 (0
    for a zero row: any witness stays one with beta_i = 0), so the search is
    complete.  Otherwise every B_i = sum |target| * max |U entry|; a None
    answer is exhaustive within that documented bound.
    """
    target = int_vector(target, "target")
    if len(target) != gens.n:
        raise UsageError(f"target {target} has length != {gens.n}")
    u, t, sf = gens.matrix, gens.t, gens.smith
    d = sf.invariants
    w = row_times_matrix(target, sf.v)
    if any(w[len(d):]) or any(x % dj for x, dj in zip(w, d)):
        return None
    if len(d) == t:
        beta = row_times_matrix([x // dj for x, dj in zip(w, d)], sf.u)
        if row_times_matrix(beta, u) != target:
            raise ArithmeticError(f"the Smith solution {beta} does not give {target}")
        return beta if min(beta, default=0) >= 0 else None
    if all(e >= 0 for row in u.entries for e in row):
        if min(target, default=0) < 0:
            return None  # beta U >= 0
        bounds = [min((x_ // e for x_, e in zip(target, row) if e > 0), default=0) for row in u.entries]
    else:
        bounds = [sum(map(abs, target)) * max(abs(e) for row in u.entries for e in row)] * t
    _check_budget("the membership search box", prod(b + 1 for b in bounds))
    for beta in itertools.product(*(range(b + 1) for b in bounds)):
        if row_times_matrix(beta, u) == target:
            return beta
    return None


def alg_independence(gens: SubalgebraGens) -> bool:
    """True iff the exponent matrix has full row rank (t Smith invariants)."""
    return len(gens.smith.invariants) == gens.t


def intersection_generators(gens: SubalgebraGens):
    """Monomial generators of the polynomial part of the generated field.

    Applies the Hilbert basis of S to U; every output is a genuine
    polynomial monomial (all exponents >= 0), returned in lex order.
    """
    if not alg_independence(gens):
        raise PreconditionError("generators are algebraically dependent")
    return hilbert_basis(gens.matrix).monomials
