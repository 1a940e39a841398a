"""Affine-monoid computations on exponent lattices.

The central object is the monoid S = {beta in Z^t : beta U >= 0 in every
coordinate} cut out by a t x n integer matrix U whose rows are the exponent
vectors of t Laurent monomials.  For pointed cones the unique minimal
generating set (Hilbert basis) is computed by enumerating extreme rays,
collecting lattice points of the spanned zonotope box, and sieving to the
irreducible elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import ge

from .errors import IndependenceError, LinealityError, ShapeError, UsageError, int_vector
from .lattice import IntMatrix, row_times_matrix
from .linalg import primitive_vector, rational_nullspace, rational_solve, row_reduce


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
                raise ShapeError(f"generator {v} has length != {n}")
        if len(set(vecs)) != len(vecs):
            raise UsageError("duplicate generators")
        return cls(n, tuple(vecs))

    @property
    def t(self):
        return len(self.vectors)

    @property
    def matrix(self) -> IntMatrix:
        return IntMatrix(self.t, self.n, self.vectors)


# Largest box of lattice points an exhaustive enumeration may visit.  Every
# box in the tests and the benchmark is far smaller (at most 12 000 points).
# Time and memory grow with the box, so a larger one is refused as a usage
# error up front instead of running for minutes.
ENUMERATION_BUDGET = 2_000_000


def _check_budget(what, points):
    if points > ENUMERATION_BUDGET:
        raise UsageError(
            f"{what} has {points} lattice points, above the enumeration budget of {ENUMERATION_BUDGET}"
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
    return min(row_times_matrix(beta, u), default=0) >= 0


def _extreme_rays(u: IntMatrix):
    t, n = u.rows, u.cols
    cols = u.columns

    def feasible(d):
        return all(sum(x * c for x, c in zip(d, col)) >= 0 for col in cols)

    rays = set()
    if t == 1:
        for d in ((1,), (-1,)):
            if feasible(d):
                rays.add(d)
        return sorted(rays)
    for subset in itertools.combinations(range(n), t - 1):
        mat = [cols[j] for j in subset]
        ns = rational_nullspace(mat, ncols=t)
        if len(ns) != 1:
            continue
        d = primitive_vector(ns[0])
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
    # rows of the system are columns of U: beta U = 0
    lineal = rational_nullspace(list(u.columns), ncols=t)
    if lineal:
        raise LinealityError(primitive_vector(lineal[0]))
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


def triangle_criterion(i: int, j: int, k: int) -> bool:
    """Membership test for a^i b^j c^k in the subalgebra of ab, bc, ca."""
    return (i + j + k) % 2 == 0 and i + j >= k and j + k >= i and i + k >= j


def monomial_membership(gens: SubalgebraGens, target):
    """A witness beta >= 0 with beta U = target, or None.

    When the generators are algebraically independent (rank U = t) the
    rational solution is unique and is checked directly.  Otherwise an
    exhaustive search runs over the box 0 <= beta_i <= B with
    B = sum |target| * max(1, max |U entry|); a None answer is exhaustive
    within that documented bound.
    """
    target = int_vector(target, "target")
    if len(target) != gens.n:
        raise ShapeError(f"target {target} has length != {gens.n}")
    u = gens.matrix
    t = gens.t
    if t == 0:
        return () if not any(target) else None
    # equations: U^T beta = target
    system = [[u.entries[i][j] for i in range(t)] for j in range(gens.n)]
    sol = rational_solve(system, [Fraction(x) for x in target])
    if sol is None:
        return None
    x, null = sol
    if not null:
        if all(f.denominator == 1 and f >= 0 for f in x):
            return tuple(int(f) for f in x)
        return None
    maxu = max((abs(e) for row in u.entries for e in row), default=1)
    bound = sum(abs(x_) for x_ in target) * max(1, maxu)
    _check_budget("the membership search box", (bound + 1) ** t)
    for beta in itertools.product(range(bound + 1), repeat=t):
        if row_times_matrix(beta, u) == target:
            return beta
    return None


def alg_independence(gens: SubalgebraGens) -> bool:
    """True iff the exponent matrix has full row rank over Q."""
    return row_reduce(gens.matrix.entries).rank == gens.t


def intersection_generators(gens: SubalgebraGens):
    """Monomial generators of the polynomial part of the generated field.

    Applies the Hilbert basis of S to U; every output is a genuine
    polynomial monomial (all exponents >= 0), returned in lex order.
    """
    if not alg_independence(gens):
        raise IndependenceError("generators are algebraically dependent")
    return hilbert_basis(gens.matrix).monomials
