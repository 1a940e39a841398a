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

from .errors import IndependenceError, LinealityError, ShapeError, UsageError
from .lattice import IntMatrix, row_times_matrix
from .linalg import primitive_vector, rational_nullspace, rational_solve, row_reduce


@dataclass(frozen=True)
class SubalgebraGens:
    """t monomial generators of a subalgebra, as exponent vectors in Z^n."""

    n: int
    vectors: tuple

    @classmethod
    def of(cls, n, vectors):
        vecs = [tuple(int(x) for x in v) for v in vectors]
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


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generating set of S = {beta : beta U >= 0}, lex-sorted."""

    u: IntMatrix
    vectors: tuple


def cone_membership(u: IntMatrix, beta) -> bool:
    """True iff beta U >= 0 componentwise."""
    return min(row_times_matrix(beta, u), default=0) >= 0


def _extreme_rays(u: IntMatrix):
    t, n = u.rows, u.cols
    cols = [[u.entries[i][j] for i in range(t)] for j in range(n)]

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
    lineal = rational_nullspace([list(col) for col in zip(*u.entries)] if u.entries else [], ncols=t)
    # rows of the system are columns of U: beta U = 0
    if lineal:
        raise LinealityError(primitive_vector(lineal[0]))
    rays = _extreme_rays(u)
    if not rays:
        return HilbertBasis(u, ())
    lo = [sum(min(r[j], 0) for r in rays) for j in range(t)]
    hi = [sum(max(r[j], 0) for r in rays) for j in range(t)]
    cands = []
    for beta in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        img = row_times_matrix(beta, u)
        if min(img) >= 0 and any(beta):
            cands.append((sum(img), beta, img))
    cands.sort()
    basis = []
    for level, beta, img in cands:
        reducible = False
        for blevel, b, bimg in basis:
            if blevel > level or b == beta:
                continue
            rest = tuple(x - y for x, y in zip(beta, b))
            if any(rest) and all(x - y >= 0 for x, y in zip(img, bimg)):
                reducible = True
                break
        if not reducible:
            basis.append((level, beta, img))
    return HilbertBasis(u, tuple(sorted(b for _, b, _ in basis)))


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
    target = tuple(int(x) for x in target)
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
    hb = hilbert_basis(gens.matrix)
    out = []
    for beta in hb.vectors:
        mono = row_times_matrix(beta, gens.matrix)
        assert min(mono, default=0) >= 0
        out.append(mono)
    return sorted(set(out))
