"""Seeded inputs for the benchmark workloads.

Stdlib only and independent of the h14 package: the program under test sees
only the inputs generated here.  The same seed gives the same inputs.

Where an input's cost varies a lot from case to case, the generator either
draws it from a fixed cost class that it computes itself (Lemma 3.1 exponent
p, ray bounding box) or keeps it cheaper than the workload's fixed jobs, so
that the per-run work, and with it the run-to-run spread of the timings,
does not depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

OFF3 = ((1, 3, 3), (3, 1, 3), (3, 3, 1))
ONES = ((1, 1, 1), (1, 1, 1), (1, 1, 1))
TRIANGLE = ((1, 1, 0), (0, 1, 1), (1, 0, 1))

# pi-engine: (*)-instances with entries in [1, 4], solved at this degree bound.
# They stay cheaper than every fixed pi-engine job, so the median job is fixed.
PI_SEEDED_DMAX = 8
PI_SEEDED_Q = 3
# certificates: mutated Lemma 3.1 exponents, drawn per exponent class p from
# the 58 (*)-instances with entries in [1, 3]; the cost grows steeply with p.
F0_CASES_PER_P = {180: 10, 36: 10, 18: 3, 30: 1}
# certificates: 3x3 cones with entries in [-6, 6] whose ray bounding box holds
# this many lattice points (the box is what hilbert_basis enumerates).
CONE_ENTRY = 6
CONE_BOX_BUDGET = (4000, 12000)
CONES = 12
CHECK_CONDITIONS_N3 = 6
CHECK_CONDITIONS_N4 = 6
T28_SEEDS = 4
T214_SEEDS = 4
MEMBERSHIP_BATCHES = 48
MEMBERSHIP_BATCH = 40
MEMBERSHIP_MAX_EXP = 8
# graded: seeded n = 4 instances for p2.6 and polynomials for Leibniz checks.
P26_SEEDED = 3
LEIBNIZ_BATCHES = 3
LEIBNIZ_PAIRS = 4
LEIBNIZ_TERMS = 6
LEIBNIZ_MAX_EXP = 4


def star_value(rows) -> Fraction:
    """Three-ratio sum of condition (*) for a 3x3 exponent table."""
    return (
        Fraction(rows[0][0], rows[0][0] + min(rows[1][0], rows[2][0]))
        + Fraction(rows[1][1], rows[1][1] + min(rows[2][1], rows[0][1]))
        + Fraction(rows[2][2], rows[2][2] + min(rows[0][2], rows[1][2]))
    )


def starstar_value(rows) -> Fraction:
    """Two-ratio sum of condition (**) for a 2x2 exponent table."""
    (d11, d12), (d21, d22) = rows
    return Fraction(d11, d11 + d21) + Fraction(d22, d22 + d12)


def _star_holds(r) -> bool:
    """Integer form of star_value(r) < 1, for fast enumeration."""
    a1, b1 = r[0][0], r[0][0] + min(r[1][0], r[2][0])
    a2, b2 = r[1][1], r[1][1] + min(r[2][1], r[0][1])
    a3, b3 = r[2][2], r[2][2] + min(r[0][2], r[1][2])
    return a1 * b2 * b3 + a2 * b1 * b3 + a3 * b1 * b2 < b1 * b2 * b3


def star_instances(max_entry):
    """Every 3x3 table with entries in [1, max_entry] satisfying (*)."""
    out = []
    for flat in itertools.product(range(1, max_entry + 1), repeat=9):
        rows = (flat[0:3], flat[3:6], flat[6:9])
        if _star_holds(rows):
            out.append(rows)
    return out


def random_star_instance(rng, max_entry):
    while True:
        rows = tuple(tuple(rng.randint(1, max_entry) for _ in range(3)) for _ in range(3))
        if _star_holds(rows):
            return rows


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def t_matrix(rows):
    """Signed exponent matrix T: the table with its diagonal negated."""
    return tuple(
        tuple(-x if i == j else x for j, x in enumerate(row)) for i, row in enumerate(rows)
    )


def det_t(rows) -> int:
    t = t_matrix(rows)
    if len(t) == 2:
        return t[0][0] * t[1][1] - t[0][1] * t[1][0]
    return det3(t)


def lemma31_exponents(rows):
    """(p, p1, p2, p3) of Lemma 3.1 for a (*)-instance."""
    d = rows
    xi = (
        Fraction(d[0][0], d[0][0] + min(d[1][0], d[2][0])),
        Fraction(d[1][1], d[1][1] + min(d[2][1], d[0][1])),
        Fraction(d[2][2], d[2][2] + min(d[0][2], d[1][2])),
    )
    p = max(1, math.ceil(Fraction(3) / (1 - sum(xi))))
    p1 = max(1, math.ceil(p * xi[0]))
    p2 = max(1, math.ceil(p * xi[1]))
    return p, p1, p2, p - p1 - p2, xi


def mutated_exponents(rows):
    """Lemma 3.1 exponents with p1 lowered to ceil(p * xi_1) - 1."""
    p, _p1, p2, p3, xi = lemma31_exponents(rows)
    return p, (math.ceil(p * xi[0]) - 1, p2, p3)


def cone_rays(u):
    """Extreme rays of {beta : beta U >= 0} for a nonsingular 3x3 U.

    Each ray is orthogonal to two columns of U, so it is the primitive cross
    product of that column pair, with the sign that keeps the third >= 0.
    """
    cols = [tuple(u[i][j] for i in range(3)) for j in range(3)]
    rays = set()
    for a, b in itertools.combinations(range(3), 2):
        x, y = cols[a], cols[b]
        d = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])
        g = math.gcd(*d)
        d = tuple(v // g for v in d)
        for ray in (d, tuple(-v for v in d)):
            if all(sum(r * c for r, c in zip(ray, col)) >= 0 for col in cols):
                rays.add(ray)
    return sorted(rays)


def cone_box_points(u) -> int:
    """Lattice points in the bounding box of the rays' zonotope."""
    rays = cone_rays(u)
    lo = [sum(min(r[j], 0) for r in rays) for j in range(3)]
    hi = [sum(max(r[j], 0) for r in rays) for j in range(3)]
    return math.prod(h - l + 1 for l, h in zip(lo, hi))


def random_cone(rng):
    """A nonsingular 3x3 U whose ray box lies within CONE_BOX_BUDGET."""
    lo, hi = CONE_BOX_BUDGET
    while True:
        u = tuple(
            tuple(rng.randint(-CONE_ENTRY, CONE_ENTRY) for _ in range(3)) for _ in range(3)
        )
        if det3(u) != 0 and lo <= cone_box_points(u) <= hi:
            return u


def random_poly(rng):
    """Sparse polynomial in 4 variables: {exponent tuple: nonzero int}."""
    terms = {}
    while len(terms) < LEIBNIZ_TERMS:
        e = tuple(rng.randint(0, LEIBNIZ_MAX_EXP) for _ in range(4))
        terms[e] = rng.choice([c for c in range(-5, 6) if c])
    return terms


def generate(workload: str, seed: int) -> dict:
    """The seeded inputs of one workload."""
    rng = random.Random(f"h14-perfbench/{workload}/{seed}")
    if workload == "pi-engine":
        seeded = []
        while len(seeded) < PI_SEEDED_Q:
            rows = random_star_instance(rng, 4)
            if rows not in seeded:
                seeded.append(rows)
        return {"seeded": seeded}
    if workload == "certificates":
        by_p = {}
        for rows in star_instances(3):
            p, exps = mutated_exponents(rows)
            by_p.setdefault(p, []).append((rows, exps))
        f0_cases = []
        for p in sorted(F0_CASES_PER_P):
            f0_cases += rng.sample(by_p[p], F0_CASES_PER_P[p])
        cones = []
        while len(cones) < CONES:
            u = random_cone(rng)
            if u not in cones:
                cones.append(u)
        n3 = [
            (rng.randint(1, 3), tuple(tuple(rng.randint(1, 5) for _ in range(2)) for _ in range(2)))
            for _ in range(CHECK_CONDITIONS_N3)
        ]
        n4 = [
            (rng.randint(1, 3), tuple(tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(3)))
            for _ in range(CHECK_CONDITIONS_N4)
        ]
        membership = [
            [
                tuple(rng.randint(0, MEMBERSHIP_MAX_EXP) for _ in range(3))
                for _ in range(MEMBERSHIP_BATCH)
            ]
            for _ in range(MEMBERSHIP_BATCHES)
        ]
        return {
            "f0_cases": f0_cases,
            "cones": cones,
            "n3": n3,
            "n4": n4,
            "t28_seeds": [rng.randrange(10**6) for _ in range(T28_SEEDS)],
            "t214_seeds": [rng.randrange(10**6) for _ in range(T214_SEEDS)],
            "membership": membership,
        }
    if workload == "graded":
        p26 = []
        while len(p26) < P26_SEEDED:
            rows = random_star_instance(rng, 4)
            if rows not in p26:
                p26.append(rows)
        leibniz = [
            [(random_poly(rng), random_poly(rng)) for _ in range(LEIBNIZ_PAIRS)]
            for _ in range(LEIBNIZ_BATCHES)
        ]
        return {"p26": p26, "leibniz": leibniz}
    raise ValueError(f"unknown workload {workload!r}")
