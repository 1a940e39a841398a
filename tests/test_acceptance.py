"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the toolkit and prints a single
pass/fail line; the conftest terminal-summary hook echoes the lines after the
run so they always appear in the log.
"""

import hashlib
import io
import itertools
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

from h14.cli import main
from h14.derivation import apply_E, kernel_degree_basis, support_property_check
from h14.intersect import (
    freeness_coset_check,
    graded_intersection,
    kuroda_intersection_basis,
    no_monomial_units_check,
)
from h14.kuroda import (
    build_f0,
    build_instance,
    condition_holds,
    f0_is_polynomial,
    implication_scan,
    lemma31_find_p,
    random_instance,
    ratio_sum,
    verify_t214,
)
from h14.lattice import IntMatrix, left_kernel, row_times_matrix, solve_unit_row
from h14.laurent import QQ, LaurentPoly
from h14.linalg import SparseRREF
from h14.monoid import (
    SubalgebraGens,
    cone_membership,
    hilbert_basis,
    intersection_generators,
    monomial_membership,
)
from test_monoid import triangle_criterion

ONES = build_instance(4, 1, [[1, 1, 1]] * 3)
OFF3 = build_instance(4, 1, [[1, 3, 3], [3, 1, 3], [3, 3, 1]])


ACCEPTANCE_LINES = []


def report(num, name, ok):
    line = f"ACCEPTANCE {num:02d} {name}: {'pass' if ok else 'fail'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_01_counterexample_reproduction():
    inst = build_instance(3, 1, [[3, 1], [1, 1]])
    ok = ratio_sum(inst.delta) == Fraction(5, 4) and not condition_holds(inst.delta) and inst.det_t == 2
    report(1, "counterexample-reproduction", ok)


def test_02_implication_scan():
    sc3 = implication_scan(3, 4)
    sc4 = implication_scan(4, 2)
    ok = (
        sc3.total == 256
        and sc4.total == 512
        and sc3.implication_violations == ()
        and sc4.implication_violations == ()
    )
    report(2, "implication-scan", ok)


def test_03_unit_row_witness():
    ok = True
    for i in range(3):
        m, s = solve_unit_row(OFF3.t_matrix, i)
        word = LaurentPoly.monomial(3, s, 1, OFF3.field)
        lhs = word.substitute(list(OFF3.y_images[:3]))
        target = [0] * 4
        target[i] = m
        ok = ok and lhs == LaurentPoly.monomial(4, target, 1, OFF3.field)
    report(3, "unit-row-witness", ok)


def test_04_hilbert_pipeline():
    ok = set(hilbert_basis(IntMatrix.from_rows([[1, 1], [1, -1]])).vectors) == {
        (1, 0),
        (1, 1),
        (1, -1),
    }
    ok = ok and intersection_generators(
        SubalgebraGens.of(2, [(1, 1), (1, -1)])
    ) == [(0, 2), (1, 1), (2, 0)]

    def representable(vectors, u):
        memo = {}

        def rec(b):
            if not any(b):
                return True
            if b in memo:
                return memo[b]
            memo[b] = False
            for v in vectors:
                r = tuple(x - y for x, y in zip(b, v))
                if min(row_times_matrix(r, u), default=0) >= 0 and rec(r):
                    memo[b] = True
                    break
            return memo[b]

        return rec

    rng = random.Random(14)
    checked = 0
    while ok and checked < 50:
        t = rng.randint(1, 3)
        n = rng.randint(1, 3)
        u = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(t)]
        )
        if left_kernel(u):  # a cone with a line
            continue
        hb = hilbert_basis(u)
        checked += 1
        ok = ok and all(cone_membership(u, b) for b in hb.vectors)
        rec = representable(hb.vectors, u)
        for beta in itertools.product(range(-6, 7), repeat=t):
            if min(row_times_matrix(beta, u), default=0) >= 0 and not rec(beta):
                ok = False
                break
    report(4, "hilbert-pipeline", ok)


def _pairwise_gens(field):
    m = lambda e: LaurentPoly.monomial(4, e, 1, field)
    gens_a = [m((1, 1, 0, 0)), m((0, 1, 1, 0)), m((1, 0, 1, 0)), m((0, 0, 0, 1))]
    x = m((0, 0, 0, 1))
    gens_b = [x - m((2, 0, 0, 0)), x - m((0, 2, 0, 0)), x - m((0, 0, 2, 0))]
    return gens_a, gens_b


def test_05_graded_intersection_table():
    w = (1, 1, 1, 2)
    gq = graded_intersection(*_pairwise_gens(QQ), w, 16)
    ok = not any(gq[d] for d in range(1, 17))
    for p in (5, 7):
        gp = graded_intersection(*_pairwise_gens(p), w, 12)
        ok = ok and not any(gp[d] for d in range(1, 13))
    g2 = graded_intersection(*_pairwise_gens(2), w, 4)
    ok = ok and len(g2[4]) >= 1
    m = lambda e: LaurentPoly.monomial(4, e, 1, 2)
    target = (
        m((0, 1, 1, 0)) ** 2
        - m((1, 0, 1, 0)) ** 2
        - m((1, 1, 0, 0)) ** 2
        + m((0, 0, 0, 1)) ** 2
    )
    rr = SparseRREF(2)
    for b in g2[4]:
        rr.add(b.terms)
    ok = ok and rr.contains(target.terms)
    report(5, "graded-intersection-table", ok)


def test_06_triangle_criterion():
    gens = SubalgebraGens.of(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    ok = True
    for i, j, k in itertools.product(range(25), repeat=3):
        if i + j + k > 24:
            continue
        if (monomial_membership(gens, (i, j, k)) is not None) != triangle_criterion(
            i, j, k
        ):
            ok = False
            break
    report(6, "triangle-criterion", ok)


def test_07_certificate_exponents():
    ok = True
    mutation_failed_somewhere = False
    count = 0
    for flat in itertools.product(range(1, 4), repeat=9):
        rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        if ratio_sum(rows) >= 1:
            continue
        count += 1
        inst = build_instance(4, 1, rows)
        p, p1, p2, p3 = lemma31_find_p(inst.xi)
        ok = ok and f0_is_polynomial(inst, p1, p2, p3)
        bad_p1 = math.ceil(p * inst.xi[0]) - 1
        if bad_p1 >= 0 and not f0_is_polynomial(inst, bad_p1, p2, p3):
            mutation_failed_somewhere = True
    ok = ok and count == 58 and mutation_failed_somewhere
    report(7, "certificate-exponents", ok)


def test_08_support_property():
    ok = True
    for inst, dmax in ((OFF3, 8), (ONES, 6)):
        rep = kuroda_intersection_basis(inst, dmax)
        for d in sorted(rep.images):
            for img in rep.images[d]:
                if not img.is_constant():
                    ok = ok and support_property_check(img)
    report(8, "support-property", ok)


def test_09_triple_identity():
    rng = random.Random(0)
    ok = all(verify_t214(random_instance(rng, 3, 5)) for _ in range(50))
    inst = build_instance(3, 1, [[1, 1], [1, 1]])
    (d11, d12), (d21, d22) = inst.delta
    bad = 3 * LaurentPoly.monomial(
        3, (d21 - d11, d12 - d22, 0)
    ) - LaurentPoly.monomial(3, (-2 * d11, 2 * d12, 0))
    ok = ok and not verify_t214(inst, (inst.pis[0], inst.pis[1], bad))
    report(9, "triple-identity", ok)


def test_10_kernel_dimensions():
    ok = all(
        len(kernel_degree_basis(d)) == math.comb(d + 3, 3) for d in range(9)
    )
    rng = random.Random(10)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(4))
            terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
        return LaurentPoly(4, QQ, terms)

    for _ in range(60):
        f, g = rand_poly(), rand_poly()
        if apply_E(f * g) != apply_E(f) * g + f * apply_E(g):
            ok = False
            break
    report(10, "kernel-dimensions", ok)


def test_11_freeness_coset():
    ok = freeness_coset_check(ONES, 5) and freeness_coset_check(OFF3, 5)
    report(11, "freeness-coset", ok)


def test_12_no_monomial_units():
    ok = no_monomial_units_check(ONES, 4) and no_monomial_units_check(OFF3, 4)
    report(12, "no-monomial-units", ok)


def test_13_new_generator_growth():
    rep_off = kuroda_intersection_basis(OFF3, 12)
    rep_ones = kuroda_intersection_basis(ONES, 12)
    degs_off, degs_ones = rep_off.new_generators, rep_ones.new_generators
    ok = bool(degs_off) and any(d > 0 for d, _ in degs_off) and degs_ones == ()
    report(13, "new-generator-growth", ok)


def test_14_off3_counts_up_to_the_bound():
    # OFF3 (the default instance) over F_32003 through dmax 20,
    # intersect.PI_MAX_DEGREE: the table holds up to the bound only (see the
    # report note).  The digest pins the report's rows: the table and every
    # basis image, byte for byte.
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["intersect", "--dmax", "20", "--field", "Fp:32003"])
    rows = [line for line in buf.getvalue().splitlines() if not line.startswith("#")]
    table = [[int(cell) for cell in row.split("\t")] for row in rows[1:22]]
    dims = [1, 0, 0, 1, 3, 3, 4, 6, 9, 10, 12, 15, 19, 21, 24, 28, 33, 36, 40, 45, 51]
    ok = (
        code == 0
        and [d for d, *_ in table] == list(range(21)) and [r[3] for r in table] == dims
        and [(r[0], r[4]) for r in table if r[4]] == [(3, 1)] + [(d, 3) for d in range(4, 21)]
        and hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest()
        == "cfd0668d8c3c9798a90cb984b7d34a6715e9e7c130e2501fb8e8fa00439c4e8b"
    )
    report(14, "off3-new-generators-up-to-the-bound", ok)
