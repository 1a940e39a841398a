"""Instance construction, ratio conditions, scans, certificate products."""

import itertools
import random
from fractions import Fraction

import pytest

from h14.errors import PreconditionError, UsageError
from h14.kuroda import (
    build_G,
    build_f0,
    build_instance,
    condition_holds,
    delta_box,
    f0_is_polynomial,
    implication_scan,
    lemma31_find_p,
    random_instance,
    ratio_sum,
    star_tables,
    verify_t214,
)
from h14.laurent import LaurentPoly


def mono(n, e, c=1):
    return LaurentPoly.monomial(n, e, c)


class TestBuildInstance:
    def test_n4_ones(self):
        inst = build_instance(4, 1, [[1, 1, 1]] * 3)
        assert inst.pis[0] == mono(4, (0, 0, 0, 1)) - mono(4, (-1, 1, 1, 0))
        assert inst.t_matrix.entries == ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
        assert inst.det_t == 4
        assert inst.xi == (Fraction(1, 2),) * 3

    def test_n3_ones(self):
        inst = build_instance(3, 1, [[1, 1], [1, 1]])
        pi3 = 2 * LaurentPoly.constant(3, 1) - mono(3, (-2, 2, 0))
        assert inst.pis[2] == pi3
        assert inst.det_t == 0

    def test_delta14_defaults_to_zero(self):
        a = build_instance(4, 1, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        b = build_instance(4, 1, [[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 0]])
        assert a.pis == b.pis

    @pytest.mark.parametrize("n", [4.0, 3.0, True, "4", None, 2, 5])
    def test_n_must_be_the_integer_3_or_4(self, n):
        with pytest.raises(UsageError, match=r"^n (must be an integer >= 3, got |\d exceeds the maximum 4$)"):
            build_instance(n, 1, [[1, 1, 1]] * 3)

    def test_validation_names_entry(self):
        with pytest.raises(UsageError, match=r"^delta\[0\]\[0\] must be an integer >= 1, got 0$"):
            build_instance(4, 1, [[0, 1, 1], [1, 1, 1], [1, 1, 1]])
        with pytest.raises(UsageError, match=r"^gamma must be an integer >= 1, got 0$"):
            build_instance(4, 0, [[1, 1, 1]] * 3)


class TestConditions:
    def test_star_values(self):
        for delta, value, holds in [
            ([[1, 1, 1]] * 3, Fraction(3, 2), False),
            ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], Fraction(3, 4), True),
            ([[1, 2, 2], [2, 1, 2], [2, 2, 1]], Fraction(1), False),  # not strict
        ]:
            assert (ratio_sum(delta), condition_holds(delta)) == (value, holds)

    def test_starstar_values(self):
        for delta, value, holds in [
            ([[3, 1], [1, 1]], Fraction(5, 4), False),
            ([[1, 9], [9, 1]], Fraction(1, 5), True),
            ([[1, 1], [1, 1]], Fraction(1), False),
        ]:
            assert (ratio_sum(delta), condition_holds(delta)) == (value, holds)

    def test_star_equals_xi_sum(self):
        rng = random.Random(6)
        for _ in range(25):
            inst = random_instance(rng, 4, 4)
            assert ratio_sum(inst.delta) == sum(inst.xi)


def hand_ratio_sum(delta):
    """The ratio sum written out from the definitions, independent of h14."""
    if len(delta) == 2:
        (d11, d12), (d21, d22) = delta
        return Fraction(d11, d11 + d21) + Fraction(d22, d22 + d12)
    d = delta
    return (Fraction(d[0][0], d[0][0] + min(d[1][0], d[2][0]))
            + Fraction(d[1][1], d[1][1] + min(d[2][1], d[0][1]))
            + Fraction(d[2][2], d[2][2] + min(d[0][2], d[1][2])))


def hand_det_t(delta):
    """det T, T the table with its diagonal negated, by the cofactor formula."""
    if len(delta) == 2:
        (d11, d12), (d21, d22) = delta
        return d11 * d22 - d12 * d21
    (d11, d12, d13), (d21, d22, d23), (d31, d32, d33) = (r[:3] for r in delta)
    # T = [[-d11, d12, d13], [d21, -d22, d23], [d31, d32, -d33]], expanded along its first row
    return -d11 * (d22 * d33 - d23 * d32) - d12 * (-d21 * d33 - d23 * d31) + d13 * (d21 * d32 + d22 * d31)


class TestDeltaBoxAndCondition:
    """The one delta-box walk and the one integer (*)/(**) decision, against
    ``itertools.product`` and the ``Fraction`` sums."""

    @pytest.mark.parametrize("n, bound", [(3, 1), (3, 4), (4, 1), (4, 2), (4, 3)])
    def test_delta_box_is_the_product_in_rows(self, n, bound):
        k = n - 1
        flat = itertools.product(range(1, bound + 1), repeat=k * k)
        expected = [tuple(tuple(f[i:i + k]) for i in range(0, k * k, k)) for f in flat]
        tables = list(delta_box(n, bound))
        assert tables == expected
        assert len(tables) == bound ** (k * k)
        assert all(type(t) is tuple and all(type(r) is tuple for r in t) for t in tables)

    @pytest.mark.parametrize("n, bound", [(4.0, 2), (True, 2), (5, 2), (2, 2), (3, 5), (4, 0), (3, 2.0)])
    def test_delta_box_checks_its_arguments_at_the_call(self, n, bound):
        with pytest.raises(UsageError):
            delta_box(n, bound)

    def test_star_value_is_the_hand_sum_on_the_n4_box(self):
        for rows in delta_box(4, 3):
            assert ratio_sum(rows) == hand_ratio_sum(rows)

    def test_condition_holds_is_star_value_below_1_on_the_n4_box(self):
        tables = list(delta_box(4, 3))
        assert len(tables) == 19683
        holds = [condition_holds(rows) for rows in tables]
        assert holds == [ratio_sum(rows) < 1 for rows in tables]
        assert sum(holds) == 58

    def test_condition_holds_is_starstar_value_below_half_on_the_n3_box(self):
        tables = list(delta_box(3, 4))
        assert len(tables) == 256
        holds = [condition_holds(t) for t in tables]
        assert holds == [ratio_sum(t) < Fraction(1, 2) for t in tables]
        assert holds == [hand_ratio_sum(t) < Fraction(1, 2) for t in tables]
        assert 0 < sum(holds) < 256

    def test_condition_holds_on_instance_deltas(self):
        rng = random.Random(16)
        outcomes = set()
        for _ in range(1500):
            inst = random_instance(rng, 4, 5)
            assert len(inst.delta[0]) == 4
            outcomes.add(condition_holds(inst.delta))
            assert condition_holds(inst.delta) == (sum(inst.xi) < 1) == (ratio_sum(inst.delta) < 1)
        for _ in range(300):
            inst = random_instance(rng, 3, 5)
            assert condition_holds(inst.delta) == (hand_ratio_sum(inst.delta) < Fraction(1, 2))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("delta, holds", [
        ([[1, 2, 2, 7], [2, 1, 2, 0], [2, 2, 1, 3]], False),  # sum exactly 1: the inequality is strict
        ([[1, 3, 3, 7], [3, 1, 3, 0], [3, 3, 1, 3]], True),
        ([[1, 1], [1, 1]], False),                           # sum exactly 1
        ([[1, 3], [3, 1]], False),                           # sum exactly 1/2
        ([[1, 4], [4, 1]], True),
    ])
    def test_condition_holds_at_the_threshold(self, delta, holds):
        inst = build_instance(len(delta) + 1, 1, delta)
        assert condition_holds(inst.delta) is holds


class TestStarTables:
    """The (*)-tables built by columns, against the filtered delta-box walk."""

    @pytest.mark.parametrize("bound, count", [(1, 0), (2, 0), (3, 58), (4, 1789)])
    def test_star_tables_are_the_filtered_box(self, bound, count):
        tables = star_tables(bound)
        assert tables == [t for t in delta_box(4, bound) if condition_holds(t)]
        assert len(tables) == count
        assert all(type(t) is tuple and all(type(r) is tuple for r in t) for t in tables)

    @pytest.mark.parametrize("bound", [0, 5, 2.0, True])
    def test_star_tables_check_the_bound_as_delta_box_does(self, bound):
        with pytest.raises(UsageError):
            star_tables(bound)


class TestImplicationScan:
    @pytest.mark.parametrize("n, bound", [(3, 4), (4, 2)])
    def test_recorded_entries(self, n, bound):
        limit = Fraction(1, 2) if n == 3 else 1
        sc = implication_scan(n, bound)
        assert sc.total == len(list(delta_box(n, bound)))
        expected_witnesses = [t for t in delta_box(n, bound) if hand_det_t(t) and hand_ratio_sum(t) >= limit]
        assert sc.converse_witnesses == len(expected_witnesses) > 0
        assert sc.implication_violations == ()

    def test_n3_bound1(self):
        sc = implication_scan(3, 1)
        assert sc.total == 1
        assert sc.implication_violations == ()
        assert sc.converse_witnesses == 0

    def test_n3_bound3_contains_witness(self):
        sc = implication_scan(3, 3)
        assert sc.implication_violations == ()
        witnesses = [t for t in delta_box(3, 3) if hand_det_t(t) and hand_ratio_sum(t) >= Fraction(1, 2)]
        assert ((3, 1), (1, 1)) in witnesses
        assert sc.converse_witnesses == len(witnesses)

    def test_n4_bound2(self):
        sc = implication_scan(4, 2)
        assert sc.total == 512
        assert sc.implication_violations == ()

    def test_bound_cap(self):
        with pytest.raises(UsageError):
            implication_scan(3, 5)

    @pytest.mark.parametrize("bound", [True, 2.5])
    def test_bound_must_be_an_int(self, bound):
        with pytest.raises(UsageError, match="integer"):
            implication_scan(3, bound)


class TestFindP:
    def test_quarter_ratios(self):
        assert lemma31_find_p((Fraction(1, 4),) * 3) == (12, 3, 3, 6)

    def test_eighth_ratios(self):
        assert lemma31_find_p((Fraction(1, 8),) * 3) == (5, 1, 1, 3)

    def test_sum_one_rejected(self):
        with pytest.raises(PreconditionError, match=r"^ratio sum 1 is >= 1; the strict-sum hypothesis fails$"):
            lemma31_find_p((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))

    @pytest.mark.parametrize(
        "xi",
        [(0.1, 0.2, 0.3), (Fraction(1, 4), Fraction(1, 4), 0.25), ("1/4",) * 3, (True, Fraction(1, 4), Fraction(1, 4))],
    )
    def test_ratios_must_be_exact(self, xi):
        # floats were read by their binary expansions: (0.1, 0.2, 0.3) gave (8, 1, 2, 5)
        with pytest.raises(UsageError, match="Fractions or integers"):
            lemma31_find_p(xi)

    def test_bounds_hold(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            inst = random_instance(rng, 4, 4)
            if sum(inst.xi) >= 1:
                continue
            checked += 1
            p, p1, p2, p3 = lemma31_find_p(inst.xi)
            assert p1 + p2 + p3 == p
            assert p * (1 - sum(inst.xi)) >= 3
            for pi, x in zip((p1, p2, p3), inst.xi):
                assert pi >= 1 and pi >= p * x


class TestCertificates:
    def test_f0_polynomial_for_off3(self):
        inst = build_instance(4, 1, [[1, 3, 3], [3, 1, 3], [3, 3, 1]])
        f0 = build_f0(inst, 3, 3, 6)
        assert f0.is_polynomial()
        assert f0_is_polynomial(inst, 3, 3, 6)
        # first coordinate never negative (certificate exponent bound)
        assert all(e[0] >= 0 for e in f0.support())

    def test_f0_trivial(self):
        inst = build_instance(4, 1, [[1, 3, 3], [3, 1, 3], [3, 3, 1]])
        assert build_f0(inst, 0, 0, 0) == LaurentPoly.constant(4, 1)

    def test_f0_fails_for_ones(self):
        inst = build_instance(4, 1, [[1, 1, 1]] * 3)
        assert not f0_is_polynomial(inst, 1, 1, 1)
        assert not build_f0(inst, 1, 1, 1).is_polynomial()
        with pytest.raises(UsageError):
            f0_is_polynomial(inst, 1, -1, 1)
        with pytest.raises(UsageError):  # booleans are not exponents
            f0_is_polynomial(inst, True, 1, 1)

    @pytest.mark.parametrize(
        "product, exponents, bad",
        [(build_f0, (1, 2.0, 3), "p2"), (f0_is_polynomial, (1, 2, 3.0), "p3"),
         (build_G, (1, 2, 3, 4.0), "e")],
    )
    def test_products_need_the_n4_family_and_integer_exponents(self, product, exponents, bad):
        with pytest.raises(UsageError, match="n=4 family"):
            product(build_instance(3, 1, [[3, 1], [1, 1]]), *map(int, exponents))
        with pytest.raises(UsageError, match=rf"^{bad} must be a nonnegative integer"):
            product(build_instance(4, 1, [[1, 3, 3], [3, 1, 3], [3, 3, 1]]), *exponents)

    def test_fast_bound_agrees_with_expansion(self):
        rng = random.Random(13)
        for _ in range(60):
            inst = random_instance(rng, 4, 3, rng.choice(["Q", "Fp:2", "Fp:5"]))
            ps = tuple(rng.randint(0, 6) for _ in range(3))
            assert f0_is_polynomial(inst, *ps) == build_f0(inst, *ps).is_polynomial()

    def test_fast_bound_agrees_on_mutated_certificates(self):
        """The lowered-p1 cases of the certificate box scan, against expansion."""
        import itertools
        import math

        disagreements, non_polynomial = [], 0
        for flat in itertools.product(range(1, 4), repeat=9):
            rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            if ratio_sum(rows) >= 1:
                continue
            inst = build_instance(4, 1, rows)
            p, p1, p2, p3 = lemma31_find_p(inst.xi)
            bad_p1 = math.ceil(p * inst.xi[0]) - 1
            if bad_p1 < 0:
                continue
            fast = f0_is_polynomial(inst, bad_p1, p2, p3)
            non_polynomial += not fast
            if fast != build_f0(inst, bad_p1, p2, p3).is_polynomial():
                disagreements.append(rows)
        assert disagreements == []
        assert non_polynomial > 0

    def test_box_scan_certificates(self):
        import itertools

        count = 0
        for flat in itertools.product(range(1, 4), repeat=9):
            rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            if ratio_sum(rows) >= 1:
                continue
            inst = build_instance(4, 1, rows)
            count += 1
            p, p1, p2, p3 = lemma31_find_p(inst.xi)
            assert f0_is_polynomial(inst, p1, p2, p3)
        assert count == 58

    def test_build_G(self):
        inst = build_instance(4, 1, [[1, 3, 3], [3, 1, 3], [3, 3, 1]])
        g = build_G(inst, 3, 3, 6, 0)
        assert g.poly == build_f0(inst, 3, 3, 6)
        assert build_G(inst, 3, 3, 6, 1).x2_x3_nonnegative
        assert build_G(inst, 0, 0, 0, 0).poly == LaurentPoly.constant(4, 1)


class TestT214:
    def test_default_and_shifted(self):
        assert verify_t214(build_instance(3, 1, [[1, 1], [1, 1]]))
        assert verify_t214(build_instance(3, 2, [[2, 1], [1, 3]]))

    def test_random_instances(self):
        rng = random.Random(0)
        for _ in range(50):
            assert verify_t214(random_instance(rng, 3, 5))

    def test_mutation_detected(self):
        inst = build_instance(3, 1, [[1, 1], [1, 1]])
        (d11, d12), (d21, d22) = inst.delta
        bad = 3 * mono(3, (d21 - d11, d12 - d22, 0)) - mono(3, (-2 * d11, 2 * d12, 0))
        assert not verify_t214(inst, (inst.pis[0], inst.pis[1], bad))
