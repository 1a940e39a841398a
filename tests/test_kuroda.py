"""Instance construction, ratio conditions, scans, certificate products."""

import random
from fractions import Fraction

import pytest

from h14.errors import ConditionError, UsageError, ValidationError
from h14.kuroda import (
    build_G,
    build_f0,
    build_instance,
    check_star,
    check_starstar,
    f0_is_polynomial,
    implication_scan,
    lemma31_find_p,
    random_instance,
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

    def test_validation_names_entry(self):
        with pytest.raises(ValidationError, match=r"delta\[0\]\[0\]"):
            build_instance(4, 1, [[0, 1, 1], [1, 1, 1], [1, 1, 1]])
        with pytest.raises(ValidationError, match="gamma"):
            build_instance(4, 0, [[1, 1, 1]] * 3)


class TestConditions:
    def test_star_values(self):
        v, holds = check_star(build_instance(4, 1, [[1, 1, 1]] * 3))
        assert (v, holds) == (Fraction(3, 2), False)
        v, holds = check_star(build_instance(4, 1, [[1, 3, 3], [3, 1, 3], [3, 3, 1]]))
        assert (v, holds) == (Fraction(3, 4), True)
        v, holds = check_star(build_instance(4, 1, [[1, 2, 2], [2, 1, 2], [2, 2, 1]]))
        assert (v, holds) == (Fraction(1), False)  # not strict

    def test_starstar_values(self):
        v, holds = check_starstar(build_instance(3, 1, [[3, 1], [1, 1]]))
        assert (v, holds) == (Fraction(5, 4), False)
        v, holds = check_starstar(build_instance(3, 1, [[1, 9], [9, 1]]))
        assert (v, holds) == (Fraction(1, 5), True)
        v, holds = check_starstar(build_instance(3, 1, [[1, 1], [1, 1]]))
        assert (v, holds) == (Fraction(1), False)

    def test_star_equals_xi_sum(self):
        rng = random.Random(6)
        for _ in range(25):
            inst = random_instance(rng, 4, 4)
            assert check_star(inst)[0] == sum(inst.xi)

    def test_family_mismatch(self):
        with pytest.raises(UsageError):
            check_star(build_instance(3, 1, [[1, 1], [1, 1]]))
        with pytest.raises(UsageError):
            check_starstar(build_instance(4, 1, [[1, 1, 1]] * 3))


class TestImplicationScan:
    def test_n3_bound1(self):
        sc = implication_scan(3, 1)
        assert sc.total == 1
        assert sc.implication_violations == ()
        assert sc.converse_witnesses == ()

    def test_n3_bound3_contains_witness(self):
        sc = implication_scan(3, 3)
        assert sc.implication_violations == ()
        deltas = [w["delta"] for w in sc.converse_witnesses]
        assert ((3, 1), (1, 1)) in deltas

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
        with pytest.raises(ConditionError):
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

        from h14.kuroda import star_value

        disagreements, non_polynomial = [], 0
        for flat in itertools.product(range(1, 4), repeat=9):
            rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            if star_value(rows) >= 1:
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

        from h14.kuroda import star_value

        count = 0
        for flat in itertools.product(range(1, 4), repeat=9):
            rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            if star_value(rows) >= 1:
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
