"""Counting-estimate report: exact ingredients, frozen n=100 values, and
the logs against the mpmath oracle."""

import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import oracles as orc
import pytest

from soficperm import heuristic as hr
from soficperm import perm as pm
from soficperm import serialize as ser


def random_rate(rng) -> Fraction:
    """A defect rate a/b with 0 <= a <= b and 1 <= b <= 100."""
    return Fraction(*sorted((rng.randint(0, 100), rng.randint(1, 100))))


def close(x, text, tol="1e-9"):
    return abs(x - Decimal(text)) < Decimal(tol)


def ln(x) -> Decimal:
    with localcontext(Context(prec=hr.PRECISION_DIGITS)):
        return Decimal(x).ln()


def agree(x: Decimal, want, digits=40) -> bool:
    """Whether x equals the 200-bit mpf want to the given significant
    digits."""
    with mpmath.workprec(200):
        tol = abs(want) * mpmath.mpf(10) ** -digits
        return abs(mpmath.mpf(str(x)) - want) <= tol


class TestReport:
    def test_count_is_the_exact_count(self):
        rep = hr.heuristic_report(8, 4, 0, 0)
        assert rep.count == pm.count_order_dividing(8, 4) == 6224

    def test_log_identities(self):
        rep = hr.heuristic_report(30, 4, "1/100", "1/100")
        assert close(rep.log_PK, rep.log_P + rep.log_K)
        assert close(rep.log_P, ln(rep.count) - rep.log_factorial)
        # log K = (2 eps + eps') n ln n
        assert close(rep.log_K, Decimal(3) / 100 * 30 * ln(30))

    def test_frozen_n100(self):
        rep = hr.heuristic_report(100, 4, "1/100", "1/100")
        assert rep.pk_model_coeff == Fraction(-11, 50)
        assert close(rep.asymptotic_ratio, "0.763401424", "1e-8")
        assert close(rep.log_factorial, "363.73937555556347", "1e-9")
        assert close(rep.log_P, "-86.06021826", "1e-7")
        assert close(rep.log_K, "13.81551055796", "1e-9")
        assert rep.log_PK < 0
        assert 0.65 <= rep.asymptotic_ratio <= 0.85

    def test_model_term(self):
        rep = hr.heuristic_report(100, 4, "1/100", "1/100")
        assert close(rep.log_PK_model, Decimal(-22) / 100 * 100 * ln(100))

    def test_coefficient_sign_flips_with_eps(self):
        tight = hr.heuristic_report(20, 4, "1/100", "1/100")
        loose = hr.heuristic_report(20, 4, "1/5", "1/5")
        assert tight.pk_model_coeff < 0 < loose.pk_model_coeff

    def test_k_enters_model_coefficient(self):
        rep2 = hr.heuristic_report(20, 2, "1/100", "1/100")
        assert rep2.pk_model_coeff == Fraction(3, 100) - Fraction(1, 2)

    def test_ratio_drifts_toward_one_minus_one_over_k(self):
        r_small = hr.heuristic_report(20, 2, 0, 0).asymptotic_ratio
        r_big = hr.heuristic_report(400, 2, 0, 0).asymptotic_ratio
        assert abs(r_big - Decimal("0.5")) < abs(r_small - Decimal("0.5"))


class TestValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            hr.heuristic_report(0, 4, 0, 0)
        with pytest.raises(ValueError):
            hr.heuristic_report(10, 1, 0, 0)
        with pytest.raises(ValueError):
            hr.heuristic_report(10, 4, "-1/10", 0)

    @pytest.mark.parametrize("eps, eps_prime", [
        ("11/10", 0), (0, "11/10"), ("1e400", 0), (0, "-1e400"),
    ])
    def test_rates_outside_unit_interval(self, eps, eps_prime):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hr.heuristic_report(10, 4, eps, eps_prime)

    def test_rate_one_accepted(self):
        rep = hr.heuristic_report(10, 4, 1, 1)
        assert rep.eps == rep.eps_prime == 1

    def test_practicality_cap(self):
        with pytest.raises(ValueError):
            hr.heuristic_report(6000, 4, 0, 0)
        assert hr.heuristic_report(5000, 4, 0, 0).n == 5000
        with pytest.raises(ValueError, match="heuristic_n"):
            hr.heuristic_report(5001, 4, 0, 0)

    def test_precision_is_carried(self):
        # every log matches the 200-bit oracle to 40 digits, well past a
        # double's 17
        for n, k in [(100, 4), (2500, 6)]:
            rep = hr.heuristic_report(n, k, "1/100", "1/50")
            want = orc.heuristic_logs(n, k, rep.eps, rep.eps_prime, rep.count)
            for field in orc.HEURISTIC_LOGS:
                assert agree(getattr(rep, field), want[field]), (n, k, field)
                assert isinstance(getattr(rep, field), Decimal)


def test_records_print_the_oracle_digits():
    """Each log prints as mpmath's 200-bit value printed to 30 digits, on
    n = 1..59 for k in {2, 3, 4, 6, 12} and 80 random n up to 5000, each
    with random defect rates."""
    rng = random.Random(2017)
    grid = [(n, k) for n in range(1, 60) for k in (2, 3, 4, 6, 12)]
    grid += [(rng.randint(60, 5000), rng.choice((2, 3, 4, 6, 12)))
             for _ in range(80)]
    mismatches = []
    for n, k in grid:
        rep = hr.heuristic_report(n, k, random_rate(rng), random_rate(rng))
        got = ser.heuristic_report_to_obj(rep)
        want = orc.heuristic_logs(n, k, rep.eps, rep.eps_prime, rep.count)
        mismatches += [(n, k, field, got[field], orc.mpf_text(want[field]))
                       for field in orc.HEURISTIC_LOGS
                       if got[field] != orc.mpf_text(want[field])]
    assert mismatches == []
