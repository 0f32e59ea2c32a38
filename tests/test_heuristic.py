"""Counting-estimate report: exact ingredients, frozen n=100 values."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from soficperm import heuristic as hr
from soficperm import perm as pm


def close(x, text, tol="1e-9"):
    return abs(x - mpmath.mpf(text)) < mpmath.mpf(tol)


class TestReport:
    def test_count_is_the_exact_count(self):
        rep = hr.heuristic_report(8, 4, 0, 0)
        assert rep.count == pm.count_order_dividing(8, 4) == 6224

    def test_log_identities(self):
        rep = hr.heuristic_report(30, 4, "1/100", "1/100")
        assert close(rep.log_PK, rep.log_P + rep.log_K)
        assert close(rep.log_P, mpmath.ln(rep.count) - rep.log_factorial)
        # log K = (2 eps + eps') n ln n
        want = mpmath.mpf(3) / 100 * 30 * mpmath.ln(30)
        assert close(rep.log_K, want)

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
        want = mpmath.mpf(-22) / 100 * 100 * mpmath.ln(100)
        assert close(rep.log_PK_model, want)

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
        assert abs(r_big - mpmath.mpf("0.5")) < abs(r_small - mpmath.mpf("0.5"))


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
        rep = hr.heuristic_report(100, 4, 0, 0)
        # 200-bit values survive printing well past double precision
        text = mpmath.nstr(rep.log_factorial, 40)
        assert len(text.replace("-", "").replace(".", "")) >= 35


def test_importing_the_cli_leaves_mpmath_unloaded():
    """mpmath is imported only where an mpf is made or written, so the
    subcommands that need none do not pay for it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, soficperm, soficperm.cli; "
            "print('mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
