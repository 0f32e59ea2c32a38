"""Counting estimates: how rare are order-dividing-k permutations, and does
imposing ~n local recurrence constraints still leave any?

P = count(n, k) / n! is computed from the exact big-integer count;
K = n^((2*eps + eps_prime) * n) bounds the number of functions satisfying
the local constraints up to the allowed defects (it deliberately counts
functions, not permutations); the defect rates eps and eps_prime are
fractions of the n points, each in [0, 1].  Under an independence guess the expected
number of good permutations is P * K, so log(P * K) < 0 says the guess
predicts none, > 0 predicts many.  For comparison the report carries the
model coefficient 2*eps + eps_prime - 1/k: since log P ~ -(1/k) n log n,
the model predicts log(P*K) ~ (2*eps + eps_prime - 1/k) n log n.

All logs are natural and carried at 200-bit precision.  mpmath is
imported by :func:`heuristic_report` alone, so importing the package does
not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath

from . import limits
from . import perm as permmod
from .serialize import to_fraction

__all__ = ["HeuristicReport", "heuristic_report", "PRECISION_BITS"]

PRECISION_BITS = 200


@dataclass(frozen=True)
class HeuristicReport:
    n: int
    k: int
    eps: Fraction
    eps_prime: Fraction
    count: int
    log_P: mpmath.mpf
    log_K: mpmath.mpf
    log_PK: mpmath.mpf
    log_factorial: mpmath.mpf
    asymptotic_ratio: mpmath.mpf
    pk_model_coeff: Fraction
    log_PK_model: mpmath.mpf


def heuristic_report(n: int, k: int, eps, eps_prime) -> HeuristicReport:
    """Exact-count ingredients of the independence estimate at (n, k),
    for n within the ``heuristic_n`` limit of :mod:`soficperm.limits`.

    eps and eps_prime are fractions of the n points, so each must lie in
    [0, 1]; a value outside is a ValueError."""
    if n < 1:
        raise ValueError("n must be >= 1")
    limits.check("heuristic_n", n)
    if k < 2:
        raise ValueError("k must be >= 2")
    eps = to_fraction(eps)
    eps_prime = to_fraction(eps_prime)
    if not (0 <= eps <= 1 and 0 <= eps_prime <= 1):
        raise ValueError("defect rates eps and eps_prime must lie in [0, 1]")

    import mpmath

    count = permmod.count_order_dividing(n, k)
    coeff = 2 * eps + eps_prime
    model_coeff = coeff - Fraction(1, k)
    with mpmath.workprec(PRECISION_BITS):
        log_fact = mpmath.loggamma(n + 1)
        log_count = mpmath.ln(mpmath.mpf(count))
        log_P = log_count - log_fact
        nlogn = mpmath.mpf(n) * mpmath.ln(n)
        log_K = mpmath.mpf(coeff.numerator) / coeff.denominator * nlogn
        log_PK = log_P + log_K
        ratio = log_count / log_fact if n > 1 else mpmath.mpf(1)
        model = mpmath.mpf(model_coeff.numerator) / model_coeff.denominator * nlogn
    return HeuristicReport(
        n=n,
        k=k,
        eps=eps,
        eps_prime=eps_prime,
        count=count,
        log_P=log_P,
        log_K=log_K,
        log_PK=log_PK,
        log_factorial=log_fact,
        asymptotic_ratio=ratio,
        pk_model_coeff=model_coeff,
        log_PK_model=model,
    )
