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

All logs are natural, computed with stdlib :mod:`decimal` to
:data:`PRECISION_DIGITS` significant digits (more than 200 bits) and held
as ``Decimal``; a record prints each to 30 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from . import limits
from . import perm as permmod
from .serialize import to_fraction

__all__ = ["HeuristicReport", "heuristic_report", "PRECISION_DIGITS"]

PRECISION_DIGITS = 64

# the leading bits of an integer whose log is taken: dropping the rest
# moves the log by less than 2**(1 - _KEEP_BITS), below the last digit kept
_KEEP_BITS = 4 * PRECISION_DIGITS

# ln 2 costs as much as a report's other logs together, so it is taken once
with localcontext(prec=PRECISION_DIGITS):
    _LN2 = Decimal(2).ln()


@dataclass(frozen=True)
class HeuristicReport:
    n: int
    k: int
    eps: Fraction
    eps_prime: Fraction
    count: int
    log_P: Decimal
    log_K: Decimal
    log_PK: Decimal
    log_factorial: Decimal
    asymptotic_ratio: Decimal
    pk_model_coeff: Fraction
    log_PK_model: Decimal


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

    count = permmod.count_order_dividing(n, k)
    coeff = 2 * eps + eps_prime
    model_coeff = coeff - Fraction(1, k)
    with localcontext(prec=PRECISION_DIGITS):
        log_fact = _ln(math.factorial(n))
        log_count = _ln(count)
        log_P = log_count - log_fact
        nlogn = n * _ln(n)
        log_K = Decimal(coeff.numerator) / coeff.denominator * nlogn
        log_PK = log_P + log_K
        ratio = log_count / log_fact if n > 1 else Decimal(1)
        model = Decimal(model_coeff.numerator) / model_coeff.denominator * nlogn
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


def _ln(N: int) -> Decimal:
    """ln N for an integer N >= 1 in the current context: the log of its
    leading :data:`_KEEP_BITS` bits, plus ln 2 per bit dropped.  A count at
    n = 5000 has 16,000 digits, which ``Decimal(N)`` would convert whole."""
    e = max(N.bit_length() - _KEEP_BITS, 0)
    return Decimal(N >> e).ln() + e * _LN2
