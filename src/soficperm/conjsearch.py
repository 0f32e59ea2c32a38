"""Search for order-constrained permutations that almost conjugate one
generator image to another.

A :class:`ConjProblem` scores a candidate f by its agreement count
|{x : f(alpha(x)) = beta(f(x))}| -- the number of points where
f o alpha = beta o f holds.  The searches keep f^k = id invariant by
construction: the hill climber only moves by conjugating f with a
transposition, which preserves the cycle type.

For translation problems (alpha: x -> x+p, beta: x -> x+q) full agreement
forces n | q^k - p^k, and when the multiplier l = q * p^-1 mod n satisfies
l^k = 1 the map x -> l*x is an exact, order-k conjugator
(:func:`exact_multiplicative`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import approx as approxmod
from . import groups
from . import limits
from . import perm as permmod
from .approx import ApproxSpec
from .groups import GenWord, GroupElem
from .perm import Perm

__all__ = [
    "ConjProblem",
    "SearchReport",
    "AlignmentReport",
    "ElementDistance",
    "translation_perm",
    "multiplication_perm",
    "translation_problem",
    "multiplication_problem",
    "problem_from_spec",
    "agreement",
    "exact_multiplicative",
    "exact_search",
    "brute_force",
    "local_search",
    "psi_f_eval",
    "higman_defect",
    "align",
]

# the single scored orientation: f o alpha = beta o f
ORIENTATION = "f.alpha=beta.f"


def translation_perm(n: int, s: int) -> Perm:
    """x -> x + s on Z/n, within the ``table_entries`` limit."""
    return approxmod.AffineImage(n, (1, s % n), n).perm()


def multiplication_perm(n: int, u: int) -> Perm:
    """x -> u*x on Z/n for a unit u, within the ``table_entries`` limit."""
    if math.gcd(u, n) != 1:
        raise ValueError(f"u={u} not invertible mod {n}")
    return approxmod.AffineImage(n, (u % n, 0), n).perm()


@dataclass(frozen=True, eq=False)
class ConjProblem:
    """Degree n, order bound k, and the two permutations being intertwined."""

    n: int
    k: int
    alpha: Perm
    beta: Perm

    def __post_init__(self):
        if self.alpha.n != self.n or self.beta.n != self.n:
            raise ValueError("alpha and beta must have degree n")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def translation_problem(n: int, p: int, q: int, k: int) -> ConjProblem:
    """alpha: x -> x + p, beta: x -> x + q."""
    return ConjProblem(n, k, translation_perm(n, p), translation_perm(n, q))


def multiplication_problem(n: int, u: int, k: int) -> ConjProblem:
    """alpha: x -> x + 1, beta: x -> u * x."""
    return ConjProblem(n, k, translation_perm(n, 1), multiplication_perm(n, u))


def problem_from_spec(spec: ApproxSpec, k: int) -> ConjProblem:
    """Conjugation problem for the defining relation b^t = a: candidates f
    should satisfy f(psi(a)(x)) = psi(b)(f(x)) on most points."""
    return ConjProblem(spec.npoints, k, spec.psi_a, spec.psi_b)


def agreement(f: Perm, prob: ConjProblem) -> int:
    """|{x : f(alpha(x)) = beta(f(x))}|, exactly."""
    if f.n != prob.n:
        raise ValueError(f"degree mismatch: {f.n} != {prob.n}")
    fi = f.images
    return int(np.count_nonzero(fi[prob.alpha.images] == prob.beta.images[fi]))


@dataclass(frozen=True, eq=False)
class SearchReport:
    """One search outcome.  For ``local_search``, ``iterations`` is summed
    over the restarts by the restart rule, :func:`_best_restart`."""

    problem: ConjProblem
    algorithm: str
    seed: Optional[int]
    f: Perm
    order_of_f: int
    agreement_count: int
    agreement_fraction: Fraction
    iterations: int


def _make_report(prob, algorithm, seed, f, iterations) -> SearchReport:
    count = agreement(f, prob)
    return SearchReport(
        problem=prob,
        algorithm=algorithm,
        seed=seed,
        f=f,
        order_of_f=permmod.order_of(f),
        agreement_count=count,
        agreement_fraction=Fraction(count, prob.n),
        iterations=iterations,
    )


def _translation_offset(g: Perm) -> Optional[int]:
    """s with g(x) = x + s for all x, or None."""
    s = int(g.images[0])
    expected = (np.arange(g.n, dtype=np.int64) + s) % g.n
    return s if np.array_equal(g.images, expected) else None


def _multiplier(n: int, p: int, q: int) -> Optional[int]:
    """l = q * p^-1 mod n if l is a unit, else None; p must be a unit."""
    if math.gcd(p, n) != 1:
        raise ValueError(f"p={p} must be invertible mod n={n}")
    l = (q * pow(p, -1, n)) % n
    return l if math.gcd(l, n) == 1 else None


def _translation_offsets(prob: ConjProblem) -> tuple[int, int]:
    """(p, q) for translations alpha: x -> x + p and beta: x -> x + q."""
    p = _translation_offset(prob.alpha)
    q = _translation_offset(prob.beta)
    if p is None or q is None:
        raise ValueError(
            "exact construction needs translation alpha and beta")
    return p, q


def exact_multiplicative(n: int, p: int, q: int, k: int) -> Optional[Perm]:
    """x -> l*x with l = q * p^-1 mod n, when that is an order-dividing-k
    bijection (l^k = 1 and gcd(l, n) = 1); None otherwise.

    Such an f intertwines x -> x+p with x -> x+q at every point.
    """
    l = _multiplier(n, p, q)
    if l is None or pow(l, k, n) != 1 % n:
        return None
    return multiplication_perm(n, l)


def exact_search(prob: ConjProblem) -> Optional[SearchReport]:
    """Closed-form attempt for a translation pair: alpha and beta must both
    be x -> x + s maps; returns None when no multiplicative solution of
    order dividing k exists."""
    p, q = _translation_offsets(prob)
    f = exact_multiplicative(prob.n, p, q, prob.k)
    if f is None:
        return None
    return _make_report(prob, "exact", None, f, 1)


def brute_force(prob: ConjProblem) -> SearchReport:
    """Exact optimum by enumerating every f with f^k = id; ties go to the
    lexicographically smallest image array.  n is bounded by the
    ``brute_force_n`` limit of :mod:`soficperm.limits`."""
    limits.check("brute_force_n", prob.n)
    F = permmod._order_dividing_rows(prob.n, prob.k)
    scores = np.count_nonzero(
        F[:, prob.alpha.images] == prob.beta.images[F], axis=1
    )
    best = min(F[scores == scores.max()].tolist())
    f = Perm(np.asarray(best, dtype=np.int64), _trusted=True)
    return _make_report(prob, "brute", None, f, len(F))


# ---------------------------------------------------------------------------
# hill climbing
# ---------------------------------------------------------------------------

def _check_budget(iters: int, restarts: int) -> None:
    if iters < 0:
        raise ValueError("iters must be >= 0")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")


def _best_restart(restarts: int, seed: int, attempt):
    """The restart rule of :func:`local_search` and :func:`align`.

    Restart r runs ``attempt(r, Random(seed * 2^32 + r))``, which returns
    (key, steps).  Returns the smallest key, so score ties go to the smaller
    f or tau tuple, and the steps summed over all restarts.
    """
    best = None
    steps = 0
    for r in range(restarts):
        key, taken = attempt(r, random.Random((seed << 32) + r))
        steps += taken
        if best is None or key < best:
            best = key
    return best, steps


def _greedy_chain_start(prob: ConjProblem) -> Perm:
    """Extend f along alpha-orbits by f(alpha(x)) := beta(f(x)) until a value
    collides, patch the leftovers into a bijection, then project to order k."""
    n = prob.n
    alpha = prob.alpha.images.tolist()
    beta = prob.beta.images.tolist()
    f = [-1] * n
    used = [False] * n
    next_free = 0
    for x0 in range(n):
        if f[x0] >= 0:
            continue
        while used[next_free]:
            next_free += 1
        f[x0] = next_free
        used[next_free] = True
        x = x0
        while True:
            y = alpha[x]
            v = beta[f[x]]
            if f[y] >= 0 or used[v]:
                break
            f[y] = v
            used[v] = True
            x = y
    candidate = Perm(np.asarray(f, dtype=np.int64), _trusted=True)
    return permmod.project_to_order(candidate, prob.k)


def _multiplicative_start(prob: ConjProblem) -> Optional[Perm]:
    """exact_multiplicative seed for translation problems, projected to
    order k when l^k != 1."""
    try:
        l = _multiplier(prob.n, *_translation_offsets(prob))
    except ValueError:
        return None
    return None if l is None else permmod.project_to_order(
        multiplication_perm(prob.n, l), prob.k)


def _climb(prob: ConjProblem, f_list: list[int], iters: int,
           rng: random.Random) -> tuple[list[int], int]:
    """In-place hill climb; returns (f, score).

    Each iteration draws i and j with two ``rng.randrange(n)`` calls and
    proposes f' = t f t for the transposition t = (i j).  f' differs from f
    only on {i, j, f^-1(i), f^-1(j)}; those new images go into a dict of at
    most four entries, and an empty dict is a no-op move.  The agreement at x
    reads f(x) and f(alpha(x)), so the score changes only on the changed
    points and their alpha-preimages, at most eight points, and the delta is
    summed over them.  A move is taken when it gains, and a sideways move
    (delta 0) when ``rng.random() < 0.25``, the only other draw.
    """
    n = prob.n
    alpha = prob.alpha.images.tolist()
    beta = prob.beta.images.tolist()
    ainv = [0] * n
    for x, y in enumerate(alpha):
        ainv[y] = x
    f = f_list
    finv = [0] * n
    for x, y in enumerate(f):
        finv[y] = x
    score = sum(1 for x in range(n) if f[alpha[x]] == beta[f[x]])

    randrange = rng.randrange
    for _ in range(iters):
        i = randrange(n)
        j = randrange(n)
        if i == j:
            continue
        fi = f[i]
        fj = f[j]
        changed = {}
        v = j if fj == i else i if fj == j else fj  # f'(i) = t(f(j))
        if v != fi:
            changed[i] = v
        v = j if fi == i else i if fi == j else fi  # f'(j) = t(f(i))
        if v != fj:
            changed[j] = v
        y = finv[i]  # f'(y) = t(i) = j off {i, j}; likewise for f^-1(j)
        if y != i and y != j:
            changed[y] = j
        y = finv[j]
        if y != i and y != j:
            changed[y] = i
        if not changed:
            continue
        get = changed.get
        affected = list(changed)
        for d in changed:
            x = ainv[d]
            if x not in changed:
                affected.append(x)
        delta = 0
        for x in affected:
            ax = alpha[x]
            fx = f[x]
            fax = f[ax]
            delta += (get(ax, fax) == beta[get(x, fx)]) - (fax == beta[fx])
        if delta > 0 or (delta == 0 and rng.random() < 0.25):
            for y, v in changed.items():
                f[y] = v
                finv[v] = y
            score += delta
    return f, score


def local_search(
    prob: ConjProblem,
    seed: int = 0,
    iters: Optional[int] = None,
    restarts: int = 16,
) -> SearchReport:
    """Seeded hill climbing over {f : f^k = id}.

    Restart r climbs ``iters`` steps from, in order: the
    exact-multiplicative seed when the problem is a translation pair
    (r = 0), the greedy chain extension (r <= 1), then uniform
    order-dividing-k samples.  :func:`_best_restart` runs the restarts with
    key (-score, f), so the winner is the best score with lexicographically
    smallest f.  The greedy start always exists, so the samples begin at
    r = 2; with more than two restarts the ``count_table`` limit of
    :mod:`soficperm.limits` is checked before any restart climbs.
    """
    if iters is None:
        iters = 200 * prob.n
    _check_budget(iters, restarts)
    if restarts > 2:
        limits.check("count_table", prob.n)

    def attempt(r, rng):
        start = _multiplicative_start(prob) if r == 0 else None
        if start is None and r <= 1:
            start = _greedy_chain_start(prob)
        if start is None:
            start = permmod._sample_order_k_rng(prob.n, prob.k, rng)
        f, score = _climb(prob, start.images.tolist(), iters, rng)
        return (-score, tuple(f)), iters

    (_, f), total = _best_restart(restarts, seed, attempt)
    f = Perm(np.asarray(f, dtype=np.int64), _trusted=True)
    return _make_report(prob, "local", seed, f, total)


# ---------------------------------------------------------------------------
# evaluating words that mix group letters with the order-k letter t
# ---------------------------------------------------------------------------

def psi_f_eval(spec: ApproxSpec, f: Perm, w: GenWord) -> Perm:
    """Evaluate a word over {a, b, t}: group letters go through the spec's
    psi, each t power becomes the same power of f, all composed
    right-to-left so the evaluation is multiplicative on words."""
    if f.n != spec.npoints:
        raise ValueError(f"degree mismatch: f has {f.n}, spec has {spec.npoints}")
    acc = Perm.identity(spec.npoints)
    for gen, exp in w.letters:
        if gen == "t":
            img = permmod.power(f, exp)
        else:
            img = approxmod.eval(
                spec, groups.generator(spec.family, gen, exp, m=spec.m)
            )
        acc = permmod.compose(acc, img)
    return acc


def higman_defect(
    spec: ApproxSpec, f: Perm,
    pairs: Sequence[tuple[GroupElem | GenWord, GroupElem | GenWord]],
) -> Fraction:
    """max over (b, phi_b) of d(psi(b) o f, f o psi(phi_b))."""
    if f.n != spec.npoints:
        raise ValueError(f"degree mismatch: f has {f.n}, spec has {spec.npoints}")
    if not pairs:
        raise ValueError("need at least one (b, phi(b)) pair")
    worst = Fraction(0)
    for b, phib in pairs:
        lhs = permmod.compose(approxmod.eval(spec, b), f)
        rhs = permmod.compose(f, approxmod.eval(spec, phib))
        worst = max(worst, permmod.hamming(lhs, rhs))
    return worst


# ---------------------------------------------------------------------------
# alignment of two approximations (empirical conjugator search)
# ---------------------------------------------------------------------------

class ElementDistance(NamedTuple):
    """One s in S and its distance d(tau^-1 rho1(s) tau, rho2(s))."""

    element: GroupElem
    distance: Fraction


@dataclass(frozen=True, eq=False)
class AlignmentReport:
    """Best tau found with d(tau^-1 rho1(s) tau, rho2(s)) for each s in S."""

    tau: Perm
    per_element: tuple[ElementDistance, ...]
    max_distance: Fraction
    iterations: int


# swap pairs scored per numpy pass in align; bounds its temporaries
_ALIGN_CHUNK = 1 << 15


def _align_state(tau, rho1, rho2):
    """For each s: c_s = tau^-1 rho1(s) tau, its inverse and its mismatch
    vector against rho2(s) (0/1 per point), rho2(s) and the mismatch count;
    plus the objective, the (max, total) of the counts over S."""
    tau_inv = np.argsort(tau)
    state = []
    for r1, r2 in zip(rho1, rho2):
        c = tau_inv[r1[tau]]
        c_inv = np.empty_like(c)
        c_inv[c] = np.arange(len(c))
        miss = (c != r2).astype(np.int64)
        state.append((c, c_inv, miss, r2, int(miss.sum())))
    counts = [entry[-1] for entry in state]
    return state, (max(counts, default=0), sum(counts))


def _swap_pairs(n: int):
    """All pairs i < j in the order of np.triu_indices(n, 1), in blocks of
    whole rows holding at most max(_ALIGN_CHUNK, n) pairs."""
    rows = max(1, _ALIGN_CHUNK // n)
    cols = np.arange(n)
    for i0 in range(0, n - 1, rows):
        I, J = np.nonzero(cols > np.arange(i0, min(i0 + rows, n - 1))[:, None])
        yield I + i0, J


def _best_swap(state, obj, n):
    """((max, total), i, j) for the swap of tau's positions i < j with the
    smallest objective below obj, the first such pair in (i, j) order; None
    when no swap improves.

    The swap turns each c_s into t c_s t with t = (i j), which moves c_s
    only on i, j, c_s^-1(i) and c_s^-1(j) (the last two are distinct and
    count only off {i, j}).  So a pair's count for s is the current count
    plus the mismatches gained minus those lost on these <= 4 points, and
    every pair of a block is scored at once.
    """
    scale = len(state) * n + 1  # max * scale + total orders like the tuple
    best_key = obj[0] * scale + obj[1]
    best = None
    for I, J in _swap_pairs(n):
        worst = np.zeros(len(I), dtype=np.int64)
        total = np.zeros(len(I), dtype=np.int64)
        for c, c_inv, miss, r2, base in state:
            cI = c[I]
            cJ = c[J]
            a = c_inv[I]
            b = c_inv[J]
            a_off = (a != I) & (a != J)
            b_off = (b != I) & (b != J)
            # t c t (i) = t(c(j)) and t c t (j) = t(c(i))
            count = (np.where(cJ == I, J, np.where(cJ == J, I, cJ)) != r2[I]
                     ).astype(np.int64)
            count += np.where(cI == I, J, np.where(cI == J, I, cI)) != r2[J]
            count += a_off & (r2[a] != J)  # t c t (a) = t(i) = j
            count += b_off & (r2[b] != I)
            count -= miss[I] + miss[J] + a_off * miss[a] + b_off * miss[b]
            count += base
            np.maximum(worst, count, out=worst)
            total += count
        key = worst * scale + total
        k = int(np.argmin(key))  # the first minimum in (i, j) order
        if key[k] < best_key:
            best_key = key[k]
            best = ((int(worst[k]), int(total[k])), int(I[k]), int(J[k]))
    return best


def align(
    spec1: ApproxSpec,
    spec2: ApproxSpec,
    S: Iterable[GroupElem],
    seed: int = 0,
    iters: Optional[int] = None,
    restarts: int = 8,
) -> AlignmentReport:
    """Steepest-descent search for tau minimizing the worst distance
    d(tau^-1 rho1(s) tau, rho2(s)) over s in S (total distance breaks ties).

    A step scores all n(n-1)/2 swaps of two positions of tau in numpy
    (:func:`_best_swap`), O(n^2 |S|) work, and takes the one with the
    lexicographically smallest (max, total) mismatch counts that is strictly
    below the current pair; among equal candidates the first in (i, j) order
    wins.  Pairs are scored in blocks of at most max(_ALIGN_CHUNK, n); a
    block's numpy temporaries peak near 115 bytes per pair, about 4 MB for a
    full block.  After the swap the counts are recomputed from tau.

    Best-effort only: the search stops at local optima, after ``iters``
    steps (default 50n) per restart.  Restart 0 starts from the identity
    and the others from a seeded random tau; :func:`_best_restart` runs
    them with key ((max, total), tau) and ``iterations`` sums the steps.
    The reported distances are the winner's exact mismatch counts over n,
    read from :func:`_align_state`.
    """
    if spec1.npoints != spec2.npoints:
        raise ValueError("degree mismatch between the two specs")
    if spec1.family != spec2.family:
        raise ValueError("family mismatch between the two specs")
    n = spec1.npoints
    if iters is None:
        iters = 50 * n
    _check_budget(iters, restarts)
    elements = sorted(set(S), key=groups.sort_key)
    rho1 = [approxmod.eval(spec1, s).images for s in elements]
    rho2 = [approxmod.eval(spec2, s).images for s in elements]

    def attempt(r, rng):
        if r == 0:
            tau = np.arange(n, dtype=np.int64)
        else:
            lst = list(range(n))
            rng.shuffle(lst)
            tau = np.asarray(lst, dtype=np.int64)
        state, obj = _align_state(tau, rho1, rho2)
        steps = 0
        for steps in range(1, iters + 1):
            swap = _best_swap(state, obj, n)
            if swap is None:
                break
            _, i, j = swap
            tau[i], tau[j] = tau[j], tau[i]
            state, obj = _align_state(tau, rho1, rho2)
        return (obj, tuple(tau.tolist())), steps

    ((worst, _), tau), steps = _best_restart(restarts, seed, attempt)
    tau = Perm(np.asarray(tau, dtype=np.int64), _trusted=True)
    state, _ = _align_state(tau.images, rho1, rho2)
    return AlignmentReport(
        tau=tau,
        per_element=tuple(ElementDistance(s, Fraction(entry[-1], n))
                          for s, entry in zip(elements, state)),
        max_distance=Fraction(worst, n),
        iterations=steps,
    )
