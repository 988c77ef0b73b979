"""q-analog combinatorics: Gaussian binomials, |GL_n(q)|, rank-metric ball
sizes, the products pi(q, n), and certified evaluations of the asymptotic
comparison quantities used throughout the package.

Exact values are big ints or Fractions.  Infinite products and limits are
never returned as bare floats: they come with a certified error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import charge, resolve_budget
from .fields import prime_power


def _as_int_q(q) -> int:
    """Accept an int or a field handle, read as its order."""
    qq = getattr(q, "order", q)
    if not isinstance(qq, int) or qq < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    return qq


_prime_power = lru_cache(maxsize=None)(prime_power)


def _as_prime_power(q) -> int:
    """_as_int_q for the order of a field, by a cached prime-power test."""
    q = _as_int_q(q)
    if _prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    return q


def binom(x: int, k: int) -> int:
    """C(x, k) with the convention C(x, k) = 0 for x < k or k < 0.

    Negative x never carries a nonzero contribution in the sums of this
    package (it is always multiplied by a vanishing q-binomial), so it is
    mapped to 0 as well.
    """
    if k < 0 or x < k or x < 0:
        return 0
    return math.comb(x, k)


def qbinom(i: int, j: int, q) -> int:
    """Number of j-dimensional subspaces of GF(q)^i.

    Computed by the exact telescoping recurrence r <- r*(q^(i-j+l)-1)/(q^l-1),
    whose intermediate values are themselves q-binomials; integrality at each
    step is checked, never left to rational arithmetic.  Returns 0 when
    j < 0 or j > i.
    """
    q = _as_int_q(q)
    if j < 0 or j > i:
        return 0
    j = min(j, i - j)
    r = 1
    for l in range(1, j + 1):
        r *= q ** (i - j + l) - 1
        den = q**l - 1
        if r % den:
            raise AssertionError("q-binomial telescoping lost integrality")
        r //= den
    return r


def gl_order(a: int, q) -> int:
    """|GL_a(q)| = prod_{i=0}^{a-1} (q^a - q^i)."""
    q = _as_int_q(q)
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    out = 1
    for i in range(a):
        out *= q**a - q**i
    return out


def matrix_rank_count(n: int, m: int, r: int, q) -> int:
    """Number of n x m matrices over GF(q) of rank r:
    C(n, r)_q * prod_{j<r} (q^m - q^j), a column space and a surjection
    onto it; 0 for r > min(n, m)."""
    q = _as_int_q(q)
    if r < 0:
        raise ValueError(f"need r >= 0, got r={r}")
    out = qbinom(n, r, q)
    for j in range(r):
        out *= q**m - q**j
    return out


def ball_size(n: int, m: int, r: int, q) -> int:
    """Number of n x m matrices over GF(q) of rank <= r."""
    q = _as_int_q(q)
    if not 0 <= r <= n <= m:
        raise ValueError(f"need 0 <= r <= n <= m, got r={r}, n={n}, m={m}")
    return sum(matrix_rank_count(n, m, i, q) for i in range(r + 1))


def pointset_size(n: int, m: int, r: int, q) -> int:
    """Number of 1-dim subspaces spanned by nonzero matrices of rank <= r."""
    q = _as_int_q(q)
    if r < 1:
        raise ValueError("r = 0 leaves no nonzero matrices")
    size = ball_size(n, m, r, q) - 1
    if size % (q - 1):
        raise AssertionError("nonzero ball elements must split into projective points")
    return size // (q - 1)


def pi_q(q, n: int, budget: int | None = None) -> Fraction:
    """Exact prod_{i=1}^n q^i/(q^i - 1).  Charges its n factors."""
    q = _as_int_q(q)
    if n < 0:
        raise ValueError("n must be >= 0")
    charge(n, resolve_budget(budget), "pi_q factors")
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= Fraction(q**i, q**i - 1)
    return out


def pi_q_limit(q, eps: float) -> tuple[float, float]:
    """(value, bound) with |prod_{i=1}^inf q^i/(q^i-1) - value| < bound <= eps.

    The log of the tail past n terms is at most 2*q^(-(n+1))/(1 - 1/q), so
    the truncated product P_n satisfies P <= P_n * exp(tail).
    """
    q = _as_int_q(q)
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a finite number > 0, got {eps}")
    n, partial = 1, Fraction(q, q - 1)
    while True:
        tail = 2.0 * q ** (-(n + 1)) / (1.0 - 1.0 / q)
        bound = float(partial) * (math.expm1(tail))
        if bound < eps:
            return float(partial), bound
        n += 1
        partial *= Fraction(q**n, q**n - 1)


def alt_exp_sum(m: int, budget: int | None = None) -> Fraction:
    """Exact partial sum sum_{i=0}^m (-1)^i / i!; converges to 1/e.
    Charges its m + 1 terms."""
    if m < 0:
        raise ValueError("m must be >= 0")
    charge(m + 1, resolve_budget(budget), "alternating exponential sum")
    out = Fraction(0)
    for i in range(m + 1):
        out += Fraction((-1) ** i, math.factorial(i))
    return out


@dataclass(frozen=True)
class AsymptoticEstimate:
    """A quantity of the form constant * base^exponent.

    `base` is the symbol 'q' or 'e'; the estimate is never silently
    collapsed to a number -- call evaluate() with a concrete q.
    """

    constant: Fraction | float
    base: str
    exponent: int | Fraction

    def evaluate(self, q: int | None = None) -> float:
        if self.base == "e":
            return float(self.constant) * math.exp(float(self.exponent))
        if q is None:
            raise ValueError("evaluating a q-power estimate needs a concrete q")
        return float(self.constant) * float(q) ** float(self.exponent)

    def __str__(self) -> str:
        return f"{self.constant} * {self.base}^{self.exponent}"


@dataclass(frozen=True)
class ComparisonCertificate:
    """Certified sign of  sum_i log(q^i/(q^i-1)) - 1/(q-1).

    Positivity of this margin is equivalent to
    prod (1 - q^-i)^(q+1) < exp(-(q+1)/(q-1)).
    margin_lower/margin_upper are exact rational bounds on the margin;
    margin_estimate is an accurate float for numeric sweeps.
    """

    q: int
    holds: bool
    margin_lower: Fraction
    margin_upper: Fraction
    margin_estimate: float
    terms: int


def comparison_inequality_check(
    q, terms: int = 40, budget: int | None = None
) -> ComparisonCertificate:
    """Certified check of prod_{i>=1}(1-q^-i)^(q+1) < e^-(q+1)/(q-1).

    Taking logs, the inequality is  1/(q-1) < sum_i log(q^i/(q^i-1)).
    Each term log(1+x) with x = 1/(q^i - 1) is bracketed by
    x - x^2/2 <= log(1+x) <= x, and the tail past `terms` terms is at most
    sum_{i>terms} 1/(q^i-1) <= 2 q^-terms/(q-1).  All bounds are exact
    rationals.  Raises ValueError when the sign cannot be certified at the
    requested truncation (caller must raise `terms`).  Charges its
    `terms` terms.
    """
    q = _as_int_q(q)
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    charge(terms, resolve_budget(budget), "comparison inequality terms")
    lower = Fraction(0)
    upper = Fraction(0)
    estimate = 0.0
    for i in range(1, terms + 1):
        x = Fraction(1, q**i - 1)
        lower += x - x * x / 2
        upper += x
        estimate += math.log(q**i / (q**i - 1.0))
    tail = Fraction(2, q**terms * (q - 1))
    target = Fraction(1, q - 1)
    margin_lower = lower - target
    margin_upper = upper + tail - target
    estimate -= 1.0 / (q - 1)
    if margin_lower > 0:
        return ComparisonCertificate(q, True, margin_lower, margin_upper, estimate, terms)
    if margin_upper < 0:
        return ComparisonCertificate(q, False, margin_lower, margin_upper, estimate, terms)
    raise ValueError(
        f"inconclusive at {terms} terms for q={q}: "
        f"margin in [{float(margin_lower)}, {float(margin_upper)}]; raise terms"
    )

