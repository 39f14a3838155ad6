"""Casson-Walker invariants of lens spaces, by two independent routes.

The authoritative route sums correction terms (HF_red of a lens space is
zero, so the surgery-formula version of the invariant collapses to
lambda = -(sum_i d(L(p,q), i)) / (2p) = -S(p, q) / (8p^2), with
S(p, q) = sum_i N(p, q, i) over the scaled terms N = 4p * d of the dinv
module).  The Dedekind-sum route lambda = -s(q, p) / 2 exists as an
independent oracle; its sign is fixed, and the tests pin it by checking
both routes against each other.

S comes from the correction-term recursion without building a term:

- Every term of the Ozsvath-Szabo recursion divides exactly, so a sum of
  terms does too.  With S(a, b, r) = sum_{i<r} N(a, b, i), c = a mod b and
  s = 1 - a - b,
      S(a, b, r) = [sum_{i<r} (2i + s)^2 - r*a*b
                    - a*(floor(r/b) * S(b, c, b) + S(b, c, r mod b))] / b.
- One walk down the Euclidean chain of (p, q) needs, at each level (a, b),
  its total S(a, b, a) and the one prefix S(a, b, b) that the level above
  reads; that prefix's lower index never wraps.  The walk returns the two
  bottom-up from S(1, 0, .) = 0, in O(log p) integer steps.
- sum_{i<r} (2i + s)^2 = 2(r-1)r(2r-1)/3 + 2s*r(r-1) + r*s^2.
"""

from fractions import Fraction
from math import gcd

from .arith import dedekind_sum
from .dinv import d_vector  # not called here; perfbench/spans.py wraps this binding

__all__ = ["lambda_rustamov", "lambda_dedekind", "euler_check", "ras_verify"]


def _square_sum(r: int, s: int) -> int:
    """sum_{i<r} (2i + s)^2."""
    return 2 * (r - 1) * r * (2 * r - 1) // 3 + 2 * s * r * (r - 1) + r * s * s


def _sums(a: int, b: int) -> tuple:
    """(S(a, b, a), S(a, b, b)): the total of level (a, b) and its prefix of length b."""
    if b == 0:
        return 0, 0
    total, prefix = _sums(b, a % b)
    s = 1 - a - b
    return ((_square_sum(a, s) - a * a * b - a * (a // b * total + prefix)) // b,
            (_square_sum(b, s) - a * b * b - a * total) // b)


def lambda_rustamov(p: int, q: int) -> Fraction:
    """lambda(L(p,q)) = -(sum over Spin^c of d) / (2p) = -S(p, q) / (8p^2)."""
    if not 0 < q < p or gcd(p, q) != 1:
        raise ValueError(f"bad lens parameters ({p}, {q})")
    return Fraction(-_sums(p, q)[0], 8 * p * p)


def lambda_dedekind(p: int, q: int) -> Fraction:
    """Independent route: lambda(L(p,q)) = -s(q, p) / 2."""
    if gcd(p, q) != 1:
        raise ValueError(f"gcd({p}, {q}) != 1")
    return -dedekind_sum(q, p) / 2


def euler_check(p: int, d, lambda_pq: Fraction, lambda_p1: Fraction,
                poly_dd1: int) -> bool:
    """p * (d + 2*lambda(L(p,q)) - 2*lambda(L(p,1))) == Delta''(1), exactly.

    The caller passes lambda_pq = lambda(L(p,q)) = a/b and
    lambda_p1 = lambda(L(p,1)) = c/e; the identity times b*e is compared in
    integers.
    """
    a, b = lambda_pq.numerator, lambda_pq.denominator
    c, e = lambda_p1.numerator, lambda_p1.denominator
    return p * (d * b * e + 2 * a * e - 2 * c * b) == poly_dd1 * b * e


def _below_threshold(p: int) -> list:
    """The q coprime to p with 2*lambda(L(p,q)) - 2*lambda(L(p,1)) <= (1/4)(p/4 - 1).

    With S = -8p^2 lambda (`_sums`) that is 4(S(p,1) - S(p,q)) <= p^2 (p - 4).
    """
    s_p1 = _sums(p, 1)[0]
    return [q for q in range(1, p)
            if gcd(p, q) == 1 and 4 * (s_p1 - _sums(p, q)[0]) <= p * p * (p - 4)]


def ras_verify(p_max: int) -> list:
    """Check the lambda threshold picking out L(p,1), L(p,2), L(p,3).

    For every p <= p_max and coprime q: whenever
    2*lambda(L(p,q)) - 2*lambda(L(p,1)) <= (1/4)(p/4 - 1), q must lie in
    {1, 2, 3} up to the q <-> q^{-1} identification.  Returns the list of
    violating (p, q); expected empty.
    """
    if p_max < 4:
        raise ValueError("p_max must be at least 4")
    violations = []
    for p in range(4, p_max + 1):
        allowed = {1 % p, 2 % p, 3 % p}
        allowed |= {pow(a, -1, p) for a in (1, 2, 3) if gcd(a, p) == 1}
        violations += [(p, q) for q in _below_threshold(p) if q not in allowed]
    return violations
