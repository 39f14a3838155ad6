"""Casson-Walker invariants of lens spaces, by two independent routes.

The authoritative route sums correction terms (HF_red of a lens space is
zero, so the surgery-formula version of the invariant collapses to
lambda = -(sum_i d(L(p,q), i)) / (2p) = -(sum_i N_i) / (8p^2), with the
scaled terms N_i = 4p * d(L(p,q), i) of the dinv module).  The Dedekind-sum
route lambda = -s(q, p) / 2 exists as an independent oracle; its sign is
fixed, and the tests pin it by checking both routes against each other.
"""

from fractions import Fraction
from math import gcd

from .arith import dedekind_sum
from .dinv import d_vector

__all__ = ["lambda_rustamov", "lambda_dedekind", "euler_check", "ras_verify"]


def lambda_rustamov(p: int, q: int) -> Fraction:
    """lambda(L(p,q)) = -(sum over Spin^c of d) / (2p) = -(sum of N) / (8p^2)."""
    if not 0 < q < p or gcd(p, q) != 1:
        raise ValueError(f"bad lens parameters ({p}, {q})")
    return Fraction(-int(d_vector(p, q).sum()), 8 * p * p)


def lambda_dedekind(p: int, q: int) -> Fraction:
    """Independent route: lambda(L(p,q)) = -s(q, p) / 2."""
    if gcd(p, q) != 1:
        raise ValueError(f"gcd({p}, {q}) != 1")
    return -dedekind_sum(q, p) / 2


def euler_check(p: int, d, lambda_pq: Fraction, lambda_p1: Fraction,
                poly_dd1: int) -> bool:
    """p * (d + 2*lambda(L(p,q)) - 2*lambda(L(p,1))) == Delta''(1), exactly.

    The caller passes lambda_pq = lambda(L(p,q)) and lambda_p1 = lambda(L(p,1)).
    """
    return p * (Fraction(d) + 2 * lambda_pq - 2 * lambda_p1) == poly_dd1


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
        lam_p1 = lambda_rustamov(p, 1)
        threshold = Fraction(1, 4) * (Fraction(p, 4) - 1)
        allowed = {1 % p, 2 % p, 3 % p}
        allowed |= {pow(a, -1, p) for a in (1, 2, 3) if gcd(a, p) == 1}
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            if 2 * lambda_rustamov(p, q) - 2 * lam_p1 <= threshold:
                if q not in allowed:
                    violations.append((p, q))
    return violations
