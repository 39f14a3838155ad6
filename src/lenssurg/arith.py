"""Exact modular and rational arithmetic primitives.

Everything downstream (correction terms, Casson-Walker values, the
certification pipeline) assumes these helpers never round: residues are
canonical ints in [0, p) and rationals are `fractions.Fraction`.  The
numpy stages hold integers in int64 and are exact only for slopes below
INT64_P_BOUND; check_int64_bound raises Int64BoundError above it.
"""

from fractions import Fraction
from math import gcd

__all__ = [
    "INT64_P_BOUND",
    "Int64BoundError",
    "check_int64_bound",
    "mod_inverse",
    "is_square_mod",
    "dedekind_sum",
]

# The numpy stages are exact in int64 for p < 2**19 = INT64_P_BOUND: the
# scaled correction terms satisfy |N| <= p^2 < 2**38, the d_vector recursion
# adds p * |N_lower| < p^3 < 2**57, and the surgery formula compares
# 8p * t~ <= 2p^3 < 2**58 (the torsions of an alternating polynomial of
# genus g <= (p+1)/2 have |t~| <= p^2/4); every intermediate stays below
# 2**63.
INT64_P_BOUND = 2**19


class Int64BoundError(ValueError):
    """A slope too large for the int64 stages to stay exact."""


def check_int64_bound(p: int) -> None:
    if p >= INT64_P_BOUND:
        raise Int64BoundError(f"p = {p} is not below the int64 exactness bound 2**19")


def mod_inverse(h: int, p: int) -> int:
    """Inverse of h mod p as a residue in [0, p); requires gcd(h, p) = 1."""
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    if gcd(h, p) != 1:
        raise ValueError(f"{h} is not invertible modulo {p}")
    return pow(h, -1, p)


def is_square_mod(q: int, p: int) -> bool:
    """True iff q is a quadratic residue modulo p (brute scan over [0, p))."""
    q = q % p
    return any(x * x % p == q for x in range(p))


def dedekind_sum(q: int, p: int) -> Fraction:
    """s(q, p) = sum_{k=1}^{p-1} ((k/p))((kq/p)), exactly, in O(log p) steps.

    Runs the Euclidean algorithm on (p, q mod p) with the reciprocity law
    s(q, p) + s(p, q) = (p/q + q/p + 1/(pq)) / 12 - 1/4 and s(0, 1) = 0
    (Rademacher-Grosswald, *Dedekind Sums*).
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    if gcd(q, p) != 1:
        raise ValueError(f"gcd({q}, {p}) != 1")
    total, sign = Fraction(0), 1
    q %= p
    while q:
        total += sign * (Fraction(p * p + q * q + 1, 12 * p * q) - Fraction(1, 4))
        sign = -sign
        p, q = q, p % q
    return total
