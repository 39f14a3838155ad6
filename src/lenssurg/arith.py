"""Exact modular and rational arithmetic primitives.

Everything downstream (correction terms, Casson-Walker values, the
certification pipeline) assumes these helpers never round: residues are
canonical ints in [0, p) and rationals are `fractions.Fraction`.
"""

from fractions import Fraction
from math import gcd

__all__ = [
    "reduce_mod",
    "mod_inverse",
    "is_square_mod",
    "dedekind_sum",
    "Fraction",
    "gcd",
]


def reduce_mod(gamma: int, p: int) -> int:
    """Canonical residue of gamma in [0, p)."""
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    return gamma % p


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
    """s(q, p) = sum_{k=1}^{p-1} ((k/p))((kq/p)), exactly.

    Inner arithmetic is pure-integer over the common denominator 4p^2;
    a Fraction is only formed once at the end.
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    if gcd(q, p) != 1:
        raise ValueError(f"gcd({q}, {p}) != 1")
    total = 0
    for k in range(1, p):
        kq = (k * q) % p
        if kq == 0:
            continue
        total += (2 * k - p) * (2 * kq - p)
    return Fraction(total, 4 * p * p)
