from fractions import Fraction
from math import gcd
from random import Random

import pytest

from lenssurg.arith import dedekind_sum, is_square_mod, mod_inverse


def reduce_mod(gamma, p):
    """Oracle: the canonical residue of gamma in [0, p)."""
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    return gamma % p


@pytest.mark.parametrize("gamma,p,expected", [(12, 8, 4), (-3, 8, 5), (0, 5, 0)])
def test_reduce_mod_examples(gamma, p, expected):
    assert reduce_mod(gamma, p) == expected


def test_reduce_mod_idempotent():
    for p in range(1, 30):
        for gamma in range(-3 * p, 3 * p):
            r = reduce_mod(gamma, p)
            assert reduce_mod(r, p) == r
            assert 0 <= r < p


@pytest.mark.parametrize("h,p,expected", [(3, 8, 3), (5, 22, 9), (1, 17, 1)])
def test_mod_inverse_examples(h, p, expected):
    assert mod_inverse(h, p) == expected


def test_mod_inverse_involution():
    for p in range(2, 60):
        for h in range(1, p):
            if gcd(h, p) != 1:
                with pytest.raises(ValueError):
                    mod_inverse(h, p)
                continue
            hp = mod_inverse(h, p)
            assert (h * hp) % p == 1
            assert mod_inverse(hp, p) == h % p


@pytest.mark.parametrize("q,p,expected", [
    (1, 8, True),
    (3, 22, True),
    (2, 5, False),
])
def test_is_square_examples(q, p, expected):
    assert is_square_mod(q, p) is expected


def dedekind_oracle(q, p):
    """s(q, p) by its defining O(p) sum, over the common denominator 4p^2."""
    total = 0
    for k in range(1, p):
        kq = (k * q) % p
        if kq == 0:
            continue
        total += (2 * k - p) * (2 * kq - p)
    return Fraction(total, 4 * p * p)


@pytest.mark.parametrize("q,p,expected", [
    (1, 2, Fraction(0)),
    (1, 3, Fraction(1, 18)),
    (2, 5, Fraction(0)),
])
def test_dedekind_examples(q, p, expected):
    assert dedekind_sum(q, p) == expected
    assert dedekind_oracle(q, p) == expected


def test_dedekind_reciprocity():
    # s(q,p) + s(p,q) = -1/4 + (p/q + q/p + 1/(pq)) / 12, checked on the
    # defining sum: dedekind_sum is built on this law, so it cannot test it
    for p in range(1, 101):
        for q in range(1, 101):
            if gcd(p, q) != 1:
                continue
            lhs = dedekind_oracle(q, p) + dedekind_oracle(p, q)
            rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p)
                                     + Fraction(1, p * q)) / 12
            assert lhs == rhs, (p, q)


def test_dedekind_sum_matches_defining_sum():
    for p in range(1, 200):
        for q in range(-p, 2 * p + 1):
            if gcd(q, p) == 1:
                assert dedekind_sum(q, p) == dedekind_oracle(q, p), (q, p)
    for bad in [(2, 4), (0, 6), (3, 0), (1, -5)]:
        with pytest.raises(ValueError):
            dedekind_sum(*bad)


def test_fraction_arithmetic_is_exact():
    rng = Random(7)
    for _ in range(300):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
