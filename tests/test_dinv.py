from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random

import numpy as np
import pytest

from lenssurg import dinv
from lenssurg.alex import window_starts
from lenssurg.arith import INT64_P_BOUND, Int64BoundError
from lenssurg.casson import lambda_dedekind, lambda_rustamov
from lenssurg.dinv import d_lens, d_vector
from golden import d_lens_p1, spin_c_Q


@lru_cache(maxsize=None)
def fraction_d_vector(p, q):
    """Oracle: the Ozsvath-Szabo recursion evaluated directly in Fractions.

    d(p, q, i) = ((2i + 1 - p - q)^2 - pq) / (4pq) - d(q, p mod q, i mod q)
    """
    if p == 1 and q == 0:
        return (Fraction(0),)
    lower = fraction_d_vector(q, p % q)
    return tuple(Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q) - lower[i % q]
                 for i in range(p))


def test_scaled_terms_match_fraction_recursion():
    for p in range(2, 160):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            n = d_vector(p, q)
            assert n.dtype == np.int64 and not n.flags.writeable, (p, q)
            assert tuple(Fraction(x, 4 * p) for x in n.tolist()) == fraction_d_vector(p, q), (p, q)


@lru_cache(maxsize=None)
def int_d_vector(p, q):
    """Oracle: the scaled recursion N = ((2i+1-p-q)^2 - pq - p * N_lower[i mod q]) / q
    on Python ints, one i at a time."""
    if p == 1 and q == 0:
        return (0,)
    lower = int_d_vector(q, p % q)
    out = []
    for i in range(p):
        num = (2 * i + 1 - p - q) ** 2 - p * q - p * lower[i % q]
        assert num % q == 0, (p, q, i)
        out.append(num // q)
    return tuple(out)


def test_scaled_terms_match_integer_recursion_at_large_p():
    # above p = 160 a level spans many periods ceil(p/q) of the level below
    rng = Random(2001)
    for p in (1993, 2000, 2001):
        coprime = [q for q in range(1, p) if gcd(p, q) == 1]
        for q in sorted({1, 2, 3, p - 2, p - 1} & set(coprime)) + rng.sample(coprime, 12):
            assert tuple(d_vector(p, q).tolist()) == int_d_vector(p, q), (p, q)


def test_inexact_division_raises(monkeypatch):
    raw = d_vector.__wrapped__
    # a lower level that is not 4q * d(L(2,1), .) leaves a remainder at (5, 2)
    monkeypatch.setattr(dinv, "d_vector", lambda p, q: (1,) * p)
    with pytest.raises(ArithmeticError):
        raw(5, 2)


def test_int64_bound_edge():
    assert INT64_P_BOUND == 2**19
    p = INT64_P_BOUND - 1   # the Mersenne prime 2**19 - 1
    i = np.arange(p, dtype=np.int64)
    closed = (2 * i - p) ** 2 - p
    assert d_vector(p, 1).tolist() == closed.tolist()
    # L(p, p-1) = -L(p, 1): its recursion passes through p * |N_lower| ~ p^3
    assert sorted(d_vector(p, p - 1).tolist()) == sorted((-closed).tolist())
    for q in (p - 1, 2, 12345):
        assert lambda_rustamov(p, q) == lambda_dedekind(p, q), q
    d_vector.cache_clear()   # drop the 4 MB arrays
    for p in (INT64_P_BOUND, INT64_P_BOUND + 1):
        with pytest.raises(Int64BoundError):
            d_vector(p, 3)
        with pytest.raises(Int64BoundError):
            window_starts(p, (1,), (1,))   # every coverage depth is built from these


@pytest.mark.parametrize("p,i,expected", [
    (8, 0, Fraction(7, 4)),
    (8, 4, Fraction(-1, 4)),
    (1, 0, Fraction(0)),
])
def test_d_lens_p1_examples(p, i, expected):
    assert d_lens_p1(p, i) == expected


@pytest.mark.parametrize("p,q,i,expected", [
    (5, 2, 0, Fraction(2, 5)),
    (5, 2, 3, Fraction(0)),
])
def test_d_lens_examples(p, q, i, expected):
    assert d_lens(p, q, i) == expected


def test_recursion_matches_closed_form_q1():
    for p in range(2, 201):
        for i in range(p):
            assert d_lens(p, 1, i) == d_lens_p1(p, i)


def test_homeomorphism_invariance():
    # multiset of correction terms is the same for q and q^{-1}; compared as
    # the integers N = 4p * d, all at the same scale 4p
    for p in range(2, 201):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            qi = pow(q, -1, p)
            if qi < q:
                continue  # pair already checked
            a = sorted(d_vector(p, q).tolist())
            b = sorted(d_vector(p, qi).tolist())
            assert a == b, (p, q, qi)


def test_denominators_divide_4pq():
    for p, q in [(5, 2), (22, 3), (38, 7), (38, 11), (191, 34), (100, 29)]:
        for i in range(p):
            assert (4 * p * q) % d_lens(p, q, i).denominator == 0


def test_d_lens_rejects_bad_input():
    with pytest.raises(ValueError):
        d_lens(10, 4, 0)
    with pytest.raises(ValueError):
        d_lens(5, 2, 5)


@pytest.mark.parametrize("h,p,i,expected", [
    (3, 8, 0, 4),
    (3, 8, 2, 2),
    (1, 17, 5, 5),
])
def test_spin_c_Q_examples(h, p, i, expected):
    assert spin_c_Q(h, p, i) == expected


def test_spin_c_Q_bijection():
    for p in range(2, 40):
        for h in range(1, p):
            if gcd(h, p) != 1:
                continue
            image = {spin_c_Q(h, p, i) for i in range(p)}
            assert image == set(range(p))


def test_spin_c_labels_match_the_loop():
    # every coprime h in [0, p), p < 200, half and full length; h = 0 only at p = 1
    for p in range(1, 200):
        for h in range(p):
            if gcd(h, p) != 1:
                continue
            c = dinv.spin_c_c(h, p)
            for count in (p // 2 + 1, p):
                labels = dinv.spin_c_labels(h, p, count)
                assert labels.dtype == np.int64
                assert labels.tolist() == [(h * i + c) % p for i in range(count)], (p, h)
