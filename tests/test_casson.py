from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lenssurg.alex import dd1
from lenssurg.casson import (
    _below_threshold, _sums, euler_check, lambda_dedekind, lambda_rustamov, ras_verify)
from lenssurg.dinv import d_vector
from golden import DELTA_K2, DELTA_K6, euler_check_oracle


@pytest.mark.parametrize("p,q,expected", [
    (2, 1, Fraction(0)),
    (3, 1, Fraction(-1, 36)),
    (5, 2, Fraction(0)),
])
def test_lambda_examples(p, q, expected):
    assert lambda_rustamov(p, q) == expected
    assert lambda_dedekind(p, q) == expected


def test_sums_match_correction_terms():
    # the total S(p, q, p) and the carried prefix S(p, q, q) of the walk
    for p in range(2, 160):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            n = d_vector(p, q)
            assert _sums(p, q) == (int(n.sum()), int(n[:q].sum())), (p, q)


def test_lambda_routes_agree():
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            assert lambda_rustamov(p, q) == lambda_dedekind(p, q), (p, q)


def test_lambda_routes_agree_on_large_slopes():
    # no int64 bound: the walk runs on Python ints
    rng = Random(13)
    pairs = [(2**19, q) for q in (1, 3, 2**19 - 1, 12345)]
    pairs += [(2**19 + 1, q) for q in (1, 2, 2**19, 54323)]
    while len(pairs) < 300:
        p = rng.randrange(2, 10**12)
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            pairs.append((p, q))
    for p, q in pairs:
        assert lambda_rustamov(p, q) == lambda_dedekind(p, q), (p, q)


def test_lambda_p1_routes_agree_up_to_200():
    for p in range(2, 201):
        assert lambda_rustamov(p, 1) == lambda_dedekind(p, 1), p


def test_lambda_homeomorphism_invariance():
    for p in range(2, 101):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            assert lambda_rustamov(p, q) == lambda_rustamov(p, pow(q, -1, p))


def test_euler_identity_examples():
    # q = 1 makes the lambda terms cancel: 8 * 2 = Delta''(1) = 16
    lam8, lam17 = lambda_rustamov(8, 1), lambda_rustamov(17, 1)
    assert euler_check(8, 2, lam8, lam8, dd1(DELTA_K2))
    assert euler_check(17, 0, lam17, lam17, 0)   # unknot datum
    assert dd1(DELTA_K6) == 72        # hand evaluation of 2*sum i^2 a_i
    assert euler_check(22, 2, lambda_rustamov(22, 3), lambda_rustamov(22, 1),
                       dd1(DELTA_K6))
    assert not euler_check(8, 0, lam8, lam8, dd1(DELTA_K2))


_LAMBDA = st.fractions(-10**9, 10**9, max_denominator=10**12)


@given(st.integers(1, 10**6), st.integers(-10**6, 10**6), _LAMBDA,
       st.integers(-10**9, 10**9), st.booleans(), _LAMBDA.filter(bool))
def test_euler_check_matches_fraction_oracle(p, d, lambda_p1, poly_dd1, holds, miss):
    # lambda_pq solves the identity exactly, or misses it by a nonzero fraction
    lambda_pq = (Fraction(poly_dd1, p) - d + 2 * lambda_p1) / 2 + (0 if holds else miss)
    expected = euler_check_oracle(p, d, lambda_pq, lambda_p1, poly_dd1)
    assert expected == holds
    assert euler_check(p, d, lambda_pq, lambda_p1, poly_dd1) == expected


def test_ras_verify_small():
    assert ras_verify(4) == []
    assert ras_verify(100) == []


def test_ras_selection_matches_fraction_threshold():
    # the integer test picks the same (p, q) as the threshold in Fractions,
    # (4, 1) at equality among them
    selected = 0
    for p in range(2, 120):
        lam_p1 = lambda_rustamov(p, 1)
        threshold = Fraction(1, 4) * (Fraction(p, 4) - 1)
        expected = [q for q in range(1, p) if gcd(p, q) == 1
                    and 2 * lambda_rustamov(p, q) - 2 * lam_p1 <= threshold]
        assert _below_threshold(p) == expected, p
        selected += len(expected)
    assert selected == 336
    assert _below_threshold(4) == [1]


def test_lambda_reads_no_correction_terms():
    d_vector.cache_clear()
    ras_verify(40)
    info = d_vector.cache_info()
    assert (info.hits, info.misses) == (0, 0)
