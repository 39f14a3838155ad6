from fractions import Fraction
from math import gcd

import pytest

from lenssurg.alex import dd1
from lenssurg.casson import euler_check, lambda_dedekind, lambda_rustamov, ras_verify
from golden import DELTA_K2, DELTA_K6


@pytest.mark.parametrize("p,q,expected", [
    (2, 1, Fraction(0)),
    (3, 1, Fraction(-1, 36)),
    (5, 2, Fraction(0)),
])
def test_lambda_examples(p, q, expected):
    assert lambda_rustamov(p, q) == expected
    assert lambda_dedekind(p, q) == expected


def test_lambda_routes_agree():
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
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


def test_ras_verify_small():
    assert ras_verify(4) == []
    assert ras_verify(100) == []
