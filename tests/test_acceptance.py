"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two table searches
and the exhaustive sweep are shared module-scoped fixtures; everything is
exact integer/rational arithmetic, so every assertion is an equality (the
only tolerances are the stated runtime budgets).
"""

import time
from fractions import Fraction
from math import gcd

import pytest

from lenssurg.alex import dd1, reduce_poly
from lenssurg.casson import euler_check, lambda_dedekind, lambda_rustamov, ras_verify
from lenssurg.certify import Certificate, certify, lift_to_d2
from lenssurg.dinv import d_lens
from lenssurg.fgroup import abelianization_order, build_presentation, todd_coxeter
from lenssurg.search import (
    FULL_COVERAGE_LRANGE,
    enumerate_search,
    families,
    report_csv,
)
from lenssurg.tables import fixture_text, load_fixture
from golden import (
    BINARY_ICOSAHEDRAL,
    DELTA_K2,
    DELTA_K3_D0,
    DELTA_K3_D2,
    DELTA_K4_D0,
    DELTA_K4_D2,
    DELTA_K5_D0,
    DELTA_K5_D2,
    DELTA_K6,
    d_lens_p1,
    delta_k1,
    delta_lift,
    spin_c_Q,
)

THREADS = 2


def _announce(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def table1_run():
    t0 = time.monotonic()
    report = enumerate_search(2, 711, mode="square", threads=THREADS)
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def table2_run():
    t0 = time.monotonic()
    report = enumerate_search(712, 2007, mode="square", threads=THREADS)
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def exhaustive_run():
    return enumerate_search(2, 999, mode="exhaustive", threads=THREADS)


def test_criterion_01_table1(table1_run):
    report, elapsed = table1_run
    assert report_csv(report, d=2) == fixture_text("table1")
    assert elapsed <= 300, f"table-1 search took {elapsed:.0f}s"
    _announce(1, "table 1 reproduction")


def test_criterion_02_table2(table2_run):
    report, elapsed = table2_run
    assert report_csv(report, d=2) == fixture_text("table2")
    assert elapsed <= 3600, f"table-2 search took {elapsed:.0f}s"
    _announce(2, "table 2 reproduction")


def test_criterion_03_nonexistence(exhaustive_run):
    report = exhaustive_run
    assert set(report.d_histogram) == {0, 2}
    # nothing consistent was discarded by the bound stage either
    assert report.rejections.get("bound-violation", 0) == 0
    assert report.rejections.get("odd-d", 0) == 0
    _announce(3, "derived-d support for p < 1000 is exactly {0, 2}")


def test_criterion_04_sporadic_classification():
    assert certify(8, 1, 3).poly == DELTA_K2
    assert certify(22, 3, 5).poly == DELTA_K6

    pairs = [
        ((7, 2, 2), DELTA_K3_D0, DELTA_K3_D2),
        ((11, 3, 5), DELTA_K4_D0, DELTA_K4_D2),
        ((13, 3, 4), DELTA_K5_D0, DELTA_K5_D2),
    ]
    for (p, q, h), d0_poly, d2_poly in pairs:
        cert = certify(p, q, h)
        assert cert.d == 0 and cert.poly == d0_poly
        lifted = lift_to_d2(cert)
        assert lifted.d == 2 and lifted.poly == d2_poly
        assert delta_lift(cert.poly, p) == lifted.poly
        assert tuple(reduce_poly(d2_poly, p).tolist()) == cert.reduced

    # the L(p,1), h = 1 family for odd p, with the degree-shift relation
    for p in (5, 9, 11, 15, 21, 33):
        base = certify(p, 1, 1)
        assert (base.d, base.g) == (0, 0)
        lifted = lift_to_d2(base)
        assert lifted.poly == delta_k1(p)
        assert (lifted.d, lifted.g) == (2, (p + 1) // 2)
        assert delta_lift(base.poly, p) == lifted.poly
    _announce(4, "sporadic classification polynomials")


def test_criterion_05_d_invariant_convention():
    for p in range(2, 201):
        for i in range(p):
            assert d_lens(p, 1, i) == Fraction((2 * i - p) ** 2 - p, 4 * p)
    cert = certify(8, 1, 3)
    tred = [0] * 8
    for j in range(-3, 4):
        tred[j % 8] += cert.torsions[abs(j)]
    for i in range(8):
        lhs = 2 - d_lens(8, 1, spin_c_Q(3, 8, i)) + d_lens_p1(8, i)
        assert lhs == 2 * tred[i], i
    _announce(5, "d-invariant convention lock")


def test_criterion_06_lambda_cross_validation():
    for p in range(2, 101):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert lambda_rustamov(p, q) == lambda_dedekind(p, q), (p, q)
    _announce(6, "lambda cross-validation")


def test_criterion_07_euler_identity(table1_run, table2_run):
    certs = table1_run[0].certificates + table2_run[0].certificates
    assert certs
    for cert in certs:
        lhs = cert.p * (Fraction(cert.d) + 2 * cert.lambda_pq - 2 * cert.lambda_p1)
        assert lhs == dd1(cert.poly), cert.datum
    # recompute the lambda values from scratch on all table rows
    for cert in certs:
        if cert.d == 2:
            assert euler_check(cert.p, cert.d, lambda_rustamov(cert.p, cert.q_square),
                               lambda_rustamov(cert.p, 1), dd1(cert.poly))
    _announce(7, "Euler identity on all certificates")


def test_criterion_08_bounds(table1_run, table2_run):
    for cert in table1_run[0].certificates + table2_run[0].certificates:
        g, d, p = cert.g, cert.d, cert.p
        if g == 0:
            continue
        assert g + 2 * d > 0, cert.datum
        assert 2 * g - 1 <= p, cert.datum
        assert p < Fraction(4 * g * (g + 1), g + 2 * d), cert.datum
    _announce(8, "genus-slope bounds on all certificates")


def test_criterion_09_ras_threshold():
    t0 = time.monotonic()
    assert ras_verify(300) == []
    elapsed = time.monotonic() - t0
    assert elapsed <= 60, f"ras sweep took {elapsed:.0f}s"
    _announce(9, "lambda threshold classification to p = 300")


def test_criterion_10_family_coverage():
    # the range +-12 is the smallest covering every tabulated slope; the
    # slowest-growing family (14 l^2 + 7 l + 1) reaches p = 1933 at l = -12
    insts = families(-FULL_COVERAGE_LRANGE, FULL_COVERAGE_LRANGE)
    assert all(inst.ok for inst in insts)
    fam_rows = {(i.result.p, i.result.datum.q, i.result.datum.h, i.result.g)
                for i in insts if isinstance(i.result, Certificate)}
    table_rows = load_fixture("table1") + load_fixture("table2")
    missing = [r for r in table_rows if r not in fam_rows]
    assert missing == []
    _announce(10, "family instantiation covers both tables")


def test_criterion_11_group_orders():
    t0 = time.monotonic()
    assert todd_coxeter(BINARY_ICOSAHEDRAL) == 120
    assert time.monotonic() - t0 <= 10

    for p, q, h in [(8, 1, 3), (22, 3, 5), (38, 7, 7), (2001, 721, 82)]:
        cert = certify(p, q, h)
        assert cert.d == 2
        pres = build_presentation(cert)
        t0 = time.monotonic()
        assert abelianization_order(pres) == 1
        assert todd_coxeter(pres) == 120, (p, q, h)
        assert time.monotonic() - t0 <= 10

    small = enumerate_search(2, 20, mode="square", threads=1)
    d0 = small.certs_with_d(0)
    assert d0
    for cert in d0:
        pres = build_presentation(cert)
        t0 = time.monotonic()
        assert abelianization_order(pres) == 1
        assert todd_coxeter(pres) == 1, cert.datum
        assert time.monotonic() - t0 <= 10
    _announce(11, "coset-enumeration group orders")


def test_criterion_12_mode_equivalence():
    sq = enumerate_search(2, 60, mode="square", threads=1)
    ex = enumerate_search(2, 60, mode="exhaustive", threads=1)
    assert sq.certificates == ex.certificates
    _announce(12, "square-filtered and exhaustive modes agree")
