import dataclasses
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import lenssurg.certify as mod
from lenssurg.alex import (
    dd1,
    genus_from_reduced,
    os_form_check,
    reduce_poly,
    reduced_coeffs,
    torsion_from_poly,
    unreduce,
)
from lenssurg.arith import is_square_mod
from lenssurg.casson import lambda_dedekind
from lenssurg.certify import (
    Certificate,
    Rejection,
    _certify_class,
    bounds_check,
    canonical_h,
    canonical_q,
    certificate_from_json,
    certificate_to_json,
    certify,
    h_class_set,
    lift_to_d2,
)
from lenssurg.cli import main
from lenssurg.dinv import d_lens, d_vector, spin_c_c
from lenssurg.search import _class_reps, enumerate_search
from golden import (
    DELTA_K2,
    DELTA_K3_D2,
    DELTA_K4_D0,
    DELTA_K4_D2,
    DELTA_K5_D0,
    DELTA_K5_D2,
    DELTA_K6,
    TREFOIL,
    d_lens_p1,
    delta_k1,
    delta_lift,
)

GOLDEN_CERTS = Path(__file__).parent / "golden_certs"


def test_canonicalization():
    assert canonical_q(38, 11) == 7
    assert canonical_q(43, 144) == 15
    assert canonical_h(22, 9) == 5
    assert canonical_h(8, 5) == 3
    assert canonical_h(11, 5) == 2


@pytest.mark.parametrize("p,q,h,expected", [
    (8, 1, 3, 2),
    (22, 3, 5, 2),
    (17, 1, 1, 0),
    (7, 2, 2, 0),
])
def test_derive_d(p, q, h, expected):
    assert certify(p, q, h, require_even_d=False).d == expected


def test_certify_anchor_8_1_3():
    cert = certify(8, 1, 3)
    assert isinstance(cert, Certificate)
    assert (cert.p, cert.datum.q, cert.datum.h, cert.d, cert.g) == (8, 1, 3, 2, 4)
    assert cert.poly == DELTA_K2
    assert cert.torsions == (2, 1, 1, 1)
    assert cert.q_square == 1
    assert all(ok for _, ok in cert.checks)


def test_certify_22_3_5():
    cert = certify(22, 3, 5)
    assert cert.poly == DELTA_K6
    assert (cert.d, cert.g) == (2, 11)


def test_certify_trefoil_surgery():
    cert = certify(7, 2, 2)
    assert (cert.d, cert.g) == (0, 1)
    assert cert.poly == TREFOIL


def test_certify_unknot_rows():
    for p in range(2, 101):
        cert = certify(p, 1, 1)
        assert isinstance(cert, Certificate), p
        assert (cert.d, cert.g) == (0, 0)
        assert cert.poly == (1,)


def test_certify_rejections():
    r = certify(9, 2, 4)
    assert isinstance(r, Rejection)
    assert r.stage == "square-test"
    assert r.detail == "2 is not a square mod 9"
    r = certify(12, 3, 5)
    assert r.stage == "coprimality"
    # q a residue but not the square class of h
    assert is_square_mod(1, 7)
    r = certify(7, 1, 2)
    assert r.stage == "square-test"
    assert r.detail == "[h^2]_p = 4 names neither 1 nor its inverse"


def test_certify_symmetry_over_class_reps():
    base = certify(22, 3, 5)
    for h in h_class_set(22, 5):
        for q in (3, 15):  # 15 = 3^{-1} mod 22
            cert = certify(22, q, h)
            assert cert.datum == base.datum, (q, h)
            assert cert.poly == base.poly
            assert cert.reduced == base.reduced
    base = certify(38, 7, 7)
    assert certify(38, 11, 7).datum == base.datum
    assert certify(38, 11, 31).datum == base.datum


def test_certificate_and_rejection_read_p_q_h_alike():
    # a certificate answers (p, q, h) with its canonical datum, a rejection
    # with its input pair
    cert = certify(38, 11, 31)
    assert (cert.p, cert.q, cert.h) == (cert.datum.p, cert.datum.q, cert.datum.h) == (38, 7, 7)
    rejection = certify(9, 2, 4)
    assert (rejection.p, rejection.q, rejection.h) == (9, 2, 4)


def _torsions_fit(cert):
    """a_i = t_{i-1} - 2 t_i + t_{i+1} for i >= 1, and dd1 from the torsions."""
    ts = cert.torsions

    def t(i):
        i = abs(i)
        return ts[i] if i < len(ts) else 0

    padded = cert.poly + (0,)
    return (all(padded[i] == t(i - 1) - 2 * t(i) + t(i + 1) for i in range(1, cert.g + 2))
            and 2 * (t(0) + 2 * sum(ts[1:])) == dd1(cert.poly))


def test_certificate_invariants():
    for p, q, h in [(8, 1, 3), (22, 3, 5), (38, 7, 7), (40, 9, 7), (7, 2, 2)]:
        cert = certify(p, q, h)
        assert _torsions_fit(cert)
        # q is the square of some class representative, up to inversion
        squares = {h0 * h0 % p for h0 in h_class_set(p, cert.datum.h)}
        assert any(canonical_q(p, s) == cert.datum.q for s in squares)


def test_derived_fields_match_the_pipeline_counts():
    # reduced and torsions are derived from poly; the lattice count that the
    # pipeline read and the torsions' second differences check them.  The
    # boundary genus marks exactly the lifts, and lambda matches Dedekind sums.
    certs = enumerate_search(2, 300, "exhaustive").certificates
    lifts = [lift_to_d2(c) for c in certs if c.p % 2]
    assert certs and lifts
    for cert in certs + lifts:
        expected = reduced_coeffs(cert.p, cert.q_square, cert.datum.h).tolist()
        assert cert.reduced == tuple(expected), cert.datum
        assert _torsions_fit(cert), cert.datum
        assert cert.lambda_pq == lambda_dedekind(cert.p, cert.q_square), cert.datum
    assert not any(c.boundary_genus for c in certs)
    assert all(c.boundary_genus for c in lifts)


def test_certificate_stores_the_polynomial_once():
    names = [f.name for f in dataclasses.fields(Certificate)]
    assert names == ["p", "q", "h", "d", "g", "poly"]


def test_incompatible_pairs_never_certify(monkeypatch):
    # running the raw reduction with a lens parameter that is a residue but
    # not the square class of h always fails; justifies the fast rejection.
    for p in range(2, 31):
        for h in range(1, p):
            if gcd(h, p) != 1:
                continue
            compat = {h * h % p, pow(h * h % p, -1, p)}
            for q in range(1, p):
                if gcd(q, p) != 1 or q in compat:
                    continue
                if not is_square_mod(q, p):
                    continue
                monkeypatch.setattr(mod, "square_rep", lambda p, h, q=q: q)
                result = _certify_class(p, h, require_even_d=False)
                assert isinstance(result, Rejection), (p, q, h)


def test_correction_mismatch_names_the_first_failing_i(monkeypatch):
    # incompatible square classes reach the all-i stage; the reported i is
    # the first where d = 2 t~_i + d(L(p,q), Q(i)) - d(L(p,1), i) fails,
    # recomputed here in Fractions with the torsions folded by hand
    seen = 0
    for p in range(2, 31):
        for h in range(1, p):
            if gcd(h, p) != 1:
                continue
            for q in range(1, p):
                if gcd(q, p) != 1 or q in (h * h % p, pow(h * h % p, -1, p)):
                    continue
                monkeypatch.setattr(mod, "square_rep", lambda p, h, q=q: q)
                r = _certify_class(p, h, require_even_d=False)
                if r.stage != "correction-mismatch" or r.detail == "Euler identity fails":
                    continue
                e = reduced_coeffs(p, q, h)
                ts = torsion_from_poly(unreduce(e, genus_from_reduced(e))).tolist()
                tred = [0] * p
                for j in range(1 - len(ts), len(ts)):
                    tred[j % p] += ts[abs(j)]
                c = spin_c_c(h, p)
                fails = [i for i in range(p)
                         if r.derived_d != 2 * tred[i] + d_lens(p, q, (h * i + c) % p)
                         - d_lens_p1(p, i)]
                assert fails and r.detail == f"surgery formula fails at i = {fails[0]}"
                seen += 1
    assert seen >= 10


def test_bounds_check():
    assert bounds_check(4, 2, 8)      # 7 <= 8 < 10
    assert bounds_check(11, 2, 22)    # 21 <= 22 < 528/15
    assert bounds_check(1, 0, 5)      # 1 <= 5 < 8
    assert not bounds_check(4, 2, 10)  # 10 = 4*4*5/8 is not strict
    with pytest.raises(ValueError):
        bounds_check(1, -1, 5)         # g + 2d <= 0
    with pytest.raises(ValueError):
        bounds_check(0, 2, 5)


def test_lift_to_d2_pairs():
    lift = lift_to_d2(certify(7, 2, 2))
    assert (lift.d, lift.g) == (2, 4)
    assert lift.poly == DELTA_K3_D2
    assert lift.boundary_genus

    assert certify(11, 3, 5).poly == DELTA_K4_D0
    assert lift_to_d2(certify(11, 3, 5)).poly == DELTA_K4_D2

    assert certify(13, 3, 4).poly == DELTA_K5_D0
    assert lift_to_d2(certify(13, 3, 4)).poly == DELTA_K5_D2

    for p in (5, 9, 11, 15):
        lifted = lift_to_d2(certify(p, 1, 1))
        assert lifted.poly == delta_k1(p)
        assert lifted.d == 2 and lifted.g == (p + 1) // 2


def test_lift_is_the_degree_shift():
    # the lift reconstructs the same reduced vector at genus (p+1)/2; the
    # degree-shift relation delta_lift is the independent reference
    certs = [c for c in enumerate_search(2, 151).certificates if c.p % 2]
    assert certs
    for cert in certs:
        lift = lift_to_d2(cert)
        assert lift.poly == delta_lift(cert.poly, cert.p), cert.datum
        assert lift.reduced == cert.reduced
        assert lift.d == cert.d + 2
        assert 2 * lift.g - 1 == cert.p
        with pytest.raises(ValueError):
            lift_to_d2(lift)


def test_even_d_flag_is_default():
    # no odd derived d occurs on certified data; the flag only opens the gate
    cert = certify(22, 3, 5, require_even_d=False)
    assert isinstance(cert, Certificate)
    assert cert.datum == certify(22, 3, 5).datum


def test_json_roundtrip():
    cert = certify(38, 7, 7)
    doc = certificate_to_json(cert)
    assert doc["p"] == 38 and doc["q"] == 7 and doc["q_square"] == 11
    back = certificate_from_json(doc)
    assert back == cert


def test_certificate_from_json_rejects_a_short_reduced_vector():
    doc = certificate_to_json(certify(38, 7, 7))
    doc["reduced"] = doc["reduced"][:-1]
    with pytest.raises(ValueError, match="modulus"):
        certificate_from_json(doc)


@pytest.mark.parametrize("coefficients", [
    [],             # empty
    [-1, 1, 0],     # zero top coefficient
    [-1.0, 1],      # float entry
    [-1, "1"],      # string entry
])
def test_certificate_from_json_rejects_a_malformed_polynomial(coefficients):
    doc = certificate_to_json(certify(7, 2, 2))
    assert doc["coefficients"] == [-1, 1]
    doc["coefficients"] = coefficients
    with pytest.raises(ValueError):
        certificate_from_json(doc)


@pytest.mark.parametrize("field,value", [
    ("reduced", lambda r: [float(r[0])] + r[1:]),      # float entry
    ("reduced", lambda r: [str(r[0])] + r[1:]),        # string entry
    ("reduced", lambda r: [r[0] == 1] + r[1:]),        # bool entry
    ("torsions", lambda t: t[:-1] + [float(t[-1])]),   # float entry
    ("torsions", lambda t: t[:-1] + [True]),           # bool entry
    ("torsions", lambda t: t[:-1]),                    # g - 1 entries
    ("torsions", lambda t: t + [0]),                   # g + 1 entries
])
def test_certificate_from_json_rejects_malformed_vectors(field, value):
    doc = certificate_to_json(certify(38, 7, 7))
    assert certificate_from_json(doc) == certify(38, 7, 7)
    doc[field] = value(doc[field])
    with pytest.raises(ValueError):
        certificate_from_json(doc)


def _moved(entries, i, delta):
    return entries[:i] + [entries[i] + delta] + entries[i + 1:]


def _another_polynomial(doc):
    """A different alternating polynomial of the same genus, with the reduced
    vector and torsions that it gives."""
    poly = (1,) + (0,) * (doc["g"] - 2) + (-1, 1)
    assert poly != tuple(doc["coefficients"]) and os_form_check(poly)
    return doc | {"coefficients": list(poly), "reduced": reduce_poly(poly, doc["p"]).tolist(),
                  "torsions": torsion_from_poly(poly).tolist()}


@pytest.mark.parametrize("forge", [
    # the same sum, but no longer the polynomial's reduction
    pytest.param(lambda d: d | {"reduced": _moved(_moved(d["reduced"], 1, 1), 2, -1)},
                 id="reduced"),
    pytest.param(lambda d: d | {"torsions": _moved(d["torsions"], 0, 1)}, id="torsion"),
    pytest.param(lambda d: d | {"q_square": d["q_square"] + 1}, id="q_square"),
    pytest.param(lambda d: d | {"checks": [{**d["checks"][0], "pass": False}, *d["checks"][1:]]},
                 id="check"),
    pytest.param(lambda d: d | {"g": d["g"] - 1, "torsions": d["torsions"][:-1]}, id="genus"),
    pytest.param(lambda d: d | {"p": 0}, id="p-zero"),
    pytest.param(lambda d: d | {"p": 2**19}, id="p-int64-bound"),
    pytest.param(lambda d: d | {"p": "38"}, id="p-string"),
    pytest.param(lambda d: d | {"coefficients": [2**70, *d["coefficients"][1:]]},
                 id="coefficient"),
    # consistent with the polynomial, but not what the pipeline derives
    pytest.param(lambda d: d | {"d": d["d"] + 2}, id="d-plus-2"),
    pytest.param(lambda d: d | {"d": d["d"] - 2}, id="d-minus-2"),
    pytest.param(lambda d: d | {"lambda_pq": [1, 3]}, id="lambda-value"),
    pytest.param(lambda d: d | {"q": 3}, id="q-not-the-square-class"),
    pytest.param(_another_polynomial, id="another-alternating-polynomial"),
    pytest.param(lambda d: d | {"boundary_genus": True}, id="lift-at-even-p"),
    # malformed: each of these once escaped as another exception type
    pytest.param(lambda d: d | {"lambda_pq": [1, 0]}, id="lambda-zero-denominator"),
    pytest.param(lambda d: d | {"lambda_pq": [1.5, 2]}, id="lambda-float"),
    pytest.param(lambda d: list(d.items()), id="list-document"),
    pytest.param(lambda d: {k: v for k, v in d.items() if k != "p"}, id="missing-p"),
    pytest.param(lambda d: {k: v for k, v in d.items() if k != "boundary_genus"},
                 id="missing-boundary-genus"),
    pytest.param(lambda d: d | {"torsions": set(d["torsions"])}, id="set-entry"),
])
def test_certificate_from_json_rejects_an_inconsistent_document(forge):
    doc = certificate_to_json(certify(38, 7, 7))
    with pytest.raises(ValueError):
        certificate_from_json(forge(doc))


@pytest.mark.parametrize("path", sorted(GOLDEN_CERTS.glob("*.json")), ids=lambda p: p.name)
def test_golden_certificates_read_back_byte_for_byte(path):
    text = path.read_text()
    cert = certificate_from_json(json.loads(text))
    assert json.dumps(certificate_to_json(cert), sort_keys=True) + "\n" == text


def test_os_form_of_every_certificate():
    for p, q, h in [(8, 1, 3), (22, 3, 5), (38, 7, 7), (7, 2, 2)]:
        cert = certify(p, q, h)
        assert os_form_check(cert.poly) is not None


@pytest.mark.parametrize("argv", [
    (22, 3, 5),
    (1993, 408, 49),
    (2001, 721, 82),
    (1993, 312, 312),   # d = 0
])
def test_certify_json_golden(argv, capsys):
    assert main(["certify", *map(str, argv), "--json"]) == 0
    golden = GOLDEN_CERTS / f"certify_{'_'.join(map(str, argv))}.json"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("argv", [
    ("certify", 8, 1, 3),
    ("certify", 4, 1, 1),       # the constant polynomial 1
    ("alex", 22, 3, 5),
    ("certify", 1993, 312, 312),
])
def test_cli_text_golden(argv, capsys):
    assert main(list(map(str, argv))) == 0
    golden = GOLDEN_CERTS / f"{'_'.join(map(str, argv))}.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_lift_to_d2_json_golden():
    lift = lift_to_d2(certify(1993, 312, 312))
    text = json.dumps(certificate_to_json(lift), sort_keys=True) + "\n"
    assert text == (GOLDEN_CERTS / "lift_1993_312_312.json").read_text()


def _plain(x):
    """Python ints, bools and strs, Fractions of ints, and tuples or dataclasses
    of them; a certificate's derived fields are walked as well."""
    if dataclasses.is_dataclass(x):
        derived = ("q_square", "reduced", "torsions", "checks", "lambda_pq", "lambda_p1",
                   "boundary_genus") if isinstance(x, Certificate) else ()
        names = [f.name for f in dataclasses.fields(x)] + list(derived)
        return all(_plain(getattr(x, name)) for name in names)
    if isinstance(x, tuple):
        return all(_plain(y) for y in x)
    if type(x) is Fraction:
        return type(x.numerator) is int and type(x.denominator) is int
    return type(x) in (int, bool, str, type(None))


def test_no_numpy_scalars_leak(monkeypatch):
    rep = enumerate_search(2, 150, "exhaustive")
    lifts = [lift_to_d2(c) for c in rep.certificates if c.p % 2]
    # the search meets no bound violation (d stays in {0, 2}); shifting every
    # lens-space term N by 4p*k shifts the derived d by k and leaves the
    # formula at all i intact, so the data of genus >= 1 reach that stage
    bound_violations = []
    for k in (-40, 40):
        monkeypatch.setattr(mod, "d_vector", lambda p, q, k=k: d_vector(p, q) + 4 * p * k)
        for cert in rep.certificates:
            if cert.g >= 1:
                bound_violations.append(_certify_class(cert.p, cert.datum.h,
                                                       require_even_d=False))
    assert rep.certificates and lifts and bound_violations
    assert {r.stage for r in bound_violations} == {"bound-violation"}
    assert {r.detail.startswith("g + 2d") for r in bound_violations} == {True, False}
    for obj in rep.certificates + lifts + bound_violations:
        assert _plain(obj), obj
    monkeypatch.undo()   # the JSON reader re-runs the pipeline on the true terms
    for cert in rep.certificates + lifts:
        assert type(cert.d) is int and type(cert.g) is int
        text = json.dumps(certificate_to_json(cert))   # no default= needed
        assert certificate_from_json(json.loads(text)) == cert
    for r in bound_violations:
        assert type(r.derived_d) is int
    counts = list(rep.rejections.values()) + list(rep.d_histogram.items())
    assert _plain(tuple(counts)) and type(rep.trivial_pairs) is int
