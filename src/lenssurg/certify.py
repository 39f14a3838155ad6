"""Certification pipeline for lens-surgery data (p, q, h).

Given a slope p, lens parameter q and dual-knot class h, the pipeline
derives the correction term d of the source homology sphere that the
surgery formula forces, validates every obstruction (quadratic-residue
test, alternating form of the Alexander polynomial, torsion positivity,
integrality and evenness of d, the surgery formula at every Spin^c
structure, the genus-slope bounds, and the Euler identity), and emits
either a Certificate with a full audit trail or a typed Rejection.

Internal convention: the reduced-coefficient formula and the correction
terms are evaluated with the square representative q* = [h^2]_p.  The
input q must agree with q* up to the q <-> q^{-1} homeomorphism; the
stored datum carries the canonical (minimal) q and h.

The surgery formula d = 2 t~_i + d(L(p,q*), Q(i)) - d(L(p,1), i) is checked
scaled by 4p, in integers: with N = 4p * d(L(p,q*), .) from dinv.d_vector,
4p * d(L(p,1), i) = (2i - p)^2 - p and D = 4p * d,

    D - N[Q(i)] + (2i - p)^2 - p == 8p * t~_i    for every i in Z/p.

_forced_d solves that identity for D at every i, in one int64 vector:
D_i = 8p * t~_i + N[Q(i)] - (2i - p)^2 + p is 4p times the d forced at i.
D_0 is the derived d (scaled by 4p), and the formula holds at all i exactly
when every D_i equals D_0.  In a search, the reduce stage reads the
coverage depth that search._screen built; certify builds it.  The stages
run on the int64 arrays of the alex module (reduced vector, coefficients,
torsions and their class sums); the bound arith.INT64_P_BOUND keeps them
exact.  A certificate is the datum and the coefficients a_0..a_g of the
polynomial (Python ints); everything else it reports is derived from them
when read.  _certify_class alone builds one, and certificate_from_json
reads a document back by re-running the pipeline on its (p, q, h).
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .alex import (
    UnreduceError,
    dd1,
    genus_from_reduced,
    os_form_check,  # not called here; perfbench/spans.py wraps this binding
    reduce_poly,
    reduced_coeffs,
    reduced_torsions,
    torsion_from_poly,
    unreduce,
)
from .arith import INT64_P_BOUND, is_square_mod, mod_inverse
from .casson import euler_check, lambda_rustamov
from .dinv import d_vector, spin_c_labels

__all__ = [
    "SurgeryDatum",
    "Certificate",
    "Rejection",
    "REJECTION_STAGES",
    "canonical_q",
    "h_class_set",
    "canonical_h",
    "square_rep",
    "bounds_check",
    "certify",
    "lift_to_d2",
    "certificate_to_json",
    "certificate_from_json",
]

REJECTION_STAGES = (
    "coprimality",
    "square-test",
    "os-form",
    "negative-torsion",
    "non-integral-d",
    "odd-d",
    "correction-mismatch",
    "bound-violation",
)


@dataclass(frozen=True)
class SurgeryDatum:
    p: int
    q: int          # canonical: min([q]_p, [q^{-1}]_p)
    h: int          # canonical: minimal element of {+-h^{+-1}} in [1, p)
    d: int
    g: int


@dataclass(frozen=True)
class Certificate(SurgeryDatum):
    """A certified datum and its polynomial; every other reported fact is
    derived from these fields when it is read."""
    poly: tuple                     # a_0 .. a_g

    @property
    def datum(self):
        """The certified datum alone, without the polynomial."""
        return SurgeryDatum(self.p, self.q, self.h, self.d, self.g)

    @property
    def q_square(self):
        """The representative [h^2]_p of the lens parameter."""
        return square_rep(self.p, self.h)

    @property
    def reduced(self):
        """a~_0 .. a~_{p-1}: the coefficients summed over residue classes mod p."""
        return tuple(reduce_poly(self.poly, self.p).tolist())

    @property
    def torsions(self):
        """Turaev torsions t_0 .. t_{g-1} of the polynomial."""
        return tuple(torsion_from_poly(self.poly).tolist())

    @property
    def lambda_pq(self):
        """Casson-Walker lambda(L(p, [h^2]_p))."""
        return lambda_rustamov(self.p, self.q_square)

    @property
    def lambda_p1(self):
        """Casson-Walker lambda(L(p, 1))."""
        return lambda_rustamov(self.p, 1)

    @property
    def boundary_genus(self):
        """2g - 1 = p: only lift_to_d2 gives it, since certify keeps g <= p // 2."""
        return 2 * self.g - 1 == self.p

    @property
    def checks(self):
        """((name, passed), ...) in pipeline order; a lift checks the bounds last."""
        last = (("euler", "bounds", "lifted-by-degree-shift") if self.boundary_genus
                else ("bounds", "euler"))
        return (("square-test", True), ("os-form", True), ("torsion-positivity", True),
                ("d-integral", True), ("d-even", self.d % 2 == 0),
                ("correction-all-i", True), *((name, True) for name in last))


@dataclass(frozen=True)
class Rejection:
    p: int
    q: int
    h: int
    stage: str
    detail: str = ""
    derived_d: object = None        # set when the pipeline got far enough

    def __post_init__(self):
        if self.stage not in REJECTION_STAGES:
            raise ValueError(f"unknown rejection stage {self.stage!r}")


def canonical_q(p: int, q: int) -> int:
    """min([q]_p, [q^{-1}]_p); the two describe homeomorphic lens spaces."""
    q = q % p
    return min(q, mod_inverse(q, p))


def h_class_set(p: int, h: int) -> set:
    """{[h], [-h], [h^{-1}], [-h^{-1}]} as integers in {1, ..., p-1}."""
    h = h % p
    hp = mod_inverse(h, p)
    return {h, p - h, hp, p - hp}


def canonical_h(p: int, h: int) -> int:
    """Minimal representative of the class set {+-h^{+-1}} in [1, p)."""
    return min(h_class_set(p, h))


def square_rep(p: int, h: int) -> int:
    """The lens parameter [h^2]_p forced by the dual class h."""
    return (h * h) % p


def _reconstruct(p: int, h: int, g=None, screened=None):
    """Stages reduce and unreduce: (genus, coefficients a_0..a_g).

    The reduce stage counts the windows of h, or reads the depth of the
    orbit member hs in screened = (hs, depth) from search._screen: the
    reduced vector is an orbit invariant.  The genus is read off the reduced
    vector when g is None.  Raises UnreduceError when the vector admits no
    alternating polynomial; unreduce tests its symmetry, which the vector of
    q = [h^2]_p always has.
    """
    hs, depth = screened or (h, None)
    e = reduced_coeffs(p, square_rep(p, hs), hs, depth=depth)
    if abs(int(e[0])) != 1:
        raise UnreduceError("reduced coefficients cannot reduce an alternating polynomial")
    if g is None:
        g = genus_from_reduced(e)
    return g, unreduce(e, g)


def _forced_d(p: int, h: int, tred: np.ndarray) -> np.ndarray:
    """D_i = 8p * t~_i + N[Q(i)] - (2i - p)^2 + p for every i in Z/p, as int64.

    D_i is 4p times the d that the surgery formula forces at i.  The scaled
    terms N are those of L(p, [h^2]_p), read at the labels Q(i) = [h*i + c]_p
    of dinv.spin_c_labels.
    """
    n = d_vector(p, square_rep(p, h))[spin_c_labels(h, p, p)]
    return 8 * p * tred + n - np.arange(-p, p, 2, dtype=np.int64) ** 2 + p


def bounds_check(g: int, d: int, p: int) -> bool:
    """2g - 1 <= p and p < 4g(g+1)/(g+2d), compared exactly in integers.

    Requires g >= 1 and g + 2d > 0 (so the second bound may be multiplied
    out); a violation of the latter is reported separately by the pipeline.
    """
    if g < 1:
        raise ValueError("bounds apply to nontrivial knots (g >= 1)")
    if g + 2 * d <= 0:
        raise ValueError("g + 2d must be positive")
    return 2 * g - 1 <= p and p * (g + 2 * d) < 4 * g * (g + 1)


def certify(p: int, q: int, h: int, require_even_d: bool = True):
    """Run the full obstruction pipeline; Certificate or first-stage Rejection."""
    if p < 2:
        raise ValueError("slope p must be at least 2")
    q = q % p
    h = h % p
    if gcd(p, q) != 1 or gcd(p, h) != 1:
        return Rejection(p, q, h, "coprimality", f"gcd with {p} is not 1")
    # a compatible q is h^{+-2}, a square; the scan only picks the detail
    if canonical_q(p, q) != canonical_q(p, square_rep(p, h)):
        if not is_square_mod(q, p):
            return Rejection(p, q, h, "square-test", f"{q} is not a square mod {p}")
        return Rejection(
            p, q, h, "square-test",
            f"[h^2]_p = {square_rep(p, h)} names neither {q} nor its inverse",
        )
    # Work with the canonical class representative so that all four
    # equivalent h inputs produce an identical certificate; q is [h^2]_p or
    # its inverse, so it has the canonical form of the square class.
    return _certify_class(p, canonical_h(p, h), require_even_d=require_even_d)


def _certify_class(p, h, require_even_d=True, g=None, screened=None):
    """Pipeline body for a dual class h, with q* = [h^2]_p.

    The reduced vector is reconstructed at genus g, read off the vector when
    g is None.  For odd p a vector can have a second reconstruction, at
    g = (p+1)/2; lift_to_d2 asks for that one.  Only the search passes
    screened, its screen's result for h.
    """
    q_canon = canonical_q(p, square_rep(p, h))
    h_canon = canonical_h(p, h)

    try:
        g, coeffs = _reconstruct(p, h, g, screened)   # unreduce checks the alternating form
    except UnreduceError as err:
        return Rejection(p, q_canon, h_canon, "os-form", str(err))

    torsions = torsion_from_poly(coeffs)
    if np.count_nonzero(torsions < 0):
        return Rejection(p, q_canon, h_canon, "negative-torsion",
                         f"t = {tuple(torsions.tolist())}")

    forced = _forced_d(p, h, reduced_torsions(torsions, p))
    scaled_d = int(forced[0])
    d, rem = divmod(scaled_d, 4 * p)
    if rem:
        d_frac = Fraction(scaled_d, 4 * p)
        return Rejection(p, q_canon, h_canon, "non-integral-d",
                         f"derived d = {d_frac}", derived_d=d_frac)
    if require_even_d and d % 2 != 0:
        return Rejection(p, q_canon, h_canon, "odd-d",
                         f"derived d = {d}", derived_d=d)

    bad = (forced != scaled_d).nonzero()[0]
    if bad.size:
        return Rejection(p, q_canon, h_canon, "correction-mismatch",
                         f"surgery formula fails at i = {bad[0]}", derived_d=d)

    if g >= 1:
        if g + 2 * d <= 0:
            return Rejection(p, q_canon, h_canon, "bound-violation",
                             f"g + 2d = {g + 2 * d} <= 0", derived_d=d)
        if not bounds_check(g, d, p):
            return Rejection(p, q_canon, h_canon, "bound-violation",
                             f"(g, d, p) = ({g}, {d}, {p})", derived_d=d)

    cert = Certificate(p, q_canon, h_canon, d, g, tuple(coeffs.tolist()))
    if not euler_check(p, d, cert.lambda_pq, cert.lambda_p1, dd1(coeffs)):
        # implied by the per-i surgery formula; kept as an independent guard
        return Rejection(p, q_canon, h_canon, "correction-mismatch",
                         "Euler identity fails", derived_d=d)
    return cert


def lift_to_d2(cert: Certificate) -> Certificate:
    """Partner certificate with d raised by 2: the second reconstruction.

    For odd p the degree-shift relation gives a polynomial of genus (p+1)/2,
    so 2g - 1 = p exactly, with the same reduction mod p as cert.poly.  The
    lift runs the whole pipeline on the same reduced vector at that genus.
    Raises ValueError for even p, for a rejection at any stage, and when the
    reconstruction does not raise d by 2 (cert is already at that genus).
    """
    p = cert.p
    if p % 2 == 0:
        raise ValueError("degree-shift lift needs odd p")
    lift = _certify_class(p, cert.h, require_even_d=False, g=(p + 1) // 2)
    if isinstance(lift, Rejection):
        raise ValueError(f"lift rejected at stage {lift.stage} ({lift.detail})")
    if lift.d != cert.d + 2:
        raise ValueError(f"lift has d = {lift.d}, not d + 2 = {cert.d + 2}")
    return lift


def certificate_to_json(cert: Certificate) -> dict:
    """Stable dict form: ints, lists and num/den pairs only."""
    return {
        "p": cert.p,
        "q": cert.q,
        "h": cert.h,
        "d": cert.d,
        "g": cert.g,
        "q_square": cert.q_square,
        "coefficients": list(cert.poly),
        "reduced": list(cert.reduced),
        "torsions": list(cert.torsions),
        "lambda_pq": [cert.lambda_pq.numerator, cert.lambda_pq.denominator],
        "lambda_p1": [cert.lambda_p1.numerator, cert.lambda_p1.denominator],
        "checks": [{"name": name, "pass": bool(ok)} for name, ok in cert.checks],
        "boundary_genus": cert.boundary_genus,
    }


def certificate_from_json(doc: dict) -> Certificate:
    """Inverse of certificate_to_json: re-runs the pipeline on p, q and h
    (ints, p in [2, 2**19)), as certify with odd d allowed, then lift_to_d2
    when boundary_genus is true.  ValueError unless the document is exactly
    that certificate's JSON form."""
    try:
        p, q, h, lift = doc["p"], doc["q"], doc["h"], doc["boundary_genus"] is True
        text = json.dumps(doc, sort_keys=True)
    except (KeyError, TypeError) as err:
        raise ValueError(f"not a certificate document ({err!r})") from err
    if not (all(type(x) is int for x in (p, q, h)) and 2 <= p < INT64_P_BOUND):
        raise ValueError("p, q and h must be integers, with p in [2, 2**19)")
    cert = certify(p, q, h, require_even_d=False)
    if isinstance(cert, Rejection):
        raise ValueError(f"({p}, {q}, {h}) is rejected at stage {cert.stage}")
    if lift:
        cert = lift_to_d2(cert)
    if json.dumps(certificate_to_json(cert), sort_keys=True) != text:
        raise ValueError("the document disagrees with the certificate that the "
                         "pipeline derives from its modulus, q and h")
    return cert
