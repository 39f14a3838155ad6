"""Enumeration engine over slopes p: tables, families, nonexistence search.

For each slope p the candidate space is the set of dual-class orbits
H = {+-h^{+-1}} with a nontrivial minimal representative; the lens
parameter is forced to the square q = [h^2]_p.  Exhaustive mode accounts
for all phi(p)^2 coprime pairs (q, h): each class stands for orbit * qmult
pairs, the trivial pairs (1, +-1) are counted apart, and the other
phi(p)^2 - class pairs - trivial pairs fail the quadratic-residue stage.

A slope's classes are enumerated as one numpy array, and each is screened
on alex.coverage_depth: the reduced coefficients -m + Phi^k can only support
an alternating polynomial if every value lies in [-1, 2] and, when the
genus g read off the vector has 2g < p (no index collisions), the entries
a~_g .. a~_0 already alternate.  More than half of
the candidates at p ~ 1000 and above fail on one count taken before the
length-p depth is built: Phi^0, the number of window starts at most h, must
lie in [m, m + 2] (proof in _phi0_batches).  That count is taken for many
classes at once: their window starts are concatenated in batches of at most
_BATCH entries, one np.add.reduceat per batch counts them, and only the
classes that pass go on, one by one, to the rest of the screen.  Survivors
of the screen go through the full exact certification pipeline, which reads
the screen's depth in place of counting the windows again, so each
candidate's window starts and depth are built once.  The screen is validated
against the plain pipeline on small slopes in the test suite.
"""

import warnings
from collections import Counter
from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

from .alex import coverage_depth, is_alternating, reduced_from_depth, window_starts
from .arith import check_int64_bound
from .certify import Certificate, _certify_class, canonical_q, certify, h_class_set

__all__ = [
    "SearchReport",
    "FamilySpec",
    "FamilyInstance",
    "FAMILY_SPECS",
    "SPORADIC_FAMILY",
    "enumerate_search",
    "families",
    "family_slope_max",
    "conjecture_check",
    "plotdata",
    "report_csv",
    "plotdata_csv",
    "report_json",
]


@dataclass
class SearchReport:
    p_min: int
    p_max: int
    mode: str
    certificates: list = field(default_factory=list)
    rejections: Counter = field(default_factory=Counter)
    d_histogram: Counter = field(default_factory=Counter)
    trivial_pairs: int = 0

    def certs_with_d(self, d):
        return [c for c in self.certificates if c.d == d]


# At most this many window starts go in one batch of _phi0_batches (a class
# with more goes alone): its int64 arrays then take 64 KB, below glibc's
# default mmap threshold of 128 KB, so each batch is heap memory that its
# in-place passes reuse while it stays in cache.  A whole slope near
# p = 2000 holds about 170,000 starts, which do not.
_BATCH = 1 << 13


def _class_reps(p):
    """Minimal representatives of nontrivial dual-class orbits, with weights.

    An int64 array with one row (h, hp, orbit_size, q_multiplicity) per
    class: h runs over the class minima in [2, p/2] and hp is its inverse.
    A minimum is at most every member, so h <= hp: the search screens each
    class with the member hp, whose inverse h is the smallest, so that it
    has the fewest window starts, [qj]_p for j in [1, h] with q = [hp^2]_p.
    The inverse is h^(phi(p) - 1) mod p, by square-and-multiply on the
    array of units h in [2, p/2]: for p > 2 the units of [1, p) pair off as
    x and p - x, so phi(p) = 2(1 + #units), and every product stays below
    p^2 < 2^38 (p < arith.INT64_P_BOUND, which enumerate_search checks).
    h < p/2 for a unit h >= 2, so h != p - h and hp != p - hp:
    the orbit {h, p - h, hp, p - hp} has 2 members when hp is h or p - h,
    and 4 otherwise.
    """
    h = np.arange(2, p // 2 + 1, dtype=np.int64)
    h = h[np.gcd(h, p) == 1]
    hp, power, e = np.ones_like(h), h.copy(), 2 * len(h) + 1   # e = phi(p) - 1
    while e:
        if e & 1:
            hp *= power
            hp %= p
        power *= power
        power %= p
        e >>= 1
    minimal = (h <= hp) & (h <= p - hp)
    h, hp = h[minimal], hp[minimal]
    orbit = np.where((hp == h) | (hp == p - h), 2, 4)
    qmult = np.where(h * h % p == hp * hp % p, 1, 2)
    return np.stack((h, hp, orbit, qmult), axis=1)


def _phi0_batches(p, reps):
    """The Phi^0 test of every class in reps (rows of _class_reps(p)).

    Each class is counted with the member hp (see _class_reps; the reduced
    coefficient vector is an orbit invariant, and q = [hp^2]_p moves with
    the member).  The classes go in order, in batches of at most _BATCH
    starts, a class with more alone.  Yields per batch the slice of reps it
    covers, the starts of its classes one after another (window_starts),
    the index of each class's first start, and whether each class passes.

    Phi^0 is the number of starts in [1, hp], that is, at most hp.  The
    window of k = p - 1 is [p, p - 1 + hp], read cyclically {0} and
    [1, hp - 1]: it gains 0, which no start is, and loses hp, which exactly
    one start is (the starts are distinct, and [q*h]_p = hp since
    hp*h = 1 mod p).  So Phi^{p-1} = Phi^0 - 1, both lie in [m - 1, m + 2]
    only if m <= Phi^0 <= m + 2, and a class failing that is rejected, as
    _screen's full range test would reject it, before its length-p depth
    is built.
    """
    h, hp = reps[:, 0], reps[:, 1]
    m = (h * hp - 1) // p
    q = hp * hp % p
    ends = np.add.accumulate(h)
    lo = 0
    while lo < len(h):
        before = ends[lo] - h[lo]   # starts of the classes before the batch
        hi = max(int(np.searchsorted(ends, before + _BATCH, "right")), lo + 1)
        batch = slice(lo, hi)
        starts = window_starts(p, q[batch], h[batch])
        first = ends[batch] - h[batch] - before
        phi0 = np.add.reduceat(starts <= np.repeat(hp[batch], h[batch]), first)
        yield batch, starts, first, (m[batch] <= phi0) & (phi0 <= m[batch] + 2)
        lo = hi


def _screen(p, h, hp, starts):
    """Necessary condition for the os-form stage of the pipeline, for a class
    that passed the Phi^0 test of _phi0_batches.

    h is the orbit member the class was counted with, hp its inverse and
    starts its window starts.  All reduced coefficients lie in [-1, 2], and
    when 2g < p the nonzero a~_g .. a~_0 read +1, -1, +1, ... (unreduce
    reads them back as the polynomial); collision genera 2g >= p are left to
    the pipeline.  The pipeline's first os-form test, |a~_0| = 1, is not
    repeated: at 2g < p is_alternating implies it (a~_0 != 0, every nonzero
    entry +-1), and at 2g >= p _certify_class runs it, rejecting at the same
    stage with the same weight.  The genus read finds an entry: the vector
    of [h^2]_p is symmetric and sums to 1, so a~_0 .. a~_{p/2} are not all 0.

    Returns None for a rejected class, and for a passing one the tuple
    (h, depth) of the member and its coverage_depth, which _certify_class
    reads in place of counting again.  A tuple, not the bare array, so that
    the result is true exactly when the class passes.
    """
    m = (h * hp - 1) // p
    depth = coverage_depth(p, h, starts)
    if not (m - 1 <= np.minimum.reduce(depth) and np.maximum.reduce(depth) <= m + 2):
        return None
    e = reduced_from_depth(depth, h, hp, p // 2 + 1)   # a~_0 .. a~_{p/2}
    g = int(e.nonzero()[0][-1])
    return (h, depth) if 2 * g >= p or is_alternating(e) else None


def _search_one_p(p, mode):
    """Process all candidates at a single slope; returns partial report data."""
    certs = []
    rejections = Counter()
    d_hist = Counter()
    reps = _class_reps(p)
    pairs = reps[:, 2] * reps[:, 3]
    weights = pairs if mode == "exhaustive" else np.ones_like(pairs)

    for batch, starts, first, alive in _phi0_batches(p, reps):
        dead = int(np.add.reduce(weights[batch][~alive]))
        if dead:   # a zero count would add a key to the report
            rejections["os-form"] += dead
        for (h, hp, _, _), weight, i in zip(reps[batch][alive].tolist(),
                                             weights[batch][alive].tolist(),
                                             first[alive].tolist()):
            screened = _screen(p, hp, h, starts[i:i + h])
            if screened is None:
                rejections["os-form"] += weight
                continue
            result = _certify_class(p, h, require_even_d=False, screened=screened)
            if isinstance(result, Certificate):
                certs.append(result)
                d_hist[result.d] += 1
            else:
                rejections[result.stage] += weight
                if result.derived_d is not None and result.stage == "bound-violation":
                    d_hist[result.derived_d] += 1

    trivial = 0
    if mode == "exhaustive":
        trivial = 2 if p > 2 else 1  # pairs (1, 1) and (1, p-1)
        phi = trivial + int(np.add.reduce(reps[:, 2]))   # units: {1, p-1} and the orbits
        rejections["square-test"] += phi * phi - int(np.add.reduce(pairs)) - trivial

    return certs, rejections, d_hist, trivial


def enumerate_search(p_min: int, p_max: int, mode: str = "square",
                     threads: int = 1) -> SearchReport:
    """Search all slopes in [p_min, p_max] on `threads` processes; the same for any count."""
    if mode not in ("square", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 2 <= p_min <= p_max:
        raise ValueError(f"bad range [{p_min}, {p_max}]")
    check_int64_bound(p_max)
    report = SearchReport(p_min=p_min, p_max=p_max, mode=mode)
    results = _map_over_p(range(p_min, p_max + 1), mode, threads)
    for certs, rejections, d_hist, trivial in results:
        certs.sort(key=lambda c: (c.p, c.q, c.h))
        report.certificates.extend(certs)
        report.rejections.update(rejections)
        report.d_histogram.update(d_hist)
        report.trivial_pairs += trivial
    return report


def _child(conn, ps, mode):
    try:
        conn.send((True, [_search_one_p(p, mode) for p in ps]))
    except Exception as err:
        from multiprocessing.pool import ExceptionWithTraceback
        conn.send((False, ExceptionWithTraceback(err, err.__traceback__)))


def _map_over_p(ps, mode, threads):
    """_search_one_p of each slope in ps, in order.  Of n = min(threads, len(ps)) shares,
    dealt 0, 1, .., n-1, n-1, .., 0 so each has both parities, this process searches share 0
    and any whose forked child fails to start (warned); a child's error is re-raised here."""
    n = max(1, min(threads, len(ps)))
    shares = [[*ps[i::2 * n], *ps[2 * n - 1 - i::2 * n]] for i in range(n)]
    results, children = {}, []
    try:
        try:
            for share in shares[1:]:   # none at n = 1: no multiprocessing import, no fork
                from multiprocessing import Pipe, get_context
                conn, send = Pipe(duplex=False)
                child = get_context("fork").Process(target=_child, args=(send, share, mode))
                child.start()
                send.close()
                children.append((share, conn, child))
        except (OSError, ValueError) as e:
            warnings.warn(f"cannot fork ({e!r}); searching here", RuntimeWarning, stacklevel=3)
        for share in shares[:1] + shares[1 + len(children):]:
            results.update((p, _search_one_p(p, mode)) for p in share)
        for share, conn, child in children:
            ok, out = conn.recv()
            if not ok:
                raise out
            results.update(zip(share, out))
    finally:
        for _, conn, child in children:
            child.terminate()   # a child that has sent its share has nothing left to do
            child.join()
            conn.close()
    return [results[p] for p in ps]


# -- parametric families ----------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    label: str
    p_poly: tuple      # (a, b, c) -> p(l) = a*l^2 + b*l + c, with a > 0
    h_poly: tuple      # (u, v)    -> h(l) = u*l + v
    genus: tuple       # (s, t)    -> 2g = p + 1 - |s*l + t|

    def slope(self, ell):
        a, b, c = self.p_poly
        return (a * ell + b) * ell + c


FAMILY_SPECS = (
    FamilySpec("a", (14, 7, 1), (7, 2), (1, 0)),
    FamilySpec("b", (20, 15, 3), (5, 2), (1, 0)),
    FamilySpec("c", (30, 9, 1), (6, 1), (1, 0)),
    FamilySpec("d", (42, 23, 3), (7, 2), (1, 0)),
    FamilySpec("d'", (42, 47, 13), (7, 4), (1, 0)),
    FamilySpec("e", (52, 15, 1), (13, 2), (1, 0)),
    FamilySpec("e'", (52, 63, 19), (13, 8), (1, 0)),
    FamilySpec("f", (54, 15, 1), (27, 4), (1, 0)),
    FamilySpec("f'", (54, 39, 7), (27, 10), (1, 0)),
    FamilySpec("g", (69, 17, 1), (23, 3), (2, 0)),
    FamilySpec("g'", (69, 29, 3), (23, 5), (2, 0)),
    FamilySpec("h", (85, 19, 1), (17, 2), (2, 0)),
    FamilySpec("h'", (85, 49, 7), (17, 5), (2, 0)),
    FamilySpec("i", (99, 35, 3), (11, 2), (2, 0)),
    FamilySpec("i'", (99, 53, 7), (11, 3), (2, 0)),
    FamilySpec("j", (120, 16, 1), (12, 1), (2, 0)),
    FamilySpec("k", (120, 20, 1), (20, 2), (2, 0)),
    FamilySpec("l", (120, 36, 3), (12, 2), (2, 0)),
    FamilySpec("m", (120, 104, 22), (12, 5), (2, 1)),
)

SPORADIC_FAMILY = ("n", 191, 34, 15, 95)  # label, p, q, h, g


def family_slope_max(l_min: int, l_max: int) -> int:
    """The largest p(l) over l_min <= l <= l_max: each p(l) has a > 0, so peaks at an end."""
    return max(spec.slope(ell) for spec in FAMILY_SPECS for ell in (l_min, l_max))


@dataclass(frozen=True)
class FamilyInstance:
    label: str
    ell: object          # int, or None for the sporadic entry
    result: object       # Certificate or Rejection
    ok: bool             # certified, with the family's genus rule


def families(l_min: int, l_max: int) -> list:
    """Instantiate every family at every nonzero l in [l_min, l_max].

    Each instance is canonicalized and certified; the certified genus is
    compared against the family's genus rule.  The largest slope is checked
    against the int64 bound before anything is certified.  The sporadic
    entry is always included.  Output is sorted by (p, q, h, label).
    """
    if l_min <= l_max:
        check_int64_bound(family_slope_max(l_min, l_max))
    out = []
    for spec in FAMILY_SPECS:
        (u, v), (s, t) = spec.h_poly, spec.genus
        for ell in filter(None, range(l_min, l_max + 1)):   # every l != 0
            p = spec.slope(ell)
            h = u * ell + v
            result = certify(p, h * h, h)
            ok = (isinstance(result, Certificate)
                  and 2 * result.g == p + 1 - abs(s * ell + t))
            out.append(FamilyInstance(spec.label, ell, result, ok))
    label, p, q, h, g = SPORADIC_FAMILY
    result = certify(p, q, h)
    ok = isinstance(result, Certificate) and result.g == g and result.q == q
    out.append(FamilyInstance(label, None, result, ok))
    out.sort(key=lambda inst: (inst.result.p, inst.result.q, inst.result.h, inst.label))
    return out


# -- conjectured patterns ----------------------------------------------------

_PATTERN_FAMILIES = tuple(s for s in FAMILY_SPECS if s.label in ("f", "f'", "g", "g'"))
_CONJECTURE_BANDS = ((5, (321, 100), (361, 100)), (6, (115, 100), (128, 100)))


def conjecture_check(cert: Certificate):
    """First matching conjectured pattern (1..6) for a d = 2 certificate.

    Patterns 1-4 are families f, f', g, g': p = p(l) and q is [h(l)^2]_p
    (the paper's q(l) = h(l)^2 - k p(l)).  5 and 6 are exact rational bands
    for h0^2 / p over the class set.  Returns None when no pattern matches
    (small slopes do fall outside all six).
    """
    if cert.d != 2:
        raise ValueError("pattern check applies to d = 2 certificates")
    p, q = cert.p, cert.q
    # each of these p(l) = a l^2 + b l + c has 0 <= b < a and c >= 1, so
    # p(l) > a|l|(|l| - 1) > p once |l| > isqrt(p) + 1: no other l can give p
    for pattern, spec in enumerate(_PATTERN_FAMILIES, 1):
        u, v = spec.h_poly
        for ell in filter(None, range(-isqrt(p) - 1, isqrt(p) + 2)):   # every l != 0
            h = u * ell + v
            if spec.slope(ell) == p and gcd(h, p) == 1 and canonical_q(p, h * h) == q:
                return pattern
    for pattern, (lo_n, lo_d), (hi_n, hi_d) in _CONJECTURE_BANDS:
        for h0 in sorted(h_class_set(p, cert.h)):
            if lo_n * p <= h0 * h0 * lo_d and h0 * h0 * hi_d <= hi_n * p:
                return pattern
    return None


# -- output formats ----------------------------------------------------------

def plotdata(report: SearchReport, d: int) -> list:
    """Points (h_min, p), one per certificate with the given d, sorted by p."""
    pts = [(c.h, c.p) for c in report.certs_with_d(d)]
    pts.sort(key=lambda t: (t[1], t[0]))
    return pts


def report_csv(report: SearchReport, d=None) -> str:
    """Certificate rows as `p,q,h,g` CSV (sorted, trailing newline)."""
    certs = report.certificates if d is None else report.certs_with_d(d)
    lines = ["p,q,h,g"]
    lines.extend(f"{c.p},{c.q},{c.h},{c.g}" for c in certs)
    return "\n".join(lines) + "\n"


def plotdata_csv(points) -> str:
    lines = ["h,p"]
    lines.extend(f"{h},{p}" for h, p in points)
    return "\n".join(lines) + "\n"


def report_json(report: SearchReport) -> dict:
    return {
        "p_min": report.p_min,
        "p_max": report.p_max,
        "mode": report.mode,
        "certificate_count": len(report.certificates),
        "rejections": {k: report.rejections[k] for k in sorted(report.rejections)},
        "d_histogram": {str(k): report.d_histogram[k]
                        for k in sorted(report.d_histogram)},
        "trivial_pairs": report.trivial_pairs,
    }
