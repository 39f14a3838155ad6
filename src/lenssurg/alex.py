"""Alexander-polynomial calculus for lens-surgery knots.

Covers the combinatorial count Phi, the reduced coefficients a~_i indexed by
Z/p, recovery of the symmetric polynomial from its reduction (unreduce), the
alternating-coefficient normal form, and Turaev torsions.

Conventions: polynomials are normalized (Delta(1) = 1) and symmetrized
(a_i = a_{-i}); m in the reduced-coefficient formula is (h*h' - 1)/p with
h, h' the canonical representatives of h and h^{-1} in [1, p).

The certification stages (coverage_depth, reduced_coeffs, unreduce,
reduce_poly, torsion_from_poly, reduced_torsions, dd1) take and return int64
numpy arrays: a reduced vector a~_0..a~_{p-1}, coefficients a_0..a_g and
torsions t_0..t_{g-1} (dd1 returns a Python int).  They are exact for p
below arith.INT64_P_BOUND.  is_alternating and os_form_check take any
coefficient sequence a_0..a_g, an array or the tuple of Python ints that a
certificate stores.  These per-candidate stages call the ufunc loops directly
(np.add.accumulate, np.add.reduce, np.count_nonzero, ndarray.nonzero), not
np.cumsum, .sum(), np.array_equal, .any() or np.flatnonzero: on the arrays
of a few hundred entries that each search candidate builds, those Python
wrappers cost more than the loop they call.  reduced_from_depth reads the
depth at the Spin^c labels [hi + c]_p of dinv.spin_c_labels.  The window
starts [qj]_p are built for several classes at once, the search's batch of
a slope's classes or the one class of reduced_coeffs, by in-place passes
over one array: positions less the repeated class offsets, times the
repeated q, less p times the floor quotient by p.
"""

from math import gcd

import numpy as np

from .arith import check_int64_bound, mod_inverse
from .dinv import spin_c_labels

__all__ = [
    "UnreduceError",
    "phi",
    "window_starts",
    "coverage_depth",
    "reduced_from_depth",
    "reduced_coeffs",
    "is_symmetric",
    "is_alternating",
    "os_form_check",
    "genus_from_reduced",
    "unreduce",
    "reduce_poly",
    "torsion_from_poly",
    "reduced_torsions",
    "dd1",
]


class UnreduceError(ValueError):
    """The reduced vector does not come from a valid symmetric polynomial."""


def phi(p: int, q: int, h: int, k: int) -> int:
    """#{j in [1, h'] : [qj - k]_p in [1, h]} with h = [h]_p, h' = [h^{-1}]_p.

    Direct iteration: the reference count that coverage_depth is
    cross-checked against in the tests.
    """
    h = h % p
    hp = mod_inverse(h, p)
    if gcd(q, p) != 1:
        raise ValueError(f"gcd({q}, {p}) != 1")
    count = 0
    for j in range(1, hp + 1):
        if 1 <= (q * j - k) % p <= h:
            count += 1
    return count


def window_starts(p: int, q, n) -> np.ndarray:
    """The window starts [q_c j]_p for j in [1, n_c] of each class c, one
    class after another, as an int64 array.

    q and n hold one entry per class, at least one class; a class counted
    with hp = [h^{-1}]_p has n_c = hp.  The positions 1, 2, ... of the
    array less the repeated offset of each class's first start give j, which
    is multiplied in place by the repeated q_c and reduced mod p.  The
    reduction subtracts p times the floor quotient: numpy divides an int64
    array by one scalar with a precomputed reciprocal, while np.remainder
    divides entry by entry, about 4x slower on a batch of 8192 starts.
    Exact while p^2 < 2^63, |q_c| < p and n_c <= p (p checked against
    arith.INT64_P_BOUND).
    """
    check_int64_bound(p)
    ends = np.add.accumulate(n)
    starts = np.arange(1, ends[-1] + 1, dtype=np.int64)
    starts -= np.repeat(ends - n, n)
    starts *= np.repeat(q, n)
    whole = starts // p
    whole *= p
    starts -= whole
    return starts


def coverage_depth(p: int, h: int, starts: np.ndarray) -> np.ndarray:
    """Phi^k_{p,q}(h) for every k in [0, p), as an int64 numpy array.

    Takes h = [h]_p and the window starts [qj]_p, j in [1, hp], of
    hp = [h^{-1}]_p: window_starts(p, (q,), (hp,)), or the class's slice of
    the search's batch, which counts Phi^0 on them first.  Each
    j in [1, hp] counts towards Phi^k exactly when its window start [qj]_p
    lies in [k + 1, k + h], read cyclically.  With C(m) the number of j
    whose start is at most m, extended by C(m + p) = C(m) + hp, that makes
    Phi^k = C(k + h) - C(k): one cumulative count in integer numpy ops.
    """
    c = np.add.accumulate(np.bincount(starts, minlength=p))
    return np.concatenate((c[h:], c[:h] + len(starts))) - c


def reduced_from_depth(depth: np.ndarray, h: int, hp: int, count: int) -> np.ndarray:
    """a~_i = -m + Phi^{hi+c}(h) for i in [0, count), read off coverage_depth.

    h and hp = [h^{-1}]_p are the ones the depth was built with, p is its
    length, m = (h*hp - 1)/p, and the labels [hi + c]_p come from
    dinv.spin_c_labels.
    """
    p = len(depth)
    return depth[spin_c_labels(h, p, count)] - (h * hp - 1) // p


def reduced_coeffs(p: int, q: int, h: int, *, depth=None) -> np.ndarray:
    """Reduced Alexander coefficients a~_i = -m + Phi^{hi+c}_{p,q}(h) for i in Z/p.

    An int64 array of length p, computed for all residues at once by
    indexing coverage_depth.  Always sums to 1.  A caller that holds that
    depth for (p, q, h) already passes it as depth.
    """
    h = h % p
    hp = mod_inverse(h, p)
    if gcd(q, p) != 1:
        raise ValueError(f"gcd({q}, {p}) != 1")
    if depth is None:
        depth = coverage_depth(p, h, window_starts(p, (q % p,), (hp,)))
    return reduced_from_depth(depth, h, hp, p)


def is_symmetric(e) -> bool:
    """Entry i equals entry p - i for every i in Z/p."""
    e = np.asarray(e)
    return not np.count_nonzero(e[1:] != e[:0:-1])


def is_alternating(coeffs) -> bool:
    """The nonzero coefficients, read from the top index down to index 0, are
    exactly +1, -1, +1, ..., and the one at index 0 is among them."""
    a = np.asarray(coeffs)
    if a.size == 0 or a[0] == 0:
        return False
    nonzero = a[a != 0]   # alternating: each is minus the next, the top one +1
    return bool(nonzero[-1] == 1 and not np.count_nonzero(nonzero[1:] + nonzero[:-1]))


def os_form_check(coeffs):
    """Decompose Delta = (-1)^k + sum_j (-1)^{k-j} (t^{n_j} + t^{-n_j}).

    Takes the coefficients a_0..a_g.  Returns (k, (n_1, ..., n_k)) when the
    nonzero coefficients, read from the top degree down to the constant term,
    are exactly +1, -1, +1, ... with the constant term included; returns None
    otherwise.
    """
    if not is_alternating(coeffs):
        return None
    ns = tuple(i for i, a in enumerate(coeffs[1:], 1) if a)
    return len(ns), ns


def genus_from_reduced(e) -> int:
    """Largest index in {0, ..., floor(p/2)} carrying a nonzero entry."""
    e = np.asarray(e)
    return int(e[:len(e) // 2 + 1].nonzero()[0][-1])


def unreduce(e, g: int) -> np.ndarray:
    """Coefficients a_0..a_g of the degree-g symmetric polynomial whose mod-p
    reduction is the vector e (p = len(e)), as an int64 array.

    Index collisions are resolved by the alternating normal form:
      2g < p   -- classes are disjoint, plain readback;
      2g = p   -- classes +-g coincide, the entry must split evenly;
      2g = p+1 -- class of g collides with -(g-1); top coefficient is +1.
    Raises UnreduceError when no valid polynomial exists.
    """
    e = np.asarray(e, dtype=np.int64)
    p = len(e)
    if 2 * g > p + 1:
        raise UnreduceError(f"genus {g} too large for modulus {p}")
    if not is_symmetric(e):
        raise UnreduceError("reduced vector is not symmetric")
    coeffs = e[:g + 1].copy()
    if 2 * g == p + 1:
        coeffs[g - 1] -= 1  # class of g-1 also carries a_{-g} = 1
        coeffs[g] = 1
    elif 2 * g == p:
        if coeffs[g] % 2 != 0:
            raise UnreduceError("middle class entry must be even when 2g = p")
        coeffs[g] //= 2
    if coeffs[-1] == 0:
        raise UnreduceError("reconstructed top coefficient vanishes")
    if coeffs[0] + 2 * np.add.reduce(coeffs[1:]) != 1:
        raise UnreduceError("reconstructed polynomial does not evaluate to 1 at t=1")
    if np.count_nonzero(reduce_poly(coeffs, p) != e):
        raise UnreduceError("reconstruction does not reduce back to the input")
    if not is_alternating(coeffs):
        raise UnreduceError("reconstructed polynomial is not in alternating form")
    return coeffs


def reduce_poly(coeffs, p: int) -> np.ndarray:
    """Sum a symmetric sequence x_0, x_{+-1}, x_{+-2}, ... over residue classes
    mod p (inverse of unreduce): entry k is the sum of x_|j| over j = k mod p.

    The two-sided sequence x_{1-n} .. x_{n-1} is laid out in a zero array of
    whole periods, after `lead` zeros so that x_j sits at an index congruent
    to j mod p; the column sums of its (-1, p) reshape are the class sums.
    """
    x = np.asarray(coeffs, dtype=np.int64)
    n = len(x)
    lead = (1 - n) % p
    full = np.zeros(-(-(lead + 2 * n) // p) * p, dtype=np.int64)
    full[lead:lead + n - 1] = x[:0:-1]
    full[lead + n - 1:lead + 2 * n - 1] = x
    return np.add.reduce(full.reshape(-1, p))


def torsion_from_poly(coeffs) -> np.ndarray:
    """Turaev torsions t_i = sum_{j>i} (j - i) * a_j for i = 0..g-1, as an
    int64 array, from the coefficients a_0..a_g.

    t_i vanishes for i >= g; the full two-sided sequence is t_{-i} = t_i.
    Computed with suffix sums in O(g).
    """
    a = np.asarray(coeffs, dtype=np.int64)
    if a[0] + 2 * np.add.reduce(a[1:]) != 1:
        raise ValueError("polynomial is not normalized: Delta(1) != 1")
    j = np.arange(len(a), dtype=np.int64)
    s1 = np.add.accumulate(a[:0:-1])[::-1]          # s1[i] = sum of a_j for j > i
    s2 = np.add.accumulate((j * a)[:0:-1])[::-1]    # s2[i] = sum of j*a_j for j > i
    return s2 - j[:-1] * s1


def reduced_torsions(torsions, p: int) -> np.ndarray:
    """Class sums t~_i = sum_{j = i mod p} t_j over the two-sided sequence."""
    return reduce_poly(torsions, p)


def dd1(coeffs) -> int:
    """Second derivative at t=1 from the coefficients a_0..a_g:
    sum_i i^2 a_i = 2 sum_{i>=1} i^2 a_i, as one int64 product-sum.

    Exact while the sum stays below 2^63, as it does for the alternating
    coefficients (|a_i| <= 1) of any genus g < 2^19: then it is at most g^3.
    """
    a = np.asarray(coeffs, dtype=np.int64)
    i = np.arange(len(a), dtype=np.int64)
    return 2 * int((i * i) @ a)
