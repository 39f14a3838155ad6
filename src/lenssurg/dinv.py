"""Correction terms d(L(p,q), i) of lens spaces and the Spin^c shift c.

L(p,q) is the p/q-surgery on the unknot with the orientation for which
d(L(p,1), i) = ((2i - p)^2 - p) / (4p).  Every d(L(p,q), i) lies in
(1/4p)Z, so the terms are stored as the integers

    N(p, q, i) = 4p * d(L(p,q), i).

General (p,q) values come from the Euclidean recursion of Ozsvath-Szabo
(math/0110169, Prop. 4.8), scaled by 4p:

    N(p, q, i) = ((2i + 1 - p - q)^2 - pq - p * N(q, p mod q, i mod q)) / q

with base case N(1, 0, 0) = 0, indices always reduced into [0, modulus).
d_vector evaluates one level in int64 numpy operations: 2i + 1 - p - q is one
strided arange, the lower level is read at i mod q by writing it row after
row into a (ceil(p/q), q) block (no int64 remainder of i), and the level is
the floor quotient by the scalar q.  The division is exact: a nonzero
remainder, numerator minus q times the quotient, raises ArithmeticError.
int64 is exact for p below arith.INT64_P_BOUND, and d_vector raises
Int64BoundError above it.  d_lens gives the Fraction value N / (4p).  The
relabeling Q(i) = [h*i + c]_p of Spin^c structures takes its shift c from
spin_c_c, and spin_c_labels builds the labels of i in [0, count) as one
strided arange less p times its floor quotient by p.  The labeling
convention is pinned by the certification anchors; see the certify module
tests.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .arith import check_int64_bound

__all__ = ["d_lens", "d_vector", "spin_c_c", "spin_c_labels"]


@lru_cache(maxsize=256)
def d_vector(p: int, q: int) -> np.ndarray:
    """All p scaled correction terms N_i = 4p * d(L(p,q), i), indexed by i in Z/p.

    A read-only int64 array, built level by level along the Euclidean
    descent, so the cost is O(p + q + ...) array operations and the cache
    stays small.
    """
    check_int64_bound(p)
    if p == 1 and q == 0:
        out = np.zeros(1, dtype=np.int64)
    else:
        if not 0 < q < p or gcd(p, q) != 1:
            raise ValueError(f"bad lens parameters ({p}, {q})")
        ext = np.empty(-(-p // q) * q, dtype=np.int64)   # the lower level, periodic mod q
        ext.reshape(-1, q)[:] = d_vector(q, p % q)
        num = np.arange(1 - p - q, p + 1 - q, 2, dtype=np.int64) ** 2 - p * (q + ext[:p])
        out = num // q
        if np.count_nonzero(num - out * q):
            raise ArithmeticError(f"correction terms of L({p},{q}) are not in (1/4p)Z")
    out.flags.writeable = False
    return out


def d_lens(p: int, q: int, i: int) -> Fraction:
    """d(L(p,q), i) with gcd(p,q) = 1, 0 < q < p, 0 <= i < p.

    For q = 1 this is the closed form ((2i - p)^2 - p) / (4p).
    """
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got ({p}, {q})")
    if not 0 <= i < p:
        raise ValueError(f"index {i} out of range for modulus {p}")
    return Fraction(int(d_vector(p, q)[i]), 4 * p)


def spin_c_c(h: int, p: int) -> int:
    """The shift c = [(h+1+p)(h-1)/2]_p in the relabeling Q(i) = hi + c."""
    if gcd(h, p) != 1:
        raise ValueError(f"gcd({h}, {p}) != 1")
    prod = (h + 1 + p) * (h - 1)
    # (h+1+p)(h-1) is even whenever gcd(h,p)=1: h odd makes h-1 even,
    # h even forces p odd and h+1+p even.
    if prod % 2 != 0:
        raise ValueError(f"ill-formed Spin^c shift for (h, p) = ({h}, {p})")
    return (prod // 2) % p


def spin_c_labels(h: int, p: int, count: int) -> np.ndarray:
    """Q(i) = [h*i + c]_p for i in [0, count), c = spin_c_c(h, p), as int64.

    Exact for h in [0, p) and count <= p.  h = 0 (only at p = 1) has no
    stride: every label is c.
    """
    c = spin_c_c(h, p)
    if not h:
        return np.full(count, c, dtype=np.int64)
    k = np.arange(c, c + h * count, h, dtype=np.int64)
    whole = k // p
    whole *= p
    k -= whole
    return k
