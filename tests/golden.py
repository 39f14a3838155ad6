"""Frozen reference data and small oracles shared by the test modules.

Polynomials are stored as upper-half coefficient tuples (a_0, ..., a_g), the
form of Certificate.poly; they are the classification polynomials for the
small sporadic surgeries, entered by hand with the two misprinted tails
symmetrized.
"""

from fractions import Fraction

from lenssurg.dinv import spin_c_c
from lenssurg.fgroup import GroupPresentation, _inverse, _reduce

TREFOIL = (-1, 1)

# genus 4, the L(8,1) / L(7,2)-with-d=2 polynomial
DELTA_K2 = (-1, 1, 0, -1, 1)

DELTA_K3_D0 = TREFOIL
DELTA_K3_D2 = DELTA_K2

# L(11,3)
DELTA_K4_D0 = (1, -1, 1)
DELTA_K4_D2 = (1, -1, 1, 0, 0, -1, 1)

# L(13,3)
DELTA_K5_D0 = (1, 0, -1, 1)
DELTA_K5_D2 = (1, 0, -1, 1, 0, 0, -1, 1)

# genus 11, the L(22,3) polynomial
DELTA_K6 = (-1, 0, 1, 0, 0, -1, 1, 0, 0, 0, -1, 1)


def delta_k1(p: int) -> tuple:
    """The L(p,1), h=1, d=2 polynomial for odd p: 1 - t^{+-(p-1)/2} + t^{+-(p+1)/2}."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    g = (p + 1) // 2
    coeffs = [0] * (g + 1)
    coeffs[0] = 1
    coeffs[g - 1] = -1
    coeffs[g] = 1
    return tuple(coeffs)


def delta_lift(coeffs: tuple, p: int) -> tuple:
    """Oracle: the degree shift, subtract t^{+-(p-1)/2} and add t^{+-(p+1)/2}.

    certify.lift_to_d2 gets the same polynomial from unreduce at genus
    (p+1)/2; the tests check the two against each other.
    """
    if p % 2 == 0:
        raise ValueError("the degree-shift relation needs odd p")
    top = (p + 1) // 2
    degree = len(coeffs) - 1
    if degree >= top:
        raise ValueError(f"degree {degree} too large for the shift at p={p}")
    coeffs = list(coeffs) + [0] * (top - degree)
    coeffs[top - 1] -= 1
    coeffs[top] += 1
    if coeffs[top] == 0:
        raise ValueError("degree shift cancels the top coefficient")
    return tuple(coeffs)


def d_lens_p1(p: int, i: int) -> Fraction:
    """Oracle: the closed form d(L(p,1), i) = ((2i - p)^2 - p) / (4p), 0 <= i < p."""
    if not 0 <= i < p:
        raise ValueError(f"index {i} out of range for modulus {p}")
    return Fraction((2 * i - p) ** 2 - p, 4 * p)


def euler_check_oracle(p: int, d, lambda_pq: Fraction, lambda_p1: Fraction,
                       poly_dd1: int) -> bool:
    """Oracle: casson.euler_check as it compared in Fractions.

    p * (d + 2*lambda(L(p,q)) - 2*lambda(L(p,1))) == Delta''(1), exactly.
    The caller passes lambda_pq = lambda(L(p,q)) and lambda_p1 = lambda(L(p,1)).
    """
    return p * (Fraction(d) + 2 * lambda_pq - 2 * lambda_p1) == poly_dd1


def spin_c_Q(h: int, p: int, i: int) -> int:
    """Oracle: the Spin^c relabeling Q(i) = [h*i + c]_p."""
    return (h * i + spin_c_c(h, p)) % p


# the binary icosahedral group <a, b | (ab)^2 = a^3 = b^5>, of order 120
BINARY_ICOSAHEDRAL = GroupPresentation((
    "ababAAA",      # (ab)^2 a^-3
    "aaaBBBBB",     # a^3 b^-5
))


def substitute_oracle(words):
    """Oracle: fgroup._substitute as it re-sliced every cyclic conjugate.

    If u v is a cyclic conjugate of a relator or of its inverse, then
    u = v^-1 in the group, so an occurrence of u in another relator w, read
    cyclically, may be replaced by v^-1 (a Tietze transformation).  That
    shortens w whenever u is longer than v.  Returns (total length, words)
    after the best such substitution, or None if there is none.
    """
    total = sum(map(len, words))
    best = None
    for i, w in enumerate(words):
        hay = w + w
        for j, r in enumerate(words):
            n = len(r)
            if i == j or n // 2 + 1 > min(n, len(w)):
                continue
            for rr in (r, _inverse(r)):
                for k in range(n):
                    c = rr[k:] + rr[:k]
                    lo, hi = n // 2 + 1, min(n, len(w))
                    if c[:lo] not in hay:
                        continue
                    while lo < hi:   # the longest prefix of c in the cyclic w
                        mid = (lo + hi + 1) // 2
                        if c[:mid] in hay:
                            lo = mid
                        else:
                            hi = mid - 1
                    at = hay.find(c[:lo])
                    new = _reduce(_inverse(c[lo:]) + hay[at + lo:at + len(w)])
                    length = total - len(w) + len(new)
                    if length < (best[0] if best else total):
                        best = (length, words[:i] + [new] + words[i + 1:])
    return best


def nielsen_oracle(words, move):
    """Oracle: fgroup._nielsen as it ran every moved word through _reduce."""
    g, e, append = move
    G, E = g.upper(), e.swapcase()
    image, inverse = (g + e, E + G) if append else (e + g, G + E)
    # the first replace adds only o-letters, so the second sees only the G's
    return [_reduce(w.replace(g, image).replace(G, inverse)) for w in words]


def score_oracle(words, move):
    """Oracle: fgroup._score as it counted one move's strings on every call."""
    g, e, append = move
    G, E = g.upper(), e.swapcase()
    pairs = (g + E, e + G) if append else (E + g, G + e)
    score = 0
    for w in words:
        if w:
            ends = w[-1] + w[0]   # the pair across the cyclic seam
            score += w.count(g) + w.count(G) - 2 * sum(
                w.count(pair) + (ends == pair) for pair in pairs)
    return score
