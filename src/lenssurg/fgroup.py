"""Fundamental-group presentations of the source homology sphere.

A certified datum (p, q, h) determines a two-generator, two-relator
presentation built from the step function delta_h (1 on residues 1..h,
else 0); its relators have about p + h letters.  Coset enumeration over the
trivial subgroup then verifies the group order: 120 (binary icosahedral)
for d = 2 data, 1 for d = 0 data.  The enumeration first shortens a private
copy of the relators by Nielsen moves (automorphisms of the free group) and
by substituting one relator into the other (Tietze transformations), so
the group is the same, and then runs HLT scan-and-fill on it (Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, sections 5.1-5.2);
the presentation itself, and its printed form, stay as built.  The Nielsen
moves come in runs: the best of the eight is repeated while it still
shortens the copy, and only then are all eight tried again.  For the datum
(2001, 721, 82) one move shortens the 4,039 letters 25 times in a row, so
all eight are tried once for that run, not once for each of its steps.  A
move is tried without being applied: all eight changes in length are read
off one count of the letters and two-letter pairs in the cyclic words, and
only the move taken rewrites them, in one cancellation pass.  Substitutions
are searched in one pass over the rotations of each relator.

A word is a str over a, b and their inverses A, B throughout; only the
coset table reads a letter as its column, "aAbB".index.
"""

from dataclasses import dataclass

from .arith import mod_inverse
from .dinv import spin_c_c

__all__ = [
    "GroupPresentation",
    "build_presentation",
    "todd_coxeter",
    "abelianization_order",
]


@dataclass(frozen=True)
class GroupPresentation:
    relators: tuple  # tuple of words; word = str over a, A = a^-1, b, B = b^-1

    def __post_init__(self):
        for word in self.relators:
            if not isinstance(word, str) or not set(word) <= set("aAbB"):
                raise ValueError(f"relator {word!r} is not a str over a, A, b, B")

    def exponent_matrix(self):
        """Rows = relators, columns = generators; entries are exponent sums."""
        return [[w.count(g) - w.count(g.upper()) for g in "ab"] for w in self.relators]

    def __str__(self):
        return "\n".join(self.relators)


def build_presentation(cert) -> GroupPresentation:
    """Two-relator presentation attached to a certificate.

    Relator 1 is the product over i = 1..p of the steps a b^{delta_h(q*i+1)};
    relator 2 is the first h'-1 of those steps followed by a b^{-e}, with
    e the reduced coefficient at index [-h'c - h']_p.  The index choice and
    the use of the square representative q* = [h^2]_p are validated by the
    order-120 regression anchors in the test suite.
    """
    p = cert.p
    h = cert.h
    q = cert.q_square
    hp = mod_inverse(h, p)
    c = spin_c_c(h, p)

    steps = ["ab" if 1 <= (q * i + 1) % p <= h else "a" for i in range(1, p + 1)]
    e = cert.reduced[(-hp * c - hp) % p]
    rel2 = "".join(steps[:hp - 1]) + "a" + ("B" if e > 0 else "b") * abs(e)
    return GroupPresentation(("".join(steps), rel2))


def abelianization_order(pres: GroupPresentation) -> int:
    """|H_1| as |det| of the 2x2 exponent matrix; 0 encodes infinite."""
    (a, b), (c, d) = pres.exponent_matrix()
    return abs(a * d - b * c)


def _reduce(word):
    """Freely, then cyclically, reduce a word written in a/A/b/B."""
    n = None
    while n != len(word):
        n = len(word)
        for pair in ("aA", "Aa", "bB", "Bb"):
            word = word.replace(pair, "")
    # strip the longest u with word = u v u^-1: binary search for the
    # longest prefix of word that is also a prefix of its inverse
    lo, hi = 0, n // 2
    inv = word[:n - 1 - hi:-1].swapcase()   # the first hi letters of the inverse
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if word[:mid] == inv[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return word[lo:n - lo]


def _inverse(word):
    return word[::-1].swapcase()


def _substitute(words):
    """The substitution of one relator into another that shortens the most.

    If u v is a cyclic conjugate of a relator r or of its inverse, then
    u = v^-1 in the group, so an occurrence of u in another relator w, read
    cyclically, may be replaced by v^-1 (a Tietze transformation).  Returns
    (total length, words) after the best one, the first of equal ones, or
    None if none shortens.  The words must be cyclically reduced.  At
    rotation k of r (then of r^-1), u is the longest prefix in the cyclic w,
    capped at c = min(|r|, |w|); it counts if longer than |r|/2.  One pass
    finds them all:
    1. |u| = L(k) >= L(k-1) - 1, as u(k-1) minus its first letter starts
       rotation k; so the search starts at L(k-1) - 1, one letter more first.
    2. Rotations are slices of rr = r r; u first occurs in hay = w w at a < |w|.
    3. With x the rest of the cyclic w, the new word v^-1 x has |v| + |x|
       letters unless some cancel.  If L < c, v and x are reduced and
       v[0] != x[0] (else u v[0] would occur), so only the seam can cancel,
       if v and x end alike.  For k, a > 0 that letter and u then occur at
       a - 1, so L(k-1) = L + 1, a(k-1) = a - 1, and v^-1 x is rotation
       k-1's word conjugated by the letter, no shorter than the best so far.
       So the word is built and reduced only if |v| + |x| beats the best,
       or if L = c, k = 0 or a = 0.
    """
    total = sum(map(len, words))
    best, least = None, total
    for i, w in enumerate(words):
        hay, m = w + w, len(w)
        for j, r in enumerate(words):
            n = len(r)
            low, c = n // 2 + 1, min(n, m)
            if i == j or low > c:
                continue
            for rr in (r + r, _inverse(r + r)):
                L = 0
                for k in range(n):
                    if L <= low and rr[k:k + low] not in hay:
                        continue
                    lo, hi = max(L - 1, low), c
                    mid = lo + 1
                    while lo < hi:   # the longest prefix of rotation k in hay
                        if rr[k:k + mid] in hay:
                            lo = mid
                        else:
                            hi = mid - 1
                        mid = (lo + hi + 1) // 2
                    L, u = lo, rr[k:k + lo]
                    if total + n - 2 * L < least or L == c or k == 0 or hay.startswith(u):
                        at = hay.find(u)
                        new = _reduce(_inverse(rr[k + L:k + n]) + hay[at + L:at + m])
                        if total - m + len(new) < least:
                            least = total - m + len(new)
                            best = (least, words[:i] + [new] + words[i + 1:])
    return best


# the eight Nielsen moves x_g -> e x_g or x_g e (e = x_o^{+-1}, o the other
# generator) as (g, e, append)
_NIELSEN_MOVES = tuple(
    (g, e, append)
    for g, o in ("ab", "ba") for e in (o, o.swapcase()) for append in (False, True)
)


def _reads(move):
    """The strings whose counts give a move's score: g, G and two pairs."""
    g, e, append = move
    G, E = g.upper(), e.swapcase()
    return (g, G) + ((g + E, e + G) if append else (E + g, G + e))


# the 4 letters and the 8 pairs of letters of different generators
_ALL_READS = tuple(dict.fromkeys(s for move in _NIELSEN_MOVES for s in _reads(move)))


def _counts(words, strings):
    """Occurrences of the strings in the words, pairs also across the seam."""
    counts = dict.fromkeys(strings, 0)
    for w in words:
        for s in strings:
            counts[s] += w.count(s)
        if w[-1:] + w[:1] in counts:
            counts[w[-1] + w[0]] += 1
    return counts


def _score(counts, move):
    """The change in total length that a Nielsen move makes, from counts.

    The words counted are cyclically reduced.  The move x_g -> x_g e maps g to
    g e and G = g^-1 to E G, so each g or G adds one letter.  Images end
    with e, G or an o-letter and start with g, E or an o-letter, so in a
    reduced word two neighbouring images cancel only as e E, at the pairs
    g E and e G of the word, read cyclically; no letter lies in two such
    pairs.  The letter left over cannot cancel with its new neighbour:
    after g E comes an image that starts with g, E or an o-letter, never G,
    and before e G one that ends with e, G or an o-letter, never g.  So
    nothing cascades, and the change is #g + #G - 2(#gE + #eG).  For
    x_g -> e x_g (images e g and G E) it is #g + #G - 2(#Eg + #Ge).
    """
    g, G, pair, other = _reads(move)
    return counts[g] + counts[G] - 2 * (counts[pair] + counts[other])


def _nielsen(words, move):
    """The words after a Nielsen move, freely and cyclically reduced.

    The words must be cyclically reduced.  Then by `_score` only e E (E e
    for x_g -> e x_g) cancels and nothing cascades: one replace drops all
    such pairs but the one, at most, across the seam, stripped at the ends.
    """
    g, e, append = move
    G, E = g.upper(), e.swapcase()
    image, inverse, cancel = (g + e, E + G, e + E) if append else (e + g, G + E, E + e)
    # the first replace adds only o-letters, so the second sees only the G's
    moved = [w.replace(g, image).replace(G, inverse).replace(cancel, "") for w in words]
    return [w[1:-1] if w[-1:] + w[:1] == cancel else w for w in moved]


def _simplify(pres: GroupPresentation) -> GroupPresentation:
    """Shorten the relators by greedy Nielsen moves and substitutions.

    A Nielsen move replaces x_g by x_o^e x_g or by x_g x_o^e (o the other
    generator, e = +-1).  It is an automorphism of the free group, so the
    presented group does not change; nor does a substitution of one
    relator into another (`_substitute`).  The moves are taken in runs:
    the Nielsen move that shortens the total length of the freely and
    cyclically reduced relators the most (by `_score`; the first of equal
    ones) is applied, then applied again for as long as it still shortens
    it, and only then are all eight moves searched again; if none shortens
    it, the best substitution is applied instead.  The loop stops when
    neither shortens it, so the result is a local minimum for all eight
    moves and the substitutions; a step that does not shorten it raises
    RuntimeError, as the loop might not end.  Every fixture datum ends at
    relators of 5 and 7 letters, the length of the standard presentation of
    the binary icosahedral group.
    """
    words = [_reduce(w) for w in pres.relators]
    run = None   # the Nielsen move that shortened last
    while True:
        total = sum(map(len, words))
        if run is None or _score(_counts(words, _reads(run)), run) >= 0:
            counts = _counts(words, _ALL_READS)   # one pass scores all eight
            scores = [_score(counts, move) for move in _NIELSEN_MOVES]
            best = min(scores)
            run = _NIELSEN_MOVES[scores.index(best)] if best < 0 else None
        if run is not None:
            words = _nielsen(words, run)
        else:
            substituted = _substitute(words)
            if substituted is None:
                break
            words = substituted[1]
        if sum(map(len, words)) >= total:
            raise RuntimeError("a step of _simplify did not shorten the relators")
    return GroupPresentation(tuple(words))


def todd_coxeter(pres: GroupPresentation, max_cosets: int = 10**6):
    """Coset enumeration over the trivial subgroup.

    Returns the group order if the table closes within max_cosets cosets,
    else None; every coset ever defined counts, dead ones included.  The
    enumeration runs on a simplified copy of the relators (`_simplify`:
    same group, far shorter words; `pres` itself is not changed) with HLT
    scan-and-fill: each relator is scanned forward and backward from a
    live coset as far as the table is defined, new cosets are defined only
    inside the gap between the two scans, a one-letter gap is filled as a
    deduction, and scans that meet at different cosets are merged.  Merges
    go through union-find, queueing the coincidences they induce; each
    live coset's row is then filled, so the finished table is a genuine
    action.
    """
    rels = [tuple(map("aAbB".index, w)) for w in _simplify(pres).relators]
    rels = [(w, tuple(d ^ 1 for d in w)) for w in rels]

    # two generators, forward and inverse columns: row c is table[4c : 4c + 4]
    labels = [0]
    table = [-1] * 4

    def find(c):
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def define(c, d):
        new = len(labels)
        labels.append(new)
        table.extend((-1, -1, -1, -1))
        table[4 * c + d] = new
        table[4 * new + (d ^ 1)] = c

    def unify(c1, c2):
        stack = [c1, c2]
        while stack:
            b, a = stack.pop(), stack.pop()
            if labels[a] != a:
                a = find(a)
            if labels[b] != b:
                b = find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            labels[b] = a
            for d in range(4):
                nb = table[4 * b + d]
                if nb < 0:
                    continue
                na = table[4 * a + d]
                if na < 0:
                    # stale labels inside rows are fine; find() resolves them
                    table[4 * a + d] = nb
                else:
                    stack += (na, nb)

    def scan_and_fill(c, word, inv):
        """Close `word` at live coset c; False if that needs too many cosets."""
        i, j = 0, len(word)
        f = b = c
        while True:
            # forward from f as far as the table is defined
            while i < j:
                nxt = table[4 * f + word[i]]
                if nxt < 0:
                    break
                f = nxt if labels[nxt] == nxt else find(nxt)
                i += 1
            # backward from b over the end of the word
            while j > i:
                nxt = table[4 * b + inv[j - 1]]
                if nxt < 0:
                    break
                b = nxt if labels[nxt] == nxt else find(nxt)
                j -= 1
            if j == i:
                if f != b:
                    unify(f, b)
                return True
            if j == i + 1:
                # one-letter gap: a deduction
                table[4 * f + word[i]] = b
                table[4 * b + inv[i]] = f
                return True
            if len(labels) >= max_cosets:
                return False
            define(f, word[i])

    cursor = 0
    while cursor < len(labels):
        if labels[cursor] == cursor:
            for word, inv in rels:
                if not scan_and_fill(cursor, word, inv):
                    return None
                if labels[cursor] != cursor:
                    break
            else:
                # fill the row so the finished table is a genuine action
                for d in range(4):
                    if table[4 * cursor + d] < 0:
                        if len(labels) >= max_cosets:
                            return None
                        define(cursor, d)
        cursor += 1
    return sum(1 for i, c in enumerate(labels) if i == c)
