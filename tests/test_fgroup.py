import hashlib
import itertools
import random

import pytest

from lenssurg.certify import certify, canonical_h
from lenssurg import fgroup
from lenssurg.fgroup import (
    _ALL_READS,
    _NIELSEN_MOVES,
    GroupPresentation,
    _counts,
    _nielsen,
    _reads,
    _reduce,
    _score,
    _simplify,
    _substitute,
    abelianization_order,
    build_presentation,
    todd_coxeter,
)
from golden import BINARY_ICOSAHEDRAL, nielsen_oracle, score_oracle, substitute_oracle


def test_reference_presentation():
    assert abelianization_order(BINARY_ICOSAHEDRAL) == 1
    assert todd_coxeter(BINARY_ICOSAHEDRAL) == 120


def test_abelianization_examples():
    # <x, y | x^2, y^3> has H_1 of order 6
    assert abelianization_order(GroupPresentation(("aa", "bbb"))) == 6
    # infinite abelianization encoded as 0
    assert abelianization_order(GroupPresentation(("aA", "bB"))) == 0


def test_malformed_relators_are_rejected():
    # an int word would otherwise count as the empty word, exponent sums 0
    with pytest.raises(ValueError):
        GroupPresentation(((1, 2), (2,)))
    with pytest.raises(ValueError):
        GroupPresentation(("ax", "b"))


def test_presentation_words_anchor():
    pres = build_presentation(certify(8, 1, 3))
    assert str(pres).split("\n") == ["ababaaaaaab", "ababaB"]
    mat = pres.exponent_matrix()
    assert mat[0] == [8, 3]
    assert abelianization_order(pres) == 1


def test_presentation_unknot():
    pres = build_presentation(certify(5, 1, 1))
    assert str(pres).split("\n") == ["aaaaab", "a"]
    assert todd_coxeter(pres) == 1


def test_relator_exponent_sums():
    for p, q, h in [(8, 1, 3), (22, 3, 5), (38, 7, 7), (7, 2, 2)]:
        cert = certify(p, q, h)
        mat = build_presentation(cert).exponent_matrix()
        assert mat[0] == [p, cert.datum.h]


@pytest.mark.parametrize("p,q,h", [(8, 1, 3), (22, 3, 5), (38, 7, 7)])
def test_order_120_anchors(p, q, h):
    pres = build_presentation(certify(p, q, h))
    assert abelianization_order(pres) == 1
    assert todd_coxeter(pres) == 120


def test_order_1_for_d0_data():
    for p, q, h in [(5, 4, 2), (7, 2, 2), (13, 3, 3), (19, 6, 4)]:
        cert = certify(p, q, h)
        assert cert.d == 0
        pres = build_presentation(cert)
        assert abelianization_order(pres) == 1
        assert todd_coxeter(pres) == 1


def test_known_triangle_group_orders():
    # <a,b | a^2, b^3, (ab)^5> is A_5; the (2,3,7) variant is infinite
    a5 = GroupPresentation(("aa", "bbb", "ab" * 5))
    assert todd_coxeter(a5) == 60
    hyperbolic = GroupPresentation(("aa", "bbb", "ab" * 7))
    assert todd_coxeter(hyperbolic, max_cosets=3000) is None


def test_rotation_invariance():
    base = BINARY_ICOSAHEDRAL.relators
    for shift in (1, 3, 5):
        rotated = GroupPresentation(tuple(w[shift:] + w[:shift] for w in base))
        assert todd_coxeter(rotated) == 120


def test_overflow_is_soft():
    assert todd_coxeter(BINARY_ICOSAHEDRAL, max_cosets=5) is None


def test_single_convention_across_all_small_data():
    # one index convention, no per-datum switching: every certified datum
    # with p <= 100 enumerates to order 120 (d=2) or 1 (d=0)
    from lenssurg.search import enumerate_search

    report = enumerate_search(2, 100, mode="square")
    assert len(report.certs_with_d(2)) == 12
    for cert in report.certificates:
        assert cert.d in (0, 2)
        pres = build_presentation(cert)
        assert abelianization_order(pres) == 1, cert.datum
        expected = 120 if cert.d == 2 else 1
        assert todd_coxeter(pres) == expected, cert.datum


def _is_reduced(word):
    free = all(x != y.swapcase() for x, y in zip(word, word[1:]))
    return free and (len(word) < 2 or word[0] != word[-1].swapcase())


def _cyclically_reduced(word):
    out = []
    for x in word:
        if out and out[-1] == x.swapcase():
            out.pop()
        else:
            out.append(x)
    while len(out) > 1 and out[0] == out[-1].swapcase():
        out = out[1:-1]
    return "".join(out)


def _nielsen_substitutions():
    """x_g -> x_o^e x_g or x_g x_o^e (o the other generator, e = +-1)."""
    subs = []
    for g, o in ("ab", "ba"):
        for e in (o, o.upper()):
            for image in (e + g, g + e):
                inverse = image[::-1].swapcase()
                subs.append({g: image, g.upper(): inverse, o: o, o.upper(): o.upper()})
    return subs


def _moved(word, sub):
    return _cyclically_reduced("".join(sub[x] for x in word))


def _random_word(rng, n):
    return "".join(rng.choice("aAbB") for _ in range(n))


def test_reduce_matches_the_loop_oracle():
    rng = random.Random(7)
    words = [_random_word(rng, rng.randrange(40)) for _ in range(2000)]
    # conjugates u v u^-1 exercise long cyclic strips
    for _ in range(500):
        u, v = _random_word(rng, rng.randrange(20)), _random_word(rng, rng.randrange(5))
        words.append(u + v + u[::-1].swapcase())
    for word in words:
        assert _reduce(word) == _cyclically_reduced(word), word


def test_move_score_is_the_length_change():
    # every cyclically reduced word of length 0 to 3, and seeded random ones
    small = ["".join(w) for n in range(4) for w in itertools.product("aAbB", repeat=n)]
    rng = random.Random(11)
    words = [w for w in small if _cyclically_reduced(w) == w]
    words += [_cyclically_reduced(_random_word(rng, rng.randrange(80))) for _ in range(300)]
    assert {len(w) for w in words} >= {0, 1, 2}
    for move, sub in zip(_NIELSEN_MOVES, _nielsen_substitutions(), strict=True):
        for i, word in enumerate(words):
            pair = [word, words[i - 1]]
            moved = [_moved(w, sub) for w in pair]
            change = sum(map(len, moved)) - sum(map(len, pair))
            _assert_move_matches_the_oracles(pair, move)
            assert _score(_counts(pair, _reads(move)), move) == change, (move, pair)
            assert _nielsen(pair, move) == moved, (move, pair)


def _assert_move_matches_the_oracles(words, move):
    """_nielsen against the _reduce-based oracle; the score from all twelve
    counts and from the move's own four against the per-move count."""
    assert _nielsen(words, move) == nielsen_oracle(words, move), (move, words)
    score = score_oracle(words, move)
    assert _score(_counts(words, _ALL_READS), move) == score, (move, words)
    assert _score(_counts(words, _reads(move)), move) == score, (move, words)


def test_nielsen_examples():
    # a -> ab: aB becomes abB = a; Ba becomes Bab, which cancels across the
    # seam to a
    assert _nielsen(["aB", "Ba"], ("a", "b", True)) == ["a", "a"]
    # a -> ba: Ba becomes Bba = a; aB becomes baB, which cancels across the
    # seam to a
    assert _nielsen(["Ba", "aB"], ("a", "b", False)) == ["a", "a"]
    # single letters: only the moved generator grows
    assert _nielsen(["a", "A", "b", "B"], ("a", "b", True)) == ["ab", "BA", "b", "B"]


def test_nielsen_matches_the_oracle_on_short_words():
    # every cyclically reduced word of one to six letters, single letters,
    # g E and E g among them, and words whose only cancellation after the
    # move lies across the seam
    words = [w for n in range(1, 7) for w in map("".join, itertools.product("aAbB", repeat=n))
             if _reduce(w) == w]
    assert {"a", "aB", "Ba"} <= set(words)
    for move in _NIELSEN_MOVES:
        _, _, pair, other = _reads(move)
        seam_only = [w for w in words if pair not in w and other not in w
                     and w[-1] + w[0] in (pair, other)]
        assert len(seam_only) > 50, move
        for w in words:
            _assert_move_matches_the_oracles([w], move)
    # b a lies across the seam of aBab; the empty word counts nothing
    assert _counts(["aBab", ""], _ALL_READS) == {
        "a": 2, "A": 0, "b": 1, "B": 1, "aB": 1, "Ba": 1, "ab": 1, "ba": 1,
        "bA": 0, "Ab": 0, "AB": 0, "BA": 0}


def test_simplify_keeps_abelianization_and_shortens():
    from lenssurg.search import enumerate_search

    certs = enumerate_search(2, 151).certificates
    assert certs
    subs = _nielsen_substitutions()
    assert len(subs) == 8
    for cert in certs:
        pres = build_presentation(cert)
        simple = _simplify(pres)
        assert abelianization_order(simple) == abelianization_order(pres), cert.datum
        assert len(simple.relators) == len(pres.relators)
        for new, old in zip(simple.relators, pres.relators):
            assert _is_reduced(new), cert.datum
            assert len(new) <= len(old), cert.datum
        # a local minimum: no Nielsen move and no substitution shortens it
        total = sum(map(len, simple.relators))
        for sub in subs:
            moved = [_moved(w, sub) for w in simple.relators]
            assert sum(map(len, moved)) >= total, cert.datum
        assert _substitute(list(simple.relators)) is None, cert.datum


def test_simplify_examples():
    # <a, b | ab, b> becomes <a, b | a, b> after one move
    assert _simplify(GroupPresentation(("ab", "b"))).relators == ("a", "b")
    # reduction alone: a a^-1 b b^-1 is empty, a b a^-1 is conjugate to b
    assert _simplify(GroupPresentation(("aAbB", "abA"))).relators == ("", "b")


def test_simplify_raises_if_a_step_does_not_shorten(monkeypatch):
    # every move scored as shortening: the first one that lengthens the
    # relators must stop the loop, which would otherwise never end
    monkeypatch.setattr(fgroup, "_score", lambda counts, move: -1)
    with pytest.raises(RuntimeError):
        _simplify(BINARY_ICOSAHEDRAL)


# the last eight overflow the default limit when the relators are shortened
# by Nielsen moves alone (to about 200 letters or more)
@pytest.mark.parametrize("p,q,h", [
    (1168, 201, 37), (1993, 408, 49), (2001, 721, 82),
    (1162, 253, 125), (1276, 265, 131), (1426, 783, 139), (1552, 849, 145),
    (1717, 307, 152), (1855, 319, 158), (1857, 352, 47), (1985, 416, 49),
])
def test_order_120_at_p_near_2000(p, q, h):
    pres = build_presentation(certify(p, q, h))
    # relators of about 2,000 letters come down to 5 and 7, the lengths of
    # the standard presentation of the binary icosahedral group
    assert sorted(map(len, _simplify(pres).relators)) == [5, 7]
    assert todd_coxeter(pres) == 120


def test_whole_fixture_closes_at_order_120():
    from lenssurg.tables import load_fixture

    rows = load_fixture("table1") + load_fixture("table2")
    assert len(rows) == 190
    digest = hashlib.sha256()
    for p, q, h, _ in rows:
        pres = build_presentation(certify(p, q, h))
        simple = _simplify(pres)
        assert sorted(map(len, simple.relators)) == [5, 7], (p, q, h)
        digest.update(f"{simple}\n".encode())
        assert todd_coxeter(pres) == 120, (p, q, h)
    # pins the simplified relators of every row, byte for byte
    assert digest.hexdigest() == (
        "eaf16d4ae47e141701ca690448facb8ecb5b53586f297e6e669ae113cf7ecba0")


def test_built_presentations_are_pinned():
    # d = 0 data and relator-2 exponents of both signs and 0 among them
    from lenssurg.search import enumerate_search

    certs = enumerate_search(2, 400).certificates
    assert len(certs) == 1703
    assert {c.d for c in certs} == {0, 2}
    digest = hashlib.sha256()
    ends = set()
    for cert in certs:
        pres = build_presentation(cert)
        digest.update(f"{pres}\n".encode())
        ends.add(pres.relators[1][-1])
    # relator 2 is ... a b^-e, so it ends in B for e > 0, a for 0, b for e < 0
    assert ends == {"B", "a", "b"}
    # pins the built relators of every certificate, byte for byte
    assert digest.hexdigest() == (
        "d74f833dd768d5a1df44eb840353c0dd162bbcc1ec1fe2827e89002692eb4ebb")


def test_substitute_examples():
    # aab occurs in aaab, so aaab = a aab becomes a
    assert _substitute(["aaab", "aab"]) == (4, ["a", "aab"])
    # ab occurs in Bab, which becomes B
    assert _substitute(["ab", "Bab"]) == (3, ["ab", "B"])
    # aba is a cyclic conjugate of aab, so ab = a^-1 and abbb becomes Abb
    assert _substitute(["abbb", "aab"]) == (6, ["Abb", "aab"])
    # BA, the inverse of ab, occurs in BAA, which becomes A
    assert _substitute(["BAA", "ab"]) == (3, ["A", "ab"])
    # no piece longer than half of either relator occurs in the other
    assert _substitute(["aabb", "abab"]) is None
    # the whole relator bb matches (an empty replacement); the rest, Aba,
    # then cancels across the seam down to b
    assert _substitute(["abbAb", "bb"]) == substitute_oracle(["abbAb", "bb"]) == (3, ["b", "bb"])
    # the match aab covers the whole of w = aab, which becomes A (5 letters
    # in all); substituting aab into aaba is found later and is shorter
    assert _substitute(["aab", "aaba"]) == substitute_oracle(["aab", "aaba"]) == (4, ["aab", "a"])
    # Ba starts Baa, the inverse of AAb, so Ba = A and BaBa becomes ABa,
    # which cancels across the seam to B
    assert _substitute(["BaBa", "AAb"]) == substitute_oracle(["BaBa", "AAb"]) == (4, ["B", "AAb"])
    # B in BabA leaves abA = b, b leaves ABa = B: both 2 letters, the first wins
    assert _substitute(["BabA", "B"]) == substitute_oracle(["BabA", "B"]) == (2, ["b", "B"])


@pytest.fixture(scope="module")
def fixture_inputs():
    """Every input that _simplify hands to _substitute and _nielsen on the
    190 fixture rows, as lists of argument tuples keyed by the name."""
    from lenssurg.tables import load_fixture

    inputs = {"_substitute": [], "_nielsen": []}

    def recorder(name, function):
        def record(words, *rest):
            inputs[name].append((list(words), *rest))
            return function(words, *rest)
        return record

    with pytest.MonkeyPatch.context() as patch:
        for name in inputs:
            patch.setattr(fgroup, name, recorder(name, getattr(fgroup, name)))
        for p, q, h, _ in load_fixture("table1") + load_fixture("table2"):
            fgroup._simplify(build_presentation(certify(p, q, h)))
    return inputs


def test_substitute_matches_the_oracle_on_fixture_inputs(fixture_inputs):
    assert len(fixture_inputs["_substitute"]) > 1000
    for (words,) in fixture_inputs["_substitute"]:
        assert _substitute(words) == substitute_oracle(words), words


def test_nielsen_matches_the_oracle_on_fixture_inputs(fixture_inputs):
    # every move _simplify applies, and the scores of all eight moves on
    # the words it applies them to
    assert len(fixture_inputs["_nielsen"]) > 3000
    for words, move in fixture_inputs["_nielsen"]:
        assert _nielsen(words, move) == nielsen_oracle(words, move), (move, words)
        counts = _counts(words, _ALL_READS)
        assert ([_score(counts, m) for m in _NIELSEN_MOVES]
                == [score_oracle(words, m) for m in _NIELSEN_MOVES]), words
        assert _score(_counts(words, _reads(move)), move) == score_oracle(words, move)


def test_substitute_matches_the_oracle_on_random_words():
    # periodic words u^k v make many rotations match, with long strips
    rng = random.Random(12)

    def word(n, letters="aAbB"):
        return _cyclically_reduced("".join(rng.choice(letters) for _ in range(n)))

    for trial in range(4000):
        if trial % 4 == 0:
            words = [word(rng.randrange(1, 30)) for _ in range(rng.choice((2, 3)))]
        elif trial % 4 == 1:
            words = [word(rng.randrange(1, 30), "ab") for _ in range(2)]
        else:
            u = word(rng.randrange(1, 6))
            words = [_reduce(u * rng.randrange(1, 12) + word(rng.randrange(5)))
                     for _ in range(2)]
            if trial % 4 == 3:
                words[1] = _reduce(words[1][::-1].swapcase() + word(rng.randrange(3)))
        assert _substitute(words) == substitute_oracle(words), words
