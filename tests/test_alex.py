from math import gcd
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lenssurg.alex import (
    UnreduceError,
    dd1,
    genus_from_reduced,
    is_alternating,
    is_symmetric,
    os_form_check,
    phi,
    reduce_poly,
    reduced_coeffs,
    reduced_from_depth,
    torsion_from_poly,
    unreduce,
    window_starts,
)
from lenssurg.certify import h_class_set
from lenssurg.dinv import spin_c_c
from golden import DELTA_K2, DELTA_K6, TREFOIL, delta_k1, delta_lift

ONE = (1,)


@pytest.mark.parametrize("p,q,h,k,expected", [
    (8, 1, 3, 4, 0),
    (8, 1, 3, 7, 2),
    (8, 1, 3, 0, 3),
])
def test_phi_examples(p, q, h, k, expected):
    assert phi(p, q, h, k) == expected


def test_phi_total_mass():
    # summing over all residues k, each j contributes h hits
    for p, q, h in [(8, 1, 3), (22, 3, 5), (13, 9, 3), (11, 4, 2)]:
        hp = pow(h, -1, p)
        assert sum(phi(p, q, h, k) for k in range(p)) == h * hp


def test_zero_step_edges():
    # q = 0 and h = 0 make the step of i -> q*i (or h*i) zero, where a
    # strided arange would raise; dinv.spin_c_labels, which reduced_from_depth
    # reads, builds that constant progression on a branch of its own, and
    # window_starts multiplies by zero
    assert window_starts(1, (0,), (1,)).tolist() == [0]
    assert window_starts(5, (0,), (3,)).tolist() == [0, 0, 0]
    assert reduced_coeffs(1, 0, 0).tolist() == [1]


def test_reduced_coeffs_anchor():
    v = reduced_coeffs(8, 1, 3)
    assert v.dtype == np.int64
    assert v.tolist() == [-1, 1, 0, -1, 2, -1, 0, 1]


def test_reduced_coeffs_unknot():
    for p in (2, 3, 8, 23):
        assert reduced_coeffs(p, 1, 1).tolist() == [1] + [0] * (p - 1)


def test_reduced_coeffs_is_reduction_of_golden_polynomials():
    assert reduced_coeffs(22, 3, 5).tolist() == reduce_poly(DELTA_K6, 22).tolist()
    assert reduced_coeffs(8, 1, 3).tolist() == reduce_poly(DELTA_K2, 8).tolist()


def test_reduced_coeffs_matches_direct_count():
    # coverage_depth against the definitional per-residue count, for every
    # coprime (q, h) and not only the square class q = h^2
    for p in range(2, 36):
        units = [x for x in range(1, p) if gcd(x, p) == 1]
        for h in units:
            hp = pow(h, -1, p)
            m = (h * hp - 1) // p
            c = ((h + 1 + p) * (h - 1) // 2) % p
            for q in units:
                v = reduced_coeffs(p, q, h)
                direct = tuple(-m + phi(p, q, h, (h * i + c) % p) for i in range(p))
                assert tuple(v.tolist()) == direct, (p, q, h)


def test_reduced_coeffs_sum_is_one_for_any_coprime_triple():
    for p in range(2, 30):
        for q in range(1, p):
            if gcd(q, p) != 1:
                continue
            for h in range(1, p):
                if gcd(h, p) != 1:
                    continue
                assert reduced_coeffs(p, q, h).sum() == 1


def test_reduced_coeffs_symmetric_on_square_compatible_data():
    for p in range(2, 60):
        for h in range(1, p):
            if gcd(h, p) != 1:
                continue
            assert is_symmetric(reduced_coeffs(p, h * h % p, h)), (p, h)


def test_reduced_coeffs_orbit_invariance():
    # all class representatives {+-h^{+-1}} produce the same reduced vector;
    # the search certifies on the depth of the member its screen picked
    for p in range(2, 200):
        for h in range(1, p // 2 + 1):
            if gcd(h, p) != 1 or h != min(h_class_set(p, h)):
                continue
            base = reduced_coeffs(p, h * h % p, h).tolist()
            for r in h_class_set(p, h) - {h}:
                assert reduced_coeffs(p, r * r % p, r).tolist() == base, (p, h, r)


def test_os_form_check():
    assert os_form_check(DELTA_K2) == (3, (1, 3, 4))
    assert os_form_check(ONE) == (0, ())
    assert os_form_check((1, 1)) is None      # t^-1 + 1 + t
    assert os_form_check((0, 1)) is None      # no constant term
    assert os_form_check(DELTA_K6) == (5, (2, 5, 6, 10, 11))


def _alternating_oracle(coeffs):
    """The plain loop: nonzero coefficients from the top down read +1, -1, ..., ending at index 0."""
    support = [i for i in range(len(coeffs) - 1, -1, -1) if coeffs[i] != 0]
    if not support or support[-1] != 0:
        return False
    return all(coeffs[i] == (-1) ** k for k, i in enumerate(support))


def test_is_alternating_matches_loop():
    rng = Random(7)
    vectors = [(), (0,), (1,), (-1,), (1, 0, 0), (-1, 1), (1, -1, 1), (1, 1)]
    vectors += [tuple(rng.choice((-1, 0, 0, 1, 2)) for _ in range(rng.randint(1, 9)))
                for _ in range(3000)]
    vectors += [_random_os_poly(rng) for _ in range(200)]
    assert any(map(_alternating_oracle, vectors)) and not all(map(_alternating_oracle, vectors))
    for v in vectors:
        assert is_alternating(np.array(v, dtype=np.int64)) == _alternating_oracle(v), v


@given(st.lists(st.integers(-1, 2), min_size=1, max_size=60))
def test_alternating_vectors_in_the_screen_range_have_a_unit_constant(e):
    # the search's screen leaves |a~_0| = 1 to is_alternating below the
    # collision genera: every vector it accepts has a~_0 = +-1
    if is_alternating(np.array(e, dtype=np.int64)):
        assert abs(e[0]) == 1, e


def test_genus_from_reduced():
    assert genus_from_reduced(reduced_coeffs(8, 1, 3)) == 4
    assert genus_from_reduced(reduced_coeffs(22, 3, 5)) == 11
    assert genus_from_reduced(reduced_coeffs(17, 1, 1)) == 0


def test_unreduce_golden():
    assert unreduce(reduced_coeffs(8, 1, 3), 4).tolist() == list(DELTA_K2)
    assert unreduce(reduced_coeffs(22, 3, 5), 11).tolist() == list(DELTA_K6)
    assert unreduce((1,) + (0,) * 8, 0).tolist() == list(ONE)


def test_unreduce_top_collision():
    # 2g = p + 1: the K_{1,p} shape reduces to the unknot vector
    for p in (5, 9, 11, 15):
        v = (1,) + (0,) * (p - 1)
        g = (p + 1) // 2
        assert unreduce(v, g).tolist() == list(delta_k1(p))


def test_unreduce_failures():
    v = (1, 1, 0, -1, 0, 0)  # not symmetric
    with pytest.raises(UnreduceError):
        unreduce(v, 2)
    with pytest.raises(UnreduceError):
        unreduce(reduced_coeffs(8, 1, 3), 10)  # genus too large for modulus
    # middle entry odd when 2g = p
    v = (1, 1, 1, 1)
    with pytest.raises(UnreduceError):
        unreduce(v, 2)


def test_unreduce_roundtrip():
    for p, q, h in [(8, 1, 3), (22, 3, 5), (38, 11, 7), (7, 4, 2)]:
        v = reduced_coeffs(p, q, h)
        g = genus_from_reduced(v)
        assert reduce_poly(unreduce(v, g), p).tolist() == v.tolist()


def test_torsions():
    assert torsion_from_poly(DELTA_K2).tolist() == [2, 1, 1, 1]
    assert torsion_from_poly(ONE).tolist() == []
    assert torsion_from_poly(TREFOIL).tolist() == [1]


def _random_os_poly(rng):
    k = rng.randint(0, 6)
    ns = sorted(rng.sample(range(1, 20), k))
    coeffs = [0] * ((ns[-1] if ns else 0) + 1)
    coeffs[0] = (-1) ** k
    for j, n in enumerate(ns, start=1):
        coeffs[n] = (-1) ** (k - j)
    return tuple(coeffs)


def test_torsion_second_difference_duality():
    # a_i = t_{i-1} - 2 t_i + t_{i+1} for i >= 1 (the symmetric-extension
    # convention forced by the surgery formula), and 2 * sum_Z t_i = dd1
    rng = Random(20240)
    for _ in range(200):
        poly = _random_os_poly(rng)
        assert os_form_check(poly) is not None
        assert poly[0] + 2 * sum(poly[1:]) == 1   # Delta(1) = 1
        ts = torsion_from_poly(poly).tolist()

        def t(i):
            i = abs(i)
            return ts[i] if i < len(ts) else 0

        padded = poly + (0,)
        for i in range(1, len(poly) + 1):
            assert padded[i] == t(i - 1) - 2 * t(i) + t(i + 1)
        total = t(0) + 2 * sum(ts[1:])
        assert 2 * total == dd1(poly)


def test_dd1_examples():
    assert dd1(DELTA_K2) == 16
    assert dd1(ONE) == 0
    assert dd1(TREFOIL) == 2


_COEFFS = st.lists(st.integers(-10**6, 10**6), max_size=300)


@given(_COEFFS, st.integers(1, 200))
def test_reduce_poly_matches_add_at_oracle(coeffs, p):
    # the scatter-add it replaced, over the two-sided sequence x_{1-n} .. x_{n-1}
    x = np.array(coeffs, dtype=np.int64)
    j = np.arange(1 - len(x), len(x), dtype=np.int64)
    oracle = np.zeros(p, dtype=np.int64)
    np.add.at(oracle, j % p, x[np.abs(j)])
    out = reduce_poly(coeffs, p)
    assert out.dtype == np.int64
    assert out.tolist() == oracle.tolist()


@given(st.lists(st.integers(-2, 2), max_size=40), st.booleans())
def test_is_symmetric_matches_loop(half, mirror):
    e = half + half[:0:-1] if mirror else half   # mirrored: e[i] = e[-i]
    assert is_symmetric(np.array(e, dtype=np.int64)) == all(
        e[i] == e[(len(e) - i) % len(e)] for i in range(len(e)))


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=300))
def test_genus_from_reduced_matches_loop(e):
    support = [i for i in range(len(e) // 2 + 1) if e[i]]
    if support:
        assert genus_from_reduced(np.array(e, dtype=np.int64)) == support[-1]


@given(st.lists(st.integers(-10**6, 10**6), max_size=300), st.integers(-3, 3))
def test_torsion_from_poly_matches_loop(tail, skew):
    a = [1 - 2 * sum(tail) + skew] + tail      # Delta(1) = 1 + skew
    if skew:
        with pytest.raises(ValueError):
            torsion_from_poly(a)
        return
    t = torsion_from_poly(a)
    assert t.dtype == np.int64
    assert t.tolist() == [sum((j - i) * a[j] for j in range(i + 1, len(a)))
                          for i in range(len(a) - 1)]


@given(_COEFFS)
def test_dd1_matches_python_sum(coeffs):
    assert dd1(coeffs) == 2 * sum(i * i * a for i, a in enumerate(coeffs))


@st.composite
def _window_args(draw):
    p = draw(st.integers(1, 3000))
    classes = st.tuples(st.integers(1 - p, p - 1), st.integers(0, p))
    return p, draw(st.lists(classes, min_size=1, max_size=6))


@given(_window_args())
def test_window_starts_matches_loop(args):
    # one class or several, one after another, as the search batches them
    p, classes = args
    q, n = zip(*classes)
    starts = window_starts(p, q, n)
    assert starts.dtype == np.int64
    assert starts.tolist() == [(qc * j) % p for qc, nc in classes for j in range(1, nc + 1)]


@st.composite
def _coprime_pair(draw):
    p = draw(st.integers(1, 3000))
    h = draw(st.integers(0, p - 1).filter(lambda h: gcd(h, p) == 1))
    return p, h


@given(_coprime_pair(), st.booleans(), st.randoms(use_true_random=False))
def test_reduced_from_depth_matches_loop(pair, half, rng):
    # any depth vector will do: the kernel only reads it at [h*i + c]_p
    p, h = pair
    hp = pow(h, -1, p) if p > 1 else 0
    count = p // 2 + 1 if half else p
    depth = [rng.randrange(-5, 6) for _ in range(p)]
    c, m = spin_c_c(h, p), (h * hp - 1) // p
    out = reduced_from_depth(np.array(depth, dtype=np.int64), h, hp, count)
    assert out.dtype == np.int64
    assert out.tolist() == [depth[(h * i + c) % p] - m for i in range(count)]


def test_delta_relation():
    for p in (5, 9, 11, 15):
        assert delta_lift(ONE, p) == delta_k1(p)
    assert delta_lift(DELTA_K2, 9) != DELTA_K2
    # the L(7,2) pair: trefoil vs the genus-4 polynomial
    assert delta_lift(TREFOIL, 7) == DELTA_K2
    with pytest.raises(ValueError):
        delta_lift(ONE, 4)
