import warnings
from collections import Counter
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lenssurg import search
from lenssurg.alex import (
    coverage_depth,
    genus_from_reduced,
    is_alternating,
    reduced_coeffs,
    reduced_from_depth,
    window_starts,
)
from lenssurg.arith import Int64BoundError
from lenssurg.certify import Certificate, Rejection, _certify_class, certify, h_class_set
from lenssurg.tables import load_fixture
from lenssurg.search import (
    FAMILY_SPECS,
    _class_reps,
    _phi0_batches,
    _screen,
    conjecture_check,
    enumerate_search,
    families,
    family_slope_max,
    plotdata,
    plotdata_csv,
    report_csv,
    report_json,
)

# first Table-1 rows; independently certified anchors for the small search
TABLE1_PREFIX = [
    (8, 1, 3, 4), (22, 3, 5, 11), (38, 7, 7, 19), (40, 9, 7, 20),
    (43, 15, 12, 21), (53, 11, 8, 26), (67, 14, 9, 33), (68, 13, 9, 34),
    (70, 11, 9, 35), (71, 38, 16, 35), (87, 13, 10, 43), (100, 29, 27, 50),
    (101, 21, 18, 50), (102, 19, 11, 51), (103, 18, 11, 51), (105, 16, 11, 52),
    (106, 37, 19, 52), (113, 31, 12, 56),
]


def test_h_class_set():
    assert h_class_set(22, 5) == {5, 17, 9, 13}
    assert h_class_set(8, 3) == {3, 5}
    assert h_class_set(17, 1) == {1, 16}


def test_search_reproduces_table_prefix():
    rep = enumerate_search(2, 120, mode="square")
    rows = [(c.p, c.datum.q, c.datum.h, c.g) for c in rep.certs_with_d(2)]
    assert rows == TABLE1_PREFIX


def test_search_d0_stream_contains_torus_knot_data():
    rep = enumerate_search(2, 30, mode="square")
    rows = {(c.p, c.datum.q, c.datum.h, c.g) for c in rep.certs_with_d(0)}
    # 5- and 7-surgery on the trefoil, 9-surgery on the (2,5) torus knot
    assert (5, 4, 2, 1) in rows
    assert (7, 2, 2, 1) in rows
    assert (9, 4, 2, 2) in rows
    assert all(certify(p, q, h).g == g for p, q, h, g in rows)


def test_search_d0_stream_covers_all_torus_knot_surgeries():
    # classical oracle: p = rs +- 1 surgery on the (r,s) torus knot is a
    # lens-space surgery with lens parameter s^2, dual class s, and genus
    # (r-1)(s-1)/2; every such datum must be in the d = 0 stream
    from lenssurg.certify import canonical_h, canonical_q

    rep = enumerate_search(2, 60, mode="square")
    rows = {(c.p, c.datum.q, c.datum.h, c.g) for c in rep.certs_with_d(0)}
    checked = 0
    for r in range(2, 8):
        for s in range(r + 1, 30):
            if gcd(r, s) != 1:
                continue
            for eps in (1, -1):
                p = r * s + eps
                if not 5 <= p <= 60:
                    continue
                datum = (p, canonical_q(p, s * s), canonical_h(p, s),
                         (r - 1) * (s - 1) // 2)
                assert datum in rows, (r, s, eps, datum)
                checked += 1
    assert checked == 77


def test_mode_equivalence_small():
    sq = enumerate_search(2, 60, mode="square")
    ex = enumerate_search(2, 60, mode="exhaustive")
    assert sq.certificates == ex.certificates
    assert sq.d_histogram == ex.d_histogram


def _batched_classes(p):
    """(h, hp, starts, alive) for every class of p, through the search's
    batches: the class, the slice of the batch's window starts of its
    screening member hp, and its Phi^0 verdict."""
    reps = _class_reps(p)
    for batch, starts, first, alive in _phi0_batches(p, reps):
        for (h, hp, _, _), i, ok in zip(reps[batch].tolist(), first.tolist(), alive.tolist()):
            yield h, hp, starts[i:i + h], ok


def _batch_screen(p):
    """(h, hp, screened) for every class of p, as the search screens it:
    None for a class that fails Phi^0 or the rest of _screen."""
    for h, hp, starts, alive in _batched_classes(p):
        yield h, hp, _screen(p, hp, h, starts) if alive else None


def test_screen_agrees_with_pipeline():
    # the coverage-depth screen must reject only when the full pipeline
    # rejects with an out-of-form reduced vector, and it may pass on to that
    # rejection only a collision genus 2g >= p, which it leaves to unreduce
    passed_to_os_form = 0
    for p in range(2, 141):
        for h, hp, screened in _batch_screen(p):
            result = _certify_class(p, h, require_even_d=False)
            if isinstance(result, Certificate):
                assert screened is not None, (p, h)
            elif screened is None:
                assert result.stage == "os-form", (p, h, result.stage)
            elif result.stage == "os-form":
                g = genus_from_reduced(reduced_coeffs(p, h * h % p, h))
                assert 2 * g >= p, (p, h, g)
                passed_to_os_form += 1
    assert passed_to_os_form > 0   # the collision genera do reach the pipeline


def _one_class_starts(p, h, hp):
    """The window starts of the member h with q = [h^2]_p, built alone."""
    return window_starts(p, ((h * h) % p,), (hp,))


def _full_range_screen(p, h, hp):
    # the screen without the Phi^0 pre-check, on one class's own starts:
    # value range over every k, a~_0 = +-1, and the alternating form below
    # the collision genera; None for a rejection, else the member and its
    # depth, as _screen returns
    h, hp = hp, h   # the member hp, whose inverse is the class minimum h
    m = (h * hp - 1) // p
    depth = coverage_depth(p, h, _one_class_starts(p, h, hp))
    if not (m - 1 <= depth.min() and depth.max() <= m + 2):
        return None
    e = reduced_from_depth(depth, h, hp, p // 2 + 1)
    if abs(int(e[0])) != 1:
        return None
    g = int(np.flatnonzero(e)[-1])
    return (h, depth) if 2 * g >= p or is_alternating(e) else None


def _plain(screened):
    """A screen result as Python data, so that == compares it exactly."""
    if screened is None:
        return None
    hs, depth = screened
    assert type(hs) is int and depth.dtype == np.int64
    return hs, depth.tolist()


@pytest.mark.parametrize("slopes", [range(2, 400), range(1993, 2002)])
def test_batches_match_the_one_class_starts(slopes):
    # each class's slice of a batch holds the starts it would have alone,
    # and its Phi^0 verdict is the count of those starts at most h
    lone = shared = 0
    for p in slopes:
        reps = _class_reps(p)
        covered = 0
        for batch, starts, first, alive in _phi0_batches(p, reps):
            assert batch.start == covered and batch.stop > covered, p
            covered = batch.stop
            assert starts.dtype == np.int64
            assert len(starts) <= search._BATCH or batch.stop - batch.start == 1, p
            shared += batch.stop - batch.start > 1
            lone += len(starts) > search._BATCH
        assert covered == len(reps), p
        for h, hp, starts, ok in _batched_classes(p):
            h, hp = hp, h   # the screening member and its inverse
            alone = _one_class_starts(p, h, hp)
            assert starts.tolist() == alone.tolist(), (p, h)
            m = (h * hp - 1) // p
            assert ok == (m <= np.count_nonzero(alone <= h) <= m + 2), (p, h)
    assert shared > 0
    assert lone == 0   # no class has more than _BATCH = 8192 starts below p = 16384


def test_search_does_not_depend_on_the_batch_size(monkeypatch):
    # a cap of 7 starts splits most batches at the cap and leaves every
    # class with more than 7 starts alone in its batch
    reference = [enumerate_search(2, 160, mode) for mode in ("square", "exhaustive")]
    monkeypatch.setattr(search, "_BATCH", 7)
    lone = shared = 0
    for p in range(2, 161):
        for batch, starts, _, _ in _phi0_batches(p, _class_reps(p)):
            lone += len(starts) > 7
            shared += batch.stop - batch.start > 1
    assert lone > 0 and shared > 0
    assert [enumerate_search(2, 160, mode) for mode in ("square", "exhaustive")] == reference


def test_depth_drops_by_one_from_window_zero_to_the_last():
    # Phi^{p-1} = Phi^0 - 1: the start [q*hp]_p = h leaves the window
    for p in range(3, 400):
        for h, hp, starts, _ in _batched_classes(p):
            depth = coverage_depth(p, hp, starts)
            assert depth[p - 1] == depth[0] - 1, (p, h)


@pytest.mark.parametrize("slopes", [range(2, 400), range(1993, 2002)])
def test_screen_precheck_keeps_every_answer(slopes):
    rejected = total = 0
    for p in slopes:
        for h, hp, screened in _batch_screen(p):
            screened = _plain(screened)
            assert screened == _plain(_full_range_screen(p, h, hp)), (p, h)
            rejected += screened is None
            total += 1
    assert 0 < rejected < total


@pytest.mark.parametrize("slopes", [range(2, 401), range(1993, 2002)])
def test_certify_reads_the_screen_depth_as_built_from_scratch(slopes):
    # the search certifies a survivor on the depth of the screen's member
    # hs, [hs^2]_p; every other caller counts the windows of h, [h^2]_p
    survivors = 0
    for p in slopes:
        for h, hp, screened in _batch_screen(p):
            if screened is None:
                continue
            handed = _certify_class(p, h, require_even_d=False, screened=screened)
            assert handed == _certify_class(p, h, require_even_d=False), (p, h)
            survivors += 1
    assert survivors > 0


def test_class_reps_match_the_orbit_oracle():
    # every nontrivial orbit {+-h^{+-1}} once, at its minimum, with its size
    # and the number of distinct squares in it (h^2 or h^-2); iterating the
    # array yields one row per orbit, as the benchmark counts classes
    for p in [*range(2, 300), *range(400, 1000, 37), *range(1993, 2002)]:
        expected = []
        for h in range(2, p):
            if gcd(h, p) == 1 and h == min(h_class_set(p, h)):
                hp = pow(h, -1, p)
                squares = {h * h % p, hp * hp % p}
                expected.append([h, hp, len(h_class_set(p, h)), len(squares)])
        reps = _class_reps(p)
        assert reps.dtype == np.int64 and reps.shape == (len(expected), 4), p
        assert reps.tolist() == expected, p
        assert sum(1 for _ in reps) == len(expected), p


def test_units_are_the_trivial_orbit_and_the_classes():
    # the exhaustive count reads phi(p) as the trivial orbit {1, p - 1}
    # ({1} at p = 2) plus the orbit sizes of the classes
    for p in range(2, 2000):
        phi = sum(1 for x in range(1, p) if gcd(x, p) == 1)
        assert phi == (2 if p > 2 else 1) + int(_class_reps(p)[:, 2].sum()), p


def test_exhaustive_bulk_counts_match_bruteforce():
    # replay the per-pair accounting literally on small slopes
    for p in range(2, 26):
        rep = enumerate_search(p, p, mode="exhaustive")
        brute = Counter()
        trivial = 0
        cert_rows = set()
        units = [x for x in range(1, p) if gcd(x, p) == 1]
        for q in units:
            for h in units:
                result = certify(p, q, h, require_even_d=False)
                hmin = min(h, p - h, pow(h, -1, p), (-pow(h, -1, p)) % p)
                if isinstance(result, Rejection):
                    brute[result.stage] += 1
                elif hmin == 1:
                    trivial += 1
                else:
                    cert_rows.add(result.datum)
        assert brute == rep.rejections, p
        assert trivial == rep.trivial_pairs, p
        assert cert_rows == {c.datum for c in rep.certificates}, p


def test_search_reports():
    rep = enumerate_search(2, 40, mode="square")
    csv = report_csv(rep, d=2)
    assert csv == "p,q,h,g\n8,1,3,4\n22,3,5,11\n38,7,7,19\n40,9,7,20\n"
    pts = plotdata(rep, 2)
    assert pts == [(3, 8), (5, 22), (7, 38), (7, 40)]
    assert plotdata_csv(pts) == "h,p\n3,8\n5,22\n7,38\n7,40\n"
    doc = report_json(rep)
    assert doc["certificate_count"] == len(rep.certificates)
    assert doc["mode"] == "square"
    # every class below p = 8 passes the screen: no stage shows a zero count
    assert report_json(enumerate_search(2, 7, "square"))["rejections"] == {}
    assert report_json(enumerate_search(2, 7, "exhaustive"))["rejections"] == {"square-test": 44}


def test_plotdata_empty_below_8():
    rep = enumerate_search(2, 7, mode="square")
    assert plotdata(rep, 2) == []


def test_threaded_search_is_deterministic():
    for mode, p_max in (("square", 80), ("exhaustive", 120)):
        one = enumerate_search(2, p_max, mode, threads=1)
        two = enumerate_search(2, p_max, mode, threads=2)
        assert one.certificates == two.certificates
        assert one.rejections == two.rejections
        assert one.d_histogram == two.d_histogram
        assert one.trivial_pairs == two.trivial_pairs


def test_families_anchors():
    insts = {(i.label, i.ell): i for i in families(-1, 1)}
    a1 = insts[("a", 1)].result
    assert (a1.p, a1.datum.q, a1.datum.h, a1.g) == (22, 3, 5, 11)
    am1 = insts[("a", -1)].result
    assert (am1.p, am1.datum.q, am1.datum.h, am1.g) == (8, 1, 3, 4)
    sporadic = insts[("n", None)].result
    assert (sporadic.p, sporadic.datum.q, sporadic.datum.h, sporadic.g) == \
        (191, 34, 15, 95)
    assert all(i.ok for i in insts.values())


def test_families_genus_rules_small_range():
    for inst in families(-3, 3):
        assert inst.ok, (inst.label, inst.ell, inst.p)


def test_families_check_the_int64_bound_before_certifying(monkeypatch):
    # family l at l = 66 has p = 525,099 >= 2**19; no slope is certified first
    def fail(*args, **kwargs):
        raise AssertionError("certify ran before the int64 bound check")

    monkeypatch.setattr(search, "certify", fail)
    with pytest.raises(Int64BoundError):
        families(-66, 66)


def test_families_on_an_empty_range_give_the_sporadic_entry_alone():
    assert [(i.label, i.ell, i.result.p, i.ok)
            for i in families(1, 0)] == [("n", None, 191, True)]


@given(st.integers(-300, 300), st.integers(0, 40))
def test_family_slope_max_is_the_largest_slope_in_the_range(l0, width):
    l1 = l0 + width
    brute = max(a * ell * ell + b * ell + c
                for a, b, c in (spec.p_poly for spec in FAMILY_SPECS)
                for ell in range(l0, l1 + 1))
    assert family_slope_max(l0, l1) == brute


def test_family_and_pattern_quadratics_meet_the_scan_preconditions():
    # family_slope_max reads the range ends because every family p(l) has
    # a > 0; conjecture_check scans |l| <= isqrt(p) + 1 because every
    # pattern p(l) has 0 <= b < a and c >= 1
    assert all(spec.p_poly[0] > 0 for spec in FAMILY_SPECS)
    for _, (a, b, c), _ in search._CONJECTURE_QUADRATICS:
        assert 0 <= b < a and c >= 1, (a, b, c)


def test_conjecture_histogram_over_the_fixture_rows():
    rows = load_fixture("table1") + load_fixture("table2")
    assert len(rows) == 190
    hist = Counter(conjecture_check(certify(p, q, h)) for p, q, h, _ in rows)
    assert hist == {1: 11, 2: 11, 3: 10, 4: 10, 5: 75, 6: 71, None: 2}


def test_conjecture_check():
    by_key = {(i.label, i.ell): i.result for i in families(-1, 1)}
    f1 = by_key[("f", 1)]
    assert f1.p == 70
    assert conjecture_check(f1) == 1
    g1 = by_key[("g", 1)]
    assert g1.p == 87
    assert conjecture_check(g1) == 3
    # (22,3) is the l = -1 instance of the second quadratic pattern
    assert conjecture_check(certify(22, 3, 5)) == 2
    # the smallest slope falls outside every pattern
    assert conjecture_check(certify(8, 1, 3)) is None
    with pytest.raises(ValueError):
        conjecture_check(certify(7, 2, 2))  # d = 0


def test_pool_failure_warns_and_falls_back_to_serial(monkeypatch):
    import multiprocessing

    class NoFork:
        def Pool(self, *args, **kwargs):
            raise OSError("fork is not permitted")

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: NoFork())
    with pytest.warns(RuntimeWarning, match="fork is not permitted"):
        pooled = enumerate_search(2, 40, mode="exhaustive", threads=2)
    serial = enumerate_search(2, 40, mode="exhaustive", threads=1)
    assert report_json(pooled) == report_json(serial)
    assert pooled.certificates == serial.certificates


def test_pool_starts_no_more_workers_than_slopes(monkeypatch):
    # two slopes on 64 threads ask for a pool of 2; the fake pool records the
    # size and refuses to start, so the search runs serially and no process
    # is forked
    import multiprocessing

    sizes = []

    class Refuse:
        def Pool(self, n):
            sizes.append(n)
            raise OSError("no pool in this test")

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Refuse())
    with pytest.warns(RuntimeWarning, match="no pool in this test"):
        report = enumerate_search(5, 6, mode="square", threads=64)
    assert sizes == [2]
    assert report_json(report) == report_json(enumerate_search(5, 6, mode="square"))


def test_slope_above_the_int64_bound_raises_without_a_pool_fallback():
    # the bound is checked before any pool starts, so no "searching serially"
    # warning comes first and the range is not searched twice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Int64BoundError):
            enumerate_search(2**19, 2**19 + 1, "square", threads=2)


def test_worker_error_surfaces_from_the_pool_without_a_fallback(monkeypatch):
    # only a failure to start the pool falls back to serial; a ValueError
    # raised in a worker (forked after the patch) is the search's own error
    def fail(p, mode):
        raise ValueError(f"worker failed at p = {p}")

    monkeypatch.setattr(search, "_search_one_p", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="worker failed"):
            enumerate_search(2, 5, "exhaustive", threads=2)
