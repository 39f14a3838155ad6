"""The workloads of the lenssurg benchmark.

Each workload has a set-up step, the lazy one-time work its first call
would pay, and a list of pieces: the calls a run times, each with the
correctness check of its result.  Both receive the package modules through
``importlib``: ``import lenssurg.certify as C`` would bind the function
``certify`` that ``lenssurg/__init__.py`` re-exports under the same name.

A check returns an ``Outcome``.  ``failed`` counts operations that gave
no answer or a wrong one; ``wrong`` describes the wrong ones.  A Todd-Coxeter
overflow is a failed operation but not a wrong answer.
"""

import importlib
import os
import random
from dataclasses import dataclass, field

MODULES = ("dinv", "casson", "certify", "search", "fgroup", "tables")


def load_modules():
    """The package modules by name, imported through importlib."""
    return {name: importlib.import_module(f"lenssurg.{name}") for name in MODULES}


def nproc():
    return len(os.sched_getaffinity(0))


def cold(m):
    """Forget what earlier calls left behind: the d_vector cache and the sign."""
    m["dinv"].d_vector.cache_clear()
    m["casson"]._dedekind_sign = None


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    wrong: list = field(default_factory=list)
    report: object = None   # SearchReport, if any


@dataclass
class Piece:
    label: str
    call: object    # () -> result; the timed part
    check: object   # result -> Outcome


def _fixture_rows(m, lo, hi):
    tables = m["tables"]
    rows = tables.load_fixture("table1") + tables.load_fixture("table2")
    return sorted(r for r in rows if lo <= r[0] <= hi)


def _d2_rows(report):
    return [(c.p, c.datum.q, c.datum.h, c.g) for c in report.certs_with_d(2)]


def _row_diff(rows, reference):
    """Wrong answers between search rows and reference rows, one per row."""
    rows, reference = set(rows), set(reference)
    return ([f"missing row {r}" for r in sorted(reference - rows)]
            + [f"unexpected row {r}" for r in sorted(rows - reference)])


def _class_count(m, lo, hi):
    """Candidate classes (the search's operations) over slopes lo..hi."""
    return sum(1 for p in range(lo, hi + 1) for _ in m["search"]._class_reps(p))


def _undecided(report, classes):
    decided = len(report.certificates) + sum(report.rejections.values())
    return [] if decided == classes else [f"{decided} classes decided, {classes} enumerated"]


# -- table2-window -----------------------------------------------------------

def setup_table2_window(m, size):
    return _fixture_rows(m, *size["window"])


def pieces_table2_window(m, reference, seed, size):
    """One square-mode search per slope of the window, in seed order."""
    search = m["search"]

    def piece(p):
        rows = [r for r in reference if r[0] == p]
        classes = _class_count(m, p, p)

        def check(report):
            wrong = _row_diff(_d2_rows(report), rows) + _undecided(report, classes)
            return Outcome(classes, len(wrong), wrong, report)
        return Piece(f"p={p}", lambda: search.enumerate_search(p, p, "square", 1), check)

    slopes = list(range(size["window"][0], size["window"][1] + 1))
    random.Random(seed).shuffle(slopes)
    return [piece(p) for p in slopes]


# -- sweep-parallel ----------------------------------------------------------

def setup_sweep_parallel(m, size):
    import multiprocessing  # noqa: F401  (imported lazily by the search pool)
    return _fixture_rows(m, 2, size["pmax"])


def pieces_sweep_parallel(m, reference, seed, size):
    """One exhaustive search over 2..pmax on nproc pool workers."""
    pmax = size["pmax"]
    classes = _class_count(m, 2, pmax)

    def check(report):
        wrong = _row_diff(_d2_rows(report), reference)
        wrong += [f"certificate with d = {c.d} at p = {c.p}"
                  for c in report.certificates if c.d not in (0, 2)]
        for stage in ("bound-violation", "odd-d"):
            if report.rejections[stage]:
                wrong.append(f"{report.rejections[stage]} {stage} rejections")
        if set(report.d_histogram) != {0, 2}:
            wrong.append(f"derived-d support {sorted(report.d_histogram)}")
        return Outcome(classes, len(wrong), wrong, report)

    def call():
        return m["search"].enumerate_search(2, pmax, "exhaustive", nproc())
    return [Piece(f"2..{pmax}", call, check)]


# -- group-datum -------------------------------------------------------------

def setup_group_datum(m, size):
    return _fixture_rows(m, 2, size["pmax"])


def draw_rows(rows, seed, n):
    """One row from each of n pairs of p-adjacent rows, evenly spaced.

    Adjacent rows cost about the same, so the seed changes which rows run
    while the total work stays nearly the same from seed to seed.
    """
    rng = random.Random(seed)
    starts = [(len(rows) - 2) * k // (n - 1) for k in range(n)]
    return [rows[s + rng.randrange(2)] for s in starts]


def group_call(m, p, q, h):
    """The `lenssurg group p q h` path: certify, presentation, enumeration."""
    certify, fgroup = m["certify"], m["fgroup"]
    cert = certify.certify(p, q, h)
    order = None
    if isinstance(cert, certify.Certificate):
        order = fgroup.todd_coxeter(fgroup.build_presentation(cert))
    return cert, order


def group_check(m, row, result):
    p, q, h, g = row
    cert, order = result
    problem = None
    if not isinstance(cert, m["certify"].Certificate):
        problem = f"({p}, {q}, {h}) rejected at {cert.stage}"
    elif (cert.d, cert.g, cert.datum.q, cert.datum.h) != (2, g, q, h):
        problem = f"({p}, {q}, {h}) certified as {cert.datum}"
    elif order is not None and order != 120:
        problem = f"({p}, {q}, {h}) group order {order}"
    # an overflow (order None) gives no answer: failed, but not wrong
    return Outcome(1, int(problem is not None or order is None), [problem] if problem else [])


def pieces_group_datum(m, rows, seed, size):
    """One `group p q h` call per seed-drawn fixture row."""
    def piece(row):
        return Piece(f"group {row[0]} {row[1]} {row[2]}",
                     lambda: group_call(m, *row[:3]),
                     lambda result: group_check(m, row, result))
    return [piece(row) for row in draw_rows(rows, seed, size["pairs"])]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    pieces: object
    sizes: dict             # "full" and "tiny" (the harness smoke test)
    pool: bool = False      # runs the search pool on nproc workers
    latency: bool = False   # its pieces are single user calls
    reference: str = "arith"   # the reference loop its times are scaled by


WORKLOADS = {w.name: w for w in (
    # Top of the table-2 range on one thread: almost all time is in certify.
    Workload(
        "table2-window", setup_table2_window, pieces_table2_window,
        {"full": {"window": (1993, 2001)}, "tiny": {"window": (60, 64)}}),
    # Exhaustive d-sweep over many small slopes on the multiprocessing pool.
    Workload(
        "sweep-parallel", setup_sweep_parallel, pieces_sweep_parallel,
        {"full": {"pmax": 250}, "tiny": {"pmax": 40}}, pool=True),
    # Interactive `group p q h` calls on seed-drawn fixture rows: the only
    # workload that reaches fgroup.
    Workload(
        "group-datum", setup_group_datum, pieces_group_datum,
        {"full": {"pairs": 8, "pmax": 2007}, "tiny": {"pairs": 2, "pmax": 60}},
        latency=True, reference="cosets"),
)}
