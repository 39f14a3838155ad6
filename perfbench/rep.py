"""One run of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED SIZE MODE BUDGET_S [TRACE_DIR]

SIZE is "full" or "tiny".  MODE is "setup" (stop after the set-up step),
"run" or "trace" (wrap the layers, with TRACE_DIR for the pool workers).
A run repeats rounds of the workload's pieces until the next round would
end more than BUDGET_S seconds after the interpreter started; it always
makes one.  Each piece starts cold and is checked.  Imports lenssurg from
the checkout's ``src`` and prints one JSON line: set-up time, per-piece
times, operation counts, wrong answers, peak memory and, when traced, the
per-layer metrics of every round.
"""

import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

T0 = time.perf_counter()
REPO = Path(__file__).resolve().parent.parent

SEARCH_STAGES = ("coprimality", "square-test", "os-form", "negative-torsion",
                 "non-integral-d", "odd-d", "correction-mismatch", "bound-violation")
ALEX = ("reduced_coeffs", "unreduce", "os_form_check", "torsion_from_poly",
        "reduced_torsions", "dd1")
TIMED = ("casson.lambda_rustamov", "fgroup.build_presentation", "fgroup.todd_coxeter")
BUSY_ONLY = ("casson.d_vector", "arith.is_square_mod", "tables.load_fixture")
REF_SAMPLES = 2   # reference loops timed between two pieces
COUNTS = ("dinv.d_vector.hits", "dinv.d_vector.misses",
          "fgroup.todd_coxeter.overflows", "fgroup.relator_letters")


def peak_rss_mb(pool_size):
    """Peak RSS of this process plus pool_size times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_size * child) / 1024


def layer_metrics(totals, workers, outcomes, search_wall_s):
    """The per-layer metrics of one traced round."""
    calls, busy, self_s, counts = (totals[k] for k in ("calls", "busy", "self_s", "counts"))
    screened, passed = calls["search.screen"], counts["search.screen.pass"]
    reports = [o.report for o in outcomes if o.report is not None]
    rejections = Counter()
    for report in reports:
        rejections.update(report.rejections)
    certificates = sum(len(r.certificates) for r in reports)
    slope_busy = busy["search.search_one_p"]
    metrics = {
        "search.screen.calls": screened,
        "search.screen.busy_s": busy["search.screen"],
        "search.screen.pass_ratio": passed / screened if screened else 0.0,
        "search.certify_yield": certificates / passed if passed else 0.0,
        "search.search_one_p.busy_s": slope_busy,
        "search.pool.workers": workers,
        "search.pool.idle_frac": (1 - slope_busy / (workers * search_wall_s)
                                  if workers else 0.0),
        "certify.calls": calls["certify"],
        "certify.busy_s": busy["certify"],
        "certify.self_s": self_s["certify"],
    }
    for stage in SEARCH_STAGES:
        metrics[f"search.reject.{stage}"] = rejections[stage]
    for name in [f"alex.{fn}" for fn in ALEX] + list(TIMED):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy[name]
    for name in BUSY_ONLY:
        metrics[f"{name}.busy_s"] = busy[name]
    for name in COUNTS:
        metrics[name] = counts[name]
    return metrics


def signature(outcomes):
    return [(o.attempted, o.failed, o.wrong) for o in outcomes]


def main(argv):
    name, seed, size_name, mode, budget_s, *trace_dir = argv
    sys.path.insert(0, str(REPO / "src"))
    import reference
    import workloads

    wl = workloads.WORKLOADS[name]
    size = wl.sizes[size_name]
    m = workloads.load_modules()
    if not Path(m["search"].__file__).resolve().is_relative_to(REPO / "src"):
        sys.exit(f"lenssurg was imported from {m['search'].__file__}, not from src/")
    recorder = None
    if mode == "trace":
        import spans
        recorder = spans.Recorder(m, trace_dir[0])
    state = wl.setup(m, size)
    setup_s = time.perf_counter() - T0
    if mode == "setup":
        ref_s = [reference.sample("arith") for _ in range(REF_SAMPLES)]
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
        return

    pieces = wl.pieces(m, state, int(seed), size)
    if recorder:   # the set-up step's calls belong to no round
        setup_busy = recorder.take()[0]["busy"]
    times = [[] for _ in pieces]
    round_s, layers, first, wrong, ref_s = [], [], None, [], []
    ref_procs = workloads.nproc() if wl.pool else 1

    def ref_block():
        return [reference.sample(wl.reference, ref_procs) for _ in range(REF_SAMPLES)]
    while True:
        r0 = time.perf_counter()
        outcomes = []
        blocks = []   # reference samples before each piece and after the last
        for piece, piece_times in zip(pieces, times):
            blocks.append(ref_block())
            if recorder:
                recorder.cold()
            workloads.cold(m)
            t0 = time.perf_counter()
            result = piece.call()
            piece_times.append(time.perf_counter() - t0)
            outcomes.append(piece.check(result))
        blocks.append(ref_block())
        ref_s.append(blocks)
        round_s.append(time.perf_counter() - r0)
        if first is None:
            first = outcomes
            wrong = [w for o in outcomes for w in o.wrong]
        elif signature(outcomes) != signature(first):
            wrong.append(f"round {len(round_s)} gave other outcomes than round 1")
        if recorder:
            layers.append(layer_metrics(*recorder.take(), outcomes,
                                        sum(t[-1] for t in times)))
        if time.perf_counter() - T0 + statistics.median(round_s) > float(budget_s):
            break

    import numpy
    record = {
        "setup_s": setup_s,
        "pieces": [p.label for p in pieces],
        "piece_s": times,
        "ref_s": ref_s,
        "rounds": len(round_s),
        "attempted": sum(o.attempted for o in first),
        "failed": sum(o.failed for o in first),
        "wrong": wrong[:20],
        "peak_rss_mb": peak_rss_mb(workloads.nproc() if wl.pool else 0),
        "numpy": numpy.__version__,
    }
    if recorder:
        record["layers"] = {key: statistics.median(r[key] for r in layers)
                            for key in layers[0]}
        record["layers"]["tables.load_fixture.busy_s"] = setup_busy["tables.load_fixture"]
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
