"""Benchmark harness for lenssurg.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports lenssurg from its ``src``.
A workload is a list of pieces: short calls, each checked.  A run is a
fresh interpreter (``perfbench/rep.py``) that times round after round of
the pieces for ``--seconds``; every piece starts cold, with an empty
``d_vector`` cache.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the sum over the
pieces of each one's median time over the rounds; ``setup_s``, the median
over several fresh interpreters; and peak memory.  Both times are scaled
to a fixed machine speed by reference loops timed next to them
(``perfbench/reference.py``).  ``--trace 1`` splits the time between
an untraced and a traced run and reports the per-layer metrics, each the
median over the traced rounds, with the tracing overhead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` counts the operations of one
round; later rounds repeat them and must give the same outcomes.  The lines
before it give each metric with its unit, the failure fraction, the latency
percentiles of ``group-datum`` and a record with the machine, the commit
and the per-piece times.  ``--workload all`` runs every workload and
prefixes each metric name with its workload.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from workloads import WORKLOADS, nproc  # noqa: E402  (imports no lenssurg code)

REP_SLACK_S = 120     # a run may overrun its budget by one round
SETUP_SAMPLES = 9     # fresh interpreters timed for setup_s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_yield")):
        return "ratio"
    return "count"


def run_rep(name, seed, size, mode, budget_s=0.0, trace_dir=None):
    """Run rep.py in a fresh interpreter; its JSON record."""
    cmd = [sys.executable, str(HERE / "rep.py"), name, str(seed), size, mode, str(budget_s)]
    cmd += [trace_dir] if trace_dir else []
    proc = subprocess.Popen(cmd, cwd=REPO, text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=budget_s + REP_SLACK_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {mode} ran over {budget_s + REP_SLACK_S} s") from None
    finally:
        try:   # pool workers share the session; none may outlive the run
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{name} {mode} exited with {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def scale(seconds, ref_s, kind):
    """`seconds`, measured next to the samples `ref_s` of reference loop
    `kind`, at the fixed speed where that loop takes its NOMINAL_S."""
    return seconds * reference.NOMINAL_S[kind] / statistics.mean(ref_s)


def raw_wall_s(rec):
    """The sum over the pieces of each piece's median time, unscaled."""
    return sum(statistics.median(times) for times in rec["piece_s"])


def wall_s(name, rec):
    """The sum over the pieces of each piece's median scaled time: a piece's
    time in one round is scaled by the reference samples taken right before
    and right after it."""
    kind = WORKLOADS[name].reference
    return sum(statistics.median(scale(t, blocks[i] + blocks[i + 1], kind)
                                 for t, blocks in zip(times, rec["ref_s"]))
               for i, times in enumerate(rec["piece_s"]))


def latency_summary(samples):
    """Median and tail latency.

    The tail is the highest percentile with at least ten samples beyond it,
    reported only when that percentile lies above the median.
    """
    samples = sorted(samples)
    n = len(samples)
    out = {"samples": n}
    if n:
        out["latency_p50_ms"] = 1000 * statistics.median(samples)
    if n > 20:
        out["tail_percentile"] = 100 * (n - 10) / n
        out["latency_tail_ms"] = 1000 * samples[n - 11]
    return out


def measure(name, seed, seconds, size, traced, tmp_root):
    """One workload's result: the harness JSON object plus its full record."""
    start = time.perf_counter()
    if traced:
        plain = run_rep(name, seed, size, "run", seconds / 2)
        trace_dir = tempfile.mkdtemp(dir=tmp_root)
        left = seconds - (time.perf_counter() - start)
        with_trace = run_rep(name, seed, size, "trace", max(left, 0.0), trace_dir)
        shutil.rmtree(trace_dir)
        records = [plain, with_trace]
        layers = dict(with_trace["layers"])
        layers["trace.wall_s"] = wall_s(name, with_trace)
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / wall_s(name, plain) - 1
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        setups = []
    else:
        setups = [run_rep(name, seed, size, "setup") for _ in range(SETUP_SAMPLES)]
        plain = run_rep(name, seed, size, "run", seconds - (time.perf_counter() - start))
        records = [plain]
        values = {"wall_s": wall_s(name, plain),
                  "setup_s": statistics.median(scale(r["setup_s"], r["ref_s"], "arith")
                                               for r in setups),
                  "peak_rss_mb": plain["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    wrong = [w for r in records for w in r["wrong"]]
    result = {"correct": not wrong, "attempted": plain["attempted"],
              "failed": plain["failed"], "metrics": metrics}
    if any((r["attempted"], r["failed"]) != (plain["attempted"], plain["failed"])
           for r in records):
        result["correct"] = False
        wrong.append("the traced run's outcomes differ from the untraced run's")
    record = {
        "workload": name,
        "seed": seed,
        "size": size,
        "traced": traced,
        "rounds": {"untraced": plain["rounds"],
                   "traced": with_trace["rounds"] if traced else 0},
        "failed_frac": plain["failed"] / plain["attempted"],
        "wrong": wrong[:20],
        "raw_wall_s": raw_wall_s(plain),
        "raw_setup_s": [r["setup_s"] for r in setups],
        "peak_rss_mb": plain["peak_rss_mb"],
        "pieces": plain["pieces"],
        "piece_s": plain["piece_s"],
        "ref_s": plain["ref_s"],
        "setup_ref_s": [r["ref_s"] for r in setups],
        "numpy": plain["numpy"],
    }
    if WORKLOADS[name].latency:
        record["latency"] = latency_summary(
            [t for times in plain["piece_s"] for t in times])
    return result, record


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (REPO / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                              capture_output=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": nproc(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit}


def print_summary(result, record):
    print(f"== {record['workload']}  seed {record['seed']}  rounds "
          f"{record['rounds']['untraced']} untraced, {record['rounds']['traced']} traced")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':40s} {record['failed_frac']:.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    lat = record.get("latency")
    if lat and "latency_p50_ms" in lat:
        print(f"  {'latency_p50_ms':40s} {lat['latency_p50_ms']:.6g} ms "
              f"({lat['samples']} samples)")
        if "latency_tail_ms" in lat:
            print(f"  {'latency_tail_ms':40s} {lat['latency_tail_ms']:.6g} ms "
                  f"(p{lat['tail_percentile']:.4g} of {lat['samples']} samples)")
        else:
            print(f"  {'latency_tail_ms':40s} none: {lat['samples']} samples, "
                  "a tail above the median needs more than 20")
    for line in record["wrong"]:
        print(f"  WRONG: {line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the harness smoke test")
    args = ap.parse_args(argv)
    if not (REPO / "src" / "lenssurg" / "__init__.py").is_file():
        print(f"no lenssurg package under {REPO / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    size = "tiny" if args.tiny else "full"
    tmp_root = REPO / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        runs = [measure(name, args.seed, args.seconds, size, bool(args.trace), tmp_root)
                for name in names]
    except BenchError as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    info = machine()
    for result, record in runs:
        record.update(info)
        print_summary(result, record)
        print("record:", json.dumps(record, sort_keys=True))
    if len(runs) == 1:
        final = runs[0][0]
    else:
        final = {
            "correct": all(res["correct"] for res, _ in runs),
            "attempted": sum(res["attempted"] for res, _ in runs),
            "failed": sum(res["failed"] for res, _ in runs),
            "metrics": {f"{rec['workload']}.{k}": v
                        for res, rec in runs for k, v in res["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
