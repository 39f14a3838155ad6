"""Smoke test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))
import workloads  # noqa: E402

EXACT = [m["name"] for m in BENCH["per_layer"]
         if m["name"].startswith(("search.reject.", "dinv.d_vector.", "fgroup.todd_coxeter.over"))]


def bench(workload, trace, cwd=REPO, root=REPO):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_are_the_declared_ones():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_metric_names_units_and_checks(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        touched = {"table2-window": "alex.reduced_coeffs.calls",
                   "sweep-parallel": "search.screen.calls",
                   "group-datum": "fgroup.todd_coxeter.calls"}[workload]
        assert values[touched] > 0   # the wrappers sit at the callers' bindings


def test_exact_counts_repeat():
    first, second = (result_of(bench("table2-window", 1))["metrics"] for _ in range(2))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}


def test_refuses_to_run_without_the_package():
    bare = Path(tempfile.mkdtemp(dir=REPO, prefix=".perfbench-bare-"))
    try:
        shutil.copy(REPO / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("group-datum", 0, cwd=bare, root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def modules():
    return workloads.load_modules()


def test_wrong_rows_are_failed_operations():
    assert workloads._row_diff([(8, 1, 3, 4)], [(22, 3, 5, 11)]) == [
        "missing row (22, 3, 5, 11)", "unexpected row (8, 1, 3, 4)"]


def test_group_datum_counts_overflow_and_wrong_genus(modules):
    cert, order = workloads.group_call(modules, 8, 1, 3)
    assert order == 120
    out = workloads.group_check(modules, (8, 1, 3, 4), (cert, None))   # an overflow
    assert (out.attempted, out.failed, out.wrong) == (1, 1, [])
    out = workloads.group_check(modules, (8, 1, 3, 5), (cert, order))
    assert out.failed == 1 and "certified as" in out.wrong[0]


def test_pieces_follow_the_seed(modules):
    wl = workloads.WORKLOADS["table2-window"]
    size = wl.sizes["tiny"]
    state = wl.setup(modules, size)
    labels = [[p.label for p in wl.pieces(modules, state, seed, size)] for seed in (1, 1, 2)]
    assert labels[0] == labels[1] and sorted(labels[0]) == sorted(labels[2])


def test_draw_rows_picks_one_row_of_each_pair():
    rows = [(p, 0, 0, 0) for p in range(100)]
    drawn = workloads.draw_rows(rows, 7, 4)
    assert all(r[0] in (s, s + 1) for r, s in zip(drawn, (0, 32, 65, 98)))
    assert drawn == workloads.draw_rows(rows, 7, 4)


def test_reference_loops():
    import reference
    assert reference.cosets() >= reference.COSETS
    for kind in reference.LOOPS:
        assert reference.sample(kind) > 0
    assert reference.sample("arith", 2) > 0   # forks two loops and reaps them
