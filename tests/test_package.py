import ast
import importlib
import importlib.util
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import lenssurg

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(lenssurg.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lenssurg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("module,name", [
    ("arith", "reduce_mod"), ("arith", "Fraction"), ("arith", "gcd"),
    ("dinv", "d_lens_p1"), ("dinv", "spin_c_Q"),
    ("certify", "derive_d"), ("alex", "delta_relation_check"), ("alex", "ReducedVector"),
    ("alex", "SymmetricPoly"), ("alex", "delta_lift"), ("fgroup", "BINARY_ICOSAHEDRAL"),
])
def test_test_only_helpers_are_not_exported(module, name):
    # test oracles (tests/golden.py, tests/test_arith.py), not package API
    assert name not in importlib.import_module(f"lenssurg.{module}").__all__
    assert not hasattr(lenssurg, name)


def test_names_live_in_their_modules():
    # the package re-exports nothing, so a submodule is never shadowed by a
    # function of the same name
    import lenssurg.certify
    assert isinstance(lenssurg.certify, ModuleType)
    public = [n for n, v in vars(lenssurg).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)]
    assert public == []


def _spans():
    """perfbench/spans.py, the recorder of the traced benchmark run."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_bindings_resolve():
    # perfbench/spans.py wraps package functions by (module, attribute); a
    # renamed or dropped binding would make its layer metrics read 0
    spans = _spans()
    for module, attr, *_ in spans.BINDINGS + (spans.SLOPE,):
        mod = importlib.import_module(f"lenssurg.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr)
    d_vector = importlib.import_module("lenssurg.dinv").d_vector
    assert callable(d_vector.cache_info) and callable(d_vector.cache_clear)


def test_traced_search_reaches_the_benchmark_bindings(monkeypatch, tmp_path):
    # a binding that still resolves but that the search no longer calls
    # (say, certify's reduced_coeffs) would also read 0; the search must go
    # through every layer binding that a square search at p ~ 60 exercises
    spans = _spans()
    bound = spans.BINDINGS + (spans.SLOPE,)
    modules = {name: importlib.import_module(f"lenssurg.{name}")
               for name in {"dinv"} | {module for module, *_ in bound}}
    for module, attr, *_ in bound:   # the recorder's wrappers go at teardown
        monkeypatch.setattr(modules[module], attr, getattr(modules[module], attr))
    recorder = spans.Recorder(modules, str(tmp_path))
    report = modules["search"].enumerate_search(60, 64, "square", 1)
    totals, workers = recorder.take()
    assert report.certificates and workers == 1
    layers = ("search.search_one_p", "search.screen", "certify", "alex.reduced_coeffs",
              "alex.unreduce", "alex.torsion_from_poly", "alex.reduced_torsions",
              "alex.dd1", "casson.lambda_rustamov")
    assert [n for n in layers if not totals["calls"][n]] == []
    assert 0 < totals["counts"]["search.screen.pass"] < totals["calls"]["search.screen"]


# numpy's Python-level helpers cost more per call than the ufunc loop they
# wrap on the arrays of a few hundred entries that every search candidate
# builds (np.cumsum 2.0 us against np.add.accumulate 0.6 us, a.any() 1.0 us
# against np.count_nonzero 0.3 us, at 100 entries); the per-candidate
# modules call np.add.accumulate, np.add.reduce, np.minimum.reduce,
# np.maximum.reduce, np.count_nonzero and ndarray.nonzero instead
_NP_HELPERS = {"cumsum", "flatnonzero", "array_equal"}   # called as np.<name>
_ANY_HELPERS = {"any", "all", "sum", "min", "max"}   # as np.<name> or as an array method


def test_hot_path_calls_no_numpy_python_helpers():
    found = []
    for name in ("alex", "dinv", "search", "certify"):
        path = Path(importlib.import_module(f"lenssurg.{name}").__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            if (attr in _ANY_HELPERS
                    or attr in _NP_HELPERS and isinstance(owner, ast.Name) and owner.id == "np"):
                found.append(f"{name}.py:{node.lineno} {ast.unparse(node.func)}")
    assert found == []


# a progression a + s*i is one strided np.arange(a, a + s*n, s) and no
# scaled one (s * np.arange(n) + a allocates and fills twice): that took
# reduced_from_depth at p = 1999 from 9.5 to 7.6 us (half vector) and 14.9
# to 12.3 us (full); BENCH_strided_progressions.json has the end-to-end
# runs.  window_starts, which builds the screen's progressions [qj]_p for
# many classes at once, scales its positions in place (starts *= ...), so
# it allocates nothing twice either
def test_hot_path_builds_no_scaled_arange():
    def is_arange(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "arange" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np")

    found = []
    for name in ("alex", "dinv", "search", "certify"):
        path = Path(importlib.import_module(f"lenssurg.{name}").__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                    and (is_arange(node.left) or is_arange(node.right))):
                found.append(f"{name}.py:{node.lineno} {ast.unparse(node)}")
    assert found == []


# a residue progression [a + s*i]_p is reduced by the floor quotient,
# k - p * (k // p), as dinv.spin_c_labels and alex.window_starts do, not by
# np.arange(...) % p: numpy divides an int64 array by one scalar with a
# precomputed reciprocal, while np.remainder divides entry by entry (33.6 us
# against 7.5 us on 8,192 entries, CHANGES.md line 60)
def test_hot_path_reduces_no_arange_with_remainder():
    found = []
    for name in ("alex", "dinv", "search", "certify"):
        path = Path(importlib.import_module(f"lenssurg.{name}").__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.Call)
                    and ast.unparse(node.left.func) == "np.arange"):
                found.append(f"{name}.py:{node.lineno} {ast.unparse(node)}")
    assert found == []


def _lenssurg_file_under_pytest(tmp_path, pythonpath):
    """lenssurg.__file__ after pytest runs one of this suite's tests in a
    fresh interpreter, with PYTHONPATH set to pythonpath (unset if None)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    test = f"{ROOT / 'tests' / 'test_package.py'}::test_names_live_in_their_modules"
    code = ("import sys, pytest\n"
            f"rc = pytest.main([{test!r}, '-q', '-p', 'no:cacheprovider'])\n"
            "print(sys.modules['lenssurg'].__file__)\n"
            "sys.exit(rc)\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    return Path(run.stdout.splitlines()[-1]).resolve()


def test_pythonpath_selects_the_code_under_test(tmp_path):
    # PYTHONPATH=<other checkout>/src pytest <this checkout>/tests must test
    # the other checkout's code; without PYTHONPATH, this checkout's src
    copy = tmp_path / "other" / "src"
    shutil.copytree(ROOT / "src" / "lenssurg", copy / "lenssurg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert copy.resolve() in _lenssurg_file_under_pytest(tmp_path, str(copy)).parents
    assert ROOT / "src" in _lenssurg_file_under_pytest(tmp_path, None).parents
