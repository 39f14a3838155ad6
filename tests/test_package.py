import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import lenssurg

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
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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
