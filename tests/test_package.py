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


def test_benchmark_bindings_resolve():
    # perfbench/spans.py wraps package functions by (module, attribute); a
    # renamed or dropped binding would make its layer metrics read 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, *_ in spans.BINDINGS + (spans.SLOPE,):
        mod = importlib.import_module(f"lenssurg.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr)
    d_vector = importlib.import_module("lenssurg.dinv").d_vector
    assert callable(d_vector.cache_info) and callable(d_vector.cache_clear)
