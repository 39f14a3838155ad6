"""Span and counter recorders for the traced benchmark run.

The recorders wrap the package's functions from outside, at the binding
each caller looks up: ``certify`` imports ``reduced_coeffs``,
``lambda_rustamov`` and the rest by name, so it is ``certify``'s global
that is replaced, not ``alex.reduced_coeffs``.  ``search._screen``,
``search._certify_class`` and ``search._search_one_p`` are the only places
where the search calls its stages.

Spans are kept in memory as per-name totals: calls, busy time, and self
time (busy time minus the time of the wrapped calls made inside).  The
search pool forks after the wrappers are installed, so the workers run them
too; each worker writes its totals to ``<trace_dir>/<pid>.json`` after every
slope, and ``Recorder.take`` merges those files into its own totals, then
starts the next round from zero.
"""

import json
import os
import time
from collections import defaultdict
from functools import wraps


def _screen_pass(rec, passed):
    rec.counts["search.screen.pass"] += bool(passed)


def _overflow(rec, order):
    rec.counts["fgroup.todd_coxeter.overflows"] += order is None


def _relator_letters(rec, pres):
    rec.counts["fgroup.relator_letters"] += sum(len(r) for r in pres.relators)


# (module, attribute the caller looks up, span name, counter read off the result)
BINDINGS = (
    ("search", "_screen", "search.screen", _screen_pass),
    ("search", "_certify_class", "certify", None),
    ("certify", "_certify_class", "certify", None),
    ("certify", "is_square_mod", "arith.is_square_mod", None),
    ("certify", "reduced_coeffs", "alex.reduced_coeffs", None),
    ("certify", "unreduce", "alex.unreduce", None),
    ("certify", "os_form_check", "alex.os_form_check", None),
    ("certify", "torsion_from_poly", "alex.torsion_from_poly", None),
    ("certify", "reduced_torsions", "alex.reduced_torsions", None),
    ("certify", "dd1", "alex.dd1", None),
    ("certify", "lambda_rustamov", "casson.lambda_rustamov", None),
    ("casson", "d_vector", "casson.d_vector", None),
    ("fgroup", "build_presentation", "fgroup.build_presentation", _relator_letters),
    ("fgroup", "todd_coxeter", "fgroup.todd_coxeter", _overflow),
    ("tables", "load_fixture", "tables.load_fixture", None),
)
SLOPE = ("search", "_search_one_p", "search.search_one_p")


class Recorder:
    def __init__(self, modules, trace_dir):
        self._d_vector = modules["dinv"].d_vector
        self.trace_dir = trace_dir
        self.owner_pid = os.getpid()
        self.reset()
        for module, attr, name, counter in BINDINGS:
            mod = modules[module]
            setattr(mod, attr, self._span(name, getattr(mod, attr), counter))
        module, attr, name = SLOPE
        mod = modules[module]
        setattr(mod, attr, self._slope_span(name, getattr(mod, attr)))

    def reset(self):
        """Zero every total and take the d_vector cache counters as the base."""
        self.pid = os.getpid()
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._inner = []   # per open span: time of the wrapped calls inside it
        info = self._d_vector.cache_info()
        self._cache_base = (info.hits, info.misses)

    def cold(self):
        """Clear the d_vector cache, keeping the hits and misses so far."""
        info = self._d_vector.cache_info()
        self.counts["dinv.d_vector.hits"] += info.hits - self._cache_base[0]
        self.counts["dinv.d_vector.misses"] += info.misses - self._cache_base[1]
        self._d_vector.cache_clear()
        self._cache_base = (0, 0)

    def _span(self, name, fn, counter=None):
        @wraps(fn)
        def span(*args, **kwargs):
            self._inner.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._inner.pop()
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_s[name] += dt - inner
                if self._inner:
                    self._inner[-1] += dt
            if counter:
                counter(self, result)
            return result
        return span

    def _slope_span(self, name, fn):
        span = self._span(name, fn)

        @wraps(fn)
        def slope(*args, **kwargs):
            if os.getpid() != self.pid:   # first slope in a forked pool worker
                self.reset()
            result = span(*args, **kwargs)
            if self.pid != self.owner_pid:
                self._write()
            return result
        return slope

    def _state(self):
        info = self._d_vector.cache_info()
        counts = dict(self.counts)
        for key, now, base in (("hits", info.hits, self._cache_base[0]),
                               ("misses", info.misses, self._cache_base[1])):
            key = f"dinv.d_vector.{key}"
            counts[key] = counts.get(key, 0) + now - base
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
            "counts": counts,
        }

    def _write(self):
        path = os.path.join(self.trace_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(self._state(), fh)
        os.replace(path + ".tmp", path)

    def take(self):
        """This process's totals plus every pool worker's, and the worker count;
        then zero them all for the next round."""
        states = [self._state()]
        for fname in sorted(os.listdir(self.trace_dir)):
            if fname.endswith(".json"):
                path = os.path.join(self.trace_dir, fname)
                with open(path) as fh:
                    states.append(json.load(fh))
                os.remove(path)
        self.reset()
        merged = {"calls": defaultdict(int), "busy": defaultdict(float),
                  "self_s": defaultdict(float), "counts": defaultdict(int)}
        for state in states:
            for key, table in state.items():
                for name, value in table.items():
                    merged[key][name] += value
        workers = sum(1 for s in states if s["calls"].get(SLOPE[2]))
        return merged, workers
