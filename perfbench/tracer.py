"""Outside-in tracer for seqlimit.

install() wraps the public functions of every seqlimit module, the public
methods of the classes they define and a few operator methods.  A
function is replaced in every module namespace that holds it, because
modules bind each other's functions with `from .x import y`; patching
the defining module alone would miss those calls.  uninstall() puts the
originals back, so traced and untraced passes can share one process.

Each call records a span (name, start, end, parent span, job id) in flat
arrays kept in memory; write() saves them when the run ends.  Counters
are read from arguments and return values at the wrapper, so they
repeat exactly for a given job list.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "seqlimit"
LAYERS = (
    "cli", "serialize", "words", "uniformity", "poly", "piecewise",
    "sampling", "moments", "hereditary", "permutons", "regularity", "streams",
)

# Operator and construction methods traced besides the public ones.
DUNDERS = ("__post_init__", "__add__", "__sub__", "__mul__", "__call__")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# -- counters read at the wrapper ------------------------------------------


def _letters_scanned(tr, args, kwargs, result):
    tr.count("words.letters_scanned", len(_arg(args, kwargs, 0, "w")) * len(_arg(args, kwargs, 1, "u")))


def _arith(tr, args, kwargs, result):
    tr.count("piecewise.arith.pieces_in", len(args[0].pieces) + len(args[1].pieces))
    tr.count("piecewise.arith.pieces_out", len(result.pieces))


def _float_result(tr, args, kwargs, result):
    tr.count("piecewise.float_results", isinstance(result, float))


def _approx_roots(tr, args, kwargs, result):
    tr.count("poly.approx_roots", len(result[1]))


def _letters_generated(tr, args, kwargs, result):
    tr.count("sampling.letters_generated", len(result))


def _densities(tr, args, kwargs, result):
    tr.count("moments.densities_computed", len(result))


def _certificate(tr, args, kwargs, result):
    tr.count("moments.certificate_words", len(result.words))


def _rounds(tr, args, kwargs, result):
    tr.count("regularity.rounds", result.rounds)


def _state_bound(tr, args, kwargs, result):
    family = _arg(args, kwargs, 1, "family")
    tr.maximum("hereditary.state_bound", math.prod(len(p) + 1 for p in family.patterns))


def _tester(tr, args, kwargs, result):
    tr.count("hereditary.tester_trials", result.trials)
    tr.count("hereditary.tester_accepted", result.accepted)


def _index_sets(tr, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "sigma").values)
    k = len(_arg(args, kwargs, 1, "tau").values)
    if 3 <= k <= n:  # smaller patterns are counted without enumeration
        tr.count("permutons.index_sets_enumerated", math.comb(n, k))


def _t_grid(tr, args, kwargs, result):
    m = _arg(args, kwargs, 1, "mu").m
    tr.count("permutons.grid_cells", m * m)
    if hasattr(result, "trials"):  # a Monte Carlo estimate
        tr.count("permutons.mc_trials", result.trials)


def _d_box_grid(tr, args, kwargs, result):
    L = math.lcm(args[0].m, args[1].m)
    tr.count("permutons.grid_cells", L * L)


def _sample_subperm(tr, args, kwargs, result):
    m = _arg(args, kwargs, 0, "mu").m
    tr.count("permutons.grid_cells", m * m)


def _text_in(tr, args, kwargs, result):
    tr.count("serialize.bytes_in", len(_arg(args, kwargs, 0, "text")))


def _grid_in(tr, args, kwargs, result):
    # grids reach serialize already decoded; count their compact JSON size
    obj = _arg(args, kwargs, 0, "obj")
    tr.count("serialize.bytes_in", len(json.dumps(obj, separators=(",", ":"))))


def _bytes_out(tr, args, kwargs, result):
    tr.count("serialize.bytes_out", len(result))


def _den_bits(tr, args, kwargs, result):
    tr.maximum("serialize.den_bits_max", result.denominator.bit_length())


HOOKS = {
    "words.subsequence_count": _letters_scanned,
    "piecewise.PiecewisePoly.__add__": _arith,
    "piecewise.PiecewisePoly.__sub__": _arith,
    "piecewise.PiecewisePoly.__mul__": _arith,
    "piecewise.d_box": _float_result,
    "piecewise.d1_fn": _float_result,
    "piecewise.prefix_sup_dist": _float_result,
    "poly.real_roots": _approx_roots,
    "sampling.f_random_word": _letters_generated,
    "sampling.f_random_word_vector": _letters_generated,
    "moments.limit_densities": _densities,
    "moments.forcibility_certificate": _certificate,
    "regularity.weak_regularity": _rounds,
    "hereditary.d1_to_family": _state_bound,
    "hereditary.run_tester": _tester,
    "permutons.pattern_count_perm": _index_sets,
    "permutons.t_grid": _t_grid,
    "permutons.d_box_grid": _d_box_grid,
    "permutons.sample_subperm": _sample_subperm,
    "serialize.word_from_text": _text_in,
    "serialize.limit_from_text": _text_in,
    "serialize.permutation_from_text": _text_in,
    "serialize.grid_from_obj": _grid_in,
    "serialize.dumps": _bytes_out,
    "serialize.parse_frac": _den_bits,
}

# Span counts reported as per-layer metrics: metric name -> span names.
SPAN_COUNTS = {
    "poly.pmul.calls": ("poly.pmul",),
    "poly.real_roots.calls": ("poly.real_roots",),
    "piecewise.arith.calls": (
        "piecewise.PiecewisePoly.__add__",
        "piecewise.PiecewisePoly.__sub__",
        "piecewise.PiecewisePoly.__mul__",
    ),
    "piecewise.antiderivative.calls": ("piecewise.PiecewisePoly.antiderivative",),
    "words.words_built": ("words.Word.__post_init__",),
    "streams.generators_created": ("streams.SeededStream.generator",),
    "regularity.extremal_interval.calls": ("regularity.extremal_interval",),
}


# Counters summed per pass, and maxima over the run, with their units.
COUNTERS = {
    "serialize.bytes_in": "B",
    "serialize.bytes_out": "B",
    "words.letters_scanned": "count",
    "poly.approx_roots": "count",
    "piecewise.arith.pieces_in": "count",
    "piecewise.arith.pieces_out": "count",
    "piecewise.float_results": "count",
    "sampling.letters_generated": "count",
    "moments.densities_computed": "count",
    "moments.certificate_words": "count",
    "regularity.rounds": "count",
    "hereditary.tester_trials": "count",
    "permutons.index_sets_enumerated": "count",
    "permutons.grid_cells": "count",
    "permutons.mc_trials": "count",
}
MAXIMA = {"serialize.den_bits_max": "bits", "hereditary.state_bound": "count"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- counters -------------------------------------------------------

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def maximum(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), int(value))

    # -- wrapping -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(name.split(".", 1)[0]))
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        names, starts, ends, parents, jobs = self.span_name, self.start, self.end, self.parent, self.job
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every traced binding."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        plan = []
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for cls in list(vars(mod).values()):
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        w = type(raw)(self._wrap(raw.__func__, f"{layer}.{cls.__name__}.{attr}"))
                    elif inspect.isfunction(raw):
                        w = self._wrap(raw, f"{layer}.{cls.__name__}.{attr}")
                    else:
                        continue
                    plan.append((cls, attr, raw, w))
        # module-level functions, replaced in every namespace that binds them
        wrappers: dict[object, object] = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__name__.startswith("_"):
                    continue
                home = fn.__module__ or ""
                layer = home.rsplit(".", 1)[-1]
                if not home.startswith(PACKAGE + ".") or layer not in LAYERS:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
                plan.append((mod, attr, fn, wrappers[fn]))
        return plan

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in reversed(self._patches or ()):
            setattr(ns, attr, original)

    # -- results --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def summary(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass over the job list, as (value, unit)."""
        names = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child  # self time: the span minus the time its child spans cover
        layer = np.asarray(self.layer_of, dtype=np.int64)[names]
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_s = np.bincount(layer, weights=own, minlength=len(LAYERS))
        per_name = np.bincount(names, minlength=len(self.names))
        by_name = dict(zip(self.names, (int(c) for c in per_name)))

        out: dict[str, tuple[float, str]] = {}
        for i, layer_name in enumerate(LAYERS):
            out[f"{layer_name}.calls"] = (int(calls[i]) / passes, "count")
            out[f"{layer_name}.self_s"] = (float(self_s[i]) / passes, "s")
        for metric, span_names in SPAN_COUNTS.items():
            out[metric] = (sum(by_name.get(n, 0) for n in span_names) / passes, "count")
        for key, unit in COUNTERS.items():
            out[key] = (self.counters.get(key, 0) / passes, unit)
        for key, unit in MAXIMA.items():
            out[key] = (self.maxima.get(key, 0), unit)
        trials = self.counters.get("hereditary.tester_trials", 0)
        accepted = self.counters.get("hereditary.tester_accepted", 0)
        out["hereditary.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
        # discrepancy calls made directly by best_uniformity, per best_uniformity call
        ids = {n: i for i, n in enumerate(self.names)}
        n_best = by_name.get("uniformity.best_uniformity", 0)
        nested = 0
        if n_best:
            is_disc = (names == ids["uniformity.discrepancy"]) & has_parent
            nested = int(np.count_nonzero(names[parent[is_disc]] == ids["uniformity.best_uniformity"]))
        out["uniformity.discrepancy_per_best_uniformity"] = (nested / n_best if n_best else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
            job=np.array(self.job, dtype=np.int32),
        )
