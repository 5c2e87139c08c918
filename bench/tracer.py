"""Per-module spans of one ``nvcr`` command, taken from outside the package.

Run as a script, this is a drop-in for ``python -m nvcr.cli``::

    python bench/tracer.py --spans spans.json -- eta-table --output t.csv

It times ``import numpy``, ``import scipy`` and ``import nvcr.cli``, then
replaces every public (not underscored) function of every loaded
``nvcr`` module, at each module attribute that binds it (``diagonalize``
is bound in both ``nvcr.spin_model`` and ``nvcr.odmr``), with a wrapper
that records a span.  It then calls ``nvcr.cli.main(argv)``, restores
the originals and writes the spans.  A span is ``[name, start, end,
parent]``: perf-counter seconds, and the index of the enclosing span or
-1.  ``layer_metrics`` turns span files into the per-layer metrics.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

IMPORT_ROOTS = ("numpy", "scipy")


def _canonical(value):
    """A hashable stand-in for a call argument, equal for equal content."""
    if hasattr(value, "__dataclass_fields__"):
        return (type(value).__name__,) + tuple(
            _canonical(getattr(value, f)) for f in value.__dataclass_fields__)
    if hasattr(value, "tobytes") and hasattr(value, "dtype"):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return repr(value)


def _distinct_args(tracer, name, fn, args, kwargs, result):
    if fn not in tracer.signatures:
        tracer.signatures[fn] = inspect.signature(fn)
    bound = tracer.signatures[fn].bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.distinct[name].add(_canonical(tuple(bound.arguments.items())))


def _points(tracer, name, fn, args, kwargs, result):
    # one overlap value per detuning point
    tracer.counts[f"{name}.points"] += getattr(result, "size", 1)


def _bytes_written(tracer, name, fn, args, kwargs, result):
    tracer.counts[f"{name}.bytes"] += os.path.getsize(result)


# extra counters recorded after a call returns, by span name
PROBES = {
    "eta_average.pair_average": _distinct_args,
    "analysis.spectral_overlap": _points,
    "serialize.write_csv": _bytes_written,
}


class Tracer:
    """Spans kept in memory; wrappers installed on modules and undone."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.signatures: dict = {}
        self._undo: list[tuple] = []
        self._importing: set[str] = set()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int):
        self.stack.pop()
        self.spans[index][2] = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, fn: types.FunctionType):
        name = f"{fn.__module__.removeprefix('nvcr.')}.{fn.__name__}"
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if probe is not None:
                probe(self, name, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self, modules):
        """Wrap each public function at every attribute that binds it."""
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and \
                        obj.__module__.startswith("nvcr") and \
                        not obj.__name__.startswith(("_", "<")):
                    if obj not in wrappers:
                        wrappers[obj] = self.wrap(obj)
                    setattr(module, attr, wrappers[obj])
                    self._undo.append((module, attr, obj))

    def hook_imports(self):
        """Time the outermost ``import numpy`` / ``import scipy`` calls."""
        original = builtins.__import__

        def traced_import(name, globals=None, locals=None, fromlist=(),
                          level=0):
            root = name.partition(".")[0] if level == 0 else ""
            if root in IMPORT_ROOTS and root not in self._importing:
                self._importing.add(root)
                try:
                    return self.call(f"{root}.import", original, name,
                                     globals, locals, fromlist, level)
                finally:
                    self._importing.discard(root)
            return original(name, globals, locals, fromlist, level)

        builtins.__import__ = traced_import
        self._undo.append((builtins, "__import__", original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def document(self) -> dict:
        counts = dict(self.counts)
        for name, keys in self.distinct.items():
            counts[f"{name}.distinct"] = len(keys)
        return {"spans": self.spans, "counts": counts}


def run_traced(argv: list[str], tracer: Tracer) -> int:
    """``nvcr.cli.main(argv)`` with every layer traced; returns the code."""
    tracer.hook_imports()
    try:
        tracer.call("nvcr.import", importlib.import_module, "nvcr.cli")
        tracer.install([m for n, m in sorted(sys.modules.items())
                        if n == "nvcr" or n.startswith("nvcr.")])
        cli = sys.modules["nvcr.cli"]
        try:
            return cli.main(argv)
        except SystemExit as exc:      # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.restore()


# per-layer metric -> (statistic, span name).  numpy and scipy import
# each other's modules, so their import times are self times, which add
# up to at most nvcr.import_s.  Statistics:
#   total  summed duration of spans not nested in a span of the same name
#   self   summed duration minus the time covered by direct children
#   calls  number of spans;  count  a counter recorded by a probe
LAYER_METRICS = {
    "nvcr.import_s": ("total", "nvcr.import"),
    "numpy.import_s": ("self", "numpy.import"),
    "scipy.import_s": ("self", "scipy.import"),
    "cli.main_s": ("total", "cli.main"),
    "cli.build_parser_s": ("total", "cli.build_parser"),
    "spin_model.diagonalize.calls": ("calls", "spin_model.diagonalize"),
    "spin_model.diagonalize.self_s": ("self", "spin_model.diagonalize"),
    "spin_model.build_hamiltonian.calls":
        ("calls", "spin_model.build_hamiltonian"),
    "spin_model.build_hamiltonian.self_s":
        ("self", "spin_model.build_hamiltonian"),
    "spin_model.eigenstate_map_s": ("total", "spin_model.eigenstate_map"),
    "spin_model.transverse_field_scan_s":
        ("total", "spin_model.transverse_field_scan"),
    "odmr.all_transitions.calls": ("calls", "odmr.all_transitions"),
    "odmr.all_transitions_s": ("total", "odmr.all_transitions"),
    "odmr.degeneracy_lift_s": ("total", "odmr.degeneracy_lift"),
    "odmr.synth_spectrum_s": ("total", "odmr.synth_spectrum"),
    "eta_average.pair_average.calls": ("calls", "eta_average.pair_average"),
    "eta_average.pair_average.distinct":
        ("count", "eta_average.pair_average.distinct"),
    "eta_average.pair_average.self_s": ("self", "eta_average.pair_average"),
    "eta_average.eta_table_s": ("total", "eta_average.eta_table"),
    "eta_average.multiplier_table_s":
        ("total", "eta_average.multiplier_table"),
    "analysis.fit_decay.calls": ("calls", "analysis.fit_decay"),
    "analysis.fit_decay_s": ("total", "analysis.fit_decay"),
    "analysis.fit_beta_s": ("total", "analysis.fit_beta"),
    "analysis.spectral_overlap_s": ("total", "analysis.spectral_overlap"),
    "analysis.spectral_overlap.points":
        ("count", "analysis.spectral_overlap.points"),
    "relaxation.decay_signal_s": ("total", "relaxation.decay_signal"),
    "serialize.write_csv_s": ("total", "serialize.write_csv"),
    "serialize.write_csv.bytes": ("count", "serialize.write_csv.bytes"),
    "serialize.write_json_s": ("total", "serialize.write_json"),
    "serialize.read_decay_csv_s": ("total", "serialize.read_decay_csv"),
}


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total`` and ``self`` seconds."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self"] += end - start - covered[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["total"] += end - start
    return stats


def layer_metrics(documents: list[dict]) -> dict[str, float]:
    """Sum each per-layer metric over the span documents of commands."""
    out = dict.fromkeys(LAYER_METRICS, 0)
    for doc in documents:
        stats = span_stats(doc["spans"])
        for metric, (stat, name) in LAYER_METRICS.items():
            if stat == "count":
                out[metric] += doc["counts"].get(name, 0)
            elif name in stats:
                out[metric] += stats[name][stat]
    calls = out["eta_average.pair_average.calls"]
    out["eta_average.pair_average.useful_frac"] = \
        out["eta_average.pair_average.distinct"] / calls if calls else 0.0
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans PATH -- NVCR_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    try:
        return run_traced(argv[3:], tracer)
    finally:
        Path(argv[1]).write_text(json.dumps(tracer.document()),
                                 encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
