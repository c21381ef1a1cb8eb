"""Span tracing of ringcat's public functions, installed from outside.

`Tracer.install` wraps every public module-level function of every
ringcat layer and puts the wrapper at each import site: the modules
import one another's functions by name, so `ringcat.cli.load_esystem`
and `ringcat.fileio.load_esystem` are both replaced.  `uninstall`
restores the originals, so untraced passes run the unmodified library.

Each call records one span: name, start, end, parent span, the job it
belongs to, and, for a few functions, work counts taken from the
arguments or the result.  Spans stay in memory until the run ends.

`layer_metrics` turns spans into the per-layer metrics listed in
`PER_LAYER`; a layer's self time is its spans' durations minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = (
    "rings", "ablin", "bimult", "crossed", "anncat", "transport",
    "cohomology", "extensions", "corpus", "fileio", "cli",
)

TRIPLE_LAWS = frozenset(
    {"tensor-associative", "tensor-distributive-left", "tensor-distributive-right"}
)


def _shape_cells(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        rows = len(a)
        return rows * (len(a[0]) if rows else 0)
    return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0


def _homs_candidates(q, r) -> int:
    if q.unit is None or int(q.unit) == 0:
        return 1
    return r.order ** max(q.order - 2, 0)


# Work counts recorded at the boundary: name -> fn(args, kwargs, result).
COUNTERS = {
    "anncat.anncat_axiom_check": lambda a, kw, res: {
        "cells": sum(r.checked for r in res.results),
        "triple_cells": sum(r.checked for r in res.results if r.law in TRIPLE_LAWS),
    },
    "transport.reduced_axiom_check": lambda a, kw, res: {
        "cells": sum(r.checked for r in res.results)
    },
    "ablin.smith_normal_form": lambda a, kw, res: {"cells": _shape_cells(a[0])},
    "cohomology.complex_for": lambda a, kw, res: {
        "cells": _shape_cells(res.d2_map.matrix)
    },
    "rings.validate_ring": lambda a, kw, res: {"cells": res.order**3},
    "bimult.bimult_ring": lambda a, kw, res: {"cells": res.ring.order**2},
    "corpus.unital_homs": lambda a, kw, res: {"candidates": _homs_candidates(a[0], a[1])},
    "extensions.exhaustive_extension_search": lambda a, kw, res: {"found": len(res)},
    "extensions.enumerate_extensions": lambda a, kw, res: {"classes": len(res)},
}
for _fn in ("load_ring", "load_esystem", "load_module", "load_section", "load_extension"):
    COUNTERS[f"fileio.{_fn}"] = lambda a, kw, res: {"bytes": os.path.getsize(a[0])}


class Tracer:
    """Records spans for wrapped calls; see the module docstring."""

    def __init__(self):
        # Span: [name, start, end, parent, job, error, counts]
        self.spans: list[list] = []
        self.job = None
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], tracer.job, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = type(e).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result

        return traced

    def span(self, name: str, start: float, end: float):
        """Record a span measured elsewhere (a child process, an import)."""
        self.spans.append([name, start, end, self._stack[-1], self.job, None, None])
        return len(self.spans) - 1

    def install(self):
        """Wrap every public function of each layer at all its import sites."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ringcat.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    # Public methods live on the class, so one patch covers every caller.
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
                            self._patches.append((obj, meth, fn))
        sites = [m for n, m in sys.modules.items() if n.startswith("ringcat.")]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics.

# (metric, unit, how): `how` is one of
#   ("self", layer)            self time of the layer's spans, seconds
#   ("time", fn, ...)          time in calls not nested in another listed call
#   ("calls", fn, ...)         number of calls
#   ("count", key, fn, ...)    sum of a recorded work count
#   ("errors", kind, fn, ...)  non-nested calls that raised (kind: "guard"
#                              for SearchGuardError, "other" for the rest)
# Metrics computed elsewhere carry ("special",).
PER_LAYER = [
    ("anncat.self_s", "s", ("self", "anncat")),
    ("anncat.check_s", "s", ("time", "anncat.anncat_axiom_check")),
    ("anncat.check_calls", "count", ("calls", "anncat.anncat_axiom_check")),
    ("anncat.cells_checked", "count", ("count", "cells", "anncat.anncat_axiom_check")),
    ("anncat.triple_law_cells", "count", ("count", "triple_cells", "anncat.anncat_axiom_check")),
    ("anncat.cells_per_s", "1/s", ("special",)),
    ("crossed.self_s", "s", ("self", "crossed")),
    ("crossed.validate_esystem_s", "s", ("time", "crossed.validate_esystem")),
    ("crossed.validate_esystem_calls", "count", ("calls", "crossed.validate_esystem")),
    ("crossed.is_regular_s", "s", ("time", "crossed.is_regular")),
    ("crossed.is_regular_calls", "count", ("calls", "crossed.is_regular")),
    ("crossed.validate_bimodule_s", "s", ("time", "crossed.validate_bimodule")),
    ("crossed.validate_bimodule_calls", "count", ("calls", "crossed.validate_bimodule")),
    ("transport.self_s", "s", ("self", "transport")),
    ("transport.reduce_s", "s", ("time", "transport.reduce_esystem")),
    ("transport.reduce_calls", "count", ("calls", "transport.reduce_esystem")),
    ("transport.reduced_check_s", "s", ("time", "transport.reduced_axiom_check")),
    ("transport.reduced_check_cells", "count", ("count", "cells", "transport.reduced_axiom_check")),
    ("cohomology.self_s", "s", ("self", "cohomology")),
    ("cohomology.complex_for_s", "s", ("time", "cohomology.complex_for")),
    ("cohomology.complex_for_calls", "count", ("calls", "cohomology.complex_for")),
    ("cohomology.d2_matrix_cells", "count", ("count", "cells", "cohomology.complex_for")),
    ("cohomology.classify_functors_s", "s", ("time", "cohomology.classify_functors")),
    ("cohomology.classify_functors_calls", "count", ("calls", "cohomology.classify_functors")),
    ("cohomology.cached_complexes", "count", ("special",)),
    ("ablin.self_s", "s", ("self", "ablin")),
    ("ablin.snf_s", "s", ("time", "ablin.smith_normal_form")),
    ("ablin.snf_calls", "count", ("calls", "ablin.smith_normal_form")),
    ("ablin.snf_cells", "count", ("count", "cells", "ablin.smith_normal_form")),
    ("ablin.kernel_s", "s", ("time", "ablin.kernel")),
    ("ablin.homology_s", "s", ("time", "ablin.homology")),
    ("ablin.solve_s", "s", ("time", "ablin.solve", "ablin.solve_with_certificate")),
    ("extensions.self_s", "s", ("self", "extensions")),
    ("extensions.search_s", "s", ("time", "extensions.exhaustive_extension_search")),
    ("extensions.search_calls", "count", ("calls", "extensions.exhaustive_extension_search")),
    ("extensions.search_found", "count", ("count", "found", "extensions.exhaustive_extension_search")),
    ("extensions.guard_trips", "count", ("errors", "guard", "extensions.exhaustive_extension_search", "extensions.equivalent")),
    ("extensions.enumerate_s", "s", ("time", "extensions.enumerate_extensions")),
    ("extensions.enumerate_calls", "count", ("calls", "extensions.enumerate_extensions")),
    ("extensions.equivalent_s", "s", ("time", "extensions.equivalent")),
    ("extensions.equivalent_calls", "count", ("calls", "extensions.equivalent")),
    ("extensions.classes_built", "count", ("count", "classes", "extensions.enumerate_extensions")),
    ("extensions.errors", "count", ("errors", "other", "extensions.enumerate_extensions", "extensions.exhaustive_extension_search")),
    ("extensions.validate_factor_system_s", "s", ("time", "extensions.validate_factor_system")),
    ("extensions.validate_factor_system_calls", "count", ("calls", "extensions.validate_factor_system")),
    ("extensions.crossed_ring_s", "s", ("time", "extensions.crossed_ring")),
    ("extensions.crossed_ring_calls", "count", ("calls", "extensions.crossed_ring")),
    ("rings.self_s", "s", ("self", "rings")),
    ("rings.validate_ring_s", "s", ("time", "rings.validate_ring")),
    ("rings.validate_ring_calls", "count", ("calls", "rings.validate_ring")),
    ("rings.validate_ring_cells", "count", ("count", "cells", "rings.validate_ring")),
    ("rings.ideal_cokernel_s", "s", ("time", "rings.ideal_cokernel")),
    ("rings.decompose_abelian_s", "s", ("time", "rings.decompose_abelian")),
    ("bimult.self_s", "s", ("self", "bimult")),
    ("bimult.ring_s", "s", ("time", "bimult.bimult_ring")),
    ("bimult.ring_calls", "count", ("calls", "bimult.bimult_ring")),
    ("bimult.ring_cells", "count", ("count", "cells", "bimult.bimult_ring")),
    ("bimult.enumerate_s", "s", ("time", "bimult.enumerate_bimultiplications")),
    ("bimult.enumerate_calls", "count", ("calls", "bimult.enumerate_bimultiplications")),
    ("corpus.self_s", "s", ("self", "corpus")),
    ("corpus.unital_homs_s", "s", ("time", "corpus.unital_homs")),
    ("corpus.unital_homs_calls", "count", ("calls", "corpus.unital_homs")),
    ("corpus.unital_homs_candidates", "count", ("count", "candidates", "corpus.unital_homs")),
    ("corpus.build_s", "s", ("special",)),
    ("cli.self_s", "s", ("self", "cli")),
    ("cli.start_ms", "ms", ("special",)),
    ("cli.verb_s", "s", ("time", "cli.main")),
    ("cli.verb_calls", "count", ("calls", "cli.main")),
    ("fileio.self_s", "s", ("self", "fileio")),
    ("fileio.load_s", "s", ("time", "fileio.load_ring", "fileio.load_esystem", "fileio.load_module", "fileio.load_section", "fileio.load_extension")),
    ("fileio.load_calls", "count", ("calls", "fileio.load_ring", "fileio.load_esystem", "fileio.load_module", "fileio.load_section", "fileio.load_extension")),
    ("fileio.bytes_read", "count", ("count", "bytes", "fileio.load_ring", "fileio.load_esystem", "fileio.load_module", "fileio.load_section", "fileio.load_extension")),
    ("fileio.write_s", "s", ("special",)),
    ("import.self_s", "s", ("self", "import")),
    ("process.self_s", "s", ("self", "process")),
    ("bench.self_s", "s", ("special",)),
    ("trace.spans", "count", ("special",)),
    ("trace.overhead_ratio", "ratio", ("special",)),
]

WRITERS = ("fileio.write_ring", "fileio.write_esystem", "fileio.write_module",
           "fileio.write_section", "fileio.write_extension")


def _self_times(spans):
    """Per-span self time: duration minus the child spans it covers."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child, strict=True)]


def outermost(spans, names) -> list[list]:
    """Spans of the named functions that no other named span encloses."""
    names = set(names)
    out = []
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(s)
    return out


def layer_self_times(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, t in zip(spans, _self_times(spans), strict=True):
        layer = s[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def layer_metrics(spans, passes: int, special: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass.  `spans` cover only the traced
    passes; `special` supplies the values marked ("special",)."""
    selfs = layer_self_times(spans)
    out = {}
    for name, unit, how in PER_LAYER:
        kind = how[0]
        if kind == "special":
            out[name] = (float(special[name]), unit)
            continue
        if kind == "self":
            value = selfs.get(how[1], 0.0)
        elif kind == "time":
            value = sum(s[2] - s[1] for s in outermost(spans, how[1:]))
        elif kind == "calls":
            fns = set(how[1:])
            value = sum(1 for s in spans if s[0] in fns)
        elif kind == "count":
            fns = set(how[2:])
            value = sum((s[6] or {}).get(how[1], 0) for s in spans if s[0] in fns)
        else:
            guard = how[1] == "guard"
            value = sum(
                1 for s in outermost(spans, how[2:])
                if s[5] is not None and (s[5] == "SearchGuardError") == guard
            )
        out[name] = (value / passes, unit)
    return out
