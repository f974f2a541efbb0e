"""Spans and counts around the calls into vvmf's layers, kept in memory.

The tracer replaces each traced public function with a wrapper in every
vvmf module namespace that holds it, because modules import one another's
functions by name and look them up in their own globals.  Nothing under
src/ changes; uninstall() puts the originals back.

A span is (id, name, start_ns, end_ns, parent_id, op_id).  A layer's
self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Public functions called inside the hot loops of other layers (once per
# power of t, per Fourier coefficient, per matrix entry).  Wrapping them
# would add a Python call per iteration to the loops being measured, so
# their time stays in the caller's self time.
LEAF_HELPERS = {
    "as_matrix", "max_abs", "clean", "is_identity", "snap_integer",
    "resolve_tolerance", "default_tolerance", "kappa_s_value", "kappa_t_value",
    "default_order_cap", "default_closure_cap",
    # The steps of reading a representation file: their time is what
    # repfile.parse_rep.self_ms reports.
    "load_repfile", "parse_repfile", "to_representation",
}

MODULES = ("linalg", "modrep", "invariants", "dimensions", "series",
           "catalog", "repfile", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset_stats(self):
        self.self_ns.clear()
        self.total_ns.clear()
        self.calls.clear()
        self.counts.clear()

    # -- installation -------------------------------------------------------

    def prepare(self, package):
        """Find every namespace slot holding a traced function; patch nothing yet."""
        import importlib

        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or attr in LEAF_HELPERS or not callable(fn)
                        or isinstance(fn, type) or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}"))
        for ns in [package] + list(modules.values()):
            for attr, value in vars(ns).items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((ns, attr, value, entry[1]))

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_ns[name] += duration - frame[1]
                tracer.total_ns[name] += duration
                tracer.calls[name] += 1
                tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def write(self, path, meta):
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counts recorded at the layer boundaries ----------------------------------


def _find_t_order(counts, args, kwargs, result, error):
    if error is None:
        counts["modrep.find_t_order.powers"] += result
        return
    import vvmf.modrep as modrep

    cap = args[1] if len(args) > 1 else kwargs.get("order_cap")
    if isinstance(error, modrep.TOrderNotFound):
        counts["modrep.find_t_order.powers"] += cap or modrep.default_order_cap()
        counts["modrep.find_t_order.failures"] += 1


def _t_eigenphases(counts, args, kwargs, result, error):
    n = vars(args[0]).get("t_order")
    if n:
        counts["invariants.t_eigenphases.dft_terms"] += n * n


def _enumerate_closure(counts, args, kwargs, result, error):
    if error is None:
        counts["modrep.enumerate_closure.elements"] += len(result)


def _weight_one(counts, args, kwargs, result, error):
    w = args[1] if len(args) > 1 else kwargs.get("w")
    # "parity-zero" is the rule for a representation without an odd part,
    # where weight one is zero by parity and nothing is asked of an odd part.
    if error is None and w == 1 and result.rule != "parity-zero":
        counts["dimensions.weight1.asked"] += 1
        counts["dimensions.weight1.exact"] += result.status == "exact"


_HOOKS = {
    "modrep.find_t_order": _find_t_order,
    "invariants.t_eigenphases": _t_eigenphases,
    "modrep.enumerate_closure": _enumerate_closure,
    "dimensions.dim_holomorphic": _weight_one,
    "dimensions.dim_cusp": _weight_one,
}
