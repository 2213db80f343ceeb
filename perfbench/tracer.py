"""Span tracing around the public functions of each layer, from outside the program.

:func:`install` replaces every public function of each layer module with a
wrapper that records one span per call: its name, start, end, parent span and
the trace id of the op that caused it.  A function is replaced wherever it is
bound: in its own module, in each sibling module that imported it, in the
package namespace, and in module-level dispatch dicts such as
``cli.COMMANDS``.  Nothing inside the program is edited.

Spans live in compact arrays in memory; :meth:`Tracer.raw` reduces them to
per-function call counts and self times plus the layer counters, and
:func:`layer_metrics` turns (possibly summed) raw records into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "partition_asymptotics"

# `errors` defines exception types only and does no work, so it is no layer.
LAYERS = ("precision", "partitions", "coefficients", "expansion", "bounds", "series", "verify", "cli")

# per-layer metric -> unit, in report order
PER_LAYER_UNITS = {
    "partitions.calls": "count",
    "partitions.self_s": "s",
    "partitions.entries_built": "count",
    "partitions.bytes_written": "bytes",
    "partitions.bytes_read": "bytes",
    "coefficients.exact_calls": "count",
    "coefficients.exact_self_s": "s",
    "coefficients.value_calls": "count",
    "coefficients.value_hit_ratio": "ratio",
    "coefficients.certify_calls": "count",
    "coefficients.certify_self_s": "s",
    "expansion.calls": "count",
    "expansion.self_s": "s",
    "expansion.full_sum_calls": "count",
    "expansion.full_sum_reuse_ratio": "ratio",
    "expansion.precision_errors": "count",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "bounds.nu_calls": "count",
    "bounds.nu_reuse_ratio": "ratio",
    "precision.calls": "count",
    "precision.self_s": "s",
    "precision.lambert_calls": "count",
    "series.calls": "count",
    "series.self_s": "s",
    "verify.checked": "count",
    "verify.self_s": "s",
    "cli.processes": "count",
    "cli.self_s": "s",
}


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the durations of its direct child spans.

    The wrappers record one synchronous call stack, so child spans nest inside
    their parent and never overlap one another.
    """
    out = [end - start for start, end in zip(starts, ends)]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[idx] - starts[idx]
    return out


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list = []
        self._layers: list = []  # layer of each name
        self.name_of = array("i")
        self.parent_of = array("i")
        self.trace_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.trace_id = 0
        self.counters: Counter = Counter()
        self._stack: list = []
        self._seen = defaultdict(set)

    def new_op(self) -> None:
        """Start a new trace id: spans recorded from now on belong to the next op."""
        self.trace_id += 1

    def seen_before(self, kind: str, key) -> bool:
        seen = self._seen[kind]
        if key in seen:
            return True
        seen.add(key)
        return False

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(tracer, args, kwargs, result,
        exc, outer)`` runs after each call, ``outer`` when the caller is another layer."""
        layer = name.split(".", 1)[0]
        name_id = len(self.names)
        self.names.append(name)
        self._layers.append(layer)
        layers, stack, clock = self._layers, self._stack, time.perf_counter
        name_of, parent_of, trace_of, starts, ends = (
            self.name_of, self.parent_of, self.trace_of, self.start, self.end,
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            outer = parent < 0 or layers[name_of[parent]] != layer
            name_of.append(name_id)
            parent_of.append(parent)
            trace_of.append(self.trace_id)
            ends.append(0.0)
            stack.append(idx)
            result = exc = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, result, exc, outer)

        functools.update_wrapper(traced, fn)
        return traced

    def raw(self) -> dict:
        """Per-function call counts and self times, plus the layer counters."""
        selfs = self_times(self.start, self.end, self.parent_of)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name_id, value in zip(self.name_of, selfs):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += value
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
            "spans": len(self.start),
        }


def sum_raw(records) -> dict:
    """Add raw records of several processes (a CLI pass) into one."""
    total = {"calls": Counter(), "self_s": Counter(), "counters": Counter()}
    spans = 0
    for rec in records:
        for key in total:
            total[key].update(rec[key])
        spans += rec["spans"]
    return {**{k: dict(v) for k, v in total.items()}, "spans": spans}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(raw: dict) -> dict:
    """The per-layer metrics named in :data:`PER_LAYER_UNITS`, from a raw record."""
    calls, self_s, counters = raw["calls"], raw["self_s"], raw["counters"]

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = layer_sum(calls, layer)
        values[f"{layer}.self_s"] = layer_sum(self_s, layer)
    values.update(
        {
            "partitions.entries_built": counters.get("entries_built", 0),
            "partitions.bytes_written": counters.get("bytes_written", 0),
            "partitions.bytes_read": counters.get("bytes_read", 0),
            "coefficients.exact_calls": calls.get("coefficients.coeff_exact", 0),
            "coefficients.exact_self_s": self_s.get("coefficients.coeff_exact", 0.0),
            "coefficients.value_calls": calls.get("coefficients.coeff_c", 0),
            "coefficients.value_hit_ratio": _ratio(
                counters.get("value_hits", 0), calls.get("coefficients.coeff_c", 0)
            ),
            "coefficients.certify_calls": calls.get("coefficients.certified_abs_less", 0),
            "coefficients.certify_self_s": self_s.get("coefficients.certified_abs_less", 0.0),
            "expansion.full_sum_calls": calls.get("expansion.full_sum", 0),
            "expansion.full_sum_reuse_ratio": _ratio(
                counters.get("full_sum_repeats", 0), calls.get("expansion.full_sum", 0)
            ),
            "expansion.precision_errors": counters.get("precision_errors", 0),
            "bounds.nu_calls": calls.get("bounds.nu", 0),
            "bounds.nu_reuse_ratio": _ratio(counters.get("nu_repeats", 0), calls.get("bounds.nu", 0)),
            "precision.lambert_calls": calls.get("precision.lambert_w_minus1", 0),
            "verify.checked": counters.get("checked", 0),
            "cli.processes": counters.get("cli_processes", 0),
        }
    )
    return {name: values[name] for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# hooks: counters measured at the layer boundary
# ---------------------------------------------------------------------------


def _digits(ctx):
    return getattr(ctx, "digits", None)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _coeff_c(tracer, args, kwargs, result, exc, outer):
    key = (_arg(args, kwargs, 0, "m"), _digits(_arg(args, kwargs, 1, "ctx")))
    if tracer.seen_before("coeff_c", key):
        tracer.counters["value_hits"] += 1


def _full_sum(tracer, args, kwargs, result, exc, outer):
    key = (_arg(args, kwargs, 0, "n"), _digits(_arg(args, kwargs, 1, "ctx")))
    if tracer.seen_before("full_sum", key):
        tracer.counters["full_sum_repeats"] += 1


def _nu(tracer, args, kwargs, result, exc, outer):
    key = (_arg(args, kwargs, 0, "N"), repr(_arg(args, kwargs, 1, "C")), _digits(_arg(args, kwargs, 2, "ctx")))
    if tracer.seen_before("nu", key):
        tracer.counters["nu_repeats"] += 1


def _pentagonal(tracer, args, kwargs, result, exc, outer):
    if result is not None:
        tracer.counters["entries_built"] += result.n_max + 1


def _save_table(tracer, args, kwargs, result, exc, outer):
    path = _arg(args, kwargs, 1, "path")
    if exc is None and os.path.exists(path):
        tracer.counters["bytes_written"] += os.path.getsize(path)


def _load_table(tracer, args, kwargs, result, exc, outer):
    path = _arg(args, kwargs, 0, "path")
    if os.path.exists(path):
        tracer.counters["bytes_read"] += os.path.getsize(path)


def _verify(tracer, args, kwargs, result, exc, outer):
    if outer and result is not None:
        tracer.counters["checked"] += getattr(result, "checked", 0)


def _expansion_error(tracer, args, kwargs, result, exc, outer):
    if outer and exc is not None and type(exc).__name__ == "PrecisionError":
        tracer.counters["precision_errors"] += 1


HOOKS = {
    "coefficients.coeff_c": _coeff_c,
    "expansion.full_sum": _full_sum,
    "bounds.nu": _nu,
    "partitions.partition_pentagonal": _pentagonal,
    "partitions.save_table": _save_table,
    "partitions.load_table": _load_table,
}


def _hook_for(name: str, layer: str):
    if name in HOOKS:
        return HOOKS[name]
    if layer == "verify":
        return _verify
    if layer == "expansion":
        return _expansion_error
    return None


def public_functions(module) -> dict:
    """Public callables defined in ``module`` itself (classes excluded)."""
    return {
        attr: value
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    }


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer wherever it is bound."""
    package = importlib.import_module(PACKAGE)
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    namespaces = [vars(package)] + [vars(m) for m in modules.values()]
    namespaces += [v for ns in list(namespaces) for v in ns.values() if type(v) is dict]
    replacements = {}
    for layer, module in modules.items():
        for attr, fn in public_functions(module).items():
            name = f"{layer}.{attr}"
            replacements[id(fn)] = tracer.wrap(name, fn, _hook_for(name, layer))
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            wrapped = replacements.get(id(value))
            if wrapped is not None:
                namespace[key] = wrapped
