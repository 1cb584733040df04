"""Span tracer for the traced benchmark run.

``install`` wraps, from the benchmark's side, every function named in the
``__all__`` of each layer module, at every ``distillery.*`` module that binds
it, plus the ``__post_init__`` of the state and channel classes.  Internal
calls go through the module globals, so they are caught too.  Each wrapper
keeps a per-name count, inclusive time and self time in memory; a stack of
open spans charges each span's time to its parent, so self time is the
span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("qstate", "bell", "locc", "recurrence", "hashing")
CONSTRUCTORS = {
    "qstate": ("DensityOperator", "UnnormalizedOperator", "PureState"),
    "locc": ("KrausChannel", "LocalFilter"),
}
QSTATE_CONSTRUCTORS = tuple(f"qstate.{name}" for name in CONSTRUCTORS["qstate"])

# Per-layer metric -> (statistic, spans it sums), reported per traced op.
SPAN_METRICS = {
    "qstate.construct_calls": ("calls", QSTATE_CONSTRUCTORS),
    "qstate.construct_s": ("total", QSTATE_CONSTRUCTORS),
    "qstate.tensor_product_s": ("total", ("qstate.tensor_product",)),
    "qstate.json_s": ("total", ("qstate.state_to_json", "qstate.state_from_json")),
    "bell.twirl_calls": ("calls", ("bell.twirl",)),
    "bell.twirl_s": ("total", ("bell.twirl",)),
    "bell.diagnostics_s": ("total", ("bell.two_qubit_diagnostics",)),
    "bell.search_projection_s": ("total", ("bell.search_projection_witness",)),
    "locc.channel_build_s": ("total", ("locc.KrausChannel", "locc.LocalFilter")),
    "locc.carve_pairs_s": ("total", ("locc.carve_pairs",)),
    "locc.apply_selective_calls": ("calls", ("locc.apply_selective",)),
    "locc.apply_selective_s": ("total", ("locc.apply_selective",)),
    "recurrence.purify_step_calls": ("calls", ("recurrence.purify_step_exact",)),
    "recurrence.purify_step_self_s": ("self", ("recurrence.purify_step_exact",)),
    "recurrence.distill_s": ("total", ("recurrence.distill_two_qubit",)),
    "hashing.enumerate_calls": ("calls", ("hashing.enumerate_typical",)),
    "hashing.enumerate_s": ("total", ("hashing.enumerate_typical",)),
    "hashing.trial_calls": ("calls", ("hashing.run_hashing_trial",)),
    "hashing.trial_self_s": ("self", ("hashing.run_hashing_trial",)),
    "hashing.round_update_calls": ("calls", ("hashing.round_update",)),
    "hashing.round_update_s": ("total", ("hashing.round_update",)),
    "cli.invoke_s": ("total", ("cli.invoke",)),
    "cli.self_s": ("self", ("cli.invoke",)),
    # The op span is the timed call; its self time is covered by no span.
    "trace.unattributed_s": ("self", ("op",)),
}
_STATISTIC = {"calls": 0, "total": 1, "self": 2}
_OBSERVED = ("hashing.enumerate_typical", "hashing.run_hashing_trial")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self._open: list[float] = []  # child time of each open span
        self.max_dense_dim = 0
        self.enumeration_keys: set = set()
        self.visits = 0
        self.candidates = 0
        self.budget_exceeded = 0

    def wrap(self, name: str, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def value(self, statistic: str, spans) -> float:
        col = _STATISTIC[statistic]
        return sum(self.stats[s][col] for s in spans if s in self.stats)

    # Observers read counts off the arguments and results of wrapped calls.

    def _constructed(self, args, kwargs, result) -> None:
        matrix = getattr(args[0], "matrix", None)
        if matrix is not None:
            self.max_dense_dim = max(self.max_dense_dim, matrix.shape[0])

    def _enumerated(self, bound, result) -> None:
        src, n, epsilon = bound["src"], bound["n"], bound["epsilon"]
        key = (tuple(src.p), int(n), float(epsilon))
        if key in self.enumeration_keys:
            return
        self.enumeration_keys.add(key)
        if isinstance(result, tuple) and len(result) == 3:
            self.candidates += len(result[0])
            self.visits += int(result[2])

    def _trial(self, bound, result) -> None:
        self.budget_exceeded += bool(getattr(result, "budget_exceeded", False))

    def _binding(self, fn, observe):
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            observe(signature.bind(*args, **kwargs).arguments, result)

        return after

    def install(self, workload) -> list[str]:
        """Wrap the library and the workload's CLI entry; return the spans
        the metrics read that no longer exist in the library."""
        modules = [
            m for name, m in list(sys.modules.items()) if name.split(".")[0] == "distillery"
        ]
        observers = {
            "hashing.enumerate_typical": self._enumerated,
            "hashing.run_hashing_trial": self._trial,
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"distillery.{layer}")
            for name in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = f"{layer}.{name}"
                observe = observers.get(span)
                traced = self.wrap(span, fn, observe and self._binding(fn, observe))
                for m in modules:
                    if m.__dict__.get(name) is fn:
                        setattr(m, name, traced)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = mod.__dict__.get(cls_name)
                init = cls.__dict__.get("__post_init__") if cls is not None else None
                if init is not None:
                    after = self._constructed if layer == "qstate" else None
                    cls.__post_init__ = self.wrap(f"{layer}.{cls_name}", init, after)
        if hasattr(workload, "invoke"):
            workload.invoke = self.wrap("cli.invoke", workload.invoke)
        wanted = {s for _, spans in SPAN_METRICS.values() for s in spans} | set(_OBSERVED)
        cli_spans = {"cli.invoke", "op"}
        return sorted(s for s in wanted - cli_spans if s not in self.stats)
