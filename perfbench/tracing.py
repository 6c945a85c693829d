"""Span tracing of tdlab's layers, installed from outside the library.

``Tracer.install()`` replaces every public function of the layer modules
with a wrapper that records a span (name, start, end, parent, pass id).
The wrapper is bound wherever a layer module bound the original name: in
the defining module, in ``tdlab.experiments`` (which binds names at import)
and in every other layer that imported it, so calls between layers are seen
too.  Private helpers are not wrapped; their time counts as self time
of the nearest wrapped caller.

Counts that are cheap to take at the same boundaries are kept next to the
spans: distinct inputs of the two most repeated calls, RK4 steps asked of
the flows, kernel-TD divergences, ICP subsets tested and CSV bytes written.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("mdp", "flows", "spectral", "kernel_td", "capacity", "evidence", "causal", "experiments")
# Flow functions whose ``cfg`` may ask for RK4 integration (``method="rk4"``).
RK4_FLOWS = (
    "flows.td_value_flow",
    "flows.mc_value_flow",
    "flows.nstep_value_flow",
    "flows.td_lambda_value_flow",
    "flows.coupled_feature_flow",
    "flows.random_cumulant_flow",
    "kernel_td.kernel_td_flow",
)


class Tracer:
    """Records spans and boundary counts for one traced benchmark run."""

    COUNTERS = ("flows.rk4_steps", "kernel_td.divergences", "causal.subsets_tested", "experiments.csv_bytes")
    DISTINCT = ("spectral.eigendecompose", "evidence.blr_posterior")

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, pass id)
        self._stack: list[int] = []
        self.pass_id = -1
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # pass id -> name -> count
        self._distinct: dict = defaultdict(lambda: defaultdict(set))  # pass id -> name -> keys
        self._keep_alive: dict = {}  # id -> object, so ids stay unique for the run
        self._signatures: dict = {}
        self._hooks = {
            "spectral.eigendecompose": self._count_distinct_matrix,
            "evidence.blr_posterior": self._count_distinct_posterior,
            "causal.linear_misa": self._count_subsets,
            "experiments.write_csv": self._count_csv_bytes,
            **{name: self._count_flow for name in RK4_FLOWS},
        }
        self._bindings: list = []  # (module, attribute, original, wrapper)
        self.wrapped: list[str] = []  # "layer.function" of every wrapped function

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers in place of the originals (built on first use)."""
        if not self._bindings:
            self._bindings = self._build_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _build_bindings(self) -> list:
        modules = [importlib.import_module(f"tdlab.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    self.wrapped.append(f"{layer}.{attr}")
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        return [
            (module, attr, obj, wrappers[obj])
            for module in modules
            for attr, obj in vars(module).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        calls_key = name + ".calls"
        hook = self._hooks.get(name)
        if name in RK4_FLOWS:
            self._signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
                self.counts[self.pass_id][calls_key] += 1
                if hook is not None:
                    hook(name, args, kwargs, result, exc)

        return traced

    # -- boundary counts ----------------------------------------------------

    def _count_distinct_matrix(self, name, args, kwargs, result, exc):
        import numpy as np

        P = np.ascontiguousarray(args[0] if args else kwargs["P"], dtype=float)
        key = (P.shape, hashlib.blake2b(P.tobytes(), digest_size=16).digest())
        self._distinct[self.pass_id][name].add(key)

    def _count_distinct_posterior(self, name, args, kwargs, result, exc):
        bound = dict(zip(("model", "data", "upto"), args), **kwargs)
        model, data = bound["model"], bound["data"]
        self._keep_alive.update({id(model): model, id(data): data})
        self._distinct[self.pass_id][name].add((id(model), id(data), bound.get("upto")))

    def _count_subsets(self, name, args, kwargs, result, exc):
        if result is not None:
            self.counts[self.pass_id]["causal.subsets_tested"] += len(result.per_subset_pvalues)

    def _count_csv_bytes(self, name, args, kwargs, result, exc):
        if exc is None:
            path = args[0] if args else kwargs["path"]
            self.counts[self.pass_id]["experiments.csv_bytes"] += os.path.getsize(path)

    def _count_flow(self, name, args, kwargs, result, exc):
        """Divergences, and RK4 steps asked for: ``t_end / dt``, cut at a divergence."""
        from tdlab.flows import DivergenceDetected

        cfg = self._signatures[name].bind(*args, **kwargs).arguments["cfg"]
        diverged = isinstance(exc, DivergenceDetected)
        if name == "kernel_td.kernel_td_flow" and diverged:
            self.counts[self.pass_id]["kernel_td.divergences"] += 1
        if cfg.method == "rk4" and (exc is None or diverged):
            t_end = exc.time if diverged else cfg.t_end
            self.counts[self.pass_id]["flows.rk4_steps"] += max(1, round(t_end / cfg.dt)) if t_end > 0 else 0

    # -- span bookkeeping ---------------------------------------------------

    def open_span(self, name: str) -> int:
        """Start a span opened by the harness itself (one experiment call)."""
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.pass_id))
        self._stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        name, start, _, parent, pass_id = self.spans[index]
        self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent, pass_id)

    def self_times(self) -> dict:
        """pass id -> span name -> summed self seconds (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, pass_id), children in zip(self.spans, child_time):
            out[pass_id][name] += (end - start) - children
        return out

    def durations(self) -> dict:
        """pass id -> span name -> summed wall seconds."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, pass_id in self.spans:
            out[pass_id][name] += end - start
        return out

    def distinct_ratio(self, pass_id: int, name: str) -> float:
        calls = self.counts[pass_id][name + ".calls"]
        return len(self._distinct[pass_id][name]) / calls if calls else 0.0

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")

