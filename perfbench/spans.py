"""Per-layer spans recorded from outside fieldkde, by wrapping its entry points.

A binding ``module:attr`` is wrapped where the consuming module holds it (for
example ``fieldkde.clt:generate_coupled_fields``), because ``from x import f``
copies the name and patching the defining module alone would miss the call.
Bindings that no longer exist are reported absent instead of failing, so a
refactor of the engine leaves the benchmark running.

Spans are (name, start, end, parent index) and stay in memory until the run
writes them out. Only spans opened in this process are seen, so traced passes
run at one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _result_size(original, args, kwargs, result) -> float:
    return float(np.size(result))


def _field_bytes(original, args, kwargs, result) -> float:
    """estimate_field_bytes(d, n, M) of one coupled generation, as computed, not measured."""
    field_module = sys.modules.get("fieldkde.field")
    estimate = getattr(field_module, "estimate_field_bytes", None)
    try:
        bound = _signature(original).bind_partial(*args, **kwargs).arguments
        return float(estimate(bound["model"].d, bound["n"], bound["plan"].M))
    except (TypeError, KeyError, AttributeError):  # the entry point changed shape
        return math.nan


def _file_size(original, args, kwargs, result) -> float:
    return float(os.path.getsize(result)) if isinstance(result, str) and os.path.isfile(result) else 0.0


@dataclass(frozen=True)
class Layer:
    """A span name, the bindings that open it, and what to accumulate per call."""

    name: str
    bindings: tuple
    amount: object = None  # (original, args, kwargs, result) -> float, summed per span
    mutes: tuple = ()  # bindings left unwrapped while a span of this layer is open
    span: bool = True  # False: count calls only


LAYERS = (
    Layer("coefficients.plan", ("fieldkde.cli:plan_truncation", "fieldkde.clt:plan_truncation")),
    # the planner's own calls to the certified tail mass
    Layer("coefficients.mass", ("fieldkde.field:residual_sqrt_mass",), span=False),
    Layer(
        "coefficients.conditions",
        (
            "fieldkde.cli:check_decay_window",
            "fieldkde.cli:check_hallin",
            "fieldkde.cli:check_machkouri_qsum",
            "fieldkde.cli:check_condition_c",
            "fieldkde.clt:check_decay_window",
        ),
    ),
    Layer("innovations.draw", ("fieldkde.field:draw_lattice", "fieldkde.clt:_draw"), _result_size),
    Layer("field.convolve", ("fieldkde.field:lattice_convolve",)),
    Layer(
        "field.generate",
        ("fieldkde.clt:generate_coupled_fields", "fieldkde.cli:generate_coupled_fields"),
        _field_bytes,
    ),
    # the quadrature's scalar kernel calls are centering work, not kernel sums,
    # and unwrapping them keeps the tracer from dominating kde_curve
    Layer(
        "kde.center",
        ("fieldkde.clt:expected_kde", "fieldkde.cli:expected_kde"),
        mutes=("fieldkde.kde:KernelModel.__call__",),
    ),
    Layer("kde.oracle", ("fieldkde.clt:density_oracle", "fieldkde.cli:density_oracle")),
    Layer("kde.estimate", ("fieldkde.cli:kde_estimate",)),
    Layer("kde.kernel", ("fieldkde.kde:KernelModel.__call__",), _result_size),
    # the experiment layer: subcommand handlers and the clt experiments they
    # run; its self time is reductions, KS tests, stacking and row building
    Layer(
        "clt.experiment",
        (
            "fieldkde.cli:cmd_check_conditions",
            "fieldkde.cli:cmd_kde",
            "fieldkde.cli:cmd_clt_run",
            "fieldkde.cli:cmd_blocks",
            "fieldkde.cli:cmd_moment_check",
            "fieldkde.cli:cmd_fixed_m_gap",
            "fieldkde.cli:run_clt_experiment",
            "fieldkde.cli:_block_samples",
            "fieldkde.cli:block_decomposition_check",
            "fieldkde.cli:lindeberg_estimate",
            "fieldkde.cli:rectangle_moment_check",
            "fieldkde.cli:wu_inequality_check",
            "fieldkde.cli:fixed_m_gap",
        ),
    ),
    Layer(
        "reporting.serialise",
        ("fieldkde.cli:write_report", "fieldkde.cli:write_csv", "fieldkde.reporting:RunManifest.write"),
        _file_size,
    ),
)

ROOT_SPAN = "cli.main"


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, how it is read off the spans, and what it should move.

    ``kind`` is "total" (inclusive seconds), "self" (seconds minus child spans),
    "calls", "amount" (summed per-call amounts) or "derived" (computed by the
    run from untraced passes). ``moves`` names the end-to-end metric and the
    workload on which a change to this layer should show.
    """

    name: str
    unit: str
    better: str
    layer: str
    kind: str
    moves: str
    # False: printed only, because the layer is idle (exactly 0 s) on some workloads
    in_result: bool = True


PER_LAYER = (
    LayerMetric("coefficients.plan_s", "s", "lower", "coefficients.plan", "total", "setup_s, all workloads"),
    LayerMetric("coefficients.plan_calls", "count", "lower", "coefficients.plan", "calls", "setup_s, all workloads"),
    LayerMetric("coefficients.mass_calls", "count", "lower", "coefficients.mass", "calls", "setup_s, all workloads"),
    LayerMetric("coefficients.conditions_s", "s", "lower", "coefficients.conditions", "total", "wall_s on kde_curve"),
    LayerMetric("innovations.draw_s", "s", "lower", "innovations.draw", "total", "wall_s on blocks_d1 and clt_d2"),
    LayerMetric("innovations.draw_calls", "count", "lower", "innovations.draw", "calls", "wall_s on blocks_d1 and clt_d2"),
    LayerMetric("innovations.draw_values", "count", "lower", "innovations.draw", "amount", "wall_s on blocks_d1 and clt_d2"),
    LayerMetric("field.convolve_s", "s", "lower", "field.convolve", "total", "wall_s on clt_d2 (FFT) and blocks_d1 (direct)"),
    LayerMetric("field.convolve_calls", "count", "lower", "field.convolve", "calls", "wall_s on clt_d2 and blocks_d1"),
    LayerMetric("field.generate_self_s", "s", "lower", "field.generate", "self", "wall_s on blocks_d1"),
    LayerMetric("field.bytes_computed", "bytes", "lower", "field.generate", "amount", "peak_rss_mb on clt_d2"),
    LayerMetric("kde.center_s", "s", "lower", "kde.center", "total", "wall_s on kde_curve"),
    LayerMetric("kde.center_calls", "count", "lower", "kde.center", "calls", "wall_s on kde_curve"),
    LayerMetric("kde.oracle_s", "s", "lower", "kde.oracle", "total", "wall_s on kde_curve"),
    LayerMetric("kde.oracle_calls", "count", "lower", "kde.oracle", "calls", "wall_s on kde_curve"),
    LayerMetric("kde.estimate_s", "s", "lower", "kde.estimate", "total", "wall_s on kde_curve", False),
    LayerMetric("kde.kernel_s", "s", "lower", "kde.kernel", "total", "wall_s on clt_d2 and kde_curve"),
    LayerMetric("kde.kernel_elements", "count", "lower", "kde.kernel", "amount", "wall_s on clt_d2 and kde_curve"),
    LayerMetric("clt.self_s", "s", "lower", "clt.experiment", "self", "wall_s on blocks_d1"),
    LayerMetric("clt.speedup_t2", "ratio", "higher", "", "derived", "wall_s and cpu_s on blocks_d1"),
    LayerMetric("clt.cpu_per_wall", "ratio", "higher", "", "derived", "wall_s and cpu_s on blocks_d1"),
    LayerMetric("reporting.serialise_s", "s", "lower", "reporting.serialise", "total", "wall_s on clt_d2"),
    LayerMetric("reporting.bytes_written", "bytes", "lower", "reporting.serialise", "amount", "wall_s on clt_d2"),
    LayerMetric("cli.self_s", "s", "lower", ROOT_SPAN, "self", "wall_s, all workloads"),
    LayerMetric("trace.overhead_frac", "ratio", "lower", "", "derived", "none: traced over untraced wall at 1 thread, minus 1"),
)


def _locate(binding: str):
    """(owner, attribute name) of a ``module:attr`` binding, or None when it is gone."""
    module_name, attr = binding.split(":")
    *owner_path, name = attr.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in owner_path:
        owner = getattr(owner, part, None)
    return (owner, name) if hasattr(owner, name) else None


class Tracer:
    """Records spans while installed; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent]
        self.calls: Counter = Counter()
        self.amounts: defaultdict = defaultdict(float)
        self.present: dict = {}  # binding -> bool
        self._stack: list = []
        self._open: Counter = Counter()
        self._patched: dict = {}  # binding -> (owner, name, original, wrapper)

    # -- bindings -----------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            for binding in layer.bindings:
                located = _locate(binding)
                self.present[binding] = located is not None
                if located is None:
                    continue
                owner, name = located
                original = getattr(owner, name)
                wrapper = self._wrap(layer, original)
                self._patched[binding] = (owner, name, original, wrapper)
                setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _wrapper in self._patched.values():
            setattr(owner, name, original)
        self._patched = {}

    def _swap(self, bindings, restore: bool) -> None:
        for binding in bindings:
            if binding in self._patched:
                owner, name, original, wrapper = self._patched[binding]
                setattr(owner, name, original if restore else wrapper)

    def reset(self) -> None:
        self.spans, self.calls, self.amounts = [], Counter(), defaultdict(float)

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    def _wrap(self, layer: Layer, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not layer.span:
                tracer.calls[layer.name] += 1
                return original(*args, **kwargs)
            if tracer._open[layer.name]:  # re-entry is part of the open span
                return original(*args, **kwargs)
            idx = tracer.open(layer.name)
            tracer._swap(layer.mutes, restore=True)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._swap(layer.mutes, restore=False)
                tracer.close(idx)
            tracer.calls[layer.name] += 1
            if layer.amount is not None:
                tracer.amounts[layer.name] += layer.amount(original, args, kwargs, result)
            return result

        return traced

    # -- reduction ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) per span name for the recorded spans."""
        inclusive: defaultdict = defaultdict(float)
        children: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        own: defaultdict = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            own[name] += (end - start) - children[idx]
        return inclusive, own

    def layer_present(self, layer_name: str) -> bool:
        if layer_name == ROOT_SPAN:
            return True
        layer = next(l for l in LAYERS if l.name == layer_name)
        return any(self.present.get(b, False) for b in layer.bindings)

    def pass_values(self) -> dict:
        """Every non-derived per-layer metric for the spans recorded since ``reset``."""
        inclusive, own = self.totals()
        read = {"total": inclusive, "self": own, "calls": self.calls, "amount": self.amounts}
        return {
            m.name: float(read[m.kind].get(m.layer, 0.0))
            for m in PER_LAYER
            if m.kind != "derived"
        }

    def absent_bindings(self) -> list:
        return sorted(b for b, ok in self.present.items() if not ok)
