"""Span tracing for the benchmark, installed from outside the library.

A ``Tracer`` wraps the public functions of the traced ``spectral_rnn``
modules and rebinds every module attribute through which the library or the
benchmark looks them up, so calls made inside the library (for example
``recovery.train_quadratic`` calling ``moments.cross_moment_s2``) are
recorded as nested spans.  No library source is edited; ``uninstall`` puts
the original functions back.

Each span records its name, start, end, parent span, op id and thread.
Parents come from a thread-local stack.  Work handed to a thread pool by
``diagnostics.sample_sweep`` is rebound so the cells nest under the sweep
span in whichever thread runs them.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

# Modules whose public functions get spans.  tensor_core only runs inside the
# cp_decomp and recovery spans, and spt1 is not used by any workload.
PACKAGE = "spectral_rnn"
TRACED_MODULES = ("sequence_models", "score", "moments", "cp_decomp",
                  "recovery", "diagnostics", "cli")

SETUP_OP = -1  # op id of spans recorded while a workload builds its inputs


def _steps(args, kwargs, result):
    """Positions simulated: columns of the returned chain or sequence."""
    n = result.n if hasattr(result, "n") else result.shape[1]
    return {"steps": int(n)}


def _s4_flops(args, kwargs, result):
    """Computed flop count 2 d_y d^4 N of the order-4 moment accumulation."""
    d_y, D, _ = result.value.shape
    return {"flops": 2 * d_y * D * D * int(result.n_used)}


def _tensor_digest(args, kwargs, result):
    T = args[0] if args else kwargs["T"]
    return {"digest": hashlib.sha1(T.tobytes()).hexdigest()}


def _workers(args, kwargs, result):
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    return {"workers": int(workers)}


# span name -> function(args, kwargs, result) giving counts for the span
COUNTERS = {
    "sequence_models.sample_markov_chain": _steps,
    "sequence_models.rnn_forward": _steps,
    "sequence_models.brnn_forward": _steps,
    "moments.cross_moment_s4_reshaped": _s4_flops,
    "cp_decomp.decompose": _tensor_digest,
    "diagnostics.sample_sweep": _workers,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._lock = threading.Lock()
        self._local = threading.local()
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent) -> Span:
        """Append a span whose end is set when its call returns; the id
        exists before the call runs, so children can name their parent."""
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                        parent, self.op, threading.get_ident())
            self.spans.append(span)
        return span

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        slot = self._open(name, parent)
        stack.append(slot.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            slot.end = time.perf_counter()
            stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            slot.counts = counter(args, kwargs, result)
        return result

    def _bind(self, fn, name: str):
        """fn recorded as span ``name`` under the caller's current span,
        whichever thread later runs it."""
        stack = self._stack()
        parent = stack[-1] if stack else None

        @functools.wraps(fn)
        def bound(*args, **kwargs):
            return self._call(name, fn, args, kwargs, parent=parent)
        return bound

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "diagnostics.sample_sweep":
            @functools.wraps(fn)
            def wrapper(run_cell, *args, **kwargs):
                def run(*a, **k):
                    cell = tracer._bind(run_cell, name + ".cell")
                    return fn(cell, *a, **k)
                return tracer._call(name, run, args, kwargs)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the traced modules' public functions at every module
        attribute, in any loaded spectral_rnn module, that refers to them."""
        if self._bindings:
            return
        if not self._wrappers:
            for short in TRACED_MODULES:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == mod.__name__):
                        self._wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    @property
    def wrapped_attributes(self) -> int:
        return len(self._bindings)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        out[s.id] = s.seconds - union_length([k for k in kids if k[1] > k[0]])
    return out


# Per-layer metrics of a traced run, in BENCHMARK.json order: (name, unit).
# Times ending in ".s" are inclusive wall seconds per traced op, summed over
# threads, "self_s" excludes the time child spans cover, and counts are per
# traced op.
# trace.overhead_s is in raw CPU seconds: traced rounds do not run the speed
# probe, whose samples would be counted in the spans.
LAYER_METRICS = (
    ("spectral_rnn.import_s", "s"),
    ("sequence_models.sample_markov_chain.s", "s"),
    ("sequence_models.rnn_forward.s", "s"),
    ("sequence_models.brnn_forward.s", "s"),
    ("sequence_models.ns_per_step", "ns"),
    ("score.centered_scores.s", "s"),
    ("score.centered_scores.calls_per_op", "count"),
    ("moments.cross_moment_s2.s", "s"),
    ("moments.cross_moment_s4_reshaped.s", "s"),
    ("moments.cross_moment_s4_reshaped.calls_per_op", "count"),
    ("moments.cross_moment_s4_reshaped.gflop_per_s", "GFLOP/s"),
    ("moments.population_moment_oracle.s", "s"),
    ("cp_decomp.decompose.s", "s"),
    ("cp_decomp.decompose.calls_per_op", "count"),
    ("cp_decomp.decompose.useful_ratio", "ratio"),
    ("recovery.recover_quadratic.s", "s"),
    ("recovery.recover_brnn.s", "s"),
    ("recovery.fit_recurrence_row.s", "s"),
    ("recovery.fit_recurrence_row.calls_per_op", "count"),
    ("recovery.train_quadratic.self_s", "s"),
    ("recovery.train_brnn.self_s", "s"),
    ("diagnostics.align.s", "s"),
    ("diagnostics.sample_sweep.s", "s"),
    ("diagnostics.sample_sweep.parallel_efficiency", "ratio"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)

SIMULATION = ("sequence_models.sample_markov_chain", "sequence_models.rnn_forward",
              "sequence_models.brnn_forward")


def layer_metrics(spans: list[Span], ops: set[int], import_s: float,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced ops ``ops``.

    ns_per_step also counts simulation spans recorded during setup, where
    brnn_observed simulates its data.  A layer with no span reads 0.
    """
    n_ops = max(len(ops), 1)
    in_ops = [s for s in spans if s.op in ops]
    own = self_seconds(spans)

    def named(name):
        return [s for s in in_ops if s.name == name]

    def per_op(name):
        return sum(s.seconds for s in named(name)) / n_ops

    def calls(name):
        return len(named(name)) / n_ops

    def self_per_op(name):
        return sum(own[s.id] for s in named(name)) / n_ops

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    sim = [s for s in spans if s.name in SIMULATION]
    s4 = named("moments.cross_moment_s4_reshaped")
    cp = named("cp_decomp.decompose")
    sweeps = named("diagnostics.sample_sweep")
    cells = named("diagnostics.sample_sweep.cell")
    values = {
        "spectral_rnn.import_s": import_s,
        "sequence_models.ns_per_step": 1e9 * ratio(
            sum(s.seconds for s in sim), sum(s.counts.get("steps", 0) for s in sim)),
        "moments.cross_moment_s4_reshaped.gflop_per_s": 1e-9 * ratio(
            sum(s.counts["flops"] for s in s4), sum(s.seconds for s in s4)),
        "cp_decomp.decompose.useful_ratio": ratio(
            len({(s.op, s.counts["digest"]) for s in cp}), len(cp)),
        "diagnostics.sample_sweep.parallel_efficiency": ratio(
            sum(s.seconds for s in cells),
            sum(s.counts["workers"] * s.seconds for s in sweeps)),
        "trace.overhead_s": overhead_s,
    }
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "s":
            values[name] = per_op(layer)
        elif kind == "self_s":
            values[name] = self_per_op(layer)
        elif kind == "calls_per_op":
            values[name] = calls(layer)
        else:
            raise KeyError(name)
    return values


def missing_layers(spans: list[Span], expected) -> list[str]:
    """Names in ``expected`` that recorded no span at all."""
    seen = {s.name for s in spans}
    return [name for name in expected if name not in seen]
