"""The benchmark's correctness gates and span coverage, checked on a few ops.

Each workload of perfbench/workloads.py is built and run under the span
tracer, installed before set-up as perfbench/worker.py installs it.  An op
that misses a per-op gate raises GateError and fails the test; the run-wide
gates must all hold and every required layer must record a span.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

# workload -> (seed, ops, class attributes patched to keep the run short)
CASES = {
    "quad_e2e": (0, 1, {}),
    "oracle_recovery": (0, 3, {}),
    "brnn_observed": (0, 3, {"n": 20_000}),
    # masters 4245 and 4246, each run twice, so the repeated-seed determinism
    # gate sees two masters through the 2-worker pool; a cell of master 4245
    # has no definite slice combination, a hard case for stage 1
    "sweep_cli": (4245, 4, {}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_workload_passes_its_gates(name, tmp_path, monkeypatch):
    seed, ops, patch = CASES[name]
    cls = workloads.WORKLOADS[name]
    for attr, value in patch.items():
        monkeypatch.setattr(cls, attr, value)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl = cls(seed, str(tmp_path)) if cls is workloads.SweepCli else cls(seed)
        outs = [wl.op(i) for i in range(ops)]
    finally:
        tracer.uninstall()
    assert spans.missing_layers(tracer.spans, wl.layers) == []
    gates = wl.run_gates(outs)
    assert all(g["ok"] for g in gates), gates
