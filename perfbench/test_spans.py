"""Unit tests of the benchmark's span tracer, speed probe and BENCHMARK.json names.

They run in well under a second, with the library's own tests.
"""

import json
import os
import signal
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spectral_rnn import cp_decomp, diagnostics, moments, recovery  # noqa: E402
from spectral_rnn.sequence_models import RnnParams  # noqa: E402


def _span(id, start, end, parent=None, name="x"):
    return spans.Span(id, name, start, end, parent, 0, 0)


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([]) == 0


def test_self_seconds_subtract_covered_time_once():
    # two children that overlap, as cells on two threads do
    tree = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, 0), _span(2, 3.0, 6.0, 0),
            _span(3, 7.0, 8.0, 0)]
    own = spans.self_seconds(tree)
    assert own[0] == 10.0 - 5.0 - 1.0
    assert own[1] == 4.0


def _oracle_model():
    rng = np.random.default_rng(3)
    A1 = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    U = 0.3 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
    A2 = np.linalg.qr(rng.standard_normal((3, 2)))[0].T * np.array([[1.4], [1.0]])
    return RnnParams(A1=A1, U=U, A2=A2, l=2)


def test_wrappers_nest_library_internal_calls_and_uninstall():
    original = cp_decomp.decompose
    p = _oracle_model()
    T2 = moments.population_moment_oracle(p, "S2-order3")
    T4 = moments.population_moment_oracle(p, "S4-reshaped-order3", shift=-1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert recovery.decompose is not original
        tracer.op = 0
        recovery.recover_quadratic(T2, 2, T4=T4)
    finally:
        tracer.uninstall()
    assert recovery.decompose is original and cp_decomp.decompose is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["recovery.recover_quadratic"]
    assert top.parent is None
    assert by_name["cp_decomp.decompose"][0].parent == top.id
    rows = by_name["recovery.fit_recurrence_row"]
    assert len(rows) == 2 and all(s.op == 0 for s in rows)
    metrics = spans.layer_metrics(tracer.spans, {0}, 1.0, 0.0)
    assert metrics["recovery.fit_recurrence_row.calls_per_op"] == 2
    assert metrics["cp_decomp.decompose.useful_ratio"] == 1.0


def test_sweep_cells_nest_under_the_sweep_from_worker_threads():
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        diagnostics.sample_sweep(lambda n, seed: [("A1", 0, 1.0 / n)],
                                 [10, 100], [0, 1], workers=2)
    finally:
        tracer.uninstall()
    (sweep,) = [s for s in tracer.spans if s.name == "diagnostics.sample_sweep"]
    cells = [s for s in tracer.spans if s.name == "diagnostics.sample_sweep.cell"]
    assert len(cells) == 4 and all(c.parent == sweep.id for c in cells)
    assert sweep.counts == {"workers": 2}


def test_speed_probe_samples_the_main_thread_while_it_waits():
    previous = signal.getsignal(signal.SIGUSR1)
    probe = reference.SpeedProbe(interval=0.01)
    worker = threading.Thread(target=time.sleep, args=(0.3,))
    probe.start()
    try:
        worker.start()
        worker.join()  # the main thread blocks here, as it does in sample_sweep
    finally:
        probe.stop()
        ignored = signal.getsignal(signal.SIGUSR1) == signal.SIG_IGN
        signal.signal(signal.SIGUSR1, previous)
    assert ignored and len(probe.samples) >= 5
    assert abs(probe.spent - sum(probe.samples)) < 1e-9


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
