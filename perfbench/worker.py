"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by run.py, never directly.  With ``--mode setup`` the process stops
once the workload's inputs are built and reports its set-up time only.  With
``--mode measure`` it runs ops, one at a time, until ``--seconds`` have
passed since set-up ended.  A traced run records spans during set-up and
every other round of ops, and the tracing overhead is the difference of the
median op CPU times with and without spans.

Set-up and ops are timed in process CPU seconds (all threads) and in wall
seconds.  Neither is steady on a shared host: the same op's CPU time swings
by up to 3x as the core slows and speeds up.  So an untraced run also runs
reference.SpeedProbe through its set-up and its ops, and the regression
metrics (setup_s, op_ref_s) are CPU seconds taken to the probe's reference
speed.  The raw CPU and wall times are recorded beside them.

The last line of standard output is one JSON record.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# ROADMAP "Baseline" table, one README-model run at n=5e5 (seconds).  Every
# stage is linear in n, so quad_e2e's stage times are scaled to that n.
ROADMAP_N = 500_000
ROADMAP_BASELINE = {
    "sequence_models.sample_markov_chain": 2.49,
    "sequence_models.rnn_forward": 6.83,
    "moments.cross_moment_s2": 0.54,
    "moments.cross_moment_s4_reshaped": 1.25,
    "recovery.train_quadratic": 1.80,
}

PERCENTILES = (50, 90, 95, 99, 99.9)

# Least CPU seconds of ops in a round, the unit op_ref_s is a median over:
# one op on every workload but oracle_recovery, whose ops take about 60 ms
ROUND_CPU_S = 1.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    return parser.parse_args(argv)


def tail_percentile(durations):
    """Highest listed percentile with at least ten ops beyond it, or None."""
    n = len(durations)
    ranked = sorted(durations)
    best = None
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            best = {"p": p, "value": ranked[math.ceil(p / 100 * n) - 1]}
    return best


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
    }


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = _parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import reference

    # an untraced run probes its set-up; spans would count the probe's time
    probe = reference.SpeedProbe()
    if not args.trace:
        probe.start()
    import spectral_rnn
    import_s = time.perf_counter() - t0
    if not os.path.abspath(spectral_rnn.__file__).startswith(SRC + os.sep):
        print(f"spectral_rnn imported from {spectral_rnn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        wrapped = tracer.wrapped_attributes
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = cls(args.seed, OUT_DIR) if cls is workloads.SweepCli else cls(args.seed)
    ready = time.monotonic()
    setup_cpu_s = time.process_time() - probe.spent
    if not args.trace:
        probe.stop()
    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_cpu_s": setup_cpu_s, "setup_wall_s": ready - args.spawned_at,
              "import_s": import_s}
    if probe.samples:
        record["setup_s"] = setup_cpu_s * reference.KERNEL_S / statistics.fmean(probe.samples)
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    if tracer is not None:
        tracer.uninstall()
    durations = {"untraced": [], "traced": []}
    cpu_times = {"untraced": [], "traced": []}
    # op CPU seconds at the reference speed, one value per untraced round
    costs = []
    setup_samples = len(probe.samples)
    probe_samples = []
    traced_ops = set()
    outs, failures = [], []
    i = rounds = 0
    while True:
        # A round is one op, or as many as take ROUND_CPU_S.  Untraced rounds
        # run under the speed probe, whose own CPU time is taken out of the
        # ops'.  A traced run traces every other round and probes none of
        # them, so both halves see the same machine load and their
        # difference is the tracing overhead (on brnn_observed the traced
        # ops all fit dataset 1, which is the same size as dataset 0).
        traced = tracer is not None and rounds % 2 == 1
        kind = "traced" if traced else "untraced"
        if traced:
            tracer.install()
        else:
            first_sample = len(probe.samples)
            probe.start()
        round_cpu, round_ops, round_failed = 0.0, 0, False
        while round_cpu < ROUND_CPU_S and not round_failed:
            if traced:
                traced_ops.add(i)
                tracer.op = i
            t, c, p = time.perf_counter(), time.process_time(), probe.spent
            try:
                outs.append(wl.op(i))
            except Exception as exc:  # an op failure is counted, not fatal
                failures.append({"op": i, "error": f"{type(exc).__name__}: {exc}"})
                traceback.print_exc(file=sys.stderr)
                round_failed = True  # ends the round, so ops that fail at once cannot spin
            durations[kind].append(time.perf_counter() - t)
            cpu_times[kind].append(time.process_time() - c - (probe.spent - p))
            round_cpu += cpu_times[kind][-1]
            round_ops += 1
            i += 1
        if traced:
            tracer.uninstall()
        else:
            probe.stop()
            samples = probe.samples[first_sample:]
            probe_samples.append(len(samples))
            if samples:  # none only in a round cut short by a failed op
                costs.append(round_cpu / round_ops * reference.KERNEL_S
                             / statistics.fmean(samples))
        rounds += 1
        if time.monotonic() >= ready + args.seconds and (tracer is None or rounds >= 2):
            break

    attempted = i
    op_times = durations["untraced"]
    op_s = statistics.median(op_times)
    op_cpu_s = statistics.median(cpu_times["untraced"])
    op_ref_s = _median_or_none(costs)
    gates = wl.run_gates(outs) if outs else [{"gate": "at least one op succeeded",
                                              "value": 0, "ok": False}]
    record.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "op_durations_s": op_times,
        "op_cpu_times_s": cpu_times["untraced"],
        "op_tail": tail_percentile(op_times),
        "round_ref_s": costs,
        "probe_samples": {"setup": setup_samples, "per_round": probe_samples},
        "probe_kernel_s": _median_or_none(probe.samples),
        "gates": gates,
        "end_to_end": {
            "op_ref_s": {"value": op_ref_s, "unit": "s"},
            "op_cpu_s": {"value": op_cpu_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "samples_per_s": {"value": wl.samples_per_op / op_s, "unit": "1/s"},
            "models_per_s": {"value": wl.models_per_op / op_s, "unit": "1/s"},
            "max_row_error": {"value": _median_or_none(o["max_row_error"] for o in outs),
                              "unit": "l2"},
            "u_error": {"value": _median_or_none(o.get("u_error") for o in outs),
                        "unit": "abs"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "error_rate": {"value": len(failures) / attempted, "unit": "ratio"},
        },
        "environment": environment(),
    })
    correct = not failures and all(g["ok"] for g in gates)

    if tracer is not None:
        traced_op_cpu_s = statistics.median(cpu_times["traced"])
        overhead = traced_op_cpu_s - op_cpu_s
        missing = spans.missing_layers(tracer.spans, wl.layers)
        correct = correct and not missing
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(span_file)
        per_layer = spans.layer_metrics(tracer.spans, traced_ops, import_s, overhead)
        record.update({
            "traced_op_cpu_s": traced_op_cpu_s,
            "tracing_overhead_s": overhead,
            "span_coverage": {"expected": list(wl.layers), "missing": missing,
                              "ok": not missing},
            "wrapped_attributes": wrapped,
            "span_file": os.path.relpath(span_file, ROOT),
            "span_count": len(tracer.spans),
            "per_layer": {name: {"value": per_layer[name], "unit": unit}
                          for name, unit in spans.LAYER_METRICS},
        })
        if args.workload == "quad_e2e":
            check = {}
            scale = ROADMAP_N / wl.n
            for name, base in ROADMAP_BASELINE.items():
                measured = sum(s.seconds for s in tracer.spans
                               if s.name == name and s.op in traced_ops) / len(traced_ops)
                check[name] = {"measured_s": measured, "n": wl.n,
                               "at_roadmap_n_s": measured * scale, "roadmap_s": base,
                               "ratio": measured * scale / base}
            record["baseline_check"] = check
    record["correct"] = correct
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
