"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Run from the root of a checkout.  Each run goes through run.py, so it is the
same measurement the benchmark makes.  Prints, per workload, the end-to-end
metrics of the untraced run, the gates, and the per-layer metrics, span
coverage and tracing overhead of the traced run.  Exits 1 when any gate,
per-op check or span-coverage check fails, or a run produces no result.
"""

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-2])


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<48} {_fmt(m['value']):>14} {m['unit']}")


def report(workload: str, seed: int, seconds: int) -> bool:
    print(f"== {workload} (seed {seed}, {seconds} s per run)")
    plain = run(workload, seed, seconds, 0)
    traced = run(workload, seed, seconds, 1)
    if plain is None or traced is None:
        print("  run failed: no result")
        return False

    print(f"end to end, untraced: {plain['attempted']} ops, {plain['failed']} failed")
    _table(plain["end_to_end"])
    tail = plain["op_tail"]
    print("  op tail: " + (f"p{tail['p']} = {tail['value']:.6g} s" if tail
                           else "fewer than 20 ops, no percentile with 10 ops beyond it"))
    for failure in plain["failures"]:
        print(f"  FAILED op {failure['op']}: {failure['error']}")
    for gate in plain["gates"]:
        print(f"  gate {'PASS' if gate['ok'] else 'FAIL'}: {gate['gate']} "
              f"(value {_fmt(gate['value'])})")

    print(f"per layer, traced: {traced['attempted']} ops, {traced['span_count']} spans, "
          f"{traced['wrapped_attributes']} wrapped attributes")
    _table(traced["per_layer"])
    cov = traced["span_coverage"]
    print(f"  span coverage {'PASS' if cov['ok'] else 'FAIL'}"
          + (f": no spans for {', '.join(cov['missing'])}" if cov["missing"] else ""))
    print(f"  tracing overhead: {traced['tracing_overhead_s']:.6g} CPU s per op "
          f"(traced op_cpu_s {traced['traced_op_cpu_s']:.6g} s in the traced run)")
    for name, c in traced.get("baseline_check", {}).items():
        print(f"  ROADMAP baseline {name}: {c['measured_s']:.4g} s at n={c['n']}, "
              f"{c['at_roadmap_n_s']:.4g} s scaled to n=5e5 vs {c['roadmap_s']} s "
              f"(ratio {c['ratio']:.3f})")
    print(f"  environment: {json.dumps(plain['environment'])}")
    return plain["correct"] and traced["correct"]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description="spectral-rnn benchmark report")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=default_seconds)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        ok = report(workload, args.seed, args.seconds) and ok
    print("all gates passed" if ok else "SOME GATES FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
