"""spectral-rnn benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Workloads (see workloads.py): quad_e2e, brnn_observed,
oracle_recovery, sweep_cli.

Each workload runs in its own process with BLAS pinned to one thread, as a
closed loop of one op at a time.  setup_s is the CPU time from process start
to the first op and op_ref_s the median CPU time of an op, both taken to the
reference speed of the speed probe (see reference.py); cheap set-ups are
repeated in fresh processes and setup_s is their median.  With ``--trace 1``
the measuring process also records spans around the library's public
functions and reports per-layer metrics.

The second-to-last line of standard output is the full JSON record (every
metric, gates, environment); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 without a result
when the checkout has no library source or a process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "spectral_rnn", "__init__.py")

WORKLOADS = ("quad_e2e", "brnn_observed", "oracle_recovery", "sweep_cli")

# Set-ups per untraced run.  brnn_observed simulates 6e5 BRNN positions in its
# set-up (over ten seconds of compute), so it sets up once.
SETUP_RUNS = {"quad_e2e": 3, "brnn_observed": 1, "oracle_recovery": 3, "sweep_cli": 3}

END_TO_END = (("setup_s", "s"), ("op_ref_s", "s"), ("peak_rss_mb", "MB"))

TIME_LIMIT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **PINNED_THREADS))
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} process exceeded the time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description="spectral-rnn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(PACKAGE):
        print(f"no library source at {os.path.relpath(PACKAGE, ROOT)}; "
              "run from the root of a spectral-rnn checkout", file=sys.stderr)
        return 2

    deadline = start + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS[args.workload] - 1):
                setups.append(run_worker(args, "setup", deadline))
        record = run_worker(args, "measure", deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    setups.append(record)
    for key in ("setup_s", "setup_cpu_s", "setup_wall_s") if not args.trace else ():
        runs = [s[key] for s in setups]
        record["end_to_end"][key] = {"value": statistics.median(runs), "unit": "s",
                                     "runs": runs}
    print(json.dumps(record))

    chosen = record["per_layer"] if args.trace else {
        name: record["end_to_end"][name] for name, _ in END_TO_END}
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in chosen.items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
