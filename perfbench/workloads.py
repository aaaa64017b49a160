"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor
(the set-up) and runs one closed-loop operation per ``op(i)`` call.  An op
returns its accuracy figures; it raises ``GateError`` when it misses a
per-op gate.  ``run_gates`` checks the gates that span a whole run.

Library functions are always looked up through their module at call time
(``sequence_models.rnn_forward(...)``), so the span tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics

import numpy as np

from spectral_rnn import cli, diagnostics, moments, recovery, sequence_models


class GateError(RuntimeError):
    """An op produced output that misses its correctness gate."""


def _finite(*values) -> None:
    for v in values:
        if v is None or not math.isfinite(v):
            raise GateError(f"non-finite output {v!r}")


def _row_error(report, *names) -> float:
    return float(max(report.per_row_errors[name].max() for name in names))


class QuadE2E:
    """README / criterion-5 model at n=1e5, one simulate-train-align run per op.

    Simulation dominates the op, so sequence_models work shows here; the
    recovery layers are under 1% of it.
    """

    name = "quad_e2e"
    n = 100_000
    d_h = 3
    # n is a fifth of the README run's, so an op takes ~2 s and a 20-s run
    # makes about ten, and op_ref_s is a median over ten rounds of the speed
    # probe.  The gate is criterion 5's bound on the median over the run's
    # ops.  Of 48 calibration chain seeds (0-23, 1000000-1000023) at this n,
    # 45 read 0.015-0.096 and seeds 14, 1000001 and 1000012 read 0.51, 0.18
    # and 0.11, so a median over ten consecutive seeds stays far below it.
    max_row_error_bound = 0.1
    samples_per_op = n
    models_per_op = 1
    # span names a traced run must record, set-up included
    layers = ("sequence_models.sample_markov_chain", "sequence_models.rnn_forward",
              "score.centered_scores", "moments.cross_moment_s2",
              "moments.cross_moment_s4_reshaped", "cp_decomp.decompose",
              "recovery.train_quadratic", "recovery.recover_quadratic",
              "recovery.fit_recurrence_row", "diagnostics.align")

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = sequence_models.bounded_input_spec(d_x=6, w_scale=0.5, seed=2)
        rng = np.random.default_rng(4)
        A1 = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
        U = 0.3 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
        A2 = (np.linalg.qr(rng.standard_normal((4, 3)))[0].T
              * np.array([[1.5], [1.2], [1.0]]))
        self.params = sequence_models.RnnParams(A1=A1, U=U, A2=A2, l=2)

    def op(self, i: int) -> dict:
        chain_seed = self.seed + i
        p = self.params
        x = sequence_models.sample_markov_chain(self.spec, self.n, chain_seed)
        data = sequence_models.rnn_forward(p, x)
        est = recovery.train_quadratic(data, self.spec, self.d_h, seed=chain_seed)
        rep = diagnostics.align(est.A1, p.A1, est.A2, p.A2, est.U, p.U)
        out = {"max_row_error": _row_error(rep, "A1", "A2"), "u_error": rep.u_error}
        _finite(*out.values())
        return out

    def run_gates(self, outs: list[dict]) -> list[dict]:
        med = statistics.median(o["max_row_error"] for o in outs)
        return [{"gate": f"median max A1/A2 row error < {self.max_row_error_bound:g}",
                 "value": med, "ok": med < self.max_row_error_bound}]


class BrnnObserved:
    """Fit observed (x, y) of a bidirectional model; no simulation in the op.

    Two datasets are simulated in set-up and ops alternate between them, so
    a cache kept across ops cannot pass for a speed-up.
    """

    name = "brnn_observed"
    n = 300_000
    d_h = 2
    # No accuracy bound: at this n the estimator itself sometimes fails.  Of
    # 40 calibration datasets (workload seeds 500-519) most read 0.03-0.29
    # max row error but two read 0.46 and 0.79, and benchmark seed 100's
    # first dataset reads 2.9, the level of a random estimate (2.65 or more
    # in 99 of 100 draws).  No bound separates that from a broken pipeline.
    # The gate is that every refit of a dataset reproduces its first
    # estimate bit for bit, which catches state carried across ops.
    samples_per_op = n
    models_per_op = 1
    layers = ("sequence_models.sample_markov_chain", "sequence_models.brnn_forward",
              "score.centered_scores", "moments.cross_moment_s2",
              "moments.cross_moment_s4_reshaped", "cp_decomp.decompose",
              "recovery.train_brnn", "recovery.recover_brnn",
              "recovery.fit_recurrence_row", "diagnostics.align")

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = sequence_models.bounded_input_spec(d_x=6, w_scale=0.5, seed=1)
        rng = np.random.default_rng(7)
        A1 = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
        B1 = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
        U = 0.25 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
        V = 0.2 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
        A2 = rng.standard_normal((4, 6))
        self.params = sequence_models.BrnnParams(A1=A1, B1=B1, U=U, V=V, A2=A2, l=2)
        self.chain_seeds = (2 * seed, 2 * seed + 1)
        self.datasets = []
        for chain_seed in self.chain_seeds:
            x = sequence_models.sample_markov_chain(self.spec, self.n, chain_seed)
            self.datasets.append(sequence_models.brnn_forward(self.params, x))
        self.first_fit: dict[int, str] = {}
        self.refit_checks = 0

    def op(self, i: int) -> dict:
        j = i % 2
        p = self.params
        est = recovery.train_brnn(self.datasets[j], self.spec, self.d_h,
                                  seed=self.chain_seeds[j])
        digest = hashlib.sha256(b"".join(
            np.ascontiguousarray(a).tobytes()
            for a in (est.A1, est.B1, est.A2, est.U, est.V) if a is not None)).hexdigest()
        if j in self.first_fit:
            self.refit_checks += 1
            if self.first_fit[j] != digest:
                raise GateError(f"dataset {j}: refit differs from the first fit")
        self.first_fit[j] = digest
        d = self.d_h
        fwd = diagnostics.align(est.A1, p.A1, est.A2[:d], p.A2[:d], est.U, p.U)
        bwd = diagnostics.align(est.B1, p.B1, est.A2[d:], p.A2[d:], est.V, p.V)
        out = {"max_row_error": max(_row_error(fwd, "A1", "A2"),
                                    _row_error(bwd, "A1", "A2")),
               "u_error": max(fwd.u_error, bwd.u_error)}
        _finite(*out.values())
        return out

    def run_gates(self, outs: list[dict]) -> list[dict]:
        return [{"gate": "refits reproduce the first fit of their dataset",
                 "value": self.refit_checks, "ok": self.refit_checks > 0}]


class OracleRecovery:
    """Exact population moments of a fresh random model per op.

    No data: cp_decomp and recovery are the whole op, mostly
    fit_recurrence_row's least squares.  Those layers are under 1% of the
    other workloads, so this is where their gains and losses show.
    """

    name = "oracle_recovery"
    d_x, d_h, d_y = 10, 5, 6
    a2_scales = np.linspace(1.6, 1.0, 5)  # distinct, so CP weights separate
    u_scale = 0.3
    error_bound = 1e-6  # the oracle bound of acceptance criteria 5 and 7
    samples_per_op = 0
    models_per_op = 1
    layers = ("moments.population_moment_oracle", "cp_decomp.decompose",
              "recovery.recover_quadratic", "recovery.fit_recurrence_row",
              "diagnostics.align")

    def __init__(self, seed: int):
        self.seed = seed

    def model(self, model_seed: int):
        rng = np.random.default_rng(model_seed)
        A1 = np.linalg.qr(rng.standard_normal((self.d_x, self.d_h)))[0].T
        U = self.u_scale * np.linalg.qr(rng.standard_normal((self.d_h, self.d_h)))[0]
        A2 = (np.linalg.qr(rng.standard_normal((self.d_y, self.d_h)))[0].T
              * self.a2_scales[:, None])
        return sequence_models.RnnParams(A1=A1, U=U, A2=A2, l=2)

    def op(self, i: int) -> dict:
        model_seed = self.seed + i
        p = self.model(model_seed)
        T2 = moments.population_moment_oracle(p, "S2-order3")
        T4 = moments.population_moment_oracle(p, "S4-reshaped-order3", shift=-1)
        est = recovery.recover_quadratic(T2, self.d_h, T4=T4, seed=model_seed)
        rep = diagnostics.align(est.A1, p.A1, est.A2, p.A2, est.U, p.U)
        out = {"max_row_error": _row_error(rep, "A1", "A2"), "u_error": rep.u_error}
        _finite(*out.values())
        worst = max(out.values())
        if worst >= self.error_bound:
            raise GateError(f"model seed {model_seed}: error {worst:.3g} "
                            f">= {self.error_bound:g}")
        return out

    def run_gates(self, outs: list[dict]) -> list[dict]:
        return []


class SweepCli:
    """One 8-cell ``spectral-rnn sweep`` run in-process per op.

    The only workload through cli/config and the sample_sweep thread pool.
    Its cells are short, so per-cell fixed cost and GIL contention show.
    a1_scale=1.0 because at 0.7 the CLI aligns unit-norm estimates against
    non-unit truth and its error stalls near 0.3.  d_y=6 because at d_y=4
    about 1% of cells (2 of 200 at n=10000, 5 of 200 at n=15000) exit 3 with
    "rank deficiency": stage-1 decompose finds no definite slice combination
    and its Jennrich fallback returns repeated factors, so about one 8-cell
    sweep in ten fails.  At d_y=6, 800 cells at n=10000 and 30 sweeps passed.
    Ops run each master seed twice in a row, and the repeat must reproduce
    the first run's artifact hashes.
    """

    name = "sweep_cli"
    n_grid = (10_000, 40_000)
    seeds = (0, 1, 2, 3)
    workers = 2
    error_bound = 0.1
    samples_per_op = sum(n_grid) * len(seeds)
    models_per_op = len(n_grid) * len(seeds)
    layers = ("cli.main", "diagnostics.sample_sweep", "diagnostics.sample_sweep.cell",
              "sequence_models.sample_markov_chain", "sequence_models.rnn_forward",
              "score.centered_scores", "moments.cross_moment_s2",
              "moments.cross_moment_s4_reshaped", "cp_decomp.decompose",
              "recovery.recover_quadratic", "recovery.fit_recurrence_row",
              "diagnostics.align")

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.out_dir = os.path.join(work_dir, f"sweep-{os.getpid()}")
        self.argv = [
            "sweep", "--out", self.out_dir, "--workers", str(self.workers),
            "--set", "model.d_x=6", "--set", "model.d_h=3", "--set", "model.d_y=6",
            "--set", "model.a1_scale=1.0", "--set", "model.u_scale=0.3",
            "--set", "model.norm_check=off",
            "--set", "estimation.n_grid=" + ",".join(map(str, self.n_grid)),
            "--set", "estimation.seeds=" + ",".join(map(str, self.seeds)),
        ]
        self.hashes: dict[int, dict] = {}
        self.determinism_checks = 0

    def op(self, i: int) -> dict:
        master = self.seed + i // 2
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv + ["--seed", str(master)])
            if code != 0:
                raise GateError(f"sweep exited with code {code}")
            return self._check(master)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def _check(self, master: int) -> dict:
        with open(os.path.join(self.out_dir, "manifest.json"), encoding="utf-8") as fh:
            files = json.load(fh)["files"]
        hashes = {k: files[k] for k in ("sweep.csv", "sweep_summary.json")}
        first = self.hashes.setdefault(master, hashes)
        if first is not hashes:
            self.determinism_checks += 1
            if first != hashes:
                raise GateError(f"master seed {master}: artifacts differ between runs")
        with open(os.path.join(self.out_dir, "sweep_summary.json"), encoding="utf-8") as fh:
            slope = json.load(fh)["slope"]
        with open(os.path.join(self.out_dir, "sweep.csv"), encoding="utf-8") as fh:
            errs = [float(r["error"]) for r in csv.DictReader(fh)
                    if r["matrix"] == "A1" and int(r["n"]) == max(self.n_grid)]
        err = statistics.median(errs)
        _finite(err, slope)
        if not (err < self.error_bound and slope < 0):
            raise GateError(f"master seed {master}: median A1 error {err:.3g} "
                            f"at n={max(self.n_grid)}, slope {slope:.3g}")
        return {"max_row_error": err, "slope": slope}

    def run_gates(self, outs: list[dict]) -> list[dict]:
        return [{"gate": "repeated master seeds write identical artifacts",
                 "value": self.determinism_checks,
                 "ok": self.determinism_checks > 0}]


WORKLOADS = {w.name: w for w in (QuadE2E, BrnnObserved, OracleRecovery, SweepCli)}

