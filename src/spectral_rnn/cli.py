"""Batch experiment front-end.

Subcommands: generate, score-check, moments, decompose, train, train-brnn,
train-scalar, train-linear, eval, sweep.  Every run writes its artifacts under
the output directory together with a manifest listing content hashes, the
config hash, the master seed, and library versions, so (config, seed)
determines every artifact bit for bit.  eval and decompose read an earlier
run's directory (--out) and nothing else: its config.resolved is their config
and its manifest's seed their seed, so they take no --config, --set, --format
or --seed.  They add their files to its manifest, with their config hash,
seed and versions under "reads", so the earlier run's record stays whole.

Exit codes: 0 success, 2 config error, 3 numerical or assumption failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, spt1
from .config import (_SCHEMA, ConfigError, ExperimentConfig, config_hash, from_items,
                     parse_config, serialize)
from .diagnostics import _assignment, align, sample_sweep
from .recovery import (BrnnEstimate, RnnEstimate, _stage1_factors, quadratic_moments,
                       train_brnn, train_linear, train_quadratic, train_scalar)
from .score import QuadraticTest, stein_check
from .sequence_models import (AssumptionError, BrnnParams, MarkovChainSpec,
                              RnnParams, bounded_input_spec, brnn_forward,
                              rnn_forward, sample_markov_chain)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Commands that read an earlier run's artifacts and add to its record.
_READERS = ("eval", "decompose")

# Bytes per read when hashing an artifact, so no file is held whole.
_HASH_CHUNK = 1 << 20

# mallopt(3) parameter numbers, from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class _Artifacts:
    """Collects written files for the manifest, and reads a run's arrays
    back: the one place that knows the spt1 and csv array formats."""

    def __init__(self, out_dir: str, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.files: dict[str, str] = {}
        os.makedirs(out_dir, exist_ok=True)

    def _register(self, path: str) -> None:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(_HASH_CHUNK):
                digest.update(chunk)
        self.files[os.path.relpath(path, self.out_dir)] = digest.hexdigest()

    def array_path(self, name: str) -> str:
        return os.path.join(self.out_dir, f"{name}.{self.fmt}")

    def write_array(self, name: str, arr: np.ndarray) -> str:
        arr = np.asarray(arr, dtype=float)
        path = self.array_path(name)
        if self.fmt == "csv":
            np.savetxt(path, arr.reshape(arr.shape[0], -1), delimiter=",")
        else:
            spt1.write_tensor(path, arr)
        self._register(path)
        return path

    def read_array(self, name: str, shape: tuple) -> np.ndarray:
        """The array write_array wrote as name, which must have this shape and
        finite entries: a missing, unparsable, misshapen or non-finite file
        is an I/O error naming it."""
        path = self.array_path(name)
        if self.fmt == "csv":  # spt1.read_tensor raises OSError itself
            try:
                arr = np.loadtxt(path, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise OSError(f"{path}: not a csv array ({exc})") from exc
        else:
            arr = spt1.read_tensor(path)
        if arr.shape != shape:
            raise OSError(f"{path}: shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise OSError(f"{path}: non-finite entries")
        return arr

    def write_text(self, name: str, text: str) -> str:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self._register(path)
        return path

    def write_json(self, name: str, record: dict) -> str:
        return self.write_text(name, json.dumps(record, indent=2, sort_keys=True) + "\n")

    def manifest(self, config: ExperimentConfig, seed: int, reader: str | None = None,
                 prior: dict | None = None) -> None:
        """Writes this run's record, or, for a reading command on a
        directory with a prior record, adds its files to that record and
        its own header under reads[reader]."""
        header = {
            "config_hash": config_hash(config),
            "seed": seed,
            "versions": {
                "spectral_rnn": __version__,
                "numpy": np.__version__,
            },
        }
        if prior is None:
            record = {**header, "files": self.files}
        else:
            record = prior
            record["files"].update(self.files)
            record.setdefault("reads", {})[reader] = header
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _child_seeds(master: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(master).spawn(n)]


def _input_spec(config: ExperimentConfig, seed: int) -> MarkovChainSpec:
    """bounded_input_spec's chain, W = input.w_scale * a rotation, with its
    sigma, or with input.sigma in its place when that is a number."""
    base = bounded_input_spec(config.d_x, config["input.w_scale"], seed=seed)
    sigma = base.sigma if config["input.sigma"] == "auto" else float(config["input.sigma"])
    return MarkovChainSpec(W=base.W, sigma=sigma, init=config["input.init"])


def _make_model(config: ExperimentConfig, seed: int, family: str = "rnn"):
    """The true model, a BRNN for "brnn", else an RNN: one set of orthonormal
    input rows per direction (times model.a1_scale), then one rotation per
    direction (times model.u_scale), then directions * d_h unit output rows."""
    rng = np.random.default_rng(seed)
    d_h, dirs = config.d_h, 2 if family == "brnn" else 1

    def orthonormal(rows, key):
        return [config[key] * np.linalg.qr(rng.standard_normal((rows, d_h)))[0]
                for _ in range(dirs)]

    inputs = orthonormal(config.d_x, "model.a1_scale")
    rotations = orthonormal(d_h, "model.u_scale")
    A2 = rng.standard_normal((dirs * d_h, config.d_y))
    A2 /= np.maximum(np.linalg.norm(A2, axis=1, keepdims=True), 1e-300)
    if family == "brnn":
        return BrnnParams(A1=inputs[0].T, B1=inputs[1].T, U=rotations[0], V=rotations[1],
                          A2=A2, l=config.l)
    return RnnParams(A1=inputs[0].T, U=rotations[0], A2=A2, l=config.l)


def _simulate(config: ExperimentConfig, seed: int, family: str = "rnn"):
    """(input spec, true parameters, simulated data): a BRNN for "brnn", else an RNN."""
    spec_seed, chain_seed, model_seed = _child_seeds(seed, 3)
    spec = _input_spec(config, spec_seed)
    params = _make_model(config, model_seed, family)
    x = sample_markov_chain(spec, config["estimation.n"], chain_seed)
    forward = brnn_forward if family == "brnn" else rnn_forward
    return spec, params, forward(params, x)


def _unit_input_rows(params):
    """The same model in the estimates' convention of unit input rows.

    With D the diagonal of A1's row norms, (D^-1 A1, D^-1 U D^l, D^l A2)
    produces the same outputs as (A1, U, A2); a BRNN maps each direction.
    """
    def scale(A1, U):
        D = np.linalg.norm(A1, axis=1)
        return A1 / D[:, None], U / D[:, None] * D ** params.l, D ** params.l

    A1, U, Dl = scale(params.A1, params.U)
    if isinstance(params, BrnnParams):
        B1, V, El = scale(params.B1, params.V)
        return BrnnParams(A1=A1, B1=B1, U=U, V=V, l=params.l,
                          A2=np.concatenate([Dl, El])[:, None] * params.A2)
    return RnnParams(A1=A1, U=U, A2=Dl[:, None] * params.A2, l=params.l)


def _check_degree(config: ExperimentConfig, command: str, l: int = 2,
                  units: str = "quadratic") -> None:
    """A command that fits units of degree l only treats any other model.l as
    a config error, raised before simulating."""
    if config.l != l:
        raise ConfigError(f"model.l: {command} fits {units} units (l = {l}), got {config.l}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(config, seed, art):
    spec, params, data = _simulate(config, seed)
    for name, arr in (("x", data.x), ("y", data.y), ("a1_true", params.A1), ("u_true", params.U),
                      ("a2_true", params.A2), ("input_w", spec.W),
                      ("input_sigma", np.array([[spec.sigma]]))):
        art.write_array(name, arr)
    print(f"generated n={data.n} sequence to {art.out_dir}")
    return EXIT_OK


def _cmd_score_check(config, seed, art):
    spec_seed, chain_seed, probe_seed = _child_seeds(seed, 3)
    spec = _input_spec(config, spec_seed)
    a = np.random.default_rng(probe_seed).standard_normal(config.d_x)
    a /= np.linalg.norm(a)
    err, absolute = stein_check(spec, QuadraticTest(a), m=2,
                                n_samples=config["estimation.n"], seed=chain_seed)
    if not np.isfinite(err):
        raise AssumptionError("score check produced a non-finite error", stage="score-check")
    art.write_json("score_check.json",
                   {"relative_error": err, "absolute": absolute,
                    "n": config["estimation.n"], "order": 2})
    print(f"score check m=2: relative error {err:.4g}")
    return EXIT_OK


def _cmd_moments(config, seed, art):
    """The moments train fits: t2, and t4, the unit-output moment at shift -1
    (d_h x d_h^2 x d_h^2) in the coordinates of t4_basis, orthonormal rows
    spanning the stage-1 input rows."""
    _check_degree(config, "moments")
    if config["output.format"] != "spt1":
        raise ConfigError("output.format: moments writes order-3 tensors, which csv flattens")
    spec, _, data = _simulate(config, seed)
    T2, _, basis, Q = quadratic_moments(data, spec, config.d_h,
                                        burn_in=config["estimation.burn_in"], seed=seed)
    art.write_array("t2", T2)
    art.write_array("t4", Q)
    art.write_array("t4_basis", basis)
    print(f"moment tensors written to {art.out_dir}")
    return EXIT_OK


def _cmd_decompose(config, seed, art):
    """Stage 1 of train, at the run's seed, on a moments run's t2 (d_y x d_x
    x d_x), with the same rank check; its cp_report.json gives the kept
    candidate's residual against T2 and how many candidates failed."""
    T2 = art.read_array("t2", (config.d_y, config.d_x, config.d_x))
    cp = _stage1_factors(T2, config.d_h, seed)[2]
    art.write_array("cp_weights", cp.weights.reshape(1, -1))
    art.write_array("cp_mode1", cp.mode1)
    art.write_array("cp_factor", cp.factor)
    art.write_json("cp_report.json", {"rank": cp.rank, "residual": cp.residual(T2),
                                      "candidates_failed": cp.failed})
    print(f"rank-{cp.rank} decomposition written to {art.out_dir}")
    return EXIT_OK


def _fit(config, seed, command, family="rnn"):
    """(estimate, truth) of one run of a family: the degree and shape checks,
    the simulation, the family's train_* on it (seeded, unless it draws
    nothing), and the true model with unit input rows (_unit_input_rows)."""
    estimator, l, units = {
        "rnn": (train_quadratic, 2, "quadratic"),
        "brnn": (train_brnn, 2, "quadratic"),
        "scalar": (train_scalar, 3, "cubic"),
        "linear": (train_linear, 1, "linear"),
    }[family]
    _check_degree(config, command, l, units)
    if family == "brnn" and min(config.d_x, config.d_y) < 2 * config.d_h:
        raise ConfigError(f"model.d_h: {command} fits 2 * model.d_h = {2 * config.d_h} rows, "
                          f"so needs model.d_x and model.d_y >= {2 * config.d_h}, got "
                          f"model.d_x={config.d_x} and model.d_y={config.d_y}")
    if family == "scalar" and config.d_y != 1:
        raise ConfigError(f"model.d_y: {command} fits a scalar output, got model.d_y={config.d_y}")
    if family == "linear" and config.d_y < config.d_h:
        raise ConfigError(f"model.d_y: {command} realizes model.d_h = {config.d_h} units from "
                          f"C0 = A2^T A1 of rank <= model.d_y, got model.d_y={config.d_y}")
    spec, params, data = _simulate(config, seed, family)
    est = estimator(data, spec, config.d_h, burn_in=config["estimation.burn_in"],
                    **({} if family == "linear" else {"seed": seed}))
    return est, _unit_input_rows(params)


def _report(est, truth, degree):
    """(pairs, report) of a fit: each written name's (estimate, truth), and
    report.json's errors, with the permutation and signs of the alignment.
    The CLI's one scorer: train writes its report, eval re-scores a run's
    written arrays with it, and a sweep cell reads its a1_row_errors.  A
    bidirectional fit aligns the stacked input rows [A1; B1] jointly, which
    cannot see a swapped forward/backward split, and each direction with its
    output rows and recurrence, so a large gap between the joint and the
    per-direction errors means the split failed.  A linear fit, fixed only
    up to a similarity, is scored on its invariants: the Markov parameters
    C_j = A2^T U^j A1, j < 3 (largest error relative to ||C_0||, as C_j is 0
    at U = 0), and eig(U) matched by _assignment."""
    if isinstance(est, BrnnEstimate):
        d = est.A1.shape[0]
        pairs = {"c": (np.vstack([est.A1, est.B1]), np.vstack([truth.A1, truth.B1])),
                 "a2": (est.A2, truth.A2), "u": (est.U, truth.U), "v": (est.V, truth.V)}
        joint = align(*pairs["c"])
        forward = align(est.A1, truth.A1, est.A2[:d], truth.A2[:d], est.U, truth.U)
        backward = align(est.B1, truth.B1, est.A2[d:], truth.A2[d:], est.V, truth.V)
        return pairs, {"max_error": joint.max_error, "median_error": joint.median_error,
                       "permutation": joint.permutation.tolist(), "signs": joint.signs.tolist(),
                       "forward_max_error": forward.max_error,
                       "backward_max_error": backward.max_error,
                       "u_error": forward.u_error, "v_error": backward.u_error}
    pairs = {"a1": (est.A1, truth.A1), "a2": (est.A2, truth.A2), "u": (est.U, truth.U)}
    if degree == 1:
        C, C_true = ([m.A2.T @ np.linalg.matrix_power(m.U, j) @ m.A1 for j in range(3)]
                     for m in (est, truth))
        gap = np.abs(np.linalg.eigvals(truth.U)[:, None] - np.linalg.eigvals(est.U))
        return pairs, {"markov_error": max(np.linalg.norm(c - t) for c, t in zip(C, C_true))
                       / np.linalg.norm(C_true[0]),
                       "u_eig_error": gap[np.arange(len(gap)), _assignment(gap)].max()}
    aligned = align(est.A1, truth.A1, est.A2, truth.A2, est.U, truth.U, degree=degree)
    report = {"max_error": aligned.max_error, "median_error": aligned.median_error,
              "permutation": aligned.permutation.tolist(), "signs": aligned.signs.tolist()}
    if est.U is None:
        del pairs["u"]
    else:
        report.update(a1_row_errors=aligned.per_row_errors["A1"].tolist(),
                      u_error=aligned.u_error)
    return pairs, report


def _write_report(art, name, command, report):
    """Writes a _report record as name and prints its headline error."""
    art.write_json(name, report)
    key = "max_error" if "max_error" in report else "markov_error"
    print(f"{command}: {key} {report[key]:.4g}")


def _cmd_fit(config, seed, art, command, family):
    """The train commands: _fit, then each estimate and its truth as
    <name>_hat and <name>_true, and report.json (_report)."""
    est, truth = _fit(config, seed, command, family)
    pairs, report = _report(est, truth, config.l)
    for name, (hat, true) in pairs.items():
        art.write_array(f"{name}_hat", hat)
        art.write_array(f"{name}_true", true)
    _write_report(art, "report.json", command, report)
    return EXIT_OK


def _cmd_eval(config, seed, art):
    """Re-scores a train run with _report, which wrote its report.json, so
    eval.json equals it.  The run's config gives the degree and the shapes of
    the <name>_hat and <name>_true arrays it wrote: BrnnEstimates when it
    wrote c_hat (split at half its rows), else RnnEstimates, with no U for a
    cubic (train-scalar) run."""
    d_h = config.d_h
    brnn = os.path.exists(art.array_path("c_hat"))
    rows = 2 * d_h if brnn else d_h
    shapes = {"c" if brnn else "a1": (rows, config.d_x), "a2": (rows, config.d_y),
              "u": (d_h, d_h)}
    if brnn:
        shapes["v"] = (d_h, d_h)
    elif config.l == 3:
        del shapes["u"]

    def model(tag):
        m = {name: art.read_array(f"{name}_{tag}", shape) for name, shape in shapes.items()}
        if brnn:
            return BrnnEstimate(A1=m["c"][:d_h], B1=m["c"][d_h:], A2=m["a2"], U=m["u"], V=m["v"])
        return RnnEstimate(A1=m["a1"], A2=m["a2"], U=m.get("u"))

    _write_report(art, "eval.json", "eval", _report(model("hat"), model("true"), config.l)[1])
    return EXIT_OK


def _cmd_sweep(config, seed, art, workers):
    _check_degree(config, "sweep")
    cell_master = _child_seeds(seed, 1)[0]

    def run_cell(n, cell_seed):
        sub = ExperimentConfig(values={**config.values, "estimation.n": int(n)})
        mixed = int(np.random.SeedSequence([cell_master, int(n), int(cell_seed)])
                    .generate_state(1)[0])
        report = _report(*_fit(sub, mixed, "sweep"), config.l)[1]
        return [("A1", r, e) for r, e in enumerate(report["a1_row_errors"])]

    result = sample_sweep(run_cell, config["estimation.n_grid"],
                          config["estimation.seeds"], workers=workers)
    art.write_text("sweep.csv", "\n".join(result.csv_lines()) + "\n")
    art.write_json("sweep_summary.json", {  # null: fewer than two n with errors fit no line
        "slope": None if np.isnan(result.slope) else result.slope,
        "intercept": None if np.isnan(result.intercept) else result.intercept,
        "config_hash": config_hash(config),
    })
    print(f"sweep: fitted log-log slope {result.slope:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-rnn",
        description="Moment-based training experiments for polynomial recurrent models.")
    parser.add_argument("command", choices=[
        "generate", "score-check", "moments", "decompose", "train",
        "train-brnn", "train-scalar", "train-linear", "eval", "sweep"])
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides model.seed)")
    parser.add_argument("--out", metavar="DIR", default=None, help="output directory")
    parser.add_argument("--set", metavar="K=V", action="append", default=[],
                        help="config override, repeatable")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: the CPUs this process may run on)")
    parser.add_argument("--format", choices=["spt1", "csv"], default=None)
    return parser


def _keep_freed_heap() -> None:
    """Makes glibc keep freed heap for the life of the process.

    By default glibc hands the free top of each thread's heap back to the
    kernel, so a sweep worker faults every cell's arrays in again.  Setting
    both thresholds (either alone also ends glibc's dynamic thresholds)
    serves blocks under 32 MiB from the heap and never trims it.  Off glibc
    (no mallopt, or no C library to load) this does nothing.  The command
    owns its process; the library sets no process-wide state.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows' CDLL needs a name
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _resolve_workers(args) -> int:
    if args.workers is None:
        if hasattr(os, "sched_getaffinity"):  # an affinity mask may leave fewer than the host's
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if args.workers < 1:
        raise ConfigError(f"--workers: a run needs at least 1 worker, got {args.workers}")
    return args.workers


def _new_run(args):
    """(config, seed, artifacts, None) of a command that writes a run, whose
    config.resolved it writes: --config with the overrides, --seed else model.seed."""
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.config:
        config = parse_config(args.config, overrides)
    else:
        config = from_items(overrides)
    if args.out:
        config.values["output.dir"] = args.out
    if args.format:
        config.values["output.format"] = args.format
    seed = args.seed if args.seed is not None else config["model.seed"]
    if seed < 0:
        raise ConfigError(f"--seed: seeds must be nonnegative, got {seed}")
    art = _Artifacts(config["output.dir"], config["output.format"])
    art.write_text("config.resolved", serialize(config))
    return config, seed, art, None


def _read_run(args):
    """(config, seed, artifacts, manifest) of the run a reading command reads,
    in --out (else output.dir's default): its config.resolved, unchanged, and
    the seed of its manifest.json.  A config or seed flag is a config error,
    raised before any file is read, and a missing or malformed file an I/O
    error naming it."""
    for flag, value in (("--config", args.config), ("--set", args.set or None),
                        ("--format", args.format), ("--seed", args.seed)):
        if value is not None:
            raise ConfigError(f"{flag}: {args.command} takes the config and seed of its run")
    out_dir = args.out or _SCHEMA["output.dir"][1]
    path = os.path.join(out_dir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:
            raise OSError(f"{path}: not a manifest ({exc})") from exc
    if not (isinstance(record, dict) and isinstance(record.get("files"), dict)
            and isinstance(record.get("reads", {}), dict)):
        raise OSError(f"{path}: not a manifest (no files, or reads not a mapping)")
    seed = record.get("seed")
    if type(seed) is not int or seed < 0:  # json's true is a bool, an int subclass
        raise OSError(f"{path}: not a manifest (seed {seed!r}, expected an integer >= 0)")
    path = os.path.join(out_dir, "config.resolved")
    try:  # a missing file raises OSError itself
        config = parse_config(path)
    except ValueError as exc:
        raise OSError(f"{path}: not a resolved config ({exc})") from exc
    return config, seed, _Artifacts(out_dir, config["output.format"]), record


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    try:
        workers = _resolve_workers(args)
        config, seed, art, prior = (_read_run if args.command in _READERS else _new_run)(args)
        handlers = {
            "generate": _cmd_generate,
            "score-check": _cmd_score_check,
            "moments": _cmd_moments,
            "decompose": _cmd_decompose,
            "train": lambda *a: _cmd_fit(*a, "train", "rnn"),
            "train-brnn": lambda *a: _cmd_fit(*a, "train-brnn", "brnn"),
            "train-scalar": lambda *a: _cmd_fit(*a, "train-scalar", "scalar"),
            "train-linear": lambda *a: _cmd_fit(*a, "train-linear", "linear"),
            "eval": _cmd_eval,
            "sweep": lambda *a: _cmd_sweep(*a, workers),
        }
        status = handlers[args.command](config, seed, art)
        art.manifest(config, seed, args.command, prior)
        return status
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (AssumptionError, np.linalg.LinAlgError, FloatingPointError) as exc:
        stage = exc.stage if isinstance(exc, AssumptionError) else args.command
        print(json.dumps({"error": "numerical", "stage": stage, "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
