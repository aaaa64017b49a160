"""Batch experiment front-end.

Subcommands: generate, score-check, moments, decompose, train, train-brnn,
train-scalar, train-linear, eval, sweep.  Every run writes its artifacts under
the output directory together with a manifest listing content hashes, the
config hash, the master seed, and library versions, so (config, seed)
determines every artifact bit for bit.  eval and decompose read an earlier
run's directory: they add their files to its manifest, with their own config
hash, seed and versions under "reads", and write their resolved config as
<command>.config.resolved, so the earlier run's record stays whole.

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
from .config import ConfigError, ExperimentConfig, config_hash, from_items, parse_config, serialize
from .diagnostics import align, sample_sweep
from .recovery import (BrnnEstimate, _stage1_factors, quadratic_moments,
                       train_brnn, train_linear, train_quadratic, train_scalar)
from .score import QuadraticTest, stein_check
from .sequence_models import (AssumptionError, BrnnParams, MarkovChainSpec,
                              RnnParams, bounded_input_spec, brnn_forward,
                              rnn_forward, sample_markov_chain,
                              scalar_output_forward)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Commands that read an earlier run's artifacts and add to its record.
_READERS = ("eval", "decompose")

# mallopt(3) parameter numbers, from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class _Artifacts:
    """Collects written files for the manifest."""

    def __init__(self, out_dir: str, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.files: dict[str, str] = {}
        os.makedirs(out_dir, exist_ok=True)

    def _register(self, path: str) -> None:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.files[os.path.relpath(path, self.out_dir)] = digest

    def write_array(self, name: str, arr: np.ndarray) -> str:
        arr = np.asarray(arr, dtype=float)
        if self.fmt == "csv":
            path = os.path.join(self.out_dir, f"{name}.csv")
            np.savetxt(path, arr.reshape(arr.shape[0], -1), delimiter=",")
        else:
            path = os.path.join(self.out_dir, f"{name}.spt1")
            spt1.write_tensor(path, arr)
        self._register(path)
        return path

    def write_text(self, name: str, text: str) -> str:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self._register(path)
        return path

    def write_json(self, name: str, record: dict) -> str:
        return self.write_text(name, json.dumps(record, indent=2, sort_keys=True) + "\n")

    def prior_record(self) -> dict | None:
        """The directory's manifest, or None if it has none."""
        path = os.path.join(self.out_dir, "manifest.json")
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            try:
                record = json.load(fh)
            except ValueError as exc:
                raise OSError(f"{path}: not a manifest ({exc})") from exc
        if not (isinstance(record, dict) and isinstance(record.get("files"), dict)
                and isinstance(record.get("reads", {}), dict)):
            raise OSError(f"{path}: not a manifest (no files, or reads not a mapping)")
        return record

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
    w_scale = config["input.w_scale"]
    if config["input.sigma"] == "auto":
        base = bounded_input_spec(config.d_x, w_scale, seed=seed)
        return MarkovChainSpec(W=base.W, sigma=base.sigma, init=config["input.init"])
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((config.d_x, config.d_x)))[0]
    return MarkovChainSpec(W=w_scale * Q, sigma=float(config["input.sigma"]),
                           init=config["input.init"])


def _rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


def _make_rnn(config: ExperimentConfig, seed: int, d_y: int | None = None) -> RnnParams:
    rng = np.random.default_rng(seed)
    d_x, d_h = config.d_x, config.d_h
    d_y = config.d_y if d_y is None else d_y
    rows = np.linalg.qr(rng.standard_normal((d_x, d_h)))[0].T  # orthonormal rows
    A1 = config["model.a1_scale"] * rows
    U = config["model.u_scale"] * _rotation(d_h, rng)
    A2 = rng.standard_normal((d_h, d_y))
    A2 /= np.maximum(np.linalg.norm(A2, axis=1, keepdims=True), 1e-300)
    return RnnParams(A1=A1, U=U, A2=A2, l=config.l)


def _make_brnn(config: ExperimentConfig, seed: int) -> BrnnParams:
    rng = np.random.default_rng(seed)
    d_x, d_h, d_y = config.d_x, config.d_h, config.d_y
    A1 = np.linalg.qr(rng.standard_normal((d_x, d_h)))[0].T * config["model.a1_scale"]
    B1 = np.linalg.qr(rng.standard_normal((d_x, d_h)))[0].T * config["model.a1_scale"]
    scale = config["model.u_scale"]
    U = scale * _rotation(d_h, rng)
    V = scale * _rotation(d_h, rng)
    A2 = rng.standard_normal((2 * d_h, d_y))
    A2 /= np.maximum(np.linalg.norm(A2, axis=1, keepdims=True), 1e-300)
    return BrnnParams(A1=A1, B1=B1, U=U, V=V, A2=A2, l=2)


def _simulate(config: ExperimentConfig, seed: int, family: str = "rnn"):
    """(input spec, true parameters, simulated data) of one run of a family."""
    make, forward = {
        "rnn": (_make_rnn, rnn_forward),
        "brnn": (_make_brnn, brnn_forward),
        "scalar": (lambda c, s: _make_rnn(c, s, d_y=1), scalar_output_forward),
    }[family]
    spec_seed, chain_seed, model_seed = _child_seeds(seed, 3)
    spec = _input_spec(config, spec_seed)
    params = make(config, model_seed)
    x = sample_markov_chain(spec, config["estimation.n"], chain_seed)
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
    art.write_array("x", data.x)
    art.write_array("y", data.y)
    art.write_array("a1_true", params.A1)
    art.write_array("u_true", params.U)
    art.write_array("a2_true", params.A2)
    art.write_array("input_w", spec.W)
    art.write_array("input_sigma", np.array([[spec.sigma]]))
    print(f"generated n={data.n} sequence to {art.out_dir}")
    return EXIT_OK


def _cmd_score_check(config, seed, art):
    spec_seed, chain_seed, probe_seed = _child_seeds(seed, 3)
    spec = _input_spec(config, spec_seed)
    a = np.random.default_rng(probe_seed).standard_normal(config.d_x)
    a /= np.linalg.norm(a)
    err, absolute = stein_check(spec, QuadraticTest(a), m=2,
                                n_samples=config["estimation.n"], seed=chain_seed)
    art.write_json("score_check.json",
                   {"relative_error": err, "absolute": absolute,
                    "n": config["estimation.n"], "order": 2})
    print(f"score check m=2: relative error {err:.4g}")
    if not np.isfinite(err):
        raise AssumptionError("score check produced a non-finite error", stage="score-check")
    return EXIT_OK


def _cmd_moments(config, seed, art):
    """The moments train fits: t2, and t4, the unit-output moment at shift -1
    (d_h x d_h^2 x d_h^2) in the coordinates of t4_basis, orthonormal rows
    spanning the stage-1 input rows."""
    _check_degree(config, "moments")
    spec, _, data = _simulate(config, seed)
    T2, _, _, basis, Q = quadratic_moments(data, spec, config.d_h,
                                           burn_in=config["estimation.burn_in"], seed=seed)
    art.write_array("t2", T2)
    art.write_array("t4", Q)
    art.write_array("t4_basis", basis)
    print(f"moment tensors written to {art.out_dir}")
    return EXIT_OK


def _cmd_decompose(config, seed, art):
    """Stage 1 of train on a moments run's T2, with the same rank check; its
    cp_report.json gives the kept candidate's residual against T2 and how
    many candidates failed."""
    path = os.path.join(art.out_dir, "t2.spt1")
    if not os.path.exists(path):
        raise FileNotFoundError(f"expected moment tensor at {path}; run the moments subcommand first")
    T2 = spt1.read_tensor(path)
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
    the simulation, the family's train_* on it, and the true model in the
    estimates' convention of unit input rows (_unit_input_rows)."""
    estimator, l, units = {
        "rnn": (train_quadratic, 2, "quadratic"),
        "brnn": (train_brnn, 2, "quadratic"),
        "scalar": (train_scalar, 3, "cubic"),
    }[family]
    _check_degree(config, command, l, units)
    if family == "brnn" and min(config.d_x, config.d_y) < 2 * config.d_h:
        raise ConfigError(f"model.d_h: {command} fits 2 * model.d_h = {2 * config.d_h} rows, "
                          f"so needs model.d_x and model.d_y >= {2 * config.d_h}, got "
                          f"model.d_x={config.d_x} and model.d_y={config.d_y}")
    spec, params, data = _simulate(config, seed, family)
    est = estimator(data, spec, config.d_h, burn_in=config["estimation.burn_in"], seed=seed)
    return est, _unit_input_rows(params)


def _report(est, truth, degree):
    """(pairs, report) of a fit: each written name's (estimate, truth), and
    report.json's aligned errors.  A bidirectional fit aligns the stacked
    input rows [A1; B1] jointly, which cannot see a swapped forward/backward
    split, and each direction with its output rows and recurrence, so a
    large gap between the joint and the per-direction errors means the
    split failed."""
    if isinstance(est, BrnnEstimate):
        d = est.A1.shape[0]
        pairs = {"c": (np.vstack([est.A1, est.B1]), np.vstack([truth.A1, truth.B1])),
                 "a2": (est.A2, truth.A2), "u": (est.U, truth.U), "v": (est.V, truth.V)}
        joint = align(*pairs["c"])
        forward = align(est.A1, truth.A1, est.A2[:d], truth.A2[:d], est.U, truth.U)
        backward = align(est.B1, truth.B1, est.A2[d:], truth.A2[d:], est.V, truth.V)
        return pairs, {"max_error": joint.max_error, "median_error": joint.median_error,
                       "forward_max_error": forward.max_error,
                       "backward_max_error": backward.max_error,
                       "u_error": forward.u_error, "v_error": backward.u_error}
    aligned = align(est.A1, truth.A1, est.A2, truth.A2, est.U, truth.U, degree=degree)
    pairs = {"a1": (est.A1, truth.A1), "a2": (est.A2, truth.A2)}
    report = {"max_error": aligned.max_error, "median_error": aligned.median_error}
    if est.U is not None:
        pairs["u"] = (est.U, truth.U)
        report.update(a1_row_errors=aligned.per_row_errors["A1"].tolist(),
                      u_error=aligned.u_error)
    return pairs, report


def _cmd_fit(config, seed, art, command, family):
    """train, train-brnn and train-scalar: _fit, then each estimate and its
    truth as <name>_hat and <name>_true, and report.json (_report)."""
    est, truth = _fit(config, seed, command, family)
    pairs, report = _report(est, truth, config.l)
    for name, (hat, true) in pairs.items():
        art.write_array(f"{name}_hat", hat)
        art.write_array(f"{name}_true", true)
    art.write_json("report.json", report)
    print(f"{command}: max aligned row error {report['max_error']:.4g}")
    return EXIT_OK


def _cmd_train_linear(config, seed, art):
    """Linear model.  The lagged blocks A2^T U^k A1 identify A2 and U only
    given A1, so the true A1 is passed in as declared side information."""
    _check_degree(config, "train-linear", 1, "linear")
    spec, params, data = _simulate(config, seed)
    est = train_linear(data, spec, A1_known=params.A1,
                       burn_in=config["estimation.burn_in"])
    art.write_array("a2_hat", est.A2)
    art.write_array("u_hat", est.U)
    art.write_array("a2_true", params.A2)
    art.write_array("u_true", params.U)
    err = float(np.linalg.norm(est.A2 - params.A2))
    art.write_json("report.json", {"a2_error": err})
    print(f"train-linear: A2 error {err:.4g}")
    return EXIT_OK


def _read_pair(art, name):
    for ext, reader in ((".spt1", spt1.read_tensor),
                        (".csv", lambda p: np.loadtxt(p, delimiter=",", ndmin=2))):
        path = os.path.join(art.out_dir, name + ext)
        if os.path.exists(path):
            return reader(path)
    return None


def _cmd_eval(config, seed, art):
    """Aligns a train run's estimates against the truth it wrote, which is
    already in the unit-input-row convention, as the run's report.json
    aligns them: A1, and A2 and U where written, or for a train-brnn run the
    stacked input rows c_hat (its joint error).  A train-linear run writes
    no input rows, so there is nothing to align."""
    if _read_pair(art, "c_hat") is not None:
        names = ("c_hat", "c_true")
    else:
        names = ("a1_hat", "a1_true", "a2_hat", "a2_true", "u_hat", "u_true")
    rows_hat, rows_true, *rest = (_read_pair(art, name) for name in names)
    if rows_hat is None:
        if _read_pair(art, "a2_hat") is not None:
            raise FileNotFoundError(f"nothing to align in {art.out_dir}: train-linear "
                                    "writes no input rows (a1_hat)")
        raise FileNotFoundError(f"no estimate found in {art.out_dir}; run a train subcommand first")
    if rows_true is None:
        raise ConfigError("ground truth required for alignment")
    report = align(rows_hat, rows_true, *rest, degree=config.l)
    art.write_json("eval.json", {
        "max_error": report.max_error,
        "median_error": report.median_error,
        "permutation": report.permutation.tolist(),
        "signs": report.signs.tolist(),
    })
    print(f"eval: max aligned row error {report.max_error:.4g}")
    return EXIT_OK


def _cmd_sweep(config, seed, art, workers):
    _check_degree(config, "sweep")
    cell_master = _child_seeds(seed, 1)[0]

    def run_cell(n, cell_seed):
        sub = ExperimentConfig(values=dict(config.values))
        sub.values["estimation.n"] = int(n)
        mixed = int(np.random.SeedSequence([cell_master, int(n), int(cell_seed)])
                    .generate_state(1)[0])
        est, truth = _fit(sub, mixed, "sweep")
        report = align(est.A1, truth.A1)
        return [("A1", int(r), float(e))
                for r, e in enumerate(report.per_row_errors["A1"])]

    result = sample_sweep(run_cell, config["estimation.n_grid"],
                          config["estimation.seeds"], workers=workers)
    art.write_text("sweep.csv", "\n".join(result.csv_lines()) + "\n")
    art.write_json("sweep_summary.json", {
        "slope": result.slope,
        "intercept": result.intercept,
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
                        help="parallel workers (default: SPECTRAL_RNN_WORKERS, else the CPUs "
                             "this process may run on)")
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
    if args.workers is not None:
        workers, name = args.workers, "--workers"
    else:
        env = os.environ.get("SPECTRAL_RNN_WORKERS")
        if not env:
            if hasattr(os, "sched_getaffinity"):  # an affinity mask may leave fewer than the host's
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        name = "SPECTRAL_RNN_WORKERS"
        try:
            workers = int(env)
        except ValueError as exc:
            raise ConfigError(f"{name}: cannot parse {env!r}") from exc
    if workers < 1:
        raise ConfigError(f"{name}: a run needs at least 1 worker, got {workers}")
    return workers


def _load_config(args) -> ExperimentConfig:
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
    return config


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        workers = _resolve_workers(args)
        seed = args.seed if args.seed is not None else config["model.seed"]
        if seed < 0:
            raise ConfigError(f"--seed: seeds must be nonnegative, got {seed}")
        art = _Artifacts(config["output.dir"], config["output.format"])
        prior = art.prior_record() if args.command in _READERS else None
        art.write_text("config.resolved" if prior is None else f"{args.command}.config.resolved",
                       serialize(config))
        handlers = {
            "generate": _cmd_generate,
            "score-check": _cmd_score_check,
            "moments": _cmd_moments,
            "decompose": _cmd_decompose,
            "train": lambda *a: _cmd_fit(*a, "train", "rnn"),
            "train-brnn": lambda *a: _cmd_fit(*a, "train-brnn", "brnn"),
            "train-scalar": lambda *a: _cmd_fit(*a, "train-scalar", "scalar"),
            "train-linear": _cmd_train_linear,
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
