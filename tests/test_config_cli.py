"""Config parsing and command-line interface tests."""

import hashlib
import inspect
import json
import os
import shutil
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from spectral_rnn import cli, cp_decomp, moments, recovery, spt1
from spectral_rnn.cli import main
from spectral_rnn.config import (_SCHEMA, ConfigError, config_hash, from_items,
                                 parse_config, serialize)
from spectral_rnn.diagnostics import align
from spectral_rnn.moments import population_moment_oracle
from spectral_rnn.recovery import BrnnEstimate, RnnEstimate
from spectral_rnn.score import QuadraticTest, stein_check
from spectral_rnn.sequence_models import RnnParams

BASE = {"model.d_x": "4", "model.d_h": "2", "model.d_y": "3"}


def _write_config(tmp_path, extra=None, name="run.cfg"):
    items = dict(BASE)
    if extra:
        items.update(extra)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    return str(path)


def test_parse_config_fills_defaults(tmp_path):
    path = _write_config(tmp_path, {"estimation.n": "5000"})
    config = parse_config(path)
    assert config.d_x == 4 and config.d_h == 2 and config.d_y == 3
    assert config["estimation.n"] == 5000
    assert config["model.l"] == 2
    assert config["input.w_scale"] == 0.5
    assert config["estimation.n_grid"] == [10000, 100000]


def test_parse_config_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# full line comment\n\nmodel.d_x = 2  # trailing\n"
                    "model.d_h = 1\nmodel.d_y = 2\n")
    config = parse_config(path)
    assert config.d_x == 2


def test_unknown_key_suggestion():
    with pytest.raises(ConfigError, match="did you mean 'model.d_x'"):
        from_items({**BASE, "model.dx": "4"})


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key"):
        from_items({"model.d_x": "4", "model.d_h": "2"})


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="model.d_x"):
        from_items({**BASE, "model.d_x": "four"})


def test_stability_violation_message():
    with pytest.raises(ConfigError,
                       match=r"\|\|A1\|\| \+ \|\|U\|\| <= 1 is violated"):
        from_items({**BASE, "model.a1_scale": "0.8", "model.u_scale": "0.5"})


def test_stability_check_can_be_disabled():
    config = from_items({**BASE, "model.a1_scale": "0.8",
                         "model.u_scale": "0.5", "model.norm_check": "off"})
    assert config["model.u_scale"] == 0.5


def test_w_scale_range():
    with pytest.raises(ConfigError, match="w_scale"):
        from_items({**BASE, "input.w_scale": "1.0"})


@pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf", "abc"])
def test_input_sigma_must_be_positive_and_finite(sigma):
    with pytest.raises(ConfigError, match="input.sigma"):
        from_items({**BASE, "input.sigma": sigma})


@pytest.mark.parametrize("items,key", [
    ({"model.l": "0"}, "model.l"),
    ({"estimation.seeds": "-1"}, "estimation.seeds"),
    ({"estimation.seeds": "0,-1"}, "estimation.seeds"),
    ({"estimation.n": "-5"}, "estimation.n"),
    ({"estimation.n": "5"}, "estimation.n"),
    ({"estimation.n": "13"}, "estimation.n"),
    ({"estimation.n": "100", "estimation.burn_in": "100"}, "estimation.n"),
    ({"estimation.n_grid": "1000,10"}, "estimation.n_grid"),
    ({"model.d_h": "5"}, "model.d_h"),
    ({"estimation.n_grid": "2000,4000,2000"}, "estimation.n_grid"),
    ({"estimation.seeds": "0,0"}, "estimation.seeds"),
    ({"estimation.seeds": ""}, "estimation.seeds"),
])
def test_values_no_run_can_use_are_rejected_by_key(items, key):
    """A unit degree below 1, negative sweep seeds, sequences too short for a
    burn-in and a shifted score on both sides, more hidden units than input
    dimensions, and an empty sweep grid or one that repeats an entry are
    config errors naming their key, not tracebacks from the simulation.  A
    negative master seed is --seed's (test_cli_negative_seed_is_a_config_error)."""
    with pytest.raises(ConfigError, match=f"^{key}:"):
        from_items({**BASE, **items})


def test_shortest_sequence_is_accepted():
    assert from_items({**BASE, "estimation.n": "14"})["estimation.n"] == 14


def test_serialize_round_trip(tmp_path):
    config = from_items({**BASE, "estimation.seeds": "3,4,5"})
    path = tmp_path / "ser.cfg"
    path.write_text(serialize(config))
    again = parse_config(path)
    assert again.values == config.values
    assert config_hash(again) == config_hash(config)


def test_config_hash_changes_with_values():
    a = from_items(BASE)
    b = from_items({**BASE, "estimation.n": "123"})
    assert config_hash(a) != config_hash(b)


def test_malformed_line_reports_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("model.d_x 4\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config(path)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def _run(tmp_path, command, extra_args=(), extra_cfg=None, out="out"):
    """Runs command with BASE and extra_cfg as its config file, or, for a
    reading command, which takes its run's config, with none."""
    out_dir = str(tmp_path / out)
    if command in cli._READERS:
        assert extra_cfg is None, "a reading command takes the config of its run"
        config = ()
    else:
        config = ("--config", _write_config(tmp_path, extra_cfg))
    return main([command, *config, "--out", out_dir, *extra_args]), out_dir


def _artifact_bytes(out_dir):
    """Every file of a run directory, by name: its bytes."""
    files = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_cli_generate_writes_artifacts(tmp_path):
    code, out = _run(tmp_path, "generate",
                     extra_cfg={"estimation.n": "200"})
    assert code == 0
    x = spt1.read_tensor(os.path.join(out, "x.spt1"))
    assert x.shape == (4, 200)
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert "x.spt1" in manifest["files"]
    assert "config_hash" in manifest and "versions" in manifest


def test_cli_generate_deterministic(tmp_path):
    """One (config, seed) writes the same bytes into any directory: every
    array, config.resolved and the manifest, since no file names --out."""
    _, out_a = _run(tmp_path, "generate", ("--seed", "7"),
                    {"estimation.n": "100"}, out="a")
    _, out_b = _run(tmp_path, "generate", ("--seed", "7"),
                    {"estimation.n": "100"}, out="b")
    written = _artifact_bytes(out_a)
    assert written.keys() >= {"x.spt1", "y.spt1", "a1_true.spt1", "config.resolved",
                              "manifest.json"}
    assert _artifact_bytes(out_b) == written


def test_cli_csv_format(tmp_path):
    code, out = _run(tmp_path, "generate", ("--set", "output.format=csv"),
                     {"estimation.n": "50"})
    assert code == 0
    x = np.loadtxt(os.path.join(out, "x.csv"), delimiter=",", ndmin=2)
    assert x.shape == (4, 50)


def test_cli_set_override(tmp_path):
    code, out = _run(tmp_path, "generate",
                     ("--set", "estimation.n=60"), {"estimation.n": "500"})
    assert code == 0
    assert spt1.read_tensor(os.path.join(out, "x.spt1")).shape[1] == 60


def test_cli_config_error_exit_code(tmp_path):
    code, _ = _run(tmp_path, "generate",
                   extra_cfg={"model.dx_typo": "1"})
    assert code == 2


@pytest.mark.parametrize("key", ["model.seed", "output.dir"])
def test_cli_seed_and_directory_are_no_config_keys(tmp_path, capsys, monkeypatch, key):
    """The master seed is --seed's and the run directory --out's, so a config
    file that sets either names an unknown key: exit 2 with the close-match
    hint, before anything is simulated."""
    monkeypatch.setattr(cli, "_simulate", None)
    code, _ = _run(tmp_path, "train", extra_cfg={key: "3", "estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys)["message"].startswith(f"unknown key {key!r} (did you mean ")


def _readme_config():
    """The example config of README's command-line section, as key -> value."""
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                  encoding="utf-8").read()
    block = readme.split("runs batch experiments from a flat", 1)[1].split("```")[1]
    return dict((part.strip() for part in line.split("=", 1))
                for line in block.strip().splitlines())


def test_readme_example_config_runs(tmp_path):
    """README's example config validates as written, and train runs on it
    (at a shorter sequence) with exit 0."""
    items = _readme_config()
    assert {"model.d_x", "model.d_h", "model.d_y"} <= items.keys()
    from_items(items)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    assert main(["train", "--config", str(path), "--seed", "3", "--set", "estimation.n=20000",
                 "--out", str(tmp_path / "results")]) == 0


def test_cli_bad_set_exit_code(tmp_path):
    code, _ = _run(tmp_path, "generate", ("--set", "estimation.n"))
    assert code == 2


def _exit_record(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("degree", [2, 4, 5])
def test_cli_scalar_degree_guard_exit_code(tmp_path, capsys, monkeypatch, degree):
    """train-scalar reads cubic units only (its weight divisor is 3!), so
    another model.l is a config error before anything is simulated."""
    simulated = []
    monkeypatch.setattr(cli, "_simulate", lambda *args, **kw: simulated.append(args))
    code, _ = _run(tmp_path, "train-scalar",
                   extra_cfg={"model.l": str(degree), "estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys) == {
        "error": "config",
        "message": f"model.l: train-scalar fits cubic units (l = 3), got {degree}"}
    assert simulated == []


SCALAR = {"model.d_x": "6", "model.d_h": "3", "model.d_y": "1", "model.l": "3",
          "model.a1_scale": "1.0", "estimation.n": "100000"}


def test_cli_train_scalar_scores_output_rows(tmp_path, monkeypatch):
    """report.json covers the A2 rows, aligned with cubic units' sign group,
    so an estimate with the right input rows and half the output scale
    (error about 0.5 per row against |a2| = 1) no longer reads as a pass."""
    code, out = _run(tmp_path, "train-scalar", ("--seed", "3"), SCALAR)
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert sorted(report) == ["max_error", "median_error", "permutation", "signs"]
    assert report["max_error"] < 0.15
    # eval aligns the same rows, in the same sign group
    assert _run(tmp_path, "eval")[0] == 0
    ev = json.loads(open(os.path.join(out, "eval.json")).read())
    assert (ev["max_error"], ev["median_error"]) == (report["max_error"],
                                                     report["median_error"])
    train_scalar = cli.train_scalar

    def halved(*args, **kwargs):
        est = train_scalar(*args, **kwargs)
        return RnnEstimate(A1=est.A1, A2=0.5 * est.A2, U=est.U)

    monkeypatch.setattr(cli, "train_scalar", halved)
    code, out = _run(tmp_path, "train-scalar", ("--seed", "3"), SCALAR, out="halved")
    assert code == 0
    assert json.loads(open(os.path.join(out, "report.json")).read())["max_error"] >= 0.3


@pytest.mark.parametrize("d_y", ["3", "6"])
def test_cli_train_scalar_needs_a_scalar_output(tmp_path, capsys, monkeypatch, d_y):
    """train-scalar fits a scalar output, so any other model.d_y is a config
    error naming it, before anything is simulated."""
    simulated = []
    monkeypatch.setattr(cli, "_simulate", lambda *args, **kw: simulated.append(args))
    code, _ = _run(tmp_path, "train-scalar", extra_cfg={**SCALAR, "model.d_y": d_y})
    assert code == 2
    assert _exit_record(capsys) == {
        "error": "config",
        "message": f"model.d_y: train-scalar fits a scalar output, got model.d_y={d_y}"}
    assert simulated == []


def test_cli_moments_csv_is_a_config_error(tmp_path, capsys, monkeypatch):
    """csv would flatten the order-3 moment tensors to matrices, which
    decompose cannot read back, so moments rejects it before simulating."""
    monkeypatch.setattr(cli, "_simulate", None)
    code, out = _run(tmp_path, "moments", ("--set", "output.format=csv"),
                     {"estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys)["message"].startswith("output.format: moments writes "
                                                      "order-3 tensors")
    assert sorted(os.listdir(out)) == ["config.resolved"]


@pytest.mark.parametrize("command", ["train", "moments", "sweep", "train-brnn"])
@pytest.mark.parametrize("degree", [1, 3])
def test_cli_quadratic_commands_reject_other_degrees(tmp_path, capsys, monkeypatch,
                                                     command, degree):
    """These commands fit quadratic units only, so another model.l is a
    config error before anything is simulated or written."""
    simulated = []
    monkeypatch.setattr(cli, "_simulate", lambda *args, **kw: simulated.append(args))
    code, out = _run(tmp_path, command, extra_cfg={"model.l": str(degree),
                                                   "estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys) == {
        "error": "config",
        "message": f"model.l: {command} fits quadratic units (l = 2), got {degree}"}
    assert simulated == []
    assert sorted(os.listdir(out)) == ["config.resolved"]


@pytest.mark.parametrize("degree", [2, 3])
def test_cli_train_linear_rejects_other_degrees(tmp_path, capsys, monkeypatch, degree):
    """train-linear fits linear units only, so another model.l is a config
    error before anything is simulated or written."""
    simulated = []
    monkeypatch.setattr(cli, "_simulate", lambda *args, **kw: simulated.append(args))
    code, out = _run(tmp_path, "train-linear", extra_cfg={"model.l": str(degree),
                                                          "estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys) == {
        "error": "config",
        "message": f"model.l: train-linear fits linear units (l = 1), got {degree}"}
    assert simulated == []
    assert sorted(os.listdir(out)) == ["config.resolved"]


@pytest.mark.parametrize("command", ["train", "moments"])
def test_cli_rank_deficient_output_rows_exit_code(tmp_path, capsys, command):
    """Two outputs cannot separate three units: stage 1 still succeeds, and
    the recurrence stage must fail loudly instead of truncating pinv(A2^T),
    in train and in moments, which writes the unit-output moment train fits."""
    code, out = _run(tmp_path, command, extra_cfg={
        "model.d_x": "6", "model.d_h": "3", "model.d_y": "2", "estimation.n": "20000"})
    assert code == 3
    assert _exit_record(capsys) == {"error": "numerical", "stage": "recurrence",
                                    "message": "recurrence: A2 rank 2 of 3"}
    assert sorted(os.listdir(out)) == ["config.resolved"]


@pytest.mark.parametrize("command", ["train", "moments"])
def test_rank_deficient_output_rows_fail_before_the_moment_pass(tmp_path, capsys,
                                                                monkeypatch, command):
    """The recurrence stage needs pinv(A2^T) to form the unit outputs, so A2's
    rank check fails the run before the fourth-order moment kernel runs."""
    calls = []
    monkeypatch.setattr(moments, "cross_moment_s4_reshaped",
                        lambda *args, **kwargs: calls.append(args))
    code, _ = _run(tmp_path, command, extra_cfg={
        "model.d_x": "6", "model.d_h": "3", "model.d_y": "2", "estimation.n": "20000"})
    assert code == 3
    assert _exit_record(capsys)["message"] == "recurrence: A2 rank 2 of 3"
    assert calls == []


def test_cli_linalg_error_names_the_command(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "train_quadratic", singular)
    code, _ = _run(tmp_path, "train", extra_cfg={"estimation.n": "100"})
    assert code == 3
    assert _exit_record(capsys) == {"error": "numerical", "stage": "train",
                                    "message": "Singular matrix"}


def _decompose_replaced_t2(tmp_path, t2, cfg=None):
    """decompose on a moments run (BASE and cfg) whose t2.spt1 is replaced by
    t2: an array, bytes cut from the run's own file, or None to delete it.
    (exit code, path of t2.spt1); decompose must then write no cp_* file."""
    assert _run(tmp_path, "moments", extra_cfg={"estimation.n": "2000", **(cfg or {})})[0] == 0
    path = tmp_path / "out" / "t2.spt1"
    if t2 is None:
        path.unlink()
    elif isinstance(t2, slice):
        path.write_bytes(path.read_bytes()[t2])
    else:
        spt1.write_tensor(path, t2)
    code, out = _run(tmp_path, "decompose")
    assert not any(name.startswith("cp_") for name in os.listdir(out))
    return code, path


def test_cli_missing_moment_file_exit_code(tmp_path, capsys):
    code, path = _decompose_replaced_t2(tmp_path, None)
    assert code == 4
    assert str(path) in _exit_record(capsys)["message"]


def test_cli_truncated_moment_file_exit_code(tmp_path):
    assert _decompose_replaced_t2(tmp_path, slice(None, -8))[0] == 4


def test_cli_decompose_rank_deficiency_exit_code(tmp_path, capsys):
    """decompose applies stage 1's rank check: the oracle T2 of a model with
    a zero output row has rank 2, which must not pass for 3 components."""
    rng = np.random.default_rng(5)
    A2 = rng.standard_normal((3, 4))
    A2[1] = 0.0
    params = RnnParams(A1=np.linalg.qr(rng.standard_normal((6, 3)))[0].T,
                       U=np.zeros((3, 3)), A2=A2, l=2)
    code, _ = _decompose_replaced_t2(tmp_path, population_moment_oracle(params, "S2-order3"),
                                     {"model.d_x": "6", "model.d_h": "3", "model.d_y": "4"})
    assert code == 3
    assert _exit_record(capsys) == {"error": "numerical", "stage": "stage1",
                                    "message": "stage 1: rank deficiency, kept 2 of 3 components"}


@pytest.mark.parametrize("shape", [(3, 4, 5), (4, 4), (2, 3, 3, 3)])
def test_cli_decompose_t2_of_the_wrong_shape_exit_code(tmp_path, capsys, shape):
    """A well-formed SPT1 file that is not d_y x d_x x d_x in the run's
    config is a corrupt artifact: exit 4, as a malformed file is."""
    code, path = _decompose_replaced_t2(tmp_path, np.ones(shape))
    assert code == 4
    assert _exit_record(capsys) == {"error": "io",
                                    "message": f"{path}: shape {shape}, expected (3, 4, 4)"}


def test_cli_decompose_non_finite_t2_exit_code(tmp_path, capsys):
    """A NaN in t2 is a corrupt artifact naming its path, read as eval reads
    a run array, not an SVD failure at stage decompose."""
    t2 = np.ones((3, 4, 4))
    t2[1, 2, 3] = np.nan
    code, path = _decompose_replaced_t2(tmp_path, t2)
    assert code == 4
    assert _exit_record(capsys) == {"error": "io", "message": f"{path}: non-finite entries"}


@pytest.mark.parametrize("flag", [("--config", "run.cfg"), ("--set", "model.d_h=1"),
                                  ("--seed", "3")],
                         ids=lambda flag: flag[0])
@pytest.mark.parametrize("reader", cli._READERS)
def test_cli_reader_rejects_config_and_seed_flags(tmp_path, capsys, reader, flag):
    """A reading command takes the config and seed of the run it reads, so a
    flag that would set either exits 2 naming it, before any file is read:
    the directory read does not exist, which would exit 4."""
    code, out = _run(tmp_path, reader, flag, out="missing")
    assert code == 2
    assert _exit_record(capsys)["message"].startswith(f"{flag[0]}: {reader} takes")
    assert not os.path.exists(out)


def test_cli_moments_then_decompose(tmp_path):
    cfg = {"estimation.n": "20000", "model.d_h": "2", "model.d_y": "3"}
    code, out = _run(tmp_path, "moments", extra_cfg=cfg)
    assert code == 0
    code2, _ = _run(tmp_path, "decompose")
    assert code2 == 0
    weights = spt1.read_tensor(os.path.join(out, "cp_weights.spt1"))
    assert weights.shape == (1, 2)
    assert np.all(np.isfinite(weights))


def test_cli_moments_and_decompose_are_the_front_half_of_train(tmp_path):
    """train is moments, decompose and the recurrence row fits: at one seed,
    the rows fit on t4 in the basis t4_basis, given decompose's cp_factor,
    are train's u_hat bit for bit, and cp_factor^T is its a1_hat.  decompose
    takes the seed from the moments run.  At this seed a row-major t2
    decomposes to a cp_factor an ulp off a1_hat, so this also pins the
    layout decompose reads t2 in."""
    cfg = {"estimation.n": "20000", "model.d_h": "2", "model.d_y": "3"}
    assert _run(tmp_path, "moments", ("--seed", "7"), cfg, out="moments")[0] == 0
    assert _run(tmp_path, "decompose", out="moments")[0] == 0
    assert _run(tmp_path, "train", ("--seed", "7"), cfg, out="train")[0] == 0

    def read(out, name):
        return spt1.read_tensor(os.path.join(tmp_path, out, name + ".spt1"))

    t4, basis, factor = (read("moments", name) for name in ("t4", "t4_basis", "cp_factor"))
    assert t4.shape == (2, 4, 4) and basis.shape == (2, 4)
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)
    U = recovery._recurrence_rows(t4, factor.T, range(2), basis)
    assert U.tobytes() == read("train", "u_hat").tobytes()
    assert factor.T.tobytes() == read("train", "a1_hat").tobytes()


def test_cli_decompose_reports_its_stage1(tmp_path):
    """cp_report.json explains the kept candidate: its rank, its residual
    against the moments run's T2 (recomputed here from the written factors)
    and how many of the candidates failed."""
    cfg = {"estimation.n": "20000", "model.d_h": "2", "model.d_y": "3"}
    assert _run(tmp_path, "moments", extra_cfg=cfg)[0] == 0
    code, out = _run(tmp_path, "decompose")
    assert code == 0
    report = json.loads(open(os.path.join(out, "cp_report.json")).read())
    assert sorted(report) == ["candidates_failed", "rank", "residual"]
    assert report["rank"] == 2
    assert 0 <= report["candidates_failed"] < cp_decomp.CANDIDATES
    T2 = spt1.read_tensor(os.path.join(out, "t2.spt1"))
    read = {name: spt1.read_tensor(os.path.join(out, f"cp_{name}.spt1"))
            for name in ("weights", "mode1", "factor")}
    fit = np.einsum("r,ar,ir,jr->aij", read["weights"][0], read["mode1"],
                    read["factor"], read["factor"])
    assert report["residual"] == pytest.approx(np.linalg.norm(T2 - fit) / np.linalg.norm(T2),
                                               rel=1e-9, abs=1e-15)
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert "cp_report.json" in manifest["files"]


def test_cli_train_and_eval(tmp_path):
    cfg = {"estimation.n": "40000"}
    code, out = _run(tmp_path, "train", ("--seed", "3"), cfg)
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["max_error"] < 0.5
    code2, _ = _run(tmp_path, "eval")
    assert code2 == 0
    ev = json.loads(open(os.path.join(out, "eval.json")).read())
    assert ev["max_error"] < 0.5
    assert sorted(ev["permutation"]) == [0, 1]
    # eval aligns the same (A1, A2, U) triple as train's report
    assert (ev["max_error"], ev["median_error"]) == (report["max_error"],
                                                     report["median_error"])
    # u_error is the max entrywise recurrence gap of that alignment
    written = {name: spt1.read_tensor(os.path.join(out, name + ".spt1"))
               for name in ("a1_hat", "a1_true", "a2_hat", "a2_true", "u_hat", "u_true")}
    assert report["u_error"] == align(*written.values()).u_error


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_artifact_write_holds_no_copy_of_the_file(tmp_path):
    """write_array writes the array's own buffer and hashes the file in
    chunks: neither holds a copy of the 9.6 MB payload, and the manifest
    entry is the file's sha256."""
    arts = cli._Artifacts(str(tmp_path), "spt1")
    arr = np.random.default_rng(3).standard_normal((6, 200_000))
    tracemalloc.start()
    try:
        path = arts.write_array("x", arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arr.nbytes // 4
    assert arts.files == {"x.spt1": hashlib.sha256(open(path, "rb").read()).hexdigest()}


def test_cli_and_library_share_one_burn_in_default():
    """The config's estimation.burn_in default is the estimators' default.
    config.py imports no numpy module, so the value is written in both
    places and held equal here."""
    assert _SCHEMA["estimation.burn_in"][1] == moments.DEFAULT_BURN_IN
    for train in (recovery.train_quadratic, recovery.train_brnn, recovery.train_scalar,
                  recovery.train_linear, recovery.quadratic_moments):
        assert inspect.signature(train).parameters["burn_in"].default == moments.DEFAULT_BURN_IN


@pytest.mark.parametrize("writer,reader,outputs", [
    ("train", "eval", {"eval.json"}),
    ("moments", "decompose", {"cp_weights.spt1", "cp_mode1.spt1", "cp_factor.spt1",
                              "cp_report.json"})])
def test_cli_reading_commands_add_to_the_run_record(tmp_path, writer, reader, outputs):
    """eval and decompose keep the record of the run they read: every
    earlier artifact keeps its manifest entry and hash, config.resolved keeps
    its bytes, and the reader adds its files and, under reads, its config
    hash and seed, which are the run's, and versions."""
    cfg = {"estimation.n": "20000"}
    assert _run(tmp_path, writer, ("--seed", "3"), cfg)[0] == 0
    out = tmp_path / "out"
    fresh = (out / "manifest.json").read_bytes()
    before = json.loads(fresh)
    # a fresh directory's record: the header and the files, nothing else
    assert sorted(before) == ["config_hash", "files", "seed", "versions"]
    assert fresh == (json.dumps(before, indent=2, sort_keys=True) + "\n").encode()
    resolved = (out / "config.resolved").read_bytes()
    assert before["config_hash"] == hashlib.sha256(resolved).hexdigest()

    assert _run(tmp_path, reader)[0] == 0
    after = json.loads((out / "manifest.json").read_text())
    header = {k: before[k] for k in ("config_hash", "seed", "versions")}
    assert {k: after[k] for k in header} == header
    assert after["files"].items() >= before["files"].items()
    assert after["files"].keys() - before["files"].keys() == outputs
    for name, digest in after["files"].items():
        assert _sha256(out / name) == digest, name
    assert (out / "config.resolved").read_bytes() == resolved
    assert parse_config(str(out / "config.resolved"))["estimation.n"] == 20000
    assert after["reads"] == {reader: header} and header["seed"] == 3


@pytest.mark.parametrize("text", ["{not json", "[]", '{"files": []}',
                                  '{"files": {}, "reads": []}', '{"files": {}}',
                                  '{"files": {}, "seed": -1}', '{"files": {}, "seed": "3"}',
                                  '{"files": {}, "seed": 3.0}', '{"files": {}, "seed": true}'])
def test_cli_reading_command_rejects_a_broken_record(tmp_path, capsys, text):
    """A manifest that is not one, or whose seed is not an integer >= 0,
    exits 4 rather than being replaced."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    code, _ = _run(tmp_path, "eval")
    assert code == 4
    assert "not a manifest" in _exit_record(capsys)["message"]
    assert (out / "manifest.json").read_text() == text


def test_cli_train_and_eval_non_unit_input_rows(tmp_path):
    """At a1_scale != 1 the truth is written and aligned in the estimates'
    unit-row convention, so the error meets the a1_scale = 1 bound."""
    cfg = {"estimation.n": "40000", "model.a1_scale": "0.7"}
    code, out = _run(tmp_path, "train", ("--seed", "3"), cfg)
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["max_error"] < 0.5
    code2, _ = _run(tmp_path, "eval")
    assert code2 == 0
    ev = json.loads(open(os.path.join(out, "eval.json")).read())
    assert ev["max_error"] < 0.5
    a1_true = spt1.read_tensor(os.path.join(out, "a1_true.spt1"))
    assert np.allclose(np.linalg.norm(a1_true, axis=1), 1.0)


@pytest.mark.parametrize("family", ["rnn", "brnn"])
def test_unit_input_rows_is_the_same_model(family):
    config = from_items({**BASE, "model.d_y": "4", "model.a1_scale": "0.7",
                         "model.u_scale": "0.3", "estimation.n": "300"})
    spec, params, data = cli._simulate(config, 1, family)
    unit = cli._unit_input_rows(params)
    assert np.allclose(np.linalg.norm(unit.A1, axis=1), 1.0)
    forward = cli.brnn_forward if family == "brnn" else cli.rnn_forward
    np.testing.assert_allclose(forward(unit, data.x).y, data.y, rtol=1e-12, atol=1e-14)


def test_cli_train_brnn(tmp_path):
    cfg = {"model.d_h": "1", "model.u_scale": "0.3", "model.a1_scale": "0.7",
           "estimation.n": "40000"}
    code, out = _run(tmp_path, "train-brnn", ("--seed", "2"), cfg)
    assert code == 0
    assert spt1.read_tensor(os.path.join(out, "c_hat.spt1")).shape == (2, 4)
    for name in ("u_hat", "v_hat", "u_true", "v_true"):
        assert spt1.read_tensor(os.path.join(out, name + ".spt1")).shape == (1, 1)
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["max_error"] < 0.5
    assert report["forward_max_error"] < 0.5 and report["backward_max_error"] < 0.5


def test_cli_eval_after_train_brnn_gives_the_joint_error(tmp_path):
    """eval on a train-brnn run aligns the stacked input rows c_hat, as the
    run's joint error does."""
    cfg = {"model.d_h": "1", "model.u_scale": "0.3", "model.a1_scale": "0.7",
           "estimation.n": "40000"}
    code, out = _run(tmp_path, "train-brnn", ("--seed", "2"), cfg)
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    code2, _ = _run(tmp_path, "eval")
    assert code2 == 0
    ev = json.loads(open(os.path.join(out, "eval.json")).read())
    assert (ev["max_error"], ev["median_error"]) == (report["max_error"],
                                                     report["median_error"])
    assert sorted(ev["permutation"]) == [0, 1]


def test_cli_train_brnn_reports_a_swapped_split(tmp_path, monkeypatch):
    """A forward/backward swap leaves the stacked rows [A1; B1] intact, so
    only the per-direction errors can show it."""
    train_brnn = cli.train_brnn

    def swapped(data, spec, d_h, **kwargs):
        est = train_brnn(data, spec, d_h, **kwargs)
        return BrnnEstimate(A1=est.B1, B1=est.A1, U=est.V, V=est.U,
                            A2=np.vstack([est.A2[d_h:], est.A2[:d_h]]))

    monkeypatch.setattr(cli, "train_brnn", swapped)
    cfg = {"model.d_h": "1", "model.u_scale": "0.3", "model.a1_scale": "0.7",
           "estimation.n": "40000"}
    code, out = _run(tmp_path, "train-brnn", ("--seed", "2"), cfg)
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["max_error"] < 0.1
    assert report["forward_max_error"] > 0.5 and report["backward_max_error"] > 0.5


def test_cli_train_brnn_narrow_output_is_a_config_error(tmp_path, monkeypatch):
    """d_y < 2 d_h cannot identify a BRNN; it is rejected before simulating."""
    monkeypatch.setattr(cli, "_simulate", None)
    code, _ = _run(tmp_path, "train-brnn", extra_cfg={
        "model.d_x": "6", "model.d_h": "2", "model.d_y": "3", "estimation.n": "100"})
    assert code == 2


def test_cli_train_brnn_narrow_input_is_a_config_error(tmp_path, capsys, monkeypatch):
    """Stage 1 reads 2 d_h input rows, which d_x < 2 d_h has no room for; it
    is rejected by its key before simulating."""
    monkeypatch.setattr(cli, "_simulate", None)
    code, _ = _run(tmp_path, "train-brnn", extra_cfg={
        "model.d_x": "3", "model.d_h": "2", "model.d_y": "6", "estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys)["message"].startswith("model.d_h: train-brnn fits 2 * model.d_h")


@pytest.mark.parametrize("command", ["generate", "train", "sweep"])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "_simulate", None)
    code, _ = _run(tmp_path, command, ("--seed", "-1"), {"estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys)["message"].startswith("--seed:")


def test_cli_estimates_do_not_read_model_truth(tmp_path, monkeypatch):
    """One fixed (x, y) under two model.u_scale values gives identical
    estimate and moment bytes: nothing but the data decides the estimate."""
    simulate = cli._simulate
    fixed = {}

    def fixed_data(config, seed, family="rnn"):
        spec, params, data = simulate(config, seed, family)
        return spec, params, fixed.setdefault(family, data)

    monkeypatch.setattr(cli, "_simulate", fixed_data)
    files = {"train": ("a1_hat", "a2_hat", "u_hat"),
             "train-brnn": ("c_hat", "a2_hat", "u_hat", "v_hat"),
             "moments": ("t2", "t4", "t4_basis")}
    hashes = {}
    for u_scale in ("0.3", "0"):
        cfg = {"model.d_h": "1", "model.u_scale": u_scale,
               "model.norm_check": "off", "estimation.n": "20000"}
        for command, names in files.items():
            code, out = _run(tmp_path, command, ("--seed", "5"), cfg,
                             out=f"{command}-{u_scale}")
            assert code == 0, command
            manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
            written = manifest["files"]
            assert {n + ".spt1" for n in names} <= written.keys(), (command, u_scale)
            hashes.setdefault(command, []).append(
                {n: written[n + ".spt1"] for n in names})
    for command, (first, second) in hashes.items():
        assert first == second, command


def test_cli_eval_without_estimate_exit_code(tmp_path):
    code, _ = _run(tmp_path, "eval")
    assert code == 4


LINEAR = {"estimation.n": "30000", "model.u_scale": "0.4", "model.a1_scale": "0.5",
          "model.l": "1"}


def test_cli_train_linear(tmp_path):
    """train-linear writes the realization and the truth, and reports the
    invariants of the similarity the blocks leave free: the Markov
    parameters C_0..C_2 relative to ||C_0||, and eig(U) matched by
    assignment (recomputed here from the written files)."""
    code, out = _run(tmp_path, "train-linear", extra_cfg=LINEAR)
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert sorted(report) == ["markov_error", "u_eig_error"]
    assert report["markov_error"] < 0.05 and report["u_eig_error"] < 0.05
    read = {name: spt1.read_tensor(os.path.join(out, name + ".spt1"))
            for name in ("a1_hat", "a1_true", "a2_hat", "a2_true", "u_hat", "u_true")}
    assert read["a1_hat"].shape == (2, 4) and read["a2_hat"].shape == (2, 3)

    def markov(tag):
        A1, A2, U = (read[f"{name}_{tag}"] for name in ("a1", "a2", "u"))
        return [A2.T @ np.linalg.matrix_power(U, j) @ A1 for j in range(3)]

    hat, true = markov("hat"), markov("true")
    assert report["markov_error"] == pytest.approx(
        max(np.linalg.norm(h - t) for h, t in zip(hat, true)) / np.linalg.norm(true[0]),
        rel=1e-12)
    lam, lam_true = (np.linalg.eigvals(read[name]) for name in ("u_hat", "u_true"))
    cost = np.abs(lam_true[:, None] - lam[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert report["u_eig_error"] == pytest.approx(cost[rows, cols].max(), rel=1e-12)


def test_cli_train_linear_reads_no_truth(tmp_path, monkeypatch):
    """train-linear goes through the shared fit path and hands its estimator
    the data, the input law, model.d_h and the burn-in: no true parameters
    and no seed it would not use."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return recovery.train_linear(*args, **kwargs)

    monkeypatch.setattr(cli, "train_linear", recorded)
    assert _run(tmp_path, "train-linear", extra_cfg=LINEAR)[0] == 0
    [(args, kwargs)] = calls
    assert not any(isinstance(a, RnnParams) for a in (*args, *kwargs.values()))
    assert args[2:] == (2,) and kwargs == {"burn_in": 10}


def test_cli_train_linear_narrow_output_is_a_config_error(tmp_path, capsys, monkeypatch):
    """C0 = A2^T A1 has rank at most model.d_y, so fewer outputs than units
    cannot be realized; it is rejected by its key before simulating."""
    monkeypatch.setattr(cli, "_simulate", None)
    code, out = _run(tmp_path, "train-linear", extra_cfg={**LINEAR, "model.d_y": "1"})
    assert code == 2
    assert _exit_record(capsys)["message"].startswith("model.d_y: train-linear realizes "
                                                      "model.d_h = 2 units")
    assert sorted(os.listdir(out)) == ["config.resolved"]


def test_cli_train_linear_rank_deficient_blocks_exit_code(tmp_path, capsys):
    """With a zero input map every output is zero, so C0 has rank 0 and the
    realization fails loudly at its stage."""
    code, out = _run(tmp_path, "train-linear", extra_cfg={**LINEAR, "model.a1_scale": "0"})
    assert code == 3
    assert _exit_record(capsys) == {"error": "numerical", "stage": "realization",
                                    "message": "realization: C0 rank 0 of 2"}
    assert sorted(os.listdir(out)) == ["config.resolved"]


BRNN = {"model.d_h": "1", "model.u_scale": "0.3", "model.a1_scale": "0.7"}

# (command, config) of one small run of every train family
TRAIN_RUNS = {
    "train": {"estimation.n": "5000"},
    "train-brnn": {**BRNN, "estimation.n": "5000"},
    "train-scalar": {**SCALAR, "estimation.n": "20000"},
    "train-linear": {**LINEAR, "estimation.n": "3000"},
}


@pytest.mark.parametrize("fmt", ["spt1", "csv"])
@pytest.mark.parametrize("command", TRAIN_RUNS)
def test_cli_eval_reproduces_the_report(tmp_path, command, fmt):
    """eval --out DIR, with no other flag, re-scores a run with the function
    that wrote its report.json, on the arrays the run wrote, in the run's own
    degree, format and shapes: its eval.json has report.json's bytes for
    every family, a linear run's invariants included."""
    assert _run(tmp_path, command, ("--seed", "3", "--set", f"output.format={fmt}"),
                TRAIN_RUNS[command])[0] == 0
    assert main(["eval", "--out", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    report = (out / "report.json").read_bytes()
    assert (out / "eval.json").read_bytes() == report
    if command != "train-linear":  # the aligned families record their alignment
        assert {"permutation", "signs"} <= json.loads(report).keys()


# damage -> (file name, what replaces it: an array, raw bytes, or None to delete it)
DAMAGED_RUNS = {
    "wrong shape": ("a1_true", np.zeros((3, 4))),
    "unparsable": ("a1_hat", b"1,2,x\n"),
    "non-finite": ("a2_hat", np.array([[0.5, np.nan, 0.5], [1.0, 0.0, 0.0]])),
    "missing truth": ("u_true", None),
}


@pytest.mark.parametrize("fmt", ["spt1", "csv"])
@pytest.mark.parametrize("damage", DAMAGED_RUNS)
def test_cli_eval_on_a_damaged_run_exit_code(tmp_path, capsys, damage, fmt):
    """A run array that is missing, unparsable, misshapen or non-finite is an
    I/O error naming its path, and eval writes no eval.json."""
    assert _run(tmp_path, "train", ("--set", f"output.format={fmt}"),
                {"estimation.n": "2000"})[0] == 0
    name, content = DAMAGED_RUNS[damage]
    path = tmp_path / "out" / f"{name}.{fmt}"
    if content is None:
        path.unlink()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif fmt == "csv":
        np.savetxt(path, content, delimiter=",")
    else:
        spt1.write_tensor(path, content)
    code, out = _run(tmp_path, "eval")
    assert code == 4
    record = _exit_record(capsys)
    assert record["error"] == "io" and str(path) in record["message"]
    assert not os.path.exists(os.path.join(out, "eval.json"))


@pytest.mark.parametrize("norm_check", ["strict", "off"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["model.a1_scale", "model.u_scale"])
def test_cli_non_finite_model_scale_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                      key, value, norm_check):
    """A non-finite model scale exits 2 naming its key before anything is
    simulated, whether or not the norm check runs."""
    monkeypatch.setattr(cli, "_simulate", None)
    code, out = _run(tmp_path, "train", ("--set", f"{key}={value}"),
                     {"model.norm_check": norm_check, "estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys)["message"].startswith(f"{key}: expected a finite number")
    assert not os.path.exists(out)


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("commands,cfg,written", [
    pytest.param(("generate",), {"estimation.n": "100"}, set(), id="generate"),
    pytest.param(("score-check",), {"estimation.n": "2000"}, {"score_check.json"},
                 id="score-check"),
    pytest.param(("moments", "decompose"), {"estimation.n": "2000"}, {"cp_report.json"},
                 id="moments-decompose"),
    *(pytest.param((command, "eval"), cfg, {"report.json", "eval.json"}, id=f"{command}-eval")
      for command, cfg in TRAIN_RUNS.items()),
    pytest.param(("sweep",), {"estimation.n_grid": "2000", "estimation.seeds": "0,1"},
                 {"sweep_summary.json"}, id="sweep-one-n"),
    pytest.param(("sweep",), {"estimation.n_grid": "2000,4000", "estimation.seeds": "0"},
                 {"sweep_summary.json"}, id="sweep-two-n"),
])
def test_cli_json_artifacts_are_strict_json(tmp_path, commands, cfg, written):
    """Every JSON artifact of every command parses without NaN or Infinity;
    a sweep whose grid has one n fits no line, and writes a null slope and
    intercept."""
    for command in commands:
        if command in cli._READERS:
            assert _run(tmp_path, command)[0] == 0, command
        else:
            assert _run(tmp_path, command, ("--seed", "3"), cfg)[0] == 0, command
    records = {path.name: _strict_json(path) for path in (tmp_path / "out").glob("*.json")}
    assert records.keys() == written | {"manifest.json"}
    if commands == ("sweep",):
        fitted = "," in cfg["estimation.n_grid"]
        summary = records["sweep_summary.json"]
        assert [summary[key] is not None for key in ("slope", "intercept")] == [fitted] * 2


def test_cli_score_check_non_finite_error_writes_no_record(tmp_path, capsys, monkeypatch):
    """score-check checks its error before it writes score_check.json."""
    monkeypatch.setattr(cli, "stein_check", lambda *args, **kwargs: (float("nan"), 0.0))
    code, out = _run(tmp_path, "score-check", extra_cfg={"estimation.n": "100"})
    assert code == 3
    assert _exit_record(capsys)["stage"] == "score-check"
    assert not os.path.exists(os.path.join(out, "score_check.json"))


@pytest.mark.parametrize("damage", ["missing", "unknown key", "no value", "binary",
                                    "pre-change"])
def test_cli_eval_without_a_readable_run_config_exit_code(tmp_path, capsys, damage):
    """eval takes the degree from the run's config.resolved, so a missing or
    malformed one is an I/O error, and eval writes no eval.json.  A run
    whose config.resolved still names its directory and seed, as runs
    written before --out and --seed became their only setters did, is such
    a file: it is re-run, not read."""
    assert _run(tmp_path, "train", extra_cfg={"estimation.n": "2000"})[0] == 0
    path = tmp_path / "out" / "config.resolved"
    if damage == "missing":
        path.unlink()
    elif damage == "pre-change":
        path.write_text(path.read_text()
                        .replace("model.a1_scale", "model.seed = 0\nmodel.a1_scale")
                        .replace("output.format", "output.dir = out\noutput.format"))
    else:
        path.write_bytes({"unknown key": b"model.dx = 4\n", "no value": b"model.l\n",
                          "binary": b"\xff\xfe"}[damage])
    code, out = _run(tmp_path, "eval")
    assert code == 4
    record = _exit_record(capsys)
    assert record["error"] == "io" and str(path) in record["message"]
    assert not os.path.exists(os.path.join(out, "eval.json"))


@pytest.mark.parametrize("name", ["config.resolved", "manifest.json"])
@pytest.mark.parametrize("writer,reader,output", [("train", "eval", "eval.json"),
                                                  ("moments", "decompose", "cp_report.json")])
def test_cli_reader_without_its_run_record_exit_code(tmp_path, capsys, writer, reader, output,
                                                      name):
    """A reading command's config and seed are the run's config.resolved and
    manifest.json, so a run directory without either exits 4 naming it."""
    assert _run(tmp_path, writer, extra_cfg={"estimation.n": "2000"})[0] == 0
    path = tmp_path / "out" / name
    path.unlink()
    code, out = _run(tmp_path, reader)
    assert code == 4
    record = _exit_record(capsys)
    assert record["error"] == "io" and str(path) in record["message"]
    assert not os.path.exists(os.path.join(out, output))


def test_cli_score_check(tmp_path):
    code, out = _run(tmp_path, "score-check", ("--seed", "4"),
                     extra_cfg={"estimation.n": "20000"})
    assert code == 0
    rec = json.loads(open(os.path.join(out, "score_check.json")).read())
    assert rec["relative_error"] < 0.2
    # the command is stein_check on its child seeds: spec, chain, probe
    spec_seed, chain_seed, probe_seed = cli._child_seeds(4, 3)
    spec = cli._input_spec(from_items({**BASE, "estimation.n": "20000"}), spec_seed)
    a = np.random.default_rng(probe_seed).standard_normal(4)
    err, absolute = stein_check(spec, QuadraticTest(a / np.linalg.norm(a)), 2, 20000,
                                chain_seed)
    assert (rec["relative_error"], rec["absolute"]) == (err, absolute)


def test_cli_sweep_deterministic_across_workers(tmp_path):
    """Every file of a sweep, config.resolved and manifest.json included, is
    the same bytes at any worker count and in any directory."""
    cfg = {"estimation.n_grid": "2000,8000", "estimation.seeds": "0,1"}
    runs = {}
    for workers in ("1", "4"):
        code, out = _run(tmp_path, "sweep", ("--workers", workers), cfg, out=f"w{workers}")
        assert code == 0, workers
        runs[workers] = _artifact_bytes(out)
    one, four = runs["1"], runs["4"]
    assert one == four
    assert one.keys() == {"config.resolved", "sweep.csv", "sweep_summary.json",
                          "manifest.json"}
    assert json.loads(one["manifest.json"])["files"].keys() == one.keys() - {"manifest.json"}
    assert one["sweep.csv"].decode().splitlines()[0] == "n,seed,matrix,row,error"


def test_cli_run_reproduces_from_its_own_record(tmp_path):
    """A run's config.resolved, as --config, and its manifest's seed, as
    --seed, write every file of the run again, byte for byte, into another
    directory."""
    assert _run(tmp_path, "train", ("--seed", "11"), {"estimation.n": "5000"},
                out="first")[0] == 0
    first = tmp_path / "first"
    seed = json.loads((first / "manifest.json").read_text())["seed"]
    again = tmp_path / "again"
    assert main(["train", "--config", str(first / "config.resolved"), "--seed", str(seed),
                 "--out", str(again)]) == 0
    assert _artifact_bytes(again) == _artifact_bytes(first)


def test_cli_sweep_repeated_grid_entry_is_a_config_error(tmp_path, capsys, monkeypatch):
    """A repeated n or seed would fit one sweep cell twice and write its rows
    twice, so it exits 2 naming the key before anything is simulated."""
    monkeypatch.setattr(cli, "_simulate", None)
    code, out = _run(tmp_path, "sweep", ("--set", "estimation.n_grid=2000,2000",
                                         "--set", "estimation.seeds=0,0"))
    assert code == 2
    assert _exit_record(capsys)["message"].startswith("estimation.n_grid: need distinct")
    assert not os.path.exists(out)


def test_cli_generate_ignores_a_workers_variable(tmp_path, monkeypatch):
    """--workers is the only worker setting: the environment sets none."""
    monkeypatch.setenv("SPECTRAL_RNN_WORKERS", "nope")
    assert _run(tmp_path, "generate", extra_cfg={"estimation.n": "50"})[0] == 0


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_workers_below_one_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                  command, workers):
    """No run can use fewer than one worker, so the flag exits 2 by name,
    before anything is simulated."""
    monkeypatch.setattr(cli, "_simulate", None)
    code, _ = _run(tmp_path, command, ("--workers", workers), {"estimation.n": "100"})
    assert code == 2
    assert _exit_record(capsys)["message"].startswith("--workers:")


class _FakeLibc:
    """A C library whose mallopt records its calls and returns `status`."""

    def __init__(self, status=1):
        self.calls = []
        self.status = status

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.status


def test_cli_main_sets_the_heap_policy_before_the_handler(tmp_path, monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    seen = []

    def handler(config, seed, art):
        seen.extend(libc.calls)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_cmd_generate", handler)
    code, _ = _run(tmp_path, "generate", extra_cfg={"estimation.n": "50"})
    assert code == 0
    # mallopt(3): M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1
    assert seen == [(-3, 32 << 20), (-1, 1 << 30)]


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [
    lambda name: object(),           # a C library without mallopt
    _no_c_library,                   # CDLL fails
    lambda name: _FakeLibc(status=0),  # mallopt refuses the values
], ids=["no-mallopt", "cdll-raises", "mallopt-fails"])
def test_cli_heap_policy_failure_changes_nothing(tmp_path, monkeypatch, cdll):
    """Where the policy cannot be set the command runs as it would have:
    the same exit code and the same bytes in every file."""
    cfg = {"estimation.n": "2000"}
    code, out = _run(tmp_path, "train", extra_cfg=cfg)
    assert code == 0
    expected = _artifact_bytes(out)
    shutil.rmtree(out)
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    code, out = _run(tmp_path, "train", extra_cfg=cfg)
    assert code == 0
    assert _artifact_bytes(out) == expected


@pytest.mark.parametrize("command", ["generate", "eval"])
def test_cli_empty_out_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    """--out names the run's directory and has no fallback key, so an empty
    one exits 2 by name, before anything is read, simulated or written."""
    monkeypatch.setattr(cli, "_simulate", None)
    monkeypatch.chdir(tmp_path)
    config = () if command in cli._READERS else ("--config", _write_config(tmp_path))
    assert main([command, *config, "--out", ""]) == 2
    assert _exit_record(capsys)["message"].startswith("--out:")
    assert sorted(os.listdir(tmp_path)) == ([] if command in cli._READERS else ["run.cfg"])


def test_cli_default_workers_follow_the_affinity_mask(monkeypatch):
    # a process pinned to fewer CPUs than the host has gets one worker per
    # usable CPU; without sched_getaffinity the host's count stands
    args = cli._build_parser().parse_args(["generate"])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._resolve_workers(args) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._resolve_workers(args) == 64


def test_cli_resolved_config_written(tmp_path):
    _, out = _run(tmp_path, "generate", extra_cfg={"estimation.n": "50"})
    text = open(os.path.join(out, "config.resolved")).read()
    assert "model.d_x = 4" in text
    assert "estimation.n = 50" in text
