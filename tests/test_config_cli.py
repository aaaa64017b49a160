"""Config parsing and command-line interface tests."""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from spectral_rnn import cli, cp_decomp, moments, recovery, spt1
from spectral_rnn.cli import main
from spectral_rnn.config import (ConfigError, config_hash, from_items,
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
    ({"model.seed": "-3"}, "model.seed"),
    ({"estimation.seeds": "-1"}, "estimation.seeds"),
    ({"estimation.seeds": "0,-1"}, "estimation.seeds"),
    ({"estimation.n": "-5"}, "estimation.n"),
    ({"estimation.n": "5"}, "estimation.n"),
    ({"estimation.n": "13"}, "estimation.n"),
    ({"estimation.n": "100", "estimation.burn_in": "100"}, "estimation.n"),
    ({"estimation.n_grid": "1000,10"}, "estimation.n_grid"),
    ({"model.d_h": "5"}, "model.d_h"),
])
def test_values_no_run_can_use_are_rejected_by_key(items, key):
    """Negative seeds, sequences too short for a burn-in and a shifted score
    on both sides, and more hidden units than input dimensions are config
    errors naming their key, not tracebacks from the simulation."""
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
    cfg = _write_config(tmp_path, extra_cfg)
    out_dir = str(tmp_path / out)
    argv = [command, "--config", cfg, "--out", out_dir, *extra_args]
    return main(argv), out_dir


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
    _, out_a = _run(tmp_path, "generate", ("--seed", "7"),
                    {"estimation.n": "100"}, out="a")
    _, out_b = _run(tmp_path, "generate", ("--seed", "7"),
                    {"estimation.n": "100"}, out="b")
    for name in ("x.spt1", "y.spt1", "a1_true.spt1"):
        wa = open(os.path.join(out_a, name), "rb").read()
        wb = open(os.path.join(out_b, name), "rb").read()
        assert wa == wb, name


def test_cli_csv_format(tmp_path):
    code, out = _run(tmp_path, "generate", ("--format", "csv"),
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
    assert sorted(report) == ["max_error", "median_error"]
    assert report["max_error"] < 0.15
    # eval aligns the same rows, in the same sign group
    assert _run(tmp_path, "eval", ("--seed", "3"), SCALAR)[0] == 0
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


def test_cli_missing_moment_file_exit_code(tmp_path):
    code, _ = _run(tmp_path, "decompose", extra_cfg={"estimation.n": "100"})
    assert code == 4


def test_cli_truncated_moment_file_exit_code(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    spt1.write_tensor(out / "t2.spt1", np.ones((3, 4, 4)))
    raw = (out / "t2.spt1").read_bytes()
    (out / "t2.spt1").write_bytes(raw[:-8])
    code, _ = _run(tmp_path, "decompose", extra_cfg={"estimation.n": "100"})
    assert code == 4


def test_cli_decompose_rank_deficiency_exit_code(tmp_path, capsys):
    """decompose applies stage 1's rank check: the oracle T2 of a model with
    a zero output row has rank 2, which must not pass for 3 components."""
    rng = np.random.default_rng(5)
    A2 = rng.standard_normal((3, 4))
    A2[1] = 0.0
    params = RnnParams(A1=np.linalg.qr(rng.standard_normal((6, 3)))[0].T,
                       U=np.zeros((3, 3)), A2=A2, l=2)
    out = tmp_path / "out"
    out.mkdir()
    spt1.write_tensor(out / "t2.spt1", population_moment_oracle(params, "S2-order3"))
    code, _ = _run(tmp_path, "decompose", extra_cfg={
        "model.d_x": "6", "model.d_h": "3", "model.d_y": "4", "estimation.n": "100"})
    assert code == 3
    assert _exit_record(capsys) == {"error": "numerical", "stage": "stage1",
                                    "message": "stage 1: rank deficiency, kept 2 of 3 components"}
    assert not (out / "cp_weights.spt1").exists()


def test_cli_moments_then_decompose(tmp_path):
    cfg = {"estimation.n": "20000", "model.d_h": "2", "model.d_y": "3"}
    code, out = _run(tmp_path, "moments", extra_cfg=cfg)
    assert code == 0
    code2, _ = _run(tmp_path, "decompose", extra_cfg=cfg)
    assert code2 == 0
    weights = spt1.read_tensor(os.path.join(out, "cp_weights.spt1"))
    assert weights.shape == (1, 2)
    assert np.all(np.isfinite(weights))


def test_cli_moments_and_decompose_are_the_front_half_of_train(tmp_path):
    """train is moments, decompose and the recurrence row fits: at one seed,
    the rows fit on t4 in the basis t4_basis, given decompose's cp_factor,
    are train's u_hat bit for bit, and cp_factor^T is its a1_hat.  At this
    seed a row-major t2 decomposes to a cp_factor an ulp off a1_hat, so this
    also pins the layout decompose reads t2 in."""
    cfg = {"estimation.n": "20000", "model.d_h": "2", "model.d_y": "3"}
    for command in ("moments", "decompose"):
        assert _run(tmp_path, command, ("--seed", "7"), cfg, out="moments")[0] == 0
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
    code, out = _run(tmp_path, "decompose", extra_cfg=cfg)
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
    code2, _ = _run(tmp_path, "eval", ("--seed", "3"), cfg)
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


@pytest.mark.parametrize("writer,reader,outputs", [
    ("train", "eval", {"eval.json"}),
    ("moments", "decompose", {"cp_weights.spt1", "cp_mode1.spt1", "cp_factor.spt1",
                              "cp_report.json"})])
def test_cli_reading_commands_add_to_the_run_record(tmp_path, writer, reader, outputs):
    """eval and decompose keep the record of the run they read: every
    earlier artifact keeps its manifest entry and hash, config.resolved keeps
    its bytes, and the reader adds its files and, under reads, its own
    config hash (of <reader>.config.resolved), seed and versions."""
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

    assert _run(tmp_path, reader, ("--seed", "4"), cfg)[0] == 0
    after = json.loads((out / "manifest.json").read_text())
    assert {k: after[k] for k in ("config_hash", "seed", "versions")} == {
        k: before[k] for k in ("config_hash", "seed", "versions")}
    assert after["files"].items() >= before["files"].items()
    assert after["files"].keys() - before["files"].keys() == outputs | {
        f"{reader}.config.resolved"}
    for name, digest in after["files"].items():
        assert _sha256(out / name) == digest, name
    assert (out / "config.resolved").read_bytes() == resolved
    assert parse_config(str(out / "config.resolved"))["estimation.n"] == 20000
    assert after["reads"] == {reader: {
        "config_hash": _sha256(out / f"{reader}.config.resolved"), "seed": 4,
        "versions": before["versions"]}}


@pytest.mark.parametrize("text", ["{not json", "[]", '{"files": []}',
                                  '{"files": {}, "reads": []}'])
def test_cli_reading_command_rejects_a_broken_record(tmp_path, capsys, text):
    """A manifest that is not one exits 4 rather than being replaced."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    code, _ = _run(tmp_path, "eval", extra_cfg={"estimation.n": "100"})
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
    code2, _ = _run(tmp_path, "eval", ("--seed", "3"), cfg)
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
    code2, _ = _run(tmp_path, "eval", ("--seed", "2"), cfg)
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
    code, _ = _run(tmp_path, "eval", extra_cfg={"estimation.n": "100"})
    assert code == 4


def test_cli_train_linear(tmp_path):
    cfg = {"estimation.n": "30000", "model.u_scale": "0.4",
           "model.a1_scale": "0.5", "model.l": "1"}
    code, out = _run(tmp_path, "train-linear", extra_cfg=cfg)
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["a2_error"] < 1.0


def test_cli_eval_after_train_linear_exit_code(tmp_path, capsys):
    """train-linear writes no input rows, so eval exits 4 and says so."""
    cfg = {"estimation.n": "3000", "model.l": "1"}
    code, _ = _run(tmp_path, "train-linear", extra_cfg=cfg)
    assert code == 0
    code2, _ = _run(tmp_path, "eval", extra_cfg=cfg)
    assert code2 == 4
    record = _exit_record(capsys)
    assert record["error"] == "io"
    assert "train-linear writes no input rows" in record["message"]


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


def _artifact_bytes(out_dir):
    """Every file of a run directory, by name: its bytes."""
    files = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_cli_sweep_deterministic_across_workers(tmp_path):
    """sweep.csv, sweep_summary.json and the manifest's hashes are the same
    bytes at any worker count.  Both runs write to one directory, because
    the resolved config, and so its hash, names the output directory."""
    cfg = {"estimation.n_grid": "2000,8000", "estimation.seeds": "0,1"}
    runs = {}
    for workers in ("1", "4"):
        code, out = _run(tmp_path, "sweep", ("--workers", workers), cfg)
        assert code == 0, workers
        runs[workers] = _artifact_bytes(out)
        shutil.rmtree(out)
    one, four = runs["1"], runs["4"]
    assert one.keys() == four.keys() >= {"sweep.csv", "sweep_summary.json", "manifest.json"}
    assert one["sweep.csv"] == four["sweep.csv"]
    assert one["sweep_summary.json"] == four["sweep_summary.json"]
    files = json.loads(one["manifest.json"])["files"]
    assert files == json.loads(four["manifest.json"])["files"]
    assert files.keys() == one.keys() - {"manifest.json"}
    assert one["sweep.csv"].decode().splitlines()[0] == "n,seed,matrix,row,error"


def test_cli_workers_env_var(tmp_path, capsys, monkeypatch):
    """A variable that does not parse, or names fewer than one worker,
    exits 2 by name."""
    for value in ("nope", "0", "-3"):
        monkeypatch.setenv("SPECTRAL_RNN_WORKERS", value)
        code, _ = _run(tmp_path, "generate", extra_cfg={"estimation.n": "50"})
        assert code == 2, value
        assert _exit_record(capsys)["message"].startswith("SPECTRAL_RNN_WORKERS:"), value


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_workers_below_one_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                  command, workers):
    """No run can use fewer than one worker, so the flag exits 2 by name,
    before anything is simulated, and wins over a valid variable."""
    monkeypatch.setenv("SPECTRAL_RNN_WORKERS", "2")
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


def test_cli_default_workers_follow_the_affinity_mask(monkeypatch):
    # a process pinned to fewer CPUs than the host has gets one worker per
    # usable CPU; without sched_getaffinity the host's count stands
    monkeypatch.delenv("SPECTRAL_RNN_WORKERS", raising=False)
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
