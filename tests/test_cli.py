import json
import math

import numpy as np
import pytest

from csl import cli, matcore
from csl.cli import main
from csl.matcore import PureStateVector, RegisterLayout, state_to_dict


@pytest.fixture
def bell_state_file(tmp_path):
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    st = PureStateVector(v, RegisterLayout.of(("R", 2), ("A", 1), ("Ap", 2)))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(state_to_dict(st)))
    return str(path)


@pytest.fixture
def kraus_file(tmp_path):
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(
        {"kraus": [[[1.0, 0.0], [0.0, 1.0]]], "dim_in": 2, "dim_out": 2}))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convex_split_suite_passes(tmp_path, capsys):
    out = tmp_path / "cs.csv"
    code, stdout, _ = run(["verify-convex-split", "--dims", "2x2",
                           "--samples", "4", "--seed", "11",
                           "--out", str(out)], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["suite"] == "convex-split"
    assert summary["pass_rate"] == 1.0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance_id,n,t,q2_lhs")
    assert len(lines) == 5


def test_uab_suite_passes(tmp_path, capsys):
    out = tmp_path / "uab.csv"
    code, stdout, _ = run(["verify-uab", "--dims", "2,2", "--samples", "2",
                           "--seed", "5", "--eps", "0.2",
                           "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(stdout)["pass_rate"] == 1.0
    assert "certified" in out.read_text().splitlines()[0]


def test_bounds_sweep_rld(tmp_path, capsys):
    code, stdout, _ = run(["bounds-sweep", "--suite", "rld", "--dims", "2x2",
                           "--samples", "3", "--seed", "9"], capsys)
    assert code == 0
    assert json.loads(stdout)["samples"] == 3


def test_qss_sim_json(tmp_path, bell_state_file, capsys):
    out = tmp_path / "qss.json"
    code, stdout, _ = run(["qss-sim", "--state", bell_state_file,
                           "--eps", "0.6", "--delta", "0.5",
                           "--seed", "0", "--out", str(out)], capsys)
    assert code == 0
    record = json.loads(out.read_text())
    assert record["n"] == 9
    assert abs(record["cost_bits"] - 0.5 * math.log2(9)) < 1e-12
    assert record["bound_ok"]
    assert json.loads(stdout)["result"]["n"] == 9


def test_divergence_command(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    sig = tmp_path / "sig.json"
    layout = RegisterLayout.of(("A", 2))
    rho.write_text(json.dumps(state_to_dict(
        matcore.DensityOperator(np.diag([0.75, 0.25]), layout))))
    sig.write_text(json.dumps(state_to_dict(
        matcore.DensityOperator(np.eye(2) / 2, layout))))
    code, stdout, _ = run(["divergence", "--alpha", "inf", "--rho", str(rho),
                           "--sigma", str(sig), "--seed", "0"], capsys)
    assert code == 0
    record = json.loads(stdout)["result"]
    assert record["branch"] == "max"
    assert abs(record["value_bits"] - math.log2(1.5)) < 1e-10


def test_rev_shannon_command(kraus_file, capsys):
    code, stdout, _ = run(["rev-shannon", "--channel", kraus_file,
                           "--alpha", "0.5", "--beta", "2.0", "--eps", "0.1",
                           "--n", "10", "--seed", "3"], capsys)
    assert code == 0
    record = json.loads(stdout)["result"]
    assert record["bits_per_use"] >= record["delta_n"] + 2.0 - 1e-6


def test_determinism_byte_identical(tmp_path, capsys):
    args = ["verify-convex-split", "--dims", "2x2", "--samples", "3",
            "--seed", "21"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": "2x2", "samples": 9, "seed": 21}))
    out = tmp_path / "c.csv"
    code, _, _ = run(["verify-convex-split", "--config", str(cfg),
                      "--samples", "3", "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 4  # flag beat the config


def test_exit_2_on_missing_required(capsys):
    code, _, err = run(["verify-convex-split", "--samples", "2",
                        "--seed", "1"], capsys)
    assert code == 2
    assert "error" in json.loads(err)


def test_exit_2_on_missing_seed(capsys):
    code, _, _ = run(["verify-convex-split", "--dims", "2x2",
                      "--samples", "2"], capsys)
    assert code == 2


def test_exit_2_on_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]")
    code, _, _ = run(["verify-convex-split", "--config", str(cfg)], capsys)
    assert code == 2


def test_exit_2_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_exit_1_on_assertion_failure(tmp_path, capsys, monkeypatch):
    # Force a violation by shrinking the residual tolerance below float noise.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": "2x2", "samples": 2, "seed": 4,
                               "tol_residual": 1e-30, "tol_slack": 1e-30}))
    code, stdout, _ = run(["verify-convex-split", "--config", str(cfg)],
                          capsys)
    assert code == 1
    summary = json.loads(stdout)
    assert summary["failure"]["kind"] == "assertion"
    assert summary["pass_rate"] < 1.0


def test_atomic_write_ignores_stray_tmp_and_leaves_no_temp(tmp_path, capsys):
    # A fixed "<path>.tmp" would belong to any other writer of the same path.
    stray = tmp_path / "out.csv.tmp"
    stray.write_text("another writer\n")
    out = tmp_path / "out.csv"
    code, _, _ = run(["bounds-sweep", "--suite", "rld", "--dims", "2x2",
                      "--samples", "1", "--seed", "9", "--out", str(out)], capsys)
    assert code == 0
    assert stray.read_text() == "another writer\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


def test_atomic_write_failure_leaves_no_temp(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError):
        cli._atomic_write(str(tmp_path / "x.csv"), "a\n")
    assert list(tmp_path.iterdir()) == []
