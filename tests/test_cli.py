import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import csl
from csl import cli, matcore, optim
from csl.cli import main


def write_state(path, layout, field, array):
    """A state file: layout [label, dim] pairs, entries as [re, im] pairs."""
    a = np.asarray(array, dtype=complex)
    path.write_text(json.dumps(
        {"layout": layout, field: np.stack([a.real, a.imag], axis=-1).tolist()}))
    return str(path)


@pytest.fixture
def bell_state_file(tmp_path):
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return write_state(tmp_path / "phi.json", [["R", 2], ["A", 1], ["Ap", 2]],
                       "vector", v)


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
    rho = write_state(tmp_path / "rho.json", [["A", 2]], "matrix", np.diag([0.75, 0.25]))
    sig = write_state(tmp_path / "sig.json", [["A", 2]], "matrix", np.eye(2) / 2)
    code, stdout, _ = run(["divergence", "--alpha", "inf", "--rho", rho,
                           "--sigma", sig, "--seed", "0"], capsys)
    assert code == 0
    record = json.loads(stdout)["result"]
    assert record["branch"] == "max"
    assert abs(record["value_bits"] - math.log2(1.5)) < 1e-10


def test_divergence_infinite_order_spellings_write_the_same_bytes(tmp_path, capsys):
    rho = write_state(tmp_path / "rho.json", [["A", 2]], "matrix", np.diag([0.75, 0.25]))
    sig = write_state(tmp_path / "sig.json", [["A", 2]], "matrix", np.eye(2) / 2)
    artifacts = []
    for spelling in ("inf", "Infinity", "INF"):
        out = tmp_path / f"{spelling}.json"
        code, _, _ = run(["divergence", "--alpha", spelling, "--rho", rho, "--sigma", sig,
                          "--seed", "0", "--out", str(out)], capsys)
        assert code == 0
        artifacts.append(out.read_bytes())
    record = json.loads(artifacts[0])
    assert (record["branch"], record["alpha"]) == ("max", "inf")
    assert artifacts[1] == artifacts[0] and artifacts[2] == artifacts[0]


@pytest.mark.parametrize("layout, field, array", [
    ([["A", 1], ["A", 2]], "matrix", np.eye(2) / 2),
    ([["A", 2], ["B", 0]], "matrix", np.eye(2) / 2),
    ([["A", 2]], "matrix", [[1.0, 0.5], [0.4, 0.0]]),
    ([["A", 2]], "matrix", np.diag([0.7, 0.7])),
    ([["A", 2]], "matrix", np.diag([1.2, -0.2])),
    ([["A", 3]], "matrix", np.eye(2) / 2),
    ([["A", 2]], "vector", [1.0, 1.0]),
], ids=["duplicate-labels", "zero-dim", "non-hermitian", "trace-1.4",
        "negative-eigenvalue", "shape-mismatch", "vector-norm"])
def test_divergence_rejects_malformed_state_file(tmp_path, capsys, layout, field, array):
    rho = write_state(tmp_path / "rho.json", layout, field, array)
    sig = write_state(tmp_path / "sig.json", [["A", 2]], "matrix", np.eye(2) / 2)
    code, _, stderr = run(["divergence", "--alpha", "2", "--rho", rho,
                           "--sigma", sig, "--seed", "0"], capsys)
    assert code == 2
    assert "error" in json.loads(stderr)


def test_divergence_dimension_mismatch_exits_2(tmp_path, capsys):
    rho = write_state(tmp_path / "rho.json", [["A", 2]], "matrix", np.eye(2) / 2)
    sig = write_state(tmp_path / "sig.json", [["A", 3]], "matrix", np.eye(3) / 3)
    code, stdout, stderr = run(["divergence", "--alpha", "2", "--rho", rho,
                                "--sigma", sig, "--seed", "0"], capsys)
    assert code == 2 and stdout == ""
    assert "dimension mismatch" in json.loads(stderr)["error"]


@pytest.mark.parametrize("field, entries", [
    ("matrix", [[[math.nan, 0], [0, 0]], [[0, 0], [0.5, 0]]]),
    ("matrix", [[[math.inf, 0], [0, 0]], [[0, 0], [0.5, 0]]]),
    ("vector", [[math.nan, 0], [0, 0], [0, 0], [1, 0]]),
    ("kraus", [[[1.0, 0.0], [0.0, math.nan]]]),
], ids=["matrix-nan", "matrix-inf", "vector-nan", "channel-nan"])
def test_non_finite_input_files_are_config_errors(tmp_path, capsys, field, entries):
    # json reads NaN and Infinity; no check of a state or channel may let
    # them through.
    path = tmp_path / "input.json"
    if field == "kraus":
        path.write_text(json.dumps({"kraus": entries, "dim_in": 2, "dim_out": 2}))
        argv = ["rev-shannon", "--channel", str(path)]
    elif field == "vector":
        path.write_text(json.dumps({"layout": [["R", 2], ["A", 1], ["Ap", 2]],
                                    "vector": entries}))
        argv = ["qss-sim", "--state", str(path)]
    else:
        path.write_text(json.dumps({"layout": [["A", 2]], "matrix": entries}))
        argv = ["divergence", "--alpha", "2", "--rho", str(path), "--sigma", str(path)]
    code, stdout, stderr = run(argv + ["--seed", "0"], capsys)
    assert code == 2, stdout
    assert "finite" in json.loads(stderr)["error"]


@pytest.mark.parametrize("channel", [
    {"dim_in": 2, "dim_out": 2, "kraus": [[[1, 0], [0, 1], [0, 0]]]},
    {"dim_in": 2, "dim_out": 3, "kraus": [[[1, 0], [0, 1]]]},
    {"dim_in": 0, "dim_out": 2, "kraus": [[[], []]]},
], ids=["3x2-for-2x2", "2x2-for-3x2", "empty-input"])
def test_rev_shannon_kraus_of_the_wrong_shape_exits_2(tmp_path, capsys, channel):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(channel))
    code, stdout, stderr = run(["rev-shannon", "--channel", str(path), "--seed", "0"], capsys)
    assert code == 2 and stdout == ""
    assert "Kraus operators must be (dim_out, dim_in)" in json.loads(stderr)["error"]


def test_bounds_sweep_nan_beta_is_a_config_error(capsys):
    code, _, stderr = run(["bounds-sweep", "--suite", "uab", "--dims", "2x2", "--samples", "1",
                           "--seed", "1", "--beta", "nan"], capsys)
    assert code == 2
    assert "beta" in json.loads(stderr)["error"]


@pytest.mark.parametrize("order", [["--alpha", "1.5"], ["--beta", "0.75"]])
def test_bounds_sweep_refuses_bad_orders_before_any_solve(order, monkeypatch, capsys):
    # f_alpha_beta's refusal comes first: no SDP and no H_up solve runs.
    from csl import infomeasures, smoothing
    calls = []

    def counted(module, name):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or inner(*a, **k))

    for module in (optim, infomeasures, smoothing):
        counted(module, "dominating_trace_min")
    counted(infomeasures, "minimize_convex_over_states")
    code, stdout, stderr = run(["bounds-sweep", "--suite", "uab", "--dims", "2x3",
                                "--samples", "3", "--seed", "1"] + order, capsys)
    assert code == 2 and stdout == "" and calls == []
    assert json.loads(stderr)["error"] == "need alpha in (0,1), beta > 1, eps in (0,1)"


@pytest.mark.parametrize("argv", [
    ["rev-shannon", "--alpha", "0.5", "--beta", "250"],
    ["verify-uab", "--dims", "2x2", "--samples", "1", "--seed", "1", "--beta", "1e6"]])
def test_large_beta_is_a_certificate_failure(argv, tmp_path, capfd):
    # An overflowing H_up solve exits 1 with a failure record, quietly.
    if argv[0] == "rev-shannon":
        g = 0.3
        path = tmp_path / "ad.json"
        path.write_text(json.dumps({"kraus": [[[1.0, 0.0], [0.0, math.sqrt(1 - g)]],
                                              [[0.0, math.sqrt(g)], [0.0, 0.0]]],
                                    "dim_in": 2, "dim_out": 2}))
        argv = argv + ["--channel", str(path), "--seed", "0"]
    assert main(argv) == 1
    out, err = capfd.readouterr()
    assert json.loads(out)["failure"]["kind"] == "certificate" and err == ""


def _assert_numbers_close(got: str, want: str, rel: float):
    """Two numeric CSV texts: the same header and shape, and every cell
    within rel of max(1, |want|)."""
    got, want = got.splitlines(), want.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for g_row, w_row in zip(got[1:], want[1:]):
        for g, w in zip(g_row.split(","), w_row.split(","), strict=True):
            assert abs(float(g) - float(w)) <= rel * max(1.0, abs(float(w))), (g_row, w_row)


@pytest.mark.parametrize("argv", [
    ["verify-convex-split", "--dims", "2x2", "--n-max", "9", "--samples", "9", "--seed", "5000"],
    ["verify-convex-split", "--dims", "2x3", "--n-max", "5", "--samples", "6", "--seed", "7"],
    ["verify-uab", "--dims", "2x3", "--samples", "4", "--seed", "7"],
], ids=["convex-split-2x2", "convex-split-2x3", "uab-2x3"])
def test_artifacts_agree_on_one_and_two_blas_threads(tmp_path, argv):
    # Each run is a fresh process, since BLAS reads its thread count once.
    src = str(Path(csl.__file__).resolve().parents[1])
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "csl.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        texts.append(out.read_text())
    _assert_numbers_close(texts[1], texts[0], 1e-12)


def test_divergence_vector_file_is_its_projector(tmp_path, capsys):
    v = np.array([0.6, 0.8j])
    sig = write_state(tmp_path / "sig.json", [["A", 2]], "matrix", np.diag([0.3, 0.7]))
    values = []
    for field, array in (("vector", v), ("matrix", np.outer(v, v.conj()))):
        rho = write_state(tmp_path / f"{field}.json", [["A", 2]], field, array)
        code, stdout, _ = run(["divergence", "--alpha", "2", "--rho", rho,
                               "--sigma", sig, "--seed", "0"], capsys)
        assert code == 0
        values.append(json.loads(stdout)["result"]["value_bits"])
    assert values[0] == values[1]


@pytest.mark.parametrize("layout, field, array", [
    ([["R", 2], ["A", 1], ["Ap", 2]], "matrix", np.eye(4) / 4),
    ([["R", 2], ["A", 2]], "vector", [0.5 ** 0.5, 0.0, 0.0, 0.5 ** 0.5]),
], ids=["matrix-file", "two-registers"])
def test_qss_sim_needs_three_register_vector(tmp_path, capsys, layout, field, array):
    state = write_state(tmp_path / "state.json", layout, field, array)
    code, _, stderr = run(["qss-sim", "--state", state, "--seed", "0"], capsys)
    assert code == 2
    assert "error" in json.loads(stderr)


def test_rev_shannon_command(kraus_file, capsys):
    code, stdout, _ = run(["rev-shannon", "--channel", kraus_file,
                           "--alpha", "0.5", "--beta", "2.0", "--eps", "0.1",
                           "--n", "10", "--seed", "3"], capsys)
    assert code == 0
    record = json.loads(stdout)["result"]
    assert record["bits_per_use"] >= record["delta_n"] + 2.0 - 1e-6


def test_qss_sim_and_rev_shannon_ignore_seed(tmp_path, capsys):
    # --seed seeds sampled inputs only: these two commands sample nothing, so
    # their artifacts depend on the input files alone.
    rng = np.random.default_rng(12)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = write_state(tmp_path / "psi.json", [["R", 2], ["A", 1], ["Ap", 2]],
                        "vector", v / np.linalg.norm(v))
    chan = tmp_path / "damping.json"
    chan.write_text(json.dumps({"kraus": [[[1.0, 0.0], [0.0, math.sqrt(0.7)]],
                                          [[0.0, math.sqrt(0.3)], [0.0, 0.0]]],
                                "dim_in": 2, "dim_out": 2}))
    for cmd in (["qss-sim", "--state", state, "--eps", "0.9", "--delta", "0.6"],
                ["rev-shannon", "--channel", str(chan)]):
        outs = [tmp_path / f"{cmd[0]}-{seed}.json" for seed in (0, 5)]
        for seed, out in zip((0, 5), outs):
            assert main(cmd + ["--seed", str(seed), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()


def test_determinism_byte_identical(tmp_path, capsys):
    args = ["verify-convex-split", "--dims", "2x2", "--samples", "3",
            "--seed", "21"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_threads_is_validated_and_runs_sequentially(tmp_path, capsys,
                                                   monkeypatch):
    # --threads and CSL_THREADS are still accepted and checked, but every
    # sample runs on the calling thread, so the artifact cannot depend on them.
    seen = set()
    report = cli.convexsplit.bounds_report

    def recording(*args):
        seen.add(threading.get_ident())
        return report(*args)

    monkeypatch.setattr(cli.convexsplit, "bounds_report", recording)
    args = ["verify-convex-split", "--dims", "2x2", "--samples", "3",
            "--n-max", "3", "--seed", "21"]
    outs = []
    for extra, env in (([], None), (["--threads", "4"], None), ([], "3")):
        if env is None:
            monkeypatch.delenv("CSL_THREADS", raising=False)
        else:
            monkeypatch.setenv("CSL_THREADS", env)
        out = tmp_path / f"t{len(outs)}.csv"
        assert main(args + extra + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2]
    assert seen == {threading.get_ident()}

    assert main(args + ["--threads", "two"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("CSL_THREADS", "two")
    code, _, err = run(args, capsys)
    assert code == 2
    assert "threads" in json.loads(err)["error"]


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
    code, _, err = run(["verify-convex-split", "--dims", "2x2",
                        "--samples", "2"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "missing required option --seed"


def test_config_null_takes_the_default(tmp_path, capsys):
    # A JSON null is an absent key: n_max falls back to its default 5, and
    # the artifact is byte-identical to one from a config without the key.
    base = {"dims": "2x2", "samples": 6, "seed": 1}
    texts = []
    for extra in ({}, {"n_max": None, "tol_slack": None}):
        cfg, out = tmp_path / f"cfg{len(texts)}.json", tmp_path / f"c{len(texts)}.csv"
        cfg.write_text(json.dumps({**base, **extra}))
        code, _, err = run(["verify-convex-split", "--config", str(cfg),
                            "--out", str(out)], capsys)
        assert code == 0, err
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert [row.split(",")[1] for row in texts[1].splitlines()[1:]] == list("123451")


@pytest.mark.parametrize("key", ["dims", "seed"])
def test_config_null_for_a_required_option_is_missing(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": "2x2", "samples": 1, "seed": 1, key: None}))
    code, _, err = run(["verify-convex-split", "--config", str(cfg)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == f"missing required option --{key}"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_match_the_parser(monkeypatch):
    # Every `csl ...` line of README parses and converts, and every --flag
    # its "Command line" section names is a flag of some subcommand.
    monkeypatch.delenv("CSL_THREADS", raising=False)
    text = README.read_text()
    parser = cli._build_parser()
    examples = [line.split()[1:] for line in text.splitlines() if line.startswith("csl ")]
    assert examples
    for argv in examples:
        try:
            cli._merge_config(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"README line does not parse: csl {' '.join(argv)}")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for sub in subparsers.choices.values() for action in sub._actions
             for opt in action.option_strings}
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert named and named <= flags, sorted(named - flags)


# Backticked README names that no definition in src/csl carries: the
# environment variable, symbols of the text, and JSON and Python literals.
README_NAME_ALLOWLIST = {"CSL_THREADS", "V", "V_sigma", "NaN", "Infinity", "None"}


def _source_names() -> set:
    """Functions, classes and plain assignment targets of src/csl: module
    constants, dataclass fields and local names."""
    names = set()
    for path in Path(csl.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_readme_names_match_the_source():
    # Every backticked CamelCase or snake_case identifier of README (each
    # part of a dotted one) names a definition of src/csl, an option key of
    # cli._COMMANDS or an allowlisted name: a renamed or deleted name cannot
    # stay in the docs.
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    parts = {part for span in re.findall(r"`([A-Za-z_][\w.]*)`", text)
             for part in span.split(".")}
    code = {part for part in parts if "_" in part or part[:1].isupper()}
    keys = {key for _, _, flags, config in cli._COMMANDS.values() for key in [*flags, *config]}
    unknown = code - _source_names() - keys - README_NAME_ALLOWLIST
    assert code and not unknown, sorted(unknown)


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


def test_exit_1_on_failed_certificate(tmp_path, capsys, monkeypatch):
    # A solver whose certificate fails is a numerical failure of the run,
    # reported as such, not a configuration error.
    def uncertified(*args):
        raise matcore.CertificateError("convex solver stopped with Frank-Wolfe gap 1e-3")

    monkeypatch.setattr(cli.convexsplit, "bounds_report", uncertified)
    code, stdout, err = run(["verify-convex-split", "--dims", "2x2", "--samples", "2",
                             "--seed", "4", "--out", str(tmp_path / "cs.csv")], capsys)
    assert code == 1
    assert err == ""
    failure = json.loads(stdout)["failure"]
    assert failure == {"kind": "certificate",
                       "message": "convex solver stopped with Frank-Wolfe gap 1e-3"}
    assert not (tmp_path / "cs.csv").exists()


def test_exit_1_on_wide_sdp_bracket(tmp_path, capsys, monkeypatch):
    # An I_max solve whose bracket is wider than GAP_TOL stops verify-uab as
    # a certificate failure.
    monkeypatch.setattr(optim, "GAP_TOL", -1.0)
    code, stdout, err = run(["verify-uab", "--dims", "2,2", "--samples", "1",
                             "--seed", "5", "--out", str(tmp_path / "uab.csv")], capsys)
    assert code == 1
    assert err == ""
    failure = json.loads(stdout)["failure"]
    assert failure["kind"] == "certificate"
    assert "not certified" in failure["message"]
    assert not (tmp_path / "uab.csv").exists()


def test_exit_2_on_bad_config_values(tmp_path, bell_state_file, capsys):
    # Text that does not parse or a value out of range, in a config file, a
    # flag or a state file, is a configuration error.
    for cfg in ({"dims": "2x2", "samples": "many", "seed": 1},
                {"dims": "2xtwo", "samples": 2, "seed": 1},
                {"dims": "2x2", "samples": 2, "seed": 1, "n_max": 0},
                {"dims": "2x2", "samples": 2, "seed": 1, "tol_slack": [1]},
                {"dims": "2x0", "samples": 1, "seed": 0}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(["verify-convex-split", "--config", str(path)], capsys)
        assert code == 2, cfg
        assert "error" in json.loads(err)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": [[1.0, 0.0]]}))
    code, _, _ = run(["qss-sim", "--state", str(state), "--seed", "0"], capsys)
    assert code == 2
    # A NaN order or radius fails every range check.
    rho = write_state(tmp_path / "rho.json", [["A", 2]], "matrix", np.diag([0.75, 0.25]))
    rld = ["bounds-sweep", "--suite", "rld", "--dims", "2x2", "--samples", "1"]
    for argv in (["divergence", "--alpha", "nan", "--rho", rho, "--sigma", rho],
                 rld + ["--beta", "nan"], rld + ["--eps", "nan"]):
        code, _, err = run(argv + ["--seed", "0"], capsys)
        assert code == 2, argv
        assert "error" in json.loads(err)
    # A NaN option is refused where it is converted, before any check reads
    # it: a NaN tolerance would otherwise fail every row as a broken bound.
    for key, value in (("tol_slack", "nan"), ("tol_residual", math.nan)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dims": "2x2", "samples": 1, "seed": 1, key: value}))
        code, _, err = run(["verify-convex-split", "--config", str(path)], capsys)
        assert code == 2, key
        assert key.replace("_", "-") in json.loads(err)["error"]
    code, _, err = run(["qss-sim", "--state", bell_state_file, "--eps", "nan",
                        "--seed", "0"], capsys)
    assert code == 2
    assert "--eps" in json.loads(err)["error"]


def test_malformed_flag_value_is_a_json_error(capsys):
    # Flags are converted with the config file's values, so a flag that does
    # not convert gets the same JSON error record, not argparse's usage text.
    code, stdout, err = run(["verify-convex-split", "--dims", "2x2", "--samples", "two",
                             "--seed", "1"], capsys)
    assert code == 2 and stdout == ""
    assert "--samples" in json.loads(err)["error"]


def test_bug_in_a_suite_is_not_a_config_error(monkeypatch, capsys):
    # Only configuration, contract and OS errors map to exit 2; anything
    # else is a fault of the program and propagates.
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(cli.convexsplit, "bounds_report", broken)
    with pytest.raises(KeyError):
        main(["verify-convex-split", "--dims", "2x2", "--samples", "1", "--seed", "1"])
    capsys.readouterr()


def test_convex_split_row_checks_ly2024(tmp_path, capsys, monkeypatch):
    # The spectral-pinching comparison is bounds_report's ly2024 entry, and a
    # row passes only when every entry does: an entry whose rhs falls below
    # its lhs fails the row.
    out = tmp_path / "cs.csv"
    args = ["verify-convex-split", "--dims", "2x2", "--samples", "2", "--seed", "2",
            "--out", str(out)]
    code, stdout, _ = run(args, capsys)
    assert code == 0 and json.loads(stdout)["pass_rate"] == 1.0
    inner = cli.convexsplit.bounds_report

    def failing(*args):
        rep = inner(*args)
        lhs, _ = rep.bounds["ly2024"]
        rep.bounds["ly2024"] = (lhs, lhs - 1e-3)
        return rep

    monkeypatch.setattr(cli.convexsplit, "bounds_report", failing)
    code, stdout, _ = run(args, capsys)
    summary = json.loads(stdout)
    assert code == 1 and summary["pass_rate"] == 0.0
    assert summary["max_violation"] == pytest.approx(1e-3)


def test_convex_split_row_passes_infinite_bounds(capsys, monkeypatch):
    # A row whose rho_RA leaves R (x) supp(sigma) meets the infinite bounds
    # of gmain0, gmain8 and ly2024 with infinite left-hand sides: their slack
    # is +inf and the row passes, as the package's tests count it.
    v = np.linalg.eigh(matcore.sample("mixed-hilbert-schmidt", 2, 5))[1][:, 0]
    sigma = np.outer(v, v.conj())
    rho = matcore.sample("mixed-hilbert-schmidt", (2, 2), 6)
    inner = cli.convexsplit.bounds_report
    reports = []

    def leaking(_rho, _sigma, n, dims):
        reports.append(inner(rho, sigma, n, dims))
        return reports[-1]

    monkeypatch.setattr(cli.convexsplit, "bounds_report", leaking)
    code, stdout, _ = run(["verify-convex-split", "--dims", "2x2", "--samples", "2",
                           "--seed", "3"], capsys)
    assert code == 0 and json.loads(stdout)["pass_rate"] == 1.0
    assert all(rep.bounds["gmain0"] == (math.inf, math.inf) for rep in reports)


# verify-convex-split --dims 2x3 --n-max 5 --samples 6 --seed 7: dA = 3
# takes the reference frame's dense block, which no other CLI test reaches.
CONVEX_SPLIT_2X3_ROWS = """\
instance_id,n,t,q2_lhs,q2_rhs,residual,mu,mu_max,nu_n,slack_gmain0,slack_split9,slack_pmu0,ly2024_tighter
0,1,1,6.7426570919494226,6.7426570919494404,2.6345056780674484e-15,5.7426570919494404,6.898450155035837,6.7182421289289671,0.4090417946759124,0.051834244481463898,0.052373220380119268,1
1,2,0.5,4.1868447393789507,4.1868447393789525,4.2427100835455e-16,6.3736894787579059,14.111904053559316,4.0676504350958949,1.6480428277219583,0.36781026551137352,0.37480908871941487,1
2,3,0.33333333333333331,4.5845470776276933,4.5845470776277075,3.0997292588727242e-15,10.753641232883124,24.846156925371737,4.4091305076534129,1.8401800918874627,0.41278677108976991,0.42146480262733799,1
3,4,0.25,2.0738036398166342,2.0738036398166368,1.2848541722763944e-15,4.29521455926655,6.4820537113116856,2.0641934088206169,0.67021798576653069,0.26029155988111652,0.26253655710003199,1
4,5,0.20000000000000004,6.7716376700805538,6.7716376700805743,3.0167154015580802e-15,28.85818835040287,92.207776386460196,6.0604930213529649,3.0054119610432695,0.55318503070128422,0.57051334348778804,1
5,1,1,9.220430583796265,9.2204305837962508,1.5412354755075945e-15,8.2204305837962508,19.004401394537727,8.5725574560207356,2.4764096904517969,0.4636594223688103,0.47185592079172944,1
"""


def test_convex_split_2x3_rows_pinned(tmp_path, capsys):
    # instance_id, n and ly2024_tighter exactly; every other column to 1e-9
    # relative to max(1, |value|), the rule of the split-bounds benchmark.
    out = tmp_path / "cs.csv"
    code, _, _ = run(["verify-convex-split", "--dims", "2x3", "--n-max", "5",
                      "--samples", "6", "--seed", "7", "--out", str(out)], capsys)
    assert code == 0
    got, want = (text.splitlines() for text in (out.read_text(), CONVEX_SPLIT_2X3_ROWS))
    assert got[0] == want[0] and len(got) == len(want)
    header = want[0].split(",")
    for got_row, want_row in zip(got[1:], want[1:]):
        for col, g, w in zip(header, got_row.split(","), want_row.split(",")):
            if col in ("instance_id", "n", "ly2024_tighter"):
                assert g == w, (col, got_row)
            else:
                g, w = float(g), float(w)
                assert abs(g - w) <= 1e-9 * max(1.0, abs(w)), (col, got_row)
