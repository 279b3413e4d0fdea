"""Command-line interface: artifact chain, exit codes, and output files."""

import io
import json

import pytest

from tworank.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_MISSING, EXIT_OK, main

FAST = [
    "world.n_items=120", "world.n_users=30", "world.days=10",
    "world.organic_rate=0.8", "world.impressions_per_day=0.5",
    "world.query_rate=0.3",
    "model.d=16", "model.user_heads=2", "model.user_layers=1",
    "model.user_ffn_hidden=32", "model.item_layers=1", "model.item_hidden=16",
    "model.max_history=12", "model.vocab_size=200",
    "data.vocab_size=200", "data.test_days=3",
    "pretrain.epochs=1", "pretrain.batch_size=16",
    "pretrain.max_steps=30", "pretrain.warmup_steps=5",
    "finetune.epochs=1", "finetune.max_steps=20", "finetune.warmup_steps=5",
]


def run(command, out, *extra):
    argv = [command, "--out", str(out)]
    for ov in FAST:
        argv += ["--set", ov]
    argv += list(extra)
    return main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full artifact chain shared by the assertions below."""
    out = tmp_path_factory.mktemp("run")
    assert run("gen-data", out) == EXIT_OK
    assert run("build-vocab", out) == EXIT_OK
    assert run("pretrain", out) == EXIT_OK
    assert run("finetune", out) == EXIT_OK
    assert run("continuous", out) == EXIT_OK
    assert run("export", out) == EXIT_OK
    assert run("evaluate", out) == EXIT_OK
    return out


def test_artifacts_exist(workspace):
    for name in ("logs.ndjson", "vocab.txt", "pretrain.ckpt", "finetune.ckpt",
                 "continuous.ckpt", "users.emb", "items.emb", "metrics.json"):
        assert (workspace / name).exists(), name


def test_metrics_file_contents(workspace):
    payload = json.loads((workspace / "metrics.json").read_text())
    assert 0.0 < payload["ndcg"]["retargeting"] <= 1.0
    assert "calibration" in payload and "config" in payload
    assert payload["config"]["world"]["n_items"] == 120


def test_score_reads_stdin(workspace, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n999\n5\n"))
    assert run("score", workspace, "--user", "1") == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t")[0] == "3"
    assert "ERROR" in lines[1]  # item 999 does not exist
    float(lines[2].split("\t")[1])  # parses as a score


def test_score_unknown_user(workspace, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n"))
    assert run("score", workspace, "--user", "999") == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "unknown user id 999"


def test_missing_artifact_exit_code(tmp_path):
    assert run("pretrain", tmp_path / "empty") == EXIT_MISSING
    assert run("export", tmp_path / "empty2") == EXIT_MISSING


def test_bad_override_exit_code(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path), "--set", "world.n_items=lots"]) \
        == EXIT_CONFIG
    assert main(["gen-data", "--out", str(tmp_path), "--set", "mystery.key=1"]) \
        == EXIT_CONFIG


def test_missing_config_file_exit_code(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path),
                 "--config", str(tmp_path / "none.ini")]) == EXIT_MISSING


def test_gradcheck_command(tmp_path, capsys):
    assert main(["gradcheck", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all passed" in out


def test_ablate_single_cell(workspace, tmp_path):
    out = tmp_path / "ablate"
    code = run("ablate", out, "--set", "eval.seeds=0", "--set", "eval.cells=pretrain_only")
    assert code == EXIT_OK
    tsv = (out / "results.tsv").read_text().strip().splitlines()
    assert tsv[0] == "metric\tsurface_filter\tseed\tvalue"
    assert len(tsv) == 3  # header + retargeting + discovery
    rows = json.loads((out / "results.json").read_text())
    assert {r["surface"] for r in rows} == {"retargeting", "discovery"}


def test_finetune_fresh_init(workspace, tmp_path):
    out = tmp_path / "fresh"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    assert run("finetune", out, "--init", "fresh") == EXIT_OK
    assert (out / "finetune.ckpt").exists()
