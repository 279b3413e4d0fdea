"""Command-line interface: artifact chain, exit codes, and output files."""

import inspect
import io
import json
import re
import struct
from unittest.mock import Mock

import numpy as np
import pytest

from tworank import autodiff, cli, gradsuite, pipeline, train
from tworank.autodiff import GradcheckReport, Tensor
from tworank.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_MISSING, EXIT_OK, main
from tworank.config import load_config
from tworank.model import ModelParams
from tworank.pipeline import build_bundle, eval_metrics
from tworank.serving import KIND_ITEM, KIND_USER, EmbeddingTable
from tworank.synth import generate_world
from tworank.text import Vocab, build_vocab
from tworank.types import SIGNALS

from conftest import save_v1_checkpoint

FAST = [
    "world.n_items=120", "world.n_users=30", "world.days=10",
    "world.organic_rate=0.8", "world.impressions_per_day=0.5",
    "world.query_rate=0.3",
    "model.d=16", "model.user_heads=2", "model.user_layers=1",
    "model.user_ffn_hidden=32", "model.item_layers=1",
    "model.max_history=12", "model.vocab_size=200", "data.test_days=3",
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
    assert isinstance(payload["near_ties"], int) and payload["near_ties"] >= 0
    assert payload["config"]["world"]["n_items"] == 120


def test_score_reads_stdin(workspace, monkeypatch, capsys):
    """An unknown id and a line that is no integer are error lines in input
    order; blank lines are skipped and the other lines are scored."""
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n999\n\nabc\n5\n"))
    assert run("score", workspace, "--user", "1") == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split("\t")[0] == "3"
    assert lines[1] == "999\tERROR\tunknown item id 999"
    assert lines[2] == "abc\tERROR\tstdin line 4: not an integer id"
    float(lines[3].split("\t")[1])  # parses as a score


def test_score_unknown_user(workspace, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n"))
    assert run("score", workspace, "--user", "999") == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "unknown user id 999"


def _first_records_swapped(raw: bytes) -> bytes:
    """An EMB file whose first two records are out of id order."""
    (dim,) = struct.unpack("<I", raw[5:9])
    a, b = 17 + 8 + 4 * dim, 17 + 2 * (8 + 4 * dim)
    return raw[:17] + raw[a:b] + raw[17:a] + raw[b:]


@pytest.mark.parametrize("command, artifact, corrupt", [
    pytest.param("score", "users.emb", lambda raw: raw[:10], id="score-users.emb"),
    pytest.param("evaluate", "finetune.ckpt", lambda raw: raw[:10], id="evaluate-finetune.ckpt"),
    pytest.param("evaluate", "finetune.ckpt", lambda raw: raw[:-3],
                 id="evaluate-finetune.ckpt-mid-tensor"),
    pytest.param("evaluate", "finetune.ckpt", lambda raw: raw + b"\x00",
                 id="evaluate-finetune.ckpt-trailing-byte"),
    pytest.param("score", "users.emb", lambda raw: raw[:9], id="score-users.emb-mid-header"),
    # an EMB file whose size disagrees with its header's record count
    pytest.param("score", "users.emb", lambda raw: raw[:-1], id="score-users.emb-short"),
    pytest.param("score", "users.emb", lambda raw: raw + b"\x00", id="score-users.emb-long"),
    pytest.param("score", "users.emb", lambda raw: raw[:9] + struct.pack("<Q", 1 << 62) + raw[17:],
                 id="score-users.emb-huge-count"),
    pytest.param("score", "users.emb", lambda raw: raw[:4] + b"\x07" + raw[5:],
                 id="score-users.emb-kind-7"),
    pytest.param("score", "items.emb",
                 lambda raw: raw[:25] + struct.pack("<f", float("nan")) + raw[29:],
                 id="score-items.emb-nan"),
    pytest.param("score", "items.emb", _first_records_swapped, id="score-items.emb-out-of-order"),
])
def test_truncated_artifact_exit_code(workspace, tmp_path, monkeypatch, capsys,
                                      command, artifact, corrupt):
    out = tmp_path / "corrupt"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt", "users.emb", "items.emb"):
        (out / name).write_bytes((workspace / name).read_bytes())
    (out / artifact).write_bytes(corrupt((workspace / artifact).read_bytes()))
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n"))
    extra = ["--user", "1"] if command == "score" else ["--checkpoint", str(out / artifact)]
    assert run(command, out, *extra) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert str(out / artifact) in captured.err


@pytest.mark.parametrize("wrong", ["users.emb", "items.emb"])
def test_swapped_embedding_files_exit_code(workspace, tmp_path, monkeypatch, capsys, wrong):
    """An EMB file of the other kind in place of `wrong` exits 4 naming it."""
    out = tmp_path / "swapped"
    out.mkdir()
    swap = {"users.emb": "items.emb", "items.emb": "users.emb"}
    for name in swap:
        (out / name).write_bytes((workspace / (swap[name] if name == wrong else name)).read_bytes())
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n"))
    assert run("score", out, "--user", "1") == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert str(out / wrong) in captured.err


def test_embedding_dim_mismatch_exit_code(workspace, tmp_path, monkeypatch, capsys):
    """User and item tables of different dims exit 4 naming both files."""
    out = tmp_path / "dims"
    out.mkdir()
    (out / "users.emb").write_bytes((workspace / "users.emb").read_bytes())
    items = EmbeddingTable.load(workspace / "items.emb")
    EmbeddingTable(KIND_ITEM, items.dim // 2, items.ids,
                   items.vectors[:, : items.dim // 2]).save(out / "items.emb")
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n"))
    assert run("score", out, "--user", "1") == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert str(out / "users.emb") in captured.err and str(out / "items.emb") in captured.err


def test_embedding_dim_0_exit_code(workspace, tmp_path, monkeypatch, capsys):
    """EMB files of dim 0, whose every score would read 0, exit 4 naming
    the first one loaded."""
    out = tmp_path / "dim0"
    out.mkdir()
    for name, kind in (("users.emb", KIND_USER), ("items.emb", KIND_ITEM)):
        ids = EmbeddingTable.load(workspace / name).ids
        header = struct.pack("<BIQ", kind, 0, len(ids))
        (out / name).write_bytes(b"EMB1" + header + ids.astype("<u8").tobytes())
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n"))
    assert run("score", out, "--user", "1") == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert str(out / "users.emb") in captured.err and "dim 0" in captured.err


# a float32 value that `save` writes once and the "nan" case then turns
# into NaN in the file: `save` itself refuses non-finite tensors
NAN_STAND_IN = 1234.5


def _corrupt(params, how):
    tensors = params.tensors
    cls = tensors["embeddings.cls"]
    if how == "missing-tensor":
        del tensors["embeddings.cls"]
    elif how == "extra-tensor":
        tensors["embeddings.extra"] = Tensor(np.zeros(3))
    elif how == "wrong-shape":
        tensors["embeddings.cls"] = Tensor(np.zeros(cls.shape[0] + 1))
    else:
        cls.data[0] = NAN_STAND_IN


def _with_config_members(raw: bytes, **members) -> bytes:
    """The checkpoint with `members` added to its config block."""
    (n,) = struct.unpack("<I", raw[8:12])
    block = json.dumps(dict(json.loads(raw[12: 12 + n]), **members), sort_keys=True).encode()
    return raw[:8] + struct.pack("<I", len(block)) + block + raw[12 + n:]


# config block members that no tower takes: a key no TowerConfig has, an
# item width other than d and a position count other than max_history + 1
# (FAST's d is 16 and its max_history 12)
_BAD_MEMBERS = {"config-key": {"bogus": 1}, "item-hidden-half": {"item_hidden": 8},
                "max-positions-off": {"max_positions": 16}}


def test_checkpoint_naming_derived_members_loads(workspace, tmp_path):
    """Version-1 config blocks once named the item width and the position
    rows; a block that gives each its one value loads as the same model.
    A version-2 block may not name them."""
    a = ModelParams.load(workspace / "finetune.ckpt")
    old = tmp_path / "old.ckpt"
    save_v1_checkpoint(a, old)
    old.write_bytes(_with_config_members(old.read_bytes(), item_hidden=16, max_positions=13))
    b = ModelParams.load(old)
    assert b.config == a.config
    assert b.names() == a.names()
    assert all(np.array_equal(a[n].data, b[n].data) for n in a.names())
    new = tmp_path / "new.ckpt"
    new.write_bytes(_with_config_members((workspace / "finetune.ckpt").read_bytes(),
                                         item_hidden=16))
    with pytest.raises(ValueError, match="item_hidden"):
        ModelParams.load(new)


def _chain_dir(workspace, path, write):
    """A directory holding the workspace's logs and vocabulary and the
    finetune.ckpt that `write(path)` writes."""
    path.mkdir()
    for name in ("logs.ndjson", "vocab.txt"):
        (path / name).write_bytes((workspace / name).read_bytes())
    write(path / "finetune.ckpt")
    return path


def test_version_1_checkpoint_exports_and_evaluates(workspace, tmp_path):
    """export and evaluate read a version-1 finetune.ckpt, key bias and
    all: its EMB files are byte-equal, and its nDCG and calibration equal,
    to those of its version-2 re-save."""
    tuned = ModelParams.load(workspace / "finetune.ckpt")
    v1 = _chain_dir(workspace, tmp_path / "v1",
                    lambda path: save_v1_checkpoint(tuned, path, key_bias=0.3))
    v2 = _chain_dir(workspace, tmp_path / "v2",
                    lambda path: ModelParams.load(v1 / "finetune.ckpt").save(path))
    for out in (v1, v2):
        for command in ("export", "evaluate"):
            assert run(command, out) == EXIT_OK
    for name in ("users.emb", "items.emb"):
        assert (v1 / name).read_bytes() == (v2 / name).read_bytes(), name
    m1, m2 = (json.loads((out / "metrics.json").read_text()) for out in (v1, v2))
    assert (m1["ndcg"], m1["calibration"]) == (m2["ndcg"], m2["calibration"])


def test_version_1_checkpoint_missing_a_scalar_exit_code(workspace, tmp_path, capsys):
    tuned = ModelParams.load(workspace / "finetune.ckpt")
    out = _chain_dir(workspace, tmp_path / "cut", lambda path: save_v1_checkpoint(
        tuned, path, drop=("loss_params.gamma_ctx.cart",)))
    assert run("evaluate", out) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    # the vector the scalars would make is missing, and its other two are left over
    assert str(out / "finetune.ckpt") in captured.err
    assert "['loss_params.beta.cart', 'loss_params.calib.cart', 'loss_params.gamma.cart']" \
        in captured.err


@pytest.mark.parametrize("how", ["missing-tensor", "extra-tensor", "wrong-shape", "nan",
                                 *_BAD_MEMBERS])
def test_bad_checkpoint_exit_code(workspace, tmp_path, capsys, how):
    out = tmp_path / "badckpt"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    if how in _BAD_MEMBERS:
        raw = (workspace / "finetune.ckpt").read_bytes()
        (out / "bad.ckpt").write_bytes(_with_config_members(raw, **_BAD_MEMBERS[how]))
    else:
        params = ModelParams.load(workspace / "finetune.ckpt")
        _corrupt(params, how)
        params.save(out / "bad.ckpt")
        if how == "nan":
            raw = (out / "bad.ckpt").read_bytes()
            stand_in = struct.pack("<f", NAN_STAND_IN)
            assert raw.count(stand_in) == 1
            (out / "bad.ckpt").write_bytes(raw.replace(stand_in, struct.pack("<f", np.nan)))
    assert run("evaluate", out, "--checkpoint", str(out / "bad.ckpt")) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "bad.ckpt" in captured.err and not (out / "metrics.json").exists()
    for key in _BAD_MEMBERS.get(how, ()):
        assert key in captured.err


@pytest.mark.parametrize("command", ["pretrain", "build-vocab"])
def test_log_line_missing_field_exit_code(workspace, tmp_path, capsys, command):
    item_0 = (workspace / "logs.ndjson").read_text().splitlines()[0]  # the world's item 0
    (tmp_path / "logs.ndjson").write_text(item_0 + '\n{"type": "event", "day": 1}\n')
    assert run(command, tmp_path) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "logs.ndjson line 2" in err and "'user'" in err
    assert "Traceback" not in err


def _event_line(item, surface=0, user=0, day=9):
    return json.dumps({"type": "event", "day": day, "user": user, "event": "click",
                       "text": "a b", "item": item, "surface": surface})


def _impression_line(items, labels=(0, 1), signals=SIGNALS, surface=0, device=0, user=0,
                     day=9):
    return json.dumps({"type": "impression", "day": day, "user": user, "surface": surface,
                       "device": device, "items": items,
                       "signals": {s: list(labels) for s in signals}})


# the FAST world: 120 items, 30 users; user 0's last event is on day 9
@pytest.mark.parametrize("line", [
    pytest.param(_event_line(99999), id="event-item-past-catalog"),
    pytest.param(_event_line(-1), id="event-item-negative"),
    pytest.param(_impression_line([3, 99999]), id="impression-item-past-catalog"),
    pytest.param(_impression_line([3, "4"]), id="impression-item-string"),
    pytest.param(_impression_line([3, 4], signals=SIGNALS[:3]), id="impression-signal-missing"),
    pytest.param(_impression_line([3, 4], labels=(1,)), id="impression-signal-short"),
    pytest.param(_impression_line([3, 4], surface=-3), id="impression-surface-negative"),
    pytest.param(_impression_line([3, 4], device=-1), id="impression-device-negative"),
    pytest.param(_event_line(3, surface=-1), id="event-surface-negative"),
    pytest.param(_event_line(120), id="event-item-at-catalog-size"),
    pytest.param(_impression_line([-1, 3]), id="impression-item-negative"),
    pytest.param(_event_line(3, user=30), id="event-user-outside"),
    pytest.param(_impression_line([3, 4], user=-1), id="impression-user-negative"),
    pytest.param(json.dumps({"type": "item", "id": 3, "title": "a b", "category": 0}),
                 id="item-line-of-another-world"),
    pytest.param(_event_line(3, day=0), id="event-goes-back-in-day"),
    pytest.param(_event_line(3, day=10), id="event-day-at-days"),
    pytest.param(_impression_line([3, 4], day=-1), id="impression-day-negative"),
    pytest.param(_impression_line([3, 4]).replace('"cart": [0, 1]', '"cart": [0, 0]'),
                 id="impression-purchase-without-cart"),
])
def test_bad_log_record_exit_code(workspace, tmp_path, capsys, line):
    """Every command that reads the logs refuses a line that breaks a log
    rule, naming the file and the line, and writes nothing."""
    logs = (workspace / "logs.ndjson").read_text()
    out = tmp_path / "bad"
    out.mkdir()
    (out / "logs.ndjson").write_text(logs + line + "\n")
    assert run("build-vocab", out) == EXIT_INVARIANT
    assert not (out / "vocab.txt").exists()
    (out / "vocab.txt").write_bytes((workspace / "vocab.txt").read_bytes())
    assert run("pretrain", out) == EXIT_INVARIANT
    assert run("finetune", out, "--init", "fresh") == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.count(f"logs.ndjson line {len(logs.splitlines()) + 1}: ") == 3
    assert "Traceback" not in err and not (out / "pretrain.ckpt").exists()


def test_logs_lacking_a_world_item_exit_code(workspace, tmp_path, capsys):
    lines = (workspace / "logs.ndjson").read_text().splitlines(keepends=True)
    out = tmp_path / "noitem"
    out.mkdir()
    (out / "logs.ndjson").write_text("".join(lines[:7] + lines[8:]))
    (out / "vocab.txt").write_bytes((workspace / "vocab.txt").read_bytes())
    for command in ("build-vocab", "pretrain"):
        assert run(command, out) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "logs.ndjson: the logs lack item 7, which the [world] config (seed 0)" in err
        assert "Traceback" not in err
    assert not (out / "pretrain.ckpt").exists()


def test_logs_of_another_world_exit_code(workspace, tmp_path, capsys):
    """The towers read titles from the [world] config, so logs simulated
    from another world's seed are refused before any training."""
    out = tmp_path / "otherworld"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    assert run("pretrain", out, "--seed", "1") == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "logs.ndjson line 1: logged item 0" in err and "seed 1" in err
    assert "Traceback" not in err
    assert not (out / "pretrain.ckpt").exists()
    assert run("build-vocab", out, "--seed", "1") == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "logs.ndjson line 1: logged item 0" in err and "seed 1" in err
    assert "Traceback" not in err
    assert (out / "vocab.txt").read_bytes() == (workspace / "vocab.txt").read_bytes()


@pytest.mark.parametrize("n_users", [1, 10])
def test_logs_of_more_users_exit_code(workspace, tmp_path, capsys, n_users):
    """Logs of 30 users are refused under a [world] of fewer users, before
    any training, instead of training on users the world does not have."""
    out = tmp_path / "fewerusers"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    assert run("pretrain", out, "--set", f"world.n_users={n_users}") == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert f"n_users of {n_users}" in err and "Traceback" not in err
    assert int(re.search(r"logs.ndjson line \d+: logged user (\d+) is outside",
                         err).group(1)) >= n_users
    assert not (out / "pretrain.ckpt").exists()


def test_vocab_larger_than_the_table_exit_code(workspace, tmp_path, capsys, monkeypatch):
    """A vocab.txt built for a larger [model] vocab_size would index past
    the content table, so it is refused before the bundle is built."""
    out = tmp_path / "bigvocab"
    out.mkdir()
    (out / "logs.ndjson").write_bytes((workspace / "logs.ndjson").read_bytes())
    assert run("build-vocab", out, "--set", "model.vocab_size=300") == EXIT_OK
    pieces = len(Vocab.load(out / "vocab.txt"))
    assert pieces > 200
    capsys.readouterr()
    monkeypatch.setattr(cli, "build_bundle", None)  # the check comes first
    assert run("pretrain", out) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "vocab.txt" in err and f"{pieces} pieces" in err and "vocab_size of 200" in err
    assert "Traceback" not in err
    assert not (out / "pretrain.ckpt").exists()


def test_missing_artifact_exit_code(tmp_path):
    assert run("pretrain", tmp_path / "empty") == EXIT_MISSING
    assert run("export", tmp_path / "empty2") == EXIT_MISSING


def test_build_vocab_reads_the_world_titles(workspace):
    """build-vocab builds the vocabulary the library builds: from the
    [world]'s titles and category words, not from the logged texts."""
    cfg, _ = load_config(None, FAST)
    vocab = build_vocab(generate_world(cfg.world).title_corpus(), cfg.model.vocab_size)
    assert Vocab.load(workspace / "vocab.txt").tokens == vocab.tokens


@pytest.mark.parametrize("command", ["evaluate", "export"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_checkpoint_that_names_no_file_exit_code(workspace, tmp_path, capsys, command, kind):
    """A --checkpoint that names no file exits 3 naming the path."""
    out = tmp_path / "nockpt"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    ckpt = out / "given.ckpt"
    if kind == "directory":
        ckpt.mkdir()
    assert run(command, out, "--checkpoint", str(ckpt)) == EXIT_MISSING
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert str(ckpt) in captured.err
    assert {p.name for p in out.iterdir()} <= {"logs.ndjson", "vocab.txt", "given.ckpt"}


@pytest.mark.parametrize("command, flag, under, code", [
    pytest.param("gradcheck", "--out", "", EXIT_CONFIG, id="out-is-a-file"),
    pytest.param("gen-data", "--out", "sub", EXIT_CONFIG, id="out-under-a-file"),
    pytest.param("evaluate", "--checkpoint", "x", EXIT_MISSING, id="checkpoint-under-a-file"),
])
def test_path_through_a_file_exit_code(workspace, tmp_path, capsys, command, flag, under, code):
    """A path that is a file, or that runs through one, cannot be an output
    directory (exit 2) and names no input (exit 3). Either way the error
    names the path and no traceback is printed."""
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    path = blocker / under if under else blocker
    out = tmp_path / "run"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    argv = ["--checkpoint", str(path)] if flag == "--checkpoint" else []
    if flag == "--out":
        out = path
    assert run(command, out, *argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert str(path) in captured.err
    assert blocker.read_text() == "not a directory\n"


def test_evaluate_and_export_name_the_checkpoint(workspace, tmp_path, capsys):
    """Each prints the checkpoint it read; metrics.json does not name it, so
    that two runs in different directories write the same bytes."""
    out = tmp_path / "named"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt", "finetune.ckpt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    for command in ("evaluate", "export"):
        assert run(command, out) == EXIT_OK
        assert str(out / "finetune.ckpt") in capsys.readouterr().out
    assert "finetune.ckpt" not in (out / "metrics.json").read_text()


def test_evaluate_reports_groups_kept(workspace, tmp_path, capsys):
    """evaluate prints and records how many evaluation groups each nDCG
    filter kept: retargeting keeps every group, discovery those with at
    least 2 items of undiscovered categories and a positive among them."""
    out = tmp_path / "kept"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt", "finetune.ckpt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    assert run("evaluate", out) == EXIT_OK
    printed = re.search(r"groups kept: retargeting (\d+) of (\d+), discovery (\d+) of (\d+)$",
                        capsys.readouterr().out.strip())
    n, total, kept, total2 = map(int, printed.groups())
    assert n == total == total2 > 0 and 0 <= kept <= total
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["groups"] == {"retargeting": n, "discovery": kept}
    assert set(payload["ndcg"]) == set(payload["groups"])


def test_bad_override_exit_code(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path), "--set", "world.n_items=lots"]) \
        == EXIT_CONFIG
    assert main(["gen-data", "--out", str(tmp_path), "--set", "mystery.key=1"]) \
        == EXIT_CONFIG


@pytest.mark.parametrize("override", ["model.user_heads=0", "model.d=0", "model.max_history=0"])
def test_tower_that_cannot_be_built_exit_code(tmp_path, capsys, override):
    """A tower size that cannot build a tower is a config error, found
    before the command looks for its inputs."""
    assert run("pretrain", tmp_path / "empty", "--set", override) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert override.split(".")[1].split("=")[0] in err and "Traceback" not in err


@pytest.mark.parametrize("command, extra, named", [
    ("pretrain", ["--seed", "-1"], "[world] seed"),
    ("ablate", ["--set", "eval.seeds="], "[eval] seeds"),
    ("pretrain", ["--set", "data.test_days=10"], "[data] test_days"),
    ("pretrain", ["--set", "pretrain.batch_size=1"], "[pretrain] batch_size"),
    ("finetune", ["--set", "finetune.pointwise_weight=-1"], "[finetune] pointwise_weight"),
    ("export", ["--set", "world.n_users=0"], "[world] n_users"),
])
def test_value_that_cannot_run_exit_code(tmp_path, capsys, command, extra, named):
    """A value that cannot run exits 2 naming its key in an empty --out,
    where reading any input would exit 3 and running would exit 4."""
    assert run(command, tmp_path, *extra) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exit_code(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path),
                 "--config", str(tmp_path / "none.ini")]) == EXIT_MISSING


@pytest.mark.parametrize("raw", [
    pytest.param(b"n_items = 50\n", id="no-section-header"),
    pytest.param(b"[world]\nn_items = 50\nn_items = 60\n", id="key-given-twice"),
    pytest.param(b"[world]\nn_items = 5\xff\n", id="not-utf-8"),
    pytest.param(b"[eval]\nseeds = 5%\n", id="bare-percent-sign"),
])
def test_unreadable_config_file_exit_code(tmp_path, capsys, raw):
    """A config file that cannot be parsed is a config error naming it."""
    path = tmp_path / "bad.ini"
    path.write_bytes(raw)
    assert main(["gen-data", "--out", str(tmp_path / "out"), "--config", str(path)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_gradcheck_command(tmp_path, capsys):
    assert main(["gradcheck", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all passed" in out


def test_gradcheck_command_reports_a_nan_as_the_worst(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gradsuite, "run_gradcheck_suite", lambda: {
        "first": GradcheckReport(1e-9, 1e-4), "broken": GradcheckReport(float("nan"), 1e-4),
        "last": GradcheckReport(1e-8, 1e-4)})
    assert main(["gradcheck", "--out", str(tmp_path)]) == EXIT_INVARIANT
    out = capsys.readouterr().out
    assert "gradcheck broken: FAIL (max rel err nan)" in out
    assert "gradcheck: FAILED (worst nan)" in out


def test_ablate_single_cell(workspace, tmp_path):
    out = tmp_path / "ablate"
    code = run("ablate", out, "--set", "eval.seeds=0", "--set", "eval.cells=pretrain_only")
    assert code == EXIT_OK
    tsv = (out / "results.tsv").read_text().strip().splitlines()
    assert tsv[0] == "metric\tsurface_filter\tseed\tvalue"
    assert len(tsv) == 3  # header + retargeting + discovery
    rows = json.loads((out / "results.json").read_text())
    assert {r["surface"] for r in rows} == {"retargeting", "discovery"}


def _no_nan(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def test_undefined_discovery_is_null_in_json(workspace, tmp_path, capsys, monkeypatch):
    """A discovery nDCG with no group to score is NaN; the JSON files write
    it as null, and stdout and results.tsv keep `nan`."""
    def nan_discovery(bundle, params):
        return {**eval_metrics(bundle, params), "discovery": float("nan")}

    monkeypatch.setattr(cli, "eval_metrics", nan_discovery)
    out = tmp_path / "nan"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt", "finetune.ckpt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    assert run("evaluate", out) == EXIT_OK
    assert "discovery=nan" in capsys.readouterr().out
    payload = json.loads((out / "metrics.json").read_text(), parse_constant=_no_nan)
    assert payload["ndcg"]["discovery"] is None
    assert isinstance(payload["ndcg"]["retargeting"], float)
    assert run("ablate", out, "--set", "eval.seeds=0", "--set", "eval.cells=pretrain_only") \
        == EXIT_OK
    rows = json.loads((out / "results.json").read_text(), parse_constant=_no_nan)
    assert [(r["surface"], r["value"] is None) for r in rows] == [("retargeting", False),
                                                                  ("discovery", True)]
    assert (out / "results.tsv").read_text().splitlines()[2].endswith("\tnan")


def test_ablate_rows_carry_their_seed(workspace, tmp_path):
    out = tmp_path / "ablate2"
    code = run("ablate", out, "--set", "eval.seeds=3,1", "--set", "eval.cells=pretrain_only")
    assert code == EXIT_OK
    tsv = [line.split("\t") for line in
           (out / "results.tsv").read_text().strip().splitlines()[1:]]
    assert [(r[1], r[2]) for r in tsv] == [("retargeting", "3"), ("discovery", "3"),
                                            ("retargeting", "1"), ("discovery", "1")]
    rows = json.loads((out / "results.json").read_text())
    assert [(r["surface"], r["seed"]) for r in rows] == [(r[1], int(r[2])) for r in tsv]
    # each seed trains its own world, so its retargeting value is its own
    assert tsv[0][3] != tsv[2][3]


def test_ablate_reads_every_data_key(tmp_path, monkeypatch):
    """Every bundle of the matrix gets the [data] values; with web queries
    off, `both_no_web` is `both`."""
    spy = Mock(wraps=build_bundle)
    monkeypatch.setattr(pipeline, "build_bundle", spy)
    assert run("ablate", tmp_path, "--set", "eval.seeds=0", "--set", "data.delay=2",
               "--set", "data.include_web=false", "--set", "data.test_days=4",
               "--set", "data.eval_groups_per_user=3") == EXIT_OK
    data = {"delay": 2, "include_web": False, "test_days": 4, "eval_groups_per_user": 3}
    for call in spy.call_args_list:
        bound = inspect.signature(build_bundle).bind(*call.args, **call.kwargs)
        bound.apply_defaults()
        assert {k: bound.arguments[k] for k in data} == data
    rows = json.loads((tmp_path / "results.json").read_text())
    both, no_web = ([repr(r["value"]) for r in rows if r["metric"] == f"ndcg/{cell}"]
                    for cell in ("both", "both_no_web"))
    assert no_web == both
    assert spy.call_count == 2  # (no web, 12 events) for five cells and (no web, 6)


def test_diverged_finetune_saves_nothing_exit_code(workspace, tmp_path, capsys, monkeypatch):
    """A fine-tune that ends in NaN parameters exits 4 and writes no checkpoint."""
    out = tmp_path / "diverged"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt", "pretrain.ckpt"):
        (out / name).write_bytes((workspace / name).read_bytes())

    def diverged(groups, init, *args, **kwargs):
        params = init.copy()
        params["transformer.L0.wq"].data[0, 0] = np.nan
        return params

    monkeypatch.setattr(cli, "finetune_run", diverged)
    assert run("finetune", out) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "transformer.L0.wq" in captured.err
    assert not (out / "finetune.ckpt").exists()


def test_nonfinite_gradient_exit_code(workspace, tmp_path, capsys, monkeypatch):
    """A fine-tune whose loss turns NaN stops at its first step: it exits 4
    naming the step and writes no checkpoint."""
    out = tmp_path / "nan-loss"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt", "pretrain.ckpt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    objective = train.finetune_objective
    monkeypatch.setattr(train, "finetune_objective",
                        lambda *args: autodiff.scale(objective(*args), np.nan))
    assert run("finetune", out) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "step 1: non-finite gradients in groups" in captured.err
    assert not (out / "finetune.ckpt").exists()


@pytest.mark.parametrize("override", ["eval.cells=bogus", "eval.seeds=1,x"])
def test_ablate_bad_cell_or_seed_exit_code(tmp_path, capsys, override):
    assert run("ablate", tmp_path, "--set", override) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert override.split("=")[1] in err and "Traceback" not in err
    assert not (tmp_path / "results.tsv").exists()


def test_finetune_fresh_init(workspace, tmp_path):
    out = tmp_path / "fresh"
    out.mkdir()
    for name in ("logs.ndjson", "vocab.txt"):
        (out / name).write_bytes((workspace / name).read_bytes())
    assert run("finetune", out, "--init", "fresh") == EXIT_OK
    assert (out / "finetune.ckpt").exists()


@pytest.mark.parametrize("command, override, named", [
    ("finetune", "model.d=32", "d = 16, not 32"),
    ("finetune", "model.user_layers=2", "user_layers = 1, not 2"),
    ("finetune", "model.max_history=24", "max_history = 12, not 24"),
    ("continuous", "model.max_history=24", "max_history = 12, not 24"),
    ("evaluate", "model.max_history=8", "max_history = 12, not 8"),
    ("export", "model.max_history=8", "max_history = 12, not 8"),
])
def test_checkpoint_of_another_tower_exit_code(workspace, tmp_path, capsys, command,
                                               override, named):
    """A checkpoint is read only with the [model] it was saved with, to
    train it further or to score with it; the error names each field that
    differs, and the command writes nothing."""
    out = tmp_path / "othertower"
    out.mkdir()
    start = {"finetune": "pretrain.ckpt"}.get(command, "finetune.ckpt")
    for name in ("logs.ndjson", "vocab.txt", start):
        (out / name).write_bytes((workspace / name).read_bytes())
    assert run(command, out, "--set", override) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert named in captured.err and start in captured.err
    assert sorted(p.name for p in out.iterdir()) == sorted(["logs.ndjson", "vocab.txt", start])
