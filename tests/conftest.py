"""Shared fixtures: a tiny model, a toy whitespace tokenizer, one small
simulated world reused by the data-dependent tests, and the benchmark
workloads' bundles; and two helpers: the digest that parameter pins take,
and a version-1 checkpoint writer."""

import hashlib
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance-criterion verdict lines after capture ends."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)

from tworank.autodiff import Tensor
from tworank.model import ModelParams, TowerConfig, init_params
from tworank.pipeline import build_bundle
from tworank.synth import SynthConfig, generate_world, simulate_logs
from tworank.types import SIGNALS


def params_digest(params: ModelParams) -> str:
    """SHA-256 over each tensor's name, shape and <f8 bytes, in `tensors`
    order."""
    h = hashlib.sha256()
    for name, t in params.tensors.items():
        h.update(name.encode())
        h.update(repr(t.data.shape).encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


# each calibration vector's entries under their version-1 names
_V1_SCALARS = {"pointwise": ("alpha_cl", "alpha_ctx", "beta_cl"),
              **{k: (f"gamma.{k}", f"gamma_ctx.{k}", f"beta.{k}") for k in SIGNALS}}


def save_v1_checkpoint(params: ModelParams, path, key_bias=0.0, drop=()) -> None:
    """Write `params` as a version-1 checkpoint: the version-1 tensor order,
    each calibration vector as its three scalars (the signals' before the
    pointwise click's), and `key_bias` filling a key bias `bk` in every user
    layer. The tensors named in `drop` are left out."""
    tensors = {}
    for name, t in params.tensors.items():
        if name == "loss_params.ctx_surface":
            for key in (*SIGNALS, "pointwise"):
                vector = params[f"loss_params.calib.{key}"].data
                tensors.update((f"loss_params.{n}", Tensor(np.asarray(x)))
                               for n, x in zip(_V1_SCALARS[key], vector))
        elif name.startswith("loss_params.calib."):
            continue
        elif name.endswith(".bv"):
            tensors[name[:-2] + "bk"] = Tensor(np.full(t.shape, key_bias))
        tensors[name] = t
    kept = {n: t for n, t in tensors.items() if n not in drop}
    ModelParams(params.config, kept).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])


@pytest.fixture
def tiny_config():
    return TowerConfig(d=8, user_layers=1, user_heads=2, user_ffn_hidden=16,
                       item_layers=1, max_history=4, vocab_size=32,
                       n_surfaces=3, n_devices=2)


@pytest.fixture
def tiny_params(tiny_config):
    return init_params(tiny_config, seed=0)


@pytest.fixture
def word_tokenizer():
    """Deterministic toy tokenizer: each word hashes to a fixed small id."""

    def tok(text):
        return [3 + (sum(map(ord, w)) % 29) for w in text.lower().split()]

    return tok


@pytest.fixture(scope="session")
def small_world():
    cfg = SynthConfig(n_items=60, n_users=20, n_categories=4, days=10,
                      organic_rate=0.8, impressions_per_day=0.5,
                      query_rate=0.4, seed=0)
    return generate_world(cfg)


@pytest.fixture(scope="session")
def small_logs(small_world):
    return simulate_logs(small_world)


@pytest.fixture
def workload_bundle(monkeypatch):
    """Builds a benchmark workload's bundle as perfbench/lifecycle.py does,
    at seed 4049: name -> (the workload, its bundle)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import lifecycle

    def build(name):
        w = lifecycle.WORKLOADS[name]
        world = generate_world(replace(w.world, seed=4049))
        bundle = build_bundle(world.config, vocab_size=w.tower.vocab_size,
                              max_history=w.tower.max_history, test_days=w.test_days,
                              eval_groups_per_user=w.eval_groups_per_user,
                              world=world, records=simulate_logs(world))
        return w, bundle

    return build


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
