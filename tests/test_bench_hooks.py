"""The benchmark drives the library through its public names and
signatures, so a renamed function or a changed signature breaks every
benchmark run. Building its tracer and running one toy life cycle, untraced
and traced, catches that in the unit suite."""

from pathlib import Path

import pytest

from tworank import autodiff
from tworank.model import TowerConfig
from tworank.synth import SynthConfig
from tworank.train import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import lifecycle
    import tracing

    return lifecycle, tracing


def test_tracer_finds_every_wrapped_name(bench):
    _, tracing = bench
    tracing.Probe().assert_pristine()


def test_tracer_names_every_primitive(bench):
    """The benchmark reports one fixed set of per-primitive names, so a
    primitive added or removed here breaks every benchmark run."""
    _, tracing = bench
    assert set(tracing.PRIMITIVE_NAMES) == set(autodiff.PRIMITIVES)


def test_life_cycle_runs_untraced_and_traced(bench, tmp_path):
    lifecycle, tracing = bench
    toy = lifecycle.Workload(
        name="toy",
        world=SynthConfig(n_items=60, n_users=12, days=10),
        tower=TowerConfig(d=8, user_layers=1, user_heads=2, item_layers=1,
                          max_history=8, vocab_size=64),
        pretrain=TrainConfig(batch_size=8, epochs=1, max_steps=3, warmup_steps=1),
        finetune=TrainConfig(batch_size=8, epochs=1, max_steps=2, warmup_steps=1),
        test_days=3, eval_groups_per_user=2, export_reps=1, emb_reps=1,
        score_requests=5)
    probe = tracing.Probe()

    unit = lifecycle.run_unit(toy, 0, tmp_path)
    assert unit["attempted"] > 0 and unit["failed"] == 0
    probe.assert_pristine()

    with probe.installed(tracing.Tracer()) as tracer:
        unit = lifecycle.run_unit(toy, 0, tmp_path, tracer)
    layers = tracing.layer_metrics(unit, tracer)
    assert unit["failed"] == 0 and tracing.failed_steps(unit, layers, tracer) == 0
    assert layers["train.steps.pretrain"] == 3 and layers["train.steps.finetune"] == 2
    assert layers["dataset.attach_history_calls"] == 1
    # the whole group batch of a step goes through one objective call
    assert layers["losses.finetune_objective_calls_per_step"] == 1.0
    probe.assert_pristine()
