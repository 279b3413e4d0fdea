"""Tests of the benchmark itself (not part of the package's tier-1 suite):

    python -m pytest -q perfbench/test_determinism.py

The deterministic counts of a shortened traced unit must repeat exactly in
two processes with different hash seeds; the metric names the benchmark
prints must be those BENCHMARK.json declares; tracing must leave no wrapper
behind.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import lifecycle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tworank import autodiff, train  # noqa: E402


def shortened(name: str = "train-small") -> lifecycle.Workload:
    w = lifecycle.WORKLOADS[name]
    return replace(w, pretrain=replace(w.pretrain, max_steps=6, warmup_steps=2),
                   finetune=replace(w.finetune, max_steps=4, warmup_steps=2),
                   export_reps=1, emb_reps=1, score_requests=20)


def traced_counts(seed: int, workdir: Path) -> dict:
    tracer = tracing.Tracer()
    with tracing.Probe().installed(tracer):
        unit = lifecycle.run_unit(shortened(), seed, workdir, tracer)
    layers = tracing.layer_metrics(unit, tracer)
    assert unit["failed"] == 0 and tracing.failed_steps(unit, layers, tracer) == 0
    return run.deterministic(unit, layers)


def test_counts_repeat_across_processes(tmp_path):
    outputs = []
    for hash_seed in ("1", "2"):
        workdir = tmp_path / hash_seed
        workdir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, __file__, "5", str(workdir)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
    counts = outputs[0]
    assert counts["train.steps.pretrain"] == 6 and counts["train.steps.finetune"] == 4
    assert counts["autodiff.primitive_calls_per_step.finetune"] > 0
    assert counts["serving.score_calls"] == 20


def test_declared_metrics_match_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == dict(run.END_TO_END)
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {n: (u, b) for n, u, b in tracing.LAYER_METRICS}
    assert {w["name"] for w in spec["workloads"]} == set(lifecycle.WORKLOADS)
    assert set(tracing.PRIMITIVE_NAMES) == set(autodiff.PRIMITIVES)


def test_probe_installs_and_restores():
    probe = tracing.Probe()
    original = autodiff.apply_primitive
    with probe.installed(tracing.Tracer()) as tracer:
        assert autodiff.apply_primitive is not original
        assert train.backward is not probe._originals[(train, "backward")]
        autodiff.add(autodiff.Tensor(1.0), autodiff.Tensor(2.0))
    assert autodiff.apply_primitive is original
    probe.assert_pristine()
    assert [s[0] for s in tracer.spans] == ["autodiff.apply_primitive", "autodiff.add.fwd"]


if __name__ == "__main__":
    print(json.dumps(traced_counts(int(sys.argv[1]), Path(sys.argv[2]))))
