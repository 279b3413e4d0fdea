"""Outside-in tracing of the tworank layers.

The benchmark never edits the library. A traced unit replaces public names
with timing wrappers, records one span per call (name, phase, start, end,
parent) in memory, and restores every name afterwards. Names imported by
value are wrapped where the library looks them up: `train.backward`,
`pipeline.tokenize`, and the tower/featurizer imports in `pipeline`,
`serving` and `train`.

`Probe.assert_pristine()` is the zero-cost-when-off guard: an untraced unit
calls it before and after it runs, so no wrapper can leak into the timed
end-to-end numbers.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

from tworank import autodiff, model, pipeline, serving, synth, text, train

# (owner, attribute, span name). Owners are modules or classes; the same
# span name may be installed on several owners (one per import site).
WRAPPED = (
    (synth, "generate_world", "synth.generate_world"),
    (synth, "simulate_logs", "synth.simulate_logs"),
    (text, "build_vocab", "text.build_vocab"),
    (pipeline, "tokenize", "text.tokenize"),
    (pipeline, "build_bundle", "pipeline.build_bundle"),
    (pipeline, "build_pretrain_samples", "dataset.build_pretrain_samples"),
    (pipeline, "build_finetune_groups", "dataset.build_finetune_groups"),
    (pipeline, "attach_history", "dataset.attach_history"),
    (pipeline, "batch_histories", "model.batch_histories"),
    (serving, "batch_histories", "model.batch_histories"),
    (train, "batch_histories", "model.batch_histories"),
    (pipeline, "user_tower_forward_batch", "model.user_tower"),
    (serving, "user_tower_forward_batch", "model.user_tower"),
    (train, "user_tower_forward_batch", "model.user_tower"),
    (serving, "item_tower_forward_batch", "model.item_tower"),
    (train, "item_tower_forward_batch", "model.item_tower"),
    (model.ModelParams, "save", "model.ckpt_save"),
    (model.ModelParams, "load", "model.ckpt_load"),
    (autodiff, "apply_primitive", "autodiff.apply_primitive"),
    (autodiff.Tape, "backward", "autodiff.tape_replay"),
    (train, "pretrain_loss_matrix", "losses.pretrain_loss_matrix"),
    (train, "finetune_objective", "losses.finetune_objective"),
    (train.AdamOptimizer, "step", "train.adam_step"),
    (pipeline, "score_table", "pipeline.score_table"),
    (pipeline, "mean_ndcg", "evaluate.mean_ndcg"),
    (serving, "export_embeddings", "serving.export_embeddings"),
    (serving, "score", "serving.score"),
)

# wrapped with extra bookkeeping, see Probe._install
TAPE_INIT = (autodiff.Tape, "__init__", "autodiff.tape_build")
LOSS_ROOT = (train, "backward", "autodiff.backward")
DISCOVERY = (pipeline, "discovery_subset", "evaluate.discovery_subset")


class Tracer:
    """In-memory span log plus named counters for one traced unit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, phase, start, end, parent]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._open: list[int] = []

    def start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.phase, perf_counter(), 0.0, parent])
        self._open.append(idx)
        return idx

    def stop(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.start(name)
        try:
            yield
        finally:
            self.stop(idx)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, name)] += value

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds (duration
        minus the time covered by direct children), plus the same keyed
        by (phase, name)."""
        child = [0.0] * len(self.spans)
        for name, _phase, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        by_phase: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, phase, t0, t1, _parent) in enumerate(self.spans):
            for acc in (by_name[name], by_phase[(phase, name)]):
                acc[0] += 1
                acc[1] += t1 - t0
                acc[2] += t1 - t0 - child[i]
        return {"by_name": dict(by_name), "by_phase": dict(by_phase)}

    def span_ends(self, name: str, phase: str) -> list[float]:
        return [s[3] for s in self.spans if s[0] == name and s[1] == phase]


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.stop(idx)
    return wrapper


class Probe:
    """Snapshot of every name the tracer may replace, taken before any
    wrapper exists, with install/restore and the pristine check."""

    def __init__(self):
        sites = WRAPPED + (TAPE_INIT, LOSS_ROOT, DISCOVERY)
        self._originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in sites}
        self._primitives = dict(autodiff.PRIMITIVES)

    def assert_pristine(self) -> None:
        leaked = [f"{getattr(o, '__name__', o)}.{a}"
                  for (o, a), orig in self._originals.items() if vars(o)[a] is not orig]
        leaked += [f"PRIMITIVES[{n!r}]" for n, fn in self._primitives.items()
                   if autodiff.PRIMITIVES.get(n) is not fn]
        if leaked or set(autodiff.PRIMITIVES) != set(self._primitives):
            raise RuntimeError(f"tracing wrappers installed in an untraced unit: {leaked}")

    @contextlib.contextmanager
    def installed(self, tracer: Tracer):
        self.assert_pristine()
        try:
            self._install(tracer)
            yield tracer
        finally:
            for (owner, attr), orig in self._originals.items():
                setattr(owner, attr, orig)
            autodiff.PRIMITIVES.clear()
            autodiff.PRIMITIVES.update(self._primitives)
        self.assert_pristine()

    def _install(self, tracer: Tracer) -> None:
        for owner, attr, name in WRAPPED:
            orig = self._originals[(owner, attr)]
            if isinstance(orig, classmethod):
                setattr(owner, attr, classmethod(_timed(tracer, name, orig.__func__)))
            else:
                setattr(owner, attr, _timed(tracer, name, orig))

        tape_init = self._originals[TAPE_INIT[:2]]

        def traced_tape_init(tape, root):
            with tracer.span(TAPE_INIT[2]):
                tape_init(tape, root)
            tracer.count("autodiff.tape_records", len(tape.records))
        setattr(*TAPE_INIT[:2], traced_tape_init)

        backward = self._originals[LOSS_ROOT[:2]]

        def traced_backward(root, *args, **kwargs):
            # every training step ends in one backward from its loss
            tracer.count("train.nonfinite_losses", not np.isfinite(root.data).all())
            with tracer.span(LOSS_ROOT[2]):
                return backward(root, *args, **kwargs)
        setattr(*LOSS_ROOT[:2], traced_backward)

        discovery = self._originals[DISCOVERY[:2]]

        def traced_discovery(*args, **kwargs):
            with tracer.span(DISCOVERY[2]):
                sub = discovery(*args, **kwargs)
            tracer.count("evaluate.discovery_groups_kept", sub is not None)
            return sub
        setattr(*DISCOVERY[:2], traced_discovery)

        for prim, fwd in self._primitives.items():
            autodiff.PRIMITIVES[prim] = _traced_primitive(tracer, prim, fwd)


def _traced_primitive(tracer: Tracer, prim: str, fwd):
    fwd_name, bwd_name = f"autodiff.{prim}.fwd", f"autodiff.{prim}.bwd"

    def traced(inputs, attrs):
        idx = tracer.start(fwd_name)
        try:
            out, vjp = fwd(inputs, attrs)
        finally:
            tracer.stop(idx)
        return out, _timed(tracer, bwd_name, vjp)
    return traced


# registered primitives of autodiff.PRIMITIVES, fixed so that every run
# reports the same per-layer names
PRIMITIVE_NAMES = (
    "add", "attention", "concat", "exp", "gather", "l2_normalize", "layer_norm",
    "log", "matmul", "mean", "mul", "relu", "reshape", "scale", "sigmoid",
    "softmax", "softplus", "sum", "transpose",
)

# name, unit, better. `_s` metrics are seconds summed over one traced unit
# and inclusive of child spans, except the two self-time metrics
# autodiff.dispatch_s and autodiff.tape_replay_s.
LAYER_METRICS = (
    ("synth.generate_world_s", "s", "lower"),
    ("synth.simulate_logs_s", "s", "lower"),
    ("text.build_vocab_s", "s", "lower"),
    ("text.tokenize_calls", "count", "lower"),
    ("text.tokenize_s", "s", "lower"),
    ("dataset.build_pretrain_samples_s", "s", "lower"),
    ("dataset.build_finetune_groups_s", "s", "lower"),
    ("dataset.attach_history_s", "s", "lower"),
    ("dataset.attach_history_calls", "count", "lower"),
    ("pipeline.build_bundle_s", "s", "lower"),
    ("model.batch_histories_calls", "count", "lower"),
    ("model.batch_histories_s", "s", "lower"),
    ("model.user_tower_s", "s", "lower"),
    ("model.item_tower_s", "s", "lower"),
    ("model.ckpt_save_s", "s", "lower"),
    ("model.ckpt_load_s", "s", "lower"),
    ("model.ckpt_bytes", "B", "lower"),
    ("autodiff.primitive_calls_per_step.pretrain", "count/step", "lower"),
    ("autodiff.primitive_calls_per_step.finetune", "count/step", "lower"),
    ("autodiff.dispatch_s", "s", "lower"),
    ("autodiff.tape_build_s", "s", "lower"),
    ("autodiff.tape_replay_s", "s", "lower"),
    ("autodiff.tape_records_per_step", "count/step", "lower"),
    *((f"autodiff.{p}.{k}", u, "lower") for p in PRIMITIVE_NAMES
      for k, u in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))),
    ("losses.finetune_objective_calls_per_step", "count/step", "lower"),
    ("losses.finetune_objective_s", "s", "lower"),
    ("losses.pretrain_loss_matrix_s", "s", "lower"),
    ("train.adam_step_s", "s", "lower"),
    ("train.steps.pretrain", "count", "higher"),
    ("train.steps.finetune", "count", "higher"),
    ("train.finetune_step_ms_p50", "ms", "lower"),
    ("train.finetune_step_ms_p95", "ms", "lower"),
    ("pipeline.score_table_s", "s", "lower"),
    ("evaluate.mean_ndcg_s", "s", "lower"),
    ("evaluate.eval_groups", "count", "higher"),
    ("evaluate.discovery_groups_kept", "count", "higher"),
    ("evaluate.ndcg_discovery", "ndcg", "higher"),
    ("serving.export_embeddings_s", "s", "lower"),
    ("serving.emb_bytes", "B", "lower"),
    ("serving.score_calls", "count", "higher"),
    ("serving.score_unknown_ids", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(unit: dict, tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced unit, keyed as in LAYER_METRICS
    (trace.overhead_pct is filled in across units by the caller)."""
    summary = tracer.summary()
    by_name, by_phase = summary["by_name"], summary["by_phase"]
    zero = (0, 0.0, 0.0)

    def calls(name, phase=None):
        return (by_phase.get((phase, name), zero) if phase else by_name.get(name, zero))[0]

    def incl(name):
        return by_name.get(name, zero)[1]

    def self_s(name):
        return by_name.get(name, zero)[2]

    def total(counter):
        return sum(v for (_, n), v in tracer.counts.items() if n == counter)

    steps = {ph: calls("train.adam_step", ph) for ph in ("pretrain", "finetune")}
    step_ends = tracer.span_ends("train.adam_step", "finetune")
    step_ms = np.diff(step_ends) * 1e3 if len(step_ends) > 1 else np.zeros(1)
    m = {
        "synth.generate_world_s": incl("synth.generate_world"),
        "synth.simulate_logs_s": incl("synth.simulate_logs"),
        "text.build_vocab_s": incl("text.build_vocab"),
        "text.tokenize_calls": calls("text.tokenize"),
        "text.tokenize_s": incl("text.tokenize"),
        "dataset.build_pretrain_samples_s": incl("dataset.build_pretrain_samples"),
        "dataset.build_finetune_groups_s": incl("dataset.build_finetune_groups"),
        "dataset.attach_history_s": incl("dataset.attach_history"),
        "dataset.attach_history_calls": calls("dataset.attach_history"),
        "pipeline.build_bundle_s": incl("pipeline.build_bundle"),
        "model.batch_histories_calls": calls("model.batch_histories"),
        "model.batch_histories_s": incl("model.batch_histories"),
        "model.user_tower_s": incl("model.user_tower"),
        "model.item_tower_s": incl("model.item_tower"),
        "model.ckpt_save_s": incl("model.ckpt_save"),
        "model.ckpt_load_s": incl("model.ckpt_load"),
        "model.ckpt_bytes": unit["ckpt_bytes"],
        "autodiff.dispatch_s": self_s("autodiff.apply_primitive"),
        "autodiff.tape_build_s": incl("autodiff.tape_build"),
        "autodiff.tape_replay_s": self_s("autodiff.tape_replay"),
        "autodiff.tape_records_per_step":
            total("autodiff.tape_records") / max(sum(steps.values()), 1),
        "losses.finetune_objective_calls_per_step":
            calls("losses.finetune_objective", "finetune") / max(steps["finetune"], 1),
        "losses.finetune_objective_s": incl("losses.finetune_objective"),
        "losses.pretrain_loss_matrix_s": incl("losses.pretrain_loss_matrix"),
        "train.adam_step_s": incl("train.adam_step"),
        "train.steps.pretrain": steps["pretrain"],
        "train.steps.finetune": steps["finetune"],
        "train.finetune_step_ms_p50": float(np.percentile(step_ms, 50)),
        "train.finetune_step_ms_p95": float(np.percentile(step_ms, 95)),
        "pipeline.score_table_s": incl("pipeline.score_table"),
        "evaluate.mean_ndcg_s": incl("evaluate.mean_ndcg"),
        "evaluate.eval_groups": unit["eval_groups"],
        "evaluate.discovery_groups_kept": total("evaluate.discovery_groups_kept"),
        # 0 where no discovery group survives (nDCG undefined)
        "evaluate.ndcg_discovery": np.nan_to_num(unit["ndcg_discovery"], nan=0.0),
        "serving.export_embeddings_s": incl("serving.export_embeddings"),
        "serving.emb_bytes": unit["emb_bytes"],
        "serving.score_calls": calls("serving.score"),
        "serving.score_unknown_ids": unit["score_unknown_ids"],
    }
    for ph in ("pretrain", "finetune"):
        m[f"autodiff.primitive_calls_per_step.{ph}"] = (
            calls("autodiff.apply_primitive", ph) / max(steps[ph], 1))
    for p in PRIMITIVE_NAMES:
        m[f"autodiff.{p}.calls"] = calls(f"autodiff.{p}.fwd")
        m[f"autodiff.{p}.fwd_s"] = incl(f"autodiff.{p}.fwd")
        m[f"autodiff.{p}.bwd_s"] = incl(f"autodiff.{p}.bwd")
    return {k: float(v) for k, v in m.items()}


def failed_steps(unit: dict, layers: dict[str, float], tracer: Tracer) -> int:
    """Training steps the traced unit shows as failed: a non-finite loss,
    or every step when the optimizer stepped other than planned."""
    planned = unit["steps"]
    if any(layers[f"train.steps.{ph}"] != n for ph, n in planned.items()):
        return sum(planned.values())
    return int(sum(v for (_, n), v in tracer.counts.items() if n == "train.nonfinite_losses"))
