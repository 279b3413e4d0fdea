"""tworank benchmark: one workload, one process.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

Runs life-cycle units (see lifecycle.py) of the workload until --seconds
have passed, at least MIN_UNITS of them, each on the inputs of --seed.
With --trace 0 it prints the end-to-end metrics, medians over the units.
With --trace 1 every second unit is traced and it prints the per-layer
metrics of the traced units plus the tracing overhead (traced minus
untraced unit time). The last stdout line is the result object; the line
before it records the environment and the deterministic counts.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

MIN_UNITS = 3
BLAS_THREADS = "1"  # pinned so that every commit runs with the same count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (
    ("setup_s", "s"),
    ("pretrain_samples_per_s", "1/s"),
    ("finetune_groups_per_s", "1/s"),
    ("evaluate_groups_per_s", "1/s"),
    ("ndcg_retargeting", "ndcg"),
    ("export_entities_per_s", "1/s"),
    ("emb_save_s", "s"),
    ("emb_load_s", "s"),
    ("score_p50_ms", "ms"),
    ("score_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tworank").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def wall(pairs) -> "np.ndarray":
    import numpy as np
    pairs = np.asarray(pairs, dtype=float)
    return pairs[:, 1] - pairs[:, 0]


def end_to_end(units: list[dict], durations) -> dict[str, float]:
    """End-to-end metrics over the units; `durations` maps a list of
    (start, end) pairs to seconds."""
    import numpy as np

    def pooled(key):
        return np.concatenate([durations(u["intervals"][key]) for u in units])

    def rate(key):
        return float(np.median(np.concatenate(
            [u["work"][key] / durations(u["intervals"][key]) for u in units])))

    def score_ms(q):  # per-unit percentile, median over units
        return float(np.median([np.percentile(durations(u["intervals"]["score"]), q)
                                for u in units]) * 1e3)

    return {
        "setup_s": float(np.median(pooled("setup"))),
        "pretrain_samples_per_s": rate("pretrain"),
        "finetune_groups_per_s": rate("finetune"),
        "evaluate_groups_per_s": rate("evaluate"),
        "ndcg_retargeting": units[0]["ndcg_retargeting"],
        "export_entities_per_s": rate("export"),
        "emb_save_s": float(np.median(pooled("emb_save"))),
        "emb_load_s": float(np.median(pooled("emb_load"))),
        "score_p50_ms": score_ms(50),
        "score_p90_ms": score_ms(90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def deterministic(unit: dict, layers: dict | None) -> dict:
    """Counts that repeat exactly for one seed on one commit."""
    out = {
        "steps": unit["steps"],
        "ckpt_bytes": unit["ckpt_bytes"],
        "emb_bytes": unit["emb_bytes"],
        "ndcg_retargeting": unit["ndcg_retargeting"],
        "ndcg_discovery": None if math.isnan(unit["ndcg_discovery"]) else unit["ndcg_discovery"],
        "params_sha256": unit["digest"],
    }
    if layers is not None:
        import tracing
        out.update({name: layers[name] for name, unit_name, _ in tracing.LAYER_METRICS
                    if unit_name in ("count", "count/step", "B")})
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    import numpy as np
    import lifecycle
    import tracing
    from speed import SpeedClock

    w = lifecycle.WORKLOADS[workload]
    probe = tracing.Probe()
    units, layer_runs = [], []
    with SpeedClock() as clock:
        start = perf_counter()
        while len(units) < MIN_UNITS or perf_counter() - start < seconds:
            if trace and len(units) % 2 == 1:
                tracer = tracing.Tracer()
                with probe.installed(tracer):
                    unit = lifecycle.run_unit(w, seed, workdir, tracer)
                layers = tracing.layer_metrics(unit, tracer)
                unit["failed"] += tracing.failed_steps(unit, layers, tracer)
                layer_runs.append(layers)
                del tracer
            else:
                probe.assert_pristine()
                unit = lifecycle.run_unit(w, seed, workdir)
                probe.assert_pristine()
            units.append(unit)

    def nominal(pairs):
        pairs = np.asarray(pairs, dtype=float)
        return clock.nominal(pairs[:, 0], pairs[:, 1])

    first = units[0]
    for unit in units[1:]:  # same seed, same code: the same model and nDCG
        if (unit["digest"], unit["ndcg_retargeting"]) != (first["digest"], first["ndcg_retargeting"]):
            unit["failed"] += sum(unit["steps"].values())
    plain = [u for u in units if not u["traced"]]
    if trace:
        unit_s = {kind: np.median([nominal(u["intervals"]["unit"])[0] for u in units
                                   if u["traced"] == kind]) for kind in (True, False)}
        metrics = {k: float(np.median([lr[k] for lr in layer_runs])) for k in layer_runs[0]}
        metrics["trace.overhead_pct"] = float(100.0 * (unit_s[True] / unit_s[False] - 1.0))
        units_of = {name: unit_name for name, unit_name, _ in tracing.LAYER_METRICS}
    else:
        metrics = end_to_end(plain, nominal)
        units_of = dict(END_TO_END)
    info = {
        "workload": workload, "seconds": seconds, "trace": int(trace),
        "units": len(units), "traced_units": len(units) - len(plain),
        "score_samples": sum(len(u["intervals"]["score"]) for u in plain),
        # not gated: on a shared box the top 1% of 0.3 ms requests are
        # host preemptions and spread 15-31% from run to run
        "score_p99_ms": float(np.percentile(np.concatenate(
            [nominal(u["intervals"]["score"]) for u in plain]), 99) * 1e3),
        "speed_samples": clock.samples(),
        "wall_metrics": end_to_end(plain, wall),
        "env": environment(seed),
        "deterministic": deterministic(first, layer_runs[0] if layer_runs else None),
    }
    failed = sum(u["failed"] for u in units)
    result = {
        "correct": failed == 0,
        "attempted": sum(u["attempted"] for u in units),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in units_of},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # before numpy loads, so the BLAS pool is created with this size
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "tworank").is_dir():
        parser.error(f"no tworank sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import lifecycle
    if args.workload not in lifecycle.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(lifecycle.WORKLOADS)}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
