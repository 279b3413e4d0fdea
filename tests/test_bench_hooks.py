"""The benchmark's tracer looks up every library name it wraps when it is
built, so deleting or moving one of them breaks every benchmark run. Building
its probe here catches that in the unit suite."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracing.Probe().assert_pristine()
