"""Unit tests of the span recorder and the entry-point installer."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from layers import ENTRY_POINTS, EntryPoint, _wrapper, busy_wait, installed, layer_rollup
from spans import SpanRecorder

MS = 1_000_000


def by_name(rec: SpanRecorder) -> dict:
    out: dict = {}
    for s in rec.spans():
        out.setdefault(s.name, []).append(s)
    return out


def test_nested_self_time_excludes_children():
    rec = SpanRecorder()
    with rec.span("outer"):
        busy_wait(0.02)
        with rec.span("inner"):
            busy_wait(0.03)
        busy_wait(0.01)
    spans = by_name(rec)
    (outer,), (inner,) = spans["outer"], spans["inner"]
    assert inner.parent == outer.sid and outer.parent is None
    assert outer.cpu_ns == pytest.approx(60 * MS, rel=0.3)
    assert outer.self_cpu_ns == outer.cpu_ns - inner.cpu_ns
    assert outer.self_wall_ns == outer.wall_ns - inner.wall_ns
    assert outer.self_cpu_ns == pytest.approx(30 * MS, rel=0.3)
    assert inner.self_cpu_ns == pytest.approx(30 * MS, rel=0.3)
    roll = layer_rollup(rec.spans())
    assert roll.total_cpu_s == pytest.approx(outer.cpu_ns * 1e-9)


def test_generator_is_timed_per_next():
    rec = SpanRecorder()

    def produce(n):
        for i in range(n):
            busy_wait(0.01)
            yield i

    timed = rec.wrap_generator(produce, "gen")
    with rec.span("consumer"):
        it = timed(3)
        busy_wait(0.01)
        assert rec.spans() == [], "creating the generator does no work"
        assert list(it) == [0, 1, 2]
    spans = by_name(rec)
    gens, (consumer,) = spans["gen"], spans["consumer"]
    assert len(gens) == 4  # three items and the exhausting next()
    assert all(g.parent == consumer.sid for g in gens)
    for g in gens[:3]:
        assert g.self_cpu_ns == pytest.approx(10 * MS, rel=0.3)
    assert gens[3].self_cpu_ns < 2 * MS
    assert consumer.self_cpu_ns == pytest.approx(10 * MS, rel=0.3)
    assert rec.open_spans() == 0


def test_exceptions_close_their_span():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap(boom, "boom")()
    assert rec.open_spans() == 0
    assert [s.name for s in rec.spans()] == ["boom"]


def test_threads_keep_separate_stacks():
    rec = SpanRecorder()
    barrier = threading.Barrier(2)

    def rank(r: int) -> None:
        with rec.span(f"outer{r}"):
            barrier.wait(timeout=10)
            with rec.span(f"inner{r}"):
                barrier.wait(timeout=10)  # both inner spans open at once
                busy_wait(0.005)
            barrier.wait(timeout=10)

    threads = [threading.Thread(target=rank, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    spans = by_name(rec)
    for r in range(2):
        (outer,), (inner,) = spans[f"outer{r}"], spans[f"inner{r}"]
        assert inner.parent == outer.sid
        assert inner.thread == outer.thread
        assert outer.self_cpu_ns == outer.cpu_ns - inner.cpu_ns
    assert spans["outer0"][0].thread != spans["outer1"][0].thread
    # the two inner spans overlapped in time on different stacks
    a, b = spans["inner0"][0], spans["inner1"][0]
    assert a.start_ns < b.end_ns and b.start_ns < a.end_ns


def test_spans_stay_in_memory_until_one_write(tmp_path, monkeypatch):
    writes = []
    real = Path.write_text

    def counting(self, *args, **kwargs):
        writes.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", counting)
    rec = SpanRecorder()
    fn = rec.wrap(lambda: None, "call")
    for _ in range(1000):
        fn()
    assert writes == [] and list(tmp_path.iterdir()) == []
    out = tmp_path / "sub" / "spans.json"
    assert rec.dump(out) == 1000
    assert writes == [out]
    doc = json.loads(out.read_text())
    assert len(doc["spans"]) == 1000
    assert doc["fields"][:4] == ["sid", "parent", "thread", "name"]


def test_run_id_is_stamped_on_spans():
    rec = SpanRecorder()
    rec.run = "fit0"
    with rec.span("a"):
        pass
    rec.run = "serve/b3"
    with rec.span("b"):
        pass
    assert [(s.name, s.run) for s in rec.spans()] == [("a", "fit0"), ("b", "serve/b3")]


def test_installed_wraps_every_entry_point_and_restores_it():
    from repro.ooc.columnset import ColumnSet
    import repro.core.pclouds as pclouds

    before = (ColumnSet.__dict__["iter_batches"], ColumnSet.__dict__["from_arrays"],
              pclouds.exchange_level_stats)
    missing: list[str] = []
    with installed(SpanRecorder(), missing=missing):
        assert ColumnSet.__dict__["iter_batches"] is not before[0]
        assert isinstance(ColumnSet.__dict__["from_arrays"], classmethod)
        assert pclouds.exchange_level_stats is not before[2]
    assert missing == [], f"entry points not found in the program: {missing}"
    after = (ColumnSet.__dict__["iter_batches"], ColumnSet.__dict__["from_arrays"],
             pclouds.exchange_level_stats)
    assert after == before


def test_delay_without_recorder_wraps_only_delayed_layers():
    from repro.ooc.columnset import ColumnSet
    from repro.serve.compiler import CompiledTree

    with installed(None, {"serve.predict_matrix": 0.001}):
        assert "predict_matrix" in CompiledTree.__dict__
        assert CompiledTree.__dict__["predict_matrix"].__name__ == "slow"
        assert ColumnSet.__dict__["iter_batches"].__name__ == "iter_batches"


def test_delay_is_the_same_with_and_without_a_recorder():
    def produce(n):
        yield from range(n)

    gen = EntryPoint("gen", "m", "produce", generator=True)
    plain = EntryPoint("call", "m", "f")
    rec = SpanRecorder()
    for recorder in (None, rec):
        assert list(_wrapper(gen, produce, recorder, 0.005)(3)) == [0, 1, 2]
        assert _wrapper(plain, lambda: 7, recorder, 0.005)() == 7
    spans = by_name(rec)
    # one delay per item, none on the exhausting next(); one per call
    assert [g.self_cpu_ns >= 4 * MS for g in spans["gen"]] == [True, True, True, False]
    assert [c.self_cpu_ns >= 4 * MS for c in spans["call"]] == [True]


def test_every_layer_has_entry_points():
    layers = {ep.name.split(".")[0] for ep in ENTRY_POINTS}
    assert layers >= {"core", "clouds", "ooc", "cluster", "forest", "serve", "obs"}
