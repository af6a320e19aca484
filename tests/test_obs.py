"""Telemetry layer: metrics merge semantics, span trees, and the
cross-process trace guarantee.

The headline assertions here back the observability acceptance gate: one
distributed sweep — over the in-process pool *and* over a spool with a
real subprocess worker — exports JSONL that merges into a single trace
tree (the worker spans carry the very span ids the parent propagated)
plus one order-independently merged metrics snapshot, while the sweep
results stay bit-identical to the serial path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.obs import enable, export, logconfig, metrics, reset_enabled, trace
from repro.obs.metrics import bucket_exponent, merge_snapshots

_GRID = [
    {"label": f"u{i}", "manager": manager, "seed": i, "cycles": 2}
    for i, manager in enumerate(["relaxation", "region", "numeric", "skip"])
]


def _session(tmp_path: Path) -> Session:
    return Session().system("small").machine("ipod").seed(0).artifacts(tmp_path / "cache")


def _batches_identical(first, second) -> None:
    assert set(first.runs) == set(second.runs)
    fields = ("qualities", "durations", "completion_times", "manager_overheads")
    for label in first.runs:
        a, b = first[label], second[label]
        assert a.manager_name == b.manager_name
        assert len(a.outcomes) == len(b.outcomes)
        for left, right in zip(a.outcomes, b.outcomes):
            for name in fields:
                assert np.array_equal(getattr(left, name), getattr(right, name)), label


@pytest.fixture
def obs_dir(tmp_path, monkeypatch):
    """Telemetry on, exporting into a fresh directory; clean slate both ways."""
    out = tmp_path / "telemetry"
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(out))
    reset_enabled()
    metrics.registry().reset()
    trace.drain()
    yield out
    reset_enabled()
    metrics.registry().reset()
    trace.drain()


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #


def test_counter_gauge_histogram_basics():
    reg = metrics.MetricsRegistry("t")
    reg.inc("runs")
    reg.inc("runs", 2)
    reg.set("depth", 7)
    reg.observe("latency", 0.25)
    reg.observe("latency", 3.0)
    snap = reg.snapshot()["metrics"]
    assert snap["runs"] == {"kind": "counter", "value": 3}
    assert snap["depth"] == {"kind": "gauge", "value": 7}
    hist = snap["latency"]
    assert hist["count"] == 2 and hist["min"] == 0.25 and hist["max"] == 3.0
    with pytest.raises(ValueError, match="only go up"):
        reg.inc("runs", -1)
    with pytest.raises(TypeError, match="counter"):
        reg.gauge("runs")


def test_bucket_exponent_powers_of_two():
    # bucket e holds 2**(e-1) < v <= 2**e; exact powers land in their own key
    assert bucket_exponent(1.0) == 0
    assert bucket_exponent(2.0) == 1
    assert bucket_exponent(2.0001) == 2
    assert bucket_exponent(0.5) == -1
    assert bucket_exponent(0.4) == -1
    assert bucket_exponent(0.0) == 0
    assert bucket_exponent(float("nan")) == 0
    assert bucket_exponent(float("inf")) == 0


def test_merge_snapshots_is_order_independent():
    a = metrics.MetricsRegistry("a")
    a.inc("units", 3)
    a.set("resident", 2)
    a.observe("wait", 0.5)
    a.observe("wait", 4.0)
    b = metrics.MetricsRegistry("b")
    b.inc("units", 5)
    b.set("resident", 6)
    b.observe("wait", 0.1)
    c = metrics.MetricsRegistry("c")
    c.observe("wait", 100.0)

    snaps = [a.snapshot(), b.snapshot(), c.snapshot()]
    forward = merge_snapshots(snaps)
    backward = merge_snapshots(list(reversed(snaps)))
    assert forward["metrics"] == backward["metrics"]
    merged = forward["metrics"]
    assert merged["units"]["value"] == 8  # counters add
    assert merged["resident"]["value"] == 6  # gauges keep the max
    wait = merged["wait"]
    assert wait["count"] == 4 and wait["min"] == 0.1 and wait["max"] == 100.0
    assert sum(wait["buckets"].values()) == 4
    # associative too: pairwise fold equals one-shot fold
    paired = merge_snapshots([merge_snapshots(snaps[:2]), snaps[2]])
    assert paired["metrics"] == merged


def test_merge_snapshots_rejects_kind_mismatch():
    a = metrics.MetricsRegistry("a")
    a.inc("x")
    b = metrics.MetricsRegistry("b")
    b.set("x", 1)
    with pytest.raises(ValueError, match="merges a counter with a gauge"):
        merge_snapshots([a.snapshot(), b.snapshot()])


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #


def test_spans_nest_into_one_tree():
    enable()
    try:
        trace.drain()
        with trace.span("outer", kind="test"):
            with trace.span("inner"):
                pass
            with trace.span("sibling"):
                pass
        records = trace.drain()
    finally:
        reset_enabled()
    assert [r["name"] for r in records] == ["inner", "sibling", "outer"]
    outer = records[-1]
    assert outer["parent_id"] is None and outer["attrs"] == {"kind": "test"}
    assert all(r["trace_id"] == outer["trace_id"] for r in records)
    assert all(r["parent_id"] == outer["span_id"] for r in records[:-1])
    trees = trace.build_trees(records)
    assert len(trees) == 1
    assert [child["span"]["name"] for child in trees[0]["children"]] == [
        "inner",
        "sibling",
    ]


def test_disabled_spans_are_one_shared_noop():
    reset_enabled()
    assert trace.span("a") is trace.span("b")  # no allocation on the hot path
    with trace.span("a"):
        assert trace.current_context() is None
    assert trace.drain() == []
    assert export.flush() is None  # and no file is ever written


def test_attach_ids_adopts_a_propagated_parent():
    enable()
    try:
        trace.drain()
        with trace.span("parent"):
            ids = trace.propagation()
        assert ids is not None
        with trace.attach_ids(ids):
            with trace.span("child"):
                pass
        records = trace.drain()
    finally:
        reset_enabled()
    parent, child = records
    assert child["trace_id"] == parent["trace_id"]
    assert child["parent_id"] == parent["span_id"]
    # both ends of the tuple survive a JSON round-trip (the plan meta path)
    assert trace.attach_ids(json.loads(json.dumps(ids)))
    with trace.attach_ids(None):
        assert trace.current_context() is None


def test_span_records_errors():
    enable()
    try:
        trace.drain()
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        records = trace.drain()
    finally:
        reset_enabled()
    assert records[0]["error"] == "RuntimeError"


# --------------------------------------------------------------------------- #
# cross-process traces: pool and spool
# --------------------------------------------------------------------------- #


def _single_tree(
    out: Path, worker_span: str, n_units: int, root: str = "session.run_many"
) -> dict:
    """Assert the exported JSONL merges into one multi-process trace tree
    rooted at ``root``, with the sweep route's plan and fan-in under it."""
    events = export.read_events(out)
    spans = [e for e in events if e.get("type") == "span"]
    assert {s["trace_id"] for s in spans if s["name"].startswith("session.")} == {
        s["trace_id"] for s in spans
    }
    assert len({s["trace_id"] for s in spans}) == 1
    units = [s for s in spans if s["name"] == worker_span]
    assert len(units) == n_units
    (fan_in,) = [s for s in spans if s["name"] == "session.fan_in"]
    # the worker span ids chain to the very id the parent propagated
    assert all(s["parent_id"] == fan_in["span_id"] for s in units)
    assert any(s["pid"] != os.getpid() for s in units)  # really cross-process
    report = export.build_report(events)
    assert len(report["trees"]) == 1
    tree = report["trees"][0]
    assert tree["span"]["name"] == root
    children = {child["span"]["name"] for child in tree["children"]}
    assert {"session.plan", "session.fan_in"} <= children
    assert len(report["processes"]) >= 2
    return report


def test_pool_sweep_merges_into_one_trace_tree(tmp_path, monkeypatch, obs_dir):
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "serial-telemetry"))
    serial = _session(tmp_path).run_many(_GRID)
    monkeypatch.setenv("REPRO_OBS_DIR", str(obs_dir))
    pooled = _session(tmp_path).parallel(2).run_many(_GRID)
    _batches_identical(serial, pooled)  # telemetry never touches the results

    report = _single_tree(obs_dir, "pool.unit", len(_GRID))
    merged = report["metrics"]["metrics"]
    assert merged["pool.units.ok"]["value"] == len(_GRID)
    assert "pool.units.failed" not in merged


@pytest.mark.parametrize("transport", ["value", "redraw"])
def test_pool_compare_merges_into_one_trace_tree(tmp_path, monkeypatch, obs_dir, transport):
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "serial-telemetry"))
    serial = _session(tmp_path).compare(cycles=2)
    monkeypatch.setenv("REPRO_OBS_DIR", str(obs_dir))
    pooled = _session(tmp_path).parallel(2).compare(cycles=2, scenario_transport=transport)
    _batches_identical(serial, pooled)

    report = _single_tree(obs_dir, "pool.unit", len(serial.runs), root="session.compare")
    (root,) = [s for s in report["spans"] if s["name"] == "session.compare"]
    assert root["attrs"]["transport"] == transport


def test_spool_sweep_with_subprocess_worker_merges_into_one_trace_tree(
    tmp_path, monkeypatch, obs_dir
):
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "serial-telemetry"))
    serial = _session(tmp_path).run_many(_GRID)
    monkeypatch.setenv("REPRO_OBS_DIR", str(obs_dir))
    remote = (
        _session(tmp_path)
        .remote(tmp_path / "spool", poll_interval=0.02, timeout=120.0, local_workers=1)
        .run_many(_GRID)
    )
    _batches_identical(serial, remote)

    report = _single_tree(obs_dir, "spool.unit", len(_GRID))
    spans = report["spans"]
    hydrates = [s for s in spans if s["name"] == "spool.hydrate"]
    unit_ids = {s["span_id"] for s in spans if s["name"] == "spool.unit"}
    assert hydrates and all(s["parent_id"] in unit_ids for s in hydrates)
    merged = report["metrics"]["metrics"]
    assert merged["spool.units.ok"]["value"] == len(_GRID)
    assert merged["spool.claims"]["value"] >= len(_GRID)
    assert merged["spool.plans_submitted"]["value"] == 1


def test_cli_obs_report_renders_and_emits_json(tmp_path, monkeypatch, obs_dir, capsys):
    from repro.cli import main

    _session(tmp_path).parallel(2).run_many(_GRID[:2])
    assert main(["obs", "report", str(obs_dir)]) == 0
    printed = capsys.readouterr().out
    assert "telemetry report" in printed
    assert "session.run_many" in printed and "pool.unit" in printed
    assert main(["obs", "report", str(obs_dir), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["metrics"]["pool.units.ok"]["value"] == 2


def test_obs_report_survives_malformed_lines(tmp_path):
    out = tmp_path / "telemetry"
    out.mkdir()
    (out / "obs-x.jsonl").write_text(
        '{"type": "span", "span_id": "s1", "trace_id": "t", "name": "a"}\n'
        "{broken json\n"
        '{"type": "metrics", "process": "x", "seq": 1, '
        '"snapshot": {"metrics": {"n": {"kind": "counter", "value": 2}}}}\n',
        encoding="utf-8",
    )
    report = export.build_report(export.read_events(out))
    assert len(report["spans"]) == 1
    assert report["metrics"]["metrics"]["n"]["value"] == 2


# --------------------------------------------------------------------------- #
# logging configuration
# --------------------------------------------------------------------------- #


def test_configure_logging_precedence(monkeypatch):
    try:
        monkeypatch.setenv("REPRO_LOG", "error")
        assert logconfig.configure_logging(None) == "error"
        assert logconfig.current_level() == "error"
        assert logconfig.configure_logging("debug") == "debug"  # the flag wins
        monkeypatch.setenv("REPRO_LOG", "verbose")
        with pytest.raises(ValueError, match="unknown log level"):
            logconfig.configure_logging(None)
    finally:
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert logconfig.configure_logging(None) == "warning"  # the default


def test_cli_log_level_flag_sets_the_repro_logger(capsys):
    from repro.cli import main

    try:
        assert main(["--log-level", "debug", "managers"]) == 0
        assert logconfig.current_level() == "debug"
    finally:
        logconfig.configure_logging("warning")
    capsys.readouterr()
