"""Tests for chunked streaming execution (:mod:`repro.core.streaming`).

The streaming contract is chunk-boundary bit-identity: for any manager,
overhead model and ``chunk_size``, a streamed run's metrics must
equal the materialised path's :class:`~repro.analysis.metrics.QualityMetrics`
field for field — including runs whose chunk edges land mid-way through a
frame sampler's wrap-around — and pool/spool/service fan-in of streamed
accumulators must match serial execution exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import available_managers
from repro.api.results import RunResult
from repro.core import (
    EngineError,
    QuantileSketch,
    ScenarioBatch,
    StreamingMetrics,
    execute_cycles,
)
from repro.analysis.metrics import compute_metrics
from repro.api.session import SessionError
from repro.media import small_encoder
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel

from helpers import make_deadline, make_synthetic_system

ALL_KEYS = sorted(available_managers())
N_CYCLES = 10
CHUNK_SIZES = (1, 7, 64, N_CYCLES, N_CYCLES + 1)


@pytest.fixture(scope="module")
def parity_setup():
    """One synthetic system, deadline, pre-drawn batch, shared per grid cell."""
    system = make_synthetic_system()
    deadlines = make_deadline(system)
    scenarios = system.draw_scenarios(N_CYCLES, np.random.default_rng(7))
    return system, deadlines, scenarios


def assert_metrics_identical(expected, actual, context=""):
    """Field-for-field (bit-exact) QualityMetrics equality."""
    assert expected == actual, f"{context}: {expected} != {actual}"


class TestChunkParityGrid:
    """Every registry key x chunk size matches the materialised path."""

    # the "-None" suffix keeps each case's id from when the grid also ranged
    # over a one-value compute-backend axis
    @pytest.mark.parametrize("key", ALL_KEYS, ids=lambda key: f"{key}-None")
    def test_streamed_metrics_bit_identical(self, parity_setup, key):
        system, deadlines, scenarios = parity_setup
        session = (
            Session()
            .system(system)
            .deadlines(deadlines)
            .manager(key)
            .overhead(LinearOverheadModel(IPOD_LIKE))
        )
        baseline = session.run(scenarios=scenarios, cycles=N_CYCLES)
        for chunk in CHUNK_SIZES:
            streamed = session.run(
                scenarios=scenarios, cycles=N_CYCLES, chunk_size=chunk
            )
            assert streamed.is_summary
            assert_metrics_identical(
                baseline.metrics, streamed.metrics, f"{key} chunk={chunk}"
            )
            assert baseline.quality_histogram == streamed.quality_histogram
            assert streamed.n_cycles == N_CYCLES

    def test_direct_engine_call_matches_compute_metrics(self, parity_setup):
        system, deadlines, scenarios = parity_setup
        session = Session().system(system).deadlines(deadlines).manager("relaxation")
        manager = session.build()
        outcomes = execute_cycles(system, manager, scenarios=scenarios)[0]
        expected = compute_metrics(outcomes, deadlines)
        for chunk in (1, 3, N_CYCLES):
            summary = execute_cycles(
                system,
                manager,
                scenarios=scenarios,
                deadlines=deadlines,
                chunk_size=chunk,
            )[1]
            assert_metrics_identical(expected, summary.metrics(), f"chunk={chunk}")

    def test_chunk_size_validation(self, parity_setup):
        system, deadlines, scenarios = parity_setup
        manager = (
            Session().system(system).deadlines(deadlines).manager("constant").build()
        )
        with pytest.raises(EngineError, match="chunk_size"):
            execute_cycles(
                system,
                manager,
                scenarios=scenarios,
                deadlines=deadlines,
                chunk_size=0,
            )

    def test_chunked_run_without_deadlines_is_refused(self, parity_setup):
        """A chunked run keeps only its summary, so it needs deadlines."""
        system, deadlines, scenarios = parity_setup
        manager = (
            Session().system(system).deadlines(deadlines).manager("relaxation").build()
        )
        with pytest.raises(EngineError, match="deadlines"):
            execute_cycles(system, manager, 10, chunk_size=4)
        with pytest.raises(EngineError, match="deadlines"):
            execute_cycles(system, manager, scenarios=scenarios, chunk_size=4)

    def test_materialised_run_without_deadlines_keeps_outcomes_only(self, parity_setup):
        """An outcome-only call (``ControlledSystem.run_cycles``) needs no deadlines."""
        from repro.core import ControlledSystem

        system, deadlines, scenarios = parity_setup
        manager = (
            Session().system(system).deadlines(deadlines).manager("relaxation").build()
        )
        outcomes, summary = execute_cycles(system, manager, scenarios=scenarios)
        assert len(outcomes) == N_CYCLES and summary is None
        controlled = ControlledSystem(system, deadlines, manager)
        replayed = controlled.run_cycles(N_CYCLES, scenarios=scenarios)
        assert compute_metrics(replayed, deadlines) == compute_metrics(outcomes, deadlines)


class TestDriverValidation:
    """``execute_cycles`` validates its input once, for every run shape."""

    @pytest.fixture()
    def run(self, parity_setup):
        system, deadlines, scenarios = parity_setup
        manager = (
            Session().system(system).deadlines(deadlines).manager("relaxation").build()
        )
        return system, deadlines, scenarios, manager

    @pytest.mark.parametrize("chunk", [None, 4])
    def test_bad_cycle_requests_raise(self, run, chunk):
        system, deadlines, scenarios, manager = run
        options = {"chunk_size": chunk, "deadlines": deadlines}
        with pytest.raises(EngineError, match="cycle count"):
            execute_cycles(system, manager, **options)
        with pytest.raises(EngineError, match=">= 0"):
            execute_cycles(system, manager, -1, **options)
        with pytest.raises(EngineError, match="expected 3 scenarios"):
            execute_cycles(system, manager, 3, scenarios=scenarios, **options)

    @pytest.mark.parametrize("chunk", [None, 4])
    def test_zero_cycles_run_nothing(self, run, chunk):
        system, deadlines, _, manager = run
        outcomes, summary = execute_cycles(
            system, manager, 0, chunk_size=chunk, deadlines=deadlines
        )
        assert outcomes == () and summary.n_cycles == 0 and summary.n_actions is None

    def test_summary_accessors(self, run):
        system, deadlines, scenarios, manager = run
        _, summary = execute_cycles(
            system, manager, scenarios=scenarios, chunk_size=4, deadlines=deadlines
        )
        assert summary.deadlines is deadlines
        assert summary.n_actions == system.n_actions
        assert summary.makespan_sketch.count == N_CYCLES
        assert summary.makespan_quantile(0.5) > 0.0


class TestSamplerWrapAround:
    """Chunk edges crossing the frame sampler's wrap boundary stay identical."""

    @pytest.mark.parametrize("chunk", (1, 2, 3, 4, 7, 8))
    def test_wrap_at_chunk_edge(self, chunk):
        # 3-frame sequence, 8 cycles: the sampler wraps after frames 3 and 6,
        # landing both on and off every tested chunk edge
        def fresh():
            return Session().system(small_encoder(seed=0, n_frames=3)).seed(5)

        baseline = fresh().run(cycles=8)
        streamed = fresh().run(cycles=8, chunk_size=chunk)
        assert_metrics_identical(baseline.metrics, streamed.metrics, f"chunk={chunk}")
        assert baseline.quality_histogram == streamed.quality_histogram

    def test_consecutive_streamed_runs_continue_the_stream(self):
        # two runs on one session advance the frame sampler exactly like the
        # materialised path (draws happen per chunk, same total)
        materialised = Session().system(small_encoder(seed=0, n_frames=3)).seed(5)
        streamed = Session().system(small_encoder(seed=0, n_frames=3)).seed(5)
        for cycles in (4, 5):
            a = materialised.run(cycles=cycles)
            b = streamed.run(cycles=cycles, chunk_size=3)
            assert_metrics_identical(a.metrics, b.metrics, f"cycles={cycles}")


class TestParallelFanIn:
    """Streamed accumulators fanned in over every transport match serial."""

    def _fresh(self, tmp_path):
        return (
            Session()
            .system(small_encoder(seed=0, n_frames=4))
            .seed(3)
            .artifacts(tmp_path / "cache")
        )

    def test_pool_fan_in(self, tmp_path):
        serial = self._fresh(tmp_path).run_many([1, 2, 3], parallel=False)
        pooled = self._fresh(tmp_path).run_many(
            [1, 2, 3], parallel=True, workers=2, chunk_size=2
        )
        assert serial.labels == pooled.labels
        for label in serial.labels:
            assert pooled[label].is_summary
            assert_metrics_identical(serial[label].metrics, pooled[label].metrics, label)

    def test_compare_both_transports(self, tmp_path):
        serial = self._fresh(tmp_path).compare(cycles=4)
        for transport in ("value", "redraw"):
            streamed = self._fresh(tmp_path).compare(
                cycles=4,
                parallel=True,
                workers=1,
                scenario_transport=transport,
                chunk_size=3,
            )
            for label in serial.labels:
                assert streamed[label].is_summary
                assert_metrics_identical(
                    serial[label].metrics, streamed[label].metrics, f"{transport}:{label}"
                )

    def test_spool_fan_in(self, tmp_path):
        serial = self._fresh(tmp_path).run_many([1, 2], parallel=False)
        spooled = self._fresh(tmp_path).remote(
            tmp_path / "spool", poll_interval=0.02, timeout=120.0, local_workers=1
        )
        streamed = spooled.run_many([1, 2], chunk_size=2)
        for label in serial.labels:
            assert streamed[label].is_summary
            assert_metrics_identical(serial[label].metrics, streamed[label].metrics, label)

    def test_service_fan_in(self, tmp_path):
        serial = self._fresh(tmp_path).run_many([1, 2], parallel=False)
        service = self._fresh(tmp_path).service(
            tmp_path / "svc", poll_interval=0.02, timeout=120.0, local_workers=1
        )
        streamed = service.run_many([1, 2], chunk_size=2)
        for label in serial.labels:
            assert streamed[label].is_summary
            assert_metrics_identical(serial[label].metrics, streamed[label].metrics, label)


class TestQuantileSketch:
    def test_empty_and_bounds_raise(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.quantile(0.5)
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileSketch(resolution=3)

    def test_merge_rejects_other_resolution_and_single_value_quantile(self):
        sketch = QuantileSketch(resolution=64)
        assert sketch.resolution == 64
        with pytest.raises(ValueError, match="resolution"):
            sketch.merge(QuantileSketch(resolution=128))
        sketch.add_array(np.array([]))
        sketch.add_array(np.array([0.0, -1.0]))
        assert sketch.count == 2 and sketch.quantile(1.0) == 0.0
        sketch.add(3.0)
        assert abs(sketch.quantile(1.0) - 3.0) <= 3.0 * sketch.relative_error

    def test_relative_error_bound(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=1.0, sigma=2.0, size=5000)
        sketch = QuantileSketch()
        sketch.add_array(values)
        assert sketch.count == values.size
        for q in (0.01, 0.25, 0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            approx = sketch.quantile(q)
            assert abs(approx - exact) / exact < 2.0 * sketch.relative_error

    def test_merge_equals_bulk(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(scale=3.0, size=1000)
        bulk = QuantileSketch()
        bulk.add_array(values)
        left, right = QuantileSketch(), QuantileSketch()
        left.add_array(values[:400])
        right.add_array(values[400:])
        left.merge(right)
        assert left.count == bulk.count
        for q in (0.1, 0.5, 0.95):
            assert left.quantile(q) == bulk.quantile(q)

    def test_nonpositive_values(self):
        sketch = QuantileSketch()
        sketch.add_array(np.array([-1.0, 0.0, 2.0, 4.0]))
        assert sketch.count == 4
        assert sketch.quantile(0.0) == 0.0

    def test_pickle_roundtrip(self):
        sketch = QuantileSketch()
        sketch.add_array(np.array([0.5, 1.5, 2.5]))
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.count == sketch.count
        assert clone.quantile(0.5) == sketch.quantile(0.5)


class TestStreamingMetricsAccumulator:
    @pytest.fixture()
    def halves(self):
        system = make_synthetic_system(n_actions=12)
        deadlines = make_deadline(system)
        manager = (
            Session().system(system).deadlines(deadlines).manager("relaxation").build()
        )
        scenarios = system.draw_scenarios(6, np.random.default_rng(2))
        outcomes = execute_cycles(system, manager, scenarios=scenarios)[0]
        return deadlines, outcomes

    def test_merge_combines_halves(self, halves):
        deadlines, outcomes = halves
        whole = StreamingMetrics(deadlines)
        for outcome in outcomes:
            whole.update_outcome(outcome)
        first, second = StreamingMetrics(deadlines), StreamingMetrics(deadlines)
        for outcome in outcomes[:3]:
            first.update_outcome(outcome)
        for outcome in outcomes[3:]:
            second.update_outcome(outcome)
        first.merge(second)
        assert first.n_cycles == whole.n_cycles
        assert first.quality_level_counts == whole.quality_level_counts
        merged, reference = first.metrics(), whole.metrics()
        # integer folds are exact under merge; float folds re-associate, so
        # they match to numerical accuracy rather than bitwise
        assert merged.deadline_misses == reference.deadline_misses
        assert merged.manager_calls == reference.manager_calls
        assert merged.mean_quality == reference.mean_quality
        assert merged.smoothness == pytest.approx(reference.smoothness, rel=1e-12)
        assert merged.overhead_seconds == pytest.approx(
            reference.overhead_seconds, rel=1e-12
        )

    def test_std_quality_is_insertion_order_invariant(self, halves):
        # the chunked fold inserts histogram keys sorted (np.unique), the
        # per-cycle fold in encounter order; the float variance sum must not
        # depend on which order the levels arrived in
        deadlines, outcomes = halves
        forward = StreamingMetrics(deadlines)
        backward = StreamingMetrics(deadlines)
        for outcome in outcomes:
            forward.update_outcome(outcome)
        for outcome in reversed(outcomes):
            backward.update_outcome(outcome)
        assert forward.metrics().std_quality == backward.metrics().std_quality
        assert forward.metrics().mean_quality == backward.metrics().mean_quality

    def test_merge_rejects_mismatched_deadlines(self, halves):
        deadlines, outcomes = halves
        other_system = make_synthetic_system(n_actions=12)
        other = StreamingMetrics(make_deadline(other_system, slack=2.0))
        accumulator = StreamingMetrics(deadlines)
        accumulator.update_outcome(outcomes[0])
        other.update_outcome(outcomes[0])
        with pytest.raises(ValueError, match="deadline"):
            accumulator.merge(other)

    def test_empty_metrics_raises(self, halves):
        deadlines, _ = halves
        with pytest.raises(ValueError, match="at least one cycle"):
            StreamingMetrics(deadlines).metrics()

    def test_pickle_roundtrip(self, halves):
        deadlines, outcomes = halves
        accumulator = StreamingMetrics(deadlines)
        for outcome in outcomes:
            accumulator.update_outcome(outcome)
        clone = pickle.loads(pickle.dumps(accumulator))
        assert clone.metrics() == accumulator.metrics()
        assert clone.quality_level_counts == accumulator.quality_level_counts


class TestSummaryRunResult:
    @pytest.fixture()
    def pair(self):
        def fresh():
            return Session().system("small").seed(1).cycles(5)

        return fresh().run(), fresh().run(chunk_size=2)

    def test_summary_metrics_match(self, pair):
        materialised, summary = pair
        assert summary.is_summary and not materialised.is_summary
        assert materialised.metrics == summary.metrics
        assert materialised.quality_histogram == summary.quality_histogram
        assert summary.n_cycles == materialised.n_cycles
        assert summary.render() == materialised.render()

    def test_per_cycle_accessors_raise(self, pair):
        _, summary = pair
        with pytest.raises(ValueError, match="summary-only"):
            summary.mean_quality_per_cycle
        with pytest.raises(ValueError, match="summary-only"):
            summary.quality_values

    def test_quality_values_cached_and_empty_safe(self, pair):
        materialised, _ = pair
        first = materialised.quality_values
        assert first is materialised.quality_values  # cached, not rebuilt
        empty = RunResult(
            manager_key="constant",
            manager_name="constant",
            outcomes=(),
            deadlines=materialised.deadlines,
        )
        assert empty.quality_values.shape == (0,)
        assert empty.quality_histogram == {}


class TestScenarioBatchSlicing:
    def test_slices_are_views(self):
        system = make_synthetic_system(n_actions=8)
        batch = system.draw_scenarios(6, np.random.default_rng(0))
        window = batch[2:5]
        assert isinstance(window, ScenarioBatch)
        assert len(window) == 3
        assert np.shares_memory(window.tensor, batch.tensor)
        np.testing.assert_array_equal(window.tensor, batch.tensor[2:5])

    def test_shared_batch_slices_are_views(self):
        system = make_synthetic_system(n_actions=8)
        single = system.draw_scenarios(1, np.random.default_rng(0))
        shared = ScenarioBatch.shared(single.qualities, single.tensor[0], 5)
        window = shared[1:4]
        assert np.shares_memory(window.tensor, shared.tensor)
        assert len(window) == 3

    def test_view_batches_stay_readonly(self):
        system = make_synthetic_system(n_actions=8)
        batch = system.draw_scenarios(4, np.random.default_rng(0))
        window = batch[1:3]
        with pytest.raises(ValueError):
            window.tensor[0, 0, 0] = 1.0


class TestChunkSizeResolution:
    def test_precedence_per_call_builder_env(self, monkeypatch):
        session = Session().system("small").seed(0).cycles(4)
        monkeypatch.setenv("REPRO_CHUNK", "2")
        assert session.run().is_summary  # env fallback
        session.chunk_size(3)
        assert session.run().is_summary  # builder
        assert not session.run(chunk_size=None).is_summary  # per-call opt-out
        assert session.run(chunk_size=2).is_summary  # per-call override
        session.chunk_size(None)
        monkeypatch.delenv("REPRO_CHUNK")
        assert not session.run().is_summary

    def test_invalid_chunk_sizes_raise(self):
        session = Session().system("small")
        with pytest.raises(SessionError):
            session.chunk_size(0)
        with pytest.raises(SessionError):
            session.run(cycles=2, chunk_size="nope")

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK", "zero")
        with pytest.raises(SessionError):
            Session().system("small").run(cycles=2)


class TestStreamingObservability:
    def test_chunk_counters_and_report_section(self, tmp_path, monkeypatch):
        from repro.obs import metrics, reset_enabled
        from repro.obs.export import build_report, read_events, render_report

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "telemetry"))
        reset_enabled()
        metrics.registry().reset()
        try:
            Session().system("small").seed(0).run(cycles=6, chunk_size=2)
            snap = metrics.registry().snapshot()["metrics"]
            assert snap["engine.chunks"] == {"kind": "counter", "value": 3}
            assert snap["engine.cycles.streamed"] == {"kind": "counter", "value": 6}
            peak = snap["engine.peak_chunk_bytes"]
            assert peak["kind"] == "gauge" and peak["value"] > 0
            report = build_report(read_events(tmp_path / "telemetry"))
            rendered = render_report(report)
            assert "streaming engine" in rendered
            assert "cycles streamed" in rendered
            assert "peak chunk tensor" in rendered
        finally:
            reset_enabled()
            metrics.registry().reset()


class TestSessionStream:
    """``Session.stream`` yields the solo driver's chunks lazily."""

    STREAM_CHUNK = 4
    N_STREAMED = 10  # crosses two chunk boundaries

    @staticmethod
    def _session(key):
        # a fresh session per run: the encoder's frame sampler is stateful
        return Session().system(small_encoder(seed=3)).machine("ipod").seed(5).manager(key)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_stream_equals_run_field_by_field(self, key):
        streamed = list(
            self._session(key).chunk_size(self.STREAM_CHUNK).stream(self.N_STREAMED)
        )
        collected = self._session(key).run(self.N_STREAMED, chunk_size=None).outcomes
        assert len(streamed) == len(collected) == self.N_STREAMED
        for cycle, (left, right) in enumerate(zip(streamed, collected)):
            for field in (
                "qualities",
                "durations",
                "completion_times",
                "manager_invocations",
                "manager_overheads",
            ):
                assert np.array_equal(getattr(left, field), getattr(right, field)), (
                    f"{key} cycle {cycle} {field}"
                )

    @pytest.fixture()
    def draw_sizes(self, monkeypatch):
        """The cycle count of every ``draw_scenarios`` call, in order."""
        from repro.core.system import ParameterizedSystem

        sizes = []
        draw = ParameterizedSystem.draw_scenarios

        def counting_draw(self, count, rng=None):
            sizes.append(count)
            return draw(self, count, rng)

        monkeypatch.setattr(ParameterizedSystem, "draw_scenarios", counting_draw)
        return sizes

    def test_first_next_draws_at_most_one_chunk(self, draw_sizes):
        session = self._session("relaxation").chunk_size(self.STREAM_CHUNK)
        iterator = session.stream(self.N_STREAMED)
        assert draw_sizes == []
        next(iterator)
        assert draw_sizes == [self.STREAM_CHUNK]
        assert len(list(iterator)) == self.N_STREAMED - 1
        assert draw_sizes == [4, 4, 2]

    def test_stream_without_chunk_size_uses_the_default_chunk(
        self, draw_sizes, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHUNK", raising=False)
        monkeypatch.setattr("repro.api.session.DEFAULT_FLEET_CHUNK", 2)
        assert len(list(self._session("region").stream(5))) == 5
        assert draw_sizes == [2, 2, 1]

    def test_stream_runs_vectorised_and_counts_it(self, tmp_path, monkeypatch):
        from repro.obs import metrics, reset_enabled

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "telemetry"))
        reset_enabled()
        metrics.registry().reset()
        try:
            session = self._session("relaxation").chunk_size(self.STREAM_CHUNK)
            assert len(list(session.stream(6))) == 6
            snap = metrics.registry().snapshot()["metrics"]
            batches = snap["engine.batches.vectorized.RelaxationQualityManager"]
            assert batches == {"kind": "counter", "value": 1}
            assert snap["engine.cycles.vectorized"] == {"kind": "counter", "value": 6}
            assert snap["engine.chunks"] == {"kind": "counter", "value": 2}
            assert not any(name.startswith("engine.scalar_fallback") for name in snap)
        finally:
            reset_enabled()
            metrics.registry().reset()
