"""Tests for the vectorised cycle engine (:mod:`repro.core.engine`).

The engine's contract is bit-identity: for any manager, overhead model and
scenario batch, the vectorised path must return :class:`CycleOutcome`
batches whose every array equals the scalar loop's output bit for bit — and
managers without a kernel must transparently fall back to the scalar loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import compute_metrics
from repro.api import Session
from repro.api.registry import BuildContext, available_managers, build_manager
from repro.api.results import RunResult
from repro.core import (
    EngineError,
    ParameterizedSystem,
    QualityManager,
    QualityManagerCompiler,
    QualitySet,
    StreamingMetrics,
    compile_decision_kernel,
    compute_td_table,
    execute_cycles,
    run_cycle,
    run_cycles_vectorized,
    run_fixed_quality,
    run_fixed_quality_batch,
    supports_vectorized,
)
from repro.core.backend import BackendError, get_backend
from repro.core.engine import DecisionKernel, coerce_vectorize_mode
from repro.core.fleet import FleetMember, FleetPlan, bucket_key, run_fleet
from repro.core.regions import QualityRegionTable, RegionQualityManager
from repro.core.relaxation import RelaxationQualityManager, RelaxationTable
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel, NullOverheadModel

from helpers import make_deadline, make_synthetic_system

_OUTCOME_FIELDS = (
    "qualities",
    "durations",
    "completion_times",
    "manager_invocations",
    "manager_overheads",
)


def assert_outcomes_identical(scalar, vectorized):
    assert len(scalar) == len(vectorized)
    for index, (left, right) in enumerate(zip(scalar, vectorized)):
        for field in _OUTCOME_FIELDS:
            a, b = getattr(left, field), getattr(right, field)
            assert np.array_equal(a, b), f"cycle {index}: {field} differs"


def assert_summary_matches_outcomes(outcomes, summary, deadlines):
    """The driver's folded summary is the outcomes' own metrics and histogram.

    A materialised :class:`RunResult` reads its metrics from the summary;
    they must equal :func:`compute_metrics` over the outcomes bit for bit,
    and the summary's quality histogram must count the outcomes' levels.
    """
    result = RunResult(
        manager_key="m",
        manager_name="m",
        outcomes=outcomes,
        deadlines=deadlines,
        summary=summary,
    )
    assert result.metrics == compute_metrics(outcomes, deadlines)
    levels, counts = np.unique(
        np.concatenate([outcome.qualities for outcome in outcomes]), return_counts=True
    )
    assert summary.quality_level_counts == dict(zip(levels.tolist(), counts.tolist()))


class StatefulCharge:
    """An overhead model whose charges depend on call history (not vectorisable)."""

    def __init__(self) -> None:
        self.calls = 0

    def charge(self, work) -> float:
        self.calls += 1
        return 0.001 * self.calls


class PureCharge:
    """A custom model declaring deterministic charges (vectorisable)."""

    deterministic_charges = True

    def cost_of(self, work) -> float:
        return 1e-4 + 1e-6 * (work.comparisons + work.table_lookups)

    def charge(self, work) -> float:
        return self.cost_of(work)


@pytest.fixture(scope="module")
def setup():
    system = make_synthetic_system(n_actions=40, n_levels=5, seed=3)
    deadlines = make_deadline(system)
    context = BuildContext.create(system, deadlines)
    return system, deadlines, context


def _overhead_models():
    return [None, LinearOverheadModel(IPOD_LIKE), NullOverheadModel(), PureCharge()]


# every registered manager lowers to exactly one kernel-spec primitive
_EXPECTED_OPS = {
    "average-only": "lookup",
    "constant": "constant",
    "dvfs": "relaxation",
    "elastic": "lookup",
    "feedback": "feedback",
    "linear-approx": "affine",
    "multitask": "relaxation",
    "numeric": "lookup",
    "region": "lookup",
    "relaxation": "relaxation",
    "safe-only": "lookup",
    "skip": "skip",
}


class TestParityGrid:
    # the "-None" suffix keeps each case's id from when the grid also ranged
    # over a one-value compute-backend axis
    @pytest.mark.parametrize(
        "key", available_managers(), ids=lambda key: f"{key}-None"
    )
    @pytest.mark.parametrize("model_index", range(4))
    def test_every_registered_manager_is_bit_identical(self, setup, key, model_index):
        """Vectorised (or fallen-back) outcomes equal the scalar loop exactly,
        and the run's folded summary equals the outcomes' metrics."""
        system, deadlines, context = setup
        model = _overhead_models()[model_index]
        manager = build_manager(key, context)
        rng = np.random.default_rng(17)
        scenarios = system.draw_scenarios(6, rng)
        manager.reset()
        scalar = [
            run_cycle(system, manager, scenario=s, overhead_model=model)
            for s in scenarios
        ]
        batch, summary = execute_cycles(
            system,
            manager,
            scenarios=scenarios,
            deadlines=deadlines,
            overhead_model=model,
        )
        assert_outcomes_identical(scalar, batch)
        assert_summary_matches_outcomes(batch, summary, deadlines)

    @pytest.mark.parametrize(
        "key", ("numeric", "skip", "feedback", "elastic", "dvfs", "multitask", "linear-approx")
    )
    def test_new_manager_kernels_handle_tight_deadlines(self, key):
        """Late/degenerate states drive every kernel's fallback branch."""
        system = make_synthetic_system(n_actions=25, n_levels=4, seed=2)
        deadlines = make_deadline(system, slack=0.55)
        context = BuildContext.create(system, deadlines, require_feasible=False)
        model = LinearOverheadModel(IPOD_LIKE)
        manager = build_manager(key, context)
        scenarios = system.draw_scenarios(10, np.random.default_rng(4))
        manager.reset()
        scalar = [
            run_cycle(system, manager, scenario=s, overhead_model=model)
            for s in scenarios
        ]
        batch = execute_cycles(
            system, manager, scenarios=scenarios, overhead_model=model
        )[0]
        assert_outcomes_identical(scalar, batch)

    @pytest.mark.parametrize("steps", [(1,), (2,), (1, 3, 7, 12), (1, 10, 20, 30, 40, 50)])
    def test_relaxation_step_sets(self, setup, steps):
        system, deadlines, _ = setup
        controllers = QualityManagerCompiler(relaxation_steps=steps).compile(
            system, deadlines
        )
        model = LinearOverheadModel(IPOD_LIKE)
        scenarios = system.draw_scenarios(8, np.random.default_rng(5))
        scalar = [
            run_cycle(system, controllers.relaxation, scenario=s, overhead_model=model)
            for s in scenarios
        ]
        vectorized = run_cycles_vectorized(
            system, controllers.relaxation, scenarios, overhead_model=model
        )
        assert_outcomes_identical(scalar, vectorized)

    def test_late_states_fall_back_to_minimal_quality(self):
        """A tight deadline drives cycles late; the kernels must match exactly."""
        system = make_synthetic_system(n_actions=25, n_levels=4, seed=2)
        deadlines = make_deadline(system, slack=0.55)
        td = compute_td_table(system, deadlines, require_feasible=False)
        regions = QualityRegionTable(td)
        relaxation = RelaxationTable(td, (1, 4, 9))
        model = LinearOverheadModel(IPOD_LIKE)
        for manager in (
            RegionQualityManager(regions),
            RelaxationQualityManager(regions, relaxation),
        ):
            scenarios = system.draw_scenarios(10, np.random.default_rng(4))
            scalar = [
                run_cycle(system, manager, scenario=s, overhead_model=model)
                for s in scenarios
            ]
            vectorized = run_cycles_vectorized(
                system, manager, scenarios, overhead_model=model
            )
            assert_outcomes_identical(scalar, vectorized)
        # the tight deadline actually exercised the late branch
        assert any(
            (outcome.qualities == system.qualities.minimum).any()
            for outcome in scalar
        )

    def test_rng_draws_match_scalar_interleaving(self, setup):
        """Engine pre-draws its batch; per-cycle scalar draws see the same stream."""
        system, _, context = setup
        manager = build_manager("region", context)
        scalar_rng = np.random.default_rng(23)
        scalar = [
            run_cycle(system, manager, rng=scalar_rng) for _ in range(5)
        ]
        batch = execute_cycles(
            system, manager, 5, rng=np.random.default_rng(23)
        )[0]
        assert_outcomes_identical(scalar, batch)


def _relaxation_table(manager) -> RelaxationTable:
    """The relaxation table behind a relaxation manager or a wrapper (dvfs, multitask)."""
    while not isinstance(manager, RelaxationQualityManager):
        manager = manager.inner
    return manager.relaxation


def _edge_times(manager, spec, state_index: int) -> np.ndarray:
    """Every table edge of one state, plus both float neighbours of each.

    The ``t^D`` boundaries, and for the relaxation-style ops every step's
    lower/upper region bound — the points where ``<`` and ``<=`` decide.
    Relaxation edges come from the manager's own ``t^D`` and
    :class:`RelaxationTable` bounds, never from the lowered breakpoints, so
    a bound the lowering misses is still probed.
    """
    tables = spec.tables
    if spec.op == "relaxation":
        table = _relaxation_table(manager)
        edges = [table.td_table.values[:, state_index]]
        for r in table.steps:
            edges += [
                table.lower_bounds(r)[:, state_index],
                table.upper_bounds(r)[:, state_index],
            ]
    else:
        edges = [tables["boundaries"][state_index]]
    if spec.op == "affine":
        for k in range(len(tables["steps"])):
            edges.append(tables["u_slope"][k] * state_index + tables["u_intercept"][k])
            edges.append(tables["l_slope"][k] * state_index + tables["l_intercept"][k])
    values = np.concatenate([np.ravel(edge) for edge in edges])
    values = values[np.isfinite(values)]
    return np.unique(
        np.concatenate(
            [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
        )
    )


class TestTableEdges:
    """The one program set matches ``manager.decide`` on every table edge."""

    EDGE_KEYS = sorted(
        key for key, op in _EXPECTED_OPS.items() if op in ("lookup", "relaxation", "affine")
    )
    # long enough that many edge times fall inside relaxation regions
    N_ACTIONS = 24
    # the paper encoder's tables carry thousands of -inf lower and +inf upper
    # bounds; every 16th of its 1,189 states keeps the case quick
    PAPER_KEYS = ("numeric", "region", "relaxation")
    PAPER_STATE_STRIDE = 16

    @classmethod
    def _managers(cls, key: str, n_members: int):
        managers = []
        for seed in range(n_members):
            system = make_synthetic_system(cls.N_ACTIONS, 4, seed=11 + seed)
            context = BuildContext.create(system, make_deadline(system))
            managers.append(build_manager(key, context))
        return managers

    @staticmethod
    def _assert_lanes_match(kernel, managers, state_index, times, members):
        rows, steps, _, _ = kernel.decide(state_index, times, members)
        rows = np.broadcast_to(rows, times.shape)
        steps = np.broadcast_to(steps, times.shape)
        lane_members = np.broadcast_to(members, times.shape)
        for lane, (t, m) in enumerate(zip(times.tolist(), lane_members.tolist())):
            manager = managers[m]
            decision = manager.decide(state_index, t)
            level = manager.qualities.minimum + int(rows[lane])
            assert (level, int(steps[lane])) == (decision.quality, decision.steps), (
                f"state {state_index}, member {m}, t={t!r}"
            )

    @pytest.mark.parametrize("key", EDGE_KEYS)
    def test_one_member_stack(self, key):
        (manager,) = self._managers(key, 1)
        kernel = compile_decision_kernel(manager)
        spec = manager.lower()
        for state_index in range(self.N_ACTIONS):
            times = _edge_times(manager, spec, state_index)
            self._assert_lanes_match(kernel, [manager], state_index, times, 0)

    @pytest.mark.parametrize("key", EDGE_KEYS)
    def test_three_member_stack(self, key):
        managers = self._managers(key, 3)
        specs = [manager.lower() for manager in managers]
        assert len({bucket_key(spec, self.N_ACTIONS) for spec in specs}) == 1
        assert not all(
            np.array_equal(specs[0].tables["boundaries"], spec.tables["boundaries"])
            for spec in specs[1:]
        ), "the stacked members should carry different tables"
        kernel = DecisionKernel(specs, [None] * len(specs))
        shuffle = np.random.default_rng(5)
        for state_index in range(self.N_ACTIONS):
            per_member = [
                _edge_times(manager, spec, state_index)
                for manager, spec in zip(managers, specs)
            ]
            times = np.concatenate(per_member)
            members = np.repeat(np.arange(len(specs)), [len(t) for t in per_member])
            order = shuffle.permutation(len(times))
            times, members = times[order], members[order]
            self._assert_lanes_match(kernel, managers, state_index, times, members)

    @pytest.fixture(scope="class")
    def paper_context(self):
        from repro.media.workload import paper_encoder

        workload = paper_encoder()
        return BuildContext.create(workload.build_system(), workload.deadlines())

    @pytest.mark.parametrize("key", PAPER_KEYS)
    def test_paper_encoder(self, key, paper_context):
        manager = build_manager(key, paper_context)
        kernel = compile_decision_kernel(manager)
        spec = manager.lower()
        n_states = paper_context.system.n_actions
        if key == "relaxation":
            # the paper tables exercise the unreachable-region encodings
            table = manager.relaxation
            bounds = [table.lower_bounds(r) for r in table.steps]
            assert any(np.isneginf(bound).any() for bound in bounds)
            assert any(np.isposinf(bound).any() for bound in bounds)
        for state_index in range(0, n_states, self.PAPER_STATE_STRIDE):
            times = _edge_times(manager, spec, state_index)
            self._assert_lanes_match(kernel, [manager], state_index, times, 0)


class TestDecisionTables:
    """Relaxation interval tables: built once per manager, compact, never pickled."""

    def test_session_builds_relaxation_tables_once(self, tmp_path, monkeypatch):
        from repro.api import Session
        from repro.obs import metrics, reset_enabled

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "telemetry"))
        reset_enabled()
        metrics.registry().reset()
        try:
            session = Session().system("small").manager("relaxation").seed(0)
            session.run(cycles=3)
            session.run(cycles=3)
            session.compare("numeric", "relaxation", cycles=2)
            snap = metrics.registry().snapshot()["metrics"]
            assert snap["engine.decision_tables.built"] == {"kind": "counter", "value": 1}
        finally:
            reset_enabled()
            metrics.registry().reset()

    def test_tables_stay_out_of_pickles(self):
        import pickle

        from repro.media.workload import small_encoder

        workload = small_encoder()
        context = BuildContext.create(workload.build_system(), workload.deadlines())
        manager = build_manager("relaxation", context)
        before = len(pickle.dumps(manager))
        spec = manager.lower()
        assert manager.lower() is spec  # memoised, not rebuilt
        assert len(pickle.dumps(manager)) == before
        restored = pickle.loads(pickle.dumps(manager))
        for name, table in restored.lower().tables.items():
            assert np.array_equal(table, spec.tables[name]), name

    def test_compact_answer_tables(self, setup):
        _, _, context = setup
        manager = build_manager("relaxation", context)
        tables = manager.lower().tables
        n_states = manager.relaxation.n_states
        n_levels = len(manager.qualities)
        width = n_levels * (1 + 2 * len(manager.relaxation.steps))
        assert tables["breakpoints"].shape == (n_states, width)
        breakpoints = tables["breakpoints"]
        assert np.all(breakpoints[:, 1:] >= breakpoints[:, :-1])  # sorted rows
        for name, dtype in (("rows", np.uint8), ("steps", np.int32), ("late", bool)):
            assert tables[name].shape == (n_states, width + 1), name
            assert tables[name].dtype == dtype, name


class OpaqueManager(QualityManager):
    """A decide()-only wrapper: no kernel spec, so it runs the scalar loop."""

    name = "opaque"

    def __init__(self, inner):
        self._inner = inner

    @property
    def qualities(self):
        return self._inner.qualities

    def decide(self, state_index, time):
        return self._inner.decide(state_index, time)

    def memory_footprint(self):
        return self._inner.memory_footprint()


class TestKernelCompilation:
    def test_every_registered_manager_lowers_to_a_kernel(self, setup):
        """The whole registry speaks the "tables in, kernel out" protocol."""
        _, _, context = setup
        assert set(_EXPECTED_OPS) == set(available_managers())
        for key, op in _EXPECTED_OPS.items():
            manager = build_manager(key, context)
            spec = manager.lower()
            assert spec is not None, key
            assert spec.op == op, key
            assert supports_vectorized(manager), key
            assert compile_decision_kernel(manager) is not None, key

    def test_manager_without_lowering_falls_back(self, setup):
        """A decide()-only subclass has no spec and runs through the scalar loop."""
        system, deadlines, context = setup

        manager = OpaqueManager(build_manager("region", context))
        assert manager.lower() is None
        assert not supports_vectorized(manager)
        scenarios = system.draw_scenarios(4, np.random.default_rng(1))
        scalar = [
            run_cycle(system, build_manager("region", context), scenario=s)
            for s in scenarios
        ]
        batch, summary = execute_cycles(
            system, manager, scenarios=scenarios, deadlines=deadlines
        )
        assert_outcomes_identical(scalar, batch)
        assert_summary_matches_outcomes(batch, summary, deadlines)

    def test_materialised_vectorised_run_never_folds_per_outcome(
        self, setup, monkeypatch
    ):
        """A vectorised materialised run folds its arrays through update_chunk."""
        system, deadlines, _ = setup

        def per_outcome_fold(self, outcome):
            raise AssertionError("a vectorised run folded one outcome at a time")

        monkeypatch.setattr(StreamingMetrics, "update_outcome", per_outcome_fold)
        for key in available_managers():
            result = (
                Session()
                .system(system)
                .deadlines(deadlines)
                .overhead("ipod")
                .manager(key)
                .run(cycles=5, chunk_size=None)
            )
            assert len(result.outcomes) == 5 and result.summary is not None
            assert result.metrics.n_cycles == 5, key
            assert sum(result.quality_histogram.values()) == 5 * system.n_actions

    def test_scalar_fallback_counter_emitted(self, setup, tmp_path, monkeypatch):
        """The run driver labels scalar fallbacks with the manager class."""
        from repro.obs import metrics, reset_enabled

        system, _, context = setup
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "telemetry"))
        reset_enabled()
        metrics.registry().reset()
        try:
            manager = build_manager("region", context)
            scenarios = system.draw_scenarios(2, np.random.default_rng(0))
            execute_cycles(
                system, manager, scenarios=scenarios, overhead_model=StatefulCharge()
            )
            execute_cycles(system, manager, scenarios=scenarios)
            snap = metrics.registry().snapshot()["metrics"]
            fallback = snap["engine.scalar_fallback.RegionQualityManager"]
            assert fallback == {"kind": "counter", "value": 1}
            assert "engine.batches.scalar.RegionQualityManager" in snap
            assert "engine.batches.vectorized.RegionQualityManager" in snap
        finally:
            reset_enabled()
            metrics.registry().reset()

    def test_requested_scalar_run_is_not_a_fallback(self, setup, tmp_path, monkeypatch):
        """``vectorize="never"`` asks for the scalar loop; only a manager that
        cannot vectorise under ``"auto"`` counts as a fallback."""
        from repro.obs import metrics, reset_enabled

        system, deadlines, context = setup
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "telemetry"))
        reset_enabled()
        metrics.registry().reset()
        try:
            relaxation = build_manager("relaxation", context)
            execute_cycles(system, relaxation, 2, vectorize="never")
            opaque = OpaqueManager(build_manager("region", context))
            execute_cycles(system, opaque, 2, vectorize="auto")
            snap = metrics.registry().snapshot()["metrics"]
            assert "engine.scalar_fallback.RelaxationQualityManager" not in snap
            assert snap["engine.batches.scalar.RelaxationQualityManager"]["value"] == 1
            fallback = snap["engine.scalar_fallback.OpaqueManager"]
            assert fallback == {"kind": "counter", "value": 1}
            assert snap["engine.batches.scalar.OpaqueManager"]["value"] == 1
        finally:
            reset_enabled()
            metrics.registry().reset()

    def test_stateful_overhead_model_disables_kernels(self, setup):
        system, _, context = setup
        manager = build_manager("region", context)
        model = StatefulCharge()
        assert not supports_vectorized(manager, model)
        # auto mode falls back to the scalar loop and matches it exactly
        scenarios = system.draw_scenarios(3, np.random.default_rng(0))
        scalar_model, batch_model = StatefulCharge(), StatefulCharge()
        scalar = [
            run_cycle(system, manager, scenario=s, overhead_model=scalar_model)
            for s in scenarios
        ]
        batch = execute_cycles(
            system, manager, scenarios=scenarios, overhead_model=batch_model
        )[0]
        assert_outcomes_identical(scalar, batch)
        assert batch_model.calls == scalar_model.calls

    def test_vectorize_always_raises_without_kernel(self, setup):
        # every registered manager lowers now, so the kernel-less path needs a
        # non-vectorisable overhead model
        system, _, context = setup
        manager = build_manager("numeric", context)
        with pytest.raises(EngineError):
            execute_cycles(
                system,
                manager,
                2,
                rng=np.random.default_rng(0),
                overhead_model=StatefulCharge(),
                vectorize="always",
            )

    def test_vectorize_never_forces_scalar(self, setup):
        system, _, context = setup
        manager = build_manager("relaxation", context)
        scenarios = system.draw_scenarios(4, np.random.default_rng(1))
        never = execute_cycles(
            system, manager, scenarios=scenarios, vectorize="never"
        )[0]
        always = execute_cycles(
            system, manager, scenarios=scenarios, vectorize="always"
        )[0]
        assert_outcomes_identical(never, always)

    def test_mode_coercion(self):
        assert coerce_vectorize_mode(None) == "auto"
        assert coerce_vectorize_mode(True) == "always"
        assert coerce_vectorize_mode(False) == "never"
        assert coerce_vectorize_mode("auto") == "auto"
        with pytest.raises(EngineError):
            coerce_vectorize_mode("sometimes")

    def test_direct_vectorised_call_validates_its_batch(self, setup):
        """run_cycles_vectorized refuses what it cannot run, and runs nothing on nothing."""
        from repro.core.timing import ScenarioBatch

        system, _, context = setup
        manager = build_manager("region", context)
        assert run_cycles_vectorized(system, manager, []) == ()
        with pytest.raises(EngineError, match="execute_cycles"):
            run_cycles_vectorized(
                system, manager, [], overhead_model=StatefulCharge()
            )
        short = make_synthetic_system(n_actions=7, n_levels=5, seed=3)
        with pytest.raises(ValueError, match="actions"):
            run_cycles_vectorized(
                system, manager, short.draw_scenarios(2, np.random.default_rng(0))
            )
        native = system.draw_scenarios(2, np.random.default_rng(0))
        wide_levels = QualitySet.of_size(len(system.qualities) + 2)
        wide = ScenarioBatch(
            wide_levels,
            np.concatenate([native.tensor, native.tensor[:, -2:]], axis=1),
        )
        with pytest.raises(EngineError, match="quality set"):
            run_cycles_vectorized(system, manager, wide)
        with pytest.raises(EngineError, match="quality set"):
            run_cycles_vectorized(system, manager, list(wide))

    def test_scenario_shape_validated(self, setup):
        system, _, context = setup
        manager = build_manager("region", context)
        other = make_synthetic_system(n_actions=7, n_levels=5, seed=3)
        scenario = other.draw_scenario(np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_cycles_vectorized(system, manager, [scenario])

    def test_foreign_quality_set_falls_back_to_scalar(self, setup):
        """A scenario drawn for a wider quality set still executes under auto."""
        from repro.core.timing import ActualTimeScenario

        system, _, context = setup
        manager = build_manager("region", context)
        native = system.draw_scenario(np.random.default_rng(3))
        wide = ActualTimeScenario(
            QualitySet.of_size(len(system.qualities) + 2),
            np.vstack([native.matrix, native.matrix[-1:], native.matrix[-1:]]),
        )
        scalar = [run_cycle(system, manager, scenario=wide)]
        batch = execute_cycles(system, manager, scenarios=[wide])[0]
        assert_outcomes_identical(scalar, batch)
        with pytest.raises(EngineError):
            execute_cycles(
                system, manager, scenarios=[wide], vectorize="always"
            )

    def test_vectorized_path_preserves_overhead_accounting(self, setup):
        """LinearOverheadModel call counts survive the batch via charge_batch."""
        system, _, context = setup
        manager = build_manager("relaxation", context)
        scenarios = system.draw_scenarios(5, np.random.default_rng(2))
        scalar_model, vector_model = (
            LinearOverheadModel(IPOD_LIKE),
            LinearOverheadModel(IPOD_LIKE),
        )
        for scenario in scenarios:
            run_cycle(system, manager, scenario=scenario, overhead_model=scalar_model)
        run_cycles_vectorized(
            system, manager, scenarios, overhead_model=vector_model
        )
        assert vector_model.calls == scalar_model.calls
        assert vector_model.per_kind().keys() == scalar_model.per_kind().keys()
        for kind, split in scalar_model.per_kind().items():
            assert vector_model.per_kind()[kind]["calls"] == split["calls"]
            assert vector_model.per_kind()[kind]["seconds"] == pytest.approx(
                split["seconds"]
            )
        assert vector_model.total_seconds == pytest.approx(scalar_model.total_seconds)

    @pytest.mark.parametrize("path", ["solo", "fleet"])
    def test_late_calls_replayed_with_per_state_work(self, path):
        """Late invocations of a per-state-work spec reach ``charge_batch``.

        No registry manager lowers per-state work together with a late
        record, but a user-registered one can: tripled actual times drive
        the small encoder late, and every late call must be counted.
        """
        import dataclasses

        from repro.core.fleet import run_fleet
        from repro.core.timing import ScenarioBatch
        from repro.media.workload import small_encoder

        class PerStateRelaxation(RelaxationQualityManager):
            def lower(self):
                spec = super().lower()
                work = tuple(spec.work for _ in range(self.relaxation.n_states))
                return dataclasses.replace(spec, work=work)

        workload = small_encoder()
        system = workload.build_system()
        context = BuildContext.create(system, workload.deadlines())
        base = build_manager("relaxation", context)
        manager = PerStateRelaxation(base.regions, base.relaxation)
        drawn = system.draw_scenarios(64, np.random.default_rng(0))
        batches = [ScenarioBatch(drawn.qualities, drawn.tensor * 3)]
        if path == "fleet":  # a second, shorter member pads the last chunk
            batches.append(batches[0][:40])
        vector_models = [LinearOverheadModel(IPOD_LIKE) for _ in batches]
        if path == "solo":
            run_cycles_vectorized(
                system, manager, batches[0], overhead_model=vector_models[0]
            )
        else:
            members = [
                FleetMember(
                    label=f"m{index}",
                    system=system,
                    manager=manager,
                    deadlines=workload.deadlines(),
                    cycles=len(batch),
                    scenarios=batch,
                    chunk_size=32,
                    overhead_model=model,
                )
                for index, (batch, model) in enumerate(zip(batches, vector_models))
            ]
            assert len(FleetPlan.plan(members).buckets) == 1
            run_fleet(members)
        for batch, vector_model in zip(batches, vector_models):
            scalar_model = LinearOverheadModel(IPOD_LIKE)
            outcomes = [
                run_cycle(system, manager, scenario=s, overhead_model=scalar_model)
                for s in batch
            ]
            assert any(
                (outcome.qualities == system.qualities.minimum).any()
                for outcome in outcomes
            ), "the tripled times should drive the late path"
            assert vector_model.calls == scalar_model.calls
            assert {
                kind: split["calls"] for kind, split in vector_model.per_kind().items()
            } == {kind: split["calls"] for kind, split in scalar_model.per_kind().items()}


class TestBackends:
    """The NumPy programs are the only kernel backend: ``get_backend`` answers
    ``numpy`` and every request for another backend is refused."""

    def test_default_backend_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert get_backend(None).name == "numpy"
        assert get_backend("numpy").name == "numpy"

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend().name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with pytest.raises(BackendError, match=r"\$REPRO_BACKEND is 'numba'"):
            get_backend()

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="'cupy'"):
            get_backend("cupy")

    def test_unavailable_backend_raises(self):
        # numba, the one other backend that ever shipped, is gone
        with pytest.raises(BackendError, match="'numba'"):
            get_backend("numba")

    def test_explicit_backend_request_is_not_silently_substituted(
        self, setup, monkeypatch
    ):
        system, deadlines, context = setup
        manager = build_manager("region", context)
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with pytest.raises(BackendError, match="REPRO_BACKEND"):
            execute_cycles(system, manager, 2, rng=np.random.default_rng(0))
        with pytest.raises(BackendError, match="REPRO_BACKEND"):
            execute_cycles(system, manager, 2, deadlines=deadlines, chunk_size=1)
        member = FleetMember(
            label="m", system=system, manager=manager, deadlines=deadlines, cycles=2
        )
        with pytest.raises(BackendError, match="REPRO_BACKEND"):
            run_fleet([member])
        monkeypatch.delenv("REPRO_BACKEND")
        session = Session().system(system).deadlines(deadlines).manager("region")
        with pytest.raises(TypeError, match="backend"):
            session.run(cycles=2, backend="numpy")
        assert not hasattr(session, "backend")

    def test_explicit_numpy_backend_is_bit_identical(self, setup, monkeypatch):
        system, _, context = setup
        manager = build_manager("relaxation", context)
        scenarios = system.draw_scenarios(5, np.random.default_rng(6))
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        default = execute_cycles(system, manager, scenarios=scenarios)[0]
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        explicit = execute_cycles(system, manager, scenarios=scenarios)[0]
        assert_outcomes_identical(default, explicit)


class TestBatchedDraws:
    def test_draw_scenarios_matches_sequential_draws(self, setup):
        system, _, _ = setup
        batch = system.draw_scenarios(7, np.random.default_rng(9))
        # full-stream comparison: one rng consumed across all draws
        rng = np.random.default_rng(9)
        sequential = [system.draw_scenario(rng) for _ in range(7)]
        for left, right in zip(batch, sequential):
            assert np.array_equal(left.matrix, right.matrix)

    def test_encoder_sampler_batch_advances_cursor(self):
        from repro.media import small_encoder

        batched = small_encoder(seed=0, n_frames=5).build_system()
        serial = small_encoder(seed=0, n_frames=5).build_system()
        batch = batched.draw_scenarios(8, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        sequential = [serial.draw_scenario(rng) for _ in range(8)]
        for left, right in zip(batch, sequential):
            assert np.array_equal(left.matrix, right.matrix)
        assert batched.timing.scenario_sampler.cursor == 8
        assert serial.timing.scenario_sampler.cursor == 8

    def test_samplerless_system_shares_the_average_scenario(self):
        qualities = QualitySet.of_size(3)
        average = np.arange(1.0, 13.0).reshape(3, 4)
        system = ParameterizedSystem.from_tables(
            ["a1", "a2", "a3", "a4"], qualities, average * 2.0, average
        )
        scenarios = system.draw_scenarios(4, np.random.default_rng(0))
        assert len(scenarios) == 4
        for scenario in scenarios:
            assert np.array_equal(scenario.matrix, scenarios[0].matrix)

    def test_zero_and_negative_counts(self, setup):
        system, _, _ = setup
        empty = system.draw_scenarios(0, np.random.default_rng(0))
        assert len(empty) == 0 and empty.scenarios() == ()
        assert empty.tensor.shape == (0, len(system.qualities), system.n_actions)
        with pytest.raises(ValueError):
            system.draw_scenarios(-1, np.random.default_rng(0))

    def test_sampler_empty_batch_keeps_matrix_shape(self):
        from repro.media import small_encoder

        system = small_encoder(seed=0, n_frames=3).build_system()
        sampler = system.timing.scenario_sampler
        empty = sampler.sample_batch(0, np.random.default_rng(0))
        assert empty.shape == (0, len(system.qualities), system.n_actions)


class TestFixedQualityFastPath:
    def test_caller_owned_scenario_returns_a_view(self, setup):
        system, _, _ = setup
        scenario = system.draw_scenario(np.random.default_rng(6))
        outcome = run_fixed_quality(system, 2, scenario=scenario)
        assert np.shares_memory(outcome.durations, scenario.matrix)
        assert np.array_equal(outcome.durations, scenario.matrix[2])

    def test_internal_draw_still_copies(self, setup):
        system, _, _ = setup
        outcome = run_fixed_quality(system, 2, rng=np.random.default_rng(6))
        assert outcome.durations.base is None or outcome.durations.flags.owndata

    def test_batch_matches_scalar(self, setup):
        system, _, _ = setup
        scenarios = system.draw_scenarios(5, np.random.default_rng(8))
        scalar = [run_fixed_quality(system, 1, scenario=s) for s in scenarios]
        batch = run_fixed_quality_batch(system, 1, scenarios)
        assert_outcomes_identical(scalar, batch)
        # outcomes own independent quality arrays (mutating one is local)
        assert batch[0].qualities is not batch[1].qualities

    def test_batch_validates_level_and_shape(self, setup):
        system, _, _ = setup
        scenarios = system.draw_scenarios(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_fixed_quality_batch(system, 99, scenarios)
        other = make_synthetic_system(n_actions=9, n_levels=5, seed=1)
        with pytest.raises(ValueError):
            run_fixed_quality_batch(
                system, 1, [other.draw_scenario(np.random.default_rng(0))]
            )
        assert run_fixed_quality_batch(system, 1, []) == ()


class TestSessionWiring:
    def _session(self):
        from repro.api import Session

        return (
            Session()
            .system(make_synthetic_system(n_actions=30, n_levels=4, seed=11))
            .deadlines(period=90.0)
            .overhead("ipod")
            .seed(7)
        )

    def test_run_identical_across_engines(self):
        for manager in ("relaxation", "region", "constant", "numeric"):
            auto = self._session().manager(manager).run(cycles=5)
            never = self._session().manager(manager).vectorize("never").run(cycles=5)
            assert_outcomes_identical(never.outcomes, auto.outcomes)

    def test_run_vectorize_keyword_overrides_builder(self):
        session = self._session().manager("relaxation").vectorize("never")
        never = session.run(cycles=4)
        always = session.run(cycles=4, vectorize="always")
        assert_outcomes_identical(never.outcomes, always.outcomes)

    def test_compare_identical_across_engines(self):
        auto = self._session().compare(cycles=4)
        never = self._session().vectorize("never").compare(cycles=4)
        assert auto.labels == never.labels
        for label in auto.labels:
            assert_outcomes_identical(never[label].outcomes, auto[label].outcomes)

    def test_run_many_identical_across_engines(self):
        specs = ["relaxation", "region", "constant", {"manager": "numeric", "seed": 3}]
        auto = self._session().run_many(specs)
        never = self._session().vectorize("never").run_many(specs)
        assert auto.labels == never.labels
        for label in auto.labels:
            assert_outcomes_identical(never[label].outcomes, auto[label].outcomes)

    def test_vectorize_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            self._session().vectorize("sometimes")

    def test_parallel_pool_carries_the_engine_setting(self, tmp_path):
        from repro.api import Session
        from repro.media import small_encoder

        def session() -> Session:
            return (
                Session()
                .system(small_encoder(seed=0, n_frames=4))
                .overhead("ipod")
                .seed(7)
                .manager("relaxation")
                .artifacts(tmp_path / "artifacts")
            )

        serial = session().run_many([1, 2, 3])
        pooled = session().run_many([1, 2, 3], parallel=True, workers=1)
        assert serial.labels == pooled.labels
        for label in serial.labels:
            assert_outcomes_identical(serial[label].outcomes, pooled[label].outcomes)

    def test_pool_honours_per_call_vectorize_override(self, tmp_path):
        """vectorize='always' reaches the workers: a kernel-less unit fails.

        Every registered manager lowers to a kernel now, so the kernel-less
        path needs a stateful (non-vectorisable) overhead model shipped
        through the payload.
        """
        from repro.api import Session
        from repro.media import small_encoder
        from repro.runtime.pool import SweepExecutionError

        session = (
            Session()
            .system(small_encoder(seed=0, n_frames=3))
            .seed(1)
            .manager("numeric")
            .overhead(StatefulCharge())
            .artifacts(tmp_path / "artifacts")
        )
        with pytest.raises(SweepExecutionError):
            session.run_many([1], parallel=True, workers=1, vectorize="always")

    def test_pool_mixed_manager_sweep_bit_identical(self, tmp_path):
        """A sweep mixing all the newly lowered managers survives the pool."""
        from repro.api import Session
        from repro.media import small_encoder

        specs = ["numeric", "skip", "feedback", "elastic", "linear-approx", "dvfs"]

        def session() -> Session:
            return (
                Session()
                .system(small_encoder(seed=0, n_frames=4))
                .machine("ipod")
                .seed(3)
                .manager("relaxation")
                .artifacts(tmp_path / "artifacts")
            )

        serial = session().run_many(specs)
        pooled = session().run_many(specs, parallel=True, workers=2)
        assert serial.labels == pooled.labels
        for label in serial.labels:
            assert_outcomes_identical(serial[label].outcomes, pooled[label].outcomes)

    def test_spool_mixed_manager_sweep_bit_identical(self, tmp_path):
        """The same mixed-manager sweep is bit-identical over a spool worker."""
        from repro.api import Session
        from repro.media import small_encoder

        specs = ["numeric", "skip", "feedback", "elastic"]

        def session() -> Session:
            return (
                Session()
                .system(small_encoder(seed=0, n_frames=3))
                .machine("ipod")
                .seed(5)
                .manager("relaxation")
                .artifacts(tmp_path / "artifacts")
            )

        serial = session().run_many(specs)
        spooled = session().remote(
            tmp_path / "spool", poll_interval=0.02, timeout=120.0, local_workers=1
        ).run_many(specs)
        assert serial.labels == spooled.labels
        for label in serial.labels:
            assert_outcomes_identical(serial[label].outcomes, spooled[label].outcomes)


class TestControlledSystemWiring:
    def test_run_cycles_uses_the_engine_transparently(self, setup):
        from repro.core import ControlledSystem

        system, deadlines, context = setup
        manager = build_manager("relaxation", context)
        controlled = ControlledSystem(system, deadlines, manager)
        auto = controlled.run_cycles(4, rng=np.random.default_rng(3))
        scalar = controlled.run_cycles(
            4, rng=np.random.default_rng(3), vectorize="never"
        )
        assert_outcomes_identical(scalar, auto)
