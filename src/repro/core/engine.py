"""Vectorised batch execution of ``PS || Γ``: many cycles as NumPy kernels.

The scalar loop of :func:`repro.core.controller.run_cycle` pays Python
interpreter cost for every action of every cycle — manager call, overhead
charge, scenario read, float accumulation.  The paper's table-driven managers
make the *per-action management cost* a small constant, which means all of
that per-action work is mechanically the same across cycles: a batch of
cycles can execute in lockstep, one NumPy operation per action covering every
cycle at once.

The engine works in three parts:

* **decision kernels** — each manager lowers itself once into a declarative
  :class:`~repro.core.kernelspec.KernelSpec` (pre-computed tables plus one
  primitive op) via :meth:`~repro.core.manager.QualityManager.lower`; one
  or more specs sharing an op and table shape compile into one
  member-stacked NumPy program, and :class:`DecisionKernel` binds per-member overhead charges
  and invocation accounting around it.  The engine never branches on
  manager classes: every registered manager — numeric, the adaptive
  baselines (skip, elastic, feedback), the symbolic managers and the
  extensions (dvfs, multitask, linear-approx) — runs through the same spec
  protocol;
* **the lockstep executor** — :func:`run_lockstep_arrays` advances every
  lane of a scenario tensor by exactly one action per iteration, so the
  per-lane sequence of floating-point additions (overhead, then one
  duration per action) is *identical* to the scalar loop.  It is the only
  loop: a solo run (:func:`repro.core.streaming.execute_cycles`) is a
  one-member bucket, and a fleet bucket (:mod:`repro.core.fleet`) adds
  per-lane member indices, level minima and a real-lane mask;
* **kernel resolution** — :func:`vectorizable_spec` is the one rule that
  decides whether a run takes the kernel path: the ``vectorize`` mode,
  then the manager's spec, then a deterministic overhead model, then
  scenarios on the system's own quality set.  ``"always"`` raises when any
  step fails, ``"auto"`` and ``"never"`` fall back to the scalar loop
  (same results, slower, counted under ``engine.scalar_fallback`` in
  :mod:`repro.obs`).  The solo driver resolves through
  :func:`compile_decision_kernel` and :class:`~repro.core.fleet.FleetPlan`
  calls it per member.

Determinism contract: for any manager/overhead/scenario combination, the
outcomes returned by this module are bit-identical to a sequence of scalar
:func:`~repro.core.controller.run_cycle` calls on the same scenarios.
Overhead-model bookkeeping is preserved through a bulk hook: charges are
pre-computed per distinct work record via ``cost_of`` instead of calling
``charge`` once per invocation, and after the batch the exact invocation
counts are replayed through ``charge_batch(work, count)`` when the model
exposes it (the built-in models do); a model with neither hook simply does
not see the individual calls.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .backend import compile_program
from .controller import OverheadModelProtocol
from .kernelspec import KernelSpec
from .manager import ManagerWork, QualityManager
from .system import CycleOutcome, ParameterizedSystem
from .timing import ActualTimeScenario, ScenarioBatch

__all__ = [
    "EngineError",
    "DecisionKernel",
    "coerce_vectorize_mode",
    "overhead_model_vectorizable",
    "vectorizable_spec",
    "compile_decision_kernel",
    "supports_vectorized",
    "scenarios_vectorizable",
    "run_cycles_vectorized",
    "run_lockstep_arrays",
]

#: accepted values of the ``vectorize`` switch after coercion
_MODES = ("auto", "always", "never")


class EngineError(ValueError):
    """Invalid engine input, or ``vectorize="always"`` without a kernel."""


def coerce_vectorize_mode(value: object) -> str:
    """Normalise a ``vectorize`` switch to ``"auto"``/``"always"``/``"never"``.

    ``True`` means ``"always"`` (raise when no kernel exists), ``False`` means
    ``"never"`` (scalar loop), ``None`` means ``"auto"`` (vectorise when the
    manager/overhead pair supports it — the recommended default).
    """
    if value is None:
        return "auto"
    if value is True:
        return "always"
    if value is False:
        return "never"
    if isinstance(value, str) and value in _MODES:
        return value
    raise EngineError(
        f"vectorize must be one of {_MODES}, True, False or None, got {value!r}"
    )


def overhead_model_vectorizable(model: OverheadModelProtocol | None) -> bool:
    """True when charges can be pre-computed per distinct work record.

    The engine calls ``cost_of(work)`` once per work record the kernel can
    emit instead of ``charge(work)`` once per invocation; that is only valid
    for models declaring ``deterministic_charges`` (a pure function of the
    work record), e.g. :class:`~repro.platform.overhead.LinearOverheadModel`.
    """
    if model is None:
        return True
    return bool(getattr(model, "deterministic_charges", False)) and hasattr(
        model, "cost_of"
    )


def _charge_for(model: OverheadModelProtocol | None, work: ManagerWork) -> float:
    """The pre-computed cost of one invocation performing ``work``."""
    if model is None:
        return 0.0
    return float(model.cost_of(work))  # type: ignore[attr-defined]


def _member_counts(
    flags: np.ndarray, members: np.ndarray, real: np.ndarray, n_members: int
) -> np.ndarray:
    """``(n_members, n_actions)`` counts of set ``flags`` over each member's real lanes.

    ``flags`` is ``(n_actions, n_lanes)``; lanes are grouped by member (a
    stable sort of the real lanes) and summed per group in one ``reduceat``.
    """
    lanes = np.flatnonzero(real)
    owners = members[lanes]
    order = np.argsort(owners, kind="stable")
    lanes = lanes[order]
    present, starts = np.unique(owners[order], return_index=True)
    counts = np.zeros((n_members, flags.shape[0]), dtype=np.int64)
    if lanes.size:
        sums = np.add.reduceat(flags[:, lanes], starts, axis=1, dtype=np.int64)
        counts[present] = sums.T
    return counts


class DecisionKernel:
    """Compiled specs bound to per-member overhead charges and accounting.

    The one binding between a NumPy program and the lockstep loop: a solo
    run binds one spec, a fleet bucket its members' specs.  The program
    answers the pure decisions ``(rows, steps, late)`` per lane; this class
    adds what the engine owes each member's overhead model — the
    pre-computed charge of each invocation (per-state when the specs carry
    one work record per state, late-split when they carry a distinct late
    record, fixed otherwise), gathered by member — and, after a batch,
    derives the exact invocation counts per member from the loop's
    ``invoked``/``late`` records and replays them through ``charge_batch``
    (:meth:`replay_accounting`).  ``one_step`` is the program's declaration
    that every answer is one step; ``has_late_work`` says whether the loop
    must record late flags.
    """

    def __init__(
        self,
        specs: Sequence[KernelSpec],
        models: Sequence[OverheadModelProtocol | None],
    ) -> None:
        self._specs = tuple(specs)
        self._models = tuple(models)
        self._program = compile_program(self._specs)
        self.one_step = bool(getattr(self._program, "one_step", False))
        self._per_state = isinstance(self._specs[0].work, tuple)
        pairs = list(zip(self._specs, self._models))
        if self._per_state:
            charges = [[_charge_for(model, w) for w in spec.work] for spec, model in pairs]
        else:
            charges = [_charge_for(model, spec.work) for spec, model in pairs]
        self._charges = np.array(charges, dtype=np.float64)
        self.has_late_work = self._specs[0].late_work is not None
        self._late_charges = np.array(
            [
                _charge_for(model, spec.late_work) if spec.late_work is not None else 0.0
                for spec, model in pairs
            ],
            dtype=np.float64,
        )

    def decide(
        self,
        state_index: int,
        times: np.ndarray,
        members: int | np.ndarray = 0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Per-lane ``(rows, steps, overheads, late)``, each broadcastable to ``times``.

        ``members`` is one member index owning every lane, or one index per
        lane.  ``late`` flags the lanes charged the late work record, and is
        ``None`` when the specs carry none (or the op has no late path).
        """
        rows, steps, late = self._program.decide(state_index, times, members)
        if self._per_state:
            charges = self._charges[members, state_index]
        else:
            charges = self._charges[members]
        if self.has_late_work and late is not None:
            return rows, steps, np.where(late, self._late_charges[members], charges), late
        return rows, steps, charges, None

    def replay_accounting(
        self,
        invoked: np.ndarray,
        late: np.ndarray | None,
        members: int | np.ndarray = 0,
        real: np.ndarray | None = None,
    ) -> None:
        """Replay each member's invocation counts through its ``charge_batch``.

        ``invoked`` and ``late`` are the lockstep loop's ``(n_actions,
        n_lanes)`` records (``late`` is set only on invoking lanes, ``None``
        when no late flags were recorded); ``members``/``real`` are as in
        :func:`run_lockstep_arrays`, so padded lanes are never counted.
        Counts per member (and per state for per-state work) come from one
        vectorised pass; models exposing the hook then see exact call counts
        per distinct work record — late invocations under the late record,
        whether the normal work is per-state or fixed.
        """
        hooks = [getattr(model, "charge_batch", None) for model in self._models]
        if not any(hooks):
            return
        n_members = len(self._specs)
        normal = invoked if late is None else invoked & ~late
        if real is None:  # one member owns every lane
            counts = np.zeros((n_members, invoked.shape[0]), dtype=np.int64)
            counts[members] = np.count_nonzero(normal, axis=1)
            late_counts = np.zeros(n_members, dtype=np.int64)
            if late is not None:
                late_counts[members] = np.count_nonzero(late)
        else:
            counts = _member_counts(normal, members, real, n_members)
            late_counts = (
                _member_counts(late, members, real, n_members).sum(axis=1)
                if late is not None
                else np.zeros(n_members, dtype=np.int64)
            )
        for member, (spec, charge_batch) in enumerate(zip(self._specs, hooks)):
            if charge_batch is None:
                continue
            if self._per_state:
                records = list(zip(spec.work, counts[member].tolist()))
            else:
                records = [(spec.work, int(counts[member].sum()))]
            records.append((spec.late_work, int(late_counts[member])))
            for record, count in records:
                if count:
                    charge_batch(record, count)


def vectorizable_spec(
    manager: QualityManager,
    overhead_model: OverheadModelProtocol | None = None,
    *,
    system: ParameterizedSystem | None = None,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
    vectorize: object = "auto",
    subject: str | None = None,
) -> KernelSpec | None:
    """The manager's kernel spec when the run can take the kernel path, else ``None``.

    The one vectorisation rule, checked in order: the ``vectorize`` mode
    (``"never"`` stops here), the manager's spec
    (:meth:`~repro.core.manager.QualityManager.lower`), an overhead model
    with deterministic charges, and — when ``scenarios`` are given —
    scenarios indexed by ``system``'s own quality set.  A failed step means
    the scalar loop, except under ``"always"``, which raises
    :class:`EngineError` naming ``subject`` (default: the manager) and the
    step that failed.
    """
    mode = coerce_vectorize_mode(vectorize)
    if mode == "never":
        return None
    spec = manager.lower()
    if spec is None:
        reason = "has no vectorised decision kernel"
    elif not overhead_model_vectorizable(overhead_model):
        reason = (
            "has no vectorised decision kernel under an overhead model "
            "without deterministic charges"
        )
    elif scenarios is not None and not scenarios_vectorizable(system, scenarios):
        reason = (
            "cannot run vectorised: vectorised execution requires scenarios "
            "drawn for the system's quality set"
        )
    else:
        return spec
    if mode == "always":
        raise EngineError(f"{subject or f'manager {manager.name!r}'} {reason}")
    return None


def compile_decision_kernel(
    manager: QualityManager,
    overhead_model: OverheadModelProtocol | None = None,
    *,
    system: ParameterizedSystem | None = None,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
    vectorize: object = "auto",
) -> DecisionKernel | None:
    """Lower a manager into a :class:`DecisionKernel`, or ``None``.

    Resolves the spec through :func:`vectorizable_spec` (so ``vectorize``,
    the overhead model and the scenarios' quality set decide as everywhere
    else) and compiles it as a one-member kernel.  ``None`` means the
    scalar loop must be used.
    """
    spec = vectorizable_spec(
        manager, overhead_model, system=system, scenarios=scenarios, vectorize=vectorize
    )
    if spec is None:
        return None
    return DecisionKernel((spec,), (overhead_model,))


def supports_vectorized(
    manager: QualityManager,
    overhead_model: OverheadModelProtocol | None = None,
) -> bool:
    """True when the manager/overhead pair lowers to a decision kernel."""
    return compile_decision_kernel(manager, overhead_model) is not None


def scenarios_vectorizable(
    system: ParameterizedSystem,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario],
) -> bool:
    """True when every scenario indexes by the system's own quality set.

    The kernels translate quality rows through the *system's* quality set;
    a scenario drawn for a different (e.g. wider) set is still executable by
    the scalar loop, which uses the scenario's own level-to-row mapping.
    """
    if isinstance(scenarios, ScenarioBatch):
        return scenarios.qualities == system.qualities
    return all(scenario.qualities == system.qualities for scenario in scenarios)


def _scenario_tensor(
    system: ParameterizedSystem,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario],
) -> np.ndarray:
    """Validate the scenarios and return the ``(n_cycles, levels, actions)`` tensor.

    A :class:`~repro.core.timing.ScenarioBatch` is consumed directly — the
    engine executes its tensor with no re-stacking and no per-cycle objects;
    a sequence of per-cycle scenarios is validated and stacked once.
    """
    if isinstance(scenarios, ScenarioBatch):
        if scenarios.n_actions != system.n_actions:
            raise ValueError(
                f"scenario batch covers {scenarios.n_actions} actions, "
                f"system has {system.n_actions}"
            )
        if scenarios.qualities != system.qualities:
            raise EngineError(
                "vectorised execution requires scenarios drawn for the system's "
                f"quality set; got {scenarios.qualities!r} vs {system.qualities!r}"
            )
        return scenarios.tensor
    for scenario in scenarios:
        if scenario.n_actions != system.n_actions:
            raise ValueError(
                f"scenario covers {scenario.n_actions} actions, "
                f"system has {system.n_actions}"
            )
        if scenario.qualities != system.qualities:
            raise EngineError(
                "vectorised execution requires scenarios drawn for the system's "
                f"quality set; got {scenario.qualities!r} vs {system.qualities!r}"
            )
    return np.stack([scenario.matrix for scenario in scenarios])


def run_cycles_vectorized(
    system: ParameterizedSystem,
    manager: QualityManager,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario],
    *,
    overhead_model: OverheadModelProtocol | None = None,
    kernel: DecisionKernel | None = None,
    sink: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]
    | None = None,
) -> tuple[CycleOutcome, ...]:
    """Execute a batch of cycles through the lockstep vectorised engine.

    ``scenarios`` is a :class:`~repro.core.timing.ScenarioBatch` (its tensor
    is executed directly) or a sequence of per-cycle scenarios (stacked
    once).  All cycles advance one action per iteration, so every cycle
    performs the exact floating-point operation sequence of the scalar loop
    (overhead added at each invocation, one duration added per action) and
    the returned outcomes are bit-identical to per-cycle
    :func:`~repro.core.controller.run_cycle` calls.  ``sink`` (e.g. a
    :meth:`~repro.core.streaming.StreamingMetrics.update_chunk`) also
    receives the lockstep arrays, so one batch feeds a summary and the
    outcomes.  Raises :class:`EngineError` when the manager has no kernel.
    """
    if kernel is None:
        kernel = compile_decision_kernel(manager, overhead_model)
        if kernel is None:
            raise EngineError(
                f"manager {manager.name!r} (with this overhead model) has no "
                "vectorised decision kernel; use execute_cycles for automatic "
                "scalar fallback"
            )
    if not len(scenarios):
        return ()
    matrices = _scenario_tensor(system, scenarios)
    level_minimum = system.qualities.minimum
    qualities, completion, invoked, invocation_overheads = run_lockstep_arrays(
        kernel, matrices, level_minimum
    )
    if sink is not None:
        sink(qualities, completion, invoked, invocation_overheads)
    # each action's duration is the scenario entry at the chosen row
    rows = qualities - level_minimum
    durations = np.take_along_axis(matrices, rows[:, None, :], axis=1)[:, 0, :]
    states = np.arange(system.n_actions, dtype=np.int64)
    outcomes = []
    for c in range(matrices.shape[0]):
        mask = invoked[:, c]
        outcomes.append(
            CycleOutcome(
                qualities=qualities[c],
                durations=durations[c],
                completion_times=completion[c],
                manager_invocations=states[mask],
                manager_overheads=invocation_overheads[mask, c],
            )
        )
    return tuple(outcomes)


def run_lockstep_arrays(
    kernel: DecisionKernel,
    matrices: np.ndarray,
    level_minimum: int | np.ndarray,
    members: int | np.ndarray = 0,
    real: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lockstep executor over a raw scenario tensor, outcome-free.

    Advances every lane of ``matrices`` (shape ``(n_lanes, levels,
    actions)``) one action per iteration, so each lane performs the scalar
    loop's floating-point sequence: overhead added at each invocation, one
    duration added per action.  A solo run passes ``members=0`` and its
    quality set's minimum; a fleet bucket passes each lane's member index,
    its per-lane level minimum and the ``real`` mask of lanes carrying a
    scenario (padded lanes run but are never counted) — ``real`` is what
    marks ``members`` as per-lane.  A one-step program (see
    :class:`DecisionKernel`) decides on every lane at every action with no
    window bookkeeping; otherwise only lanes whose relaxation window ran out
    decide.  Quality rows are stored raw and offset by the level minimum
    once, at the end.

    Returns ``qualities``/``completion`` of shape ``(n_lanes, n_actions)``
    plus ``invoked``/``invocation_overheads`` of shape ``(n_actions,
    n_lanes)``, without building per-cycle
    :class:`~repro.core.system.CycleOutcome` objects:
    :func:`run_cycles_vectorized` wraps them into outcomes, and the solo
    driver (:mod:`repro.core.streaming`) and the fleet
    (:mod:`repro.core.fleet`) fold them chunk by chunk.  The invocation
    counts the kernel derives from ``invoked`` and the recorded late flags
    are replayed through ``charge_batch`` before returning.
    """
    n_lanes, _, n_actions = matrices.shape
    qualities = np.empty((n_lanes, n_actions), dtype=np.int64)  # rows until the end
    completion = np.empty((n_lanes, n_actions), dtype=np.float64)
    invocation_overheads = np.zeros((n_actions, n_lanes), dtype=np.float64)
    late = np.zeros((n_actions, n_lanes), dtype=bool) if kernel.has_late_work else None
    elapsed = np.zeros(n_lanes, dtype=np.float64)
    lane_index = np.arange(n_lanes)

    one_step = kernel.one_step
    if one_step:  # every lane decides at every action
        invoked = np.ones((n_actions, n_lanes), dtype=bool)
    else:
        invoked = np.zeros((n_actions, n_lanes), dtype=bool)
        due = np.zeros(n_lanes, dtype=np.int64)  # the action of each lane's next decision
        rows = np.zeros(n_lanes, dtype=np.intp)

    for i in range(n_actions):
        if one_step:
            rows, _, overheads, decided_late = kernel.decide(i, elapsed, members)
            elapsed += overheads
            invocation_overheads[i] = overheads
            if decided_late is not None:
                late[i] = decided_late
        else:
            lanes = np.flatnonzero(due == i)
            if lanes.size:
                if lanes.size == n_lanes:  # a slice: same lanes, no gather or scatter
                    lanes = slice(None)
                times = elapsed[lanes]
                lane_members = members if real is None else members[lanes]
                decided = kernel.decide(i, times, lane_members)
                decided_rows, decided_steps, overheads, decided_late = decided
                rows[lanes] = decided_rows
                due[lanes] = i + decided_steps
                elapsed[lanes] = times + overheads
                invoked[i, lanes] = True
                invocation_overheads[i, lanes] = overheads
                if decided_late is not None:
                    late[i, lanes] = decided_late
        elapsed += matrices[lane_index, rows, i]
        completion[:, i] = elapsed
        qualities[:, i] = rows

    qualities += np.reshape(level_minimum, (-1, 1))
    kernel.replay_accounting(invoked, late, members, real)
    return qualities, completion, invoked, invocation_overheads

