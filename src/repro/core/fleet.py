"""Fleet-scale execution: many heterogeneous sessions, one NumPy step.

:mod:`repro.core.engine` batches the cycles of *one* ``PS || Γ`` pair;
this module adds the third axis the ROADMAP names — thousands of
independent sessions (each its own quality set, deadlines, manager,
chunk size and seed) advancing together, one action per NumPy step.

There is no second executor: a bucket runs through the engine's one
lockstep loop, :func:`~repro.core.engine.run_lockstep_arrays`, with
per-lane member indices — a solo run is the one-member case.

* **bucketing** — every member's manager lowers to a
  :class:`~repro.core.kernelspec.KernelSpec`; :func:`bucket_key` reduces
  the spec to its *shape* ``(op, n_levels, n_actions, table dims, work
  structure)`` and :class:`FleetPlan` groups members whose shapes match.
  Within a bucket the NumPy program stacks the per-member tables along a
  member axis, so one program answers every
  member's decisions in one vectorised call — the same
  prune-don't-enumerate discipline the engine applies per manager, lifted
  across managers.  Members whose manager does not lower (or whose
  overhead model / scenarios rule the kernel out) fall back to their own
  solo streamed run — parity by identity;
* **padding/masking** — a bucket's members rarely share a cycle count,
  so each chunk lays lanes out rectangularly: every active member owns
  ``width`` lanes, of which only ``min(width, remaining)`` are real.
  Padded lanes carry zero durations, are masked out of the metric folds
  and the overhead accounting, and their cost is reported through the
  ``fleet.padding_waste`` gauge;
* **parity** — each member draws its scenarios from its *own*
  ``np.random.default_rng(seed)`` stream (persisted across chunks, the
  documented :meth:`~repro.core.timing.TimingModel.sample_scenarios`
  contract), the bucket's program performs each member's exact per-lane
  floating-point operation sequence, and each member folds into its own
  :class:`~repro.core.streaming.StreamingMetrics` — so the resulting
  summaries are **bit-identical** to running every member alone
  (``tests/test_fleet_differential.py`` fuzzes this across the whole
  manager registry).

Memory stays constant in the run length: one rectangular chunk of lanes
exists at a time, exactly like the streamed solo path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.obs.metrics import registry as _obs_registry
from repro.obs.state import enabled as _obs_enabled

from .controller import OverheadModelProtocol
from .deadlines import DeadlineFunction
from .engine import (
    DecisionKernel,
    coerce_vectorize_mode,
    run_lockstep_arrays,
    vectorizable_spec,
)
from .kernelspec import KernelSpec
from .manager import QualityManager
from .streaming import DEFAULT_FLEET_CHUNK, StreamingMetrics, execute_cycles
from .system import ParameterizedSystem
from .timing import ScenarioBatch

__all__ = [
    "DEFAULT_FLEET_CHUNK",
    "FleetError",
    "FleetMember",
    "FleetBucket",
    "FleetPlan",
    "bucket_key",
    "run_fleet",
]


class FleetError(ValueError):
    """Invalid fleet input (empty fleet, bad member, duplicate label)."""


@dataclass(frozen=True)
class FleetMember:
    """One session of the fleet, in core terms.

    The :mod:`repro.api.fleet` layer builds these from
    :class:`~repro.api.session.Session` objects; the core accepts them
    directly so tests and the pool workers can bypass the facade.  A
    member's ``system`` must not share a *stateful* scenario sampler
    with another member (the API layer snapshots such samplers) —
    otherwise interleaved draws would break solo parity.
    """

    label: str
    system: ParameterizedSystem
    manager: QualityManager
    deadlines: DeadlineFunction
    cycles: int
    seed: int | None = None
    scenarios: ScenarioBatch | None = None
    chunk_size: int | None = None
    overhead_model: OverheadModelProtocol | None = None
    vectorize: Any = "auto"

    def __post_init__(self) -> None:
        cycles = int(self.cycles)
        if cycles < 1:
            raise FleetError(
                f"fleet member {self.label!r} needs cycles >= 1, got {self.cycles}"
            )
        object.__setattr__(self, "cycles", cycles)
        if self.chunk_size is not None:
            chunk = int(self.chunk_size)
            if chunk < 1:
                raise FleetError(
                    f"fleet member {self.label!r} needs chunk_size >= 1, "
                    f"got {self.chunk_size}"
                )
            object.__setattr__(self, "chunk_size", chunk)
        if self.scenarios is not None:
            batch = ScenarioBatch.coerce(self.scenarios)
            if len(batch) != cycles:
                raise FleetError(
                    f"fleet member {self.label!r} carries {len(batch)} scenarios "
                    f"for {cycles} cycles"
                )
            object.__setattr__(self, "scenarios", batch)
        coerce_vectorize_mode(self.vectorize)

    def effective_chunk(self) -> int:
        """The member's streaming chunk size (its own, else the fleet default)."""
        return self.chunk_size if self.chunk_size is not None else DEFAULT_FLEET_CHUNK

    def make_rng(self) -> np.random.Generator:
        """The member's private scenario RNG stream (seed 0 when unset)."""
        return np.random.default_rng(0 if self.seed is None else int(self.seed))


def _table_signature(value: Any) -> tuple:
    """The *shape* of one spec table: dims for arrays, length for sequences.

    Table values never enter the signature — only their dimensions — so
    members whose tables differ element-wise still share a bucket and get
    stacked along the member axis.
    """
    if isinstance(value, np.ndarray):
        return ("array", value.shape)
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(_table_signature(item) for item in value))
    return ("scalar",)


def bucket_key(spec: KernelSpec, n_actions: int) -> tuple:
    """The hashable kernel-spec shape members must share to stack.

    ``(op, n_levels, n_actions, sorted table signatures, work structure)``:
    everything the bucket's one program indexes by position, nothing it
    gathers per member.  Per-state work tuples and late-work splits change how
    overhead accounting folds, so the work structure is part of the key.
    """
    tables = tuple(
        sorted((name, _table_signature(value)) for name, value in spec.tables.items())
    )
    if isinstance(spec.work, tuple):
        work = ("per-state", len(spec.work))
    else:
        work = ("single", spec.late_work is not None)
    return (spec.op, int(spec.n_levels), int(n_actions), tables, work)


@dataclass(frozen=True)
class FleetBucket:
    """Members sharing one kernel-spec shape, executed as one lane block."""

    key: tuple
    indices: tuple[int, ...]
    specs: tuple[KernelSpec, ...] = field(repr=False)


@dataclass(frozen=True)
class FleetPlan:
    """The bucketing of a fleet: stackable groups plus scalar fallbacks."""

    members: tuple[FleetMember, ...]
    buckets: tuple[FleetBucket, ...]
    fallback: tuple[int, ...]

    @classmethod
    def plan(cls, members: Sequence[FleetMember]) -> "FleetPlan":
        """Bucket ``members`` by kernel-spec shape.

        A member joins a bucket when
        :func:`~repro.core.engine.vectorizable_spec` — the solo driver's
        own rule — gives it a spec: its manager lowers, its overhead model
        declares deterministic charges and its scenarios (when shipped by
        value) index the system's own quality set.  Otherwise it is routed
        to the solo streamed fallback, or, under ``vectorize="always"``,
        refused.
        """
        members = tuple(members)
        if not members:
            raise FleetError("a fleet needs at least one member")
        seen: set[str] = set()
        for member in members:
            if member.label in seen:
                raise FleetError(f"duplicate fleet member label {member.label!r}")
            seen.add(member.label)
        grouped: dict[tuple, list[int]] = {}
        specs: dict[tuple, list[KernelSpec]] = {}
        fallback: list[int] = []
        for index, member in enumerate(members):
            spec = vectorizable_spec(
                member.manager,
                member.overhead_model,
                system=member.system,
                scenarios=member.scenarios,
                vectorize=member.vectorize,
                subject=f"fleet member {member.label!r} ({member.manager.name!r})",
            )
            if spec is None:
                fallback.append(index)
                continue
            key = bucket_key(spec, member.system.n_actions)
            grouped.setdefault(key, []).append(index)
            specs.setdefault(key, []).append(spec)
        buckets = tuple(
            FleetBucket(key=key, indices=tuple(indices), specs=tuple(specs[key]))
            for key, indices in grouped.items()
        )
        return cls(members=members, buckets=buckets, fallback=tuple(fallback))


def _run_bucket(
    members: Sequence[FleetMember],
    bucket: FleetBucket,
    summaries: list[StreamingMetrics | None],
) -> tuple[int, int]:
    """Advance one bucket to completion, chunk by chunk.

    Returns ``(padded_lanes, total_lanes)`` for the waste gauge.  Each
    chunk is a rectangle: every still-running member owns ``width``
    lanes (``width`` = the bucket's chunk size capped by the longest
    remaining run), real lanes carry that member's next scenarios and
    fold into its accumulator, padded lanes carry zeros and are masked
    out of folds and accounting.
    """
    group = [members[index] for index in bucket.indices]
    kernel = DecisionKernel(bucket.specs, [member.overhead_model for member in group])
    n_members = len(group)
    n_actions = group[0].system.n_actions
    n_levels = int(bucket.specs[0].n_levels)
    level_min = np.array(
        [member.system.qualities.minimum for member in group], dtype=np.int64
    )
    bucket_chunk = min(member.effective_chunk() for member in group)
    accumulators = [StreamingMetrics(member.deadlines) for member in group]
    rngs = [
        member.make_rng() if member.scenarios is None else None for member in group
    ]
    remaining = np.array([member.cycles for member in group], dtype=np.int64)
    position = np.zeros(n_members, dtype=np.int64)
    padded_lanes = 0
    total_lanes = 0

    while (remaining > 0).any():
        active = np.flatnonzero(remaining > 0)
        width = int(min(bucket_chunk, int(remaining[active].max())))
        counts = np.minimum(remaining[active], width)
        n_lanes = len(active) * width
        tensor = np.zeros((n_lanes, n_levels, n_actions), dtype=np.float64)
        real = np.zeros(n_lanes, dtype=bool)
        lane_member = np.repeat(active, width)
        for slot, member_index in enumerate(active.tolist()):
            member = group[member_index]
            count = int(counts[slot])
            start = slot * width
            if member.scenarios is None:
                batch = member.system.draw_scenarios(count, rngs[member_index])
            else:
                offset = int(position[member_index])
                batch = member.scenarios[offset : offset + count]
            tensor[start : start + count] = batch.tensor
            real[start : start + count] = True
        qualities, completion, invoked, overheads = run_lockstep_arrays(
            kernel, tensor, level_min[lane_member], lane_member, real
        )
        for slot, member_index in enumerate(active.tolist()):
            count = int(counts[slot])
            start = slot * width
            lanes = slice(start, start + count)
            accumulators[member_index].update_chunk(
                qualities[lanes],
                completion[lanes],
                invoked[:, lanes],
                overheads[:, lanes],
            )
            remaining[member_index] -= count
            position[member_index] += count
        padded_lanes += n_lanes - int(counts.sum())
        total_lanes += n_lanes

    for slot, index in enumerate(bucket.indices):
        summaries[index] = accumulators[slot]
    return padded_lanes, total_lanes


def run_fleet(
    members: Sequence[FleetMember],
    *,
    plan: FleetPlan | None = None,
) -> list[StreamingMetrics]:
    """Execute a whole fleet, one :class:`StreamingMetrics` per member.

    Buckets run through the stacked lockstep path; members the plan routed
    to the fallback run through the solo driver
    :func:`~repro.core.streaming.execute_cycles` — in both cases
    the returned summaries are bit-identical to running every member
    alone with its own seed.  Pass a pre-computed ``plan`` to skip
    re-bucketing (it must have been built from the same members).
    """
    members = tuple(members)
    if plan is None:
        plan = FleetPlan.plan(members)
    elif plan.members != members:
        raise FleetError("the supplied plan was built from different members")
    summaries: list[StreamingMetrics | None] = [None] * len(members)
    for index in plan.fallback:
        member = plan.members[index]
        _, summaries[index] = execute_cycles(
            member.system,
            member.manager,
            member.cycles,
            deadlines=member.deadlines,
            chunk_size=member.effective_chunk(),
            scenarios=member.scenarios,
            rng=member.make_rng() if member.scenarios is None else None,
            overhead_model=member.overhead_model,
            vectorize=member.vectorize,
        )
    padded_lanes = 0
    total_lanes = 0
    for bucket in plan.buckets:
        padded, total = _run_bucket(plan.members, bucket, summaries)
        padded_lanes += padded
        total_lanes += total
    if _obs_enabled():
        registry = _obs_registry()
        registry.inc("fleet.buckets", len(plan.buckets))
        registry.inc("fleet.sessions", len(plan.members))
        registry.inc("fleet.fallback_sessions", len(plan.fallback))
        registry.set(
            "fleet.padding_waste",
            padded_lanes / total_lanes if total_lanes else 0.0,
        )
    # every index was filled by exactly one bucket or fallback run
    return [summary for summary in summaries if summary is not None]
