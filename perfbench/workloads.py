"""The benchmark's four workloads, their inputs and their output checks.

Every workload runs on the paper's CIF encoder (1,189 actions, 7 quality
levels) under the ipod machine's overhead model.  The encoder's video
content is fixed (``paper_encoder()``'s default); the workload seed drives
the scenario draws, the fleet/pool grid's per-member seeds, and which
members the checks sample.

A workload is three callables over plain objects:

* ``setup()`` builds fresh sessions: system build, compile, manager build
  (the benchmark's ``setup_s``);
* ``call(state)`` is one closed-loop operation and returns a
  :class:`CallResult`; reading every result's ``.metrics`` is part of it;
* ``check(state, obs_dir)`` makes the untimed warm-up call on fresh
  state with the program's telemetry on and returns its output checks;
* ``replay(report)`` adds the replay checks and the paper's quantities
  for the relaxation manager, after the timed calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from layers import capture_obs, metric_value, scalar_fallbacks

#: managers that are safe by construction (Definition 3): the compiled
#: managers on the mixed policy and the numeric manager on the safe policy
SAFE_MANAGERS = frozenset({"numeric", "region", "relaxation", "safe-only"})

#: the paper's three compiled managers, compared in Figures 7 and 8
PAPER_MANAGERS = ("numeric", "region", "relaxation")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (``PAPER`` is what the benchmark runs)."""

    system: str
    compare_cycles: int
    stream_cycles: int
    stream_chunk: int
    grid_seeds: int
    grid_cycles: tuple[int, int]
    grid_chunk: int
    replay_cycles: int
    fleet_samples: int
    light_setup_repeats: int
    heavy_setup_repeats: int


#: ``compare_cycles`` is the paper video's 29 frames, the compare behind
#: Fig. 7; ``stream_cycles`` and ``grid_seeds`` (K) are the paper-scale
#: probe's.  The grid is smaller than the probe's 256 cycles per member,
#: where one fleet call takes 3.9 s on the reference host: 22 calls of
#: each sweep must fit one run.  Its 16-32 cycles per member in 16-cycle
#: chunks keep the fleet's ragged multi-chunk layout.
PAPER = Sizes(
    system="paper",
    compare_cycles=29,
    stream_cycles=1024,
    stream_chunk=128,
    grid_seeds=2,
    grid_cycles=(16, 32),
    grid_chunk=16,
    replay_cycles=64,
    fleet_samples=3,
    light_setup_repeats=15,
    heavy_setup_repeats=5,
)

TINY = Sizes(
    system="small",
    compare_cycles=4,
    stream_cycles=16,
    stream_chunk=8,
    grid_seeds=1,
    grid_cycles=(2, 6),
    grid_chunk=4,
    replay_cycles=4,
    fleet_samples=2,
    light_setup_repeats=2,
    heavy_setup_repeats=2,
)

SIZES = {"paper": PAPER, "tiny": TINY}


@dataclass
class CallResult:
    """What one workload call completed: simulated cycles and runs."""

    cycles: int
    runs: list[tuple[str, Any]]  # (manager key, RunResult)
    batch: Any = None  # the BatchResult, keyed by label

    def unsafe_runs(self) -> list[str]:
        """Safe-manager runs of this call that missed a deadline."""
        return [
            f"{key} missed {result.metrics.deadline_misses}"
            for key, result in self.runs
            if key in SAFE_MANAGERS and result.metrics.deadline_misses
        ]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CheckReport:
    checks: list[Check] = field(default_factory=list)
    sim_mean_quality: float = float("nan")
    sim_overhead_pct: float = float("nan")

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))


@dataclass
class Workload:
    heavy_setup: bool
    setup: Callable[[], Any]
    call: Callable[[Any], CallResult]
    check: Callable[[Any, Path], CheckReport]
    replay: Callable[[CheckReport], None]


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def _encoder(sizes: Sizes):
    from repro.media.workload import paper_encoder, small_encoder

    return paper_encoder() if sizes.system == "paper" else small_encoder()


def _base_session(sizes: Sizes, seed: int):
    from repro.api import Session

    return Session().system(_encoder(sizes)).machine("ipod").seed(seed)


def sweep_grid(sizes: Sizes, seed: int) -> list[tuple[str, str, int, int]]:
    """``(label, manager key, cycles, seed)`` for every registry manager × K.

    Cycle counts are spread evenly over ``sizes.grid_cycles`` in registry
    order, so fleet buckets carry padding.  The layout is the same for
    every seed — bucket widths, and so the work, do not change with it —
    and the seed draws each member's scenario seed.
    """
    from repro.api.registry import available_managers

    rng = np.random.default_rng([seed, 0x5EED])
    members = [
        (key, replica)
        for key in available_managers()
        for replica in range(sizes.grid_seeds)
    ]
    low, high = sizes.grid_cycles
    cycles = np.linspace(low, high, len(members)).round().astype(int)
    return [
        (f"{key}#{replica}", key, int(count), int(rng.integers(0, 2**31)))
        for (key, replica), count in zip(members, cycles)
    ]


def _runs(batch: Any) -> list[tuple[str, Any]]:
    runs = [(result.manager_key, result) for result in batch.runs.values()]
    for _, result in runs:
        result.metrics  # reading the metrics is part of every call
    return runs


def _same_summary(a: Any, b: Any) -> bool:
    """Bit-identity of two runs' aggregates (floats compared exactly)."""
    if a.metrics != b.metrics or a.quality_histogram != b.quality_histogram:
        return False
    if a.summary is not None and b.summary is not None:
        return all(
            a.summary.makespan_quantile(q) == b.summary.makespan_quantile(q)
            for q in (0.5, 0.99)
        )
    return True


def _replay_checks(sizes: Sizes, seed: int, report: CheckReport) -> None:
    """Safety under ipod and symbolic == numeric on an overhead-free replay.

    One scenario batch is drawn from the deployed system; every safe
    manager replays it under the ipod overhead model (no deadline miss),
    and the three paper managers replay it without overhead, where region
    and relaxation must choose exactly numeric's quality levels.  The
    relaxation manager's ipod replay gives the paper's Fig. 7 (mean
    quality) and Fig. 8 (overhead share) quantities.
    """
    from repro.api import Session

    ipod = _base_session(sizes, seed)
    system = ipod.current_machine.deploy(ipod.resolved_system())
    scenarios = system.draw_scenarios(sizes.replay_cycles, np.random.default_rng(seed))
    for key in sorted(SAFE_MANAGERS):
        metrics = ipod.manager(key).run(len(scenarios), scenarios=scenarios).metrics
        misses = metrics.deadline_misses
        report.add(f"safe[{key}]", misses == 0, f"{misses} deadline misses under ipod")
        if key == "relaxation":
            report.sim_mean_quality = float(metrics.mean_quality)
            report.sim_overhead_pct = 100.0 * float(metrics.overhead_fraction)
    free = Session().system(system).deadlines(ipod.resolved_deadlines()).seed(seed)
    levels = {
        key: free.manager(key).run(len(scenarios), scenarios=scenarios).quality_values
        for key in PAPER_MANAGERS
    }
    for key in ("region", "relaxation"):
        same = np.array_equal(levels[key], levels["numeric"])
        report.add(f"equivalent[{key}]", same, "quality levels vs numeric, no overhead")


def _fallback_checks(report: CheckReport, snapshot: dict) -> None:
    fallbacks = scalar_fallbacks(snapshot)
    report.add("engine.scalar_fallbacks", fallbacks == 0, f"{fallbacks} scalar fallbacks")
    fleet_fallbacks = int(metric_value(snapshot, "fleet.fallback_sessions"))
    report.add(
        "fleet.fallback_sessions", fleet_fallbacks == 0, f"{fleet_fallbacks} sessions"
    )


def _workload(
    sizes: Sizes,
    seed: int,
    heavy_setup: bool,
    setup: Callable[[], Any],
    call: Callable[[Any], CallResult],
    extra: Callable[[CheckReport, Any, CallResult], None] | None = None,
) -> Workload:
    """A workload whose check is one call on fresh state with telemetry on."""

    def check(state: Any, obs_dir: Path) -> CheckReport:
        report = CheckReport()
        with capture_obs(obs_dir) as merged:
            result = call(state)
            _fallback_checks(report, merged())
        if extra is not None:
            extra(report, state, result)
        return report

    return Workload(heavy_setup, setup, call, check, partial(_replay_checks, sizes, seed))


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
def paper_compare(sizes: Sizes, seed: int) -> Workload:
    """Materialised compare of the three paper managers (Figs. 7 and 8)."""

    def setup():
        session = _base_session(sizes, seed)
        session.resolved_system()
        session.compile()
        for key in PAPER_MANAGERS:
            session.build(key)
        return session

    def call(session) -> CallResult:
        batch = session.compare(*PAPER_MANAGERS, cycles=sizes.compare_cycles)
        return CallResult(sizes.compare_cycles * len(PAPER_MANAGERS), _runs(batch))

    return _workload(sizes, seed, False, setup, call)


def paper_stream(sizes: Sizes, seed: int) -> Workload:
    """A long chunked relaxation run: draw and fold chunk by chunk."""

    def setup():
        session = _base_session(sizes, seed).manager("relaxation")
        session.resolved_system()
        session.compile()
        session.build()
        return session

    def call(session) -> CallResult:
        result = session.run(cycles=sizes.stream_cycles, chunk_size=sizes.stream_chunk)
        result.metrics
        return CallResult(sizes.stream_cycles, [("relaxation", result)])

    return _workload(sizes, seed, False, setup, call)


def fleet_sweep(sizes: Sizes, seed: int) -> Workload:
    """Every registry manager as one vectorised fleet."""

    grid = sweep_grid(sizes, seed)

    def setup():
        base = _base_session(sizes, seed)
        base.resolved_system()
        base.compile()
        sessions = {}
        for label, key, cycles, member_seed in grid:
            member = base.clone().manager(key).seed(member_seed).cycles(cycles)
            member.resolved_system()
            member.build()
            sessions[label] = member
        return sessions

    def call(sessions) -> CallResult:
        from repro.api import Session

        batch = Session.fleet(sessions, chunk_size=sizes.grid_chunk)
        return CallResult(sum(cycles for _, _, cycles, _ in grid), _runs(batch), batch)

    def solo_samples(report: CheckReport, sessions, result: CallResult) -> None:
        rng = np.random.default_rng([seed, 0xF1EE7])
        picks = rng.choice(len(grid), size=min(sizes.fleet_samples, len(grid)), replace=False)
        for index in sorted(int(i) for i in picks):
            label = grid[index][0]
            solo = sessions[label].clone().run(chunk_size=sizes.grid_chunk)
            report.add(
                f"fleet-solo[{label}]",
                _same_summary(result.batch.runs[label], solo),
                "fleet member vs solo Session.run",
            )

    return _workload(sizes, seed, True, setup, call, solo_samples)


def pool_sweep(sizes: Sizes, seed: int, workdir: Path) -> Workload:
    """The fleet's grid through the process pool, redraw transport, summaries."""

    from repro.api.session import ScenarioSpec

    grid = sweep_grid(sizes, seed)
    specs = [
        ScenarioSpec(label=label, manager=key, cycles=cycles, seed=member_seed)
        for label, key, cycles, member_seed in grid
    ]
    workers = len(os.sched_getaffinity(0))
    builds = iter(range(1_000_000))

    def session_factory():
        # a fresh, empty artifact cache per set-up keeps every compile cold
        cache = workdir / f"artifacts-{next(builds)}"
        return _base_session(sizes, seed).artifacts(cache).parallel(workers=workers)

    def setup():
        session = session_factory()
        session.resolved_system()
        session.compile()  # persists the artifact the workers hydrate from
        return session

    def call(session) -> CallResult:
        batch = session.run_many(specs, chunk_size=sizes.grid_chunk)
        return CallResult(sum(cycles for _, _, cycles, _ in grid), _runs(batch), batch)

    def solo_unit(report: CheckReport, session, result: CallResult) -> None:
        # the unit's draw window, as planned for a fresh session
        plan = session_factory().sweep_plan(specs, chunk_size=sizes.grid_chunk)
        rng = np.random.default_rng([seed, 0x9001])
        unit = plan.units[int(rng.integers(len(plan.units)))]
        solo = _base_session(sizes, seed)
        solo.resolved_system().timing.scenario_sampler.seek(unit.sampler_offset)
        solo_run = solo.manager(unit.manager).run(
            cycles=unit.cycles, seed=unit.seed, chunk_size=sizes.grid_chunk
        )
        report.add(
            f"pool-solo[{unit.label}]",
            _same_summary(result.batch.runs[unit.label], solo_run),
            "pool unit vs solo Session.run",
        )

    return _workload(sizes, seed, False, setup, call, solo_unit)


WORKLOAD_NAMES = ("paper-compare", "paper-stream", "fleet-sweep", "pool-sweep")


def make_workload(name: str, sizes: Sizes, seed: int, workdir: Path) -> Workload:
    if name == "paper-compare":
        return paper_compare(sizes, seed)
    if name == "paper-stream":
        return paper_stream(sizes, seed)
    if name == "fleet-sweep":
        return fleet_sweep(sizes, seed)
    if name == "pool-sweep":
        return pool_sweep(sizes, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")
