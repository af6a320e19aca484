"""Per-layer timing for the traced benchmark run.

The tracer wraps the public entry points of each layer of the program
(system build, compiler, registry, scenario draw, engine, streaming fold,
fleet, sweep plan and pool) from outside the program: it replaces the
function or method on its defining module or class — and every loaded
``repro`` module that imported it by name — with a wrapper that records
the call's *self* time, i.e. its duration minus the time of traced calls
nested inside it.  Self times of all layers therefore never overlap, and
the workload wall minus their sum is the time spent in the session layer
itself (``session.self_s``).

Calls made inside forked pool workers do not reach the parent's counters.
The two worker-side hydrate hooks report their busy time through the
program's own telemetry registry (``repro.obs``), which the workers export
and the parent merges after the sweep.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: obs counter prefix under which forked workers report hydrate time
WORKER_PREFIX = "perfbench.worker."

#: time layers whose self times add up (with session.self_s) to the wall
WALL_LAYERS = (
    "media.build_system_s",
    "compiler.compile_s",
    "registry.build_s",
    "timing.draw_s",
    "engine.kernel_compile_s",
    "engine.lockstep_s",
    "engine.outcomes_s",
    "streaming.fold_outcome_s",
    "streaming.fold_chunk_s",
    "fleet.plan_s",
    "fleet.run_s",
    "plan.sweep_plan_s",
    "pool.execute_s",
    "pool.fan_in_s",
)

def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerTracer:
    """Self-time accounting over patched layer entry points.

    Use as a context manager: entering installs every wrapper, leaving
    restores the originals.  ``self_s`` maps layer name to accumulated
    self seconds; ``draw_cycles``/``draw_bytes`` count scenario draws;
    ``fleet_plan``/``sweep_plan`` keep the last plans and
    ``sweep_outcomes`` every sweep outcome, for counts taken after the run.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.self_s: dict[str, float] = defaultdict(float)
        self.draw_cycles = 0
        self.draw_bytes = 0
        self.fleet_plan: Any = None
        self.sweep_plan: Any = None
        self.sweep_outcomes: list[Any] = []
        self._stack: list[list[float]] = []
        self._restore: list[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _wrap(
        self,
        layer: str,
        fn: Callable,
        on_result: Callable[[Any], None] | None = None,
        *,
        worker_only: bool = False,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_worker = os.getpid() != tracer.pid
            if in_worker != worker_only:
                # forked workers inherit the parent's wrappers but not its
                # counters; in-process hydration belongs to the pool layer
                return fn(*args, **kwargs)
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                if in_worker:
                    from repro.obs.metrics import registry

                    registry().inc(WORKER_PREFIX + layer, own)
                else:
                    tracer.self_s[layer] += own
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch_function(self, module: Any, name: str, layer: str, on_result=None) -> None:
        """Wrap ``module.name`` and every by-name import of it in ``repro``."""
        original = getattr(module, name)
        wrapper = self._wrap(layer, original, on_result)
        for loaded in [module, *_repro_modules()]:
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    self._restore.append(
                        functools.partial(setattr, loaded, attr, original)
                    )

    def patch_method(
        self, cls: type, name: str, layer: str, on_result=None, *, worker_only=False
    ) -> None:
        """Wrap a method, classmethod or constructor defined on ``cls``."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            patched: Any = classmethod(
                self._wrap(layer, raw.__func__, on_result, worker_only=worker_only)
            )
        else:
            patched = self._wrap(layer, raw, on_result, worker_only=worker_only)
        setattr(cls, name, patched)
        self._restore.append(functools.partial(setattr, cls, name, raw))

    # ------------------------------------------------------------------ #
    # result hooks
    # ------------------------------------------------------------------ #
    def _on_draw(self, batch: Any) -> None:
        self.draw_cycles += len(batch)
        self.draw_bytes += int(batch.nbytes())

    def _on_fleet_plan(self, plan: Any) -> None:
        self.fleet_plan = plan

    def _on_sweep_plan(self, plan: Any) -> None:
        self.sweep_plan = plan

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LayerTracer":
        from repro.analysis import metrics as analysis_metrics
        from repro.api import registry as api_registry
        from repro.api.session import Session
        from repro.core import engine, fleet, streaming
        from repro.core.system import ParameterizedSystem
        from repro.runtime import plan as runtime_plan
        from repro.runtime import pool as runtime_pool

        self.patch_method(Session, "resolved_system", "media.build_system_s")
        self.patch_method(Session, "compile", "compiler.compile_s")
        # Session.build and the run methods all construct through the registry
        self.patch_function(api_registry, "build_manager", "registry.build_s")
        self.patch_method(
            ParameterizedSystem, "draw_scenarios", "timing.draw_s", self._on_draw
        )
        self.patch_function(engine, "compile_decision_kernel", "engine.kernel_compile_s")
        self.patch_function(engine, "run_lockstep_arrays", "engine.lockstep_s")
        self.patch_function(engine, "run_cycles_vectorized", "engine.outcomes_s")
        self.patch_function(analysis_metrics, "compute_metrics", "streaming.fold_outcome_s")
        self.patch_method(
            streaming.StreamingMetrics, "update_chunk", "streaming.fold_chunk_s"
        )
        self.patch_method(fleet.FleetPlan, "plan", "fleet.plan_s", self._on_fleet_plan)
        self.patch_function(fleet, "run_fleet", "fleet.run_s")
        self.patch_function(
            runtime_plan, "plan_run_many", "plan.sweep_plan_s", self._on_sweep_plan
        )
        self.patch_method(
            runtime_pool.SweepExecutor, "run", "pool.execute_s", self.sweep_outcomes.append
        )
        self.patch_function(runtime_pool, "collect_outcome", "pool.fan_in_s")
        for name in ("__init__", "_compile"):
            self.patch_method(
                runtime_pool._WorkerRuntime, name, "pool.hydrate_s", worker_only=True
            )
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            self._restore.pop()()


@contextmanager
def capture_obs(directory: Path) -> Iterator[Callable[[], dict]]:
    """Turn the program's telemetry on for a block, workers included.

    Yields a function returning the merged metrics snapshot of this
    process and every pool worker that exported into ``directory``.
    Forked workers inherit the parent's registry, so a hook on the pool's
    worker initialiser clears it first; the merge then counts each event
    once.
    """
    from repro.obs import export as obs_export
    from repro.obs import metrics as obs_metrics
    from repro.obs import state as obs_state
    from repro.obs import trace as obs_trace
    from repro.runtime import pool as runtime_pool

    original_init = runtime_pool._init_worker

    @functools.wraps(original_init)
    def init_worker(*args, **kwargs):
        obs_metrics.registry().reset()
        obs_trace.drain()
        return original_init(*args, **kwargs)

    directory.mkdir(parents=True, exist_ok=True)
    previous_dir = os.environ.get(obs_export.ENV_DIR)
    os.environ[obs_export.ENV_DIR] = str(directory)
    obs_metrics.registry().reset()
    obs_trace.drain()
    obs_state.enable(True)
    runtime_pool._init_worker = init_worker

    def merged() -> dict:
        obs_export.flush()
        report = obs_export.build_report(obs_export.read_events(directory))
        return report["metrics"].get("metrics", {})

    try:
        yield merged
    finally:
        runtime_pool._init_worker = original_init
        obs_state.enable(False)
        obs_metrics.registry().reset()
        obs_trace.drain()
        if previous_dir is None:
            os.environ.pop(obs_export.ENV_DIR, None)
        else:
            os.environ[obs_export.ENV_DIR] = previous_dir


def metric_value(snapshot: dict, name: str, default: float = 0.0) -> float:
    """A counter or gauge value out of a merged obs snapshot."""
    entry = snapshot.get(name)
    if not entry:
        return default
    return float(entry.get("value", default))


def scalar_fallbacks(snapshot: dict) -> int:
    """Total of the engine's ``engine.scalar_fallback.<Manager>`` counters."""
    return int(
        sum(
            float(entry.get("value", 0.0))
            for name, entry in snapshot.items()
            if name.startswith("engine.scalar_fallback.")
        )
    )
