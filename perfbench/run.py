"""Layered paper-scale benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-compare --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with every layer untouched;
``--trace 1`` measures the per-layer split in a separate traced segment of
the same run.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The process exits 1 when an output check fails and 2 when the program's
sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import multiprocessing
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import hostspeed
from layers import (
    WALL_LAYERS,
    WORKER_PREFIX,
    LayerTracer,
    capture_obs,
    metric_value,
    scalar_fallbacks,
)
from workloads import SIZES, CheckReport, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

#: fewest timed calls of an end-to-end run: twice the tail's eleven, so
#: the tail sits at or above the median on every workload
MIN_CALLS = 2 * (TAIL_BEYOND + 1)

#: an after-call slowdown above this is flagged (see ``after_call_slowdown``)
SLOWDOWN_FLAG = 1.25


def _load_program() -> None:
    """Import the program from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def reset_peak_rss() -> None:
    """Restart this process's peak resident memory count (Linux)."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mib() -> float:
    """Peak resident memory of this process since the last reset, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_peak_rss_mib() -> float:
    """Peak resident memory of the largest child waited for, MiB.

    A forked pool worker's figure includes the pages of this process it
    still maps from the fork.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def live_helpers() -> tuple[int, int]:
    """Threads and child processes of this process that are still alive."""
    return threading.active_count(), len(multiprocessing.active_children())


def after_call_slowdown(loop: "Loop") -> float:
    """Median time of the first kernel after a call over the settled one.

    What a call leaves in the caches and the allocator slows the kernel
    run right after it; the settled second run, which scales the times,
    is free of that.  The two run milliseconds apart, so a change of
    host speed moves both alike.
    """
    return statistics.median(loop.first_kernels) / statistics.median(loop.after_kernels)


def environment(seed: int, workload: str) -> dict:
    import numpy as np
    from repro.core.backend import get_backend

    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "pool_workers": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": get_backend(None).name,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


class Loop:
    """Closed-loop caller: one call at a time, timed, safety-checked.

    Each call is timed raw and at nominal host speed (``hostspeed``), with
    the calibration kernel run between calls, outside every call's raw
    time.  ``between(progress)`` runs after each call with the share of
    the call time spent so far; it returns True when it ran something,
    which neither counts as call time nor against the window.  Threads
    or child processes a call leaves running are recorded.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.raw: list[float] = []
        self.times: list[float] = []  # nominal-speed seconds
        self.first_kernels: list[float] = []  # first kernel seconds after each call
        self.after_kernels: list[float] = []  # settled kernel seconds after each call
        self.left_running: list[tuple[int, int]] = []  # helpers alive after a call
        self.cycles: list[int] = []
        self.sessions: list[int] = []
        self.failures: list[str] = []

    def run(self, state, seconds: float, min_calls: int, between=None) -> None:
        calling = 0.0
        idle = live_helpers()
        before = hostspeed.settled()[1]
        while calling < seconds or len(self.times) < min_calls:
            start = time.perf_counter()
            try:
                result = self.workload.call(state)
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                self.failures.append(traceback.format_exc(limit=3))
                result = None
            raw = time.perf_counter() - start
            helpers = live_helpers()
            if helpers != idle:
                self.left_running.append(helpers)
            first, after = hostspeed.settled()
            self.first_kernels.append(first)
            self.after_kernels.append(after)
            self.raw.append(raw)
            self.times.append(hostspeed.scaled(raw, before, after))
            before = after
            calling += raw
            self.cycles.append(result.cycles if result else 0)
            self.sessions.append(len(result.runs) if result else 0)
            unsafe = result.unsafe_runs() if result else []
            if unsafe:
                self.failures.append("deadline miss by a safe manager: " + ", ".join(unsafe))
            if between is not None and between(calling / seconds):
                before = hostspeed.settled()[1]


def end_to_end(
    workload, sizes, seconds: float, workdir: Path, report: list[str]
) -> tuple[dict, Loop, CheckReport]:
    """Time calls for ``seconds`` with set-ups spread evenly over the window.

    Every time is taken at nominal host speed (``hostspeed``).  Set-ups
    are spread over the window so their median samples the whole run.
    The untimed warm-up call is the checked one (``workload.check``).
    """
    repeats = sizes.heavy_setup_repeats if workload.heavy_setup else sizes.light_setup_repeats
    setup_times: list[float] = []

    def timed_setup():
        state, _, nominal = hostspeed.timed(workload.setup)
        setup_times.append(nominal)
        return state

    state = timed_setup()
    # warm-up (lazy imports, first-call caches) and output checks
    checks = workload.check(state, workdir / "obs-check")
    slots = [k / repeats for k in range(1, repeats)]

    def between(progress: float) -> bool:
        ran = False
        while slots and progress >= slots[0]:
            slots.pop(0)
            timed_setup()
            ran = True
        return ran

    loop = Loop(workload)
    reset_peak_rss()  # the peak of the timed calls, not of the checks before them
    loop.run(state, seconds, min_calls=MIN_CALLS, between=between)
    _check_idle(checks, loop)
    for _ in slots:
        timed_setup()
    rss = peak_rss_mib()
    ordered = sorted(loop.times)
    n = len(ordered)
    report.append(f"set-ups: {len(setup_times)}, nominal seconds {[round(t, 4) for t in setup_times]}")
    report.append(
        f"calls: {n}; tail = p{100.0 * (n - TAIL_BEYOND) / n:.1f} ({TAIL_BEYOND} "
        f"samples beyond it); host ran at {host_speed(loop):.3f} of nominal speed (median "
        f"over calls); raw p50 {1e3 * statistics.median(loop.raw):.3f} ms, raw fastest "
        f"{1e3 * min(loop.raw):.3f} ms"
    )
    report.extend(_slowdown_lines(loop))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cycles_per_s": (sum(loop.cycles) / sum(loop.times), "1/s"),
        "sessions_per_s": (sum(loop.sessions) / sum(loop.times), "1/s"),
        "call_p50_ms": (1e3 * statistics.median(ordered), "ms"),
        "call_tail_ms": (1e3 * ordered[n - TAIL_BEYOND - 1], "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return metrics, loop, checks


def host_speed(loop: Loop) -> float:
    """The host's speed relative to nominal, median over the loop's calls."""
    return statistics.median(nominal / raw for nominal, raw in zip(loop.times, loop.raw))


def _slowdown_lines(loop: Loop) -> list[str]:
    slowdown = after_call_slowdown(loop)
    lines = [
        f"calibration kernel {1e3 * statistics.median(loop.first_kernels):.3f} ms right after "
        f"calls, {1e3 * statistics.median(loop.after_kernels):.3f} ms settled (slowdown "
        f"{slowdown:.3f})"
    ]
    if slowdown > SLOWDOWN_FLAG:
        lines.append(
            f"WARNING: after-call slowdown {slowdown:.3f} > {SLOWDOWN_FLAG}: the calls leave "
            "the caches or the allocator strained; compare the raw times as well"
        )
    return lines


def _check_idle(checks: CheckReport, *loops: Loop) -> None:
    """Calls must leave no thread or child process running behind them."""
    left = [helpers for loop in loops for helpers in loop.left_running]
    calls = sum(len(loop.raw) for loop in loops)
    checks.add(
        "idle-after-calls",
        not left,
        f"{len(left)} of {calls} calls left threads or child processes running "
        f"(threads, children: {left[:3]})",
    )


def per_layer(
    workload, seconds: float, workdir: Path, report: list[str]
) -> tuple[dict, Loop, CheckReport]:
    """Untraced calls, then a traced set-up and calls, half the window each.

    The traced wall is program time only: the traced set-up plus the raw
    call times.  The calibration kernel and the loop's own bookkeeping
    between calls stay outside it, so ``session.self_s`` holds no
    benchmark time.
    """
    state = workload.setup()
    checks = workload.check(state, workdir / "obs-check")  # also the warm-up
    untraced = Loop(workload)
    untraced.run(state, seconds / 2.0, min_calls=3)

    traced = Loop(workload)
    with capture_obs(workdir / "obs-trace") as merged:
        with LayerTracer() as tracer:
            start = time.perf_counter()
            state = workload.setup()
            traced_setup = time.perf_counter() - start
            traced.run(state, seconds / 2.0, min_calls=3)
        snapshot = merged()
    _check_idle(checks, untraced, traced)
    wall = traced_setup + math.fsum(traced.raw)

    calls = len(traced.times)
    metrics: dict[str, tuple[float, str]] = {}
    accounted = 0.0
    for layer in WALL_LAYERS:
        seconds_in = tracer.self_s.get(layer, 0.0)
        accounted += seconds_in
        metrics[layer] = (seconds_in, "s")
        metrics[layer + ".share"] = (seconds_in / wall, "ratio")
    hydrate = metric_value(snapshot, WORKER_PREFIX + "pool.hydrate_s")
    metrics["pool.hydrate_s"] = (hydrate, "s")
    metrics["pool.hydrate_s.share"] = (hydrate / wall, "ratio")
    metrics["pool.worker_peak_rss_mib"] = (worker_peak_rss_mib(), "MiB")
    metrics["session.self_s"] = (wall - accounted, "s")
    metrics["session.self_s.share"] = ((wall - accounted) / wall, "ratio")

    metrics["timing.draw_cycles"] = (tracer.draw_cycles / calls, "count")
    metrics["timing.draw_mbytes"] = (tracer.draw_bytes / 1e6 / calls, "MB")
    metrics["engine.scalar_fallbacks"] = (float(scalar_fallbacks(snapshot)), "count")
    plan = tracer.fleet_plan
    metrics["fleet.buckets"] = (float(len(plan.buckets)) if plan else 0.0, "count")
    metrics["fleet.fallback_sessions"] = (float(len(plan.fallback)) if plan else 0.0, "count")
    waste = snapshot.get("fleet.padding_waste")
    metrics["fleet.useful_lane_frac"] = (
        1.0 - float(waste["value"]) if waste else 0.0,
        "ratio",
    )
    sweep = tracer.sweep_plan
    outcomes = tracer.sweep_outcomes
    unit_bytes = result_bytes = 0.0
    if sweep is not None and sweep.units:
        unit_bytes = statistics.fmean(len(pickle.dumps(unit)) for unit in sweep.units)
    if outcomes and outcomes[-1].outcomes:
        result_bytes = statistics.fmean(
            len(pickle.dumps(value)) for value in outcomes[-1].outcomes.values()
        )
    metrics["pool.unit_bytes"] = (unit_bytes, "B")
    metrics["pool.result_bytes"] = (result_bytes, "B")
    metrics["pool.failed_units"] = (
        float(sum(len(outcome.failures) for outcome in outcomes)),
        "count",
    )

    untraced_call = statistics.fmean(untraced.times)
    traced_call = statistics.fmean(traced.times)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.calls"] = (float(calls), "count")
    metrics["trace.untraced_call_ms"] = (1e3 * untraced_call, "ms")
    metrics["trace.traced_call_ms"] = (1e3 * traced_call, "ms")
    metrics["trace.overhead_frac"] = (traced_call / untraced_call - 1.0, "ratio")
    metrics["host.speed_factor"] = (host_speed(untraced), "ratio")
    metrics["host.after_call_slowdown"] = (after_call_slowdown(untraced), "ratio")
    metrics["call_p50_raw_ms"] = (1e3 * statistics.median(untraced.raw), "ms")
    report.append(
        f"traced wall {wall:.3f} s: one set-up plus {calls} calls, program time only; layers "
        f"account {accounted:.3f} s, session self {wall - accounted:.3f} s"
    )
    report.extend(_slowdown_lines(untraced))
    loop = Loop(workload)
    loop.times = untraced.times + traced.times
    loop.failures = untraced.failures + traced.failures
    return metrics, loop, checks


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    from repro.obs import state as obs_state

    # the benchmark decides when telemetry is on, whatever the caller's env
    obs_state.enable(False)
    sizes = SIZES[size]
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    try:
        workload = make_workload(workload_name, sizes, seed, workdir)
        env = environment(seed, workload_name)
        print("# env " + json.dumps(env, sort_keys=True))
        report: list[str] = []
        if trace:
            metrics, loop, checks = per_layer(workload, seconds, workdir, report)
        else:
            metrics, loop, checks = end_to_end(workload, sizes, seconds, workdir, report)
        workload.replay(checks)
        if not trace:
            metrics["sim_mean_quality"] = (checks.sim_mean_quality, "level")
            metrics["sim_overhead_pct"] = (checks.sim_overhead_pct, "%")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    failed_checks = [check for check in checks.checks if not check.ok]
    attempted = len(loop.times) + len(checks.checks)
    failed = len(loop.failures) + len(failed_checks)
    for line in report:
        print("# " + line)
    for check in checks.checks:
        print(f"# check {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    for failure in loop.failures[:5]:
        print("# call failure: " + failure.strip().replace("\n", " | "))
    print(f"# failed_frac {failed / attempted:.6f} ({failed} of {attempted} operations and checks)")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("paper", "tiny"),
        default="paper",
        help="input sizes; 'tiny' is for the benchmark's self-test only",
    )
    args = parser.parse_args(argv)
    _load_program()
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
