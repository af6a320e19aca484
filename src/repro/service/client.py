"""Async fan-in: await hundreds of concurrent sweeps from one process.

:meth:`RemoteSweepExecutor.stream` is a blocking generator — one plan, one
caller, one busy loop.  A service frontend needs the opposite shape: many
small sweeps in flight at once, each awaited independently, all multiplexed
over *one* spool scan.  :class:`ServiceClient` provides that:

* :meth:`ServiceClient.submit` builds the sweep plan off-loop (in a
  thread), enqueues it through a :class:`~repro.service.queue.\
  QueuedSweepExecutor` (so priorities, tenant quotas and fairness govern
  dispatch), and returns a :class:`SweepHandle` — an awaitable that
  resolves to the sweep's :class:`~repro.api.results.BatchResult`;
* a single background **poller thread** serves every in-flight sweep: one
  queue pump plus one done/requeue scan per plan per tick, resolving
  futures back onto the event loop via ``call_soon_threadsafe``.  One
  process can hold hundreds of concurrent sweeps with one scanning thread
  and zero busy event-loop tasks;
* back-pressure is layered: the per-tenant *quota* bounds dispatched units
  fleet-side, and ``max_in_flight`` bounds concurrent sweeps client-side
  (``submit`` awaits a slot).

Determinism is inherited from the transport: for fixed seeds every sweep's
result is bit-identical to its serial baseline, regardless of concurrency,
worker count, or completion order.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Any, Iterable

from repro.api.results import BatchResult, RunResult
from repro.runtime.pool import SweepExecutionError, collect_outcome
from repro.runtime.remote import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_REQUEUES,
    DEFAULT_POLL_INTERVAL,
)

from .queue import QueuedSweepExecutor

__all__ = ["ServiceClient", "SweepHandle"]


class SweepHandle:
    """An awaitable in-flight sweep; resolves to a
    :class:`~repro.api.results.BatchResult` (or raises its failure)."""

    def __init__(self, plan_id: str | None, future: "asyncio.Future[BatchResult]") -> None:
        self.plan_id = plan_id
        self._future = future

    def done(self) -> bool:
        """True once the sweep resolved (result or failure)."""
        return self._future.done()

    def __await__(self):
        return self._future.__await__()


class _ActiveSweep:
    """Poller-side bookkeeping of one submitted, unresolved sweep."""

    def __init__(self, plan: Any, plan_id: str, future: Any, loop: Any, deadline: float | None) -> None:
        self.plan = plan
        self.plan_id = plan_id
        self.future = future
        self.loop = loop
        self.deadline = deadline
        self.outstanding = {unit.index for unit in plan.units}
        self.records: list[tuple] = []


class ServiceClient:
    """Submit sweeps to a service spool and await their results.

    Parameters mirror the queue executor: ``queue``/``tenant``/``priority``
    tag this client's submissions, ``quota``/``quotas`` bound in-flight
    units per tenant at dispatch time, and ``lease_timeout`` /
    ``poll_interval`` / ``max_requeues`` keep their spool-transport
    meaning.  ``timeout`` bounds each sweep's wall clock (``None`` waits
    forever); ``max_in_flight`` bounds concurrent *sweeps* held by this
    client (``submit`` awaits a free slot); ``pump=False`` leaves dispatch
    to an external pump (the service daemon).

    The client never spawns workers — attach ``repro service start`` or
    ``repro worker --resident`` processes to the spool.  Use as an async
    context manager, or call :meth:`aclose` when done.
    """

    def __init__(
        self,
        spool: str | os.PathLike,
        *,
        queue: str = "default",
        tenant: str = "default",
        priority: int = 0,
        quota: int | None = None,
        quotas: dict[str, int | None] | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        timeout: float | None = None,
        max_in_flight: int | None = None,
        pump: bool = True,
    ) -> None:
        if timeout is not None and timeout <= 0.0:
            raise ValueError(f"timeout must be > 0 (or None), got {timeout}")
        if max_in_flight is not None and int(max_in_flight) < 1:
            raise ValueError(f"max_in_flight must be >= 1 (or None), got {max_in_flight}")
        # the executor's own pump is off: the poller thread is the single
        # dispatcher here, which is what makes quotas strict
        self._executor = QueuedSweepExecutor(
            spool,
            queue=queue,
            tenant=tenant,
            priority=priority,
            quota=quota,
            quotas=quotas,
            pump=False,
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            max_requeues=max_requeues,
        )
        self._poll = float(poll_interval)
        self._timeout = timeout
        self._pump = bool(pump)
        self._max_in_flight = int(max_in_flight) if max_in_flight is not None else None
        self._semaphore: asyncio.Semaphore | None = None
        self._active: dict[str, _ActiveSweep] = {}
        self._lock = threading.Lock()
        self._poller: threading.Thread | None = None
        self._closed = False

    @property
    def executor(self) -> QueuedSweepExecutor:
        """The underlying queue executor (spool, queue, tenant, quota)."""
        return self._executor

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        session: Any,
        scenarios: Iterable[Any],
        *,
        scenario_transport: str | None = None,
    ) -> SweepHandle:
        """Plan and enqueue one sweep; returns an awaitable handle.

        ``session`` is a configured :class:`~repro.api.session.Session`;
        ``scenarios`` is exactly what :meth:`Session.run_many` accepts.
        The plan is built and spooled in a worker thread (pickling payloads
        and writing unit files must not block the event loop).  The handle
        resolves to the sweep's :class:`~repro.api.results.BatchResult`;
        failed units raise a collective
        :class:`~repro.runtime.pool.SweepExecutionError` on await.
        """
        if self._closed:
            raise RuntimeError("ServiceClient is closed")
        if self._max_in_flight is not None and self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self._max_in_flight)
        if self._semaphore is not None:
            await self._semaphore.acquire()
        loop = asyncio.get_running_loop()
        future: asyncio.Future[BatchResult] = loop.create_future()
        try:
            plan, plan_id = await asyncio.to_thread(
                self._submit_sync, session, list(scenarios), scenario_transport
            )
        except BaseException:
            self._release_slot()
            raise
        if plan_id is None:  # empty sweep: resolve immediately, nothing spooled
            future.set_result(BatchResult(runs={}))
            self._release_slot()
            return SweepHandle(None, future)
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        sweep = _ActiveSweep(plan, plan_id, future, loop, deadline)
        with self._lock:
            self._active[plan_id] = sweep
            self._ensure_poller()
        return SweepHandle(plan_id, future)

    def _submit_sync(
        self, session: Any, scenarios: list, transport: str | None
    ) -> tuple[Any, str | None]:
        plan = session.sweep_plan(scenarios, scenario_transport=transport)
        if not plan.units:
            return plan, None
        return plan, self._executor.submit(plan)

    async def gather(self, *handles: SweepHandle) -> list[BatchResult]:
        """Await several handles together (order preserved)."""
        return list(await asyncio.gather(*handles))

    # ------------------------------------------------------------------ #
    # the poller thread: one scan serves every in-flight sweep
    # ------------------------------------------------------------------ #
    def _ensure_poller(self) -> None:
        # caller holds self._lock
        if self._poller is None:
            self._poller = threading.Thread(
                target=self._poll_loop, name="repro-service-client", daemon=True
            )
            self._poller.start()

    def _poll_loop(self) -> None:
        while True:
            with self._lock:
                if not self._active:
                    self._poller = None
                    return
                active = list(self._active.values())
            if self._pump:
                try:
                    self._executor.queue.pump()
                except OSError:  # transient FS hiccup: next tick retries
                    pass
            for sweep in active:
                try:
                    drained = self._executor._drain_done(sweep.plan_id, sweep.outstanding)
                    drained.extend(
                        self._executor._requeue_expired(sweep.plan_id, sweep.outstanding)
                    )
                except OSError:  # transient FS hiccup: next tick retries
                    continue
                sweep.records.extend(drained)
                if not sweep.outstanding:
                    self._settle(sweep)
                elif sweep.deadline is not None and time.monotonic() > sweep.deadline:
                    self._settle(
                        sweep,
                        error=SweepExecutionError(
                            (),
                            f"service sweep {sweep.plan_id} timed out after "
                            f"{self._timeout}s with {len(sweep.outstanding)} "
                            f"unit(s) outstanding — are workers attached to "
                            f"the spool ({self._executor.spool.root})?",
                        ),
                    )
            time.sleep(self._poll)

    def _settle(self, sweep: _ActiveSweep, *, error: BaseException | None = None) -> None:
        """Withdraw one sweep from the spool and resolve its future."""
        with self._lock:
            if self._active.pop(sweep.plan_id, None) is None:
                return  # already settled (aclose raced us)
        try:
            self._executor._cleanup(sweep.plan_id)
        except OSError:
            pass  # a leftover file is swept by a later cleanup
        result: BatchResult | None = None
        if error is None:
            try:
                outcome = collect_outcome(sweep.plan, sweep.records, on_error="raise")
                result = self._batch_result(sweep.plan, outcome)
            except Exception as failure:  # unit failures, corrupt records
                error = failure
        self._resolve(sweep, result, error)

    def _resolve(
        self, sweep: _ActiveSweep, result: BatchResult | None, error: BaseException | None
    ) -> None:
        def settle() -> None:
            if not sweep.future.done():
                if error is not None:
                    sweep.future.set_exception(error)
                else:
                    sweep.future.set_result(result)
            self._release_slot()

        try:
            sweep.loop.call_soon_threadsafe(settle)
        except RuntimeError:  # loop already closed: nobody is awaiting
            pass

    def _release_slot(self) -> None:
        if self._semaphore is not None:
            self._semaphore.release()

    def _batch_result(self, plan: Any, outcome: Any) -> BatchResult:
        payload = plan.payload
        machine_name = payload.machine.name if payload.machine is not None else None
        runs: dict[str, RunResult] = {}
        for unit in plan.units:
            outcomes, summary = outcome.outcomes[unit.index]
            runs[unit.label] = RunResult(
                manager_key=unit.manager.key,
                manager_name=outcome.manager_names[unit.index],
                outcomes=outcomes,
                deadlines=payload.deadlines,
                seed=unit.seed,
                machine_name=machine_name,
                summary=summary,
            )
        return BatchResult(runs=runs)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    async def aclose(self) -> None:
        """Fail any unresolved sweeps, withdraw them, stop the poller."""
        self._closed = True
        with self._lock:
            abandoned = list(self._active.values())
            self._active.clear()
            poller = self._poller
        for sweep in abandoned:
            try:
                self._executor._cleanup(sweep.plan_id)
            except OSError:
                pass
            self._resolve(
                sweep,
                None,
                SweepExecutionError((), "service client closed with sweeps in flight"),
            )
        if poller is not None:
            await asyncio.to_thread(poller.join, self._poll * 10 + 5.0)

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
