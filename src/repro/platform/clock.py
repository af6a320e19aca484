"""Virtual real-time clock.

The implementation technique of the paper requires "platforms providing
access to accurate real-time clocks at low overhead" (Conclusion) — the iPod
was chosen precisely because it has a reliable real-time clock.  The virtual
clock models the two imperfections a real clock introduces into the control
loop:

* *granularity* — the clock only advances in ticks, so the Quality Manager
  observes a quantised (floored) version of the true elapsed time;
* *read overhead* — each clock read costs a small amount of time.

Both default to zero (an ideal clock).  A run on a machine reads the clock
once per manager invocation, and the read cost is charged with the manager's
overhead.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """A settable virtual clock with optional granularity and read cost.

    Parameters
    ----------
    granularity:
        Tick size of the clock; reads are floored to a multiple of it.
        ``0`` means a perfectly continuous clock.
    read_overhead:
        Time consumed by each read (charged with the manager's overhead).
    """

    __slots__ = ("_now", "_granularity", "_read_overhead", "_reads")

    def __init__(self, *, granularity: float = 0.0, read_overhead: float = 0.0) -> None:
        if granularity < 0.0:
            raise ValueError(f"clock granularity must be >= 0, got {granularity}")
        if read_overhead < 0.0:
            raise ValueError(f"clock read overhead must be >= 0, got {read_overhead}")
        self._now = 0.0
        self._granularity = float(granularity)
        self._read_overhead = float(read_overhead)
        self._reads = 0

    @property
    def granularity(self) -> float:
        """Tick size of the clock (0 for a continuous clock)."""
        return self._granularity

    @property
    def read_overhead(self) -> float:
        """Cost of one clock read."""
        return self._read_overhead

    @property
    def reads(self) -> int:
        """Number of reads performed since the last reset."""
        return self._reads

    @property
    def now(self) -> float:
        """The true (un-quantised) current time."""
        return self._now

    def reset(self) -> None:
        """Restart the clock at zero (new cycle)."""
        self._now = 0.0
        self._reads = 0

    def advance(self, duration: float) -> None:
        """Let ``duration`` time units pass."""
        if duration < 0.0:
            raise ValueError(f"cannot advance the clock by a negative duration {duration}")
        self._now += duration

    def read(self) -> float:
        """Read the clock as the software would see it.

        The returned value is quantised to the clock granularity.  The read
        overhead is *not* applied here (the run charges it explicitly so it
        shows up in the overhead accounting).
        """
        self._reads += 1
        if self._granularity <= 0.0:
            return self._now
        ticks = int(self._now / self._granularity)
        return ticks * self._granularity
