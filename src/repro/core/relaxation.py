"""Control relaxation regions (Proposition 3) and the relaxation manager.

A control relaxation region ``R^r_q`` contains the states from which the
Quality Manager is *guaranteed* to choose quality ``q`` for the next ``r``
actions, whatever the actual execution times (bounded by ``C^wc``).  From such
a state the manager can safely be switched off for ``r`` steps — the chosen
qualities are unchanged, only the management overhead disappears.

Proposition 3 characterises the region at state index ``i`` as an interval of
actual times:

* upper bound ``t^{D,r}(s_i, q) = min_{i <= j <= i+r-1} ( t^D(s_j, q) - C^wc(a_{i+1}..a_j, q) )``;
* lower bound ``t^D(s_{i+r-1}, q+1)`` for ``q < q_max`` (``-inf`` for ``q_max``).

This module pre-computes both bounds for a set ``ρ`` of candidate relaxation
step counts (the paper uses ``ρ = {1, 10, 20, 30, 40, 50}``), giving the
"Quality Manager using control relaxation regions" of §4.1 whose table holds
``2 * |A| * |Q| * |ρ|`` integers (99,876 for the paper's encoder).

The lower bound implemented here is ``max_{i <= j <= i+r-1} t^D(s_j, q+1)``,
which is the condition actually required by equation (3) of the paper; it
reduces to the paper's ``t^D(s_{i+r-1}, q+1)`` whenever ``t^D`` is
non-decreasing along the cycle (true for the mixed policy), and remains
correct for policies where it is not.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .manager import (
    CachedLowering,
    Decision,
    ManagerWork,
    MemoryFootprint,
    QualityManager,
)
from .regions import QualityRegionTable
from .tdtable import TDTable
from .types import QualitySet

__all__ = ["RelaxationTable", "RelaxationQualityManager", "DEFAULT_RELAXATION_STEPS"]

#: the paper's relaxation step set ``ρ`` for the MPEG encoder experiment
DEFAULT_RELAXATION_STEPS: tuple[int, ...] = (1, 10, 20, 30, 40, 50)


def _window_min(values: np.ndarray, window: int) -> np.ndarray:
    """Minimum of ``values[i : i + window]`` for every valid start ``i``.

    Returns an array of length ``len(values) - window + 1``.
    """
    if window == 1:
        return values.copy()
    return np.lib.stride_tricks.sliding_window_view(values, window).min(axis=1)


def _window_max(values: np.ndarray, window: int) -> np.ndarray:
    """Maximum of ``values[i : i + window]`` for every valid start ``i``."""
    if window == 1:
        return values.copy()
    return np.lib.stride_tricks.sliding_window_view(values, window).max(axis=1)


class RelaxationTable:
    """Pre-computed control relaxation bounds for a set of step counts ``ρ``.

    For every ``r`` in ``ρ``, quality level ``q`` and state index ``i`` the
    table stores the interval ``( lower_r(s_i, q), upper_r(s_i, q) ]`` such
    that ``(s_i, t_i) ∈ R^r_q`` iff ``t_i`` falls inside it.  States with
    fewer than ``r`` remaining actions are marked unreachable (empty
    interval).
    """

    __slots__ = ("_td", "_steps", "_upper", "_lower")

    def __init__(self, td_table: TDTable, steps: Sequence[int] = DEFAULT_RELAXATION_STEPS) -> None:
        cleaned = sorted({int(r) for r in steps})
        if not cleaned or cleaned[0] < 1:
            raise ValueError(f"relaxation steps must be positive integers, got {steps!r}")
        self._td = td_table
        self._steps = tuple(cleaned)
        self._upper: dict[int, np.ndarray] = {}
        self._lower: dict[int, np.ndarray] = {}
        self._precompute()

    @classmethod
    def from_arrays(
        cls,
        td_table: TDTable,
        steps: Sequence[int],
        upper: Sequence[np.ndarray],
        lower: Sequence[np.ndarray],
    ) -> "RelaxationTable":
        """Rehydrate a table from already-computed bounds, skipping the precompute.

        ``upper``/``lower`` hold one ``(n_levels, n_states)`` array per step of
        ``steps`` (ascending order, no duplicates) — exactly what
        :attr:`steps` ordering produces.  This is the deserialisation path of
        :mod:`repro.runtime.artifacts`; the arrays are trusted to be the
        output of a previous :meth:`_precompute`.
        """
        cleaned = tuple(sorted({int(r) for r in steps}))
        if not cleaned or cleaned[0] < 1:
            raise ValueError(f"relaxation steps must be positive integers, got {steps!r}")
        if tuple(int(r) for r in steps) != cleaned:
            # the bounds arrays are paired positionally — accepting any other
            # ordering would silently attach step r's bounds to a different r
            raise ValueError(f"relaxation steps must be unique and ascending, got {steps!r}")
        if len(upper) != len(cleaned) or len(lower) != len(cleaned):
            raise ValueError(
                f"expected one upper and one lower array per step ({len(cleaned)}), "
                f"got {len(upper)} and {len(lower)}"
            )
        expected = (td_table.n_levels, td_table.n_states)
        table = cls.__new__(cls)
        table._td = td_table
        table._steps = cleaned
        table._upper = {}
        table._lower = {}
        for position, r in enumerate(cleaned):
            for name, source, store in (
                ("upper", upper[position], table._upper),
                ("lower", lower[position], table._lower),
            ):
                array = np.array(source, dtype=np.float64)
                if array.shape != expected:
                    raise ValueError(
                        f"{name} bounds for step {r} must have shape {expected}, "
                        f"got {array.shape}"
                    )
                array.setflags(write=False)
                store[r] = array
        return table

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _precompute(self) -> None:
        td = self._td.values  # (n_levels, n_states)
        system = self._td.system
        n_levels, n_states = td.shape
        wc_prefix = system.worst_case.prefix  # (n_levels, n_states + 1)

        for r in self._steps:
            upper = np.full((n_levels, n_states), -np.inf, dtype=np.float64)
            lower = np.full((n_levels, n_states), np.inf, dtype=np.float64)
            if r > n_states:
                # no state has r remaining actions: the region is empty
                self._upper[r] = upper
                self._lower[r] = lower
                continue
            valid = n_states - r + 1  # states 0 .. n_states - r
            for qi in range(n_levels):
                # upper bound: min_{j in [i, i+r-1]} ( t^D(s_j, q) - Cwc(a_{i+1}..a_j, q) )
                #            = min_j ( t^D(s_j, q) - P^wc[q, j] ) + P^wc[q, i]
                shifted = td[qi] - wc_prefix[qi, :n_states]
                upper[qi, :valid] = _window_min(shifted, r) + wc_prefix[qi, :valid]
                # lower bound: max_{j in [i, i+r-1]} t^D(s_j, q+1), -inf at q_max
                if qi + 1 < n_levels:
                    lower[qi, :valid] = _window_max(td[qi + 1], r)
                else:
                    lower[qi, :valid] = -np.inf
            upper.setflags(write=False)
            lower.setflags(write=False)
            self._upper[r] = upper
            self._lower[r] = lower

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def td_table(self) -> TDTable:
        """The underlying ``t^D`` table."""
        return self._td

    @property
    def steps(self) -> tuple[int, ...]:
        """The relaxation step set ``ρ`` (sorted ascending)."""
        return self._steps

    @property
    def qualities(self) -> QualitySet:
        """Quality set of the underlying system."""
        return self._td.system.qualities

    @property
    def n_states(self) -> int:
        """Number of states with a next action."""
        return self._td.n_states

    def upper_bounds(self, r: int) -> np.ndarray:
        """Read-only ``(n_levels, n_states)`` upper bounds ``t^{D,r}`` for one step.

        Raw material of the vectorised decision kernels
        (:mod:`repro.core.engine`); ``-inf`` marks unreachable states.
        """
        if r not in self._upper:
            raise KeyError(f"relaxation step count {r} not in ρ = {self._steps}")
        return self._upper[r]

    def lower_bounds(self, r: int) -> np.ndarray:
        """Read-only ``(n_levels, n_states)`` lower bounds for one step count."""
        if r not in self._lower:
            raise KeyError(f"relaxation step count {r} not in ρ = {self._steps}")
        return self._lower[r]

    def bounds(self, state_index: int, quality: int, r: int) -> tuple[float, float]:
        """``(lower, upper)`` bounds of ``R^r_q`` at state ``s_i``.

        Membership is ``lower < t_i <= upper``; an empty interval (upper
        ``-inf``) means the region is unreachable at this state (fewer than
        ``r`` actions remain).
        """
        if r not in self._upper:
            raise KeyError(f"relaxation step count {r} not in ρ = {self._steps}")
        if not 0 <= state_index < self.n_states:
            raise IndexError(
                f"state index {state_index} out of range 0..{self.n_states - 1}"
            )
        qi = self.qualities.index_of(quality)
        return (
            float(self._lower[r][qi, state_index]),
            float(self._upper[r][qi, state_index]),
        )

    def contains(self, state_index: int, time: float, quality: int, r: int) -> bool:
        """True when ``(s_i, t_i)`` belongs to the control relaxation region ``R^r_q``."""
        lower, upper = self.bounds(state_index, quality, r)
        return lower < time <= upper

    def max_relaxation(self, state_index: int, time: float, quality: int) -> int:
        """Largest ``r`` in ``ρ`` whose region contains the state, else 1.

        This is the number of steps the manager can be switched off for from
        ``(s_i, t_i)`` when it has just chosen quality ``q``.
        """
        qi = self.qualities.index_of(quality)
        best = 1
        for r in self._steps:
            if r <= best:
                continue
            lower = self._lower[r][qi, state_index]
            upper = self._upper[r][qi, state_index]
            if lower < time <= upper:
                best = r
        return best

    def memory_footprint(self) -> MemoryFootprint:
        """Table storage: two entries per (state, level, step) — ``2 |A| |Q| |ρ|``."""
        return MemoryFootprint(
            integers=2 * self.n_states * len(self.qualities) * len(self._steps)
        )


class RelaxationQualityManager(CachedLowering, QualityManager):
    """Symbolic Quality Manager using quality regions *and* control relaxation.

    On each invocation it (1) determines the quality level from the quality
    regions, exactly like :class:`~repro.core.regions.RegionQualityManager`,
    and (2) looks up the largest relaxation step count ``r ∈ ρ`` whose region
    contains the current state.  The executor then runs the next ``r`` actions
    at that quality without consulting the manager — the chosen qualities are
    provably identical to what the un-relaxed manager would have chosen
    (Proposition 3), so only overhead is removed.  This is the "symbolic —
    control relaxation" manager of Figures 7 and 8.
    """

    name = "relaxation"

    def __init__(
        self,
        regions: QualityRegionTable,
        relaxation: RelaxationTable,
    ) -> None:
        if regions.td_table is not relaxation.td_table and not np.array_equal(
            regions.td_table.values, relaxation.td_table.values
        ):
            raise ValueError(
                "quality regions and relaxation table must be derived from the same t^D table"
            )
        self._regions = regions
        self._relaxation = relaxation

    @property
    def qualities(self) -> QualitySet:
        return self._regions.qualities

    @property
    def regions(self) -> QualityRegionTable:
        """The quality-region table used for the quality choice."""
        return self._regions

    @property
    def relaxation(self) -> RelaxationTable:
        """The control-relaxation table used for the step-count choice."""
        return self._relaxation

    def decide(self, state_index: int, time: float) -> Decision:
        n_levels = len(self.qualities)
        quality = self._regions.region_of(state_index, time)
        if quality is None:
            # late state: best-effort minimal quality, no relaxation
            work = ManagerWork(
                kind=self.name,
                comparisons=n_levels,
                table_lookups=n_levels,
            )
            return Decision(quality=self.qualities.minimum, steps=1, work=work)
        steps = self._relaxation.max_relaxation(state_index, time, quality)
        n_rho = len(self._relaxation.steps)
        work = ManagerWork(
            kind=self.name,
            comparisons=n_levels + 2 * n_rho,
            table_lookups=n_levels + 2 * n_rho,
        )
        return Decision(quality=quality, steps=steps, work=work)

    def _build_spec(self):
        """A ``relaxation`` spec over per-state interval tables.

        The tables (:func:`~repro.core.kernelspec.relaxation_intervals`) are
        built on the first :meth:`lower` and shared by every later run,
        compare and kernel compile reusing this manager; they are dropped
        from pickles and rebuilt on first use (:class:`CachedLowering`).
        """
        from .kernelspec import KernelSpec, ascending_boundaries, relaxation_intervals

        table = self._relaxation
        boundaries = ascending_boundaries(table.td_table.values)
        if boundaries is None:
            return None
        n_levels = len(self.qualities)
        n_rho = len(table.steps)
        intervals = relaxation_intervals(
            boundaries,
            table.steps,
            tuple(table.lower_bounds(r) for r in table.steps),
            tuple(table.upper_bounds(r) for r in table.steps),
        )
        return KernelSpec(
            op="relaxation",
            kind=self.name,
            n_levels=n_levels,
            tables={"boundaries": boundaries, **intervals},
            work=ManagerWork(
                kind=self.name,
                comparisons=n_levels + 2 * n_rho,
                table_lookups=n_levels + 2 * n_rho,
            ),
            late_work=ManagerWork(
                kind=self.name, comparisons=n_levels, table_lookups=n_levels
            ),
        )

    def memory_footprint(self) -> MemoryFootprint:
        """Storage of the relaxation tables (the region bounds are a subset: r=1)."""
        return self._relaxation.memory_footprint()
