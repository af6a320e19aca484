"""The NumPy backend: one vectorised program per kernel primitive.

A program is compiled from one or more specs sharing an op and a table
shape (one spec for a solo run, a fleet bucket's specs otherwise); every
table is stacked along a trailing *member* axis.  ``decide(state_index,
times, members)`` answers one lockstep invocation for every deciding lane:
``members`` is a scalar member index when one member owns every lane (a
solo run passes ``0``, so tables broadcast instead of being gathered) or
one index per lane.

Every operation is element-wise per lane with that lane's member's own
operands, in the scalar manager's operation order, so each lane performs
the exact floating-point sequence of the scalar
:meth:`~repro.core.manager.QualityManager.decide` — outcomes are
bit-identical to the scalar loop by construction.  Stateful primitives
(``skip``/``feedback``) keep per-lane state vectors and re-initialise them
when a batch starts deciding at state 0 (their specs always answer
``steps=1``, so every lane decides at every state and the batch width is
constant).

Results may be scalars wherever a value is the same for every lane; callers
broadcast them against ``times``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.kernelspec import KernelSpec

__all__ = ["NumpyKernelBackend", "choose_rows"]


def _stack(
    specs: Sequence[KernelSpec], name: str, dtype=None, per_step: bool = False
) -> np.ndarray:
    """One table across members, the member axis last: ``(*shape, n_members)``.

    A ``per_step`` table is a tuple with one array per relaxation step; the
    step axis goes in front of each array's last axis, so ``(states,
    levels)`` bounds become ``(states, steps, levels, members)``.
    """
    tables = [
        np.stack(spec.tables[name], axis=-2) if per_step else spec.tables[name]
        for spec in specs
    ]
    return np.stack([np.asarray(table, dtype=dtype) for table in tables], axis=-1)


def _lanes(table: np.ndarray, members: int | np.ndarray) -> np.ndarray:
    """``table[..., members]`` with a trailing lane axis: ``(..., 1)`` or ``(..., n)``."""
    return table.take(members, axis=-1).reshape(table.shape[:-1] + (-1,))


def _gather(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per-lane ``table[..., row, member]``; ``cells`` is ``row * n_members + member``."""
    return table.reshape(table.shape[:-2] + (-1,)).take(cells, axis=-1)


def choose_rows(
    boundaries: np.ndarray,
    n_levels: int,
    state_index: int,
    times: np.ndarray,
    members: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Quality rows by interval lookup: ``max { q | t^D(s_i, q) >= t }``.

    ``boundaries`` is ``(states, levels, members)`` and ascending along the
    level axis, so the eligible levels form a suffix whose first entry
    follows the count of boundaries strictly below ``t`` — an exact float
    comparison per lane, counted across the level axis.  Returns ``(rows,
    late)`` where late lanes (no eligible level) fall back to row 0 — the
    minimal quality, exactly
    :meth:`~repro.core.tdtable.TDTable.choose_quality`'s best-effort rule.
    """
    first = (_lanes(boundaries[state_index], members) < times).sum(axis=0)
    late = first == n_levels
    rows = np.maximum((n_levels - 1) - first, 0)
    return rows, late


def _max_contained_step(
    steps: np.ndarray, contained: np.ndarray, late: np.ndarray
) -> np.ndarray:
    """The largest step whose region contains each lane, else 1.

    ``contained`` is ``(steps, lanes)``.  Steps are ascending positive
    integers, so the maximum equals the scalar scan's last hit
    (:meth:`~repro.core.relaxation.RelaxationTable.max_relaxation`); late
    lanes never relax.
    """
    best = np.where(contained, steps, 1).max(axis=0)
    best[late] = 1
    return best


class _ConstantProgram:
    """``constant``: fixed row; one consultation per action or per cycle."""

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._rows = _stack(specs, "row", np.intp)
        self._consult = _stack(specs, "consult", bool)
        self._consult_all = bool(self._consult.all())
        # a falsy horizon (None or 0) means "never consult again"
        self._horizon = np.array(
            [int(spec.tables["horizon"] or 0) for spec in specs], dtype=np.int64
        )

    def decide(self, state_index: int, times: np.ndarray, members):
        rows = self._rows[members]
        if self._consult_all:
            return rows, 1, None
        horizon = self._horizon[members]
        remaining = np.where(horizon != 0, horizon - state_index, 10**9)
        steps = np.where(self._consult[members], 1, np.maximum(1, remaining))
        return rows, steps, None


class _LookupProgram:
    """``lookup``: one interval lookup per invocation."""

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._boundaries = _stack(specs, "boundaries")
        self._n_levels = int(specs[0].n_levels)

    def decide(self, state_index: int, times: np.ndarray, members):
        rows, late = choose_rows(
            self._boundaries, self._n_levels, state_index, times, members
        )
        return rows, 1, late


class _RelaxationProgram:
    """``relaxation``: interval lookup + stored ``R^r_q`` bound comparisons.

    ``lower``/``upper`` stack to ``(states, steps, levels, members)``, so one
    gather fetches every step's bounds for every lane.
    """

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._boundaries = _stack(specs, "boundaries")
        self._n_levels = int(specs[0].n_levels)
        self._n_members = len(specs)
        self._steps = _stack(specs, "steps")
        self._lower = _stack(specs, "lower", per_step=True)
        self._upper = _stack(specs, "upper", per_step=True)

    def decide(self, state_index: int, times: np.ndarray, members):
        rows, late = choose_rows(
            self._boundaries, self._n_levels, state_index, times, members
        )
        cells = rows * self._n_members + members
        low = _gather(self._lower[state_index], cells)
        high = _gather(self._upper[state_index], cells)
        contained = (low < times) & (times <= high)
        steps = _max_contained_step(_lanes(self._steps, members), contained, late)
        return rows, steps, late


class _AffineProgram:
    """``affine``: interval lookup + affine bound evaluation per step count.

    Mirrors :meth:`~repro.extensions.linear_approx.LinearRelaxationTable.bounds`:
    ``upper = u_slope * i + u_intercept``; a non-finite lower intercept means
    the lower bound is ``-inf``; states past ``valid_until[r]`` have an empty
    region.  Coefficients stack to ``(steps, levels, members)``.
    """

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._boundaries = _stack(specs, "boundaries")
        self._n_levels = int(specs[0].n_levels)
        self._n_members = len(specs)
        self._steps = _stack(specs, "steps")
        self._valid_until = _stack(specs, "valid_until")
        self._u_slope = _stack(specs, "u_slope", per_step=True)
        self._u_intercept = _stack(specs, "u_intercept", per_step=True)
        self._l_slope = _stack(specs, "l_slope", per_step=True)
        self._l_intercept = _stack(specs, "l_intercept", per_step=True)

    def decide(self, state_index: int, times: np.ndarray, members):
        rows, late = choose_rows(
            self._boundaries, self._n_levels, state_index, times, members
        )
        cells = rows * self._n_members + members
        upper = (
            _gather(self._u_slope, cells) * state_index
            + _gather(self._u_intercept, cells)
        )
        l_intercept = _gather(self._l_intercept, cells)
        low_raw = _gather(self._l_slope, cells) * state_index + l_intercept
        low = np.where(np.isfinite(l_intercept), low_raw, -np.inf)
        valid = state_index <= _lanes(self._valid_until, members)
        contained = valid & (low < times) & (times <= upper)
        steps = _max_contained_step(_lanes(self._steps, members), contained, late)
        return rows, steps, late


class _SkipProgram:
    """``skip``: per-lane countdown + average-time deadline projections.

    A ``j < counts`` mask reproduces each member's own projection-loop
    length; the countdown vector re-initialises at state 0 (the scalar
    manager's ``reset()`` per cycle).
    """

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._nominal_row = _stack(specs, "nominal_row", np.intp)
        self._window = _stack(specs, "window", np.int64)
        self._costs = _stack(specs, "costs")
        self._deadlines = _stack(specs, "deadlines")
        self._counts = _stack(specs, "counts")
        self._max_counts = self._counts.max(axis=-1)
        self._skip_remaining: np.ndarray | None = None

    def decide(self, state_index: int, times: np.ndarray, members):
        count = times.shape[0]
        if state_index == 0 or self._skip_remaining is None:
            self._skip_remaining = np.zeros(count, dtype=np.int64)
        late = np.zeros(count, dtype=bool)
        counts = self._counts[state_index, members]
        for j in range(int(self._max_counts[state_index])):
            projected = (
                times + self._costs[state_index, j, members]
            ) > self._deadlines[state_index, j, members]
            late |= (j < counts) & projected
        counting = self._skip_remaining > 0
        rows = np.where(counting | late, 0, self._nominal_row[members])
        self._skip_remaining = np.where(
            counting,
            self._skip_remaining - 1,
            np.where(late, self._window[members] - 1, 0),
        )
        return rows, 1, None


class _FeedbackProgram:
    """``feedback``: the PID recurrence over the pre-computed reference schedule.

    Integral/previous-error vectors re-initialise at state 0 (the scalar
    manager's ``reset()`` per cycle); arithmetic order matches the scalar
    ``decide`` exactly, and ``np.rint`` matches Python's banker's rounding
    on float64.
    """

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._expected = _stack(specs, "expected")
        step_scale = _stack(specs, "step_scale", np.float64)
        # members without a positive scale have a zero error term
        self._scaled = step_scale > 0
        self._divisor = np.where(self._scaled, step_scale, 1.0)
        self._kp = _stack(specs, "kp", np.float64)
        self._ki = _stack(specs, "ki", np.float64)
        self._kd = _stack(specs, "kd", np.float64)
        self._reference = _stack(specs, "reference", np.float64)
        self._minimum = _stack(specs, "minimum", np.int64)
        self._maximum = _stack(specs, "maximum", np.int64)
        self._integral: np.ndarray | None = None
        self._previous: np.ndarray | None = None

    def decide(self, state_index: int, times: np.ndarray, members):
        count = times.shape[0]
        if state_index == 0 or self._integral is None:
            self._integral = np.zeros(count, dtype=np.float64)
            self._previous = np.zeros(count, dtype=np.float64)
        error = np.where(
            self._scaled[members],
            (times - self._expected[state_index, members]) / self._divisor[members],
            0.0,
        )
        self._integral += error
        derivative = error - self._previous
        self._previous = error
        correction = (
            self._kp[members] * error
            + self._ki[members] * self._integral
            + self._kd[members] * derivative
        )
        minimum = self._minimum[members]
        level = np.clip(
            np.rint(self._reference[members] - correction),
            minimum,
            self._maximum[members],
        )
        rows = (level.astype(np.int64) - minimum).astype(np.intp)
        return rows, 1, None


_PROGRAMS = {
    "constant": _ConstantProgram,
    "lookup": _LookupProgram,
    "relaxation": _RelaxationProgram,
    "affine": _AffineProgram,
    "skip": _SkipProgram,
    "feedback": _FeedbackProgram,
}


class NumpyKernelBackend:
    """The default backend: every primitive as vectorised NumPy."""

    name = "numpy"

    def compile(self, specs: Sequence[KernelSpec]):
        """One program over ``specs`` (same op and table shape), member-stacked.

        Each call builds a fresh instance: stateful primitives own their
        per-lane state.
        """
        try:
            program = _PROGRAMS[specs[0].op]
        except KeyError:  # pragma: no cover - specs validate their op
            raise ValueError(f"numpy backend cannot execute primitive {specs[0].op!r}")
        return program(specs)
