"""The NumPy kernel programs: one vectorised program per kernel primitive.

A program is compiled from one or more specs sharing an op and a table
shape (one spec for a solo run, a fleet bucket's specs otherwise); every
table is stacked along a *member* axis.  ``decide(state_index, times,
members)`` answers one lockstep invocation for every deciding lane:
``members`` is a scalar member index when one member owns every lane (a
solo run passes ``0``, so tables are indexed once instead of gathered) or
one index per lane.  A one-member program views its spec's arrays and
copies nothing.

``lookup`` and ``relaxation`` share one interval program: per-state sorted
breakpoints plus one ``(row, steps, late)`` answer per interval between
them (:func:`~repro.core.kernelspec.relaxation_intervals`; a lookup's
boundaries are its breakpoints and its answers are state-independent).  A
decision counts the lane's breakpoints strictly below ``t`` — one
``searchsorted`` for a scalar member, a ``<`` count over the lane's member
row otherwise — and takes each answer at that count.  The other programs
perform every operation element-wise per lane with that lane's member's
own operands, in the scalar manager's operation order.  Either way each
lane gets exactly the scalar
:meth:`~repro.core.manager.QualityManager.decide` answer, so outcomes are
bit-identical to the scalar loop.  Stateful primitives (``skip``/
``feedback``) keep per-lane state vectors and re-initialise them when a
batch starts deciding at state 0.

Programs declare ``one_step`` when every answer is one step (``lookup``,
``skip``, ``feedback``, and ``constant`` consulted at every action): the
lockstep loop then lets every lane decide at every action with no window
bookkeeping.  Results may be scalars wherever a value is the same for every
lane; callers broadcast them against ``times``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.kernelspec import KernelSpec, lookup_answers, quality_answers

__all__ = ["NumpyKernelBackend"]


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


def _stack_states(specs: Sequence[KernelSpec], name: str) -> np.ndarray:
    """A ``(states, ...)`` table across members: ``(states, n_members, ...)``.

    One member's table is viewed, never copied.
    """
    if len(specs) == 1:
        return specs[0].tables[name][:, None]
    return np.stack([spec.tables[name] for spec in specs], axis=1)


class _ConstantProgram:
    """``constant``: fixed row; one consultation per action or per cycle."""

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._rows = _stack(specs, "row", np.intp)
        self._consult = _stack(specs, "consult", bool)
        self._consult_all = bool(self._consult.all())
        self.one_step = self._consult_all
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


class _IntervalProgram:
    """``lookup``/``relaxation``: one breakpoint search, one take per answer.

    Breakpoints stack to ``(states, members, K)`` and answers to ``(states,
    members, K + 1)``; a lookup's answers are one state-independent row,
    broadcast (not copied) to that shape.  Late flags are answered only when
    the specs charge a distinct late work record.
    """

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        if specs[0].op == "relaxation":
            self._breakpoints = _stack_states(specs, "breakpoints")
            self._rows = _stack_states(specs, "rows")
            self._steps = _stack_states(specs, "steps")
            late = _stack_states(specs, "late")
            self.one_step = False
        else:
            self._breakpoints = _stack_states(specs, "boundaries")
            rows, late = lookup_answers(int(specs[0].n_levels))
            shape = self._breakpoints.shape[:2] + rows.shape
            self._rows = np.broadcast_to(rows, shape)
            late = np.broadcast_to(late, shape)
            self._steps = None
            self.one_step = True
        self._late = late if specs[0].late_work is not None else None

    def decide(self, state_index: int, times: np.ndarray, members):
        if isinstance(members, np.ndarray):  # one member per lane: count its row
            counts = (self._breakpoints[state_index, members] < times[:, None]).sum(axis=1)
            index = (state_index, members, counts)

            def answer(table):
                return table[index]

        else:  # one member: search its row, take from its answer rows (views)
            cell = (state_index, members)
            counts = self._breakpoints[cell].searchsorted(times)

            def answer(table):
                return table[cell].take(counts)

        steps = 1 if self._steps is None else answer(self._steps)
        late = None if self._late is None else answer(self._late)
        return answer(self._rows), steps, late


class _AffineProgram:
    """``affine``: interval lookup + affine bound evaluation per step count.

    Mirrors :meth:`~repro.extensions.linear_approx.LinearRelaxationTable.bounds`:
    ``upper = u_slope * i + u_intercept``; a non-finite lower intercept means
    the lower bound is ``-inf``; states past ``valid_until[r]`` have an empty
    region.  Coefficients stack to ``(steps, levels, members)``.
    """

    one_step = False

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
        first = (_lanes(self._boundaries[state_index], members) < times).sum(axis=0)
        rows, late = quality_answers(first, self._n_levels)
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
        # the largest containing step (the scalar scan's last hit), else 1
        steps = np.where(contained, _lanes(self._steps, members), 1).max(axis=0)
        steps[late] = 1
        return rows, steps, late


class _SkipProgram:
    """``skip``: per-lane countdown + average-time deadline projections.

    A ``j < counts`` mask reproduces each member's own projection-loop
    length; the countdown vector re-initialises at state 0 (the scalar
    manager's ``reset()`` per cycle).
    """

    one_step = True

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

    one_step = True

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
    "lookup": _IntervalProgram,
    "relaxation": _IntervalProgram,
    "affine": _AffineProgram,
    "skip": _SkipProgram,
    "feedback": _FeedbackProgram,
}


class NumpyKernelBackend:
    """The program compiler: every primitive as vectorised NumPy."""

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
