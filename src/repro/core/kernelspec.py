"""Declarative kernel specs: the "tables in, kernel out" lowering protocol.

Every :class:`~repro.core.manager.QualityManager` can describe its decision
rule as a :class:`KernelSpec` — pre-computed boundary/bound/coefficient
arrays plus the name of one *primitive operation* from a small closed set —
via :meth:`~repro.core.manager.QualityManager.lower`.  The vectorised engine
(:mod:`repro.core.engine`) never needs to know the manager class: it
compiles the spec into the NumPy program for its primitive and binds
overhead charges and invocation accounting around it.

The primitive ops (:data:`PRIMITIVE_OPS`):

``constant``
    A fixed quality row, optionally consulted once per cycle (the constant
    baseline).
``lookup``
    Searchsorted interval lookup over per-state ascending boundaries — the
    quality regions of Proposition 2.  Covers the region manager and every
    manager whose rule is "last level whose stored time bound is >= t"
    (numeric, safe-only/average-only, elastic).  The boundaries are the
    breakpoints and the answer depends only on the interval index
    (:func:`lookup_answers`), so nothing is built.
``relaxation``
    ``lookup`` plus the relaxation-region bounds (Proposition 3) that pick
    the step count, compiled at lowering into per-state *interval tables*
    (:func:`relaxation_intervals`): sorted breakpoints and one
    ``(row, steps, late)`` answer per interval between them, so a decision
    is one search plus one take per answer.
``affine``
    ``lookup`` plus affine bound evaluation — the linear-approximation
    manager, whose bounds are ``slope * i + intercept`` per (step, level).
``skip``
    Stateful countdown recurrence with per-state deadline projections (the
    skip-over baseline).
``feedback``
    Stateful PID recurrence over a pre-computed reference schedule (the
    feedback baseline).

A spec's ``work`` is either one :class:`~repro.core.manager.ManagerWork`
record (every invocation performs the same abstract work) or a tuple with
one record per state (e.g. the numeric manager's scan shrinks as the cycle
advances); ``late_work`` is the distinct record charged on the late path of
the relaxation-style ops.  :meth:`KernelSpec.relabel` rewrites every record's
``kind`` — delegating wrappers (dvfs, multitask) lower via their inner
manager's spec and relabel it so overhead accounting stays keyed by the
wrapper's reporting name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from repro.obs.metrics import registry as _obs_registry
from repro.obs.state import enabled as _obs_enabled

from .manager import ManagerWork

__all__ = [
    "PRIMITIVE_OPS",
    "KernelSpec",
    "ascending_boundaries",
    "interval_spec",
    "lookup_answers",
    "quality_answers",
    "relaxation_intervals",
]

#: the closed set of primitive operations a spec may name
PRIMITIVE_OPS = ("constant", "lookup", "relaxation", "affine", "skip", "feedback")


@dataclass(frozen=True)
class KernelSpec:
    """One lowered manager: a primitive op plus its pre-computed tables.

    Attributes
    ----------
    op:
        Primitive operation name, one of :data:`PRIMITIVE_OPS`.
    kind:
        The manager's reporting name — the ``kind`` of every work record,
        i.e. the key overhead models account charges under.
    n_levels:
        Number of quality levels (rows are 0-based level indices).
    tables:
        The op's pre-computed arrays and scalars (see the NumPy programs
        for the exact keys each op consumes).
    work:
        One work record for every invocation, or a tuple with one record per
        state index.
    late_work:
        The distinct work record of the late path, for ops that have one
        (``relaxation``/``affine``); ``None`` otherwise.
    """

    op: str
    kind: str
    n_levels: int
    tables: Mapping[str, Any] = field(default_factory=dict)
    work: ManagerWork | tuple[ManagerWork, ...] = ManagerWork(kind="abstract")
    late_work: ManagerWork | None = None

    def __post_init__(self) -> None:
        if self.op not in PRIMITIVE_OPS:
            raise ValueError(
                f"unknown kernel primitive {self.op!r}; expected one of {PRIMITIVE_OPS}"
            )

    def relabel(self, kind: str) -> "KernelSpec":
        """A copy whose every work record carries ``kind`` (wrapper managers)."""

        def rekind(work: ManagerWork) -> ManagerWork:
            return ManagerWork(
                kind=kind,
                arithmetic_ops=work.arithmetic_ops,
                comparisons=work.comparisons,
                table_lookups=work.table_lookups,
            )

        work = (
            tuple(rekind(record) for record in self.work)
            if isinstance(self.work, tuple)
            else rekind(self.work)
        )
        late = rekind(self.late_work) if self.late_work is not None else None
        return replace(self, kind=kind, work=work, late_work=late)


def ascending_boundaries(td_values: np.ndarray) -> np.ndarray | None:
    """Per-state time boundaries as ascending rows for ``searchsorted``.

    ``td_values`` is the ``(n_levels, n_states)`` layout of
    :attr:`~repro.core.tdtable.TDTable.values` (rows ordered by ascending
    level index, values non-increasing in level).  Returns a
    ``(n_states, n_levels)`` array whose row ``i`` holds the state's
    boundaries lowest-quality-last (ascending), or ``None`` when the columns
    are not non-increasing in quality — the interval-lookup primitive then
    would not reproduce the scalar "last eligible level" rule and the caller
    must not lower.
    """
    if td_values.shape[0] > 1 and not bool(np.all(np.diff(td_values, axis=0) <= 0.0)):
        return None
    return np.ascontiguousarray(td_values[::-1].T)


def interval_spec(
    kind: str,
    td_values: np.ndarray,
    work: ManagerWork | tuple[ManagerWork, ...],
) -> KernelSpec | None:
    """A ``lookup`` spec over a monotone per-level time table, or ``None``.

    The shared lowering of every "last level with stored bound >= t" manager
    (region, numeric, safe-only/average-only, elastic): ``None`` when the
    table is not monotone in quality, in which case the manager keeps the
    scalar loop.
    """
    boundaries = ascending_boundaries(np.asarray(td_values, dtype=np.float64))
    if boundaries is None:
        return None
    return KernelSpec(
        op="lookup",
        kind=kind,
        n_levels=int(td_values.shape[0]),
        tables={"boundaries": boundaries},
        work=work,
    )


def quality_answers(first: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, late)`` of the lookup rule, given the count of boundaries below ``t``.

    The eligible levels form a suffix that starts after the ``first``
    boundaries strictly below ``t``; late times (no eligible level) fall back
    to row 0 — the minimal quality, exactly
    :meth:`~repro.core.tdtable.TDTable.choose_quality`'s best-effort rule.
    """
    return np.maximum((n_levels - 1) - first, 0), first == n_levels


def _row_dtype(n_levels: int) -> np.dtype:
    """The smallest unsigned dtype holding every row index (``uint8`` up to 256 levels)."""
    return np.min_scalar_type(n_levels - 1)


def lookup_answers(n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``lookup`` op's answers ``(rows, late)`` for each interval ``k = 0..n_levels``.

    Interval ``k`` holds the times with exactly ``k`` boundaries strictly
    below them; the answer does not depend on the state, so one row serves
    every state and member.
    """
    rows, late = quality_answers(np.arange(n_levels + 1), n_levels)
    return rows.astype(_row_dtype(n_levels)), late


def relaxation_intervals(
    boundaries: np.ndarray,
    steps: tuple[int, ...],
    lower: tuple[np.ndarray, ...],
    upper: tuple[np.ndarray, ...],
) -> dict[str, np.ndarray]:
    """Compile the relaxation rule into per-state interval tables.

    ``boundaries`` is the ``(n_states, n_levels)`` ascending ``t^D`` layout
    of :func:`ascending_boundaries`; ``lower``/``upper`` hold one
    ``(n_levels, n_states)`` bound array per step of ``steps`` (the
    :class:`~repro.core.relaxation.RelaxationTable` layout).  Returns

    * ``breakpoints`` — ``(n_states, K)``, each row the state's boundaries
      and every ``R^r_q`` lower/upper bound, sorted (``K = n_levels * (1 +
      2 |steps|)``; NaN sorts last, as ``searchsorted`` expects);
    * ``rows``/``steps``/``late`` — ``(n_states, K + 1)`` answers, entry
      ``k`` answering every time with exactly ``k`` breakpoints strictly
      below it (compact dtypes: unsigned rows, ``int32`` steps, ``bool``).

    Exact by construction: the rule only tests ``x < t`` and ``t <= x``
    for breakpoints ``x``, so its answer is constant on each interval
    ``(P[k-1], P[k]]``.  Each answer is the rule evaluated on the original
    bounds at one time inside its interval — the right end, or just above
    the left end when the right end is not finite — with the scalar
    manager's comparisons: the level from the boundary count, then the
    largest step whose region ``low < t <= high`` contains the time, 1 on
    the late path.  Intervals no time reaches (empty, or past a NaN) get an
    answer that is never read.  Built in one pass per level and per step,
    with ``(n_states, K + 1)`` temporaries only.
    """
    n_states, n_levels = boundaries.shape
    breakpoints = np.concatenate(
        [boundaries, *(np.asarray(bound).T for bound in (*lower, *upper))], axis=1
    )
    breakpoints.sort(axis=1)
    # one time per interval: its right end, else just above its left end
    times = np.concatenate([breakpoints, np.full((n_states, 1), np.inf)], axis=1)
    left = np.concatenate([np.full((n_states, 1), -np.inf), breakpoints], axis=1)
    open_right = ~np.isfinite(times)
    times[open_right] = np.nextafter(left[open_right], np.inf)

    first = np.zeros(times.shape, dtype=np.intp)
    for level in range(n_levels):
        first += boundaries[:, level, None] < times
    rows, late = quality_answers(first, n_levels)
    # flat index of (row, state) in the (n_levels, n_states) bound layout
    cells = rows * n_states + np.arange(n_states)[:, None]
    best = np.ones(times.shape, dtype=np.result_type(np.int32, np.min_scalar_type(max(steps))))
    for r, low, high in zip(steps, lower, upper):
        contained = (np.asarray(low).take(cells) < times) & (
            times <= np.asarray(high).take(cells)
        )
        np.maximum(best, r, out=best, where=contained)
    best[late] = 1
    if _obs_enabled():
        _obs_registry().inc("engine.decision_tables.built")
    return {
        "breakpoints": breakpoints,
        "rows": rows.astype(_row_dtype(n_levels)),
        "steps": best,
        "late": late,
    }
