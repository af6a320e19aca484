"""Experiment E4 — Figure 8: per-action management overhead with and without relaxation.

Figure 8 plots, for actions a200..a700 of one frame, the execution-time
overhead attributable to the Quality Manager before each action, for the
symbolic manager with and without control relaxation.  Without relaxation the
manager runs before every action (a constant per-call cost); with relaxation
whole stretches of actions carry zero overhead, and the paper observes the
relaxation step count adapting dynamically along the frame (r = 40, then 1,
then 10).

Expected shape here: the no-relaxation series is a roughly constant non-zero
line; the relaxation series is zero almost everywhere with isolated spikes;
the total overhead over the window is several times smaller with relaxation;
and the relaxation step counts used along the window span several distinct
values from ρ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.session import Session
from repro.media.workload import EncoderWorkload, paper_encoder
from repro.platform.machine import Machine, ipod_video
from repro.platform.tracing import per_action_overhead, relaxation_steps_used

from .config import PAPER_REFERENCE

__all__ = ["Fig8Result", "run_fig8_experiment"]


@dataclass(frozen=True)
class Fig8Result:
    """Per-action overhead series over the Figure 8 action window."""

    first_action: int
    last_action: int
    region_overhead: np.ndarray
    relaxation_overhead: np.ndarray
    relaxation_steps: np.ndarray
    window_steps: np.ndarray

    @property
    def region_total(self) -> float:
        """Total overhead of the no-relaxation manager over the window."""
        return float(self.region_overhead.sum())

    @property
    def relaxation_total(self) -> float:
        """Total overhead of the relaxation manager over the window."""
        return float(self.relaxation_overhead.sum())

    @property
    def overhead_reduction_factor(self) -> float:
        """How many times smaller the relaxation overhead is over the window."""
        if self.relaxation_total <= 0.0:
            return np.inf
        return self.region_total / self.relaxation_total

    @property
    def distinct_step_counts(self) -> list[int]:
        """The distinct relaxation step counts used inside the window."""
        return sorted(int(s) for s in np.unique(self.window_steps))

    def render(self) -> str:
        """Text summary of the Figure 8 reproduction."""
        lines = [
            f"action window: a{self.first_action}..a{self.last_action}",
            f"overhead without relaxation: {1e3 * self.region_total:.3f} ms",
            f"overhead with relaxation:    {1e3 * self.relaxation_total:.3f} ms",
            f"reduction factor: {self.overhead_reduction_factor:.1f}x",
            f"relaxation step counts used in the window: {self.distinct_step_counts}",
            f"paper observes r in {list(PAPER_REFERENCE.fig8_observed_steps)} along its window",
        ]
        return "\n".join(lines)


def run_fig8_experiment(
    workload: EncoderWorkload | None = None,
    *,
    first_action: int | None = None,
    last_action: int | None = None,
    frame_index: int = 0,
    machine: Machine | None = None,
    seed: int = 0,
) -> Fig8Result:
    """Measure per-action overhead with and without relaxation over one frame window."""
    wl = workload if workload is not None else paper_encoder(seed=seed)
    system = wl.build_system()
    deadlines = wl.deadlines()
    n = system.n_actions
    lo = first_action if first_action is not None else min(PAPER_REFERENCE.fig8_first_action, n // 4)
    hi = last_action if last_action is not None else min(PAPER_REFERENCE.fig8_last_action, n - 1)
    if not 1 <= lo < hi <= n:
        raise ValueError(f"invalid action window {lo}..{hi} for {n} actions")

    session = (
        Session()
        .system(system)
        .deadlines(deadlines)
        .machine(machine if machine is not None else ipod_video())
        .seed(seed)
    )
    runs = session.compare("region", "relaxation", cycles=frame_index + 1, chunk_size=None)
    region_outcome = runs["region"].outcomes[frame_index]
    relaxation_outcome = runs["relaxation"].outcomes[frame_index]

    region_series = per_action_overhead(region_outcome)[lo - 1 : hi]
    relaxation_series = per_action_overhead(relaxation_outcome)[lo - 1 : hi]
    steps = relaxation_steps_used(relaxation_outcome)
    # step counts granted by invocations that fall inside the window
    invocations = relaxation_outcome.manager_invocations
    in_window = (invocations >= lo - 1) & (invocations < hi)
    window_steps = steps[in_window] if steps.size else steps

    return Fig8Result(
        first_action=lo,
        last_action=hi,
        region_overhead=region_series,
        relaxation_overhead=relaxation_series,
        relaxation_steps=steps,
        window_steps=window_steps,
    )
