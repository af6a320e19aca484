"""A3 — baseline comparison: the mixed-policy manager against related work.

Compares the paper's controller against the related-work techniques discussed
in its introduction (constant quality, skip-over, PID feedback, elastic
worst-case compression) on identical encoder scenarios, reporting safety,
mean quality and smoothness for each.
"""

from __future__ import annotations

from repro.api import Session


def bench_baseline_comparison(benchmark, fast_workload):
    """Run all managers on identical scenarios and tabulate the QoS metrics."""
    system = fast_workload.build_system()
    deadlines = fast_workload.deadlines()
    qualities = system.qualities
    managers = {
        "mixed-relaxation": "relaxation",
        "constant-low": f"constant:level={qualities.minimum}",
        "constant-high": f"constant:level={qualities.maximum}",
        "skip-over": f"skip:nominal_level={qualities.maximum}",
        "pid-feedback": "feedback",
        "elastic": "elastic",
    }
    session = Session().system(system).deadlines(deadlines).machine("ipod")

    def run_all():
        batch = session.compare(*managers.values(), cycles=4, seed=2, chunk_size=None)
        return {name: result.metrics for name, result in zip(managers, batch.runs.values())}

    metrics = benchmark.pedantic(run_all, rounds=1, iterations=1)

    ours = metrics["mixed-relaxation"]
    assert ours.deadline_misses == 0
    # safe baselines leave quality on the table
    assert ours.mean_quality > metrics["constant-low"].mean_quality
    assert ours.mean_quality >= metrics["elastic"].mean_quality
    # the max-quality baseline gets more quality only by missing deadlines (or
    # coincidentally fitting); our manager never misses
    assert metrics["constant-high"].mean_quality >= ours.mean_quality
    benchmark.extra_info["rows"] = {
        name: m.as_row() for name, m in metrics.items()
    }
