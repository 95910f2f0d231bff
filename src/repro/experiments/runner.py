"""Experiment runner: simulate configurations and aggregate metrics.

The paper simulates each configuration for one million cycles of Verilog
RTL; a pure-Python cycle-level model is ~10^3x slower, so the default here
is 20 000 cycles with a 3 000-cycle warmup, optionally averaged over
several workload seeds.  The reported metrics are time-averages that are
stable well below that horizon; ``EXPERIMENTS.md`` records the residual
run-to-run spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..sim.config import SystemConfig
from ..sim.stats import RunMetrics
from ..sweep.orchestrator import run_sweep
from ..sweep.runners import metrics_job
from ..sweep.store import ResultStore

#: Default experiment horizon (cycles) and warmup.
DEFAULT_CYCLES = 20_000
DEFAULT_WARMUP = 3_000
DEFAULT_SEEDS = (2010, 2011)


@dataclass(frozen=True)
class AveragedMetrics:
    """Seed-averaged metrics for one configuration.

    The WCET pair aggregates by *max*, not mean: ``service_p100`` is the
    worst service latency observed across the seeds, and ``wcet_bound``
    the largest analytic bound any seed reported (``None`` when the
    backend has no bound) — a bound that held per-seed must hold for the
    maxima too, so the pair stays directly comparable.
    """

    utilization: float
    raw_utilization: float
    latency_all: float
    latency_demand: float
    completed: float
    row_hit_rate: float
    runs: int
    service_p100: float = 0.0
    wcet_bound: Optional[float] = None

    @classmethod
    def from_runs(cls, runs: Sequence[RunMetrics]) -> "AveragedMetrics":
        if not runs:
            raise ValueError("no runs to average")
        n = len(runs)
        bounds = [r.wcet_bound for r in runs if r.wcet_bound is not None]
        return cls(
            utilization=sum(r.utilization for r in runs) / n,
            raw_utilization=sum(r.raw_utilization for r in runs) / n,
            latency_all=sum(r.latency_all for r in runs) / n,
            latency_demand=sum(r.latency_demand for r in runs) / n,
            completed=sum(r.completed for r in runs) / n,
            row_hit_rate=sum(r.row_hit_rate for r in runs) / n,
            runs=n,
            service_p100=max((r.service_p100 for r in runs), default=0.0),
            wcet_bound=max(bounds) if bounds else None,
        )


def run_configs(
    configs: Sequence[SystemConfig],
    store: Optional[ResultStore] = None,
) -> List[RunMetrics]:
    """Simulate ``configs``, serving stored results; metrics in order.

    Each configuration becomes a ``metrics`` job resolved by
    :func:`~repro.sweep.orchestrator.run_sweep` in this process, so the
    exhibits and ``repro sweep`` address one key space: a point either
    path simulated is a hit for the other.  ``store=None`` uses a
    memory-only store.  A stored *failed* record is simulated again, and
    a run that still fails raises with the stored error.  Metrics
    round-trip through JSON exactly, so a hit equals a fresh run.
    """
    jobs = [metrics_job(config) for config in configs]
    report = run_sweep(jobs, store=store, retry_failed=True)
    records = {outcome.job.key: outcome.record for outcome in report.outcomes}
    metrics: List[RunMetrics] = []
    for job in jobs:
        record = records[job.key]
        if record["status"] != "ok":
            raise RuntimeError(
                f"{job.label} failed: {record['error']}\n"
                f"{record.get('traceback') or ''}"
            )
        metrics.append(RunMetrics(**record["result"]))
    return metrics


def run_seed_averaged(
    configs: Sequence[SystemConfig],
    seeds: Iterable[int] = DEFAULT_SEEDS,
    store: Optional[ResultStore] = None,
) -> List[AveragedMetrics]:
    """Each configuration run once per seed, averaged in seed order."""
    seeds = tuple(seeds)
    runs = run_configs(
        [config.with_(seed=seed) for config in configs for seed in seeds],
        store,
    )
    n = len(seeds)
    return [
        AveragedMetrics.from_runs(runs[i * n:(i + 1) * n])
        for i in range(len(configs))
    ]


def experiment_config(**overrides) -> SystemConfig:
    """A SystemConfig with the experiment-default horizon applied to
    ``cycles`` / ``warmup`` when they are absent or ``None``."""
    if overrides.get("cycles") is None:
        overrides["cycles"] = DEFAULT_CYCLES
    if overrides.get("warmup") is None:
        overrides["warmup"] = DEFAULT_WARMUP
    return SystemConfig(**overrides)
