"""Canonical grid definitions: the paper's sweeps as orchestrator jobs.

Each grid comes in three pieces: a *jobs* builder that enumerates the
fully-resolved jobs (the exact configs the serial driver would run, so
results are bit-identical), a *reconstruction* function that reads the
jobs' records back out of a :class:`~repro.sweep.store.ResultStore` and
rebuilds the driver's native result types, and a convenience runner
that chains both through :func:`~repro.sweep.orchestrator.run_sweep`.

Grids defined here:

* **fault** — the fault-rate × seed grid behind ``repro sweep fault``,
  one ``fault-point`` job per (seed, rate).  Hung or unaccounted points
  come back as *failed* store records (rate and drain budget in the
  error) whose partial metrics still render in the table.
* **fig8** — the paper's Fig. 8 GSS-router-count sweep, flattened to
  one ``metrics`` job per (application point, router count, seed); the
  curves are rebuilt by averaging per-seed runs in seed order, exactly
  as :func:`repro.experiments.runner.run_averaged` does.
* **config grid** — arbitrary :class:`~repro.sim.config.SystemConfig`
  field grids (``repro sweep grid --axis field=v1,v2 ...``), resolved
  through :func:`repro.experiments.runner.experiment_config`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..experiments.fault_sweep import (
    DRAIN_CYCLES,
    FAULT_SWEEP_RATES,
    FaultSweepPoint,
)
from ..experiments.fig8 import FIG8_POINTS, Fig8Curve, fig8_config, gss_router_counts
from ..experiments.runner import (
    AveragedMetrics,
    DEFAULT_CYCLES,
    DEFAULT_SEEDS,
    DEFAULT_WARMUP,
    experiment_config,
)
from ..sim.stats import RunMetrics
from .orchestrator import SweepReport, run_sweep
from .runners import metrics_job
from .spec import Job, SweepSpec
from .store import ResultStore


def _stored_result(store: ResultStore, job: Job) -> Mapping[str, object]:
    record = store.get(job.key)
    if record is None:
        raise KeyError(
            f"no stored result for job {job.label!r} (key {job.key[:12]}…); "
            f"run the sweep before reconstructing its results"
        )
    result = record.get("result")
    if result is None:
        raise KeyError(
            f"job {job.label!r} failed without a result: {record.get('error')}"
        )
    return result


# --------------------------------------------------------------------- #
# Fault-rate grid
# --------------------------------------------------------------------- #

def fault_sweep_spec(
    rates: Sequence[float] = FAULT_SWEEP_RATES,
    seeds: Sequence[int] = (2010,),
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    app: str = "single_dtv",
    drain_cycles: int = DRAIN_CYCLES,
) -> SweepSpec:
    """The fault grid: seed (outer) × rate (inner), fully resolved."""
    return SweepSpec(
        name="fault-sweep",
        kind="fault-point",
        base={
            "app": app,
            "cycles": cycles if cycles is not None else DEFAULT_CYCLES,
            "warmup": warmup if warmup is not None else DEFAULT_WARMUP,
            "drain_cycles": drain_cycles,
        },
        axes={"seed": list(seeds), "rate": list(rates)},
    )


def fault_points(
    store: ResultStore, spec: SweepSpec
) -> List[Tuple[int, FaultSweepPoint]]:
    """``(seed, point)`` per grid job, in grid order, from the store.

    Failed jobs (hung / unaccounted) carry their partial metrics in the
    record's ``result`` and are reconstructed like any other point —
    the hang shows up as ``quiesced=False``, never as a silent row.
    """
    points: List[Tuple[int, FaultSweepPoint]] = []
    for job in spec.expand():
        result = _stored_result(store, job)
        points.append((job.params["seed"], FaultSweepPoint(**result)))
    return points


def run_fault_sweep_grid(
    store: Optional[ResultStore] = None,
    workers: int = 1,
    **spec_kwargs,
) -> Tuple[List[Tuple[int, FaultSweepPoint]], SweepReport]:
    """Run the fault grid through the orchestrator and rebuild points."""
    spec = fault_sweep_spec(**spec_kwargs)
    if store is None:
        store = ResultStore()
    report = run_sweep(spec, store=store, workers=workers)
    return fault_points(store, spec), report


# --------------------------------------------------------------------- #
# Fig. 8 grid
# --------------------------------------------------------------------- #

def fig8_jobs(
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    max_routers: Optional[int] = None,
) -> List[Job]:
    """One ``metrics`` job per (application point, router count, seed).

    Flattening the seed average into the grid is what lets the
    orchestrator shard the whole figure across cores; the curves are
    re-averaged at reconstruction time.
    """
    overrides = {}
    if cycles is not None:
        overrides["cycles"] = cycles
    if warmup is not None:
        overrides["warmup"] = warmup
    jobs: List[Job] = []
    for app, ddr, mhz in FIG8_POINTS:
        for k in gss_router_counts(app, max_routers):
            for seed in seeds:
                config = fig8_config(
                    app, ddr, mhz, k, seed=seed, **overrides
                )
                jobs.append(
                    metrics_job(
                        config,
                        label=f"{app}/gss={k}/seed={seed}",
                    )
                )
    return jobs


def fig8_curves(
    store: ResultStore,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    max_routers: Optional[int] = None,
) -> List[Fig8Curve]:
    """Rebuild the Fig. 8 curves from stored per-seed runs.

    Per-seed metrics are averaged in seed order through
    :meth:`AveragedMetrics.from_runs` — the same arithmetic, in the
    same order, as the serial ``run_fig8`` — so the reconstructed
    curves are bit-identical to the serial baseline.
    """
    overrides = {}
    if cycles is not None:
        overrides["cycles"] = cycles
    if warmup is not None:
        overrides["warmup"] = warmup
    curves: List[Fig8Curve] = []
    for app, ddr, mhz in FIG8_POINTS:
        counts = gss_router_counts(app, max_routers)
        utilization: List[float] = []
        latency_all: List[float] = []
        latency_priority: List[float] = []
        for k in counts:
            runs = []
            for seed in seeds:
                config = fig8_config(app, ddr, mhz, k, seed=seed, **overrides)
                result = _stored_result(store, metrics_job(config))
                runs.append(RunMetrics(**result))
            averaged = AveragedMetrics.from_runs(runs)
            utilization.append(averaged.utilization)
            latency_all.append(averaged.latency_all)
            latency_priority.append(averaged.latency_demand)
        curves.append(
            Fig8Curve(
                app, ddr, mhz, counts, utilization, latency_all,
                latency_priority,
            )
        )
    return curves


def run_fig8_grid(
    store: Optional[ResultStore] = None,
    workers: int = 1,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    max_routers: Optional[int] = None,
) -> Tuple[List[Fig8Curve], SweepReport]:
    """Run the Fig. 8 grid through the orchestrator, rebuild curves."""
    if store is None:
        store = ResultStore()
    jobs = fig8_jobs(
        cycles=cycles, warmup=warmup, seeds=seeds, max_routers=max_routers
    )
    report = run_sweep(jobs, store=store, workers=workers)
    curves = fig8_curves(
        store, cycles=cycles, warmup=warmup, seeds=seeds,
        max_routers=max_routers,
    )
    return curves, report


# --------------------------------------------------------------------- #
# Arbitrary SystemConfig grids
# --------------------------------------------------------------------- #

def config_grid_spec(
    base: Mapping[str, object],
    axes: Mapping[str, Iterable[object]],
    replicates: int = 1,
    root_seed: int = 2010,
    name: str = "grid",
) -> SweepSpec:
    """A grid over arbitrary :class:`SystemConfig` fields.

    ``base`` and ``axes`` hold constructor-level values (enums allowed);
    each assignment is resolved through :func:`experiment_config` into a
    complete configuration payload, so the cache key covers every field
    — including the ones the grid left at their defaults.
    """

    def resolve(params: Dict[str, object]) -> Mapping[str, object]:
        from ..resilience.faults import FaultConfig
        from .runners import config_payload

        params = dict(params)
        # `fault_rate` is a pseudo-field: a nonzero rate expands to the
        # uniform mixed-fault profile, zero builds no resilience at all
        # (mirrors the `repro run --fault-rate` CLI semantics).
        rate = params.pop("fault_rate", 0.0)
        if rate:
            params["faults"] = FaultConfig.uniform(rate)
        return config_payload(experiment_config(**params))

    return SweepSpec(
        name=name,
        kind="metrics",
        base=dict(base),
        axes={axis: list(values) for axis, values in axes.items()},
        replicates=replicates,
        root_seed=root_seed,
        resolver=resolve,
    )


# --------------------------------------------------------------------- #
# Memory-arbiter matrix
# --------------------------------------------------------------------- #

#: Every memory-arbiter backend, in render order.
ARBITER_MATRIX_BACKENDS = ("engine", "memmax", "databahn", "dpq", "bank-reg")


def arbiter_matrix_spec(
    arbiters: Sequence[str] = ARBITER_MATRIX_BACKENDS,
    seeds: Sequence[int] = (2010,),
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    **base_overrides,
) -> SweepSpec:
    """The arbiter × seed matrix: one ``metrics`` job per backend/seed at
    a fixed NoC design (the CI smoke job's grid).  Plain
    :func:`config_grid_spec` underneath, so the jobs share the exhibit
    cache key space."""
    base: Dict[str, object] = dict(base_overrides)
    if cycles is not None:
        base["cycles"] = cycles
    if warmup is not None:
        base["warmup"] = warmup
    return config_grid_spec(
        base=base,
        axes={"seed": list(seeds), "arbiter": list(arbiters)},
        name="arbiter-matrix",
    )


def arbiter_matrix_rows(
    store: ResultStore, spec: SweepSpec
) -> List[Tuple[str, int, RunMetrics]]:
    """``(arbiter, seed, metrics)`` per matrix job, in grid order."""
    rows: List[Tuple[str, int, RunMetrics]] = []
    for job in spec.expand():
        result = _stored_result(store, job)
        rows.append(
            (
                job.params["arbiter"],
                job.params["seed"],
                RunMetrics(**result),
            )
        )
    return rows


def run_arbiter_matrix_grid(
    store: Optional[ResultStore] = None,
    workers: int = 1,
    **spec_kwargs,
) -> Tuple[List[Tuple[str, int, RunMetrics]], SweepReport]:
    """Run the arbiter matrix through the orchestrator, rebuild rows."""
    spec = arbiter_matrix_spec(**spec_kwargs)
    if store is None:
        store = ResultStore()
    report = run_sweep(spec, store=store, workers=workers)
    return arbiter_matrix_rows(store, spec), report
