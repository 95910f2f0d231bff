"""Arbitrary :class:`~repro.sim.config.SystemConfig` field grids.

``repro sweep grid --axis field=v1,v2 ...`` sweeps any config fields;
:func:`config_grid_spec` resolves each assignment through
:func:`repro.experiments.runner.experiment_config` into a complete
configuration payload.  The paper's own grids live next to their
exhibits: ``fig8_jobs`` in :mod:`repro.experiments.fig8` and
``fault_sweep_spec`` in :mod:`repro.experiments.fault_sweep`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from .spec import SweepSpec


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
        # Imported lazily: repro.experiments imports this package.
        from ..experiments.runner import experiment_config
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
