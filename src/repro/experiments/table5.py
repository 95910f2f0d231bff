"""Table V — average power comparison (analytical model).

See :mod:`repro.cost.power`.  Optionally the power numbers are modulated
by the measured switching activity (memory utilization) of an actual
simulation run of each design at each operating point.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..cost.power import TABLE5_POINTS, estimate_power
from ..sim.config import DdrGeneration, NocDesign
from ..sweep.store import ResultStore
from .report import format_table
from .runner import DEFAULT_SEEDS, experiment_config, run_seed_averaged

#: design key in the cost model -> NocDesign for activity simulation
DESIGN_MAP = {
    "conv": NocDesign.CONV,
    "sdram-aware": NocDesign.SDRAM_AWARE,
    "gss+sagm+sti": NocDesign.GSS_SAGM,
}

#: Table V clock points use DDR I at 200 MHz, DDR II at 400, DDR III at 800.
POINT_DDR = {200: DdrGeneration.DDR1, 400: DdrGeneration.DDR2, 800: DdrGeneration.DDR3}


def run_table5(
    with_activity: bool = False,
    cycles: Optional[int] = None,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    store: Optional[ResultStore] = None,
) -> Dict[str, Dict[str, float]]:
    """Average power (mW) per design and operating point.

    With ``with_activity`` the simulator supplies each design's measured
    utilization as the switching-activity factor.
    """
    result: Dict[str, Dict[str, float]] = {}
    for app, mhz in TABLE5_POINTS:
        row: Dict[str, float] = {}
        for key, design in DESIGN_MAP.items():
            activity = None
            if with_activity:
                config = experiment_config(
                    app=app,
                    ddr=POINT_DDR[mhz],
                    clock_mhz=mhz,
                    design=design,
                    sti=design is NocDesign.GSS_SAGM,
                    cycles=cycles,
                )
                averaged = run_seed_averaged([config], seeds, store)[0]
                activity = min(1.0, averaged.raw_utilization)
            row[key] = estimate_power(key, app, mhz, activity=activity).milliwatts
        result[f"{app}@{mhz}MHz"] = row
    return result


def render(result: Optional[Dict[str, Dict[str, float]]] = None) -> str:
    data = result if result is not None else run_table5()
    designs = list(next(iter(data.values())).keys())
    headers = ["Operating point"] + [f"{d} (mW)" for d in designs] + ["conv ratio", "[4] ratio"]
    rows = []
    for point, row in data.items():
        ours = row["gss+sagm+sti"]
        rows.append(
            [point]
            + [row[d] for d in designs]
            + [row["conv"] / ours if ours else 0.0, row["sdram-aware"] / ours if ours else 0.0]
        )
    return format_table("Table V — average power", headers, rows)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render())


if __name__ == "__main__":  # pragma: no cover
    main()
