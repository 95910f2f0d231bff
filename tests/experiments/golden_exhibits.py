"""Absolute anchor for the exhibit outputs.

``tests/sim/golden_metrics.json`` pins single runs; this file pins what
the exhibit drivers build from them: Tables I–III and Fig. 8 as
``export_all`` writes them, the fault-sweep points and the
memory-arbiter comparison cells.  The values come from the fixtures the
exhibit tests already compute (``test_export``, ``test_fault_sweep``,
``test_arbiter_comparison``), so the anchor costs no extra simulation.
Floats are compared exactly: a refactor of the exhibit plumbing must
leave every number where it was.

A change that is meant to move exhibit numbers regenerates the file
with ``PYTHONPATH=src python -m tests.experiments.golden_exhibits
--update`` (from the repository root) and says why in CHANGES.md.
"""

import dataclasses
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_exhibits.json")

#: The sections of the golden file, one per exhibit fixture.
SECTIONS = ("export", "fault_sweep", "arbiter_comparison")


def export_section(document):
    """The simulated exhibits of an ``export_all`` document."""
    return {key: document[key] for key in ("table1", "table2", "table3", "fig8")}


def fault_section(points):
    return [dataclasses.asdict(point) for point in points]


def arbiter_section(result):
    return [
        {
            "app": cell.app,
            "ddr": cell.ddr.value,
            "clock_mhz": cell.clock_mhz,
            "arbiter": cell.arbiter,
            **dataclasses.asdict(cell.metrics),
        }
        for cell in result.cells
    ]


def _canonical(value):
    return json.loads(json.dumps(value, sort_keys=True))


def load():
    with open(GOLDEN) as handle:
        return json.load(handle)


def assert_matches(section, observed):
    expected = load()[section]
    assert _canonical(observed) == expected, (
        f"exhibit section {section!r} moved off golden_exhibits.json"
    )


def _update(tmp_path):
    from repro.experiments.comparison import run_arbiter_comparison
    from repro.experiments.export import export_all
    from repro.experiments.fault_sweep import run_fault_sweep
    from tests.experiments import (
        test_arbiter_comparison,
        test_export,
        test_fault_sweep,
    )

    records = {
        "export": export_section(
            export_all(tmp_path / "results.json", **test_export.TINY)
        ),
        "fault_sweep": fault_section(
            run_fault_sweep(
                rates=test_fault_sweep.RATES, **test_fault_sweep.TINY
            )
        ),
        "arbiter_comparison": arbiter_section(
            run_arbiter_comparison(
                arbiters=test_arbiter_comparison.ARBITERS,
                apps=test_arbiter_comparison.APPS,
                **test_arbiter_comparison.TINY,
            )
        ),
    }
    with open(GOLDEN, "w") as handle:
        json.dump(_canonical(records), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.experiments.golden_exhibits --update")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _update(Path(scratch))
