"""Arbiter-comparison experiment: cells, WCET pairing, rendering."""

import pytest

from repro.experiments.comparison import (
    ArbiterCell,
    ArbiterComparisonResult,
    DEFAULT_ARBITERS,
    render_arbiter_comparison,
    run_arbiter_comparison,
)
from repro.experiments.runner import AveragedMetrics
from repro.sim.config import DdrGeneration, NocDesign
from tests.experiments.golden_exhibits import arbiter_section, assert_matches

TINY = dict(cycles=1_500, warmup=300, seeds=(2010,))
ARBITERS = ("engine", "dpq")
APPS = ("single_dtv",)


@pytest.fixture(scope="module")
def small_result():
    return run_arbiter_comparison(arbiters=ARBITERS, apps=APPS, **TINY)


class TestRun:
    def test_one_cell_per_point_and_arbiter(self, small_result):
        # single_dtv has three clock points; two arbiters.
        assert len(small_result.cells) == 6
        cell = small_result.cell("single_dtv", DdrGeneration.DDR2, "dpq")
        assert cell.arbiter == "dpq"
        assert cell.metrics.completed > 0

    def test_dpq_cells_carry_a_bound(self, small_result):
        for ddr in (DdrGeneration.DDR1, DdrGeneration.DDR2, DdrGeneration.DDR3):
            dpq = small_result.cell("single_dtv", ddr, "dpq")
            assert dpq.metrics.wcet_bound is not None
            assert dpq.metrics.service_p100 <= dpq.metrics.wcet_bound
            engine = small_result.cell("single_dtv", ddr, "engine")
            assert engine.metrics.wcet_bound is None

    def test_no_bound_violations(self, small_result):
        assert small_result.bound_violations() == []

    def test_averages_cover_requested_arbiters(self, small_result):
        averages = small_result.averages()
        assert set(averages) == {"engine", "dpq"}
        assert averages["engine"]["utilization"] > 0

    def test_cells_match_golden(self, small_result):
        assert_matches("arbiter_comparison", arbiter_section(small_result))

    def test_default_arbiters_are_all_builtins(self):
        assert DEFAULT_ARBITERS == (
            "engine", "memmax", "databahn", "dpq", "bank-reg"
        )


class TestRender:
    def test_table_has_wcet_columns(self, small_result):
        text = render_arbiter_comparison(small_result)
        assert "dpq:wcet" in text
        assert "engine:p100" in text
        assert "gss+sagm" in text
        assert "—" in text  # engine has no analytic bound

    def test_violations_rendered_loudly(self):
        metrics = AveragedMetrics(
            utilization=0.5, raw_utilization=0.5, latency_all=10.0,
            latency_demand=0.0, completed=10.0, row_hit_rate=0.5, runs=1,
            service_p100=999.0, wcet_bound=100.0,
        )
        result = ArbiterComparisonResult(
            design=NocDesign.GSS_SAGM, arbiters=["dpq"],
            cells=[
                ArbiterCell(
                    "single_dtv", DdrGeneration.DDR2, 333, "dpq", metrics
                )
            ],
        )
        assert len(result.bound_violations()) == 1
        text = render_arbiter_comparison(result)
        assert "BOUND VIOLATIONS" in text
        assert "p100 999 > bound 100" in text
