"""Miniature versions of every paper exhibit: shape and rendering checks.

These run the real experiment drivers at a tiny cycle count — enough to
verify plumbing, result shapes, and renderers, while the full-length runs
live in benchmarks/.
"""

import pytest

from repro.experiments.fig8 import knee_index, render as render_fig8, run_fig8
from repro.experiments.table1 import render as render_t1, run_table1
from repro.experiments.table2 import render as render_t2, run_table2
from repro.experiments.table3 import render as render_t3, run_table3
from repro.experiments.table4 import render as render_t4, run_table4
from repro.experiments.table5 import render as render_t5, run_table5
from repro.sim.config import DdrGeneration, NocDesign

TINY = dict(cycles=1_500, warmup=300, seeds=(2010,))


@pytest.fixture(scope="module")
def table1_result():
    return run_table1(**TINY)


class TestTable1:
    def test_covers_all_cells(self, table1_result):
        assert len(table1_result.cells) == 9 * 4

    def test_averages_have_all_designs(self, table1_result):
        averages = table1_result.averages()
        assert set(averages) == set(table1_result.designs)
        for values in averages.values():
            assert values["utilization"] > 0

    def test_ratio_normalized_to_baseline(self, table1_result):
        ratios = table1_result.ratios(NocDesign.SDRAM_AWARE)
        baseline = ratios[NocDesign.SDRAM_AWARE]
        assert all(v == pytest.approx(1.0) for v in baseline.values())

    def test_render_contains_rows(self, table1_result):
        text = render_t1(table1_result)
        assert "bluray" in text and "Ratio" in text

    def test_cell_lookup(self, table1_result):
        cell = table1_result.cell("bluray", DdrGeneration.DDR1,
                                  NocDesign.CONV)
        assert cell.clock_mhz == 133
        with pytest.raises(KeyError):
            table1_result.cell("bluray", DdrGeneration.DDR1, NocDesign.CONV_PFS)


class TestTable2:
    def test_runs_and_renders(self):
        result = run_table2(**TINY)
        assert len(result.comparison.cells) == 9 * 4
        ratios = result.ratios()
        assert NocDesign.GSS_SAGM in ratios
        text = render_t2(result)
        assert "Ratio vs Table I [4]" in text


class TestTable3:
    def test_three_rows_with_improvements(self):
        rows = run_table3(**TINY)
        assert len(rows) == 3
        for row in rows:
            assert row.with_sti.utilization > 0
            # improvements are finite percentages
            assert -1 < row.utilization_improvement < 1
        text = render_t3(rows)
        assert "Average" in text


class TestTable4:
    def test_static_model(self):
        data = run_table4()
        assert data["noc_3x3"]["conv"] > data["noc_3x3"]["gss+sagm+sti"]
        assert "Table IV" in render_t4(data)


class TestTable5:
    def test_static_model(self):
        data = run_table5()
        assert len(data) == 3
        assert "Table V" in render_t5(data)


class TestFig8:
    def test_sweep_shapes(self):
        curves = run_fig8(cycles=1_200, warmup=240, seeds=(2010,),
                          max_routers=3)
        assert len(curves) == 3
        for curve in curves:
            assert curve.gss_router_counts == [0, 1, 2, 3]
            assert len(curve.utilization) == 4
        text = render_fig8(curves)
        assert "#GSS" in text

    def test_router_counts_span_each_mesh(self):
        from repro.experiments.fig8 import FIG8_POINTS, gss_router_counts

        tops = {app: gss_router_counts(app)[-1] for app, _, _ in FIG8_POINTS}
        assert tops == {"single_dtv": 9, "bluray": 9, "dual_dtv": 16}
        assert gss_router_counts("dual_dtv", max_routers=3) == [0, 1, 2, 3]

    def test_knee_index_finds_threshold(self):
        from repro.experiments.fig8 import Fig8Curve
        curve = Fig8Curve(
            app="x", ddr=DdrGeneration.DDR1, clock_mhz=200,
            gss_router_counts=[0, 1, 2, 3, 4],
            utilization=[0.4, 0.55, 0.62, 0.64, 0.645],
            latency_all=[0] * 5, latency_priority=[0] * 5,
        )
        assert knee_index(curve) in (2, 3)

    def test_knee_with_flat_curve(self):
        from repro.experiments.fig8 import Fig8Curve
        curve = Fig8Curve(
            app="x", ddr=DdrGeneration.DDR1, clock_mhz=200,
            gss_router_counts=[0, 1], utilization=[0.5, 0.5],
            latency_all=[0, 0], latency_priority=[0, 0],
        )
        assert knee_index(curve) == 0
