"""Fault-rate sweep driver: shape, control row, ledger, rendering."""

import dataclasses

import pytest

from repro.experiments.fault_sweep import (
    DRAIN_CYCLES,
    FAULT_SWEEP_RATES,
    FaultSweepPoint,
    render,
    run_fault_point,
    run_fault_sweep,
)

from tests.experiments.golden_exhibits import assert_matches, fault_section

TINY = dict(cycles=1_500, warmup=300)
RATES = (0.0, 1e-3)


@pytest.fixture(scope="module")
def sweep():
    return run_fault_sweep(rates=RATES, **TINY)


class TestSweep:
    def test_default_rates_span_decades(self):
        assert FAULT_SWEEP_RATES[0] == 0.0
        assert list(FAULT_SWEEP_RATES) == sorted(FAULT_SWEEP_RATES)

    def test_one_point_per_rate(self, sweep):
        assert [p.rate for p in sweep] == [0.0, 1e-3]

    def test_control_row_injects_nothing(self, sweep):
        control = sweep[0]
        assert control.injected == 0
        assert control.accounted
        assert control.quiesced

    def test_fault_rows_quiesce_fully_accounted(self, sweep):
        for point in sweep[1:]:
            assert point.quiesced
            assert point.accounted
            assert point.injected > 0

    def test_all_points_serve_traffic(self, sweep):
        for point in sweep:
            assert point.completed > 0
            assert 0.0 < point.utilization <= 1.0

    def test_render_has_header_and_every_row(self, sweep):
        text = render(sweep)
        assert "Fault-rate sweep" in text
        assert "unres" in text
        assert len(text.splitlines()) == 2 + len(sweep)
        assert "[HUNG]" not in text

    def test_points_match_golden(self, sweep):
        assert_matches("fault_sweep", fault_section(sweep))


class TestAccountedProperty:
    def test_accounted_requires_balanced_ledger(self):
        kwargs = dict(
            rate=1e-3, utilization=0.5, latency_all=100.0, completed=10,
            corrected=1, recovered=2, failed_faults=1, unresolved=0,
            crc_retries=2, dram_rereads=0, watchdog_reissues=0,
            failed_requests=1, quiesced=True,
        )
        assert FaultSweepPoint(injected=4, **kwargs).accounted
        assert not FaultSweepPoint(injected=5, **kwargs).accounted
        unresolved = dict(kwargs, unresolved=1)
        assert not FaultSweepPoint(injected=4, **unresolved).accounted


class TestSinglePoint:
    def test_run_fault_point_matches_sweep_row(self, sweep):
        point = run_fault_point(1e-3, seed=2010, **TINY)
        assert point == sweep[1]


class TestFailureReason:
    def healthy(self):
        return FaultSweepPoint(
            rate=1e-2, utilization=0.5, latency_all=100.0, completed=10,
            injected=4, corrected=1, recovered=2, failed_faults=1,
            unresolved=0, crc_retries=2, dram_rereads=0,
            watchdog_reissues=0, failed_requests=1, quiesced=True,
            drain_budget=12_345,
        )

    def test_healthy_point_has_no_reason(self):
        assert self.healthy().failure_reason() is None

    def test_hung_reason_names_rate_and_drain_budget(self):
        hung = dataclasses.replace(self.healthy(), quiesced=False)
        reason = hung.failure_reason()
        assert "rate=0.01" in reason
        assert "12345-cycle drain budget" in reason

    def test_unaccounted_reason_names_rate_and_ledger(self):
        unbalanced = dataclasses.replace(self.healthy(), injected=9)
        reason = unbalanced.failure_reason()
        assert "rate=0.01" in reason
        assert "injected=9" in reason
        assert "unaccounted" in reason

    def test_default_drain_budget_is_module_constant(self):
        point = dataclasses.replace(self.healthy())
        assert FaultSweepPoint.__dataclass_fields__[
            "drain_budget"
        ].default == DRAIN_CYCLES
        assert point.drain_budget == 12_345

    def test_render_marks_hung_rows_with_budget(self):
        hung = dataclasses.replace(self.healthy(), quiesced=False)
        text = render([hung])
        assert "[HUNG >12345c]" in text
