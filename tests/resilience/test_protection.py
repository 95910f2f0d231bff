"""ResilienceController: NACK/retry, ECC path, fault ledger, failure."""

import pytest

from repro.core.system import build_system
from repro.dram.ecc import EccOutcome
from repro.dram.request import MemoryRequest
from repro.obs import MetricsRegistry
from repro.resilience.faults import (
    FaultConfig,
    FaultInjector,
    FaultSite,
    ScheduledFault,
)
from repro.resilience.protection import ResilienceController
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig


class _FakeCore:
    def __init__(self):
        self.retransmitted = []
        self.failed = []

    def retransmit_request(self, part, cycle):
        self.retransmitted.append((part.request_id, cycle))

    def fail_request(self, parent, cycle):
        self.failed.append(parent)
        return True


class _FakeMemory:
    def __init__(self):
        self.resent = []

    def resend_response(self, request, cycle):
        self.resent.append((request.request_id, cycle))


class _FakePacket:
    def __init__(self, request, fault_bits=1, packet_id=0):
        self.request = request
        self.fault_bits = fault_bits
        self.packet_id = packet_id
        self.corrupted = True


def _request(request_id=7, master=0, parent=None, is_read=True):
    return MemoryRequest(
        request_id=request_id, master=master, bank=0, row=0, column=0,
        beats=4, is_read=is_read, parent_id=parent,
    )


def _controller(config=None, seed=1):
    config = config or FaultConfig()
    injector = FaultInjector(config, seed=seed)
    controller = ResilienceController(injector, config)
    core = _FakeCore()
    memory = _FakeMemory()
    controller.register_core(0, core)
    controller.attach_memory(memory)
    return controller, core, memory


class TestCrcRetry:
    def test_nack_schedules_retransmit_after_backoff(self):
        config = FaultConfig(retry_backoff_base=4, retry_backoff_cap=64)
        controller, core, _ = _controller(config)
        request = _request()
        controller.on_corrupt_request(100, _FakePacket(request))
        assert controller.crc_retries == 1
        controller.tick(100 + config.backoff(1) - 1)
        assert core.retransmitted == []
        controller.tick(100 + config.backoff(1))
        assert core.retransmitted == [(request.request_id, 104)]

    def test_corrupt_response_retransmits_from_memory(self):
        controller, _, memory = _controller()
        request = _request()
        controller.on_corrupt_response(50, _FakePacket(request))
        controller.tick(200)
        assert memory.resent and memory.resent[0][0] == request.request_id

    def test_clean_delivery_settles_faults_as_recovered(self):
        controller, _, _ = _controller()
        request = _request()
        controller.on_corrupt_response(0, _FakePacket(request, fault_bits=2))
        assert controller.recovered == 0
        controller.on_response_delivered(request)
        assert controller.recovered == 2

    def test_retry_cap_fails_the_parent_request(self):
        config = FaultConfig(crc_retry_limit=2)
        controller, core, _ = _controller(config)
        request = _request(request_id=9)
        for _ in range(2):
            controller.on_corrupt_request(0, _FakePacket(request))
        assert core.failed == []
        controller.on_corrupt_request(0, _FakePacket(request))
        assert core.failed == [9]
        assert controller.failed_requests == 1
        assert controller.failed_faults == 3  # all charged bits settle failed
        assert controller.crc_retries == 2   # the third attempt never retried

    def test_straggler_of_failed_parent_settles_without_retry(self):
        controller, core, _ = _controller()
        controller.fail_request(10, parent=42, master=0, reason="watchdog")
        straggler = _request(request_id=43, parent=42)
        controller.on_corrupt_response(20, _FakePacket(straggler, fault_bits=1))
        assert controller.failed_faults == 1
        assert controller.crc_retries == 0
        assert not controller.busy

    def test_pending_retransmit_dropped_when_parent_fails(self):
        controller, core, _ = _controller()
        request = _request(request_id=5, parent=4)
        controller.on_corrupt_request(0, _FakePacket(request))
        controller.fail_request(1, parent=4, master=0, reason="crc")
        controller.tick(500)
        assert core.retransmitted == []


class TestDramPath:
    def _scheduled(self, *bits_list, **config_overrides):
        schedule = tuple(
            ScheduledFault(0, FaultSite.SDRAM_BIT, bits=b) for b in bits_list
        )
        config = FaultConfig(schedule=schedule, **config_overrides)
        controller, core, memory = _controller(config)
        controller.injector.tick(0)
        return controller, core

    def test_single_bit_corrected_in_flight(self):
        controller, _ = self._scheduled(1)
        outcome = controller.on_dram_burst(0, _request())
        assert outcome is EccOutcome.CORRECTED
        assert controller.corrected == 1
        assert controller.unresolved == 0  # ledger closed immediately

    def test_double_bit_queues_reread_then_recovers(self):
        controller, _ = self._scheduled(2)
        request = _request()
        assert controller.on_dram_burst(0, request) is EccOutcome.DETECTED
        assert list(controller.dram_retries) == [request]
        assert controller.dram_reread_count == 1
        assert controller.busy
        # the re-read comes back clean
        controller.dram_retries.clear()
        assert controller.on_dram_burst(10, request) is EccOutcome.CLEAN
        assert controller.recovered == 1
        assert controller.unresolved == 0

    def test_double_bit_then_corrected_reread_recovers(self):
        """A re-read that itself takes a correctable hit still delivers
        good data: the uncorrectable fault behind the re-read settles as
        recovered, the new one as corrected."""
        controller, _ = self._scheduled(2, 1)
        request = _request()
        assert controller.on_dram_burst(0, request) is EccOutcome.DETECTED
        controller.dram_retries.clear()
        assert controller.on_dram_burst(10, request) is EccOutcome.CORRECTED
        assert controller.corrected == 1
        assert controller.recovered == 1
        assert controller.unresolved == 0
        assert not controller.busy

    def test_reread_cap_fails_the_request(self):
        controller, core = self._scheduled(2, 2, dram_retry_limit=1)
        request = _request(request_id=11)
        controller.on_dram_burst(0, request)
        controller.dram_retries.clear()
        controller.on_dram_burst(5, request)
        assert core.failed == [11]
        assert controller.failed_faults == 2
        assert controller.unresolved == 0

    def test_write_bursts_bypass_ecc(self):
        controller, _ = self._scheduled(2)
        outcome = controller.on_dram_burst(0, _request(is_read=False))
        assert outcome is EccOutcome.CLEAN
        assert controller.ecc.clean_bursts == 0  # not even counted


class TestFailureIdempotence:
    def test_fail_request_is_idempotent(self):
        controller, core, _ = _controller()
        controller.fail_request(0, parent=1, master=0, reason="crc")
        controller.fail_request(0, parent=1, master=0, reason="watchdog")
        assert core.failed == [1]
        assert controller.failed_requests == 1

    def test_metrics_published_under_resilience_prefix(self):
        controller, _, _ = _controller()
        controller.fail_request(0, parent=1, master=0, reason="crc")
        registry = MetricsRegistry()
        controller.metrics_into(registry)
        assert registry.counter("resilience.failed_requests").value == 1
        assert "resilience.injected.total" in registry
        assert "resilience.injected.link-corrupt" in registry


class TestEndToEnd:
    def _run(self, faults, cycles=3_000, warmup=500, seed=2010):
        config = SystemConfig(
            cycles=cycles, warmup=warmup, seed=seed, faults=faults,
        )
        system = build_system(config)
        metrics = system.run()
        quiesced = system.drain()
        return system, metrics, quiesced

    def test_uniform_fault_run_accounts_for_every_fault(self):
        system, _, quiesced = self._run(FaultConfig.uniform(5e-3))
        controller = system.resilience
        assert quiesced
        assert controller.injected_total > 0
        assert controller.unresolved == 0
        assert controller.injected_total == (
            controller.corrected + controller.recovered + controller.failed_faults
        )

    def test_corrected_reread_leaves_no_unresolved_fault(self):
        """A drained run whose only leak was a DETECTED burst whose re-read
        came back CORRECTED (bluray DDR3@533 GSS+SAGM+STI at 1e-2)."""
        config = SystemConfig(
            app="bluray", ddr=DdrGeneration.DDR3, clock_mhz=533,
            design=NocDesign.GSS_SAGM, sti=True, priority_enabled=True,
            cycles=25_000, warmup=2_000, seed=12880711122831582355,
            faults=FaultConfig.uniform(1e-2),
        )
        system = build_system(config)
        system.run()
        assert system.drain()
        controller = system.resilience
        assert controller.unresolved == 0
        assert controller.injected_total == (
            controller.corrected + controller.recovered + controller.failed_faults
        )

    def test_scheduled_link_fault_recovers_via_crc_retry(self):
        faults = FaultConfig(
            schedule=(ScheduledFault(600, FaultSite.LINK_CORRUPT),)
        )
        system, _, quiesced = self._run(faults)
        controller = system.resilience
        assert quiesced
        assert controller.injected_total == 1
        assert controller.recovered == 1
        assert controller.crc_retries >= 1
        assert controller.failed_requests == 0

    def test_zero_rate_protection_stack_does_not_perturb_results(self):
        # The full protection stack at rate zero must be behaviorally
        # invisible: identical metrics to a system built without it.
        config = SystemConfig(cycles=2_000, warmup=400, seed=2010)
        bare = build_system(config).run()
        with_stack = build_system(config.with_(faults=FaultConfig())).run()
        assert bare == with_stack
