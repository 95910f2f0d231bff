"""Memory subsystem assembly tests."""

import pytest

from tests.helpers import drive, make_request
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.databahn import DatabahnController
from repro.dram.device import SdramDevice
from repro.dram.memmax import MemMaxScheduler
from repro.dram.subsystem import (
    ConvMemorySubsystem,
    FifoScheduler,
    MemorySubsystem,
    build_memory_subsystem,
)
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig


def thin(timing, capacity=4):
    """The thin in-order controller: a FIFO front over a BL 8 engine."""
    engine = CommandEngine(SdramDevice(timing), burst_beats=8)
    return MemorySubsystem(engine, FifoScheduler(capacity))


def conv(timing):
    device = SdramDevice(timing)
    return ConvMemorySubsystem(DatabahnController(device), MemMaxScheduler())


class TestThinSubsystem:
    def test_serves_batch_in_order(self, ddr2_timing):
        subsystem = thin(ddr2_timing)
        requests = [make_request(bank=i % 4, row=i, beats=8) for i in range(10)]
        ids = [r.request_id for r in requests]
        finished, _ = drive(subsystem, requests)
        assert [f.request.request_id for f in finished] == ids

    def test_backpressure_when_full(self, ddr2_timing):
        subsystem = thin(ddr2_timing, capacity=2)
        subsystem.enqueue(make_request(), 0)
        subsystem.enqueue(make_request(), 0)
        assert not subsystem.can_accept(make_request())
        with pytest.raises(RuntimeError):
            subsystem.enqueue(make_request(), 0)

    def test_input_capacity_positive(self, ddr2_timing):
        with pytest.raises(ValueError):
            FifoScheduler(0)

    def test_idle_reflects_pending_work(self, ddr2_timing):
        subsystem = thin(ddr2_timing)
        assert subsystem.quiescent
        subsystem.enqueue(make_request(), 0)
        assert not subsystem.quiescent


class TestConvSubsystem:
    def test_serves_batch(self, ddr2_timing):
        subsystem = conv(ddr2_timing)
        requests = [make_request(master=i % 4, bank=i % 8, beats=8)
                    for i in range(12)]
        finished, _ = drive(subsystem, requests)
        assert len(finished) == 12

    def test_pipeline_latency_added(self, ddr2_timing):
        thin_done, _ = drive(thin(ddr2_timing), [make_request(beats=8)])
        conv_done, _ = drive(conv(ddr2_timing), [make_request(beats=8)])
        extra = conv_done[0].data_ready_cycle - thin_done[0].data_ready_cycle
        staging = (8 + 1) // 2
        assert extra == ConvMemorySubsystem.PIPELINE_LATENCY + staging

    def test_large_write_admitted(self, ddr2_timing):
        subsystem = conv(ddr2_timing)
        big = make_request(is_read=False, beats=64)
        assert subsystem.can_accept(big)
        finished, _ = drive(subsystem, [big])
        assert len(finished) == 1


class TestBuilder:
    def test_conv_designs_get_memmax(self):
        config = SystemConfig(design=NocDesign.CONV)
        _, subsystem = build_memory_subsystem(config)
        assert isinstance(subsystem, ConvMemorySubsystem)
        assert not subsystem.scheduler.priority_first

    def test_conv_pfs_enables_priority(self):
        config = SystemConfig(design=NocDesign.CONV_PFS)
        _, subsystem = build_memory_subsystem(config)
        assert subsystem.scheduler.priority_first

    def test_sdram_aware_gets_thin_open_page(self):
        config = SystemConfig(design=NocDesign.SDRAM_AWARE)
        _, subsystem = build_memory_subsystem(config)
        assert isinstance(subsystem.scheduler, FifoScheduler)
        assert subsystem.engine.page_policy is PagePolicy.OPEN_PAGE
        assert subsystem.engine.burst_beats == 8

    def test_sagm_ddr2_uses_bl4_partially_open(self):
        config = SystemConfig(design=NocDesign.GSS_SAGM, ddr=DdrGeneration.DDR2)
        _, subsystem = build_memory_subsystem(config)
        assert subsystem.engine.burst_beats == 4
        assert subsystem.engine.page_policy is PagePolicy.PARTIALLY_OPEN
        assert not subsystem.engine.otf

    def test_sagm_ddr3_uses_otf(self):
        config = SystemConfig(
            design=NocDesign.GSS_SAGM, ddr=DdrGeneration.DDR3, clock_mhz=800
        )
        _, subsystem = build_memory_subsystem(config)
        assert subsystem.engine.burst_beats == 8
        assert subsystem.engine.otf

    def test_sagm_window_scaled_by_data_time(self):
        bl4 = build_memory_subsystem(
            SystemConfig(design=NocDesign.GSS_SAGM, ddr=DdrGeneration.DDR2)
        )[1]
        bl8 = build_memory_subsystem(
            SystemConfig(design=NocDesign.GSS, ddr=DdrGeneration.DDR2)
        )[1]
        assert bl4.engine.window_size == 2 * bl8.engine.window_size
