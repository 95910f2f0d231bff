"""Memory-arbiter backends: one subsystem shell, five fronts.

Every backend named in :data:`BACKENDS` builds one
:class:`MemorySubsystem` (the CONV one a :class:`ConvMemorySubsystem`)
whose front presents the full front surface.  Each must be reachable
both through ``SystemConfig.arbiter`` and through the design defaults,
and must honour the shell's event contract — including the refresh wake.
"""

import argparse

import pytest

from tests.helpers import drive, make_request
from repro.cli import _arbiter
from repro.dram.bankreg import BankRegulatedScheduler
from repro.dram.controller import PagePolicy
from repro.dram.dpq import DpqScheduler
from repro.dram.memmax import MemMaxScheduler
from repro.dram.refresh import RefreshTimer
from repro.dram.subsystem import (
    BACKENDS,
    ConvMemorySubsystem,
    FifoScheduler,
    MemorySubsystem,
    build_memory_subsystem,
    default_backend_for,
)
from repro.sim.config import NocDesign, SystemConfig

ALL_BACKENDS = ("bank-reg", "databahn", "dpq", "engine", "memmax")

#: What the shell asks of every front.
FRONT_MEMBERS = (
    "can_accept", "push", "pop_next", "pending",
    "release_cycle", "latency_bound", "stats",
)


def build_backend(name, design=NocDesign.GSS_SAGM):
    config = SystemConfig(design=design, arbiter=name)
    return build_memory_subsystem(config)[1]


class TestRegistry:
    def test_builtins_registered(self):
        assert sorted(BACKENDS) == list(ALL_BACKENDS)

    def test_resolve_unknown_lists_backends(self):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _arbiter("tdm")
        message = str(excinfo.value)
        for name in ALL_BACKENDS:
            assert name in message

    def test_default_backend_for(self):
        assert default_backend_for(NocDesign.CONV) == "memmax"
        assert default_backend_for(NocDesign.CONV_PFS) == "memmax"
        for design in (
            NocDesign.SDRAM_AWARE, NocDesign.GSS, NocDesign.GSS_SAGM
        ):
            assert default_backend_for(design) == "engine"


class TestConformance:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_full_member_surface(self, name):
        backend = build_backend(name)
        assert isinstance(backend, MemorySubsystem)
        assert backend.device is backend.engine.device
        for member in FRONT_MEMBERS:
            assert hasattr(backend.scheduler, member), f"{name} lacks {member}"

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_serves_traffic_and_reports_stats(self, name):
        backend = build_backend(name)
        requests = [
            make_request(master=i % 4, bank=i % 8, row=i, beats=8)
            for i in range(6)
        ]
        finished, _ = drive(backend, requests, max_cycles=20_000)
        assert len(finished) == 6, f"{name} completed {len(finished)}/6"
        stats = backend.scheduler_stats()
        assert stats["service.count"] == 6
        assert stats["service.p100"] >= stats["service.mean"] > 0
        assert stats["accepted"] == 6
        assert "demand_precharges" in stats
        assert backend.quiescent

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_event_contract_idle_none(self, name):
        backend = build_backend(name)
        assert backend.next_event_cycle(0) is None
        backend.on_cycles_skipped(0, 100)  # must be a safe no-op when idle
        assert backend.quiescent

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_refresh_wakes_an_idle_backend(self, name):
        backend = build_backend(name)
        backend.engine.refresh = RefreshTimer(backend.device.timing)
        due = backend.refresh.next_due_cycle
        assert backend.next_event_cycle(0) == due

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_next_event_soon_after_enqueue(self, name):
        backend = build_backend(name)
        backend.enqueue(make_request(beats=8), 0)
        wake = backend.next_event_cycle(0)
        assert wake is not None and wake >= 1

    def test_only_dpq_has_a_bound(self):
        for name in ALL_BACKENDS:
            backend = build_backend(name)
            backend.enqueue(make_request(beats=8), 0)
            bound = backend.latency_bound()
            if name == "dpq":
                assert bound is not None and bound > 0
            else:
                assert bound is None


class TestBuilderRouting:
    def test_none_arbiter_routes_by_design(self):
        _, conv = build_memory_subsystem(SystemConfig(design=NocDesign.CONV))
        assert isinstance(conv, ConvMemorySubsystem)
        assert isinstance(conv.scheduler, MemMaxScheduler)
        _, sagm = build_memory_subsystem(
            SystemConfig(design=NocDesign.GSS_SAGM)
        )
        assert type(sagm) is MemorySubsystem
        assert isinstance(sagm.scheduler, FifoScheduler)
        assert sagm.engine.page_policy is PagePolicy.PARTIALLY_OPEN

    def test_explicit_arbiter_overrides_design_default(self):
        backend = build_backend("memmax", design=NocDesign.GSS_SAGM)
        assert isinstance(backend, ConvMemorySubsystem)
        assert not backend.scheduler.priority_first
        backend = build_backend("dpq", design=NocDesign.CONV)
        assert isinstance(backend.scheduler, DpqScheduler)

    def test_memmax_backend_honours_pfs(self):
        backend = build_backend("memmax", design=NocDesign.CONV_PFS)
        assert backend.scheduler.priority_first

    def test_bankreg_backend_type(self):
        backend = build_backend("bank-reg")
        assert isinstance(backend.scheduler, BankRegulatedScheduler)

    def test_databahn_backend_matches_design_path(self):
        explicit = build_backend("databahn", design=NocDesign.GSS_SAGM)
        assert isinstance(explicit.scheduler, FifoScheduler)
        assert type(explicit.engine).__name__ == "DatabahnController"

    def test_dpq_closed_page_serial_engine(self):
        backend = build_backend("dpq")
        assert backend.engine.page_policy is PagePolicy.CLOSED_PAGE
        assert backend.engine.window_size == 1
