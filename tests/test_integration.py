"""Cross-module integration tests: full-system invariants.

These exercise the complete stack — generators, SAGM, wormhole mesh, GSS
flow control, memory subsystem, SDRAM device — and check conservation and
behavioural properties that no single module can guarantee alone.
"""

import pytest

from repro.core.system import build_system
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig


def run_system(design, cycles=4_000, **overrides):
    config = SystemConfig(
        app=overrides.pop("app", "single_dtv"),
        design=design,
        cycles=cycles,
        warmup=overrides.pop("warmup", 500),
        **overrides,
    )
    system = build_system(config)
    metrics = system.run()
    return system, metrics


class TestConservation:
    @pytest.mark.parametrize("design", [
        NocDesign.CONV, NocDesign.SDRAM_AWARE, NocDesign.GSS_SAGM,
    ])
    def test_system_drains_when_generation_stops(self, design):
        """Every issued request eventually completes once cores go quiet:
        no packet is lost anywhere in the NoC or the memory pipeline."""
        system, _ = run_system(design, cycles=3_000)
        for core in system.cores:
            core.spec.max_outstanding = 0  # stop issuing
        for extra in range(10_000):
            system.simulator.step()
            if (
                all(ci.outstanding == 0 for ci in system.core_interfaces)
                and system.memory_interface.idle
                and system.network.in_flight_packets == 0
            ):
                break
        assert all(ci.outstanding == 0 for ci in system.core_interfaces)
        issued = sum(core.issued for core in system.cores)
        completed = sum(core.completed for core in system.cores)
        assert issued == completed

    def test_completions_match_interfaces(self):
        system, metrics = run_system(NocDesign.GSS_SAGM)
        ni_completions = sum(ci.completed_requests for ci in system.core_interfaces)
        core_completions = sum(core.completed for core in system.cores)
        assert ni_completions == core_completions

    def test_every_admitted_request_answered(self):
        system, _ = run_system(NocDesign.SDRAM_AWARE)
        mi = system.memory_interface
        # responses sent can lag admissions only by the in-flight window
        assert mi.responses_sent <= mi.admitted
        assert mi.admitted - mi.responses_sent < 40


class TestMetricsSanity:
    @pytest.mark.parametrize("design", list(NocDesign))
    def test_utilization_bounded(self, design):
        _, metrics = run_system(design)
        assert 0.0 < metrics.utilization <= 1.0
        assert metrics.utilization <= metrics.raw_utilization + 1e-9

    def test_sagm_reduces_waste(self):
        _, plain = run_system(NocDesign.GSS)
        _, sagm = run_system(NocDesign.GSS_SAGM)
        waste_plain = plain.raw_utilization - plain.utilization
        waste_sagm = sagm.raw_utilization - sagm.utilization
        assert waste_sagm < waste_plain

    def test_sagm_boosts_row_hits(self):
        _, plain = run_system(NocDesign.GSS)
        _, sagm = run_system(NocDesign.GSS_SAGM)
        assert sagm.row_hit_rate > plain.row_hit_rate

    def test_latency_floor_physical(self):
        """No request can complete faster than the DRAM access itself."""
        system, metrics = run_system(NocDesign.GSS_SAGM)
        timing = system.timing
        floor = timing.t_rcd + timing.cas_latency
        assert metrics.latency_all > floor


class TestPriorityService:
    def test_gss_priority_beats_best_effort(self):
        """Under GSS with priority enabled, demand packets are served
        faster than the average packet."""
        _, metrics = run_system(
            NocDesign.GSS_SAGM, cycles=8_000, warmup=1_500,
            priority_enabled=True, app="bluray",
        )
        assert metrics.latency_demand < metrics.latency_all * 1.05

    def test_priority_disabled_no_preference(self):
        _, with_pri = run_system(
            NocDesign.GSS, cycles=6_000, warmup=1_000, priority_enabled=True,
            app="bluray",
        )
        _, without = run_system(
            NocDesign.GSS, cycles=6_000, warmup=1_000, priority_enabled=False,
            app="bluray",
        )
        # enabling priority should not hurt demand latency
        assert with_pri.latency_demand <= without.latency_demand * 1.15


class TestDdrGenerations:
    @pytest.mark.parametrize("ddr,clock", [
        (DdrGeneration.DDR1, 133),
        (DdrGeneration.DDR2, 266),
        (DdrGeneration.DDR3, 533),
    ])
    def test_all_generations_run(self, ddr, clock):
        _, metrics = run_system(
            NocDesign.GSS_SAGM, app="bluray", ddr=ddr, clock_mhz=clock,
        )
        assert metrics.completed > 50

    def test_higher_clock_longer_cycles_latency(self):
        """Fixed analog latencies cost more cycles at higher clocks —
        the paper's across-generation latency trend."""
        _, low = run_system(NocDesign.SDRAM_AWARE, app="bluray",
                            ddr=DdrGeneration.DDR1, clock_mhz=133,
                            cycles=6_000, warmup=1_000)
        _, high = run_system(NocDesign.SDRAM_AWARE, app="bluray",
                             ddr=DdrGeneration.DDR3, clock_mhz=533,
                             cycles=6_000, warmup=1_000)
        assert high.latency_all > low.latency_all


class TestPartialDeployment:
    def test_more_gss_routers_never_crashes(self):
        for k in (0, 1, 3, 9):
            _, metrics = run_system(
                NocDesign.GSS_SAGM, num_gss_routers=k, priority_enabled=True,
                cycles=2_500, warmup=400,
            )
            assert metrics.completed > 10

    def test_full_equals_explicit_max(self):
        _, implicit = run_system(NocDesign.GSS, cycles=2_500, warmup=400)
        _, explicit = run_system(NocDesign.GSS, num_gss_routers=9,
                                 cycles=2_500, warmup=400)
        assert implicit == explicit


def test_building_and_running_imports_no_numpy():
    """The package is pure Python: a fresh interpreter that builds and
    runs a system (faults and invariant checking included) never imports
    numpy."""
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys\n"
        "from repro import SystemConfig, build_system\n"
        "from repro.resilience.faults import FaultConfig\n"
        "build_system(SystemConfig(cycles=300, warmup=0, check_invariants=True,"
        " faults=FaultConfig.uniform(1e-3))).run()\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))
