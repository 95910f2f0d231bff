"""Absolute golden anchor: simulated outputs pinned to committed values.

``test_golden_identity`` checks that the dispatch paths agree with each
other; a model change that shifts every path equally passes it.  This
suite pins the outputs themselves: for each configuration below, the
canonical ``RunMetrics``, the final cycle, the SDRAM command count, the
memory backend's ``scheduler_stats`` (thread wins, DPQ grants, bank-reg
releases and throttles, demand precharges) and the full fault ledger
must equal the record in ``golden_metrics.json``
exactly, under event dispatch and under the naive oracle alike.  Each
run's SDRAM command stream is also replayed through the independent
``ProtocolChecker``, which must find no violation.

A change that is meant to move simulated numbers regenerates the file
with ``PYTHONPATH=src python tests/sim/test_golden_metrics.py --update``
and says why in CHANGES.md.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core.system import build_system
from repro.dram.protocol import ProtocolChecker
from repro.dram.subsystem import BACKENDS
from repro.dram.waveform import attach
from repro.resilience.faults import FaultConfig
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig

GOLDEN = Path(__file__).with_name("golden_metrics.json")
CYCLES = 5_000
WARMUP = 1_000


def _cases():
    base = SystemConfig(app="single_dtv", cycles=CYCLES, warmup=WARMUP)
    cases = {}
    for design in NocDesign:
        cases[f"single_dtv/{design.value}/clean"] = (
            base.with_(design=design), False)
        cases[f"single_dtv/{design.value}/faulty"] = (
            base.with_(design=design, faults=FaultConfig.uniform(1e-3)), False)
    for arbiter in sorted(BACKENDS):
        cases[f"single_dtv/gss+sagm/{arbiter}"] = (
            base.with_(design=NocDesign.GSS_SAGM, arbiter=arbiter), False)
        cases[f"single_dtv/gss+sagm/{arbiter}/faulty"] = (
            base.with_(design=NocDesign.GSS_SAGM, arbiter=arbiter,
                       faults=FaultConfig.uniform(1e-3)), False)
    cases["bluray/ddr3@533/gss+sagm+sti/1e-2/invariants/drained"] = (
        SystemConfig(
            app="bluray", ddr=DdrGeneration.DDR3, clock_mhz=533,
            design=NocDesign.GSS_SAGM, sti=True, priority_enabled=True,
            cycles=CYCLES, warmup=WARMUP,
            faults=FaultConfig.uniform(1e-2), check_invariants=True,
        ),
        True,
    )
    return cases


CASES = _cases()


def observe(config: SystemConfig, drain: bool, naive: bool):
    """One run: its system, its canonical record (JSON round-tripped)
    and its SDRAM command log."""
    system = build_system(config)
    system.simulator.idle_skip = not naive
    capture = attach(system.device)
    record = {
        "run_metrics": dataclasses.asdict(system.run()),
        "cycles": system.simulator.cycle,
        "dram_commands": system.device.issued_commands,
    }
    if drain:
        record["quiesced"] = system.drain()
        record["final_cycle"] = system.simulator.cycle
        record["final_dram_commands"] = system.device.issued_commands
    control = system.resilience
    if control is not None:
        record["ledger"] = {
            "injected": {site.value: count
                         for site, count in control.injector.injected.items()},
            "injected_total": control.injected_total,
            "corrected": control.corrected,
            "recovered": control.recovered,
            "failed_faults": control.failed_faults,
            "unresolved": control.unresolved,
            "crc_retries": control.crc_retries,
            "dram_rereads": control.dram_reread_count,
            "watchdog_reissues": control.watchdog_reissues,
            "failed_requests": control.failed_requests,
            "stale_responses": control.stale_responses,
        }
    if system.invariant_checker is not None:
        record["checks_run"] = system.invariant_checker.checks_run
    record["scheduler_stats"] = system.subsystem.scheduler_stats()
    record = json.loads(json.dumps(record, sort_keys=True))
    return system, record, capture.commands


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("dispatch", ["event", "naive"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_outputs_match_golden(label, dispatch):
    config, drain = CASES[label]
    system, observed, log = observe(config, drain, naive=dispatch == "naive")
    expected = _golden()[label]
    diffs = {
        key: (observed.get(key), expected.get(key))
        for key in set(observed) | set(expected)
        if observed.get(key) != expected.get(key)
    }
    assert not diffs, f"{label} ({dispatch}) moved off golden: {diffs}"
    assert len(log) == system.device.issued_commands
    violations = ProtocolChecker(system.timing).check(log)
    assert violations == [], (
        f"{label} ({dispatch}): {len(violations)} DRAM protocol violations, "
        f"first: {violations[0]}")


def _update() -> None:
    records = {label: observe(config, drain, naive=False)[1]
               for label, (config, drain) in CASES.items()}
    with open(GOLDEN, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_golden_metrics.py --update")
    _update()
