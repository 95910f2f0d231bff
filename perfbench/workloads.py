"""The benchmark's three operating points.

Each workload is one fully specified :class:`repro.sim.config.SystemConfig`
run for a fixed simulated horizon.  Traffic is a closed loop in simulated
time: every core stalls once it has ``max_outstanding = 4`` requests in
flight, so a slower memory path offers less load instead of growing an
unbounded queue.

A repetition runs ``STREAMS`` independent systems back to back: the
first with ``SystemConfig.seed`` = the harness seed, the others with seeds
derived from it.  The simulated outputs are averaged over the streams, as
``repro.experiments.runner.AveragedMetrics`` averages seeds: traffic seen
by one seed has persistent per-seed character (on ``conv_lookahead`` mean
latency varies by 10-15% between seeds at any single-seed horizon that
fits a run), and averaging four streams keeps the seed-to-seed spread
of every simulated output well under its bound.  Each stream runs its
horizon as back-to-back ``run(chunk)`` segments (bit-identical to one
long run); every segment is timed, and the host-speed metric is the
median segment rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.resilience.faults import FaultConfig
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig
from repro.sim.rng import derive_seed

DEFAULT_SEED = 2010
#: Independent systems per repetition (see the module docstring).
STREAMS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    settings: Dict[str, object]
    cycles: int      # simulated horizon of one stream
    chunk: int       # cycles per timed segment
    drain: bool      # drain to quiescence after the horizon

    def seeds(self, seed: int) -> List[int]:
        """``SystemConfig.seed`` of each stream for harness seed ``seed``."""
        return [seed] + [derive_seed(seed, "perfbench", stream)
                         for stream in range(1, STREAMS)]

    def config(self, seed: int) -> SystemConfig:
        return SystemConfig(
            cycles=self.cycles, warmup=2_000, seed=seed, **self.settings
        )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The Table II / Fig. 8 point.  The fabric never idles (0 jumped
    # cycles), so router plan/commit, the GSS filter cascade and the token
    # table dominate (network ticks are about 55% of tick time).
    # Stresses: noc.router, noc.flow, core.gss, core.sagm (4-beat split),
    # thin-controller dram.engine/device.  Bypasses: dram.memmax,
    # resilience, fast-forward.  Prediction: ROADMAP item 4 (incremental
    # Router.plan, GSS verdict reuse) raises sim_cycles_per_s here while
    # sim.dispatch_self_s does not move.
    Workload(
        name="gss_saturated",
        settings=dict(
            app="single_dtv", ddr=DdrGeneration.DDR2, clock_mhz=333,
            design=NocDesign.GSS_SAGM, priority_enabled=True,
        ),
        cycles=25_000, chunk=2_500, drain=False,
    ),
    # The conventional design: MemMax 4-thread front-end over a 6-deep
    # Databahn lookahead engine, round-robin routers.  The memory NI and
    # DRAM engine take about half of tick time and the kernel jumps about
    # 7% of cycles.  Stresses: noc.mem_ni, dram.memmax, dram.engine,
    # dram.device, event-kernel jumps.  Bypasses: core.gss (filter and
    # token table), core.sagm, resilience.  Predictions: every core.gss.*
    # and core.sagm.* span is zero here, and a GSS-side change leaves
    # sim_cycles_per_s unchanged here.
    Workload(
        name="conv_lookahead",
        settings=dict(
            app="dual_dtv", ddr=DdrGeneration.DDR2, clock_mhz=400,
            design=NocDesign.CONV,
        ),
        cycles=50_000, chunk=5_000, drain=False,
    ),
    # The same layers used differently: poisoned packets and CRC
    # retransmissions, ECC re-reads, 8-beat SAGM granularity, the STI
    # filter chain, and the InvariantChecker's on_cycle hook, which forces
    # the stepped dispatch tier (every core NI ticks every cycle).  Drained
    # to quiescence; the fault ledger must balance.  Stresses: resilience,
    # stepped dispatch, core.gss with STI.  Bypasses: dram.memmax,
    # fast-forward.  Predictions: a clean-path gain that costs retries
    # shows as a drop here; ROADMAP item 3 (one dispatch tier) moves
    # sim.ticks_per_cycle and sim.dispatch_self_s here.
    Workload(
        name="faulty_guarded",
        settings=dict(
            app="bluray", ddr=DdrGeneration.DDR3, clock_mhz=533,
            design=NocDesign.GSS_SAGM, sti=True, priority_enabled=True,
            faults=FaultConfig.uniform(1e-2), check_invariants=True,
        ),
        cycles=25_000, chunk=2_500, drain=True,
    ),
)}
