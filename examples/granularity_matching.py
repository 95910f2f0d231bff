"""SAGM demonstration: access-granularity mismatch and its fix.

Part 1 recreates Fig. 2 / Fig. 5 at the device level: a stream of 8-byte
codec requests against a DDR II device in BL 8 mode wastes three quarters
of every burst, while the SAGM configuration (BL 4 mode + auto-precharge)
moves only requested data and needs no PRE command slots.

Part 2 shows the split plans of Section IV-C (the paper's 'BL 9' example)
and the end-to-end effect: the same Blu-ray system simulated with GSS
alone and with GSS+SAGM.

Run with::

    python examples/granularity_matching.py
"""

from itertools import count

from repro import DdrGeneration, NocDesign, SystemConfig, run_config
from repro.core.sagm import SagmSplitter, split_plan
from repro.dram import (
    CommandEngine,
    DramTiming,
    FifoScheduler,
    MemoryRequest,
    MemorySubsystem,
    PagePolicy,
    SdramDevice,
)
from repro.sim.stats import StatsCollector


def drive_device(burst_beats: int, page_policy: PagePolicy, ap_tags: bool):
    """Run 32 eight-byte (2-beat) codec reads through a bare subsystem."""
    stats = StatsCollector()
    timing = DramTiming.for_clock(DdrGeneration.DDR2, 333)
    device = SdramDevice(timing, stats=stats)
    engine = CommandEngine(
        device, burst_beats=burst_beats, page_policy=page_policy
    )
    subsystem = MemorySubsystem(engine, FifoScheduler())
    ids = count()
    pending = [
        MemoryRequest(
            request_id=next(ids), master=0, bank=i % 4, row=i // 16,
            column=(i * 16) % 1024, beats=2, is_read=True, ap_tag=ap_tags,
        )
        for i in range(32)
    ]
    cycle = 0
    done = 0
    while done < 32 and cycle < 5_000:
        if pending and subsystem.can_accept(pending[0]):
            subsystem.enqueue(pending.pop(0), cycle)
        subsystem.tick(cycle)
        done += len(subsystem.drain_finished())
        cycle += 1
    return stats, cycle


def main() -> None:
    print("Part 1 — device-level granularity mismatch (32 x 8-byte reads)")
    for label, burst, policy, tags in [
        ("BL 8 mode (CONV / [4])", 8, PagePolicy.OPEN_PAGE, False),
        ("BL 4 mode + AP (SAGM)", 4, PagePolicy.PARTIALLY_OPEN, True),
    ]:
        stats, cycles = drive_device(burst, policy, tags)
        print(
            f"  {label:24s} useful beats={stats.useful_beats:4d} "
            f"wasted={stats.wasted_beats:4d} "
            f"PRE commands={stats.commands_issued.get('PRE', 0):2d} "
            f"cycles={cycles}"
        )

    print("\nPart 2 — Section IV-C split plans (sizes in beats)")
    for ddr in DdrGeneration:
        gran = ddr.sagm_granularity_beats
        print(f"  {ddr.value}: 18-beat packet -> {split_plan(18, gran)}")

    splitter = SagmSplitter(DdrGeneration.DDR2)
    ids = count(100)
    parent = MemoryRequest(request_id=1, master=0, bank=0, row=0, column=1006,
                           beats=18, is_read=True)
    parts = splitter.split(parent, ids)
    print(f"  split of {parent}:")
    for part in parts:
        print(f"    {part}")

    print("\nPart 3 — end-to-end effect on the Blu-ray system (DDR II, 266 MHz)")
    for design in (NocDesign.GSS, NocDesign.GSS_SAGM):
        metrics = run_config(SystemConfig(
            app="bluray", ddr=DdrGeneration.DDR2, clock_mhz=266,
            design=design, cycles=15_000, warmup=2_500,
        ))
        print(
            f"  {design.value:10s} utilization={metrics.utilization:.3f} "
            f"(bus occupancy {metrics.raw_utilization:.3f}) "
            f"latency={metrics.latency_all:.1f} "
            f"row-hit rate={metrics.row_hit_rate:.2f}"
        )


if __name__ == "__main__":
    main()
