"""Shared factories for the test suite."""

from itertools import count

from repro.dram.request import MemoryRequest, ServiceClass

_ids = count(1)


def make_request(
    bank=0,
    row=0,
    column=0,
    beats=8,
    is_read=True,
    priority=False,
    demand=False,
    master=0,
    **kwargs,
):
    """Factory for MemoryRequests with sensible defaults."""
    return MemoryRequest(
        request_id=kwargs.pop("request_id", next(_ids)),
        master=master,
        bank=bank,
        row=row,
        column=column,
        beats=beats,
        is_read=is_read,
        service=ServiceClass.PRIORITY if priority else ServiceClass.BEST_EFFORT,
        is_demand=demand,
        **kwargs,
    )


def advance(mode: str, simulator, cycles: int) -> None:
    """Simulate ``cycles`` more cycles on one dispatch path: ``event`` and
    ``naive`` are single runs; ``stepped`` interleaves a manual
    :meth:`Simulator.step` with a 99-cycle event run, so every run entry
    follows a hand-stepped cycle."""
    if mode == "naive":
        simulator.idle_skip = False
    if mode != "stepped":
        simulator.run(cycles)
        return
    end = simulator.cycle + cycles
    while simulator.cycle < end:
        simulator.step()
        simulator.run(min(99, end - simulator.cycle))


def drive(subsystem, requests, max_cycles=50_000):
    """Feed ``requests`` into a memory subsystem as backpressure allows
    and tick it until it is quiescent; returns (finished, cycles)."""
    pending = list(requests)
    finished = []
    cycle = 0
    while (pending or not subsystem.quiescent) and cycle < max_cycles:
        while pending and subsystem.can_accept(pending[0]):
            subsystem.enqueue(pending.pop(0), cycle)
        subsystem.tick(cycle)
        finished.extend(subsystem.drain_finished())
        cycle += 1
    return finished, cycle
