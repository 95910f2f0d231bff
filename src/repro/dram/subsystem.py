"""The memory subsystem: one engine/device shell, five request fronts.

Every memory-arbiter backend is a :class:`MemorySubsystem`: an SDRAM
device, a :class:`~repro.dram.controller.CommandEngine` issuing at most
one command per cycle, and a *front* that queues admitted requests and
picks which one enters the engine window next.  The shell owns what the
backends share: admission accounting (``accepted`` and the always-on
``service_latency`` series, admission → final data beat), the tick
(front → engine → device), ``drain_finished``, the occupancy predicate
``quiescent`` and the refresh-aware event-dispatch bound
``next_event_cycle``.

A front offers ``can_accept`` / ``push`` / ``pop_next(cycle)`` /
``pending``, plus ``stats()`` (its own counters), ``latency_bound()``
(an analytic worst case, or ``None``) and ``release_cycle(cycle)`` (the
earliest cycle ``pop_next`` may release a queued request).  The five
backends, by the name :attr:`SystemConfig.arbiter` selects:

* ``engine`` — a :class:`FifoScheduler` in front of the paper's thin
  in-order controller: ``OPEN_PAGE`` BL 8 for the SDRAM-aware design [4]
  and plain GSS; ``PARTIALLY_OPEN`` driven by the SAGM auto-precharge
  tags for GSS+SAGM (the Fig. 6 controller: BL 4 mode on DDR I/II,
  BL 4/8 OTF on DDR III);
* ``memmax`` — the conventional design of Section V: a
  :class:`~repro.dram.memmax.MemMaxScheduler` 4-thread front over a
  Databahn lookahead engine, in :class:`ConvMemorySubsystem`;
* ``databahn`` — a :class:`FifoScheduler` over the Databahn engine;
* ``dpq`` — :class:`~repro.dram.dpq.DpqScheduler`, serial closed-page;
* ``bank-reg`` — :class:`~repro.dram.bankreg.BankRegulatedScheduler`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..sim.config import DdrGeneration, NocDesign, SystemConfig
from ..sim.stats import LatencySeries, StatsCollector
from .bankreg import BankRegulatedScheduler
from .controller import CommandEngine, FinishedRequest, PagePolicy
from .databahn import DATABAHN_LOOKAHEAD, DatabahnController
from .device import SdramDevice
from .dpq import DpqScheduler, serial_engine
from .memmax import MemMaxScheduler
from .request import MemoryRequest
from .timing import DramTiming


class FifoScheduler:
    """The in-order front: a bounded input FIFO, released in arrival order."""

    def __init__(self, capacity: int = 4) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.queue: Deque[MemoryRequest] = deque()

    def can_accept(self, request: MemoryRequest) -> bool:
        return len(self.queue) < self.capacity

    def push(self, request: MemoryRequest) -> None:
        if len(self.queue) >= self.capacity:
            raise RuntimeError("memory subsystem input queue full")
        self.queue.append(request)

    def pop_next(self, cycle: int) -> Optional[MemoryRequest]:
        return self.queue.popleft() if self.queue else None

    @property
    def pending(self) -> int:
        return len(self.queue)

    def release_cycle(self, cycle: int) -> int:
        return cycle + 1

    def latency_bound(self) -> Optional[int]:
        return None

    def stats(self) -> Dict[str, float]:
        return {}


class MemorySubsystem:
    """Front → command engine → device, with the service accounting."""

    def __init__(self, engine: CommandEngine, scheduler) -> None:
        self.device: SdramDevice = engine.device
        self.engine = engine
        self.scheduler = scheduler
        self.accepted = 0
        self.service_latency = LatencySeries()
        self._admitted_at: Dict[int, int] = {}

    def can_accept(self, request: MemoryRequest) -> bool:
        return self.scheduler.can_accept(request)

    def enqueue(self, request: MemoryRequest, cycle: int) -> None:
        self.scheduler.push(request)
        self.accepted += 1
        self._admitted_at[request.request_id] = cycle

    def tick(self, cycle: int) -> None:
        # ``engine.tick`` and ``scheduler.pop_next`` are looked up on every
        # call: profilers wrap them on the instances.
        while self.engine.has_space:
            request = self.scheduler.pop_next(cycle)
            if request is None:
                break
            self.engine.accept(request, cycle)
        self.engine.tick(cycle)
        self.device.tick(cycle)

    def drain_finished(self) -> List[FinishedRequest]:
        done = self.engine.drain_finished()
        if done:
            self._record_service(done)
        return done

    def _record_service(self, finished: List[FinishedRequest]) -> None:
        admitted = self._admitted_at
        for item in finished:
            start = admitted.pop(item.request.request_id, None)
            if start is not None:
                self.service_latency.record(item.data_ready_cycle - start)

    @property
    def quiescent(self) -> bool:
        """No queued work *and* no finished requests awaiting drain: apart
        from device accounting, :meth:`tick` would be a no-op."""
        engine = self.engine
        return (
            not self.scheduler.pending
            and not engine.entries
            and not engine.finished
        )

    @property
    def refresh(self):
        return self.engine.refresh

    def latency_bound(self) -> Optional[int]:
        """Analytic worst-case service latency, when the front has one."""
        return self.scheduler.latency_bound()

    def scheduler_stats(self) -> Dict[str, float]:
        series = self.service_latency
        stats: Dict[str, float] = {
            "service.count": float(series.count),
            "service.mean": series.mean,
            "service.p100": series.p100,
        }
        bound = self.latency_bound()
        if bound is not None:
            stats["service.bound"] = float(bound)
        stats["accepted"] = float(self.accepted)
        stats["demand_precharges"] = float(self.engine.demand_precharges)
        stats.update(self.scheduler.stats())
        return stats

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-dispatch: next cycle :meth:`tick` could do real work
        (``None`` = fully drained; only new admissions wake it).  With
        free window space, a queued front wakes at its ``release_cycle``
        (the next cycle, or a bank-reg window boundary); while requests
        wait in the window on SDRAM timing, this is the command engine's
        conservative-early next-attempt bound, so the controller sleeps
        through tRC/tRP/turnaround stalls instead of polling.  An enabled
        refresh wakes it at the due cycle even when nothing is queued."""
        engine = self.engine
        refresh = engine.refresh
        if refresh is not None and refresh.enabled:
            if refresh.due(cycle) or refresh.in_progress(cycle):
                # Refresh phases issue PREs / wait for quiet on sub-cycle
                # conditions; they are rare and short, so poll through.
                return cycle + 1
            due = refresh.next_due_cycle
        else:
            due = None
        if engine.finished:
            return cycle + 1
        nxt = None
        if self.scheduler.pending and engine.has_space:
            nxt = self.scheduler.release_cycle(cycle)
            if nxt <= cycle + 1:
                return cycle + 1
        if engine.entries:
            attempt = engine.next_attempt_cycle(cycle)
            if nxt is None or attempt < nxt:
                nxt = attempt
        if due is not None and (nxt is None or due < nxt):
            nxt = due
        return nxt

    def on_cycles_skipped(self, start: int, stop: int) -> None:
        self.device.on_cycles_skipped(start, stop)


class ConvMemorySubsystem(MemorySubsystem):
    """MemMax thread scheduler + Databahn lookahead controller (CONV).

    Beyond the arbitration itself, the thread-based pipeline costs latency:
    requests are decoded into per-thread request/data buffers, arbitrated,
    and handed to the Databahn, and read data is staged through the thread
    data buffers (store-and-forward) before re-entering the NoC.  That is
    modelled as ``PIPELINE_LATENCY`` fixed cycles plus the data-buffer
    store time of each read response — overhead the paper's thin Fig. 6
    subsystem avoids, and one reason CONV's memory latency is the worst of
    the compared designs (Tables I/II).
    """

    #: Fixed thread-pipeline cycles (ingress decode + arbitration + egress).
    PIPELINE_LATENCY = 12

    def drain_finished(self) -> List[FinishedRequest]:
        finished = []
        for item in self.engine.drain_finished():
            # request/response data staged through the thread data buffers
            staging = (item.request.beats + 1) // 2
            finished.append(
                FinishedRequest(
                    item.request,
                    item.data_ready_cycle + self.PIPELINE_LATENCY + staging,
                )
            )
        if finished:
            self._record_service(finished)
        return finished


# --------------------------------------------------------------------- #
# Backend builders
# --------------------------------------------------------------------- #

def build_engine_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> MemorySubsystem:
    """The paper's thin in-order controller; page policy and burst mode
    follow the NoC design."""
    if config.design.uses_sagm:
        if config.ddr is DdrGeneration.DDR3:
            # DDR III: BL 8 with BL4/BL8 on-the-fly for trailing chunks.
            burst, otf = 8, True
        else:
            # DDR I/II: device dropped to BL 4 mode via MRS.
            burst, otf = 4, False
        policy = PagePolicy.PARTIALLY_OPEN
    else:
        # [4] and plain GSS: thin in-order controller, BL 8, open page.
        burst, otf, policy = 8, False, PagePolicy.OPEN_PAGE
    # Short packets carry fewer data cycles each, so the PRE/RAS/CAS
    # pipeline holds proportionally more of them to keep the same
    # data-time lookahead (entries are a few address bits each — far
    # cheaper than the reorder buffers the design removes).
    depth = _window_for(timing, burst)
    engine = CommandEngine(
        device,
        burst_beats=burst,
        page_policy=policy,
        window=depth,
        otf=otf,
        tracer=tracer,
    )
    return MemorySubsystem(engine, FifoScheduler(max(2, depth // 2)))


def build_memmax_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> ConvMemorySubsystem:
    """MemMax 4-thread front-end over a Databahn lookahead engine —
    the CONV memory subsystem (Section V)."""
    return ConvMemorySubsystem(
        DatabahnController(device, tracer=tracer),
        MemMaxScheduler(priority_first=config.design.uses_pfs, tracer=tracer),
    )


def build_databahn_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> MemorySubsystem:
    """Databahn lookahead controller *without* the MemMax thread pipeline:
    deep open-page lookahead fed in arrival order.  Isolates the value of
    command lookahead from the thread-reorder front-end."""
    return MemorySubsystem(
        DatabahnController(device, tracer=tracer),
        FifoScheduler(max(2, DATABAHN_LOOKAHEAD // 2)),
    )


def build_dpq_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> MemorySubsystem:
    return MemorySubsystem(
        serial_engine(device, tracer=tracer), DpqScheduler(timing)
    )


def build_bankreg_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> MemorySubsystem:
    return MemorySubsystem(
        CommandEngine(device, burst_beats=8, tracer=tracer),
        BankRegulatedScheduler(),
    )


#: Backend name -> builder(config, device, timing, tracer).  The names
#: :attr:`SystemConfig.arbiter` and the CLI's ``--arbiter`` accept.
BACKENDS: Dict[str, Callable[..., MemorySubsystem]] = {
    "engine": build_engine_backend,
    "memmax": build_memmax_backend,
    "databahn": build_databahn_backend,
    "dpq": build_dpq_backend,
    "bank-reg": build_bankreg_backend,
}


def default_backend_for(design: NocDesign) -> str:
    """The design-matched backend: what Section V pairs with each NoC."""
    if design in (NocDesign.CONV, NocDesign.CONV_PFS):
        return "memmax"
    return "engine"


def build_memory_subsystem(
    config: SystemConfig, stats: Optional[StatsCollector] = None, tracer=None
):
    """Construct device + memory subsystem for ``config``.

    ``config.arbiter`` picks a backend from :data:`BACKENDS` by name;
    ``None`` — the default — resolves to the design-matched choice of
    Section V.
    """
    timing = DramTiming.for_clock(config.ddr, config.clock_mhz)
    device = SdramDevice(timing, stats=stats, tracer=tracer)
    name = (
        config.arbiter if config.arbiter is not None
        else default_backend_for(config.design)
    )
    return device, BACKENDS[name](config, device, timing, tracer)


#: Data-time the thin controller's PRE/RAS/CAS pipeline looks ahead, in
#: data-bus cycles; window entries = lookahead / burst data cycles.
PIPELINE_LOOKAHEAD_DATA_CYCLES = 16


def _window_for(timing: DramTiming, burst_beats: int) -> int:
    return max(4, PIPELINE_LOOKAHEAD_DATA_CYCLES // timing.burst_cycles(burst_beats))
