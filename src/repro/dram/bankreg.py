"""Per-bank memory bandwidth regulation.

After Sullivan et al. (arXiv 2603.26054): interference between masters
in a shared SDRAM is dominated by *bank* contention, so regulating each
master's bandwidth per bank — not just in aggregate — isolates masters
from each other's row-conflict storms.  Each (master, bank) pair holds a
beat budget that replenishes every regulation window; a master whose
head request would overdraw its budget for the addressed bank is stalled
until the next window, while other masters (or the same master on other
banks) keep flowing.

:class:`BankRegulatedScheduler` is the request front of a
:class:`~repro.dram.subsystem.MemorySubsystem`.  It keeps a private FIFO
per master and releases head requests round-robin into the shell's
open-page :class:`~repro.dram.controller.CommandEngine` (the same engine
the paper's thin subsystem uses), charging ``request.beats`` against the
``(master, bank)`` budget at release time.  While every queued head is
over budget, the next window boundary is the front's only wake.

Replenishment is *lazy*: budgets are keyed by the window epoch
``cycle // window_cycles`` and the spent-table is cleared whenever the
epoch advances, so the scheme is fast-forward-safe — jumping ten windows
of idle cycles needs no per-window bookkeeping.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .request import MemoryRequest

#: Regulation window length, cycles.
REG_WINDOW_CYCLES = 256

#: Beats each (master, bank) pair may move per window.  At 2 beats per
#: cycle a window carries 512 beats of raw bus capacity; 64 per pair
#: caps any one master at an eighth of it on any one bank, while leaving
#: well-spread traffic unthrottled.
REG_BUDGET_BEATS = 64

#: Per-master FIFO depth.
REG_QUEUE_CAPACITY = 8


class BankRegulatedScheduler:
    """Round-robin release gated by per-(master, bank) beat budgets."""

    def __init__(
        self,
        window_cycles: int = REG_WINDOW_CYCLES,
        budget_beats: int = REG_BUDGET_BEATS,
        queue_capacity: int = REG_QUEUE_CAPACITY,
    ) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if budget_beats <= 0:
            raise ValueError("budget_beats must be positive")
        if queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        self.window_cycles = window_cycles
        self.budget_beats = budget_beats
        self.queue_capacity = queue_capacity
        self.queues: Dict[int, Deque[MemoryRequest]] = {}
        #: round-robin order over masters (first-seen order).
        self.order: List[int] = []
        self._rr_offset = 0
        #: beats charged in the current window, keyed by (master, bank).
        self.spent: Dict[Tuple[int, int], int] = {}
        self._epoch = 0
        self.releases = 0
        self.throttled_releases = 0

    def can_accept(self, request: MemoryRequest) -> bool:
        queue = self.queues.get(request.master)
        return queue is None or len(queue) < self.queue_capacity

    def push(self, request: MemoryRequest) -> None:
        queue = self.queues.get(request.master)
        if queue is None:
            queue = self.queues[request.master] = deque()
            self.order.append(request.master)
        if len(queue) >= self.queue_capacity:
            raise RuntimeError("regulator master queue full")
        queue.append(request)

    @property
    def pending(self) -> int:
        return sum(len(queue) for queue in self.queues.values())

    def _refill(self, cycle: int) -> None:
        epoch = cycle // self.window_cycles
        if epoch != self._epoch:
            self._epoch = epoch
            self.spent.clear()

    def _within_budget(self, request: MemoryRequest) -> bool:
        """A fresh budget always admits at least one request (even one
        larger than the whole budget — it then overdraws and blocks the
        pair for the rest of the window), so every head is guaranteed to
        release by the next window boundary: no starvation."""
        key = (request.master, request.bank)
        spent = self.spent.get(key, 0)
        return spent == 0 or spent + request.beats <= self.budget_beats

    def pop_next(self, cycle: int) -> Optional[MemoryRequest]:
        """Next head request within budget, round-robin over masters.
        A budget-blocked head stalls only its own master; the scan keeps
        going, so one master's storm cannot dam the others."""
        self._refill(cycle)
        order = self.order
        count = len(order)
        for step in range(count):
            master = order[(self._rr_offset + step) % count]
            queue = self.queues[master]
            if not queue:
                continue
            head = queue[0]
            if not self._within_budget(head):
                self.throttled_releases += 1
                continue
            queue.popleft()
            key = (head.master, head.bank)
            self.spent[key] = self.spent.get(key, 0) + head.beats
            self.releases += 1
            self._rr_offset = (self._rr_offset + step + 1) % count
            return head
        return None

    def release_cycle(self, cycle: int) -> int:
        """Budget-blocked heads wake at the next window boundary, the
        only instant their budget can change."""
        self._refill(cycle)
        for queue in self.queues.values():
            if queue and self._within_budget(queue[0]):
                return cycle + 1
        return (cycle // self.window_cycles + 1) * self.window_cycles

    def latency_bound(self) -> Optional[int]:
        return None

    def stats(self) -> Dict[str, float]:
        return {
            "releases": float(self.releases),
            "throttled_releases": float(self.throttled_releases),
            "masters": float(len(self.queues)),
        }
