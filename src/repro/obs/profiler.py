"""Wall-clock profiling of the simulation kernel itself.

The ROADMAP's "as fast as the hardware allows" goal needs attribution
before optimization: which component *class* burns the Python time, and
does its share drift as buffers fill?  :class:`SimulatorProfiler` plugs
into :meth:`repro.sim.engine.Simulator.attach_profiler` and times every
``tick`` call, aggregating per component class and per N-cycle window —
behavioral tracing tells you where packets wait, this tells you where the
*simulator* waits.

The engine calls :meth:`SimulatorProfiler.timed_tick` in place of each
plain tick call, so the unprofiled hot loop stays untouched (zero
overhead when detached) and a profiled run executes exactly the ticks an
unprofiled one does.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Tuple


class SimulatorProfiler:
    """Per-component-class wall-time accounting, in N-cycle windows."""

    def __init__(self, window_cycles: int = 1_000) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = window_cycles
        self.totals: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Closed windows: (first_cycle, {label: seconds}).
        self.windows: List[Tuple[int, Dict[str, float]]] = []
        self._window_start: int = 0
        self._window_totals: Dict[str, float] = {}
        self.cycles_profiled = 0

    # ------------------------------------------------------------------ #
    # Engine-facing: called instead of each plain tick
    # ------------------------------------------------------------------ #

    def timed_tick(
        self, label: str, tick: Callable[[int], None], cycle: int
    ) -> None:
        """Run and time one ``tick``.

        Event dispatch only runs the components actually due a cycle, so
        attribution covers exactly the work performed: skipped components
        contribute no calls (their absence *is* the speedup).  The engine
        closes each processed cycle with :meth:`end_cycle`."""
        start = perf_counter()
        tick(cycle)
        elapsed = perf_counter() - start
        self.totals[label] = self.totals.get(label, 0.0) + elapsed
        self.calls[label] = self.calls.get(label, 0) + 1
        window = self._window_totals
        window[label] = window.get(label, 0.0) + elapsed

    def end_cycle(self, cycle: int) -> None:
        """Close one *processed* cycle (cycles the event kernel jumped do
        not count: no work ran in them)."""
        self.cycles_profiled += 1
        if self.cycles_profiled % self.window_cycles == 0:
            self._roll_window(cycle + 1)

    def _roll_window(self, next_start: int) -> None:
        if self._window_totals:
            self.windows.append((self._window_start, self._window_totals))
        self._window_start = next_start
        self._window_totals = {}

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def total_seconds(self) -> float:
        return sum(self.totals.values())

    def shares(self) -> Dict[str, float]:
        """Fraction of measured wall time per component class."""
        total = self.total_seconds
        if total <= 0:
            return {label: 0.0 for label in self.totals}
        return {label: value / total for label, value in self.totals.items()}

    def report(self, windows: int = 3) -> str:
        """Share table plus the ``windows`` most recent per-window rows."""
        total = self.total_seconds
        lines = [
            f"simulator profile: {self.cycles_profiled} cycles, "
            f"{total:.3f}s measured"
            + (
                f" ({self.cycles_profiled / total:,.0f} cycles/s)"
                if total > 0 else ""
            ),
            f"{'component class':<24s} {'share':>7s} {'seconds':>9s} "
            f"{'calls':>9s} {'us/call':>8s}",
        ]
        shares = self.shares()
        for label in sorted(self.totals, key=self.totals.get, reverse=True):
            seconds = self.totals[label]
            calls = self.calls[label]
            per_call = seconds / calls * 1e6 if calls else 0.0
            lines.append(
                f"{label:<24s} {shares[label]:>6.1%} {seconds:>9.3f} "
                f"{calls:>9d} {per_call:>8.1f}"
            )
        recent = self.windows[-windows:]
        if recent:
            lines.append("")
            lines.append(
                f"per-{self.window_cycles}-cycle windows "
                "(seconds by component class):"
            )
            for start, window_totals in recent:
                busiest = sorted(
                    window_totals.items(), key=lambda kv: kv[1], reverse=True
                )[:3]
                row = ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in busiest)
                lines.append(f"  cycle {start:>8d}+: {row}")
        return "\n".join(lines)
