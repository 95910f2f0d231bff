"""Outside-in per-layer spans for a built :class:`repro.core.system.SocSystem`.

Nothing under ``src/`` is edited.  Spans come from two places:

* :class:`SpanProfiler`, passed to ``Simulator.attach_profiler``, opens the
  parent span of every component tick (core NIs, network, memory NI,
  resilience controller, watchdog) and of the ``on_cycle`` hooks;
* :func:`instrument` replaces public bound methods on the built instances
  (``router.plan``, each output controller's ``pick``, the GSS scheduler's
  ``pick`` and token-table ``on_arrival``, ``SagmSplitter.split``,
  ``SyntheticCore.generate``, the subsystem/engine ``tick``, MemMax
  ``pop_next``, ``SdramDevice.issue``/``issue_vetted``) with timing
  wrappers.  Callers reach these methods through instance attributes, so
  an instance attribute shadows the class method for exactly that object.

Every span records name, start, end, parent and cycle in column arrays;
the run it belongs to is the block it is written in.  Spans stay in
memory until the run ends, then :meth:`SpanRecorder.write` appends one
block to a file::

    b"PBSPANS1\\n" once, then per run:
    one JSON header line {"run", "workload", "seed", "count", "names",
                          "columns": [[name, typecode], ...]}
    followed by the raw native-endian bytes of each column, in order.

Self time is a span's duration minus its children's durations; tracing
cost spent between a parent's clock reads and its children's lands in the
parent's self time.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.gss_flow_control import GssFlowController
from repro.dram.memmax import MemMaxScheduler

#: Component class name -> span name of its tick.
TICK_SPANS = {
    "CoreInterface": "noc.core_ni",
    "MeshNetwork": "noc.network",
    "MemoryInterface": "noc.mem_ni",
    "ResilienceController": "resilience.controller",
    "RequestWatchdog": "resilience.watchdog",
}
#: The only ``on_cycle`` hook a built SocSystem registers is the
#: InvariantChecker's (``check_invariants=True``).
HOOK_SPAN = "resilience.invariants"

COLUMNS = (("name", "H"), ("parent", "i"), ("cycle", "q"),
           ("start", "d"), ("end", "d"))


class SpanRecorder:
    """In-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.cycle_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Cycle being processed (set by the profiler at each tick).
        self.cycle = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, nid: int, fn: Callable, args: tuple):
        """Call ``fn(*args)`` inside a span named ``names[nid]``."""
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.cycle_of.append(self.cycle)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.start[index] = start
            self.end[index] = end

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[tuple, object], None]] = None):
        """A stand-in for the bound method ``fn`` that records a span per
        call and hands ``(args, result)`` to ``observe`` afterwards."""
        nid = self.name_id(name)
        span = self.span
        if observe is None:
            def traced(*args):
                return span(nid, fn, args)
        else:
            def traced(*args):
                result = span(nid, fn, args)
                observe(args, result)
                return result
        return traced

    # ------------------------------------------------------------------ #

    def summarize(self) -> Tuple[Dict[str, int], Dict[str, float],
                                 Dict[str, float], float]:
        """Per-name (calls, total seconds, self seconds) and the summed
        duration of root spans."""
        count = len(self.start)
        starts, ends = self.start, self.end
        parents, names = self.parent, self.name
        child = array("d", bytes(8 * count))
        roots = 0.0
        for index in range(count):
            duration = ends[index] - starts[index]
            parent = parents[index]
            if parent >= 0:
                child[parent] += duration
            else:
                roots += duration
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for index in range(count):
            nid = names[index]
            duration = ends[index] - starts[index]
            calls[nid] += 1
            total[nid] += duration
            own[nid] += duration - child[index]
        return (
            dict(zip(self.names, calls)),
            dict(zip(self.names, total)),
            dict(zip(self.names, own)),
            roots,
        )

    def write(self, path: str, header: Dict[str, object], fresh: bool) -> None:
        """Append this run's spans as one block (see module docstring)."""
        columns = (self.name, self.parent, self.cycle_of, self.start, self.end)
        meta = dict(header, count=len(self.start), names=self.names,
                    columns=[list(c) for c in COLUMNS])
        with open(path, "wb" if fresh else "ab") as out:
            if fresh:
                out.write(b"PBSPANS1\n")
            out.write(json.dumps(meta).encode() + b"\n")
            for column in columns:
                column.tofile(out)


class SpanProfiler:
    """``Simulator.attach_profiler`` object opening one span per component
    tick.  Implements the engine's profiler protocol: ``timed_tick`` and
    ``end_cycle`` on the event tier, ``step`` on the stepped tier."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._ids: Dict[str, int] = {}
        self._hook_id = recorder.name_id(HOOK_SPAN)
        #: (idle check or None, tick, span id) per component, stepped tier.
        self._plan: Optional[List[tuple]] = None

    def _tick_id(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = self.recorder.name_id(
                TICK_SPANS.get(label, "sim.other." + label)
            )
        return nid

    def timed_tick(self, label: str, tick: Callable[[int], None],
                   cycle: int) -> None:
        self.recorder.cycle = cycle
        self.recorder.span(self._tick_id(label), tick, (cycle,))

    def end_cycle(self, cycle: int) -> None:
        """Nothing to close: every span ended with its tick."""

    def step(self, components, hooks, cycle: int) -> None:
        """One stepped-tier cycle.  Skips exactly the ticks the unprofiled
        stepped loop skips (the engine's idle-skip contract: components
        with ``on_cycles_skipped`` or ``step_self_gating`` always tick,
        the rest are skipped while ``is_idle(cycle)``), so the traced run
        does the same work as the untraced one."""
        if self._plan is None:
            plan = []
            for component in components:
                check = getattr(component, "is_idle", None)
                if (getattr(component, "on_cycles_skipped", None) is not None
                        or getattr(component, "step_self_gating", False)):
                    check = None
                plan.append((check, component.tick,
                             self._tick_id(type(component).__name__)))
            self._plan = plan
        recorder = self.recorder
        recorder.cycle = cycle
        for check, tick, nid in self._plan:
            if check is not None and check(cycle):
                continue
            recorder.span(nid, tick, (cycle,))
        if hooks:
            recorder.span(self._hook_id, _run_hooks, (hooks, cycle))


def _run_hooks(hooks, cycle: int) -> None:
    for hook in hooks:
        hook(cycle)


class Probes:
    """Work counts gathered by the wrappers' observers."""

    def __init__(self) -> None:
        self.flow_candidates = 0
        self.gss_candidates = 0
        self.generated = 0
        self.split_parts = 0
        self.engine_commands = 0
        self.memmax_grants = 0
        #: Every DRAM command the device accepted: (cycle, DramCommand).
        self.commands: List[tuple] = []

    def on_flow_pick(self, args, result) -> None:
        self.flow_candidates += len(args[0])

    def on_gss_pick(self, args, result) -> None:
        self.gss_candidates += len(args[0])

    def on_generate(self, args, result) -> None:
        self.generated += len(result)

    def on_split(self, args, result) -> None:
        self.split_parts += len(result)

    def on_engine_tick(self, args, result) -> None:
        if result is not None:
            self.engine_commands += 1

    def on_pop(self, args, result) -> None:
        if result is not None:
            self.memmax_grants += 1

    def on_issue(self, args, result) -> None:
        self.commands.append((args[0], args[1]))


def instrument(system, recorder: SpanRecorder) -> Probes:
    """Wrap the public per-layer methods of ``system`` and attach a
    :class:`SpanProfiler`; returns the counters the wrappers fill."""
    probes = Probes()
    wrap = recorder.wrap
    for router in system.network.routers:
        router.plan = wrap("noc.router.plan", router.plan)
        router.commit = wrap("noc.router.commit", router.commit)
        for output in router.outputs.values():
            controller = output.controller
            controller.pick = wrap("noc.flow.pick", controller.pick,
                                   probes.on_flow_pick)
            memory = getattr(controller, "memory", None)
            if isinstance(memory, GssFlowController):
                memory.pick = wrap("core.gss.pick", memory.pick,
                                   probes.on_gss_pick)
                table = memory.table
                table.on_arrival = wrap("core.gss.arrival", table.on_arrival)
    splitters = {id(i.splitter): i.splitter for i in system.core_interfaces
                 if i.splitter is not None}
    for splitter in splitters.values():
        splitter.split = wrap("core.sagm.split", splitter.split,
                              probes.on_split)
    for core in system.cores:
        core.generate = wrap("workloads.generate", core.generate,
                             probes.on_generate)
    subsystem = system.subsystem
    subsystem.tick = wrap("dram.subsystem", subsystem.tick)
    engine = subsystem.engine
    engine.tick = wrap("dram.engine.tick", engine.tick, probes.on_engine_tick)
    scheduler = getattr(subsystem, "scheduler", None)
    if isinstance(scheduler, MemMaxScheduler):
        scheduler.pop_next = wrap("dram.memmax.pop", scheduler.pop_next,
                                  probes.on_pop)
    device = system.device
    device.issue = wrap("dram.device.issue", device.issue, probes.on_issue)
    device.issue_vetted = wrap("dram.device.issue", device.issue_vetted,
                               probes.on_issue)
    system.simulator.attach_profiler(SpanProfiler(recorder))
    return probes


def layer_metrics(recorder: SpanRecorder, probes: Probes, system, metrics,
                  wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run of ``wall`` seconds whose
    horizon ended with ``metrics`` (a RunMetrics)."""
    calls, total, own, roots = recorder.summarize()

    def n(name):
        return calls.get(name, 0)

    def self_s(name):
        return own.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    cycles = system.simulator.cycle
    ticks = sum(n(name) for name in TICK_SPANS.values())
    registry = system.collect_metrics()
    link_flits = sum(registry.get(name).value
                     for name in registry.names("noc.link.flits"))
    service = system.subsystem.scheduler_stats()
    out = {
        "sim.dispatch_self_s": wall - roots,
        "sim.ticks_per_cycle": ratio(ticks, cycles),
        "sim.jumped_cycle_ratio": ratio(
            system.simulator.fast_forwarded_cycles, cycles),
        "workloads.generate_s": self_s("workloads.generate"),
        "workloads.generate_calls": n("workloads.generate"),
        "workloads.requests_per_call": ratio(probes.generated,
                                             n("workloads.generate")),
        "noc.core_ni.self_s": self_s("noc.core_ni"),
        "noc.core_ni.ticks": n("noc.core_ni"),
        "noc.mem_ni.self_s": self_s("noc.mem_ni"),
        "noc.mem_ni.ticks": n("noc.mem_ni"),
        "noc.network.self_s": self_s("noc.network"),
        "noc.network.ticks": n("noc.network"),
        "noc.router.plan_self_s": self_s("noc.router.plan"),
        "noc.router.plan_calls": n("noc.router.plan"),
        "noc.router.commit_s": total.get("noc.router.commit", 0.0),
        "noc.flow.pick_self_s": self_s("noc.flow.pick"),
        "noc.flow.pick_calls": n("noc.flow.pick"),
        "noc.flow.candidates": probes.flow_candidates,
        "noc.link_flits": link_flits,
        "core.gss.pick_s": total.get("core.gss.pick", 0.0),
        "core.gss.pick_calls": n("core.gss.pick"),
        "core.gss.candidates_per_pick": ratio(probes.gss_candidates,
                                              n("core.gss.pick")),
        "core.gss.arrival_s": total.get("core.gss.arrival", 0.0),
        "core.sagm.split_s": total.get("core.sagm.split", 0.0),
        "core.sagm.parts_per_split": ratio(probes.split_parts,
                                           n("core.sagm.split")),
        "dram.subsystem.self_s": self_s("dram.subsystem"),
        "dram.engine.tick_self_s": self_s("dram.engine.tick"),
        "dram.engine.ticks": n("dram.engine.tick"),
        "dram.engine.command_yield": ratio(probes.engine_commands,
                                           n("dram.engine.tick")),
        "dram.device.issue_s": total.get("dram.device.issue", 0.0),
        "dram.device.commands": n("dram.device.issue"),
        "dram.memmax.pop_s": total.get("dram.memmax.pop", 0.0),
        "dram.memmax.pop_yield": ratio(probes.memmax_grants,
                                       n("dram.memmax.pop")),
        "dram.row_hit_rate": metrics.row_hit_rate,
        "dram.overfetch_ratio": (
            1.0 - metrics.utilization / metrics.raw_utilization
            if metrics.raw_utilization else 0.0
        ),
        "dram.service_mean_cycles": service["service.mean"],
        "dram.service_p100_cycles": metrics.service_p100,
        "resilience.controller.tick_s": self_s("resilience.controller"),
        "resilience.watchdog.tick_s": self_s("resilience.watchdog"),
        "resilience.invariants.hook_s": self_s(HOOK_SPAN),
    }
    out.update(resilience_counts(system))
    return out


def resilience_counts(system) -> Dict[str, float]:
    """Fault-path work counts (all zero without fault injection)."""
    control = system.resilience
    if control is None:
        return {"resilience.injected": 0, "resilience.crc_retries": 0,
                "resilience.dram_rereads": 0,
                "resilience.recovered_ratio": 0.0,
                "resilience.failed_requests": 0}
    injected = control.injected_total
    return {
        "resilience.injected": injected,
        "resilience.crc_retries": control.crc_retries,
        "resilience.dram_rereads": control.dram_reread_count,
        "resilience.recovered_ratio": (
            (control.corrected + control.recovered) / injected
            if injected else 0.0
        ),
        "resilience.failed_requests": control.failed_requests,
    }
