#!/usr/bin/env python3
"""Benchmark harness for the NoC/SDRAM simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gss_saturated --seed 2010 \\
        --seconds 20 --trace 0

One single-threaded process builds the simulator from ``src/`` and runs
the chosen workload (see ``workloads.py``) repeatedly for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, with tracing off:
``sim_cycles_per_s`` (median of the timed segment rates), ``setup_s``
(median wall time of fresh interpreters importing ``repro`` and calling
``build_system``), ``peak_rss_mb``, and the simulated model outputs.

``--trace 1`` alternates untraced and traced repetitions of the same
horizon and reports the per-layer metrics of the traced ones (medians over
repetitions; see ``spans.py``), plus ``trace.overhead_ratio``.  Spans are
written to ``perfbench/out/``.

Every repetition's outputs are checked: for the default seed they must
equal ``golden.json``; for any seed, repetitions must agree exactly; a
drained run must quiesce with a balanced fault ledger; a traced run must
match its untraced twin, and its DRAM command log must pass the
independent ``ProtocolChecker``.  A miss or an exception counts as a
failed operation.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs
fail a check still reports every metric it measured, with ``correct``
false; only a run in which a stream raised reports no metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Host-probe score (operations/s) that ``sim_cycles_per_s`` is scaled to:
#: about what :class:`HostProbe` scores under CPython 3.11 on an
#: uncontended 2.1 GHz x86-64 core, so scaled rates read close to raw ones.
REFERENCE_PROBE_OPS_PER_S = 3.0e6
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
SETUP_PROBE = (
    "import sys\n"
    "sys.path[:0] = [{src!r}, {here!r}]\n"
    "import repro\n"
    "from workloads import WORKLOADS\n"
    "repro.build_system(WORKLOADS[{name!r}].config({seed}))\n"
)


class _Cell:
    __slots__ = ("value", "weight")

    def __init__(self, value: int) -> None:
        self.value = value
        self.weight = value % 7


class HostProbe:
    """A fixed pure-Python kernel timed between measured segments.

    The host alternates, every few seconds, between regimes in which the
    same code runs up to twice as slowly.  A segment's rate is therefore
    scaled by ``REFERENCE_PROBE_OPS_PER_S`` over the probe score measured
    around it.  The kernel reads a few megabytes of objects in shuffled
    order plus dict lookups, which tracks the simulator's slowdown more
    closely than a cache-resident loop does.
    """

    SIZE = 60_000
    STEPS = 25_000

    def __init__(self) -> None:
        self._cells = [_Cell(i) for i in range(self.SIZE)]
        order = list(range(self.SIZE))
        random.Random(0).shuffle(order)
        self._order = order[: self.STEPS]
        self._index = {i: self._cells[i] for i in range(0, self.SIZE, 3)}

    def score(self) -> float:
        """Operations per second of one pass over the kernel."""
        cells, index = self._cells, self._index
        total = 0
        start = perf_counter()
        for key in self._order:
            cells[key].value += 1
            found = index.get(key)
            if found is not None:
                total += found.weight
        return self.STEPS / (perf_counter() - start)


def canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class Operations:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: FAILED: {problem}", file=sys.stderr)
        return not problems


@dataclass
class StreamRun:
    """One stream's horizon, run on a freshly built system."""

    system: object
    metrics: object      # RunMetrics at the end of the horizon
    outputs: dict        # the canonical record the checks compare
    rates: List[float]   # cycles/s of every timed segment
    scores: List[float]  # probe score before each segment and after the last
    wall: float          # seconds spent in the timed region
    probes: object       # spans.Probes when traced, else None


class Bench:
    def __init__(self, workload, seed: int) -> None:
        from workloads import DEFAULT_SEED, STREAMS

        self.workload = workload
        self.seeds = workload.seeds(seed)
        self.ops = Operations()
        self.probe = HostProbe()
        #: Expected outputs per stream: recorded for the default seed,
        #: otherwise the first run's (every later one must repeat it).
        self.expected = [None] * STREAMS
        #: The latest outputs of each stream, which the model metrics report.
        self.latest = [None] * STREAMS
        self.source = "the first run of this stream"
        if seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "golden.json")) as handle:
                self.expected = json.load(handle)[workload.name]
            self.source = "golden.json"

    # ------------------------------------------------------------------ #

    def run_stream(self, index: int, recorder=None) -> StreamRun:
        from repro import build_system
        from spans import instrument

        workload = self.workload
        system = build_system(workload.config(self.seeds[index]))
        probes = instrument(system, recorder) if recorder is not None else None
        rates = []
        scores = [self.probe.score()]
        wall = 0.0
        for _ in range(workload.cycles // workload.chunk):
            start = perf_counter()
            metrics = system.run(workload.chunk)
            elapsed = perf_counter() - start
            scores.append(self.probe.score())
            rates.append(workload.chunk / elapsed)
            wall += elapsed
        quiesced = None
        if workload.drain:
            start = perf_counter()
            quiesced = system.drain()
            wall += perf_counter() - start
        outputs = {
            "run_metrics": asdict(metrics),
            "cycles": system.simulator.cycle,
            "dram_commands": system.device.issued_commands,
        }
        control = system.resilience
        if control is not None:
            outputs["quiesced"] = quiesced
            outputs["ledger"] = {
                "injected": control.injected_total,
                "corrected": control.corrected,
                "recovered": control.recovered,
                "failed": control.failed_faults,
                "unresolved": control.unresolved,
            }
        # Round-trip so records compare exactly as they are stored.
        outputs = json.loads(canonical(outputs))
        return StreamRun(system, metrics, outputs, rates, scores, wall, probes)

    def output_problems(self, index: int, outputs) -> List[str]:
        problems = []
        self.latest[index] = outputs
        expected = self.expected[index]
        if expected is None:
            self.expected[index] = outputs
        elif outputs != expected:
            problems.append(
                f"{self.workload.name} seed {self.seeds[index]}: outputs "
                f"differ from {self.source}: {canonical(outputs)}"
            )
        if self.workload.drain and not outputs.get("quiesced"):
            problems.append("drain() did not reach quiescence")
        ledger = outputs.get("ledger")
        if ledger is not None and (
            ledger["unresolved"] != 0
            or ledger["injected"]
            != ledger["corrected"] + ledger["recovered"] + ledger["failed"]
        ):
            problems.append(f"fault ledger does not balance: {ledger}")
        return problems

    @staticmethod
    def trace_problems(run: StreamRun) -> List[str]:
        from repro.dram.protocol import ProtocolChecker

        commands = run.probes.commands
        issued = run.system.device.issued_commands
        problems = []
        if len(commands) != issued:
            problems.append(f"command log holds {len(commands)} commands, "
                            f"the device issued {issued}")
        violations = ProtocolChecker(run.system.timing).check(commands)
        if violations:
            problems.append(f"{len(violations)} DRAM protocol violations, "
                            f"first: {violations[0]}")
        return problems

    def checked(self, index: int, recorder=None) -> Optional[StreamRun]:
        """One stream run, checked and counted; None if it raised.

        A run whose outputs fail a check is counted as failed but still
        returned: its timings are as valid as any other run's."""
        try:
            run = self.run_stream(index, recorder)
        except Exception:
            self.ops.record([traceback.format_exc()])
            return None
        problems = self.output_problems(index, run.outputs)
        if recorder is not None:
            problems += self.trace_problems(run)
        self.ops.record(problems)
        return run

    # ------------------------------------------------------------------ #

    def setup_seconds(self) -> List[float]:
        code = SETUP_PROBE.format(src=SRC, here=HERE,
                                  name=self.workload.name, seed=self.seeds[0])
        times = []
        for _ in range(SETUP_PROBES):
            problems = []
            start = perf_counter()
            try:
                # run() kills and reaps the child if it times out.
                done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                      capture_output=True, timeout=120)
            except subprocess.TimeoutExpired:
                problems.append("set-up probe timed out")
            else:
                if done.returncode != 0:
                    problems.append("set-up probe failed: "
                                    + done.stderr.decode(errors="replace"))
            elapsed = perf_counter() - start
            if self.ops.record(problems):
                times.append(elapsed)
        return times

    def warm_up(self) -> None:
        """Import, allocate and compile once before anything is timed."""
        from repro import build_system

        build_system(self.workload.config(self.seeds[0])).run(
            self.workload.chunk)
        gc.collect()

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        setup = self.setup_seconds()
        self.warm_up()
        rates: List[float] = []
        deadline = perf_counter() + seconds
        while True:
            raised = False
            for index in range(len(self.seeds)):
                run = self.checked(index)
                if run is not None:
                    rates.extend(scaled_rates(run))
                else:
                    raised = True
                # Free this system before the next is built, so the peak
                # resident set is one system's, however many runs fit.
                del run
                gc.collect()
            # A stream that raised would raise again: stop, not loop.
            if raised or perf_counter() >= deadline:
                break
        if raised or not setup:
            return {}
        streams = [record["run_metrics"] for record in self.latest]
        return {
            "sim_cycles_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "mem_utilization": statistics.fmean(
                m["utilization"] for m in streams),
            "latency_all_cycles": statistics.fmean(
                m["latency_all"] for m in streams),
            "latency_demand_cycles": statistics.fmean(
                m["latency_demand"] for m in streams),
        }

    def per_layer(self, seconds: float) -> Dict[str, float]:
        """Per-layer metrics of the first stream (``SystemConfig.seed`` =
        the harness seed), traced, each run paired with an untraced one."""
        from spans import SpanRecorder, layer_metrics

        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(
            HERE, "out", f"spans-{self.workload.name}-{self.seeds[0]}.bin")
        self.warm_up()
        layers: List[Dict[str, float]] = []
        deadline = perf_counter() + seconds
        while True:
            plain = self.checked(0)
            if plain is not None:
                untraced_wall = plain.wall
                raw_rate = statistics.median(plain.rates)
            else:
                untraced_wall = None
            del plain
            gc.collect()
            recorder = SpanRecorder()
            traced = self.checked(0, recorder)
            # A run that raised would raise again: stop, not loop.
            if traced is None or untraced_wall is None:
                break
            layer = layer_metrics(recorder, traced.probes, traced.system,
                                  traced.metrics, traced.wall)
            layer["trace.overhead_ratio"] = traced.wall / untraced_wall
            layer["sim.raw_cycles_per_s"] = raw_rate
            recorder.write(path, {"run": len(layers),
                                  "workload": self.workload.name,
                                  "seed": self.seeds[0]},
                           fresh=not layers)
            self.ops.record(count_problems(layers, layer))
            layers.append(layer)
            del recorder, traced
            gc.collect()
            if perf_counter() >= deadline:
                break
        if not layers:
            return {}
        return {name: statistics.median(layer[name] for layer in layers)
                for name in layers[0]}


def scaled_rates(run: StreamRun) -> List[float]:
    """Segment rates scaled to the reference host speed, each by the mean
    of the probe scores taken just before and just after it."""
    scores = run.scores
    return [
        rate * REFERENCE_PROBE_OPS_PER_S * 2.0 / (scores[i] + scores[i + 1])
        for i, rate in enumerate(run.rates)
    ]


def count_problems(layers, layer) -> List[str]:
    """Exact work counts must repeat exactly across traced runs."""
    if not layers:
        return []
    first = layers[0]
    return [
        f"count {name} changed between traced runs: "
        f"{first[name]!r} -> {value!r}"
        for name, value in layer.items()
        if not name.endswith("_s") and name != "trace.overhead_ratio"
        and value != first[name]
    ]


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    logging.getLogger("repro.sim.engine").setLevel(logging.ERROR)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}

    bench = Bench(WORKLOADS[args.workload], args.seed)
    measure = bench.per_layer if args.trace else bench.end_to_end
    values = measure(args.seconds)
    if values and set(values) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(set(values) ^ set(units))} do not "
            "match BENCHMARK.json"
        )
    ops = bench.ops
    for name in units:
        if name in values:
            print(f"{name:32s} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": bool(values) and ops.failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
