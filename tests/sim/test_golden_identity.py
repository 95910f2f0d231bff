"""Golden regression: event dispatch is bit-identical to naive stepping.

The event contract (see :mod:`repro.sim.engine`) claims that ticking a
component only on the cycles it arms — and jumping whole idle gaps —
changes no observable state.  These tests hold the kernel to that claim
end-to-end: full systems run twice, once under event dispatch and once
under the naive oracle, and every reported metric (and the resilience
ledger, when faults are injected) must match exactly.  Any drift here
means a component's ``event_wake_at`` or a wake hook missed a cycle.
"""

import dataclasses

import pytest

from repro.core.system import build_system
from repro.resilience.faults import FaultConfig
from repro.sim.config import NocDesign, SystemConfig
from repro.sim.stats import RunMetrics
from tests.helpers import advance

CYCLES = 2_500
WARMUP = 400

FAULTS = FaultConfig(link_corrupt_rate=1e-3, sdram_bit_rate=1e-3)


def _run(idle_skip: bool, design: NocDesign, faults) -> dict:
    config = SystemConfig(
        app="single_dtv", cycles=CYCLES, warmup=WARMUP,
        design=design, seed=2010, faults=faults,
    )
    system = build_system(config)
    system.simulator.idle_skip = idle_skip
    metrics = system.run(CYCLES)
    observed = dataclasses.asdict(metrics)
    resilience = system.resilience
    if resilience is not None:
        observed["resilience"] = {
            "recovered": resilience.recovered,
            "failed_faults": resilience.failed_faults,
            "crc_retries": resilience.crc_retries,
            "dram_rereads": resilience.dram_reread_count,
            "watchdog_reissues": resilience.watchdog_reissues,
            "failed_requests": resilience.failed_requests,
            "stale_responses": resilience.stale_responses,
            "injected": dict(resilience.injector.injected),
        }
    return observed


@pytest.mark.parametrize("design", [NocDesign.GSS_SAGM, NocDesign.CONV])
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
def test_idle_skip_metrics_bit_identical(design, faults):
    skipping = _run(True, design, faults)
    naive = _run(False, design, faults)
    diffs = {
        key: (skipping[key], naive[key])
        for key in skipping
        if skipping[key] != naive[key]
    }
    assert not diffs, f"idle-skip kernel diverged from naive stepping: {diffs}"


def test_fast_forward_engages_on_drained_system():
    """The identity above is only meaningful if the fast path engages.

    At the paper's operating point the fabric is saturated, so few cycles
    are jumped mid-run (ticking only the armed components carries the
    speedup there); whole-system jumps fire on idle tails.  After
    :meth:`System.drain` reaches quiescence, every component is idle with
    no self-wake, so a further run must jump over (almost) the whole
    horizon instead of stepping it."""
    config = SystemConfig(
        app="single_dtv", cycles=CYCLES, warmup=WARMUP,
        design=NocDesign.GSS_SAGM, seed=2010,
    )
    system = build_system(config)
    system.run(CYCLES)
    assert system.drain(), "system failed to quiesce"
    before = system.simulator.fast_forwarded_cycles
    horizon = 10_000
    system.simulator.run(horizon)
    jumped = system.simulator.fast_forwarded_cycles - before
    assert jumped > horizon * 0.9, (
        f"quiescent system stepped {horizon - jumped} of {horizon} cycles"
    )


def _run_mode(mode: str, design: NocDesign, faults) -> dict:
    config = SystemConfig(
        app="single_dtv", cycles=CYCLES, warmup=WARMUP,
        design=design, seed=2010, faults=faults,
    )
    system = build_system(config)
    advance(mode, system.simulator, CYCLES)
    assert system.simulator.last_dispatch_mode == (
        "naive" if mode == "naive" else "event"
    )
    return dataclasses.asdict(RunMetrics.from_collector(
        system.stats, system.simulator.cycle, subsystem=system.subsystem
    ))


@pytest.mark.parametrize("mode", ["event", "stepped"])
@pytest.mark.parametrize("design", [NocDesign.GSS_SAGM, NocDesign.CONV])
def test_every_dispatch_tier_matches_naive(mode, design):
    """Three-way golden identity: one event run, and event runs
    interleaved with manual steps, must both reproduce naive stepping
    exactly."""
    observed = _run_mode(mode, design, FAULTS)
    naive = _run_mode("naive", design, FAULTS)
    diffs = {
        key: (observed[key], naive[key])
        for key in observed
        if observed[key] != naive[key]
    }
    assert not diffs, f"{mode} dispatch diverged from naive stepping: {diffs}"


# ---------------------------------------------------------------------- #
# Property-based identity: random wake/idle schedules (hypothesis)
# ---------------------------------------------------------------------- #

hypothesis = pytest.importorskip("hypothesis")
from bisect import bisect_right

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator

HORIZON = 260


class PropSource:
    """Emits one item per scheduled cycle, gated by a token credit the
    sink hands back — a closed loop across the registration order."""

    def __init__(self, schedule, tokens):
        self.schedule = sorted(set(schedule))
        self.tokens = tokens
        self.consumer = None
        self.log = []
        self._wake = None

    def attach_wake(self, wake):
        self._wake = wake

    def credit(self):
        """Called by the sink (registered later): visible next cycle."""
        self.tokens += 1
        if self._wake is not None:
            self._wake()

    def tick(self, cycle):
        if cycle in self.schedule and self.tokens > 0:
            self.tokens -= 1
            self.log.append(cycle)
            self.consumer.push(cycle, ("item", cycle))

    def event_wake_at(self, cycle):
        index = bisect_right(self.schedule, cycle)
        return self.schedule[index] if index < len(self.schedule) else None


class PropRelay:
    """Holds each item for a fixed delay, then forwards it downstream."""

    def __init__(self, delay):
        self.delay = delay
        self.pending = []
        self.consumer = None
        self.log = []
        self._wake = None

    def attach_wake(self, wake):
        self._wake = wake

    def push(self, cycle, item):
        due = cycle + self.delay
        self.pending.append((due, item))
        if self._wake is not None:
            self._wake(due if self.delay else None)

    def tick(self, cycle):
        due_now = [entry for entry in self.pending if entry[0] <= cycle]
        if not due_now:
            return
        self.pending = [entry for entry in self.pending if entry[0] > cycle]
        for _, item in due_now:
            self.log.append((cycle, item))
            self.consumer.push(cycle, item)

    def event_wake_at(self, cycle):
        if not self.pending:
            return None
        return min(due for due, _ in self.pending)


class PropSink:
    """Consumes everything pushed at it and returns the token upstream."""

    def __init__(self, source):
        self.source = source
        self.queue = []
        self.log = []
        self._wake = None

    def attach_wake(self, wake):
        self._wake = wake

    def push(self, cycle, item):
        self.queue.append(item)
        if self._wake is not None:
            self._wake()

    def tick(self, cycle):
        if not self.queue:
            return
        for item in self.queue:
            self.log.append((cycle, item))
            self.source.credit()
        self.queue = []

    def event_wake_at(self, cycle):
        return cycle + 1 if self.queue else None


def _build_chain(schedule, tokens, delay):
    source = PropSource(schedule, tokens)
    relay = PropRelay(delay)
    sink = PropSink(source)
    source.consumer = relay
    relay.consumer = sink
    sim = Simulator()
    sim.add(source)
    sim.add(relay)
    sim.add(sink)
    return sim, source, relay, sink


@settings(max_examples=60, deadline=None)
@given(
    schedule=st.lists(
        st.integers(min_value=0, max_value=HORIZON - 10), max_size=40
    ),
    tokens=st.integers(min_value=0, max_value=6),
    delay=st.integers(min_value=0, max_value=7),
)
def test_random_schedules_event_identical_to_naive(schedule, tokens, delay):
    """Any random wake/idle schedule must produce cycle-identical logs
    under event dispatch and naive stepping — a missed or misordered wake
    shows up as a shifted emission, relay, or credit cycle."""
    event_sim, esrc, erelay, esink = _build_chain(schedule, tokens, delay)
    event_sim.run(HORIZON)
    assert event_sim.last_dispatch_mode == "event"

    naive_sim, nsrc, nrelay, nsink = _build_chain(schedule, tokens, delay)
    naive_sim.idle_skip = False
    naive_sim.run(HORIZON)
    assert naive_sim.last_dispatch_mode == "naive"

    assert esrc.log == nsrc.log
    assert erelay.log == nrelay.log
    assert esink.log == nsink.log
    assert esrc.tokens == nsrc.tokens
    assert erelay.pending == nrelay.pending


# ---------------------------------------------------------------------- #
# Sampler transparency: telemetry must never perturb simulated metrics
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("interval", [1, 997])
def test_sampler_leaves_metrics_bit_identical(interval):
    """An attached time-series sampler — at a pathological interval of 1
    or a boundary-straddling prime — must leave every reported metric
    bit-identical to the unsampled run."""
    def run(attach: bool):
        config = SystemConfig(
            app="single_dtv", cycles=CYCLES, warmup=WARMUP,
            design=NocDesign.GSS_SAGM, seed=2010,
        )
        system = build_system(config)
        sampler = (
            # Capacity covers every window so the delta-sum check below
            # sees the whole run, not just the ring's tail.
            system.attach_sampler(interval, capacity=CYCLES + 8)
            if attach else None
        )
        metrics = system.run(CYCLES)
        return dataclasses.asdict(metrics), system, sampler

    sampled, sampled_system, sampler = run(True)
    plain, plain_system, _ = run(False)
    assert sampled == plain, (
        f"sampler at interval {interval} perturbed metrics: "
        f"{ {k: (sampled[k], plain[k]) for k in sampled if sampled[k] != plain[k]} }"
    )
    assert sampled_system.simulator.last_dispatch_mode == "event"
    assert plain_system.simulator.last_dispatch_mode == "event"
    # Coverage is complete and conservative: window deltas sum to the
    # final cumulative counter.
    assert sum(
        s.deltas["requests.completed"] for s in sampler.samples
    ) == sampled_system.stats.all_packets.count
