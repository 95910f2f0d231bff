"""Overhead guards for the observability hooks.

Not a paper exhibit and not a speed history — simulator speed is
measured by ``perfbench/``.  These bound what attaching a hook costs a
run, so enabling one never becomes a performance decision: a disabled
tracer and an interval sampler must each stay within 5% of a plain run.
"""

import time

from repro.core.system import build_system
from repro.obs import NullTracer
from repro.sim.config import NocDesign, SystemConfig


def best_chunk_times(baseline, other, cycles=2_000, trials=5):
    """Min over ``trials`` interleaved ``run(cycles)`` chunks of each
    system's wall time, after one warm-up chunk each."""

    def time_chunk(system):
        start = time.perf_counter()
        system.simulator.run(cycles)
        return time.perf_counter() - start

    time_chunk(baseline)
    time_chunk(other)
    baseline_times, other_times = [], []
    for _ in range(trials):
        baseline_times.append(time_chunk(baseline))
        other_times.append(time_chunk(other))
    return min(baseline_times), min(other_times)


def test_null_tracer_overhead_bounded():
    """A disabled tracer must not slow the simulator down.

    Every emission site guards with ``if tracer:`` — falsy for both
    ``None`` and ``NullTracer`` — so a run with a NullTracer attached
    must stay within 5% of the untraced baseline.  Both sides are timed
    through ``Simulator.run``, the event-dispatch path every real run
    takes, in interleaved min-of-trials chunks that keep the comparison
    robust on noisy CI hosts.
    """
    config = SystemConfig(app="single_dtv", cycles=100_000,
                          design=NocDesign.GSS_SAGM)
    baseline = build_system(config)
    traced = build_system(config, tracer=NullTracer())
    baseline_best, traced_best = best_chunk_times(baseline, traced)

    overhead = traced_best / baseline_best
    assert overhead <= 1.05, (
        f"NullTracer path is {overhead:.3f}x the untraced baseline "
        f"({traced_best:.4f}s vs {baseline_best:.4f}s per 2k cycles)"
    )


def test_sampler_overhead_bounded():
    """Telemetry sampling at the CI interval must cost at most 5%.

    The sampler wakes once per window under event dispatch, so a run
    with a 1000-cycle sampler attached must stay within 5% of the
    unsampled baseline — the same guard discipline as the NullTracer,
    timed the same way through ``Simulator.run``.
    """
    config = SystemConfig(app="single_dtv", cycles=1_000_000,
                          design=NocDesign.GSS_SAGM)
    baseline = build_system(config)
    sampled = build_system(config)
    sampled.attach_sampler(1_000)
    baseline_best, sampled_best = best_chunk_times(baseline, sampled)

    overhead = sampled_best / baseline_best
    assert overhead <= 1.05, (
        f"sampler path is {overhead:.3f}x the unsampled baseline "
        f"({sampled_best:.4f}s vs {baseline_best:.4f}s per 2k cycles)"
    )
    assert sampled.sampler.emitted > 0
