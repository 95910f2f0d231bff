"""Simulator profiling tests."""

import pytest

from repro.obs.profiler import SimulatorProfiler
from repro.sim.engine import Simulator


class Spinner:
    """A component whose tick does a little measurable work."""

    def __init__(self):
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1
        sum(range(200))


def _profile_cycle(profiler, components, cycle):
    """Drive one cycle through the engine-facing profiler protocol."""
    for component in components:
        profiler.timed_tick(type(component).__name__, component.tick, cycle)
    profiler.end_cycle(cycle)


class Recorder:
    def tick(self, cycle):
        pass


class TestProfilerUnit:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulatorProfiler(window_cycles=0)

    def test_step_times_each_component_class(self):
        """Simulator.step() routes every tick through the profiler."""
        simulator = Simulator()
        simulator.add_all([Spinner(), Spinner()])
        profiler = SimulatorProfiler(window_cycles=10)
        simulator.attach_profiler(profiler)
        for _ in range(5):
            simulator.step()
        assert profiler.calls == {"Spinner": 10}
        assert profiler.totals["Spinner"] > 0
        assert profiler.cycles_profiled == 5

    def test_windows_roll(self):
        profiler = SimulatorProfiler(window_cycles=3)
        for cycle in range(7):
            _profile_cycle(profiler, [Spinner()], cycle)
        assert len(profiler.windows) == 2
        first_start, first_totals = profiler.windows[0]
        assert first_start == 0
        assert "Spinner" in first_totals

    def test_shares_sum_to_one(self):
        profiler = SimulatorProfiler()
        _profile_cycle(profiler, [Spinner(), Recorder()], 0)
        assert sum(profiler.shares().values()) == pytest.approx(1.0)

    def test_empty_shares(self):
        assert SimulatorProfiler().shares() == {}

    def test_report_renders(self):
        profiler = SimulatorProfiler(window_cycles=2)
        for cycle in range(4):
            _profile_cycle(profiler, [Spinner()], cycle)
        text = profiler.report()
        assert "Spinner" in text
        assert "component class" in text
        assert "windows" in text


class TestEngineIntegration:
    def test_attach_and_step(self):
        simulator = Simulator()
        spinner = Spinner()
        simulator.add(spinner)
        profiler = SimulatorProfiler(window_cycles=5)
        simulator.attach_profiler(profiler)
        assert simulator.profiler is profiler
        simulator.run(20)
        assert spinner.ticks == 20
        assert profiler.cycles_profiled == 20
        assert profiler.calls["Spinner"] == 20

    def test_profiled_run_matches_plain_run(self):
        plain, profiled = Simulator(), Simulator()
        a, b = Spinner(), Spinner()
        plain.add(a)
        profiled.add(b)
        profiled.attach_profiler(SimulatorProfiler())
        plain.run(13)
        profiled.run(13)
        assert plain.cycle == profiled.cycle
        assert a.ticks == b.ticks

    def test_default_is_unprofiled(self):
        assert Simulator().profiler is None
