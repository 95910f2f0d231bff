"""Property-based tests of the DRAM substrate.

Random request streams through the command engine must always terminate,
conserve every request, respect the device's physical limits, and account
the data bus exactly — regardless of bank/row patterns, burst modes, page
policies, or request sizes.  A lockstep oracle pins the engine's stall
memo: skipping the choosers on memoized stall cycles changes no command.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from tests.helpers import make_request
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.device import SdramDevice
from repro.dram.protocol import ProtocolChecker
from repro.dram.refresh import RefreshTimer
from repro.dram.timing import DramTiming
from repro.sim.config import DdrGeneration
from repro.sim.stats import StatsCollector

request_strategy = st.builds(
    dict,
    bank=st.integers(0, 7),
    row=st.integers(0, 31),
    column=st.sampled_from([0, 8, 64, 512, 1016]),
    beats=st.integers(1, 64),
    is_read=st.booleans(),
    ap_tag=st.booleans(),
)


def serve_all(generation, clock, burst, policy, otf, specs):
    timing = DramTiming.for_clock(generation, clock)
    stats = StatsCollector()
    device = SdramDevice(timing, stats=stats)
    engine = CommandEngine(device, burst_beats=burst, page_policy=policy,
                           otf=otf, window=4)
    pending = [
        make_request(**{
            **spec,
            "bank": spec["bank"] % timing.banks,
            "beats": min(spec["beats"], 1024 - spec["column"]),
        })
        for spec in specs
    ]
    expected = len(pending)
    expected_beats = sum(r.beats for r in pending)
    finished = []
    cycle = 0
    limit = 400 * max(1, expected) + 2_000
    while len(finished) < expected and cycle < limit:
        if pending and engine.has_space:
            engine.accept(pending.pop(0), cycle)
        engine.tick(cycle)
        finished.extend(engine.drain_finished())
        device.tick(cycle)
        cycle += 1
    return finished, stats, expected, expected_beats


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=12))
def test_ddr2_open_page_serves_everything(specs):
    finished, stats, expected, expected_beats = serve_all(
        DdrGeneration.DDR2, 333, 8, PagePolicy.OPEN_PAGE, False, specs
    )
    assert len(finished) == expected
    assert stats.useful_beats == expected_beats


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=12))
def test_ddr2_bl4_partially_open_serves_everything(specs):
    finished, stats, expected, expected_beats = serve_all(
        DdrGeneration.DDR2, 400, 4, PagePolicy.PARTIALLY_OPEN, False, specs
    )
    assert len(finished) == expected
    assert stats.useful_beats == expected_beats


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=12))
def test_ddr3_otf_closed_page_serves_everything(specs):
    finished, stats, expected, expected_beats = serve_all(
        DdrGeneration.DDR3, 800, 8, PagePolicy.CLOSED_PAGE, True, specs
    )
    assert len(finished) == expected
    assert stats.useful_beats == expected_beats


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=10))
def test_completion_order_matches_acceptance_order(specs):
    finished, _, expected, _ = serve_all(
        DdrGeneration.DDR1, 200, 8, PagePolicy.OPEN_PAGE, False, specs
    )
    ids = [f.request.request_id for f in finished]
    assert ids == sorted(ids, key=lambda rid: ids.index(rid))  # stable
    assert len(finished) == expected
    # in-order engine: data-ready cycles are monotonically non-decreasing
    ready = [f.data_ready_cycle for f in finished]
    assert ready == sorted(ready)


@settings(max_examples=20, deadline=None)
@given(specs=st.lists(request_strategy, min_size=2, max_size=10))
def test_bus_never_exceeds_capacity(specs):
    """Per-cycle accounting: at most 2 beats move per busy cycle, and the
    busy-cycle count can never exceed observed cycles by more than the
    in-flight burst tail."""
    finished, stats, expected, _ = serve_all(
        DdrGeneration.DDR2, 333, 8, PagePolicy.OPEN_PAGE, False, specs
    )
    assert len(finished) == expected
    total_beats = stats.useful_beats + stats.wasted_beats
    assert total_beats <= stats.busy_cycles * 2
    assert stats.busy_cycles <= stats.observed_cycles + 8


#: (generation, clock MHz) points of the lockstep oracle.
CLOCK_POINTS = [
    (DdrGeneration.DDR1, 100), (DdrGeneration.DDR1, 200),
    (DdrGeneration.DDR2, 200), (DdrGeneration.DDR2, 400),
    (DdrGeneration.DDR3, 400), (DdrGeneration.DDR3, 800),
]


@st.composite
def engine_setups(draw):
    generation, clock = draw(st.sampled_from(CLOCK_POINTS))
    timing = DramTiming.for_clock(generation, clock)
    burst = draw(st.sampled_from(sorted(timing.supported_burst_beats)))
    return dict(
        timing=timing,
        burst=burst,
        otf=generation is DdrGeneration.DDR3 and burst == 8
        and draw(st.booleans()),
        policy=draw(st.sampled_from(list(PagePolicy))),
        window=draw(st.sampled_from([4, 6])),
        # First refresh due cycle (None = refresh off): early enough that
        # a short stream crosses it.
        refresh_due=draw(st.one_of(st.none(), st.integers(1, 300))),
    )


def build_engine(setup):
    timing = setup["timing"]
    refresh = None
    if setup["refresh_due"] is not None:
        refresh = RefreshTimer(timing)
        refresh._next_due = setup["refresh_due"]
    return CommandEngine(
        SdramDevice(timing), burst_beats=setup["burst"],
        page_policy=setup["policy"], otf=setup["otf"],
        window=setup["window"], refresh=refresh,
    )


@settings(max_examples=60, deadline=None)
@given(
    setup=engine_setups(),
    stream=st.lists(
        st.tuples(request_strategy,
                  st.one_of(st.integers(0, 6), st.integers(0, 400))),
        min_size=1, max_size=14,
    ),
)
def test_stall_memo_matches_a_full_choose_every_cycle(setup, stream):
    """Two engines on their own devices see the same requests at the same
    cycles; the oracle's memo is reset before every tick, so it runs a
    full choose each cycle.  Every cycle's command, the finished list and
    the protocol referee's verdict must agree."""
    timing = setup["timing"]
    engine, oracle = build_engine(setup), build_engine(setup)
    chooses = {"engine": 0, "oracle": 0}
    for name, subject in (("engine", engine), ("oracle", oracle)):
        choose = subject._choose_command

        def counted(cycle, name=name, choose=choose):
            chooses[name] += 1
            return choose(cycle)

        subject._choose_command = counted
    pending = deque(
        (make_request(**{
            **spec,
            "bank": spec["bank"] % timing.banks,
            "beats": min(spec["beats"], 1024 - spec["column"]),
        }), gap)
        for spec, gap in stream
    )
    expected = len(pending)
    log, finished, oracle_finished = [], [], []
    next_accept = 0
    cycle = 0
    limit = 2_000 * expected + 5_000
    while (pending or not engine.idle) and cycle < limit:
        if pending and cycle >= next_accept and engine.has_space:
            assert oracle.has_space
            request, gap = pending.popleft()
            engine.accept(request, cycle)
            oracle.accept(request, cycle)
            next_accept = cycle + gap
        oracle._stalled_until = 0
        command = engine.tick(cycle)
        assert command == oracle.tick(cycle), f"cycle {cycle}"
        if command is not None:
            log.append((cycle, command))
        finished.extend(engine.drain_finished())
        oracle_finished.extend(oracle.drain_finished())
        cycle += 1
    assert len(finished) == expected
    assert finished == oracle_finished
    assert chooses["engine"] <= chooses["oracle"]
    assert ProtocolChecker(timing).check(log) == []
