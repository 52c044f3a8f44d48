"""The gaze export: tick streams written run by run equal the per-tick loop.

SessionTrace.tick_samples and metrics.gaze_csv_chunks both sample segments
at fixed ticks through one run helper.  The oracle below is the per-tick
loop they replace, kept verbatim: tick k at k * (1 / hz) advances the
segment while the tick is at or past the segment's end, and the last
segment takes whatever ticks remain.  The export's chunks, joined, equal the
oracle's file, and none is longer than _CSV_CHUNK_TICKS of its longest rows.
"""

import functools
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xrlayout import agent, cli, metrics
from xrlayout.agent import (
    AgentParams,
    DocumentGaze,
    GazeSegment,
    IntermediaryGaze,
    NoGaze,
    PanelGaze,
    ScreenGaze,
    SessionTrace,
    simulate_session,
)
from xrlayout.errors import replace
from xrlayout.metrics import gaze_csv_chunks
from xrlayout.placement import Strategy
from xrlayout.scenario import (
    MAX_TICK_HZ,
    bundled_scenario_names,
    bundled_scenario_text,
    load_bundled,
    parse_scenario,
)

NAMES = sorted(bundled_scenario_names())
STRATEGIES = [None, *Strategy]
# Rates whose ticks land exactly on segment boundaries of the bundled
# sessions (scripted times are whole or twentieths of seconds), and a few
# that do not.
EXACT_RATES = (1, 20, 1000)
OTHER_RATES = (33.3, 50, 90)
TARGETS = (
    NoGaze(),
    ScreenGaze(),
    IntermediaryGaze("host_food"),
    PanelGaze("movies"),
    DocumentGaze("sports", 2, 5),  # its repr has commas
)


def oracle_samples(trace: SessionTrace, hz: float) -> list[tuple[float, object]]:
    """The per-tick loop the run helper replaced, as (t, target) pairs."""
    dt = 1.0 / hz
    out = []
    seg_i = 0
    n = max(1, int(math.ceil(trace.duration * hz)))
    for k in range(n):
        t = k * dt
        while seg_i + 1 < len(trace.segments) and t >= trace.segments[seg_i].t1:
            seg_i += 1
        out.append((t, trace.segments[seg_i].target))
    return out


def oracle_csv(trace: SessionTrace, hz: float) -> str:
    """The CLI's per-row gaze file for those samples."""
    lines = ["t,target"] + [f"{t!r},{target!r}" for t, target in oracle_samples(trace, hz)]
    return "\n".join(lines) + "\n"


def export_text(trace: SessionTrace, hz: float | None = None) -> str:
    return "".join(gaze_csv_chunks(trace, hz))


def assert_export_matches_oracle(trace: SessionTrace, hz: float | None) -> None:
    """The chunks join to the oracle's file, and none holds more than
    _CSV_CHUNK_TICKS of its longest rows: the writer's memory is bounded."""
    want = oracle_csv(trace, trace.params.tick_hz if hz is None else hz)
    chunks = list(gaze_csv_chunks(trace, hz))
    assert "".join(chunks) == want
    longest = max(len(row) + 1 for row in want.splitlines())
    assert max(map(len, chunks)) <= metrics._CSV_CHUNK_TICKS * longest


def assert_matches_oracle(trace: SessionTrace, hz: float) -> None:
    expected = oracle_samples(trace, hz)
    got = trace.tick_samples(hz)
    assert [(s.t, s.target) for s in got] == expected
    assert_export_matches_oracle(trace, hz)


@functools.cache
def bundled_trace(name: str, strategy: Strategy | None, seed: int) -> SessionTrace:
    return simulate_session(load_bundled(name), strategy=strategy, seed=seed)


def shifted_static_room(shift):
    """static_stationary_env_ref with every question moved shift seconds later."""
    doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
    for trial in doc["trials"]:
        trial["question_start_s"] += shift
        trial["word_schedule_s"] = [t + shift for t in trial["word_schedule_s"]]
    return parse_scenario(json.dumps(doc))


def synthetic_trace(segments: list[GazeSegment], duration: float, hz: float = 50.0):
    return SessionTrace(
        scenario_name="drawn",
        context="static_stationary",
        strategy=Strategy.BODY_FIXED,
        params=AgentParams(tick_hz=hz),
        seed=0,
        trials=[],
        segments=segments,
        warnings=[],
        duration=duration,
    )


@st.composite
def drawn_traces(draw):
    """A trace whose segments tile [0, end): some ends on the tick grid,
    some between ticks, some repeated (zero-length segments)."""
    hz = draw(st.sampled_from(EXACT_RATES + OTHER_RATES) | st.floats(0.5, 1000.0))
    dt = 1.0 / hz
    on_grid = st.integers(0, 400).map(lambda k: k * dt)
    off_grid = st.floats(0.0, 400 * dt, allow_subnormal=False)
    ends = sorted(draw(st.lists(on_grid | off_grid, min_size=1, max_size=12)))
    ends = [e for e in ends if e > 0.0] or [0.0]
    repeats = draw(st.lists(st.integers(0, len(ends) - 1), max_size=3))
    ends = sorted(ends + [ends[i] for i in repeats])
    segments, t0 = [], 0.0
    for t1 in ends:
        segments.append(GazeSegment(t0, t1, draw(st.sampled_from(TARGETS))))
        t0 = t1
    return synthetic_trace(segments, ends[-1]), hz


class TestRunsEqualThePerTickLoop:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(NAMES),
        strategy=st.sampled_from(STRATEGIES),
        seed=st.integers(0, 3),
        hz=st.sampled_from(EXACT_RATES + OTHER_RATES),
    )
    def test_bundled_sessions(self, name, strategy, seed, hz):
        assert_matches_oracle(bundled_trace(name, strategy, seed), hz)

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(drawn_traces())
    def test_drawn_segments(self, drawn):
        trace, hz = drawn
        assert_matches_oracle(trace, hz)

    def test_ticks_on_segment_boundaries(self):
        # at 20 Hz tick k is k * 0.05; a segment ending exactly on tick 3
        # leaves that tick to the next segment
        ends = [3 * (1.0 / 20), 3 * (1.0 / 20), 5 * (1.0 / 20), 7 * (1.0 / 20)]
        segments, t0 = [], 0.0
        for t1, target in zip(ends, TARGETS):
            segments.append(GazeSegment(t0, t1, target))
            t0 = t1
        trace = synthetic_trace(segments, 0.35)  # 7 ticks
        targets = [s.target for s in trace.tick_samples(20)]
        assert targets == [TARGETS[0]] * 3 + [TARGETS[2]] * 2 + [TARGETS[3]] * 2
        assert_matches_oracle(trace, 20)

    @pytest.mark.parametrize("duration", [0.0, 0.01, 1.0])
    def test_single_tick_sessions(self, duration):
        trace = synthetic_trace([GazeSegment(0.0, duration, ScreenGaze())], duration)
        assert export_text(trace, 1) == "t,target\n0.0,ScreenGaze()\n"
        assert_matches_oracle(trace, 1)

    def test_none_is_the_params_rate(self):
        trace = bundled_trace("static_stationary_env_ref", None, 7)
        hz = trace.params.tick_hz
        assert export_text(trace) == export_text(trace, None) == oracle_csv(trace, hz)


class TestChunkedExport:
    @pytest.mark.parametrize("hz", [None, 20, 50])
    @pytest.mark.parametrize("name", NAMES)
    def test_bundled_sessions(self, name, hz):
        assert_export_matches_oracle(bundled_trace(name, None, 42), hz)

    def test_a_session_longer_than_the_shared_grid(self):
        trace = simulate_session(shifted_static_room(5000.0), seed=42)
        assert math.ceil(trace.duration * 50) > agent._TICK_GRID_TICKS
        assert_export_matches_oracle(trace, 50)

    def test_a_run_longer_than_a_chunk(self):
        # one segment over 2.5 chunks, between two short ones
        t_long = 2.5 * metrics._CSV_CHUNK_TICKS / 50
        segments = [
            GazeSegment(0.0, 0.1, ScreenGaze()),
            GazeSegment(0.1, t_long, DocumentGaze("sports", 2, 5)),
            GazeSegment(t_long, t_long + 0.1, NoGaze()),
        ]
        trace = synthetic_trace(segments, t_long + 0.1)
        assert len(list(gaze_csv_chunks(trace, 50))) == 1 + 3  # the header, then 3 chunks
        assert_matches_oracle(trace, 50)


class TestTickRateRule:
    def test_max_rate_accepted_on_a_short_trace(self):
        trace = synthetic_trace([GazeSegment(0.0, 0.01, ScreenGaze())], 0.01)
        assert len(trace.tick_samples(MAX_TICK_HZ)) == 100
        assert_matches_oracle(trace, MAX_TICK_HZ)

    @pytest.mark.parametrize("hz", [1e308, MAX_TICK_HZ * 1.0000001, 1e-320])
    def test_params_rate_follows_the_rule(self, hz):
        # AgentParams checks its rate by the rule files and the CLI follow
        trace = synthetic_trace([GazeSegment(0.0, 1.0, ScreenGaze())], 1.0)
        with pytest.raises(ValueError, match="tick rate"):
            replace(trace.params, tick_hz=hz)

    def test_grids_are_kept_for_a_few_rates(self):
        trace = synthetic_trace([GazeSegment(0.0, 1.0, ScreenGaze())], 1.0)
        for hz in range(1, 40):
            assert_matches_oracle(trace, hz + 0.5)
        assert len(agent._TICK_GRIDS) <= agent._TICK_GRID_RATES
        assert 39.5 in agent._TICK_GRIDS

    def test_long_streams_keep_no_grid(self, monkeypatch):
        # the bounds stand in for about 12 MB and a chunk; 100 and 16 ticks show the rules
        monkeypatch.setattr(agent, "_TICK_GRID_TICKS", 100)
        monkeypatch.setattr(metrics, "_CSV_CHUNK_TICKS", 16)
        grids = []

        def spy(hz, n, tick_grid=agent._tick_grid):
            grids.append(tick_grid(hz, n))
            return grids[-1]

        monkeypatch.setattr(agent, "_tick_grid", spy)
        trace = synthetic_trace([GazeSegment(0.0, 2.0, ScreenGaze())], 2.0)
        agent._TICK_GRIDS.pop(60.5, None)
        assert_matches_oracle(trace, 60.5)  # 121 ticks
        assert 60.5 not in agent._TICK_GRIDS
        assert grids and all(grid.text is None for grid in grids)  # formatted chunk by chunk
        assert_matches_oracle(trace, 40.5)  # 81 ticks
        assert 40.5 in agent._TICK_GRIDS


def test_cli_gaze_export_builds_no_sample_per_tick(tmp_path, monkeypatch, capsys):
    built = 0
    original = agent.GazeSample.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(agent.GazeSample, "__init__", counting_init)
    argv = ["run", "--all", "--format", "json", "--gaze", "--tick-hz", "50", "--seed", "42"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    built_by_run = built
    capsys.readouterr()
    segments = sum(len(bundled_trace(name, None, 42).segments) for name in NAMES)
    rows = sum(
        len(path.read_text().splitlines()) - 1 for path in tmp_path.glob("gaze_*.csv")
    )
    assert rows > 100 * segments  # the files do hold one row per tick
    assert built_by_run == 0  # scoring reads the segments themselves
