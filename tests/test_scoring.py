"""One-pass scoring equals the run-based scoring it replaced, exactly.

metrics._scan computes a trial's navigation time and panel switches in one
pass over (t, target) pairs, and trial_metrics feeds it the segments
directly; aggregate computes both of its columns by one rule, without the
statistics module, the switch column on the integer counts.  The oracle
below is the scoring they replace, kept verbatim: the stream collapsed into
dwell runs (_dwells), navigation time over those runs, a second walk for
switches, boundary samples built per segment, statistics.fmean and
statistics.median for means and medians, and the switch statistics over the
counts as floats.
"""

import copy
import math
import pickle
import statistics
from dataclasses import FrozenInstanceError, make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlayout.agent import (
    AgentParams,
    DocumentGaze,
    GazeSample,
    GazeSegment,
    IntermediaryGaze,
    NoGaze,
    PanelGaze,
    ScreenGaze,
    TrialTrace,
    panel_category_of,
    simulate_session,
)
from xrlayout.errors import IncompleteTrial
from xrlayout.metrics import (
    SessionSummary,
    TrialMetrics,
    aggregate,
    classify_relevance,
    gaze_switches,
    navigation_time,
    sample_sd,
    session_metrics,
    trial_metrics,
)
from xrlayout.placement import Strategy
from xrlayout.scenario import Trial, bundled_scenario_names, grid_cell, load_bundled

# -- the oracle: scoring before the one-pass scan -----------------------------


def oracle_dwells(samples, end_time):
    runs = []
    for s in samples:
        if runs and runs[-1][2] == s.target:
            continue
        if runs:
            runs[-1] = (runs[-1][0], s.t, runs[-1][2])
        runs.append([s.t, end_time, s.target])
    return [(a, b, t) for a, b, t in runs]


def oracle_navigation_time(samples, trial, *, end_time, min_fixation=0.15):
    row, col = grid_cell(trial.category, trial.country)
    want = DocumentGaze(trial.category, row, col)
    t_done = trial.question_complete
    for t0, t1, target in oracle_dwells(samples, end_time):
        if target != want:
            continue
        start = max(t0, t_done)
        if t1 - start >= min_fixation - 1e-12:
            return start - t_done
    raise IncompleteTrial(
        f"no fixation >= {min_fixation}s on {trial.category}/{trial.country}"
    )


def oracle_gaze_switches(samples, *, window=None):
    last = None
    switches = 0
    for s in samples:
        if window is not None and not (window[0] <= s.t < window[1]):
            continue
        cat = panel_category_of(s.target)
        if cat is None:
            continue
        if last is not None and cat != last:
            switches += 1
        last = cat
    return switches


def oracle_trial_metrics(trace, *, context, strategy, min_fixation=None):
    if min_fixation is None:
        min_fixation = trace.params.fixation_min
    samples = [GazeSample(s.t0, s.target) for s in trace.segments]
    end = trace.segments[-1].t1 if trace.segments else trace.t_complete
    nav = oracle_navigation_time(
        samples, trace.trial, end_time=end, min_fixation=min_fixation
    )
    t0 = trace.trial.question_start
    switches = oracle_gaze_switches(samples, window=(t0, end))
    errs = len(sorted((o for o in trace.opens if not o.correct), key=lambda o: o.t))
    return TrialMetrics(
        context=context,
        strategy=strategy,
        trial_index=trace.trial.index,
        category=trace.trial.category,
        country=trace.trial.country,
        navigation_time_s=nav,
        gaze_switches=switches,
        errors=errs,
        relevant=classify_relevance(trace.trial, context=context),
        near=trace.trial.near,
    )


def oracle_aggregate(rows, *, seed):
    navs = [r.navigation_time_s for r in rows]
    sws = [float(r.gaze_switches) for r in rows]
    return SessionSummary(
        context=rows[0].context,
        strategy=rows[0].strategy,
        seed=seed,
        trials=len(rows),
        nav_time_mean_s=statistics.fmean(navs),
        nav_time_median_s=statistics.median(navs),
        nav_time_sd_s=sample_sd(navs),
        switches_mean=statistics.fmean(sws),
        switches_median=statistics.median(sws),
        switches_sd=sample_sd(sws),
        errors_total=sum(r.errors for r in rows),
        relevant_fraction=sum(1 for r in rows if r.relevant) / len(rows),
    )


def outcome(fn, *args, **kwargs):
    """repr of the result (every float bit shows), or the error raised."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except IncompleteTrial as e:
        return "raised", str(e)


# -- drawn streams -------------------------------------------------------------

WORDS = ("which", "country", "hosts", "the", "games", "Japan")
TRIAL = Trial(
    index=0,
    category="sports",
    country="Japan",
    question_words=WORDS,
    word_schedule=tuple(10.0 + 0.45 * i for i in range(len(WORDS))),
    near=None,
)
ROW, COL = grid_cell("sports", "Japan")
T_START, T_DONE = TRIAL.question_start, TRIAL.question_complete
# The last one minus the 1e-12 of slack is 19/128 exactly, a dwell that
# T_DONE + dwell - T_DONE gives back to the bit.
MIN_FIXATIONS = (0.15, 0.1, 0.2, 1e-6, 0.148437500001)
TARGETS = (
    NoGaze(),
    ScreenGaze(),
    IntermediaryGaze("host_sports"),
    PanelGaze("sports"),
    PanelGaze("food"),
    DocumentGaze("sports", ROW, COL),  # the wanted cell
    DocumentGaze("sports", ROW, (COL + 1) % 4),
    DocumentGaze("food", ROW, COL),
)
# equal to the wanted cell but another object, so equality is what counts
WANTED = st.builds(lambda: DocumentGaze("sports", ROW, COL))


def float_steps(t, k=64):
    """t and the k floats either side of it."""
    out = [t]
    for direction in (-math.inf, math.inf):
        u = t
        for _ in range(k):
            u = math.nextafter(u, direction)
            out.append(u)
    return out


@st.composite
def streams(draw):
    """(samples, end_time, min_fixation, window) with times on the edges
    that matter: the question window, the fixation threshold after
    question_complete and 1e-12 either side of it, plus free times."""
    mf = draw(st.sampled_from(MIN_FIXATIONS))
    edges = [T_START, T_DONE, T_DONE - mf, T_DONE + 0.5]
    for base in (T_DONE, T_DONE - 0.3, T_DONE + 0.5):
        edges += [base + mf, base + mf - 1e-12, base + mf + 1e-12, base + mf - 2e-12]
    # dwells from question_complete that are the threshold to the bit
    edges += [t for t in float_steps(T_DONE + (mf - 1e-12)) if t - T_DONE == mf - 1e-12]
    time = st.sampled_from(edges) | st.floats(T_START - 2.0, T_DONE + 4.0)
    times = draw(st.lists(time, max_size=12))
    if draw(st.integers(0, 4)):  # mostly in order, as recorded streams are
        times.sort()
    target = st.sampled_from(TARGETS) | WANTED
    samples = [GazeSample(t, draw(target)) for t in times]
    end_time = draw(time) if draw(st.booleans()) else max([*times, T_DONE]) + mf
    window = draw(st.none() | st.tuples(time, time) | st.just((T_START, end_time)))
    return samples, end_time, mf, window


def trial_trace(samples, end_time, mf):
    """A one-trial trace whose segments start at the samples' times."""
    ts = [s.t for s in samples]
    segments = [
        GazeSegment(s.t, t1, s.target) for s, t1 in zip(samples, [*ts[1:], end_time])
    ]
    return TrialTrace(
        trial=TRIAL,
        t_complete=T_DONE,
        t_open=None,
        segments=segments,
        opens=[],
        params=AgentParams(fixation_min=mf),
    )


class TestScanEqualsRunOracle:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(streams())
    def test_navigation_time_and_switches(self, stream):
        samples, end_time, mf, window = stream
        assert outcome(
            navigation_time, samples, TRIAL, end_time=end_time, min_fixation=mf
        ) == outcome(
            oracle_navigation_time, samples, TRIAL, end_time=end_time, min_fixation=mf
        )
        assert gaze_switches(samples, window=window) == oracle_gaze_switches(
            samples, window=window
        )
        assert gaze_switches(samples) == oracle_gaze_switches(samples)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(streams())
    def test_trial_metrics_reads_the_segments(self, stream):
        samples, end_time, mf, _ = stream
        if samples:  # segments tile [first t, end_time) in time order
            samples.sort(key=lambda s: s.t)
            end_time = max(end_time, samples[-1].t)
        trace = trial_trace(samples, end_time, mf)
        kw = dict(context="static_stationary", strategy="body_fixed")
        assert outcome(trial_metrics, trace, **kw) == outcome(
            oracle_trial_metrics, trace, **kw
        )

    def test_empty_and_incomplete_trials_raise(self):
        kw = dict(context="static_stationary", strategy="body_fixed")
        with pytest.raises(IncompleteTrial, match="no fixation >= 0.15s on sports/Japan"):
            trial_metrics(trial_trace([], T_DONE, 0.15), **kw)
        short = [GazeSample(T_DONE, DocumentGaze("sports", ROW, COL))]
        with pytest.raises(IncompleteTrial):
            trial_metrics(trial_trace(short, T_DONE + 0.15 - 2e-12, 0.15), **kw)
        row = trial_metrics(trial_trace(short, T_DONE + 0.15 - 1e-12, 0.15), **kw)
        assert row.navigation_time_s == 0.0
        with pytest.raises(IncompleteTrial):
            navigation_time([], TRIAL, end_time=20.0)


# Columns of any length mix ordinary times, both zeros, subnormals and values
# near +-1e300 (40 of them still sum below the largest float).
NAV_VALUES = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(9e299, 1.1e300),
    st.floats(-1.1e300, -9e299),
)

NAMES = sorted(bundled_scenario_names())
SCENARIOS = {name: load_bundled(name) for name in NAMES}


class TestSessionScoringEqualsOracle:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32))
    def test_every_session_and_strategy(self, seed):
        for name in NAMES:
            for strategy in Strategy:
                trace = simulate_session(SCENARIOS[name], strategy=strategy, seed=seed)
                rows = session_metrics(trace)
                kw = dict(context=trace.context, strategy=strategy.value)
                want = [oracle_trial_metrics(tt, **kw) for tt in trace.trials]
                assert repr(rows) == repr(want)
                assert repr(aggregate(rows, seed=seed)) == repr(
                    oracle_aggregate(want, seed=seed)
                )

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
    def test_switch_statistics_on_integer_counts(self, counts):
        rows = [
            TrialMetrics("dynamic_mobile", "body_fixed", i, "sports", "Japan", 1.5, c, 0, True, None)
            for i, c in enumerate(counts)
        ]
        assert repr(aggregate(rows, seed=1)) == repr(oracle_aggregate(rows, seed=1))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(NAV_VALUES, min_size=1, max_size=40))
    def test_statistics_on_drawn_navigation_columns(self, navs):
        rows = [
            TrialMetrics("dynamic_mobile", "body_fixed", i, "sports", "Japan", x, i % 3, 0, True, None)
            for i, x in enumerate(navs)
        ]
        assert repr(aggregate(rows, seed=1)) == repr(oracle_aggregate(rows, seed=1))


# -- GazeSegment keeps the frozen dataclass's value semantics ------------------

DataclassSegment = make_dataclass(
    "GazeSegment", [("t0", float), ("t1", float), ("target", object)], frozen=True
)
SEGMENT_ARGS = [
    (0.0, 1.5, NoGaze()),
    (-0.0, 0.0, ScreenGaze()),
    (2.25, 2.4, DocumentGaze("sports", ROW, COL)),
    (1e308, float("inf"), IntermediaryGaze("host_food")),
    (0.1, 0.30000000000000004, PanelGaze("movies")),
]


class TestGazeSegmentValueSemantics:
    @pytest.mark.parametrize("args", SEGMENT_ARGS)
    def test_eq_hash_and_repr_are_the_dataclass_ones(self, args):
        seg, old = GazeSegment(*args), DataclassSegment(*args)
        assert repr(seg) == repr(old)
        assert hash(seg) == hash(old)
        assert seg == GazeSegment(*args)
        assert seg == GazeSegment(t0=args[0], t1=args[1], target=args[2])
        assert seg != old  # another class, as between two dataclasses
        assert seg != args

    def test_equality_follows_every_field(self):
        seg = GazeSegment(0.0, 1.0, PanelGaze("food"))
        assert seg != GazeSegment(0.0, 1.5, PanelGaze("food"))
        assert seg != GazeSegment(0.5, 1.0, PanelGaze("food"))
        assert seg != GazeSegment(0.0, 1.0, PanelGaze("sports"))
        assert seg == GazeSegment(-0.0, 1.0, PanelGaze("food"))  # float equality
        assert len({seg, GazeSegment(0.0, 1.0, PanelGaze("food"))}) == 1

    def test_assignment_and_deletion_raise(self):
        seg = GazeSegment(0.0, 1.0, NoGaze())
        for name in ("t0", "t1", "target"):
            with pytest.raises(FrozenInstanceError):
                setattr(seg, name, 2.0)
            with pytest.raises(FrozenInstanceError):
                delattr(seg, name)
        with pytest.raises(FrozenInstanceError):
            seg.extra = 1
        assert (seg.t0, seg.t1, seg.target) == (0.0, 1.0, NoGaze())

    @pytest.mark.parametrize(
        "roundtrip",
        [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy_roundtrip(self, roundtrip):
        for args in SEGMENT_ARGS:
            seg = GazeSegment(*args)
            back = roundtrip(seg)
            assert type(back) is GazeSegment
            assert back == seg
            assert repr(back) == repr(seg)

    def test_pattern_matching_by_position(self):
        match GazeSegment(1.0, 2.0, ScreenGaze()):
            case GazeSegment(t0, t1, ScreenGaze()):
                assert (t0, t1) == (1.0, 2.0)
            case _:
                pytest.fail("positional pattern did not match")

    def test_whole_sessions_pickle(self):
        trace = simulate_session(SCENARIOS[NAMES[0]], seed=5)
        assert pickle.loads(pickle.dumps(trace)) == trace
