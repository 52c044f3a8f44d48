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

A warm session's trials take the score of their plan search entry, and
aggregate the summary of the same row objects; the checks below hold both
to the scan: redrawn agent parameters, a trace edited after the run, a
score that a naive cache would reuse wrongly, and rows equal by value only.
"""

import copy
import json
import math
import pickle
import statistics
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xrlayout import agent, metrics
from xrlayout.agent import (
    AgentParams,
    DocumentGaze,
    GazeSample,
    GazeSegment,
    IntermediaryGaze,
    NoGaze,
    OpenEvent,
    PanelGaze,
    ScreenGaze,
    TrialTrace,
    simulate_session,
)
from xrlayout.errors import IncompleteTrial, replace
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
from xrlayout.scenario import (
    SCAN_POLICIES,
    Trial,
    bundled_scenario_names,
    bundled_scenario_text,
    grid_cell,
    load_bundled,
    parse_scenario,
)

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


def panel_category_of(target):
    """Panel a gaze target lies on, for switch counting; None off-panel."""
    return target.category if isinstance(target, (PanelGaze, DocumentGaze)) else None


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
# T_DONE + dwell - T_DONE gives back to the bit.  1e-6 is below the agent
# row's range, so only a recorded stream is scored under it.
MIN_FIXATIONS = (0.15, 0.1, 0.2, 0.001, 1e-6, 0.148437500001)
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
        assume(mf >= 0.001)  # the agent row's lower end: a trace carries its AgentParams
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


# -- a warm session reuses its plan entries' scores ----------------------------


def scanned(trace):
    """outcome of scoring every trial of trace by trial_metrics, the scan."""
    kw = dict(context=trace.context, strategy=trace.strategy.value)
    return outcome(lambda: [trial_metrics(t, **kw) for t in trace.trials])


# Each bundled session on one Scenario of its own, which keeps its plan
# across the examples drawn below.
WARM = {name: load_bundled(name) for name in NAMES}


@st.composite
def agent_params(draw):
    """AgentParams over the agent rows' ranges (the tick rate scores nothing)."""
    return AgentParams(
        fixation_min=draw(st.sampled_from([0.15, 0.001, 10.0]) | st.floats(0.001, 10.0)),
        per_cell_scan_time=draw(st.sampled_from([0.2, 10.0]) | st.floats(1e-6, 10.0)),
        scan_policy=draw(st.sampled_from(SCAN_POLICIES)),
        known_grid=draw(st.booleans()),
        yaw_rate_deg_s=draw(st.sampled_from([180.0, 10.0]) | st.floats(10.0, 1e4)),
        confusion_prob=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
    )


def shifted_static_room(shift):
    """static_stationary_env_ref with every question moved shift seconds later."""
    doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
    for trial in doc["trials"]:
        trial["question_start_s"] += shift
        trial["word_schedule_s"] = [t + shift for t in trial["word_schedule_s"]]
    return parse_scenario(json.dumps(doc))


class TestPlanScore:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        params=agent_params(),
        jitter=st.sampled_from([0.02, 10.0]) | st.floats(1e-9, 10.0),
        jitter_first=st.booleans(),
    )
    def test_warm_scores_are_the_scan(self, params, jitter, jitter_first):
        """Sessions with and without dwell jitter share one plan shape, in either order."""
        jitters = (jitter, 0.0) if jitter_first else (0.0, jitter)
        for name in NAMES:
            for strategy in Strategy:
                for seed in (1, 2):
                    for j in jitters:
                        run = replace(params, dwell_jitter_s=j)
                        trace = simulate_session(WARM[name], run, strategy=strategy, seed=seed)
                        got = outcome(session_metrics, trace)
                        assert got == scanned(trace), (name, strategy, seed, j)
                        if got[0] == "raised":
                            continue
                        rows = session_metrics(trace)
                        want = oracle_aggregate(rows, seed=seed)
                        for _ in range(2):  # a fresh summary, then the memo's
                            assert repr(aggregate(rows, seed=seed)) == repr(want)

    def test_a_score_a_naive_cache_would_reuse(self):
        """Past 1e5 s a confirming dwell of exactly fixation_min fails the dwell rule.

        So with no jitter the trial cannot be scored, while a jittered
        session laid on the same plan entry scores: reusing the jittered
        session's row for the other would be wrong.
        """
        scn = shifted_static_room(1e5)
        jittered, exact = (
            simulate_session(
                scn, replace(scn.agent, dwell_jitter_s=j), strategy="body_fixed", seed=1
            )
            for j in (0.02, 0.0)
        )
        assert outcome(session_metrics, jittered) == scanned(jittered)
        assert scanned(jittered)[0] == "ok"
        with pytest.raises(IncompleteTrial, match="no fixation >= 0.15s on sports/Japan"):
            session_metrics(exact)

    def test_a_warm_pass_scans_and_sums_nothing(self, monkeypatch):
        """A second pass over seeds the plan holds reads every score and summary back."""
        warm = {name: load_bundled(name) for name in NAMES}

        def sweep():
            for seed in range(1, 21):
                for scn in warm.values():
                    for strategy in Strategy:
                        trace = simulate_session(scn, strategy=strategy, seed=seed)
                        aggregate(session_metrics(trace), seed=seed)

        sweep()
        calls = []
        scan, stats = metrics._scan, metrics._stats
        monkeypatch.setattr(metrics, "_scan", lambda *a, **kw: calls.append(a) or scan(*a, **kw))
        monkeypatch.setattr(metrics, "_stats", lambda *a: calls.append(a) or stats(*a))
        sweep()
        assert not calls
        # the spies do see a cold session
        cold = load_bundled(NAMES[0])
        aggregate(session_metrics(simulate_session(cold, seed=1)), seed=1)
        assert calls


def warm_trace():
    """A visual-search session replayed from plan entries that are scored already."""
    for _ in range(2):
        trace = simulate_session(
            SCENARIOS["dynamic_mobile_body_fixed"], strategy=Strategy.BODY_FIXED, seed=3
        )
        session_metrics(trace)
    assert all(t._plan is not None for t in trace.trials)
    return trace


class TestEditedTracesScoreAsTheScan:
    """A trace edited after the run takes no score its edits would change."""

    def check(self, trace):
        assert outcome(session_metrics, trace) == scanned(trace)

    def test_unedited(self):
        trace = warm_trace()
        self.check(trace)
        assert outcome(session_metrics, trace)[0] == "ok"

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_a_middle_segment_replaced_in_place(self, shift):
        trace = warm_trace()
        for t in trace.trials:
            k = len(t.segments) // 2
            seg = t.segments[k]
            want = metrics._wanted(t.trial.category, t.trial.country)
            # equal by value (shift 0), or a long look at the wanted cell
            target = seg.target if not shift else want
            t.segments[k] = GazeSegment(seg.t0, seg.t1 + shift, target)
        self.check(trace)

    def test_the_last_dwell_shortened_below_fixation_min(self):
        trace = warm_trace()
        t = trace.trials[1]
        last = t.segments[-1]
        t.segments[-1] = GazeSegment(last.t0, last.t0 + 0.5 * t.params.fixation_min, last.target)
        self.check(trace)
        assert outcome(session_metrics, trace)[0] == "raised"

    def test_the_last_dwell_moved_or_retargeted(self):
        for edit in (
            lambda last: GazeSegment(last.t0 - 0.01, last.t1, last.target),
            lambda last: GazeSegment(last.t0, last.t1, PanelGaze(last.target.category)),
        ):
            trace = warm_trace()
            for t in trace.trials:
                t.segments[-1] = edit(t.segments[-1])
            self.check(trace)

    def test_a_segment_inserted_before_the_last(self):
        trace = warm_trace()
        for t in trace.trials:
            last = t.segments[-1]
            other = next(c for c in ("sports", "food") if c != last.target.category)
            t.segments.insert(-1, GazeSegment(last.t0, last.t0, PanelGaze(other)))
        self.check(trace)

    def test_the_correct_open_dropped(self):
        trace = warm_trace()
        for t in trace.trials:
            t.opens = [o for o in t.opens if not o.correct]
        self.check(trace)

    def test_a_wrong_open_added(self):
        trace = warm_trace()
        t = trace.trials[0]
        o = t.opens[-1]
        t.opens.append(OpenEvent(o.t, o.category, o.country, o.row, o.col, False))
        self.check(trace)
        assert session_metrics(trace)[0].errors == 1

    def test_the_trial_reassigned(self):
        trace = warm_trace()
        trials = [t.trial for t in trace.trials]
        for t, other in zip(trace.trials, trials[1:] + trials[:1]):
            t.trial = other
        self.check(trace)

    @pytest.mark.parametrize("fixation_min", [0.1, 0.15 - 1e-9, 0.3])
    def test_the_params_reassigned(self, fixation_min):
        trace = warm_trace()
        for t in trace.trials:
            t.params = replace(t.params, fixation_min=fixation_min)
        self.check(trace)

    @pytest.mark.parametrize(
        "attr, value", [("strategy", Strategy.HEAD_FIXED), ("context", "dynamic_stationary")]
    )
    def test_the_session_reassigned(self, attr, value):
        trace = warm_trace()
        setattr(trace, attr, value)
        self.check(trace)
        want = getattr(value, "value", value)  # a Strategy's row holds its value
        assert {getattr(r, attr) for r in session_metrics(trace)} == {want}

    @pytest.mark.parametrize(
        "rebuild",
        [
            lambda trace: [replace(t) for t in trace.trials],
            lambda trace: pickle.loads(pickle.dumps(trace)).trials,
            lambda trace: copy.deepcopy(trace.trials),
        ],
        ids=["replace", "pickle", "deepcopy"],  # each leaves _plan out
    )
    def test_a_rebuilt_trace_scores_as_the_scan(self, rebuild):
        trace = warm_trace()
        trace.trials = rebuild(trace)
        assert all(t._plan is None for t in trace.trials)
        self.check(trace)

    def test_a_pickle_or_copy_leaves_the_plan_out(self, monkeypatch):
        """Equal traces pickle to equal bytes, and a copy is scanned, not handed a plan score."""
        scn = SCENARIOS["dynamic_mobile_body_fixed"]
        params = scn.agent._with_seed(9)
        for _ in range(2):
            warm = simulate_session(scn, params, strategy=Strategy.BODY_FIXED)
        cold = agent._Simulator(scn, params, Strategy.BODY_FIXED, 9, on_plan=False).run()
        assert all(t._plan is not None for t in warm.trials)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        session_metrics(warm)  # the plan entries hold their scores now
        scans = []
        scan = metrics._scan
        monkeypatch.setattr(metrics, "_scan", lambda *a, **kw: scans.append(a) or scan(*a, **kw))
        for rebuild in (copy.copy, copy.deepcopy):
            copied = [rebuild(t) for t in warm.trials]
            assert copied == warm.trials
            assert all(t._plan is None for t in copied)
            scans.clear()
            rows = session_metrics(replace(warm, trials=copied))
            assert len(scans) == len(copied)
            assert rows == session_metrics(warm)


ROW_TEMPLATE = TrialMetrics(
    "static_stationary", "body_fixed", 0, "sports", "Japan", 1.0, 0, 0, True, None
)


class TestAggregateMemo:
    def test_equal_rows_keep_their_own_zero(self):
        plus, minus = [[replace(ROW_TEMPLATE, navigation_time_s=zero)] for zero in (0.0, -0.0)]
        assert plus == minus  # equal by value: a value key would merge them
        for first, second in ((plus, minus), (minus, plus)):
            for r in (first, second):
                got = aggregate(r, seed=7)
                assert repr(got) == repr(oracle_aggregate(r, seed=7))
                assert math.copysign(1.0, got.nav_time_median_s) == math.copysign(
                    1.0, r[0].navigation_time_s
                )

    def test_a_hit_takes_the_callers_seed(self):
        rows = session_metrics(warm_trace())
        for seed in (1, 2, 1):
            assert aggregate(rows, seed=seed) == oracle_aggregate(rows, seed=seed)

    def test_rows_that_can_change_are_not_kept(self):
        row = SimpleNamespace(
            context="static_stationary",
            strategy="body_fixed",
            navigation_time_s=1.0,
            gaze_switches=0,
            errors=0,
            relevant=True,
        )
        assert aggregate([row], seed=1).nav_time_mean_s == 1.0
        row.navigation_time_s = 2.0
        assert aggregate([row], seed=1).nav_time_mean_s == 2.0

    def test_no_exception_is_kept(self):
        mixed = [ROW_TEMPLATE, replace(ROW_TEMPLATE, strategy="head_fixed")]
        for _ in range(2):
            with pytest.raises(ValueError, match="single session"):
                aggregate(mixed, seed=1)


# -- GazeSegment keeps the frozen dataclass's value semantics ------------------

class TestGazeSegmentValueSemantics:
    """GazeSegment checks beyond those every record gets.

    tests/test_value_types.py checks its eq, hash and repr against a
    dataclass oracle, its frozen fields, and its pickle and copy, also at
    the edge values these checks used to carry.
    """

    def test_equality_follows_every_field(self):
        seg = GazeSegment(0.0, 1.0, PanelGaze("food"))
        assert seg != GazeSegment(0.0, 1.5, PanelGaze("food"))
        assert seg != GazeSegment(0.5, 1.0, PanelGaze("food"))
        assert seg != GazeSegment(0.0, 1.0, PanelGaze("sports"))
        assert seg == GazeSegment(-0.0, 1.0, PanelGaze("food"))  # float equality
        assert len({seg, GazeSegment(0.0, 1.0, PanelGaze("food"))}) == 1

    def test_pattern_matching_by_position(self):
        match GazeSegment(1.0, 2.0, ScreenGaze()):
            case GazeSegment(t0, t1, ScreenGaze()):
                assert (t0, t1) == (1.0, 2.0)
            case _:
                pytest.fail("positional pattern did not match")

    def test_whole_sessions_pickle(self):
        trace = simulate_session(SCENARIOS[NAMES[0]], seed=5)
        assert pickle.loads(pickle.dumps(trace)) == trace
