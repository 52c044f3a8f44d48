"""Placement-quality metrics: pinned examples, edge cases, round-trips."""

import json
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlayout.agent import (
    DocumentGaze,
    GazeSample,
    IntermediaryGaze,
    NoGaze,
    PanelGaze,
    ScreenGaze,
    simulate_session,
)
from xrlayout.errors import EmptyTrialSet, IncompleteTrial
from xrlayout.metrics import (
    SUMMARY_FIELDS,
    TRIAL_FIELDS,
    SessionSummary,
    TrialMetrics,
    aggregate,
    classify_relevance,
    error_events,
    gaze_switches,
    navigation_time,
    results_from_json,
    results_to_json,
    sample_sd,
    session_metrics,
    summaries_from_csv,
    summaries_to_csv,
    trial_metrics,
    trials_from_csv,
    trials_to_csv,
)
from xrlayout.scenario import Trial, bundled_scenario_text, grid_cell, load_bundled, parse_scenario


def make_trial(category="sports", country="Japan", start=10.0, near=None):
    words = ("which", "country", "hosts", "the", "games", country)
    schedule = tuple(start + 0.45 * i for i in range(len(words)))
    return Trial(
        index=0,
        category=category,
        country=country,
        question_words=words,
        word_schedule=schedule,
        near=near,
    )


def samples(*pairs):
    return [GazeSample(t, target) for t, target in pairs]


class TestGazeSwitches:
    def test_counts_transitions_between_distinct_panels(self):
        s = samples(
            (0.0, PanelGaze("sports")),
            (1.0, PanelGaze("sports")),
            (2.0, PanelGaze("food")),
            (3.0, PanelGaze("sports")),
        )
        assert gaze_switches(s) == 2

    def test_off_panel_gaps_do_not_reset_the_count(self):
        s = samples(
            (0.0, PanelGaze("sports")),
            (1.0, IntermediaryGaze("host_food")),
            (2.0, ScreenGaze()),
            (3.0, PanelGaze("sports")),
        )
        assert gaze_switches(s) == 0

    def test_documents_count_as_their_panel(self):
        s = samples(
            (0.0, PanelGaze("sports")),
            (1.0, DocumentGaze("sports", 2, 1)),
            (2.0, PanelGaze("food")),
            (3.0, DocumentGaze("food", 0, 0)),
        )
        assert gaze_switches(s) == 1

    def test_window_uses_half_open_interval(self):
        s = samples(
            (0.0, PanelGaze("sports")),
            (5.0, PanelGaze("food")),
            (10.0, PanelGaze("movies")),
        )
        assert gaze_switches(s, window=(0.0, 10.0)) == 1
        assert gaze_switches(s, window=(0.0, 10.5)) == 2
        assert gaze_switches(s, window=(4.0, 10.5)) == 1

    def test_empty_and_single_target_streams(self):
        assert gaze_switches([]) == 0
        assert gaze_switches(samples((0.0, PanelGaze("food")))) == 0
        assert gaze_switches(samples((0.0, NoGaze()), (1.0, ScreenGaze()))) == 0


class TestNavigationTime:
    def test_pinned_example(self):
        trial = make_trial()  # question completes at 12.25
        row, col = grid_cell("sports", "Japan")
        s = samples(
            (10.0, ScreenGaze()),
            (14.55, DocumentGaze("sports", row, col)),
        )
        nav = navigation_time(s, trial, end_time=20.0)
        assert nav == pytest.approx(14.55 - 12.25, abs=1e-12)

    def test_short_glances_are_skipped(self):
        trial = make_trial()
        row, col = grid_cell("sports", "Japan")
        s = samples(
            (10.0, ScreenGaze()),
            (13.0, DocumentGaze("sports", row, col)),  # 0.1 s: below threshold
            (13.1, PanelGaze("sports")),
            (15.0, DocumentGaze("sports", row, col)),
        )
        nav = navigation_time(s, trial, end_time=20.0)
        assert nav == pytest.approx(15.0 - 12.25, abs=1e-12)

    def test_dwell_straddling_completion_counts_from_completion(self):
        trial = make_trial()
        row, col = grid_cell("sports", "Japan")
        s = samples((11.9, DocumentGaze("sports", row, col)),)
        nav = navigation_time(s, trial, end_time=20.0)
        assert nav == 0.0

    def test_wrong_cell_never_qualifies(self):
        trial = make_trial()
        s = samples(
            (10.0, ScreenGaze()),
            (13.0, DocumentGaze("sports", 0, 0)),  # Argentina, not Japan
        )
        with pytest.raises(IncompleteTrial):
            navigation_time(s, trial, end_time=20.0)

    def test_subdivision_invariance(self):
        trial = make_trial()
        row, col = grid_cell("sports", "Japan")
        coarse = samples(
            (10.0, ScreenGaze()),
            (14.0, DocumentGaze("sports", row, col)),
        )
        fine = samples(
            (10.0, ScreenGaze()),
            (12.0, ScreenGaze()),
            (14.0, DocumentGaze("sports", row, col)),
            (14.05, DocumentGaze("sports", row, col)),
            (14.1, DocumentGaze("sports", row, col)),
        )
        a = navigation_time(coarse, trial, end_time=20.0)
        b = navigation_time(fine, trial, end_time=20.0)
        assert a == b
        assert gaze_switches(coarse) == gaze_switches(fine)


class TestRelevance:
    def test_dynamic_contexts_are_always_relevant(self):
        t = make_trial()
        assert classify_relevance(t, context="dynamic_stationary") is True
        assert classify_relevance(make_trial(near=True), context="dynamic_mobile") is True
        assert classify_relevance(make_trial(near=False), context="dynamic_mobile") is True

    def test_static_mobile_uses_the_near_flag(self):
        assert classify_relevance(make_trial(near=True), context="static_mobile") is True
        assert classify_relevance(make_trial(near=False), context="static_mobile") is False
        with pytest.raises(ValueError):
            classify_relevance(make_trial(near=None), context="static_mobile")

    def test_static_stationary_keys_on_category(self):
        assert classify_relevance(make_trial(category="sports"), context="static_stationary")
        assert not classify_relevance(make_trial(category="food"), context="static_stationary")

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError):
            classify_relevance(make_trial(), context="martian")


def summary_row(i, nav, sw):
    return TrialMetrics(
        context="static_mobile",
        strategy="environment_referenced",
        trial_index=i,
        category="food",
        country="Chile",
        navigation_time_s=nav,
        gaze_switches=sw,
        errors=0,
        relevant=bool(i % 2),
        near=None,
    )


class TestSessionMetrics:
    def test_session_rows_line_up_with_trials(self):
        scn = load_bundled("static_mobile_env_ref")
        trace = simulate_session(scn)
        rows = session_metrics(trace)
        assert len(rows) == 6
        for row, tt in zip(rows, trace.trials):
            assert row.category == tt.trial.category
            assert row.country == tt.trial.country
            assert row.context == "static_mobile"
            assert row.navigation_time_s > 0.0
            assert row.errors == len(error_events(tt.opens))
            assert row.near == tt.trial.near

    @pytest.mark.parametrize("fixation_min_s", [0.1, 1e-6])
    def test_scoring_follows_the_agent_fixation_threshold(self, fixation_min_s):
        doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
        doc["agent"]["fixation_min_s"] = fixation_min_s
        trace = simulate_session(parse_scenario(json.dumps(doc)))
        rows = session_metrics(trace)
        for row, tt in zip(rows, trace.trials):
            # the document opens one threshold into the scoring fixation
            t_fix = tt.t_open - fixation_min_s
            assert row.navigation_time_s == pytest.approx(t_fix - tt.t_complete, abs=1e-9)
            assert trial_metrics(tt, context=row.context, strategy=row.strategy) == row

    def test_aggregate_pinned_statistics(self):
        rows = [summary_row(0, 1.0, 1), summary_row(1, 2.0, 2), summary_row(2, 4.0, 6)]
        s = aggregate(rows, seed=42)
        assert s.trials == 3
        assert s.nav_time_mean_s == pytest.approx(7.0 / 3.0)
        assert s.nav_time_median_s == 2.0
        assert s.nav_time_sd_s == pytest.approx((7.0 / 3.0) ** 0.5)
        assert s.switches_mean == pytest.approx(3.0)
        assert s.switches_median == 2.0
        assert s.errors_total == 0
        assert s.relevant_fraction == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize(
        "navs",
        [
            # a dwell_jitter_s of 7.43475599216108e+307 gave these; fsum overflowed
            [0.22646467605958875, 5.860538292977244e307, 1.2116393055645915e308],
            [0.5, 1.0e308, 1.5e308, 0.25],  # the two middle values overflow a float sum
            [sys.float_info.max] * 3,
        ],
    )
    def test_aggregate_of_finite_values_is_finite(self, navs):
        rows = [summary_row(i, nav, 1) for i, nav in enumerate(navs)]
        s = aggregate(rows, seed=1)
        assert min(navs) <= s.nav_time_mean_s <= max(navs)
        assert min(navs) <= s.nav_time_median_s <= max(navs)
        assert s.nav_time_mean_s == pytest.approx(statistics.fmean(n / 4 for n in navs) * 4)
        results_to_json([s], rows)  # no NaN or infinity to reject

    def test_aggregate_rejects_empty_and_mixed_input(self):
        with pytest.raises(EmptyTrialSet):
            aggregate([], seed=1)
        a = session_metrics(simulate_session(load_bundled("static_mobile_env_ref")))
        b = session_metrics(simulate_session(load_bundled("static_mobile_body_fixed")))
        with pytest.raises(ValueError):
            aggregate(a + b, seed=1)


class TestSerialization:
    def _rows(self):
        trace = simulate_session(load_bundled("dynamic_mobile_body_fixed"))
        rows = session_metrics(trace)
        summary = aggregate(rows, seed=trace.seed)
        return rows, summary

    def test_trials_csv_round_trip_is_exact(self):
        rows, _ = self._rows()
        text = trials_to_csv(rows)
        assert text.endswith("\n")
        assert "\r" not in text
        assert text.splitlines()[0] == ",".join(TRIAL_FIELDS)
        assert trials_from_csv(text) == rows

    def test_summaries_csv_round_trip_is_exact(self):
        _, summary = self._rows()
        text = summaries_to_csv([summary])
        assert text.splitlines()[0] == ",".join(SUMMARY_FIELDS)
        assert summaries_from_csv(text) == [summary]

    def test_none_and_bool_cells(self):
        rows, _ = self._rows()
        stationary = [
            TrialMetrics(
                context="static_stationary",
                strategy="body_fixed",
                trial_index=0,
                category="sports",
                country="Japan",
                navigation_time_s=0.5,
                gaze_switches=0,
                errors=0,
                relevant=True,
                near=None,
            )
        ]
        back = trials_from_csv(trials_to_csv(stationary))
        assert back == stationary
        assert back[0].near is None
        assert back[0].relevant is True

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trials_from_csv("context,strategy\nx,y\n")
        with pytest.raises(ValueError):
            summaries_from_csv("nope\n1\n")

    GOOD_ROW = "static_mobile,body_fixed,0,sports,Japan,0.5,0,0,true,false"

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("", 0, "unexpected header: None"),
            (GOOD_ROW.rsplit(",", 1)[0], 2, "expected 10 cells, got 9"),
            (GOOD_ROW + ",extra", 2, "expected 10 cells, got 11"),
            (GOOD_ROW + "\n\n", 3, "expected 10 cells, got 0"),
            (GOOD_ROW.replace(",true,", ",yes,"), 2, "expected true or false, got 'yes'"),
            (GOOD_ROW.replace(",true,", ",,"), 2, "expected true or false, got ''"),
            (GOOD_ROW.replace(",false", ",False"), 2, "expected true or false, got 'False'"),
            (GOOD_ROW.replace(",0,sports", ",x,sports"), 2, "invalid literal for int"),
            (GOOD_ROW.replace("Japan", "J" * 200_000), 2, "field larger than field limit"),
        ],
        ids=["empty", "short_row", "long_row", "blank_line", "flag_yes", "flag_empty_not_optional",
             "flag_capitalized", "int_cell", "csv_error"],
    )
    def test_malformed_text_raises_value_error_naming_the_line(self, text, line, reason):
        if text:
            text = ",".join(TRIAL_FIELDS) + "\n" + text
        with pytest.raises(ValueError, match=f"^TrialMetrics csv line {line}: {reason}"):
            trials_from_csv(text)

    def test_json_round_trip(self):
        rows, summary = self._rows()
        meta = {"seed": 42, "sessions": 1}
        text = results_to_json([summary], rows, meta=meta)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == ["meta", "summaries", "trials"]
        summaries2, rows2, meta2 = results_from_json(text)
        assert summaries2 == [summary]
        assert rows2 == rows
        assert meta2 == meta

    def test_json_rejects_non_finite_values(self):
        _, summary = self._rows()
        bad = SessionSummary(
            context=summary.context,
            strategy=summary.strategy,
            seed=summary.seed,
            trials=summary.trials,
            nav_time_mean_s=float("nan"),
            nav_time_median_s=summary.nav_time_median_s,
            nav_time_sd_s=summary.nav_time_sd_s,
            switches_mean=summary.switches_mean,
            switches_median=summary.switches_median,
            switches_sd=summary.switches_sd,
            errors_total=summary.errors_total,
            relevant_fraction=summary.relevant_fraction,
        )
        with pytest.raises(ValueError):
            results_to_json([bad], [], meta={})

    def test_json_output_is_deterministic(self):
        rows, summary = self._rows()
        a = results_to_json([summary], rows, meta={"seed": 42})
        b = results_to_json([summary], rows, meta={"seed": 42})
        assert a == b


class TestSampleSd:
    def test_pinned(self):
        assert sample_sd([]) == sample_sd([3.0]) == 0.0
        assert sample_sd([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == 2.138089935299395
        assert sample_sd([1.0, 1.0, 1.0]) == 0.0
        assert sample_sd([0.0, 1e308]) == 7.071067811865476e307

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="statistics.stdev is correctly rounded from 3.11"
    )
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 500.0),
                st.integers(0, 40).map(float),
                st.floats(-1e150, 1e150, allow_nan=False),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_correctly_rounded_stdev(self, xs):
        assert sample_sd(xs) == statistics.stdev(xs)
