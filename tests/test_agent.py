"""Synthetic gaze agent: determinism, navigation arithmetic, scan policies."""

import json
import random
import re
import sys
from dataclasses import replace
from functools import partial

import pytest

from xrlayout import agent
from xrlayout.agent import (
    AgentParams,
    DocumentGaze,
    IntermediaryGaze,
    NoGaze,
    PanelGaze,
    ScreenGaze,
    focus_target,
    panel_category_of,
    simulate_session,
)
from xrlayout.metrics import aggregate, results_to_json, session_metrics
from xrlayout.placement import Strategy
from xrlayout.scenario import (
    SCAN_POLICIES,
    Scenario,
    bundled_scenario_names,
    bundled_scenario_text,
    grid_cell,
    load_bundled,
    parse_scenario,
    serialize_scenario,
)

TAU = 0.2  # default per-cell scan time


def flat_eye_scenario(name):
    """Fixture variant with the eye line level with panel centers.

    With eye height equal to panel height the pre-search gaze ray and the
    target panel center are exactly collinear for environment-referenced
    layouts, so navigation time reduces to the pure grid-localization term.
    """
    doc = json.loads(bundled_scenario_text(name))
    doc["placement"]["eye_height_m"] = 1.5
    return parse_scenario(json.dumps(doc))


def panel_fixations(trace, trial_index):
    out = []
    for seg in trace.trials[trial_index].segments:
        if isinstance(seg.target, PanelGaze):
            out.append(seg.target.category)
    return out


class TestDeterminism:
    def test_same_seed_reproduces_the_trace(self):
        scn = load_bundled("dynamic_mobile_body_fixed")
        a = simulate_session(scn, seed=7)
        b = simulate_session(scn, seed=7)
        assert a.segments == b.segments
        assert [t.t_open for t in a.trials] == [t.t_open for t in b.trials]

    def test_seed_changes_tie_breaks(self):
        scn = load_bundled("dynamic_stationary_body_fixed")
        routes = {
            tuple(panel_fixations(simulate_session(scn, seed=s), 1)) for s in range(30)
        }
        assert len(routes) > 1  # the food/movies tie falls both ways

    def test_strategy_in_rng_stream(self):
        # identical seed, different strategy: independent random streams
        scn = load_bundled("static_stationary_env_ref")
        a = simulate_session(scn, seed=3)
        b = simulate_session(scn, seed=3, strategy=Strategy.BODY_FIXED)
        assert a.strategy != b.strategy

    def test_strategy_given_as_its_value_string(self):
        scn = load_bundled("static_stationary_env_ref")
        a = simulate_session(scn, seed=3, strategy="head_fixed")
        b = simulate_session(scn, seed=3, strategy=Strategy.HEAD_FIXED)
        assert a.strategy is Strategy.HEAD_FIXED
        assert a.segments == b.segments
        with pytest.raises(ValueError):
            simulate_session(scn, seed=3, strategy="sideways")


class TestTimelineShape:
    @pytest.mark.parametrize(
        "name",
        [
            "static_stationary_env_ref",
            "dynamic_mobile_body_fixed",
            "static_mobile_env_ref",
        ],
    )
    def test_segments_tile_the_session(self, name):
        trace = simulate_session(load_bundled(name))
        segs = trace.segments
        assert segs[0].t0 == 0.0
        for a, b in zip(segs, segs[1:]):
            assert a.t1 == pytest.approx(b.t0, abs=1e-12)
            assert a.t1 > a.t0

    def test_no_document_gaze_before_full_presentation(self):
        for name in (
            "static_stationary_body_fixed",
            "dynamic_mobile_env_ref",
            "static_mobile_body_fixed",
        ):
            scn = load_bundled(name)
            trace = simulate_session(scn)
            for tt in trace.trials:
                for seg in tt.segments:
                    if isinstance(seg.target, DocumentGaze):
                        assert seg.t0 >= tt.trial.question_complete - 1e-12

    def test_exactly_one_correct_open_per_trial(self):
        for name in ("dynamic_mobile_env_ref", "dynamic_mobile_body_fixed"):
            trace = simulate_session(load_bundled(name))
            for tt in trace.trials:
                correct = [o for o in tt.opens if o.correct]
                assert len(correct) == 1
                o = correct[0]
                assert o.category == tt.trial.category
                assert o.country == tt.trial.country
                assert (o.row, o.col) == grid_cell(o.category, o.country)
                assert o.t == tt.t_open

    def test_tick_stream_matches_segments(self):
        trace = simulate_session(load_bundled("static_stationary_env_ref"))
        samples = trace.tick_samples(50.0)
        times = [s.t for s in samples]
        assert times == sorted(times)
        assert times[1] - times[0] == pytest.approx(0.02)
        seg_iter = iter(trace.segments)
        seg = next(seg_iter)
        for s in samples:
            while s.t >= seg.t1:
                nxt = next(seg_iter, None)
                if nxt is None:
                    break
                seg = nxt
            if seg.t0 <= s.t < seg.t1:
                assert s.target == seg.target


    def test_tick_rate_none_uses_params_rate(self):
        trace = simulate_session(load_bundled("static_stationary_env_ref"))
        hz = trace.params.tick_hz
        assert trace.tick_samples() == trace.tick_samples(None) == trace.tick_samples(hz)

    @pytest.mark.parametrize(
        "hz",
        [0, 0.0, -5, -0.5, float("nan"), float("inf"), float("-inf"), 1e308, 10_001, 1e-320],
    )
    def test_bad_tick_rate_rejected(self, hz):
        # 0 used to fall back to the params rate and -5 to give one sample
        trace = simulate_session(load_bundled("static_stationary_env_ref"))
        with pytest.raises(ValueError, match="tick rate"):
            trace.tick_samples(hz)


class TestNavigationArithmetic:
    def test_direct_route_costs_one_grid_localization(self):
        # collinear gaze: no head travel, so nav time is exactly tau
        scn = flat_eye_scenario("dynamic_stationary_env_ref")
        trace = simulate_session(scn)
        for tt in trace.trials:
            doc_segs = [s for s in tt.segments if isinstance(s.target, DocumentGaze)]
            assert doc_segs[0].t0 - tt.t_complete == pytest.approx(TAU, abs=1e-9)

    def test_unknown_grid_scans_cells_row_major(self):
        scn = flat_eye_scenario("static_stationary_env_ref")
        known = simulate_session(scn, AgentParams(known_grid=True))
        unknown = simulate_session(scn, AgentParams(known_grid=False))
        trial = scn.trials[0]  # sports / Japan
        row, col = grid_cell(trial.category, trial.country)
        idx = row * 7 + col
        nav_known = _first_doc_start(known, 0) - trial.question_complete
        nav_unknown = _first_correct_doc_start(unknown, 0) - trial.question_complete
        assert nav_unknown - nav_known == pytest.approx(TAU * idx, abs=1e-9)

    def test_farther_panels_cost_head_travel(self):
        scn = load_bundled("static_stationary_env_ref")
        trace = simulate_session(scn)
        navs = {
            tt.trial.category: _first_doc_start(trace, i) - tt.t_complete
            for i, tt in enumerate(trace.trials)
        }
        # the sports panel sits ahead; food and movies need a quarter turn
        assert navs["food"] > navs["sports"]
        assert navs["movies"] > navs["sports"]
        assert navs["food"] == pytest.approx(navs["movies"], abs=1e-12)


def _first_doc_start(trace, trial_index):
    for seg in trace.trials[trial_index].segments:
        if isinstance(seg.target, DocumentGaze):
            return seg.t0
    raise AssertionError("no document fixation")


def _first_correct_doc_start(trace, trial_index):
    trial = trace.trials[trial_index].trial
    want = grid_cell(trial.category, trial.country)
    for seg in trace.trials[trial_index].segments:
        if isinstance(seg.target, DocumentGaze) and (seg.target.row, seg.target.col) == want:
            return seg.t0
    raise AssertionError("no correct document fixation")


class TestScanPolicies:
    def test_adaptive_layout_needs_no_header_search(self):
        for name in ("dynamic_mobile_env_ref", "static_mobile_env_ref"):
            trace = simulate_session(load_bundled(name))
            for i, tt in enumerate(trace.trials):
                cats = panel_fixations(trace, i)
                assert cats == [tt.trial.category], (name, i)

    def test_static_room_is_recalled_under_any_strategy(self):
        for name in ("static_stationary_env_ref", "static_stationary_body_fixed"):
            trace = simulate_session(load_bundled(name))
            for i, tt in enumerate(trace.trials):
                assert panel_fixations(trace, i) == [tt.trial.category]

    def test_bearing_order_sweeps_leftward_on_ties(self):
        scn = load_bundled("dynamic_stationary_body_fixed")
        trace = simulate_session(scn, AgentParams(scan_policy="bearing_order"))
        # food question: panels sit at bearings 0 (sports), +90 (food),
        # -90 (movies); the sweep reads sports, then the left-side movies,
        # then lands on food
        assert panel_fixations(trace, 1) == ["sports", "movies", "food"]

    def test_random_seeded_policy_can_open_wrong_documents(self):
        scn = load_bundled("dynamic_stationary_body_fixed")
        params = AgentParams(scan_policy="random_seeded", confusion_prob=1.0, seed=1)
        trace = simulate_session(scn, params)
        wrong = [o for tt in trace.trials for o in tt.opens if not o.correct]
        assert wrong, "confusion_prob=1.0 must produce wrong opens on detours"
        for o in wrong:
            assert (o.row, o.col) == grid_cell(o.category, o.country)
        # and the correct document still gets opened afterwards
        for tt in trace.trials:
            assert any(o.correct for o in tt.opens)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AgentParams(scan_policy="psychic")


class TestFocusScript:
    def test_static_stationary_rests_on_the_sports_poster(self):
        scn = load_bundled("static_stationary_env_ref")
        state = scn.state_at(5.0)
        assert focus_target(state, scn, 5.0) == IntermediaryGaze("poster_sports")

    def test_static_presenting_watches_the_screen(self):
        scn = load_bundled("static_stationary_env_ref")
        t = scn.trials[0].question_start + 0.5
        assert focus_target(scn.state_at(t), scn, t) == ScreenGaze()

    def test_dynamic_presenting_watches_the_asking_host(self):
        scn = load_bundled("dynamic_stationary_env_ref")
        t = scn.trials[1].question_start + 0.5
        assert focus_target(scn.state_at(t), scn, t) == IntermediaryGaze("host_food")

    def test_static_mobile_rests_on_the_nearest_poster(self):
        scn = load_bundled("static_mobile_env_ref")
        state = scn.state_at(60.0)  # user stands by the food poster
        got = focus_target(state, scn, 33.0, answered_at=20.0)
        assert got == ScreenGaze() or isinstance(got, IntermediaryGaze)
        state = scn.state_at(55.0)
        assert focus_target(state, scn, 55.0, answered_at=50.0) == IntermediaryGaze(
            "poster_food"
        )


class TestAgentParams:
    def test_agent_block_uses_file_keys(self):
        doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
        doc["agent"] = {
            "fixation_min_s": 0.2,
            "per_cell_scan_time_s": 0.3,
            "scan_policy": "bearing_order",
            "known_grid": False,
            "seed": 9,
            "yaw_rate_deg_s": 90.0,
        }
        # the keys the block leaves out keep AgentParams' defaults
        assert parse_scenario(json.dumps(doc)).agent == AgentParams(
            fixation_min=0.2,
            per_cell_scan_time=0.3,
            scan_policy="bearing_order",
            known_grid=False,
            seed=9,
            yaw_rate_deg_s=90.0,
        )

    def test_rejects_non_positive_rates(self):
        with pytest.raises(ValueError):
            AgentParams(fixation_min=0.0)
        with pytest.raises(ValueError):
            AgentParams(yaw_rate_deg_s=-10.0)

    @pytest.mark.parametrize("name", ["fixation_min", "per_cell_scan_time", "yaw_rate_deg_s"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_rates(self, name, bad):
        with pytest.raises(ValueError, match=f"{name}: expected a finite positive number"):
            AgentParams(**{name: bad})
        with pytest.raises(ValueError, match=name):
            replace(AgentParams(), **{name: bad})

    @pytest.mark.parametrize("name", ["confusion_prob", "dwell_jitter_s"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_probability_and_jitter(self, name, bad):
        # inf made every trial raise IncompleteTrial; NaN was silently ignored
        with pytest.raises(ValueError, match=f"{name}: expected a finite number"):
            AgentParams(**{name: bad})
        with pytest.raises(ValueError, match=name):
            replace(AgentParams(), **{name: bad})

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_session_seed_is_the_replaced_params(self, name):
        scn = load_bundled(name)
        params = AgentParams(scan_policy="bearing_order", tick_hz=20.0)
        for base in (None, params):
            trace = simulate_session(scn, base, seed=5)
            want = replace(base or scn.agent, seed=5)
            assert trace.params == want
            assert trace.params.seed == 5

    @pytest.mark.parametrize("bad", [1.0, True, "3"])
    def test_session_seed_is_checked_as_in_files(self, bad):
        scn = load_bundled("static_stationary_env_ref")
        message = f"^seed: expected integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            simulate_session(scn, seed=bad)
        with pytest.raises(ValueError, match=message):
            replace(AgentParams(), seed=bad)


class TestGazeTargets:
    def test_panel_category_mapping(self):
        assert panel_category_of(PanelGaze("food")) == "food"
        assert panel_category_of(DocumentGaze("sports", 1, 2)) == "sports"
        assert panel_category_of(NoGaze()) is None
        assert panel_category_of(ScreenGaze()) is None
        assert panel_category_of(IntermediaryGaze("host_food")) is None


def session_output(scn, strategy, seed):
    """A session's results file bytes and its warning events."""
    trace = simulate_session(scn, strategy=strategy, seed=seed)
    rows = session_metrics(trace)
    text = results_to_json([aggregate(rows, seed=seed)], rows, meta={"seed": seed})
    return text, trace.warnings


def degenerate_walk_scenario(tail_only=False):
    """static_mobile variant whose user walks onto intermediaries.

    The user stands horizontally on poster_food exactly at trial 2's
    question complete (62.25 s, a scripted query time) and walks onto
    poster_movies at 137.5 s, before any seed's settle tail, staying there.
    Environment-referenced placement holds the last pose at both;
    tail_only leaves out the first, so only the settle tail is degenerate.
    """
    doc = json.loads(bundled_scenario_text("static_mobile_env_ref"))
    doc["trajectories"]["user"]["waypoints"] = [
        [0.0, [0, 0, 0], 0.0],
        [6.0, [0, 0, 0], 0.0],
        [9.0, [0, 0, -2], 0.0],
        [43.0, [0, 0, -2], 0.0],
        [50.0, [-2, 0, 0], -90.0],
        [60.0, [-2, 0, 0], -90.0],
        [62.25, [-2 if tail_only else -3, 0, 0], -90.0],
        [70.0, [-2, 0, 0], -90.0],
        [93.0, [-2, 0, 0], -90.0],
        [100.0, [2, 0, 0], 90.0],
        [137.25, [2, 0, 0], 90.0],
        [137.5, [3, 0, 0], 90.0],
    ]
    return parse_scenario(json.dumps(doc))


def plan_entries(scn):
    """Entries in every table of a scenario's session plan."""
    plan = scn._cache[agent._SessionPlan]
    per_strategy = (plan.poses, plan.turns, plan.scan_keys)
    return len(plan.states) + len(plan.aims) + sum(
        len(table) for tables in per_strategy for table in tables.values()
    )


def edited_session(name, agent_block=(), user_waypoint=None):
    """A bundled session's text with agent keys set and a user waypoint added."""
    doc = json.loads(bundled_scenario_text(name))
    doc["agent"].update(agent_block)
    if user_waypoint is not None:
        doc["trajectories"]["user"]["waypoints"].append(user_waypoint)
    return json.dumps(doc)


# Sessions that ask for values no plan key covers.
OFF_PLAN = {
    # a slow, cell-by-cell grid scan: each search lasts longer than the gap
    # to the next question while the user walks (or turns), so the next
    # search starts at an overrun cursor that differs by seed
    "search past the next window": edited_session(
        "dynamic_mobile_env_ref",
        {"per_cell_scan_time_s": 4.0, "known_grid": False},
        user_waypoint=[400.0, [2.0, 0.0, 1.0], 90.0],
    ),
    "search past the next window, user turning": edited_session(
        "dynamic_stationary_env_ref", {"per_cell_scan_time_s": 2.5, "known_grid": False}
    ),
    # trial 0's search ends 0.5 us before trial 1's question starts, so the
    # idle phase queries the scene at the cursor, inside its lead (the
    # per-cell time is solved from the search's fixed part; no jitter)
    "idle inside its lead": edited_session(
        "dynamic_stationary_env_ref",
        {"per_cell_scan_time_s": 1.3284788956674087, "known_grid": False, "dwell_jitter_s": 0.0},
    ),
    # the user is still walking when the settle tail starts
    "tail while the scene moves": edited_session(
        "dynamic_mobile_env_ref", user_waypoint=[400.0, [2.0, 0.0, 1.0], 90.0]
    ),
}


def key_times(key):
    """Every float inside a plan key."""
    if isinstance(key, float):
        yield key
    elif isinstance(key, tuple):
        for part in key:
            yield from key_times(part)


def assert_keys_are_plan_times(plan):
    """Plan keys hold only plan times (scripted times and rest), no cursor."""
    tables = [plan.states, plan.aims]
    tables += [t for by in (plan.poses, plan.turns, plan.scan_keys) for t in by.values()]
    used = {t for table in tables for key in table for t in key_times(key)}
    assert used <= plan.times | {plan.rest}, sorted(used - plan.times - {plan.rest})


def record_poses(monkeypatch):
    """(time, poses) for every panel placement the simulator asks for."""
    seen = []
    original = agent._Simulator._scene_at

    def spy(self, t, at):
        state, poses = original(self, t, at)
        seen.append((state.time, dict(poses)))
        return state, poses

    monkeypatch.setattr(agent._Simulator, "_scene_at", spy)
    return seen


def off_script_scenario(case):
    """A fresh parse of "degenerate walk" or of an OFF_PLAN case."""
    if case == "degenerate walk":
        return degenerate_walk_scenario()
    return parse_scenario(OFF_PLAN[case])


def record_simulators(monkeypatch):
    """on_plan of every _Simulator built, in order."""
    built = []
    original = agent._Simulator.__init__

    def spy(self, *args, on_plan=True):
        built.append(on_plan)
        original(self, *args, on_plan=on_plan)

    monkeypatch.setattr(agent._Simulator, "__init__", spy)
    return built


class TestSceneTrack:
    """Sessions on a scenario share its seed-independent scene track."""

    def test_warm_track_matches_fresh_parse(self):
        warmup = [(strategy, seed) for strategy in Strategy for seed in range(5)]
        random.Random(0).shuffle(warmup)
        for name in bundled_scenario_names():
            warm = load_bundled(name)
            for strategy, seed in warmup:
                simulate_session(warm, strategy=strategy, seed=seed)
            for strategy in Strategy:
                for seed in (7, 42):
                    assert session_output(warm, strategy, seed) == session_output(
                        load_bundled(name), strategy, seed
                    ), (name, strategy, seed)

    def test_track_stops_growing_once_scripted_times_are_filled(self):
        for name in bundled_scenario_names():
            scn = load_bundled(name)
            for seed in range(50):
                for strategy in Strategy:
                    simulate_session(scn, strategy=strategy, seed=seed)
                if seed == 4:
                    after_five = plan_entries(scn)
            assert plan_entries(scn) == after_five, name
            # one state per plan time (the scripted times and rest), one pose
            # set per strategy and plan time, two aims per scripted time and
            # the tail's
            plan = scn._cache[agent._SessionPlan]
            assert len(plan.states) <= len(plan.times) + 1
            assert all(len(p) <= len(plan.times) + 1 for p in plan.poses.values())
            assert len(plan.aims) <= 2 * len(plan.times) + 1
            assert_keys_are_plan_times(plan)

    def test_scene_at_rest_keeps_the_poses_of_rest(self):
        for name in bundled_scenario_names():
            scn = load_bundled(name)
            rest = agent._SessionPlan(scn).rest
            # every settle tail starts past rest, so it reuses rest's poses
            assert rest < max(t.question_complete for t in scn.trials), name
            want = scn.state_at(rest).poses
            for t in (rest + 1e-9, rest + 0.5, rest + 7.25, scn.duration, 1e6):
                state = scn.state_at(t)
                assert state.time == t
                assert state.poses == want, (name, t)

    @pytest.mark.parametrize("case", sorted(OFF_PLAN))
    def test_off_plan_sessions_give_the_same_output_cold_and_warm(self, case, monkeypatch):
        asked = []
        original = Scenario.state_at
        monkeypatch.setattr(
            Scenario, "state_at", lambda self, t: asked.append(t) or original(self, t)
        )
        scn = parse_scenario(OFF_PLAN[case])
        trace = simulate_session(scn, seed=1)
        monkeypatch.undo()
        plan = scn._cache[agent._SessionPlan]
        off_plan = [t for t in asked if t not in plan.times and t < plan.rest]
        starts = [t.question_start for t in scn.trials]
        if case.startswith("search past the next window"):
            assert any(tt.t_open > end for tt, end in zip(trace.trials, starts[1:]))
            assert off_plan
        elif case == "idle inside its lead":
            assert [t for t in off_plan if any(s - agent.IDLE_LEAD_S < t < s for s in starts)]
        else:
            assert trace.trials[-1].segments[-1].t1 < plan.rest
        warm = parse_scenario(OFF_PLAN[case])
        for seed in (0, 2, 5):
            for strategy in Strategy:
                simulate_session(warm, strategy=strategy, seed=seed)
        for strategy in Strategy:
            for seed in (1, 7):
                cold = parse_scenario(OFF_PLAN[case])
                assert simulate_session(warm, strategy=strategy, seed=seed) == simulate_session(
                    cold, strategy=strategy, seed=seed
                ), (strategy, seed)
        assert_keys_are_plan_times(warm._cache[agent._SessionPlan])

    def test_bundled_sessions_never_leave_the_plan(self, monkeypatch):
        """A scripted session that reran without the plan would only show as a slower sweep."""
        built = record_simulators(monkeypatch)
        for name in bundled_scenario_names():
            scn = load_bundled(name)
            for seed in range(10):
                for strategy in Strategy:
                    simulate_session(scn, strategy=strategy, seed=seed)
        assert built and False not in built
        # the spy does see a session that reruns
        built.clear()
        simulate_session(parse_scenario(OFF_PLAN["tail while the scene moves"]), seed=1)
        assert built == [True, False]

    @pytest.mark.parametrize("case", ["degenerate walk", *sorted(OFF_PLAN)])
    def test_a_session_is_the_run_without_the_plan(self, case, monkeypatch):
        """On a warm plan, every session's trace, warnings included, is the plan-free run's."""
        warm = off_script_scenario(case)
        for seed in (0, 2):
            for strategy in Strategy:
                simulate_session(warm, strategy=strategy, seed=seed)
        built = record_simulators(monkeypatch)
        reruns = 0
        for strategy in Strategy:
            for seed in (1, 3, 7):
                built.clear()
                trace = simulate_session(warm, strategy=strategy, seed=seed)
                reruns += built.count(False)
                params = replace(warm.agent, seed=seed)
                oracle = agent._Simulator(warm, params, strategy, seed, on_plan=False).run()
                assert trace == oracle, (strategy, seed)  # SessionTrace.warnings included
        assert reruns
        assert_keys_are_plan_times(warm._cache[agent._SessionPlan])

    def test_a_call_builds_at_most_two_simulators(self, monkeypatch):
        built = record_simulators(monkeypatch)
        makes = [partial(load_bundled, name) for name in bundled_scenario_names()]
        makes += [partial(off_script_scenario, case) for case in ["degenerate walk", *OFF_PLAN]]
        seen = set()
        for make in makes:
            scn = make()
            for seed in (0, 1):
                for strategy in Strategy:
                    built.clear()
                    simulate_session(scn, strategy=strategy, seed=seed)
                    # on the plan, then at most one rerun without it
                    assert built in ([True], [True, False]), (scn.name, strategy, seed)
                    seen.add(tuple(built))
        assert seen == {(True,), (True, False)}

    def test_sessions_with_other_agent_params_share_the_plan(self):
        scn = load_bundled("dynamic_mobile_body_fixed")
        base = scn.agent
        policies = sorted(SCAN_POLICIES)
        for policy in policies:
            params = replace(base, scan_policy=policy, yaw_rate_deg_s=90.0)
            cold = simulate_session(load_bundled("dynamic_mobile_body_fixed"), params, seed=3)
            for other in policies:
                simulate_session(scn, replace(base, scan_policy=other), seed=4)
            assert simulate_session(scn, params, seed=3) == cold, policy

    def test_derived_state_lives_in_one_slot(self):
        """Replay table and session plan: one cache, one lifecycle.

        The agent block is no derived value: the parser builds it into the
        field Scenario.agent, which a copy shares.
        """
        scn = load_bundled("static_mobile_env_ref")
        text = serialize_scenario(scn)
        before = dict(scn._cache)  # the parser's replay check may have filled some
        copy = replace(scn, name="copy")
        assert copy._cache == {}
        copy.state_at(3.0)
        simulate_session(copy, seed=1)
        # the copy never fills the original's cache
        assert scn._cache.keys() == before.keys()
        assert all(scn._cache[b] is v for b, v in before.items())
        builds = {Scenario._prebuild, agent._SessionPlan}
        assert set(copy._cache) == builds
        assert copy.agent is scn.agent
        simulate_session(scn, seed=1)
        assert set(scn._cache) == builds
        assert all(scn._cache[b] is not copy._cache[b] for b in builds)
        assert replace(scn)._cache == {}  # a copy of a filled scenario starts empty
        assert scn == load_bundled("static_mobile_env_ref")
        assert serialize_scenario(scn) == text
        assert "_cache" not in repr(scn)

    def test_degenerate_hold_last_is_per_session(self, monkeypatch):
        seen = record_poses(monkeypatch)
        warm = degenerate_walk_scenario()
        simulate_session(warm, seed=1)
        for seed in (3, 0, 9):
            seen.clear()
            trace = simulate_session(warm, seed=seed)
            warm_poses, warm_warnings = list(seen), trace.warnings
            seen.clear()
            trace = simulate_session(degenerate_walk_scenario(), seed=seed)
            assert (warm_poses, warm_warnings) == (list(seen), trace.warnings), seed
            # exactly this session's two holds: the scripted one is not lost
            # to a cache hit and the previous seed's are not carried over
            assert [(w.time, w.subject) for w in warm_warnings] == [
                (62.25, "panel_food"),
                (warm_warnings[1].time, "panel_movies"),
            ]
            assert warm_warnings[1].time > 137.5
            held = dict(warm_poses)
            assert held[62.25]["panel_food"] == held[60.0]["panel_food"]
        # held poses are the session's own: the degenerate plan time left
        # the plan, so no pose, turn or scan key names it or a later time
        plan = warm._cache[agent._SessionPlan]
        env_ref = Strategy.ENVIRONMENT_REFERENCED
        assert 62.25 in plan.times
        keys = [*plan.poses[env_ref], *plan.turns[env_ref], *plan.scan_keys[env_ref]]
        named = {t for key in keys for t in key_times(key)}
        assert named and max(named) < 62.25

    def test_degenerate_tail_warns_at_the_sessions_own_time(self):
        warm = degenerate_walk_scenario(tail_only=True)
        # a body-fixed session stores the tail's scene state under its own tail time
        simulate_session(warm, strategy=Strategy.BODY_FIXED, seed=0)
        for seed in (1, 3):
            trace = simulate_session(warm, seed=seed)
            cold = simulate_session(degenerate_walk_scenario(tail_only=True), seed=seed)
            assert trace.warnings == cold.warnings, seed
            assert [w.subject for w in trace.warnings] == ["panel_movies"]
            assert trace.warnings[0].time == trace.trials[-1].segments[-1].t1


class TestOnePlacementPath:
    def test_sessions_never_reach_the_frames_route(self, monkeypatch):
        """emit_layouts + resolve_world_pose are the test oracle only."""
        from xrlayout import frames, placement

        for original in (placement.emit_layouts, frames.resolve_world_pose):

            def unreachable(*args, _name=original.__name__, **kwargs):
                raise AssertionError(f"{_name} reached from a session")

            for name, module in list(sys.modules.items()):
                if name == "xrlayout" or name.startswith("xrlayout."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, unreachable)
        for name in bundled_scenario_names():
            scn = load_bundled(name)
            for strategy in Strategy:
                trace = simulate_session(scn, strategy=strategy, seed=7)
                assert trace.trials and all(t.t_open is not None for t in trace.trials)
