"""Synthetic gaze agent: determinism, navigation arithmetic, scan policies."""

import hashlib
import json
import math
import random
import re
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlayout import agent
from xrlayout.agent import (
    AgentParams,
    DocumentGaze,
    GazeSample,
    IntermediaryGaze,
    NoGaze,
    PanelGaze,
    ScreenGaze,
    focus_target,
    simulate_session,
)
from xrlayout.errors import replace
from xrlayout.metrics import aggregate, gaze_switches, results_to_json, session_metrics
from xrlayout.placement import INTERMEDIARY_PLACED, Strategy
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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers() | st.integers(-(2**200), 2**200),
        name=st.sampled_from(sorted(bundled_scenario_names())),
        strategy=st.sampled_from(Strategy),
    )
    def test_the_seed_digest_is_hashlibs_sha256(self, seed, name, strategy):
        # the builtin sha256 module gives every session the seed, so the same
        # RNG stream, that hashlib's would
        text = f"{seed}:{name}:{strategy.value}".encode()
        want = int.from_bytes(hashlib.sha256(text).digest()[:8], "big")
        assert agent._stable_seed(seed, name, strategy.value) == want


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


class TestWhatTheSeedVaries:
    """The agent.py docstring's account of the seed, at default AgentParams.

    A direct-placed session (its panel given by an intermediary, or
    recalled in the static stationary room) scans nothing, so over seeds
    1-100 its metrics take one value.  A visual-search session under
    nearest_panel_first draws only to break ties in its scan routes, one
    coin flip per tied trial, so its metrics take a power of two of values,
    at most 2 ** trials.

    The session plan the sweep fills shows the same structure: one trial
    entry per trial, and in it one search per route drawn.  So the product
    of a session's search counts is the number of route sequences its
    seeds took.
    """

    SEEDS = range(1, 101)

    def test_metric_vectors_over_seeds(self):
        params = AgentParams()
        counts = set()
        sequences = 0
        for name in bundled_scenario_names():
            scn = load_bundled(name)
            for strategy in Strategy:
                vectors = {
                    tuple(session_metrics(simulate_session(scn, params, strategy=strategy, seed=s)))
                    for s in self.SEEDS
                }
                n = len(vectors)
                counts.add(n)
                direct = strategy in INTERMEDIARY_PLACED or scn.context == "static_stationary"
                if direct:
                    assert n == 1, (name, strategy)
                else:
                    assert n & (n - 1) == 0 and n <= 2 ** len(scn.trials), (name, strategy, n)
                plan = scn._cache[agent._SessionPlan]
                (entries,) = [table for shape, table in plan.trials.items() if shape[0] is strategy]
                assert sorted(index for index, _ in entries) == list(range(len(scn.trials)))
                edges = [len(entry[-1]) for entry in entries.values()]
                assert set(edges) <= ({1} if direct else {1, 2}), (name, strategy)
                routes = math.prod(edges)
                if strategy is Strategy.WORLD_FIXED and scn.user_state == "mobile":
                    assert routes > n, (name, strategy)  # two routes, one metric vector
                else:
                    assert routes == n, (name, strategy)
                sequences += routes
        assert counts == {1, 2, 4, 8, 16}  # the search sessions do vary
        assert sequences == 148


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
        """A document lies on its panel; hosts, the screen and saccades on none."""

        def switches(*targets):
            return gaze_switches([GazeSample(float(k), t) for k, t in enumerate(targets)])

        assert switches(PanelGaze("food"), DocumentGaze("food", 1, 2)) == 0
        assert switches(PanelGaze("food"), DocumentGaze("sports", 1, 2)) == 1
        off_panel = (NoGaze(), ScreenGaze(), IntermediaryGaze("host_food"))
        assert switches(PanelGaze("food"), *off_panel, DocumentGaze("food", 0, 0)) == 0
        assert switches(DocumentGaze("sports", 1, 2), *off_panel, PanelGaze("food")) == 1


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


def plan_tables(plan):
    """Every table of a session plan: its trial (node) tables and each trial entry's searches."""
    tables = list(plan.trials.values())
    return tables + [entry[-1] for trials in plan.trials.values() for entry in trials.values()]


def plan_links(plan):
    """Every link the walk stored: each start's and each search entry's."""
    holders = [*plan.starts.values()]
    holders += [edge for table in plan_tables(plan)[len(plan.trials) :] for edge in table.values()]
    return [holder[-1] for holder in holders if holder[-1] is not None]


def plan_entries(scn):
    """Entries in every table of a scenario's session plan, and its links."""
    plan = scn._cache[agent._SessionPlan]
    return sum(map(len, plan_tables(plan))) + len(plan_links(plan))


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
    used = {t for table in plan_tables(plan) for key in table for t in key_times(key)}
    assert used <= plan.times | {plan.rest}, sorted(used - plan.times - {plan.rest})


def record_poses(monkeypatch):
    """(time, poses) for every panel placement of the last session run started.

    A run that steps off the script is dropped and the session run again
    without the plan, so the list holds the placements of the run whose
    trace simulate_session returns.
    """
    seen = []
    scene_at, run = agent._Simulator._scene_at, agent._Simulator.run

    def spy(self, t, at):
        state, poses = scene_at(self, t, at)
        seen.append((state.time, dict(poses)))
        return state, poses

    def spy_run(self):
        seen.clear()
        return run(self)

    monkeypatch.setattr(agent._Simulator, "_scene_at", spy)
    monkeypatch.setattr(agent._Simulator, "run", spy_run)
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
            # one trial table per strategy (at the file's agent), one entry
            # per trial, laid from the idle aim, and in it one search per
            # route drawn; each search links one look, to the next trial's
            # entry or the settle tail, and the start one look to trial 0's
            plan = scn._cache[agent._SessionPlan]
            trials = len(scn.trials)
            assert len(plan.trials) <= len(Strategy)
            for shape, entries in plan.trials.items():
                assert sorted(index for index, _ in entries) == list(range(trials))
                assert all(1 <= len(entry[-1]) <= 2 for entry in entries.values())
                nodes = {index: entry for (index, _), entry in entries.items()}
                assert plan.starts[shape][-1][2] is nodes[0]
                for (index, _), entry in entries.items():
                    for search in entry[-1].values():
                        if index + 1 < trials:
                            assert search[-1][2] is nodes[index + 1]
                        else:
                            assert len(search[-1]) == 2  # the tail's focus and turn
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
        # the plan, so no trial key (its facing names the idle look's aim)
        # names it or a later time, and
        # no trial entry's search starts there (at its question complete)
        plan = warm._cache[agent._SessionPlan]
        env_ref = Strategy.ENVIRONMENT_REFERENCED
        assert 62.25 in plan.times
        tables = [table for shape, table in plan.trials.items() if shape[0] is env_ref]
        trials = [key for table in tables for key in table]
        named = {t for key in trials for t in key_times(key)}
        named |= {warm.trials[index].question_complete for index, _ in trials}
        assert named and max(named) < 62.25

    def test_degenerate_tail_warns_at_the_sessions_own_time(self):
        warm = degenerate_walk_scenario(tail_only=True)
        # a body-fixed session, whose tail starts at another time, fills the plan first
        simulate_session(warm, strategy=Strategy.BODY_FIXED, seed=0)
        for seed in (1, 3):
            trace = simulate_session(warm, seed=seed)
            cold = simulate_session(degenerate_walk_scenario(tail_only=True), seed=seed)
            assert trace.warnings == cold.warnings, seed
            assert [w.subject for w in trace.warnings] == ["panel_movies"]
            assert trace.warnings[0].time == trace.trials[-1].segments[-1].t1


def replay_params(base):
    """Agent parameters that shape a search, each on both of its sides."""
    for yaw in (90.0, 180.0):
        for known_grid in (False, True):
            for policy in sorted(SCAN_POLICIES):
                for confusion in (0.0, 0.5, 1.0) if policy == "random_seeded" else (0.1,):
                    yield replace(
                        base,
                        yaw_rate_deg_s=yaw,
                        known_grid=known_grid,
                        scan_policy=policy,
                        confusion_prob=confusion,
                    )


# Its cell-by-cell scans overrun the next question start, so those sessions
# step off the script at that question, before they store anything laid
# from the cursor the search left; a session that knows the grid stays on
# the plan and lays each question from its idle aim.
STEPS_OFF = "search past the next window, user turning"


def moved_question(start, agent_block=(), name="dynamic_stationary_env_ref", index=1):
    """A bundled session's text with trial index asked from start on.

    The words keep their offsets from the question start, and the scene
    does not depend on when a trial is asked.  By default trial 1 of
    dynamic_stationary_env_ref, whose trial 0 question completes at 12.25 s.
    """
    doc = json.loads(bundled_scenario_text(name))
    doc["agent"].update(agent_block)
    trial = doc["trials"][index]
    words = trial["word_schedule_s"]
    trial["question_start_s"] = start
    trial["word_schedule_s"] = [start] + [start + (w - words[0]) for w in words[1:]]
    return json.dumps(doc)


# Trial 1 is asked at 12.5 s, so trial 0's search, which starts at 12.25 s
# and lasts 0.36-0.42 s under the file's agent and every strategy, ends
# inside its presentation (12.5-14.75 s) and the question phase starts late.
LATE_QUESTION = "question starts late"


def replay_scenario(name):
    """A fresh parse of a bundled session, of STEPS_OFF or of LATE_QUESTION."""
    if name == STEPS_OFF:
        return off_script_scenario(name)
    if name == LATE_QUESTION:
        return parse_scenario(moved_question(12.5))
    return load_bundled(name)


class TestStepReplay:
    """A warm session replays whole scripted steps: trial entries, their searches and links."""

    @pytest.mark.parametrize("name", [*bundled_scenario_names(), STEPS_OFF, LATE_QUESTION])
    def test_warm_replay_is_the_run_without_the_plan(self, name):
        warm = replay_scenario(name)
        stepped_off = 0
        for params in replay_params(warm.agent):
            for strategy in Strategy:
                for seed in (1, 2, 3):
                    seeded = params._with_seed(seed)
                    on = agent._Simulator(warm, seeded, strategy, seed)
                    off = agent._Simulator(warm, seeded, strategy, seed, on_plan=False)
                    case = (seeded, strategy, seed)
                    try:
                        trace = on.run()
                    except agent._OffScript:  # simulate_session reruns it without the plan
                        stepped_off += 1
                        on = agent._Simulator(warm, seeded, strategy, seed, on_plan=False)
                        trace = on.run()
                    assert trace == off.run(), case  # segments, opens and warnings
                    assert on.opens == off.opens, case
                    # the same draws in the same order
                    assert on.rng.getstate() == off.rng.getstate(), case
        assert bool(stepped_off) == (name in (STEPS_OFF, LATE_QUESTION))
        plan = warm._cache[agent._SessionPlan]
        assert all(start[-1] for start in plan.starts.values()) and all(plan.trials.values())
        assert all(entry[-1] for table in plan.trials.values() for entry in table.values())
        assert_keys_are_plan_times(plan)

    def test_a_warm_session_makes_no_scene_query(self, monkeypatch):
        """Every scene query, placement and focus of a warm session is inside a step hit.

        So the plan needs no table below its step tables: a miss computes
        the scene, the placement and the focus afresh.
        """
        warm = {name: load_bundled(name) for name in bundled_scenario_names()}
        for seed in range(1, 21):
            for name, scn in warm.items():
                for strategy in Strategy:
                    simulate_session(scn, strategy=strategy, seed=seed)
        placed = record_poses(monkeypatch)
        asked = []
        state_at, focus = Scenario.state_at, agent.focus_target
        monkeypatch.setattr(
            Scenario, "state_at", lambda self, t: asked.append(t) or state_at(self, t)
        )
        monkeypatch.setattr(
            agent, "focus_target", lambda *args, **kw: asked.append(args) or focus(*args, **kw)
        )
        for seed in range(21, 41):
            for name, scn in warm.items():
                for strategy in Strategy:
                    simulate_session(scn, strategy=strategy, seed=seed)
                    assert not placed and not asked, (name, strategy, seed)
        # the spies do see a cold session
        cold = load_bundled("dynamic_mobile_env_ref")
        asked.clear()  # the parser's own replay check
        simulate_session(cold, seed=1)
        assert placed and asked

    def test_a_new_route_reuses_its_trial_entrys_scene(self, monkeypatch):
        """A seed that draws a route no session drew yet lays it from its trial entry.

        The entry holds the scene and the scan keys where the search starts,
        so the new route's search queries no scene.  It ends facing the
        trial's target panel as the first seed's route did, so it takes that
        search's link, and the rest of the session replays what the first
        seed stored.
        """
        scn = load_bundled("dynamic_stationary_body_fixed")
        strategy = Strategy.BODY_FIXED

        def run(seed, on_plan):
            sim = agent._Simulator(scn, scn.agent._with_seed(seed), strategy, seed, on_plan)
            return sim, sim.run()

        def routes(seed):
            _, trace = run(seed, on_plan=False)
            return [panel_fixations(trace, k) for k in range(len(scn.trials))]

        first = routes(1)
        other = next(s for s in range(2, 50) if sum(a != b for a, b in zip(routes(s), first)) == 1)
        simulate_session(scn, strategy=strategy, seed=1)
        (trials,) = scn._cache[agent._SessionPlan].trials.values()
        assert [len(entry[-1]) for entry in trials.values()] == [1] * len(scn.trials)
        asked, states, built = [], [], []
        scene_at, state_at, question = (
            agent._Simulator._scene_at,
            Scenario.state_at,
            agent._Simulator._question,
        )
        monkeypatch.setattr(
            agent._Simulator, "_scene_at", lambda *args: asked.append(args[2]) or scene_at(*args)
        )
        monkeypatch.setattr(
            Scenario, "state_at", lambda self, t: states.append(t) or state_at(self, t)
        )
        monkeypatch.setattr(
            agent._Simulator, "_question", lambda *args: built.append(args) or question(*args)
        )
        on, trace = run(other, on_plan=True)  # on the plan: no _OffScript
        assert not asked and not states and not built
        monkeypatch.undo()
        off, oracle = run(other, on_plan=False)
        assert trace == oracle
        assert on.opens == off.opens
        assert on.rng.getstate() == off.rng.getstate()
        # the new route is stored beside the first seed's, in its trial's entry
        assert sorted(len(entry[-1]) for entry in trials.values()) == [1] * (len(scn.trials) - 1) + [2]

    def test_a_question_that_starts_late_steps_off_there(self, monkeypatch):
        warm = replay_scenario(LATE_QUESTION)
        late = warm.trials[1]
        searched = []  # (trial, cursor after it) of every search
        search = agent.search_and_open

        def spy(sim, trial, node):
            found = search(sim, trial, node)
            searched.append((trial, sim.segments[-1].t1))
            return found

        monkeypatch.setattr(agent, "search_and_open", spy)
        for seed in (1, 2, 3):
            for strategy in Strategy:
                params = warm.agent._with_seed(seed)
                on = agent._Simulator(warm, params, strategy, seed)
                searched.clear()
                with pytest.raises(agent._OffScript) as stepped:
                    on.run()
                # in the walk at trial 1, before its question phase: trial 0's
                # search left the cursor inside trial 1's presentation
                assert stepped.traceback[-1].name == "run"
                assert [trial for trial, _ in searched] == [warm.trials[0]], (strategy, seed)
                cursor = searched[-1][1]
                assert late.question_start < cursor <= late.question_complete, (strategy, seed)
                # simulate_session's rerun is the run without the plan
                rerun = agent._Simulator(warm, params, strategy, seed, on_plan=False)
                off = agent._Simulator(warm, params, strategy, seed, on_plan=False)
                oracle = off.run()
                assert rerun.run() == oracle, (strategy, seed)  # warnings included
                assert rerun.opens == off.opens
                assert rerun.rng.getstate() == off.rng.getstate()
                assert simulate_session(warm, params, strategy=strategy) == oracle
        # nothing laid from a late cursor was stored: one trial entry per
        # strategy, trial 0's, laid from its question start
        plan = warm._cache[agent._SessionPlan]
        keys = [key for table in plan.trials.values() for key in table]
        starts = [warm.trials[index].question_start for index, _ in keys]
        assert starts == [warm.trials[0].question_start] * len(Strategy)
        assert_keys_are_plan_times(plan)

    def test_the_question_key_names_the_facing(self, monkeypatch):
        """A trial is reached from the idle aim, or with no idle turn from the search's end.

        An idle look turns the gaze to the scripted focus, unless the focus
        is at the head.  Here the idle look at trial 3's lead of body-fixed
        dynamic_mobile_env_ref is made one with no turn, so the question
        starts facing the food panel that trial 2's search ended on, and its
        head turn starts there.  A trial key without the facing would replay
        one session's head turn in the other.
        """
        strategy, name = Strategy.BODY_FIXED, "dynamic_mobile_env_ref"
        seeds = range(1, 6)

        def trial_3_entries(warm):
            for seed in seeds:
                seeded = warm.agent._with_seed(seed)
                on = agent._Simulator(warm, seeded, strategy, seed)
                off = agent._Simulator(warm, seeded, strategy, seed, on_plan=False)
                assert on.run() == off.run(), seed  # on the plan: no _OffScript
                assert on.rng.getstate() == off.rng.getstate()
            plan = warm._cache[agent._SessionPlan]
            assert_keys_are_plan_times(plan)
            (trials,) = plan.trials.values()
            return {facing: entry for (index, facing), entry in trials.items() if index == 3}

        turned = load_bundled(name)
        lead = turned.trials[3].question_start - agent.IDLE_LEAD_S
        aim = agent._Simulator._aim

        def no_turn_at_lead(self, t, at, answered_at, gaze_dir):
            focus, turn = aim(self, t, at, answered_at, gaze_dir)
            return focus, None if t == lead else turn

        (idle,) = trial_3_entries(turned).items()
        monkeypatch.setattr(agent._Simulator, "_aim", no_turn_at_lead)
        (kept,) = trial_3_entries(load_bundled(name)).items()
        assert idle[0] == (lead, False)
        assert kept[0] == (62.25, "panel_food")  # trial 2's search, from its question complete
        assert idle[1][0] != kept[1][0]  # the question phases' segments

    def test_a_search_that_ends_at_the_next_question_start_steps_off(self):
        """A rare step off the script that a run with no plan would stay on.

        Body-fixed dynamic_mobile_env_ref without jitter ties trial 2's
        search between two routes, and trial 3 is asked at the very end of
        the longer one.  A seed that draws it reaches trial 3 with no idle
        phase, which the walk leaves the plan for; its rerun is the run with
        no plan all the same.  A seed that draws the shorter route stays on
        the plan, so trial 3 is stored only as laid from the idle aim.
        """
        strategy, name, block = Strategy.BODY_FIXED, "dynamic_mobile_env_ref", {"dwell_jitter_s": 0.0}
        seeds = range(1, 6)
        probe = parse_scenario(edited_session(name, block))
        ends = {
            seed: agent._Simulator(
                probe, probe.agent._with_seed(seed), strategy, seed, on_plan=False
            )
            .run()
            .trials[2]
            .segments[-1]
            .t1
            for seed in seeds
        }
        assert len(set(ends.values())) == 2, ends  # both routes drawn
        start = max(ends.values())
        warm = parse_scenario(moved_question(start, block, name, index=3))
        assert warm.trials[3].question_start == start
        for seed in seeds:
            seeded = warm.agent._with_seed(seed)
            on = agent._Simulator(warm, seeded, strategy, seed)
            off = agent._Simulator(warm, seeded, strategy, seed, on_plan=False)
            oracle = off.run()
            if ends[seed] == start:
                with pytest.raises(agent._OffScript):
                    on.run()
            else:
                assert on.run() == oracle, seed
                assert on.rng.getstate() == off.rng.getstate()
            assert simulate_session(warm, seeded, strategy=strategy) == oracle, seed
        plan = warm._cache[agent._SessionPlan]
        (trials,) = plan.trials.values()
        facings = [facing for index, facing in trials if index == 3]
        assert facings == [(start - agent.IDLE_LEAD_S, False)]
        assert_keys_are_plan_times(plan)

    def test_a_warm_session_builds_no_question_segment(self, monkeypatch):
        """A question phase on a warm plan is one lookup and one list extend."""
        built = []
        segment = agent.GazeSegment
        monkeypatch.setattr(agent, "GazeSegment", lambda *args: built.append(args) or segment(*args))
        for name in bundled_scenario_names():
            warm = load_bundled(name)
            runs = [(strategy, seed) for strategy in Strategy for seed in (1, 2, 3)]
            for strategy, seed in runs:
                simulate_session(warm, strategy=strategy, seed=seed)
            windows = [(t.question_start, t.question_complete) for t in warm.trials]
            for strategy, seed in runs:
                built.clear()
                trace = simulate_session(warm, strategy=strategy, seed=seed)
                # per trial the idle turn, the idle hold and the confirming
                # dwell, then the settle tail's turn and dwell
                assert len(built) <= 3 * len(warm.trials) + 2, (name, strategy, seed)
                assert not [t0 for t0, _, _ in built for qs, qc in windows if qs <= t0 < qc]
                assert trace.segments[-1] == segment(*built[-1])  # the spy saw the session


# Each bundled session on one Scenario of its own, which keeps its plan
# across the examples drawn below; the off-script cases likewise.
WALK_WARM = {name: load_bundled(name) for name in bundled_scenario_names()}
WALK_OFF = {case: off_script_scenario(case) for case in ["degenerate walk", *sorted(OFF_PLAN)]}


@st.composite
def walk_params(draw):
    """AgentParams over every agent row's range; the seed and dwell jitter are drawn apart."""
    return AgentParams(
        fixation_min=draw(st.sampled_from([0.15, 0.001, 10.0]) | st.floats(0.001, 10.0)),
        per_cell_scan_time=draw(st.sampled_from([0.2, 10.0]) | st.floats(1e-6, 10.0)),
        scan_policy=draw(st.sampled_from(SCAN_POLICIES)),
        known_grid=draw(st.booleans()),
        yaw_rate_deg_s=draw(st.sampled_from([180.0, 10.0]) | st.floats(10.0, 1e4)),
        tick_hz=draw(st.sampled_from([50.0, 10_000.0]) | st.floats(0.01, 10_000.0)),
        confusion_prob=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
    )


JITTERS = st.sampled_from([0.02, 10.0]) | st.floats(1e-9, 10.0)
SEEDS = st.lists(st.integers(0, 2**64), min_size=1, max_size=3, unique=True)


def assert_walk_is_the_run_without_the_plan(scn, params, strategy):
    """A session walked on scn's plan, warm for its own path, is its run with no plan.

    simulate_session fills the plan with the session's path first; the
    walk then replays it (or steps off and reruns as simulate_session does).
    """
    case = (scn.name, params, strategy)
    simulate_session(scn, params, strategy=strategy)
    on = agent._Simulator(scn, params, strategy, params.seed)
    try:
        trace = on.run()
    except agent._OffScript:
        on = agent._Simulator(scn, params, strategy, params.seed, on_plan=False)
        trace = on.run()
    off = agent._Simulator(scn, params, strategy, params.seed, on_plan=False)
    oracle = off.run()
    assert trace == oracle, case
    assert trace.warnings == oracle.warnings, case
    assert on.opens == off.opens, case
    assert on.rng.getstate() == off.rng.getstate(), case
    assert simulate_session(scn, params, strategy=strategy) == oracle, case


def count_calls(monkeypatch, owner, names, calls=None):
    """calls (a new list by default), to which each call of owner's names appends the name."""
    calls = [] if calls is None else calls
    for name in names:
        original = getattr(owner, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


class TestWalk:
    """A session walks the plan: a linked search hands over the next trial's look and entry."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(params=walk_params(), jitter=JITTERS, seeds=SEEDS)
    def test_a_warm_walk_is_the_run_without_the_plan(self, params, jitter, seeds):
        """Drawn agents, with and without dwell jitter on one plan shape, and drawn seeds."""
        for scn in WALK_WARM.values():
            for strategy in Strategy:
                for seed in seeds:
                    for j in (0.0, jitter):
                        run = replace(params, dwell_jitter_s=j, seed=seed)
                        assert_walk_is_the_run_without_the_plan(scn, run, strategy)

    @pytest.mark.parametrize("case", sorted(WALK_OFF))
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(policy=st.sampled_from(SCAN_POLICIES), jitter=JITTERS, seeds=SEEDS)
    def test_off_script_walks_are_the_run_without_the_plan(self, case, policy, jitter, seeds):
        """The off-script cases under their own agent, with drawn policy, jitter and seeds."""
        scn = WALK_OFF[case]
        for strategy in Strategy:
            for seed in seeds:
                for j in (0.0, jitter):
                    run = replace(scn.agent, scan_policy=policy, dwell_jitter_s=j, seed=seed)
                    assert_walk_is_the_run_without_the_plan(scn, run, strategy)

    def test_a_warm_walk_builds_no_entry_and_three_segments_per_trial(self, monkeypatch):
        """After seeds 1-20, seeds 21-40 lay every step from the plan's links.

        No look is aimed, no trial entry or search built, no timeline laid;
        per trial at most the idle turn, the idle hold and the confirming
        dwell are new segments, then the settle tail's turn and dwell.
        """
        warm = {name: load_bundled(name) for name in bundled_scenario_names()}
        for seed in range(1, 21):
            for scn in warm.values():
                for strategy in Strategy:
                    simulate_session(scn, strategy=strategy, seed=seed)
        calls = count_calls(monkeypatch, agent._Simulator, ["_aim", "_question"])
        count_calls(monkeypatch, agent, ["_search"], calls)
        count_calls(monkeypatch, agent._Timeline, ["__init__", "until", "dwell", "turn"], calls)
        built = count_calls(monkeypatch, agent, ["GazeSegment"])
        for seed in range(21, 41):
            for name, scn in warm.items():
                for strategy in Strategy:
                    built.clear()
                    simulate_session(scn, strategy=strategy, seed=seed)
                    assert not calls, (name, strategy, seed, calls)
                    assert len(built) <= 3 * len(scn.trials) + 2, (name, strategy, seed)
        # the spies do see a cold session
        simulate_session(load_bundled("dynamic_mobile_body_fixed"), seed=1)
        assert set(calls) == {"_aim", "_question", "_search", "__init__", "until", "dwell", "turn"}

    def test_an_idle_turn_is_cut_at_the_question_start(self):
        """A search that ends just before the next lead leaves the idle turn no time to finish.

        Trial 1 of dynamic_stationary_env_ref is asked 0.05 s after trial 0's
        search ends (no jitter, so every seed ends there): the turn to the
        partner is cut at the question start, which the question phase then
        starts from, on the plan and off it.
        """
        block = {"dwell_jitter_s": 0.0}
        probe = parse_scenario(edited_session("dynamic_stationary_env_ref", block))
        end = simulate_session(probe, seed=1).trials[0].segments[-1].t1
        warm = parse_scenario(moved_question(end + 0.05, block))
        start = warm.trials[1].question_start
        for seed in (1, 2, 3):
            params = warm.agent._with_seed(seed)
            on = agent._Simulator(warm, params, warm.strategy, seed)
            trace = on.run()  # on the plan: no _OffScript
            assert trace == agent._Simulator(warm, params, warm.strategy, seed, on_plan=False).run()
            k = next(i for i, seg in enumerate(trace.segments) if seg.t1 > end)
            turn, question = trace.segments[k], trace.segments[k + 1]
            assert (turn.t0, turn.t1, turn.target) == (end, start, NoGaze())
            assert question.t0 == start == trace.trials[1].segments[0].t0

    def test_an_idle_turn_that_ends_just_short_of_the_question_steps_off(self):
        """An idle turn that ends within 1e-12 s of the question start lays no hold.

        Trial 1 of static_stationary_env_ref is asked 5e-13 s after seed 1's
        idle turn ends, so seed 1 reaches the question phase from its own
        cursor, short of the start, and steps off the plan there.  Seeds 2
        and 3 end trial 0's search earlier on the same route (only the
        dwell jitter differs), hold until the start, and lay the question
        from it.  Had seed 1 stored its question phase, the linked edge
        would hand it to them, laid from seed 1's cursor.
        """
        name = "static_stationary_env_ref"
        probe = load_bundled(name)
        params = probe.agent._with_seed(1)
        first = agent._Simulator(probe, params, probe.strategy, 1, on_plan=False).run()
        end = first.trials[0].segments[-1].t1
        (turn,) = [seg for seg in first.segments if seg.t0 == end]
        warm = parse_scenario(moved_question(turn.t1 + 5e-13, name=name))
        start = warm.trials[1].question_start
        assert 0.0 < start - turn.t1 < 1e-12
        for seed in (1, 2, 3):
            params = warm.agent._with_seed(seed)
            on = agent._Simulator(warm, params, warm.strategy, seed)
            oracle = agent._Simulator(warm, params, warm.strategy, seed, on_plan=False).run()
            if seed == 1:
                with pytest.raises(agent._OffScript) as stepped:
                    on.run()
                assert stepped.traceback[-1].name == "run"
                assert oracle.trials[1].segments[0].t0 == turn.t1  # no hold
            else:
                assert on.run() == oracle, seed  # on the plan: no _OffScript
                assert oracle.trials[1].segments[0].t0 == start
            assert simulate_session(warm, params) == oracle, seed

    def test_a_question_asked_at_the_session_start_stays_on_the_plan(self):
        """Trial 0 asked at 0.0 has no idle phase; the start links its entry all the same.

        The start's cursor is 0.0 in every session, so its link holds for
        every seed: no look, and trial 0's entry keyed by the start facing.
        """
        warm = parse_scenario(moved_question(0.0, index=0))
        assert warm.trials[0].question_start == 0.0
        for strategy in Strategy:
            for seed in (1, 2, 3, 1):  # cold, new seeds, then a seed again
                params = warm.agent._with_seed(seed)
                on = agent._Simulator(warm, params, strategy, seed)
                off = agent._Simulator(warm, params, strategy, seed, on_plan=False)
                trace = on.run()  # on the plan: no _OffScript
                assert trace == off.run(), (strategy, seed)
                assert on.rng.getstate() == off.rng.getstate()
                assert trace.trials[0].segments[0].t0 == 0.0
        plan = warm._cache[agent._SessionPlan]
        for shape, (start,) in plan.starts.items():
            assert start == (None, None, plan.trials[shape][0, agent._START])
        assert_keys_are_plan_times(plan)

    def test_the_plan_stops_growing_over_a_second_pass(self):
        """Nodes, edges and links after seeds 1-100 are all a second pass needs."""
        warm = {name: load_bundled(name) for name in bundled_scenario_names()}

        def sweep():
            for seed in range(1, 101):
                for scn in warm.values():
                    for strategy in Strategy:
                        simulate_session(scn, strategy=strategy, seed=seed)
            return {name: plan_entries(scn) for name, scn in warm.items()}

        first = sweep()
        assert sweep() == first


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
