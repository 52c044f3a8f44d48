"""Scenario files: parsing, diagnostics, replay arithmetic, round-trips."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import xrlayout
from xrlayout.errors import (
    ScenarioInvariantError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    UnknownCountry,
)
from xrlayout.frames import USER_BODY, USER_HEAD
from xrlayout.geometry import Vec3
from xrlayout.scenario import (
    CATEGORIES,
    COUNTRIES,
    GRID_COLS,
    GRID_ROWS,
    SCHEMA_VERSION,
    AgentParams,
    Scenario,
    Trajectory,
    Waypoint,
    bundled_scenario_names,
    bundled_scenario_text,
    grid_cell,
    load_bundled,
    parse_scenario,
    serialize_scenario,
)

ALL_FIXTURES = (
    "dynamic_mobile_body_fixed",
    "dynamic_mobile_env_ref",
    "dynamic_stationary_body_fixed",
    "dynamic_stationary_env_ref",
    "static_mobile_body_fixed",
    "static_mobile_env_ref",
    "static_stationary_body_fixed",
    "static_stationary_env_ref",
)


class TestGrid:
    def test_dimensions_cover_the_corpus(self):
        assert GRID_ROWS * GRID_COLS == len(COUNTRIES) == 28
        assert len(CATEGORIES) == 3

    def test_alphabetical_row_major(self):
        assert grid_cell("food", "Argentina") == (0, 0)
        assert grid_cell("food", "Canada") == (0, 4)
        assert grid_cell("sports", "Japan") == (2, 1)
        assert grid_cell("movies", "Vietnam") == (3, 6)

    def test_bijective_over_all_documents(self):
        cells = {
            (cat, grid_cell(cat, country))
            for cat in CATEGORIES
            for country in COUNTRIES
        }
        assert len(cells) == 3 * 28
        for cat, (r, c) in cells:
            assert 0 <= r < GRID_ROWS and 0 <= c < GRID_COLS

    def test_unknown_country(self):
        with pytest.raises(UnknownCountry):
            grid_cell("food", "Atlantis")

    def test_unknown_category(self):
        with pytest.raises(ValueError):
            grid_cell("history", "Japan")


class TestTrajectory:
    def _traj(self, interp="linear"):
        return Trajectory(
            (
                Waypoint(0.0, Vec3(0.0, 0.0, 0.0), 0.0),
                Waypoint(10.0, Vec3(4.0, 0.0, -2.0), 90.0),
            ),
            interp,
        )

    def test_clamps_outside_range(self):
        t = self._traj()
        assert t.sample(-5.0) == (Vec3(0.0, 0.0, 0.0), 0.0)
        assert t.sample(99.0) == (Vec3(4.0, 0.0, -2.0), 90.0)

    def test_linear_midpoint(self):
        pos, yaw = self._traj().sample(5.0)
        assert pos.is_close(Vec3(2.0, 0.0, -1.0), tol=1e-12)
        assert yaw == pytest.approx(45.0)

    def test_hold_keeps_previous_waypoint(self):
        pos, yaw = self._traj("hold").sample(5.0)
        assert pos.is_close(Vec3(0.0, 0.0, 0.0), tol=1e-12)
        assert yaw == 0.0

    def test_linear_matches_np_interp_bit_for_bit(self):
        rng = np.random.default_rng(3)
        trajs = [
            traj
            for name in ALL_FIXTURES
            for traj in load_bundled(name).trajectories.values()
            if traj.interpolation == "linear"
        ]
        trajs += [
            Trajectory(
                tuple(
                    Waypoint(float(t), Vec3(*map(float, rng.normal(0, 5, 3))), 0.0)
                    for t in np.cumsum(rng.uniform(0.01, 20.0, 4))
                )
            )
            for _ in range(20)
        ]
        for traj in trajs:
            times = [w.time for w in traj.waypoints]
            ts = [*times, *np.arange(times[0], times[-1], 1 / 90)]
            got = [traj.sample(float(t))[0] for t in ts]
            for axis in ("x", "y", "z"):
                values = [getattr(w.position, axis) for w in traj.waypoints]
                want = np.interp(ts, times, values).tolist()
                assert [getattr(p, axis) for p in got] == want, axis


class TestParsing:
    def test_all_bundled_fixtures_parse(self):
        assert list(bundled_scenario_names()) == sorted(ALL_FIXTURES)
        for name in ALL_FIXTURES:
            scn = load_bundled(name)
            assert scn.name == name
            assert len(scn.trials) == (6 if scn.user_state == "mobile" else 3)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_a_bundled_session_is_the_parse_of_its_text(self, name):
        """A body-fixed session is parsed from its decoded document, not from printed text;
        the two agree, down to the order of every map's keys (seen in repr)."""
        text = bundled_scenario_text(name)
        scn = load_bundled(name)
        assert scn == parse_scenario(text)
        assert repr(scn) == repr(parse_scenario(text))
        assert serialize_scenario(scn) == text

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(ScenarioSyntaxError) as exc_info:
            parse_scenario('{"schema": 1,\n  "name": }', source="broken.scn")
        d = exc_info.value.diagnostics[0]
        assert d.kind == "syntax"
        assert d.line == 2
        assert d.col > 0

    def test_schema_error_names_the_path(self):
        doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
        doc["placement"]["strategy"] = "levitating"
        with pytest.raises(ScenarioSchemaError) as exc_info:
            parse_scenario(json.dumps(doc))
        assert any(
            d.kind == "schema" and "placement.strategy" in d.path
            for d in exc_info.value.diagnostics
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("scan_policy", "bogus"),
            ("fixation_min_s", 0),
            ("per_cell_scan_time_s", -0.2),
            ("yaw_rate_deg_s", 0.0),
            ("tick_hz", -50),
            ("tick_hz", "fast"),
            ("known_grid", 1),
        ],
    )
    def test_agent_block_checked_at_parse_time(self, key, value):
        # each used to parse and then raise a bare error in simulate_session
        doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
        doc["agent"][key] = value
        with pytest.raises(ScenarioSchemaError) as exc_info:
            parse_scenario(json.dumps(doc))
        assert [d.path for d in exc_info.value.diagnostics] == [f"agent.{key}"]

    @pytest.mark.parametrize("schedule", [[], "nan", "inf"])
    def test_word_schedule_checked_at_parse_time(self, schedule):
        # [] used to raise IndexError and a non-finite entry to slip through
        doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
        trial = doc["trials"][1]
        if schedule != []:
            bad = float(schedule)
            schedule = list(trial["word_schedule_s"])
            schedule[2] = bad
        trial["word_schedule_s"] = schedule
        with pytest.raises(ScenarioSchemaError) as exc_info:
            parse_scenario(json.dumps(doc))
        assert [d.path for d in exc_info.value.diagnostics] == ["trials[1].word_schedule_s"]

    @pytest.mark.parametrize(
        "slot, value", [(0, "NaN"), (0, "Infinity"), (2, "NaN"), (2, "-Infinity")]
    )
    def test_waypoint_time_and_yaw_checked_at_parse_time(self, slot, value):
        # a NaN waypoint time used to raise ValueError from the replay
        doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
        doc["trajectories"]["user"]["waypoints"][1][slot] = "@"
        text = json.dumps(doc).replace('"@"', value)  # JSON's non-standard literals
        with pytest.raises(ScenarioSchemaError) as exc_info:
            parse_scenario(text)
        paths = [d.path for d in exc_info.value.diagnostics]
        assert paths == ["trajectories.user.waypoints[1]"]

    @pytest.mark.parametrize(
        "where, path",
        [
            (("trials", 0, "question_start_s"), "trials[0].question_start_s"),
            (("entities", 1, "position", 1), "entities[1].position"),
            (("trajectories", "user", "waypoints", 1, 0), "trajectories.user.waypoints[1]"),
            (("placement", "body_bearings_deg", "panel_sports"),
             "placement.body_bearings_deg.panel_sports"),
        ],
    )
    def test_integer_beyond_float_range_is_a_schema_error(self, where, path):
        # such integers used to raise OverflowError out of the parser
        doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = "@"
        with pytest.raises(ScenarioSchemaError) as exc_info:
            parse_scenario(json.dumps(doc).replace('"@"', "1" + "0" * 400))
        assert [d.path for d in exc_info.value.diagnostics] == [path]

    def test_agent_block_builds_agent_params(self):
        doc = json.loads(bundled_scenario_text("dynamic_mobile_env_ref"))
        block = {
            "scan_policy": "bearing_order",
            "fixation_min_s": 0.25,
            "per_cell_scan_time_s": 0.5,
            "yaw_rate_deg_s": 90.0,
            "tick_hz": 90,
            "confusion_prob": 0.0,
            "dwell_jitter_s": 0.5,
            "known_grid": False,
            "seed": 3,
        }
        doc["agent"] = block
        scn = parse_scenario(json.dumps(doc))
        assert scn.agent == AgentParams(
            scan_policy="bearing_order",
            fixation_min=0.25,
            per_cell_scan_time=0.5,
            yaw_rate_deg_s=90.0,
            tick_hz=90.0,
            confusion_prob=0.0,
            dwell_jitter_s=0.5,
            known_grid=False,
            seed=3,
        )
        assert json.loads(serialize_scenario(scn))["agent"] == block
        # no block: the defaults, and the writer states all nine of them
        del doc["agent"]
        scn = parse_scenario(json.dumps(doc))
        assert scn.agent == AgentParams()
        assert json.loads(serialize_scenario(scn))["agent"].keys() == block.keys()

    def test_wrong_schema_version_rejected(self):
        doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
        doc["schema"] = 99
        with pytest.raises(ScenarioSchemaError):
            parse_scenario(json.dumps(doc))

    def test_near_flag_must_match_geometry(self):
        doc = json.loads(bundled_scenario_text("static_mobile_env_ref"))
        # trial 0 is genuinely near; lying about it must be caught
        doc["trials"][0]["near"] = False
        with pytest.raises(ScenarioInvariantError) as exc_info:
            parse_scenario(json.dumps(doc))
        assert any("near" in d.message for d in exc_info.value.diagnostics)

    def test_equidistant_start_enforced(self):
        doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
        for e in doc["entities"]:
            if e["id"] == "poster_food":
                e["position"] = [-4.0, 0.0, 0.0]
        with pytest.raises(ScenarioInvariantError) as exc_info:
            parse_scenario(json.dumps(doc))
        assert any("equidistant" in d.message for d in exc_info.value.diagnostics)

    def test_start_facing_enforced(self):
        doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
        for e in doc["entities"]:
            if e["id"] == "user":
                e["yaw_deg"] = 25.0
        with pytest.raises(ScenarioInvariantError) as exc_info:
            parse_scenario(json.dumps(doc))
        assert any("facing" in d.message for d in exc_info.value.diagnostics)

    def test_roundtrip_preserves_document(self):
        for name in ALL_FIXTURES:
            scn = load_bundled(name)
            again = parse_scenario(serialize_scenario(scn))
            assert again.to_dict() == scn.to_dict()

    def test_bundled_files_are_in_canonical_form(self):
        for name in ALL_FIXTURES:
            text = bundled_scenario_text(name)
            assert serialize_scenario(parse_scenario(text)) == text


class TestBundledSessions:
    def test_one_canonical_env_ref_file_per_context(self):
        root = resources.files("xrlayout") / "fixtures"
        files = sorted(p.name for p in root.iterdir() if p.name.endswith(".scn"))
        assert files == [f"{n}.scn" for n in ALL_FIXTURES if n.endswith("_env_ref")]
        for name in files:
            text = (root / name).read_text(encoding="utf-8")
            assert serialize_scenario(parse_scenario(text)) == text

    def test_each_session_builds_its_replay_table_once(self, monkeypatch):
        """Each session is parsed on its own, and a parse builds the table it replays by."""
        built = []
        prebuild = Scenario._prebuild

        def spy(scn):
            built.append(scn.name)
            return prebuild(scn)

        monkeypatch.setattr(Scenario, "_prebuild", spy)
        for name in bundled_scenario_names():
            load_bundled(name).state_at(1.0)
        assert sorted(built) == bundled_scenario_names()

    def test_body_fixed_view_differs_from_twin_only_in_name_and_strategy(self):
        for name in ALL_FIXTURES:
            if not name.endswith("_body_fixed"):
                continue
            view = load_bundled(name).to_dict()
            twin = load_bundled(name.replace("_body_fixed", "_env_ref")).to_dict()
            assert twin["placement"]["strategy"] == "environment_referenced"
            twin["name"] = name
            twin["placement"]["strategy"] = "body_fixed"
            assert view == twin

    def test_import_does_not_load_numpy(self):
        code = "import sys, xrlayout; print('numpy' in sys.modules)"
        src = str(Path(xrlayout.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "False"


class TestReplay:
    def test_head_rides_above_body(self):
        scn = load_bundled("static_mobile_env_ref")
        for t in (0.0, 7.5, 20.0, 47.0, 120.0):
            state = scn.state_at(t)
            body = state.pose_of(USER_BODY)
            head = state.pose_of(USER_HEAD)
            want = body.position + Vec3(0.0, scn.params.eye_height, 0.0)
            assert head.position.is_close(want, tol=1e-9), t

    def test_screen_stays_ahead_of_the_user(self):
        scn = load_bundled("static_mobile_env_ref")
        for t in (0.0, 46.0, 95.0):
            state = scn.state_at(t)
            body = state.pose_of(USER_BODY)
            screen = state.pose_of("screen")
            offset = screen.position - body.position
            fwd = body.orientation.forward().horizontal().normalized()
            assert offset.horizontal().normalized().is_close(fwd, tol=1e-9)
            assert offset.horizontal().norm() == pytest.approx(1.5, abs=1e-9)
            assert offset.y == pytest.approx(scn.params.eye_height, abs=1e-9)

    def test_mobile_user_walks_the_circuit(self):
        scn = load_bundled("static_mobile_env_ref")
        assert scn.state_at(10.0).pose_of(USER_BODY).position.is_close(
            Vec3(0.0, 0.0, -2.0), tol=1e-9
        )
        assert scn.state_at(60.0).pose_of(USER_BODY).position.is_close(
            Vec3(-2.0, 0.0, 0.0), tol=1e-9
        )
        assert scn.state_at(110.0).pose_of(USER_BODY).position.is_close(
            Vec3(2.0, 0.0, 0.0), tol=1e-9
        )


class TestQuestionStatus:
    def test_word_reveal_schedule(self):
        scn = load_bundled("static_stationary_env_ref")
        trial = scn.trials[0]
        t0 = trial.question_start
        status = scn.question_status(t0)
        assert status.trial_index == 0
        assert status.words_revealed == 1
        assert status.presenting and status.headers_transparent
        # fifth word lands at t0 + 4 * 0.45
        status = scn.question_status(t0 + 4 * 0.45)
        assert status.words_revealed == 5
        status = scn.question_status(trial.question_complete)
        assert status.words_revealed == len(trial.question_words)
        assert status.fully_presented

    def test_presentation_window_and_idle(self):
        scn = load_bundled("static_stationary_env_ref")
        trial = scn.trials[0]
        after = trial.question_complete + 1.0
        status = scn.question_status(after)
        assert not status.presenting
        assert not status.headers_transparent

    def _slow_session(self):
        # spread the trials out so an unanswered question gets to repeat
        doc = json.loads(bundled_scenario_text("static_stationary_env_ref"))
        for trial, start in zip(doc["trials"], (10.0, 75.0, 140.0)):
            trial["question_start_s"] = start
            trial.pop("word_schedule_s", None)
        return parse_scenario(json.dumps(doc))

    def test_question_repeats_until_answered(self):
        scn = self._slow_session()
        trial = scn.trials[0]
        # one repeat interval after the start, the question presents again
        t = trial.question_start + trial.repeat_interval + 0.1
        status = scn.question_status(t)
        assert status.trial_index == 0
        assert status.cycle == 1
        assert status.presenting
        assert status.words_revealed == 1

    def test_answered_question_stops_repeating(self):
        scn = self._slow_session()
        trial = scn.trials[0]
        t = trial.question_start + trial.repeat_interval + 0.1
        status = scn.question_status(t, answered_at=trial.question_complete + 2.0)
        assert not status.presenting

    def test_before_first_trial(self):
        scn = load_bundled("static_stationary_env_ref")
        assert scn.question_status(1.0).trial_index is None

    def test_word_schedule_defaults_to_interval(self):
        scn = load_bundled("static_stationary_env_ref")
        for trial in scn.trials:
            gaps = [
                b - a for a, b in zip(trial.word_schedule, trial.word_schedule[1:])
            ]
            assert all(g == pytest.approx(0.45) for g in gaps)

    def test_trial_properties(self):
        scn = load_bundled("static_stationary_env_ref")
        trial = scn.trials[1]
        n = len(trial.question_words)
        assert trial.question_start == 35.0
        assert trial.question_complete == pytest.approx(35.0 + (n - 1) * 0.45)
        assert trial.presentation_duration == pytest.approx((n - 1) * 0.45)


class TestScenarioAccessors:
    def test_context_naming(self):
        assert load_bundled("dynamic_mobile_env_ref").context == "dynamic_mobile"
        assert load_bundled("static_stationary_body_fixed").context == "static_stationary"

    def test_panel_lookup(self):
        scn = load_bundled("dynamic_mobile_env_ref")
        assert scn.panel_for_category("food") == "panel_food"
        with pytest.raises(KeyError):
            scn.panel_for_category("geology")

    def test_schema_version_constant(self):
        assert SCHEMA_VERSION == 1
