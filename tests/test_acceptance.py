"""Acceptance gate: nine checks, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances are pinned next to each check.
"""

import json
import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from xrlayout.agent import PanelGaze, simulate_session
from xrlayout.cli import main
from xrlayout.designspace import SizeSpec, SpatialLayout
from xrlayout.errors import ScenarioInvariantError
from xrlayout.frames import (
    USER_BODY,
    USER_HEAD,
    FrameOfReference,
    SceneState,
    resolve_unified,
    resolve_world_pose,
)
from xrlayout.geometry import (
    Pose,
    Rotation,
    Vec3,
    in_fov,
    look_rotation,
    yaw_rotation,
)
from xrlayout.metrics import classify_relevance, session_metrics
from xrlayout.placement import (
    Strategy,
    emit_layouts,
    place_body_fixed,
    place_environment_referenced,
    reheighted_intermediary,
)
from xrlayout.scenario import (
    CATEGORIES,
    COUNTRIES,
    FovSpec,
    bundled_scenario_names,
    bundled_scenario_text,
    grid_cell,
    load_bundled,
    parse_scenario,
    serialize_scenario,
)

TOL = 1e-9
FRAME_CASES = 10_000
DUAL_PATH_CASES = 1_000
SWITCH_SEEDS = 100
FRAME_BUDGET_S = 10.0
SWITCH_BUDGET_S = 60.0
NAV_PARITY_REL = 0.10

ENV_FIXTURES = tuple(n for n in bundled_scenario_names() if n.endswith("env_ref"))
INVALID_FIXTURES = {
    "invalid_stationary_near_flag": "stationary trials take no near flag",
    "invalid_mobile_five_trials": "exactly 6 trials",
    "invalid_country_not_last": "question must end with the country",
}


@contextmanager
def criterion(num, slug):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num} ({slug}): FAIL")
        raise
    print(f"CRITERION {num} ({slug}): PASS")


def rand_vec(rng, span=10.0):
    return Vec3(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-span, span))


def rand_rotation(rng):
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    return Rotation(q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def rand_pose(rng):
    return Pose(
        position=rand_vec(rng),
        orientation=rand_rotation(rng),
        scale=Vec3(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
    )


def test_criterion_1_placement_invariants():
    from xrlayout.placement import PlacementParams, collinearity_error_rad

    rng = random.Random(101)
    params = PlacementParams()
    bearings = {"panel_sports": 0.0, "panel_food": 90.0, "panel_movies": -90.0}
    at_identity = place_body_fixed(
        SceneState(0.0, {USER_BODY: Pose()}), bearings, params
    )
    t0 = time.perf_counter()
    with criterion(1, "placement invariants, 10k states"):
        for _ in range(FRAME_CASES):
            state, inters = _random_scene(rng)
            body = state.pose_of(USER_BODY)
            env = place_environment_referenced(state, inters, params)
            for pid, pose in env.items():
                inter_pos = state.pose_of(inters[pid]).position
                # panel sits on the user-intermediary ray
                assert collinearity_error_rad(body.position, pose.position, inter_pos) <= TOL
                # at a constant horizontal distance
                d = (pose.position - body.position).horizontal().norm()
                assert abs(d - params.panel_distance) <= TOL
            # and ignores the user's yaw entirely
            spun = state.with_poses(
                {USER_BODY: Pose(position=body.position,
                                 orientation=yaw_rotation(rng.uniform(-180, 180)))}
            )
            env2 = place_environment_referenced(spun, inters, params)
            for pid in env:
                assert env[pid].position.distance_to(env2[pid].position) <= TOL
                assert env[pid].orientation.angle_to(env2[pid].orientation) <= TOL
            # body-fixed panels are constant in the body frame
            for pid, pose in place_body_fixed(state, bearings, params).items():
                in_body = pose.relative_to(body)
                want = at_identity[pid]
                assert in_body.position.distance_to(want.position) <= TOL
                assert in_body.orientation.angle_to(want.orientation) <= TOL
        elapsed = time.perf_counter() - t0
        assert elapsed < FRAME_BUDGET_S, f"took {elapsed:.2f}s"


def _random_scene(rng):
    body = Pose(position=rand_vec(rng, 4.0), orientation=yaw_rotation(rng.uniform(-180, 180)))
    body = Pose(position=Vec3(body.position.x, 0.0, body.position.z),
                orientation=body.orientation)
    poses = {USER_BODY: body, USER_HEAD: Pose(position=body.position + Vec3(0, 1.6, 0),
                                              orientation=body.orientation)}
    inters = {}
    for i, pid in enumerate(("panel_sports", "panel_food", "panel_movies")):
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(1.5, 6.0)
        pos = body.position + Vec3(r * math.sin(ang), rng.uniform(0, 2.5), -r * math.cos(ang))
        eid = f"inter_{i}"
        poses[eid] = Pose(position=pos)
        inters[pid] = eid
    return SceneState(0.0, poses), inters


def test_criterion_2_unified_and_emission_dual_paths():
    from xrlayout.placement import PlacementParams

    rng = random.Random(202)
    with criterion(2, "dual-path pose resolution, 1k states"):
        # hybrid resolution against the unified route
        for _ in range(DUAL_PATH_CASES):
            ref = rng.choice(("world", "anchor"))
            state = SceneState(0.0, {"anchor": rand_pose(rng)})
            layout = SpatialLayout(
                frame=FrameOfReference.unified(ref),
                local_pose=rand_pose(rng),
                size=SizeSpec(scale=Vec3(1.0, 1.0, 1.0)),
            )
            a = resolve_world_pose(layout, state)
            b = resolve_unified(ref, layout, state)
            assert a.position.distance_to(b.position) <= TOL
            assert a.orientation.angle_to(b.orientation) <= TOL
        # emitted layouts equal direct placement
        params = PlacementParams()
        bearings = {"panel_sports": 0.0, "panel_food": 90.0, "panel_movies": -90.0}
        for _ in range(DUAL_PATH_CASES):
            state, inters = _random_scene(rng)
            direct = place_environment_referenced(state, inters, params)
            emission = emit_layouts(
                Strategy.ENVIRONMENT_REFERENCED, state, params, intermediaries=inters
            )
            resolved_state = state.with_poses(emission.derived_poses)
            for pid, layout in emission.layouts.items():
                got = resolve_world_pose(layout, resolved_state)
                assert got.position.distance_to(direct[pid].position) <= TOL
                assert got.orientation.angle_to(direct[pid].orientation) <= TOL
            direct_b = place_body_fixed(state, bearings, params)
            emission_b = emit_layouts(Strategy.BODY_FIXED, state, params, bearings=bearings)
            for pid, layout in emission_b.layouts.items():
                got = resolve_world_pose(layout, state.with_poses(emission_b.derived_poses))
                assert got.position.distance_to(direct_b[pid].position) <= TOL
                assert got.orientation.angle_to(direct_b[pid].orientation) <= TOL


def test_criterion_3_name_tag_visibility_biconditional():
    from xrlayout.placement import PlacementParams

    rng = random.Random(303)
    params = PlacementParams()
    fov = FovSpec()
    with criterion(3, "panel visible iff reheighted intermediary visible"):
        # randomized head orientations: the lifted name-tag anchor must
        # enter and leave the view cone exactly with its panel
        agree = 0
        cases = 2_000
        for _ in range(cases):
            state, inters = _random_scene(rng)
            env = place_environment_referenced(state, inters, params)
            head = Pose(
                position=state.pose_of(USER_HEAD).position,
                orientation=rand_rotation(rng),
            )
            for pid, pose in env.items():
                inter_pos = state.pose_of(inters[pid]).position
                lifted = reheighted_intermediary(head, pose.position, inter_pos)
                agree += in_fov(head, pose.position, fov) == in_fov(head, lifted, fov)
        assert agree == cases * 3  # 100 percent

        # and during replayed sessions the intermediary is visible while
        # the agent reads its panel
        for name in ENV_FIXTURES:
            scn = load_bundled(name)
            trace = simulate_session(scn)
            session_fov = FovSpec(scn.fov.diagonal_deg, scn.fov.aspect_ratio)
            for tt in trace.trials:
                seg = next(
                    s
                    for s in tt.segments
                    if isinstance(s.target, PanelGaze)
                    and s.t0 >= tt.trial.question_complete - 1e-9
                )
                state = scn.state_at(seg.t0)
                panels = place_environment_referenced(state, scn.intermediaries, scn.params)
                pid = scn.panel_for_category(seg.target.category)
                center = panels[pid].position
                head_pos = state.pose_of(USER_HEAD).position
                head = Pose(position=head_pos, orientation=look_rotation(center - head_pos))
                inter_pos = state.pose_of(scn.intermediaries[pid]).position
                lifted = reheighted_intermediary(head, center, inter_pos)
                assert in_fov(head, lifted, session_fov), (name, tt.trial.index)


def test_criterion_4_adaptive_layout_cuts_gaze_switches():
    contexts = ("dynamic_mobile", "dynamic_stationary", "static_mobile")
    t0 = time.perf_counter()
    with criterion(4, "fewer gaze switches than the body baseline, 100 seeds"):
        for context in contexts:
            env = load_bundled(f"{context}_env_ref")
            body = load_bundled(f"{context}_body_fixed")
            env_means = []
            body_means = []
            for seed in range(SWITCH_SEEDS):
                env_rows = session_metrics(simulate_session(env, seed=seed))
                body_rows = session_metrics(simulate_session(body, seed=seed))
                env_means.append(statistics.fmean(r.gaze_switches for r in env_rows))
                body_means.append(statistics.fmean(r.gaze_switches for r in body_rows))
            assert statistics.fmean(env_means) < statistics.fmean(body_means), context
        elapsed = time.perf_counter() - t0
        assert elapsed < SWITCH_BUDGET_S, f"took {elapsed:.2f}s"


def test_criterion_5_static_room_navigation_parity():
    with criterion(5, "static room: navigation parity across strategies"):
        env = session_metrics(simulate_session(load_bundled("static_stationary_env_ref")))
        body = session_metrics(
            simulate_session(load_bundled("static_stationary_body_fixed"))
        )
        assert len(env) == len(body) == 3
        for a, b in zip(env, body):
            diff = abs(a.navigation_time_s - b.navigation_time_s)
            assert diff <= NAV_PARITY_REL * max(
                a.navigation_time_s, b.navigation_time_s
            ), (a.trial_index, a.navigation_time_s, b.navigation_time_s)


def test_criterion_6_relevance_proportions():
    with criterion(6, "relevant-trial proportions 1, 1/2, 1/3"):
        expected = {
            "dynamic_mobile": Fraction(1),
            "dynamic_stationary": Fraction(1),
            "static_mobile": Fraction(1, 2),
            "static_stationary": Fraction(1, 3),
        }
        for context, want in expected.items():
            scn = load_bundled(f"{context}_env_ref")
            flags = [classify_relevance(t, context=context) for t in scn.trials]
            assert Fraction(sum(flags), len(flags)) == want, context


def test_criterion_7_batch_run_and_grid(tmp_path, capsys):
    with criterion(7, "batch run covers 8 sessions, 36 trials; grid bijective"):
        code = main(
            ["run", "--all", "--format", "json", "--out", str(tmp_path), "--seed", "42"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "8 sessions, 36 trials" in out
        doc = json.loads((tmp_path / "results.json").read_text())
        assert len(doc["summaries"]) == 8
        assert len(doc["trials"]) == 36
        cells = {
            (cat, grid_cell(cat, country))
            for cat in CATEGORIES
            for country in COUNTRIES
        }
        assert len(cells) == 84
        assert all(0 <= r < 4 and 0 <= c < 7 for _, (r, c) in cells)


def test_criterion_8_scenario_round_trip_and_rejection():
    from importlib import resources

    with criterion(8, "scenario round-trips; invalid files rejected"):
        for name in bundled_scenario_names():
            text = bundled_scenario_text(name)
            scn = parse_scenario(text)
            canon = serialize_scenario(scn)
            assert canon == text, f"{name} is not in canonical form"
            assert parse_scenario(canon).to_dict() == scn.to_dict()
        invalid_dir = resources.files("xrlayout") / "fixtures" / "invalid"
        for stem, fragment in INVALID_FIXTURES.items():
            text = (invalid_dir / f"{stem}.scn").read_text(encoding="utf-8")
            with pytest.raises(ScenarioInvariantError) as exc:
                parse_scenario(text, source=stem)
            rendered = "\n".join(d.message for d in exc.value.diagnostics)
            assert fragment in rendered, (stem, rendered)


def test_criterion_9_byte_identical_batches(tmp_path, capsys):
    with criterion(9, "same seed, byte-identical outputs"):
        for sub in ("first", "second"):
            code = main(
                [
                    "run", "--all", "--seed", "7", "--format", "json",
                    "--gaze", "--tick-hz", "20", "--out", str(tmp_path / sub),
                ]
            )
            capsys.readouterr()
            assert code == 0
        first = sorted((tmp_path / "first").iterdir())
        second = sorted((tmp_path / "second").iterdir())
        assert [p.name for p in first] == [p.name for p in second]
        assert len(first) == 1 + 8  # results.json plus one gaze stream per session
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name
