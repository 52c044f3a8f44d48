"""Panel placement strategies: direct math, emission, degeneracy handling."""

import math
import random
import re
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xrlayout.placement as placement
from xrlayout.errors import DegenerateIntermediary, MissingConfig, XRLayoutError
from xrlayout.frames import USER_BODY, USER_HEAD, SceneState, resolve_world_pose
from xrlayout.geometry import FORWARD, UP, Pose, Rotation, Vec3, angle_between, yaw_rotation
from xrlayout.placement import (
    NAME_TAG_HEIGHT_M,
    EnvironmentReferencedPlacer,
    PlacementParams,
    PlacementWarning,
    Strategy,
    bearing_entity_id,
    collinearity_error_rad,
    emit_layouts,
    place_body_fixed,
    place_environment_referenced,
    place_head_fixed,
    place_object_fixed,
    reheighted_intermediary,
)
from xrlayout.scenario import load_bundled

TOL = 1e-9
PARAMS = PlacementParams()


def state_with_body(position=Vec3(0.0, 0.0, 0.0), yaw=0.0, extra=None):
    poses = {USER_BODY: Pose(position=position, orientation=yaw_rotation(yaw))}
    if extra:
        poses.update(extra)
    return SceneState(time=0.0, poses=poses)


def matrix_oracle_offset(body_yaw_deg: float, bearing_deg: float, dist: float) -> Vec3:
    """Independent bearing math: a hand-written 2D rotation matrix.

    Ground-plane coordinates (x east, z south); facing angle a (compass,
    0 = -z) gives direction (sin a, -cos a) before lifting back to 3D.
    """
    a = math.radians(body_yaw_deg + bearing_deg)
    return Vec3(dist * math.sin(a), 0.0, -dist * math.cos(a))


class TestBodyFixed:
    def test_bearing_sign_right_is_positive_x(self):
        # origin body facing -Z: +90 bearing must land on the +X side
        state = state_with_body()
        poses = place_body_fixed(state, {"p": 90.0}, PARAMS)
        assert poses["p"].position.is_close(Vec3(1.2, 1.5, 0.0), tol=TOL)

    def test_matches_matrix_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            yaw = rng.uniform(-179.0, 180.0)
            bearing = rng.uniform(-180.0, 180.0)
            origin = Vec3(rng.uniform(-5, 5), 0.0, rng.uniform(-5, 5))
            state = state_with_body(origin, yaw)
            got = place_body_fixed(state, {"p": bearing}, PARAMS)["p"].position
            want = (
                origin
                + matrix_oracle_offset(yaw, bearing, PARAMS.panel_distance)
                + UP * PARAMS.panel_height
            )
            assert got.is_close(want, tol=1e-8), (yaw, bearing)

    def test_panels_face_the_user_upright(self):
        state = state_with_body(Vec3(2.0, 0.0, -1.0), yaw=37.0)
        poses = place_body_fixed(state, {"a": 0.0, "b": 120.0}, PARAMS)
        for pose in poses.values():
            to_body = (Vec3(2.0, 0.0, -1.0) - pose.position).horizontal()
            fwd = pose.orientation.forward()
            assert angle_between(fwd, to_body) < 1e-8
            assert pose.orientation.rotate(UP).is_close(UP, tol=1e-8)


class TestEnvironmentReferenced:
    def test_panel_sits_on_ray_at_fixed_distance(self):
        inter = Pose(position=Vec3(-3.0, 0.0, 0.0))
        state = state_with_body(extra={"host": inter})
        poses = place_environment_referenced(state, {"p": "host"}, PARAMS)
        assert poses["p"].position.is_close(Vec3(-1.2, 1.5, 0.0), tol=TOL)

    def test_distance_fixed_even_when_intermediary_is_nearer(self):
        inter = Pose(position=Vec3(0.0, 0.0, -0.5))  # nearer than panel_distance
        state = state_with_body(extra={"host": inter})
        poses = place_environment_referenced(state, {"p": "host"}, PARAMS)
        assert poses["p"].position.is_close(Vec3(0.0, 1.5, -1.2), tol=TOL)

    def test_collinearity_and_height_invariants(self):
        rng = random.Random(32)
        for _ in range(300):
            body_pos = Vec3(rng.uniform(-5, 5), 0.0, rng.uniform(-5, 5))
            inter_pos = Vec3(rng.uniform(-8, 8), rng.uniform(0, 2), rng.uniform(-8, 8))
            if (inter_pos - body_pos).horizontal().norm() < 0.01:
                continue
            state = state_with_body(body_pos, rng.uniform(-180, 180), extra={"host": Pose(position=inter_pos)})
            pose = place_environment_referenced(state, {"p": "host"}, PARAMS)["p"]
            assert collinearity_error_rad(body_pos, pose.position, inter_pos) < 1e-8
            horiz = (pose.position - body_pos).horizontal().norm()
            assert horiz == pytest.approx(PARAMS.panel_distance, abs=1e-9)
            assert pose.position.y == pytest.approx(body_pos.y + PARAMS.panel_height, abs=1e-9)

    def test_ignores_intermediary_height(self):
        taller = state_with_body(extra={"host": Pose(position=Vec3(-3.0, 2.5, 0.0))})
        ground = state_with_body(extra={"host": Pose(position=Vec3(-3.0, 0.0, 0.0))})
        a = place_environment_referenced(taller, {"p": "host"}, PARAMS)["p"]
        b = place_environment_referenced(ground, {"p": "host"}, PARAMS)["p"]
        assert a.position.is_close(b.position, tol=TOL)

    def test_degenerate_raises(self):
        state = state_with_body(extra={"host": Pose(position=Vec3(0.0, 1.7, 0.0))})
        with pytest.raises(DegenerateIntermediary):
            place_environment_referenced(state, {"p": "host"}, PARAMS)

    def test_placer_holds_last_pose_and_warns(self):
        placer = EnvironmentReferencedPlacer({"p": "host"}, PARAMS)
        good = state_with_body(extra={"host": Pose(position=Vec3(-3.0, 0.0, 0.0))})
        first = placer.place(good)["p"]
        overlapping = SceneState(
            time=4.0,
            poses={
                USER_BODY: Pose(position=Vec3(-3.0, 0.0, 0.0)),
                "host": Pose(position=Vec3(-3.0, 0.0, 0.0)),
            },
        )
        held = placer.place(overlapping)["p"]
        assert held.is_close(first, tol=TOL)
        assert len(placer.warnings) == 1
        assert placer.warnings[0].time == 4.0
        assert placer.warnings[0].subject == "p"

    def test_placer_raises_when_first_update_degenerate(self):
        placer = EnvironmentReferencedPlacer({"p": "host"}, PARAMS)
        overlapping = state_with_body(extra={"host": Pose(position=Vec3(0.0, 0.0, 0.0))})
        with pytest.raises(DegenerateIntermediary):
            placer.place(overlapping)


class TestEmission:
    """emit_layouts must agree with the direct placement functions."""

    def test_env_ref_emission_matches_direct(self):
        rng = random.Random(33)
        for _ in range(200):
            body_pos = Vec3(rng.uniform(-5, 5), 0.0, rng.uniform(-5, 5))
            yaw = rng.uniform(-180, 180)
            inter_pos = Vec3(rng.uniform(-8, 8), 0.0, rng.uniform(-8, 8))
            if (inter_pos - body_pos).horizontal().norm() < 0.01:
                continue
            state = state_with_body(body_pos, yaw, extra={"host": Pose(position=inter_pos)})
            emission = emit_layouts(
                Strategy.ENVIRONMENT_REFERENCED, state, PARAMS, intermediaries={"p": "host"}
            )
            assert bearing_entity_id("p") in emission.derived_poses
            resolved = resolve_world_pose(
                emission.layouts["p"], state.with_poses(emission.derived_poses)
            )
            direct = place_environment_referenced(state, {"p": "host"}, PARAMS)["p"]
            assert resolved.position.is_close(direct.position, tol=1e-8)
            assert resolved.orientation.approx_eq(direct.orientation, tol=1e-7)

    def test_body_fixed_emission_matches_direct(self):
        rng = random.Random(34)
        for _ in range(200):
            body_pos = Vec3(rng.uniform(-5, 5), 0.0, rng.uniform(-5, 5))
            yaw = rng.uniform(-180, 180)
            bearing = rng.uniform(-180, 180)
            state = state_with_body(body_pos, yaw)
            emission = emit_layouts(Strategy.BODY_FIXED, state, PARAMS, bearings={"p": bearing})
            resolved = resolve_world_pose(emission.layouts["p"], state)
            direct = place_body_fixed(state, {"p": bearing}, PARAMS)["p"]
            assert resolved.position.is_close(direct.position, tol=1e-8)
            assert resolved.orientation.approx_eq(direct.orientation, tol=1e-7)

    def test_head_fixed_emission_matches_direct(self):
        rng = random.Random(35)
        for _ in range(200):
            head = Pose(
                position=Vec3(rng.uniform(-5, 5), rng.uniform(1, 2), rng.uniform(-5, 5)),
                orientation=Rotation(*(rng.uniform(-1, 1) for _ in range(4))),
            )
            state = SceneState(time=0.0, poses={USER_HEAD: head, USER_BODY: Pose()})
            bearings = {"p": rng.uniform(-180, 180), "q": rng.uniform(-180, 180)}
            emission = emit_layouts(Strategy.HEAD_FIXED, state, PARAMS, bearings=bearings)
            direct = place_head_fixed(state, bearings, PARAMS)
            for pid in bearings:
                resolved = resolve_world_pose(emission.layouts[pid], state)
                assert resolved.is_close(direct[pid], tol=1e-8)

    def test_object_fixed_emission_matches_direct(self):
        rng = random.Random(36)
        local = Pose(position=Vec3(0.0, NAME_TAG_HEIGHT_M, 0.0))
        for _ in range(200):
            host = Pose(
                position=Vec3(rng.uniform(-8, 8), 0.0, rng.uniform(-8, 8)),
                orientation=yaw_rotation(rng.uniform(-180, 180)),
            )
            state = state_with_body(extra={"host": host})
            emission = emit_layouts(
                Strategy.OBJECT_FIXED, state, PARAMS, anchors={"p": ("host", local)}
            )
            resolved = resolve_world_pose(emission.layouts["p"], state)
            direct = place_object_fixed(state, {"p": "host"}, PARAMS)["p"]
            assert resolved.is_close(direct, tol=1e-8)
            assert direct.position.is_close(host.position + UP * NAME_TAG_HEIGHT_M, tol=1e-8)

    def test_head_fixed_rides_the_head(self):
        head = Pose(position=Vec3(1.0, 1.6, -2.0), orientation=yaw_rotation(25.0))
        state = SceneState(time=0.0, poses={USER_HEAD: head, USER_BODY: Pose()})
        emission = emit_layouts(Strategy.HEAD_FIXED, state, PARAMS, bearings={"p": 0.0})
        resolved = resolve_world_pose(emission.layouts["p"], state)
        want = head.position + head.orientation.forward() * PARAMS.panel_distance
        assert resolved.position.is_close(want, tol=1e-8)

    def test_world_fixed_stays_put(self):
        anchor = Pose(position=Vec3(5.0, 1.0, 5.0))
        emission = emit_layouts(
            Strategy.WORLD_FIXED, state_with_body(), PARAMS, world_poses={"p": anchor}
        )
        moved = state_with_body(Vec3(9.0, 0.0, -9.0), yaw=120.0)
        resolved = resolve_world_pose(emission.layouts["p"], moved)
        assert resolved.position.is_close(anchor.position, tol=TOL)

    def test_object_fixed_follows_anchor(self):
        local = Pose(position=Vec3(0.0, 2.0, 0.0))
        emission = emit_layouts(
            Strategy.OBJECT_FIXED, state_with_body(), PARAMS, anchors={"p": ("host", local)}
        )
        state = state_with_body(extra={"host": Pose(position=Vec3(-3.0, 0.0, 1.0))})
        resolved = resolve_world_pose(emission.layouts["p"], state)
        assert resolved.position.is_close(Vec3(-3.0, 2.0, 1.0), tol=TOL)

    def test_missing_config_raises(self):
        state = state_with_body()
        with pytest.raises(MissingConfig):
            emit_layouts(Strategy.BODY_FIXED, state, PARAMS)
        with pytest.raises(MissingConfig):
            emit_layouts(Strategy.ENVIRONMENT_REFERENCED, state, PARAMS)
        with pytest.raises(MissingConfig):
            emit_layouts(Strategy.WORLD_FIXED, state, PARAMS)
        with pytest.raises(MissingConfig):
            emit_layouts(Strategy.OBJECT_FIXED, state, PARAMS)


def same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_pose(a: Pose, b: Pose) -> bool:
    got = (*a.position.to_tuple(), *a.scale.to_tuple())
    want = (*b.position.to_tuple(), *b.scale.to_tuple())
    qa, qb = a.orientation, b.orientation
    got += (qa.w, qa.x, qa.y, qa.z)
    want += (qb.w, qb.x, qb.y, qb.z)
    return all(same_bits(x, y) for x, y in zip(got, want))


# Exact zeros of both signs are mixed in: they are where a dropped term of
# the frames route would show.
coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))
angles = st.one_of(
    st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0]),
    st.floats(-720.0, 720.0, allow_nan=False),
)
unit_coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1.0, 1.0, allow_nan=False))
rotations = st.one_of(
    st.builds(yaw_rotation, angles),
    st.tuples(unit_coords, unit_coords, unit_coords, unit_coords)
    .filter(lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3)
    .map(lambda q: Rotation(*q)),
)
scales = st.one_of(
    st.just(Vec3(1.0, 1.0, 1.0)),
    st.builds(Vec3, *[st.floats(0.01, 10.0)] * 3),
)
poses = st.builds(Pose, st.builds(Vec3, coords, coords, coords), rotations, scales)
panel_ids = st.sampled_from(["a", "b", "c"])
params = st.builds(
    PlacementParams,
    panel_distance=st.floats(0.4, 2.0),
    panel_height=st.floats(0.1, 3.0),
    panel_scale=st.builds(Vec3, *[st.floats(0.01, 3.0)] * 3),
    aspect_ratio=st.floats(0.5, 3.0),
)


class TestDirectEqualsOracleBitForBit:
    """place_head_fixed / place_object_fixed are the frames route written out."""

    @settings(max_examples=300, deadline=None)
    @given(head=poses, bearings=st.dictionaries(panel_ids, angles, min_size=1), params=params)
    def test_head_fixed(self, head, bearings, params):
        state = SceneState(time=0.0, poses={USER_HEAD: head})
        emission = emit_layouts(Strategy.HEAD_FIXED, state, params, bearings=bearings)
        direct = place_head_fixed(state, bearings, params)
        assert list(direct) == list(bearings)
        for pid, layout in emission.layouts.items():
            assert same_pose(direct[pid], resolve_world_pose(layout, state)), pid

    @settings(max_examples=300, deadline=None)
    @given(
        anchors=st.dictionaries(st.sampled_from(["h1", "h2", "h3"]), poses, min_size=1),
        data=st.data(),
        params=params,
    )
    def test_object_fixed(self, anchors, data, params):
        intermediaries = data.draw(
            st.dictionaries(panel_ids, st.sampled_from(sorted(anchors)), min_size=1)
        )
        state = SceneState(time=0.0, poses=anchors)
        local = Pose(position=Vec3(0.0, NAME_TAG_HEIGHT_M, 0.0))
        emission = emit_layouts(
            Strategy.OBJECT_FIXED,
            state,
            params,
            anchors={pid: (eid, local) for pid, eid in intermediaries.items()},
        )
        direct = place_object_fixed(state, intermediaries, params)
        assert list(direct) == list(intermediaries)
        for pid, layout in emission.layouts.items():
            assert same_pose(direct[pid], resolve_world_pose(layout, state)), pid

    def test_identity_product_is_not_dropped(self):
        # yaw_rotation(30) has x = z = -0.0; times the identity they are 0.0
        host = Pose(orientation=yaw_rotation(30.0))
        state = SceneState(time=0.0, poses={"host": host})
        pose = place_object_fixed(state, {"p": "host"}, PARAMS)["p"]
        assert math.copysign(1.0, host.orientation.x) == -1.0
        assert math.copysign(1.0, pose.orientation.x) == 1.0


def pose_bytes(p: Pose) -> bytes:
    q = p.orientation
    return struct.pack("<10d", *p.position.to_tuple(), q.w, q.x, q.y, q.z, *p.scale.to_tuple())


class MemoFreePlacer:
    """The placer's rule with nothing reused: every panel computed every frame."""

    def __init__(self, intermediaries, params):
        self.intermediaries, self.params = dict(intermediaries), params
        self.warnings: list[tuple] = []
        self.last: dict[str, Pose] = {}

    def place(self, state):
        body, out = state.pose_of(USER_BODY), {}
        for pid, eid in self.intermediaries.items():
            try:
                out[pid] = placement._toward_intermediary(
                    pid, body, state.pose_of(eid), self.params
                )
            except DegenerateIntermediary as exc:
                if pid not in self.last:
                    raise
                out[pid] = self.last[pid]
                self.warnings.append((state.time, pid, exc.distance))
        self.last.update(out)
        return out


def placed_bytes(fn, *args):
    """fn's poses as (panel id, IEEE bytes) in dict order, or the error it raised."""
    try:
        return [(pid, pose_bytes(p)) for pid, p in fn(*args).items()]
    except (XRLayoutError, ValueError) as exc:
        return type(exc), str(exc)


def warning_bytes(events):
    return [struct.pack("<2d", t, d) + s.encode() for t, s, d in events]


# x and z on a small grid, mostly zeros: bodies land on intermediaries
# (degenerate, 1e-7 included), the panel's zero signs follow the inputs'
# when the ray runs along an axis, and 1e308 overflows the panel offset.
grid = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -2.5, 1e-7, 1e308])
grid_poses = st.builds(
    Pose, st.builds(Vec3, grid, st.sampled_from([0.0, -0.0, 1.7]), grid), rotations
)


class TestPlacerReuse:
    """EnvironmentReferencedPlacer reuses a panel's pose only for the same input objects."""

    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(grid_poses, min_size=2, max_size=4),
        param_pool=st.lists(params, min_size=2, max_size=2, unique_by=lambda p: p.panel_distance),
        data=st.data(),
    )
    def test_matches_a_memo_free_placer(self, pool, param_pool, data):
        intermediaries = {"a": "h1", "b": "h2", "c": "h1"}
        placer = EnvironmentReferencedPlacer(intermediaries, param_pool[0])
        oracle = MemoFreePlacer(intermediaries, param_pool[0])
        poses = {ref: data.draw(st.sampled_from(pool)) for ref in (USER_BODY, "h1", "h2")}

        def pick(pose) -> Pose:
            """pose itself, another pool pose, or a fresh copy with zeros re-signed."""
            how = data.draw(st.sampled_from(["same", "same", "pool", "copy", "copy"]))
            if how == "pool":
                return data.draw(st.sampled_from(pool))
            if how == "same":
                return pose
            xyz = pose.position.to_tuple()
            xyz = [-c if c == 0.0 and data.draw(st.booleans()) else c for c in xyz]
            return Pose(Vec3(*xyz), pose.orientation, pose.scale)

        for _ in range(data.draw(st.integers(1, 12))):
            step = data.draw(st.sampled_from(["place", "place", "again", "params"]))
            if step == "place":  # "again" places the very same pose objects once more
                poses = {ref: pick(pose) for ref, pose in poses.items()}
            if step in ("place", "again"):
                state = SceneState(data.draw(st.sampled_from([0.0, -0.0, 1.5])), poses)
                assert placed_bytes(placer.place, state) == placed_bytes(oracle.place, state)
            else:
                new = data.draw(st.sampled_from(param_pool))
                placer.params = oracle.params = new if data.draw(st.booleans()) else replace(new)
            got = [(w.time, w.subject, w.extra["distance"]) for w in placer.warnings]
            assert warning_bytes(got) == warning_bytes(oracle.warnings)

    @staticmethod
    def spied_placer(monkeypatch, intermediaries, params=PARAMS):
        """A placer, and the panel ids it computes (not reuses), spied on."""
        calls: list[str] = []
        compute = placement._toward_intermediary
        monkeypatch.setattr(
            placement, "_toward_intermediary", lambda pid, *a: calls.append(pid) or compute(pid, *a)
        )
        return EnvironmentReferencedPlacer(intermediaries, params), calls

    @staticmethod
    def frame(**hosts):
        """A state at t = 1 with the body at the origin and each host at (0, 0, z)."""
        poses = {eid: Pose(Vec3(0.0, 0.0, z)) for eid, z in hosts.items()}
        return SceneState(1.0, {USER_BODY: Pose(), **poses})

    def test_a_frame_that_raises_leaves_no_history(self, monkeypatch):
        placer, calls = self.spied_placer(monkeypatch, {"a": "h1", "c": "h2"})
        # a is placed, then c is degenerate with nothing to hold
        with pytest.raises(DegenerateIntermediary):
            placer.place(self.frame(h1=-3.0, h2=0.0))
        assert calls == ["a", "c"]
        # so a's first degenerate frame has nothing to hold either
        with pytest.raises(DegenerateIntermediary):
            placer.place(self.frame(h1=0.0, h2=-3.0))
        assert placer.warnings == []

    @classmethod
    def computed_per_frame(cls, monkeypatch, scn, frames):
        """Panel ids the placer computes (not reuses) on each frame, spied on."""
        placer, calls = cls.spied_placer(monkeypatch, scn.intermediaries, scn.params)
        per_frame = []
        for state in frames:
            placer.place(state)
            per_frame.append(calls[:])
            calls.clear()
        assert placer.warnings == []
        return per_frame

    @staticmethod
    def frames_90hz(scn):
        return [scn.state_at(k / 90.0) for k in range(int(scn.duration * 90.0) + 1)]

    def test_still_scene_computes_each_panel_once(self, monkeypatch):
        scn = load_bundled("static_stationary_env_ref")
        per_frame = self.computed_per_frame(monkeypatch, scn, self.frames_90hz(scn))
        assert per_frame[0] == list(scn.intermediaries)
        assert all(calls == [] for calls in per_frame[1:])

    def test_computes_exactly_where_an_input_pose_is_new(self, monkeypatch):
        scn = load_bundled("dynamic_mobile_env_ref")
        frames = self.frames_90hz(scn)
        per_frame = self.computed_per_frame(monkeypatch, scn, frames)
        expected = [list(scn.intermediaries)]
        for prev, state in zip(frames, frames[1:]):
            body_moved = state.pose_of(USER_BODY) is not prev.pose_of(USER_BODY)
            expected.append(
                [
                    pid
                    for pid, eid in scn.intermediaries.items()
                    if body_moved or state.pose_of(eid) is not prev.pose_of(eid)
                ]
            )
        assert per_frame == expected
        # both kinds of frame occur: still stretches and moving ones
        assert 0 < sum(map(len, per_frame)) < len(frames) * len(scn.intermediaries)


class TestParams:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PlacementParams(panel_distance=0.0)
        with pytest.raises(ValueError):
            PlacementParams(panel_height=-1.0)
        # a session used to die later with a bare ValueError from Pose
        message = "panel_scale: expected positive x, y and z, got Vec3(x=1.4, y=-0.8, z=0.02)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PlacementParams(panel_scale=Vec3(1.4, -0.8, 0.02))

    @pytest.mark.parametrize(
        "name", ["panel_distance", "panel_height", "eye_height", "aspect_ratio"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name}: expected a finite positive number"):
            PlacementParams(**{name: bad})
        with pytest.raises(ValueError, match=f"{name}: expected a finite positive number"):
            replace(PlacementParams(), **{name: bad})

    @pytest.mark.parametrize(
        "name", ["panel_distance", "panel_height", "eye_height", "aspect_ratio"]
    )
    def test_negative_infinity_is_non_positive(self, name):
        message = f"^{name}: expected a finite positive number, got -inf$"
        with pytest.raises(ValueError, match=message):
            PlacementParams(**{name: float("-inf")})

    def test_warns_outside_soft_band(self):
        with pytest.warns(PlacementWarning):
            PlacementParams(panel_distance=3.5)


class TestVisibilityStandin:
    def test_reheighted_point_is_on_the_gaze_ray(self):
        head = Pose(position=Vec3(0.0, 1.6, 0.0))
        panel_center = Vec3(0.0, 1.5, -1.2)
        inter = Vec3(0.0, 0.0, -3.0)
        lifted = reheighted_intermediary(head, panel_center, inter)
        assert lifted.horizontal().is_close(inter.horizontal(), tol=TOL)
        # collinear with head -> panel
        assert angle_between(panel_center - head.position, lifted - head.position) < 1e-9

    def test_degenerate_panel_bearing_raises(self):
        head = Pose(position=Vec3(0.0, 1.6, 0.0))
        with pytest.raises(DegenerateIntermediary):
            reheighted_intermediary(head, Vec3(0.0, 0.2, 0.0), Vec3(1.0, 0.0, 0.0))
