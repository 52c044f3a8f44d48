"""The frame path's float kernels against the object-path bodies they replaced.

place_body_fixed, the environment-referenced panel (_toward_intermediary),
look_rotation, Trajectory.sample and Scenario.state_at run on plain floats
and build their Vec3, Rotation and Pose objects only at the end.  The
oracles below are the earlier bodies, written with those objects at every
step.  Results must match bit for bit (floats compared by their IEEE bytes,
so zero signs count), and every input that raised must raise the same
exception class: extreme coordinates near +-1e308, a user on top of an
intermediary, bodies at yaw +-180 and non-finite bearings are drawn on
purpose.  TestPrebuiltReplay holds state_at, which builds each pose that
cannot change with t once, to the float body that built every pose at
every t.
"""

import math
import struct
import warnings
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from xrlayout.errors import DegenerateIntermediary, DegenerateTarget, XRLayoutError, replace
from xrlayout.frames import USER_BODY, USER_HEAD, SceneState
from xrlayout.geometry import (
    FORWARD,
    RIGHT,
    UP,
    Pose,
    Rotation,
    Vec3,
    look_rotation,
    yaw_rotation,
)
from xrlayout.placement import (
    DEGENERATE_HORIZONTAL_M,
    PlacementParams,
    _toward_intermediary,
    body_heading_deg,
    place_body_fixed,
)
from xrlayout.scenario import Trajectory, Waypoint, load_bundled

# -- oracles: the object-path bodies -----------------------------------------


def old_from_matrix(m):
    m00, m01, m02 = m[0]
    m10, m11, m12 = m[1]
    m20, m21, m22 = m[2]
    tr = m00 + m11 + m22
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        return Rotation(0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)
    if m00 > m11 and m00 > m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2
        return Rotation((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s)
    if m11 > m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2
        return Rotation((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s)
    s = math.sqrt(1.0 + m22 - m00 - m11) * 2
    return Rotation((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s)


def old_look_rotation(forward, up=UP):
    f = forward.normalized()
    zx, zy, zz = -f.x, -f.y, -f.z
    if abs(f.x * up.x + f.y * up.y + f.z * up.z) > 1.0 - 1e-9:
        up = FORWARD if abs(f.dot(FORWARD)) < 0.9 else RIGHT
    ux, uy, uz = up.x, up.y, up.z
    cx, cy, cz = uy * zz - uz * zy, uz * zx - ux * zz, ux * zy - uy * zx
    n = math.sqrt(cx * cx + cy * cy + cz * cz)
    if n < 1e-12:
        raise DegenerateTarget("cannot normalize a near-zero vector")
    xx, xy, xz = cx / n, cy / n, cz / n
    return old_from_matrix(
        [
            [xx, zy * xz - zz * xy, zx],
            [xy, zz * xx - zx * xz, zy],
            [xz, zx * xy - zy * xx, zz],
        ]
    )


def old_upright_facing(center, body_pos):
    back = Vec3(body_pos.x - center.x, 0.0, body_pos.z - center.z)
    return old_look_rotation(back.normalized(), UP)


def old_place_body_fixed(state, bearings, params):
    body = state.pose_of(USER_BODY)
    heading = body_heading_deg(body)
    out = {}
    for pid, bearing in bearings.items():
        direction = yaw_rotation(heading + bearing).forward()
        center = body.position + direction * params.panel_distance + UP * params.panel_height
        out[pid] = Pose(
            position=center,
            orientation=old_upright_facing(center, body.position),
            scale=params.panel_scale,
        )
    return out


def old_toward_intermediary(pid, body, target, params):
    offset = (target.position - body.position).horizontal()
    dist = offset.norm()
    if dist < DEGENERATE_HORIZONTAL_M:
        raise DegenerateIntermediary(pid, dist)
    direction = offset * (1.0 / dist)
    center = body.position + direction * params.panel_distance + UP * params.panel_height
    return Pose(
        position=center,
        orientation=old_upright_facing(center, body.position),
        scale=params.panel_scale,
    )


def old_sample(traj, t):
    wps = traj.waypoints
    times = [w.time for w in wps]
    if t <= times[0]:
        w = wps[0]
        return w.position, w.yaw_deg
    if t >= times[-1]:
        w = wps[-1]
        return w.position, w.yaw_deg
    hi = bisect_right(times, t)
    a, b = wps[hi - 1], wps[hi]
    if traj.interpolation == "hold":
        return a.position, a.yaw_deg
    t0, t1, p0, p1 = a.time, b.time, a.position, b.position
    u = (t - t0) / (t1 - t0)
    pos = Vec3(
        (p1.x - p0.x) / (t1 - t0) * (t - t0) + p0.x,
        (p1.y - p0.y) / (t1 - t0) * (t - t0) + p0.y,
        (p1.z - p0.z) / (t1 - t0) * (t - t0) + p0.z,
    )
    return pos, a.yaw_deg + u * (b.yaw_deg - a.yaw_deg)


def old_entity_motion(scn, e, t):
    traj = scn.trajectories.get(e.id)
    if traj is None:
        return e.position, e.yaw_deg
    return old_sample(traj, t)


def old_state_at(scn, t):
    poses = {}
    user = scn.user
    body_pos, body_yaw = old_entity_motion(scn, user, t)
    body = Pose(position=body_pos, orientation=yaw_rotation(body_yaw))
    poses[USER_BODY] = body
    poses[USER_HEAD] = Pose(
        position=body_pos + UP * scn.params.eye_height, orientation=body.orientation
    )
    for e in scn.entities:
        if e.kind == "user":
            continue
        if e.anchor == "user_forward":
            fwd = body.orientation.forward().horizontal().normalized()
            center = body_pos + UP * scn.params.eye_height + fwd * e.anchor_distance_m
            poses[e.id] = Pose(position=center, orientation=yaw_rotation(body_yaw + 180.0))
            continue
        pos, yaw = old_entity_motion(scn, e, t)
        poses[e.id] = Pose(position=pos, orientation=yaw_rotation(yaw))
    return SceneState(time=t, poses=poses)


# -- comparison ---------------------------------------------------------------


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def pose_bits(p: Pose) -> bytes:
    q = p.orientation
    return b"".join(
        bits(c) for c in (*p.position.to_tuple(), q.w, q.x, q.y, q.z, *p.scale.to_tuple())
    )


def outcome(fn, *args):
    """fn's result, or the class of the XRLayoutError or ValueError it raised."""
    try:
        return fn(*args)
    except (XRLayoutError, ValueError) as exc:
        return type(exc)


def same_outcome(got, want, as_bits) -> bool:
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    return as_bits(got) == as_bits(want)


def poses_bits(poses) -> list:
    return [(k, pose_bits(p)) for k, p in poses.items()]


def make_params(**kwargs) -> PlacementParams:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # distances outside the comfort band
        return PlacementParams(**kwargs)


# -- strategies -----------------------------------------------------------------

HUGE = [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 8.9e307]
coords = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, *HUGE]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
vectors = st.builds(Vec3, coords, coords, coords)
angles = st.one_of(
    st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 360.0, -540.0]),
    st.floats(-1e4, 1e4, allow_nan=False),
)
bearings_values = st.one_of(
    angles, st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1.7e308])
)
unit = st.floats(-1.0, 1.0, allow_nan=False)
rotations = st.one_of(
    st.builds(yaw_rotation, angles),
    st.tuples(unit, unit, unit, unit)
    .filter(lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3)
    .map(lambda q: Rotation(*q)),
)
params = st.builds(
    make_params,
    panel_distance=st.one_of(st.sampled_from([1e-13, 1e-7, 1e300]), st.floats(0.4, 2.0)),
    panel_height=st.one_of(st.sampled_from([1e-300, 1e308]), st.floats(0.1, 3.0)),
    panel_scale=st.builds(Vec3, *[st.floats(0.01, 3.0)] * 3),
)
# Horizontal offsets that put the user on, or just off, an intermediary.
near_offsets = st.sampled_from([0.0, -0.0, 1e-300, -1e-9, 7e-7, 1e-6, -2e-6])


class TestPlacementKernels:
    @settings(max_examples=400, deadline=None)
    @given(f=vectors, up=st.one_of(st.just(UP), vectors))
    def test_look_rotation(self, f, up):
        got, want = outcome(look_rotation, f, up), outcome(old_look_rotation, f, up)
        assert same_outcome(got, want, lambda q: pose_bits(Pose(orientation=q)))

    @settings(max_examples=400, deadline=None)
    @given(
        position=vectors,
        orientation=rotations,
        bearings=st.dictionaries(
            st.sampled_from(["a", "b", "c"]), bearings_values, min_size=1, max_size=3
        ),
        params=params,
    )
    def test_place_body_fixed(self, position, orientation, bearings, params):
        state = SceneState(0.0, {USER_BODY: Pose(position=position, orientation=orientation)})
        got = outcome(place_body_fixed, state, bearings, params)
        want = outcome(old_place_body_fixed, state, bearings, params)
        assert same_outcome(got, want, poses_bits)

    @settings(max_examples=600, deadline=None)
    @given(
        body=st.builds(Pose, vectors, rotations),
        target=vectors,
        near=st.tuples(near_offsets, coords, near_offsets),
        on_top=st.booleans(),
        params=params,
    )
    def test_toward_intermediary(self, body, target, near, on_top, params):
        if on_top:
            p = body.position
            target = Vec3(p.x + near[0], near[1], p.z + near[2])
        target_pose = Pose(position=target)
        got = outcome(_toward_intermediary, "a", body, target_pose, params)
        want = outcome(old_toward_intermediary, "a", body, target_pose, params)
        assert same_outcome(got, want, pose_bits)


FIXTURES = {name: load_bundled(name) for name in ("static_mobile_env_ref", "dynamic_mobile_env_ref")}
positions = st.builds(
    Vec3,
    *[st.one_of(st.sampled_from([0.0, -0.0, *HUGE]), st.floats(-50.0, 50.0))] * 3,
)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 4))
    steps = draw(
        st.lists(
            st.one_of(st.floats(1e-9, 30.0), st.sampled_from([1.0, 0.5, 1e-300])),
            min_size=n,
            max_size=n,
        )
    )
    start = draw(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))
    times, t = [], start
    for step in steps:
        times.append(t)
        t += step
    if any(b <= a for a, b in zip(times, times[1:])):
        times = [start + i for i in range(n)]
    wps = tuple(Waypoint(t, draw(positions), draw(angles)) for t in times)
    return Trajectory(wps, draw(st.sampled_from(["linear", "hold"])))


def sample_times(traj):
    times = [w.time for w in traj.waypoints]
    return st.one_of(
        st.sampled_from(times),
        st.floats(times[0] - 5.0, times[-1] + 5.0),
        st.sampled_from([math.nextafter(times[-1], -math.inf), -1e308, 1e308]),
    )


class TestReplayKernels:
    @settings(max_examples=400, deadline=None)
    @given(traj=trajectories(), data=st.data())
    def test_trajectory_sample(self, traj, data):
        t = data.draw(sample_times(traj))
        got, want = outcome(traj.sample, t), outcome(old_sample, traj, t)
        assert same_outcome(got, want, lambda r: pose_bits(Pose(r[0])) + bits(r[1]))

    def test_sample_clamps_nan_as_state_at_does(self):
        # No time domain is checked yet: NaN sorts past the last waypoint in
        # both, where sample once raised a bare IndexError.
        scn = load_bundled("dynamic_mobile_env_ref")
        end = max(traj.waypoints[-1].time for traj in scn.trajectories.values())
        for traj in scn.trajectories.values():
            last = traj.waypoints[-1]
            assert traj.sample(math.nan) == (last.position, last.yaw_deg)
        assert scn.state_at(math.nan).poses == scn.state_at(end).poses

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(FIXTURES)),
        user=trajectories(),
        host=st.one_of(st.none(), trajectories()),
        eye_height=st.one_of(st.sampled_from([1e-300, 1e308]), st.floats(0.5, 2.0)),
        anchor_distance=st.one_of(st.sampled_from([0.0, -0.0, -1.5]), st.floats(0.1, 5.0)),
        data=st.data(),
    )
    def test_state_at(self, name, user, host, eye_height, anchor_distance, data):
        scn = FIXTURES[name]
        trajs = dict(scn.trajectories, user=user)
        entities = []
        for e in scn.entities:
            if e.anchor == "user_forward":
                e = replace(e, anchor_distance_m=anchor_distance)
            elif e.kind != "user" and host is not None:
                trajs[e.id] = host
            entities.append(e)
        scn = replace(
            scn,
            trajectories=trajs,
            entities=tuple(entities),
            params=replace(scn.params, eye_height=eye_height),
        )
        t = data.draw(sample_times(user))
        got, want = outcome(scn.state_at, t), outcome(old_state_at, scn, t)
        assert same_outcome(got, want, lambda s: (bits(s.time), poses_bits(s.poses)))


# -- prebuilt replay: state_at against the body that builds every pose -------


def per_frame_state_at(scn, t):
    """state_at as it was before its t-independent poses were prebuilt."""
    poses = {}
    user = scn.user
    traj = scn.trajectories.get(user.id)
    body_pos, body_yaw = (user.position, user.yaw_deg) if traj is None else traj.sample(t)
    body_rot = yaw_rotation(body_yaw)
    poses[USER_BODY] = Pose(body_pos, body_rot)
    e = scn.params.eye_height
    head = Vec3(body_pos.x + 0.0 * e, body_pos.y + e, body_pos.z + 0.0 * e)
    poses[USER_HEAD] = Pose(head, body_rot)
    for ent in scn.entities:
        if ent.kind == "user":
            continue
        if ent.anchor == "user_forward":
            f, a = body_rot.forward(), ent.anchor_distance_m
            n = math.sqrt(f.x * f.x + f.z * f.z)
            center = Vec3(head.x + f.x / n * a, head.y + 0.0 * a, head.z + f.z / n * a)
            poses[ent.id] = Pose(center, yaw_rotation(body_yaw + 180.0))
            continue
        traj = scn.trajectories.get(ent.id)
        pos, yaw = (ent.position, ent.yaw_deg) if traj is None else traj.sample(t)
        poses[ent.id] = Pose(pos, yaw_rotation(yaw))
    return SceneState(time=t, poses=poses)


def state_bits(s):
    """The time and every pose in dict order, floats as IEEE bytes (zero signs count)."""
    return bits(s.time), poses_bits(s.poses)


zero_or_coord = st.one_of(
    st.sampled_from([0.0, -0.0]), st.sampled_from(HUGE), st.floats(-50.0, 50.0)
)


@st.composite
def repeating_trajectories(draw, still=False):
    """Waypoints whose position and yaw often repeat the ones before, zeros re-signed.

    So segments between equal waypoints (as floats: +-0.0 mix), segments
    that only turn or only move, hold segments and moving segments all
    occur, often in one trajectory.  still=True repeats every waypoint.
    """
    n = draw(st.integers(1, 5))
    # +-1.7e308 make spans, and t - t0, that overflow to inf
    stamps = st.one_of(st.floats(-10.0, 40.0), st.sampled_from([-1.7e308, 0.0, 1.7e308]))
    times = sorted(draw(st.lists(stamps, min_size=n, max_size=n, unique=True)))
    resign = st.sampled_from([0.0, -0.0])
    wps = []
    for i, t in enumerate(times):
        if i == 0 or not still and draw(st.booleans()):
            xyz = [draw(zero_or_coord) for _ in range(3)]
        else:
            xyz = [draw(resign) if c == 0.0 else c for c in xyz]
        if i == 0 or not still and draw(st.booleans()):
            yaw = draw(angles)
        elif yaw == 0.0:
            yaw = draw(resign)
        wps.append(Waypoint(t, Vec3(*xyz), yaw))
    return Trajectory(tuple(wps), draw(st.sampled_from(["linear", "hold"])))


def replay_times(scn):
    """Times on, next to and between every waypoint of the scenario, and far out."""
    wp = sorted({w.time for tr in scn.trajectories.values() for w in tr.waypoints}) or [0.0]
    near = [math.nextafter(x, d) for x in wp for d in (-math.inf, math.inf)]
    return st.one_of(
        st.sampled_from(wp),
        st.sampled_from(near),
        st.floats(wp[0] - 5.0, wp[-1] + 5.0),
        st.sampled_from([-1e308, 1e308, -0.0]),
    )


def moved_scenario(draw, name):
    """A bundled scene whose user and other entities get drawn trajectories (or none)."""
    scn = FIXTURES[name]
    motion = st.one_of(st.none(), repeating_trajectories(), trajectories())
    trajs = {}
    for e in scn.entities:  # a user_forward screen's trajectory is ignored
        traj = draw(motion)
        if traj is not None:
            trajs[e.id] = traj
    anchored = draw(st.one_of(st.sampled_from([0.0, -0.0, -1.5]), st.floats(0.1, 5.0)))
    entities = tuple(
        replace(e, anchor_distance_m=anchored) if e.anchor == "user_forward" else e
        for e in scn.entities
    )
    # 1e308 overflows the head of a user high up: such poses raise when asked
    eye = draw(st.one_of(st.sampled_from([1e-300, 1e308]), st.floats(0.5, 2.0)))
    params = replace(scn.params, eye_height=eye)
    return replace(scn, entities=entities, trajectories=trajs, params=params)


class TestPrebuiltReplay:
    @settings(max_examples=500, deadline=None)
    @given(name=st.sampled_from(sorted(FIXTURES)), data=st.data())
    def test_state_at_matches_the_per_frame_body(self, name, data):
        scn = moved_scenario(data.draw, name)
        for t in data.draw(st.lists(replay_times(scn), min_size=1, max_size=8)):
            got, want = outcome(scn.state_at, t), outcome(per_frame_state_at, scn, t)
            assert same_outcome(got, want, state_bits)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_still_user_with_an_anchored_screen(self, data):
        scn = moved_scenario(data.draw, "static_mobile_env_ref")
        user = data.draw(st.one_of(st.none(), repeating_trajectories(still=True)))
        scn = replace(scn, trajectories={} if user is None else {"user": user})
        for t in data.draw(st.lists(replay_times(scn), min_size=1, max_size=8)):
            got, want = outcome(scn.state_at, t), outcome(per_frame_state_at, scn, t)
            assert same_outcome(got, want, state_bits)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(FIXTURES)), data=st.data())
    def test_replace_never_serves_stale_poses(self, name, data):
        first = moved_scenario(data.draw, name)
        t = data.draw(replay_times(first))
        outcome(first.state_at, t)  # builds first's table
        second = moved_scenario(data.draw, name)
        second = replace(first, entities=second.entities, trajectories=second.trajectories)
        assert second._cache == {}
        got, want = outcome(second.state_at, t), outcome(per_frame_state_at, second, t)
        assert same_outcome(got, want, state_bits)

    def test_still_pieces_hand_out_the_same_objects(self):
        # EnvironmentReferencedPlacer reuses a placement only for identical poses
        scn = load_bundled("dynamic_mobile_env_ref")
        still_pieces = 0
        for eid, traj in scn.trajectories.items():
            ref = USER_BODY if eid == scn.user.id else eid
            wp = [w.time for w in traj.waypoints]
            times = [wp[0] - 5.0, *wp, wp[-1] + 5.0]
            for lo, hi, still in zip(times, times[1:], traj._still_motions()):
                a, b = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)
                same = scn.state_at(a).pose_of(ref) is scn.state_at(b).pose_of(ref)
                assert same == (still is not None), (eid, lo, hi)
                still_pieces += same
        assert still_pieces > len(scn.trajectories)  # more than the clamps
        still = load_bundled("static_stationary_env_ref")  # no trajectory at all
        a, b = still.state_at(1.0).poses, still.state_at(2.0).poses
        assert all(a[ref] is b[ref] for ref in a)
