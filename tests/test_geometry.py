"""Geometry core: quaternions checked against scipy, pose algebra, FOV,
value semantics of the slotted types, and bit identity of the scalar kernels
with the composed-operator formulas they replaced."""

import copy
import math
import pickle
import random
import re
from dataclasses import FrozenInstanceError, make_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as SciRot

from xrlayout.agent import GazeSegment, PanelGaze
from xrlayout.errors import DegenerateTarget, NonFiniteVector, XRLayoutError
from xrlayout.frames import USER_BODY, SceneState
from xrlayout.geometry import (
    DEGENERACY_EPS,
    FORWARD,
    ONES,
    RIGHT,
    UP,
    ZERO,
    FovSpec,
    Pose,
    Rotation,
    Vec3,
    angle_between,
    angular_deviation,
    compose,
    facing_yaw_deg,
    in_fov,
    look_rotation,
    yaw_rotation,
)
from xrlayout.placement import PlacementParams, place_body_fixed

TOL = 1e-9


def rand_vec(rng, span=10.0):
    return Vec3(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-span, span))


def rand_unit(rng):
    while True:
        v = rand_vec(rng, 1.0)
        if v.norm() > 0.1:
            return v.normalized()


def rand_rotation(rng):
    # A normal 4-vector, normalized by Rotation, is a uniform random rotation.
    return Rotation(*(rng.gauss(0.0, 1.0) for _ in range(4)))


def as_scipy(q: Rotation) -> SciRot:
    # scipy stores scalar-last
    return SciRot.from_quat([q.x, q.y, q.z, q.w])


def apply_to_point(pose: Pose, p: Vec3) -> Vec3:
    """Rigid map of a point from the pose's frame into the parent frame."""
    return pose.position + pose.orientation.rotate(p)


def rotation_matrix(q: Rotation) -> list[list[float]]:
    """3x3 row-major matrix of q (columns are local axes in world)."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


class TestVec3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Vec3(0.0, float("inf"), 0.0)

    def test_algebra(self):
        a, b = Vec3(1.0, 2.0, 3.0), Vec3(-4.0, 0.5, 2.0)
        assert (a + b).to_tuple() == (-3.0, 2.5, 5.0)
        assert (a - b).to_tuple() == (5.0, 1.5, 1.0)
        assert (a * 2.0).to_tuple() == (2.0, 4.0, 6.0)
        assert a.hadamard(b).to_tuple() == (-4.0, 1.0, 6.0)
        assert a.dot(b) == pytest.approx(-4.0 + 1.0 + 6.0)

    def test_cross_is_right_handed(self):
        assert RIGHT.cross(UP).is_close(-FORWARD, tol=TOL)  # x cross y = z
        assert UP.cross(-FORWARD).is_close(RIGHT, tol=TOL)

    def test_horizontal_drops_height(self):
        assert Vec3(3.0, 7.0, -4.0).horizontal().to_tuple() == (3.0, 0.0, -4.0)

    def test_normalized_zero_raises(self):
        with pytest.raises(DegenerateTarget):
            Vec3(0.0, 0.0, 0.0).normalized()


class TestRotationAgainstScipy:
    def test_rotate_matches(self):
        rng = random.Random(1)
        for _ in range(300):
            q = rand_rotation(rng)
            v = rand_vec(rng)
            got = q.rotate(v)
            want = as_scipy(q).apply([v.x, v.y, v.z])
            assert abs(got.x - want[0]) < TOL
            assert abs(got.y - want[1]) < TOL
            assert abs(got.z - want[2]) < TOL

    def test_composition_matches(self):
        rng = random.Random(2)
        for _ in range(300):
            a, b = rand_rotation(rng), rand_rotation(rng)
            v = rand_vec(rng)
            got = (a * b).rotate(v)
            want = (as_scipy(a) * as_scipy(b)).apply([v.x, v.y, v.z])
            assert abs(got.x - want[0]) < TOL
            assert abs(got.y - want[1]) < TOL
            assert abs(got.z - want[2]) < TOL

    def test_matrix_roundtrip(self):
        rng = random.Random(3)
        for _ in range(200):
            q = rand_rotation(rng)
            back = Rotation.from_matrix(rotation_matrix(q))
            assert q.angle_to(back) < 1e-7

    def test_matrix_matches_scipy(self):
        rng = random.Random(4)
        for _ in range(200):
            q = rand_rotation(rng)
            back = Rotation.from_matrix(as_scipy(q).as_matrix().tolist())
            assert q.angle_to(back) < 1e-7

    def test_inverse(self):
        rng = random.Random(5)
        ident = Rotation.identity()
        for _ in range(200):
            q = rand_rotation(rng)
            assert (q * q.inverse()).angle_to(ident) < 1e-7

    def test_rotation_preserves_norm_and_angle(self):
        rng = random.Random(6)
        for _ in range(200):
            q = rand_rotation(rng)
            u, v = rand_vec(rng), rand_vec(rng)
            assert q.rotate(u).norm() == pytest.approx(u.norm(), abs=TOL)
            if u.norm() > 1e-6 and v.norm() > 1e-6:
                assert angle_between(q.rotate(u), q.rotate(v)) == pytest.approx(
                    angle_between(u, v), abs=1e-7
                )

    def test_degenerate_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Rotation(0.0, 0.0, 0.0, 0.0)

class TestCompassYaw:
    def test_quadrants(self):
        assert yaw_rotation(0.0).forward().is_close(FORWARD, tol=TOL)
        assert yaw_rotation(90.0).forward().is_close(RIGHT, tol=TOL)
        assert yaw_rotation(180.0).forward().is_close(-FORWARD, tol=TOL)
        assert yaw_rotation(-90.0).forward().is_close(-RIGHT, tol=TOL)

    def test_forward_formula(self):
        # hand oracle: facing(yaw) = (sin yaw, 0, -cos yaw)
        for deg in range(-179, 181, 7):
            rad = math.radians(deg)
            want = Vec3(math.sin(rad), 0.0, -math.cos(rad))
            assert yaw_rotation(deg).forward().is_close(want, tol=TOL), deg

    def test_yaw_keeps_up(self):
        for deg in (-135.0, -10.0, 45.0, 170.0):
            assert yaw_rotation(deg).rotate(UP).is_close(UP, tol=TOL)

    def test_facing_roundtrip(self):
        for deg in range(-179, 181):
            got = facing_yaw_deg(yaw_rotation(float(deg)).forward())
            assert got == pytest.approx(float(deg), abs=1e-9)

    def test_facing_south_is_positive_180(self):
        assert facing_yaw_deg(Vec3(0.0, 0.0, 1.0)) == 180.0
        assert facing_yaw_deg(Vec3(-1e-300, 2.0, 1.0)) == 180.0

    def test_facing_vertical_raises(self):
        with pytest.raises(DegenerateTarget):
            facing_yaw_deg(Vec3(0.0, 1.0, 0.0))


class TestLookRotation:
    def test_points_forward_and_stays_upright(self):
        rng = random.Random(8)
        for _ in range(200):
            f = rand_unit(rng)
            if abs(f.dot(UP)) > 0.99:
                continue
            q = look_rotation(f)
            assert q.forward().is_close(f, tol=1e-8)
            assert q.rotate(UP).dot(UP) > 0.0
            assert abs(q.forward().dot(q.rotate(UP))) < 1e-8

    def test_parallel_up_fallback(self):
        q = look_rotation(UP)
        assert q.forward().is_close(UP, tol=1e-8)


class TestPoseAlgebra:
    def test_compose_associative_with_nonuniform_scale(self):
        rng = random.Random(9)
        for _ in range(200):
            poses = [
                Pose(
                    position=rand_vec(rng),
                    orientation=rand_rotation(rng),
                    scale=Vec3(
                        rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
                    ),
                )
                for _ in range(3)
            ]
            a, b, c = poses
            assert compose(compose(a, b), c).is_close(compose(a, compose(b, c)), tol=1e-8)

    def test_identity_neutral(self):
        rng = random.Random(10)
        for _ in range(50):
            p = Pose(position=rand_vec(rng), orientation=rand_rotation(rng))
            assert compose(p, Pose()).is_close(p, tol=TOL)
            assert compose(Pose(), p).is_close(p, tol=TOL)

    def test_apply_matches_compose_for_rigid(self):
        rng = random.Random(11)
        for _ in range(200):
            a = Pose(position=rand_vec(rng), orientation=rand_rotation(rng))
            b = Pose(position=rand_vec(rng), orientation=rand_rotation(rng))
            p = rand_vec(rng)
            via_compose = apply_to_point(compose(a, b), p)
            via_apply = apply_to_point(a, apply_to_point(b, p))
            assert via_compose.is_close(via_apply, tol=1e-8)

    def test_relative_to_roundtrip(self):
        rng = random.Random(12)
        for _ in range(200):
            frame = Pose(position=rand_vec(rng), orientation=rand_rotation(rng))
            x = Pose(position=rand_vec(rng), orientation=rand_rotation(rng))
            assert compose(frame, x.relative_to(frame)).is_close(x, tol=1e-8)

    def test_scale_never_moves_positions(self):
        parent = Pose(scale=Vec3(5.0, 5.0, 5.0))
        child = Pose(position=Vec3(1.0, 2.0, 3.0))
        assert compose(parent, child).position.is_close(Vec3(1.0, 2.0, 3.0), tol=TOL)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            Pose(scale=Vec3(1.0, 0.0, 1.0))


class TestAnglesAndFov:
    def test_angle_between_pinned(self):
        assert angle_between(RIGHT, UP) == pytest.approx(math.pi / 2, abs=TOL)
        assert angle_between(RIGHT, RIGHT) == pytest.approx(0.0, abs=TOL)
        assert angle_between(RIGHT, -RIGHT) == pytest.approx(math.pi, abs=TOL)

    def test_angle_between_stable_near_zero(self):
        tiny = Vec3(1.0, 1e-10, 0.0)
        assert angle_between(RIGHT, tiny) == pytest.approx(1e-10, rel=1e-3)

    def test_angle_between_zero_vector_raises(self):
        with pytest.raises(DegenerateTarget):
            angle_between(Vec3(0.0, 0.0, 0.0), RIGHT)

    def test_fov_half_angle(self):
        assert FovSpec(diagonal_deg=52.0).half_angle_deg == pytest.approx(26.0)

    def test_fov_validation(self):
        with pytest.raises(ValueError):
            FovSpec(diagonal_deg=0.0)
        with pytest.raises(ValueError):
            FovSpec(diagonal_deg=220.0)
        with pytest.raises(ValueError):
            FovSpec(aspect_ratio=-1.0)
        with pytest.raises(
            ValueError, match="^aspect_ratio: expected a finite positive number, got -inf$"
        ):
            FovSpec(aspect_ratio=float("-inf"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_fov_rejects_non_finite_aspect_ratio(self, bad):
        with pytest.raises(ValueError, match="aspect_ratio: expected a finite positive number"):
            FovSpec(aspect_ratio=bad)
        with pytest.raises(ValueError, match="aspect_ratio: expected a finite positive number"):
            replace(FovSpec(), aspect_ratio=bad)

    def test_in_fov_boundary(self):
        fov = FovSpec(diagonal_deg=52.0)
        head = Pose()  # at origin facing -Z
        # 3 m out along -Z, raised 25.9 and 26.1 deg above the forward axis
        in_rad, out_rad = math.radians(25.9), math.radians(26.1)
        just_in = Vec3(0.0, 3.0 * math.sin(in_rad), -3.0 * math.cos(in_rad))
        just_out = Vec3(0.0, 3.0 * math.sin(out_rad), -3.0 * math.cos(out_rad))
        assert in_fov(head, just_in, fov)
        assert not in_fov(head, just_out, fov)
        assert angular_deviation(head, Vec3(0.0, 0.0, -5.0)) == pytest.approx(0.0, abs=1e-6)

    def test_angular_deviation_at_viewpoint_raises(self):
        with pytest.raises(DegenerateTarget):
            angular_deviation(Pose(), Vec3(0.0, 0.0, 0.0))


# Frozen dataclasses with the same fields: the eq, hash and repr oracle.
FROZEN_ORACLES = {
    cls: make_dataclass(cls.__name__, [(f, object) for f in cls.__match_args__], frozen=True)
    for cls in (Vec3, Rotation, Pose)
}
ORACLE_CASES = [
    (Vec3, (1.0, -0.0, 2.5)),
    (Vec3, (0.0, 5e-324, -1e308)),
    (Rotation, (1.0, 0.0, 0.0, 0.0)),
    (Rotation, (0.6, -0.0, 0.8, 0.0)),
    (Pose, ()),
    (Pose, (Vec3(1.0, 2.0, 3.0), yaw_rotation(30.0), Vec3(0.5, 2.0, 1e-300))),
    (Pose, (UP, Rotation(0.6, 0.0, 0.8, 0.0))),
]


class TestValueSemantics:
    """Vec3, Rotation and Pose behave as frozen dataclasses."""

    def test_assignment_and_deletion_raise(self):
        v, q, p = Vec3(1.0, 2.0, 3.0), Rotation(1.0, 0.0, 0.0, 0.0), Pose(position=UP)
        for obj, name in ((v, "x"), (v, "z"), (q, "w"), (q, "y"), (p, "position"), (p, "scale")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 5.0)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        for obj in (v, q, p):
            with pytest.raises(FrozenInstanceError):
                obj.extra = 1.0
        assert v.to_tuple() == (1.0, 2.0, 3.0)
        assert p == Pose(UP, Rotation.identity(), ONES)

    @pytest.mark.parametrize("cls, args", ORACLE_CASES)
    def test_eq_hash_and_repr_are_the_frozen_dataclass_ones(self, cls, args):
        obj = cls(*args)
        old = FROZEN_ORACLES[cls](*(getattr(obj, f) for f in cls.__match_args__))
        assert repr(obj) == repr(old)
        assert hash(obj) == hash(old)
        assert obj == cls(*args)
        assert obj != old  # another class, as between two dataclasses

    @pytest.mark.parametrize(
        "obj",
        [
            Vec3(1.0, 2.0, 3.0),
            Rotation.identity(),
            Pose(),
            GazeSegment(0.0, 1.0, PanelGaze("food")),
        ],
        ids=lambda obj: type(obj).__name__,
    )
    def test_no_instance_dict(self, obj):
        assert not hasattr(obj, "__dict__")

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
    def test_non_positive_scale_message(self, slot, bad):
        comps = [1.0, 2.0, 3.0]
        comps[slot] = bad
        scale = Vec3(*comps)
        text = f"scale: expected positive x, y and z, got {scale!r}"
        message = f"^{re.escape(text)}$"
        with pytest.raises(ValueError, match=message):
            Pose(scale=scale)
        with pytest.raises(ValueError, match=message):
            Pose(UP, yaw_rotation(10.0), scale)

    def test_eq_and_hash(self):
        assert Vec3(1.0, 2.0, 3.0) == Vec3(1.0, 2.0, 3.0)
        assert Vec3(1.0, 2.0, 3.0) != Vec3(1.0, 2.0, 4.0)
        assert hash(Vec3(1.0, 2.0, 3.0)) == hash((1.0, 2.0, 3.0))
        assert Vec3(0.0, 0.0, 0.0) == Vec3(-0.0, 0.0, 0.0)  # float equality
        assert Vec3(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
        q = yaw_rotation(30.0)
        assert q == Rotation(q.w, q.x, q.y, q.z)
        assert hash(q) == hash((q.w, q.x, q.y, q.z))
        assert q != yaw_rotation(31.0)
        assert len({Vec3(1.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), UP}) == 2

    def test_repr(self):
        assert repr(Vec3(1.0, -0.0, 2.5)) == "Vec3(x=1.0, y=-0.0, z=2.5)"
        assert repr(Vec3(1, 2, 3)) == "Vec3(x=1, y=2, z=3)"  # stored as given
        assert repr(Rotation.identity()) == "Rotation(w=1.0, x=0.0, y=0.0, z=0.0)"
        assert repr(Pose()) == (
            "Pose(position=Vec3(x=0.0, y=0.0, z=0.0), "
            "orientation=Rotation(w=1.0, x=0.0, y=0.0, z=0.0), "
            "scale=Vec3(x=1.0, y=1.0, z=1.0))"
        )

    def test_keyword_construction(self):
        assert Vec3(z=3.0, x=1.0, y=2.0).to_tuple() == (1.0, 2.0, 3.0)
        assert Rotation(w=1.0, x=0.0, y=0.0, z=0.0) == Rotation.identity()
        q = yaw_rotation(10.0)
        assert Pose(scale=ONES, orientation=q, position=UP) == Pose(UP, q, ONES)
        assert Pose() == Pose(ZERO, Rotation.identity(), ONES)

    @pytest.mark.parametrize(
        "roundtrip",
        [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy_roundtrip(self, roundtrip):
        rng = random.Random(14)
        for obj in (
            Vec3(1.5, -0.0, 1e308),
            rand_rotation(rng),
            Rotation(0.3, 0.1, -0.2, 0.9),  # normalized on construction
            Pose(position=rand_vec(rng), orientation=rand_rotation(rng)),
            Pose(rand_vec(rng), rand_rotation(rng), Vec3(0.5, 2.0, 1e-300)),
        ):
            back = roundtrip(obj)
            assert type(back) is type(obj)
            assert back == obj
            assert repr(back) == repr(obj)  # every bit, signed zeros included

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_in_every_slot(self, slot, bad):
        comps = [1.0, 2.0, 3.0]
        comps[slot] = bad
        with pytest.raises(ValueError, match=f"non-finite vector component: {bad!r}"):
            Vec3(*comps)

    def test_first_non_finite_component_named(self):
        with pytest.raises(ValueError, match="non-finite vector component: inf"):
            Vec3(0.0, math.inf, math.nan)

    def test_largest_finite_accepted(self):
        big = Vec3(1e308, -1e308, 1.7976931348623157e308)
        assert big.to_tuple() == (1e308, -1e308, 1.7976931348623157e308)
        assert Vec3(5e-324, -0.0, 0).to_tuple() == (5e-324, -0.0, 0)

    def test_non_finite_arithmetic_result_rejected(self):
        with pytest.raises(ValueError):
            Vec3(1e308, 0.0, 0.0) * 10.0

    def test_non_finite_is_a_domain_error_and_a_value_error(self):
        # an overflowed panel size must fail a simulation inside XRLayoutError
        with pytest.raises(NonFiniteVector) as exc:
            Vec3(1e308, 0.0, 0.0) * 10.0
        assert isinstance(exc.value, XRLayoutError) and isinstance(exc.value, ValueError)

    def test_degenerate_quaternion_messages(self):
        for comps in ((math.nan, 0.0, 0.0, 1.0), (math.inf, 0.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="degenerate quaternion"):
                Rotation(*comps)


# -- bit identity of the scalar kernels --------------------------------------
#
# Test-local copies of the composed-operator formulas the kernels replaced.
# The kernels keep their exact operation order, so every float must match,
# signed zeros included.


def old_normalized(v):
    n = math.sqrt(v.dot(v))
    if n < DEGENERACY_EPS:
        raise DegenerateTarget("cannot normalize a near-zero vector")
    return Vec3(v.x / n, v.y / n, v.z / n)


def old_rotate(q, v):
    u = Vec3(q.x, q.y, q.z)
    t = u.cross(v) * 2.0
    return v + t * q.w + u.cross(t)


def old_look_rotation(forward, up=UP):
    f = old_normalized(forward)
    zaxis = -f
    if abs(f.dot(up)) > 1.0 - 1e-9:
        up = FORWARD if abs(f.dot(FORWARD)) < 0.9 else RIGHT
    xaxis = old_normalized(up.cross(zaxis))
    yaxis = zaxis.cross(xaxis)
    return Rotation.from_matrix(
        [
            [xaxis.x, yaxis.x, zaxis.x],
            [xaxis.y, yaxis.y, zaxis.y],
            [xaxis.z, yaxis.z, zaxis.z],
        ]
    )


def old_yaw_rotation(yaw_deg):
    # the axis-angle quaternion about UP, angle -radians(yaw_deg), with the old normalize
    a = old_normalized(UP)
    h = 0.5 * -math.radians(yaw_deg)
    s = math.sin(h)
    return Rotation(math.cos(h), a.x * s, a.y * s, a.z * s)


def old_place_body_fixed(state, bearings, params):
    body = state.pose_of(USER_BODY)
    out = {}
    for pid, bearing in bearings.items():
        fwd = old_rotate(body.orientation, FORWARD).horizontal()
        if fwd.norm() < 1e-12:
            fwd = Vec3(0.0, 0.0, -1.0)
        base = facing_yaw_deg(fwd)
        direction = old_rotate(old_yaw_rotation(base + bearing), FORWARD)
        center = body.position + direction * params.panel_distance + UP * params.panel_height
        back = (body.position - center).horizontal()
        out[pid] = Pose(
            position=center,
            orientation=old_look_rotation(old_normalized(back), UP),
            scale=params.panel_scale,
        )
    return out


def same_bits(a, b) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_vec(u, v) -> bool:
    return all(same_bits(a, b) for a, b in zip(u.to_tuple(), v.to_tuple()))


def same_rot(p, q) -> bool:
    return all(same_bits(a, b) for a, b in zip((p.w, p.x, p.y, p.z), (q.w, q.x, q.y, q.z)))


def same_pose(a, b) -> bool:
    return (
        same_vec(a.position, b.position)
        and same_rot(a.orientation, b.orientation)
        and same_vec(a.scale, b.scale)
    )


def outcome(fn, *args):
    """fn's result, or the type of what it raised."""
    try:
        return fn(*args)
    except (DegenerateTarget, ValueError) as exc:
        return type(exc)


def tiny_or(values):
    # mixes exact zeros of both signs and denormal-scale values into the draw
    return st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324]), values)


coords = tiny_or(st.floats(-1e6, 1e6, allow_nan=False))
unit_coords = tiny_or(st.floats(-1.0, 1.0, allow_nan=False))
vectors = st.builds(Vec3, coords, coords, coords)
# Exactly axis-aligned, nearly vertical and general directions.
directions = st.one_of(
    vectors,
    st.builds(Vec3, unit_coords, unit_coords, unit_coords),
    st.sampled_from([UP, -UP, FORWARD, RIGHT, Vec3(0.0, -0.0, 1.0), Vec3(1e-12, 1.0, 0.0)]),
)
angles = st.one_of(
    st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 360.0, 540.0]),
    st.floats(-1e4, 1e4, allow_nan=False),
)


@st.composite
def rotations(draw):
    comps = draw(st.tuples(unit_coords, unit_coords, unit_coords, unit_coords))
    if math.sqrt(sum(c * c for c in comps)) < 1e-6:
        return yaw_rotation(draw(angles))
    return Rotation(*comps)


class TestKernelsBitIdentical:
    @settings(max_examples=400, deadline=None)
    @given(q=rotations(), v=vectors)
    def test_rotate(self, q, v):
        assert same_vec(q.rotate(v), old_rotate(q, v))

    @settings(max_examples=400, deadline=None)
    @given(v=directions)
    def test_normalized(self, v):
        got, want = outcome(Vec3.normalized, v), outcome(old_normalized, v)
        assert got == want if isinstance(want, type) else same_vec(got, want)

    @settings(max_examples=400, deadline=None)
    @given(f=directions, up=st.one_of(st.just(UP), directions))
    def test_look_rotation(self, f, up):
        got, want = outcome(look_rotation, f, up), outcome(old_look_rotation, f, up)
        assert got == want if isinstance(want, type) else same_rot(got, want)

    @settings(max_examples=400, deadline=None)
    @given(deg=angles)
    def test_yaw_rotation(self, deg):
        assert same_rot(yaw_rotation(deg), old_yaw_rotation(deg))

    def test_yaw_rotation_keeps_negative_zero(self):
        # sin(h) < 0 for positive yaw, and 0.0 * s must stay -0.0
        q = yaw_rotation(30.0)
        assert math.copysign(1.0, q.x) == -1.0 and math.copysign(1.0, q.z) == -1.0

    @settings(max_examples=300, deadline=None)
    @given(
        position=vectors,
        orientation=st.one_of(rotations(), st.builds(yaw_rotation, angles)),
        bearings=st.dictionaries(
            st.sampled_from(["a", "b", "c"]), angles, min_size=1, max_size=3
        ),
        distance=st.floats(0.4, 2.0),
        height=st.floats(0.1, 3.0),
    )
    def test_place_body_fixed(self, position, orientation, bearings, distance, height):
        state = SceneState(0.0, {USER_BODY: Pose(position=position, orientation=orientation)})
        params = PlacementParams(panel_distance=distance, panel_height=height)
        got = place_body_fixed(state, bearings, params)
        want = old_place_body_fixed(state, bearings, params)
        assert list(got) == list(want)
        assert all(same_pose(got[pid], want[pid]) for pid in want)
