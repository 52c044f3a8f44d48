"""Frame-of-reference resolution: unified vs hybrid, reserved refs."""

import random

import pytest

from xrlayout.designspace import SizeSpec, SpatialLayout
from xrlayout.errors import UnresolvedRef
from xrlayout.frames import (
    USER_BODY,
    WORLD,
    FrameOfReference,
    SceneState,
    resolve_unified,
    resolve_world_pose,
)
from xrlayout.geometry import Pose, Rotation, Vec3, yaw_rotation

TOL = 1e-9


def rand_pose(rng, with_scale=False):
    scale = (
        Vec3(rng.uniform(0.2, 3), rng.uniform(0.2, 3), rng.uniform(0.2, 3))
        if with_scale
        else Vec3(1.0, 1.0, 1.0)
    )
    return Pose(
        position=Vec3(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)),
        # A normal 4-vector, normalized by Rotation, is a uniform random rotation.
        orientation=Rotation(*(rng.gauss(0.0, 1.0) for _ in range(4))),
        scale=scale,
    )


class TestSceneState:
    def test_world_is_implicit_identity(self):
        state = SceneState(time=0.0, poses={})
        assert state.pose_of(WORLD).is_close(Pose(), tol=TOL)

    def test_unknown_ref_raises(self):
        state = SceneState(time=0.0, poses={})
        with pytest.raises(UnresolvedRef):
            state.pose_of("nobody")

    def test_with_poses_does_not_mutate(self):
        state = SceneState(time=0.0, poses={USER_BODY: Pose()})
        extended = state.with_poses({"extra": Pose(position=Vec3(1, 0, 0))})
        assert "extra" not in state.poses
        assert "extra" in extended.poses


class TestHybridResolution:
    def test_compass_anchored_offset_survives_body_yaw(self):
        """Position follows the body, orientation stays world-locked.

        A panel placed 2 m toward -Z in a frame with position_ref=user and
        orientation_ref=world must stay 2 m toward world -Z of the user no
        matter how the user spins.
        """
        layout = SpatialLayout(
            FrameOfReference(
                position_ref=USER_BODY, orientation_ref=WORLD, scale_ref=WORLD
            ),
            Pose(position=Vec3(0.0, 0.0, -2.0)),
        )
        for yaw in (0.0, 45.0, 90.0, 180.0, -120.0):
            body = Pose(position=Vec3(4.0, 0.0, 7.0), orientation=yaw_rotation(yaw))
            state = SceneState(time=0.0, poses={USER_BODY: body})
            resolved = resolve_world_pose(layout, state)
            assert resolved.position.is_close(Vec3(4.0, 0.0, 5.0), tol=TOL), yaw
            assert resolved.orientation.approx_eq(Rotation.identity(), tol=TOL)

    def test_body_oriented_offset_turns_with_body(self):
        layout = SpatialLayout(
            FrameOfReference.unified(USER_BODY), Pose(position=Vec3(0.0, 0.0, -2.0))
        )
        body = Pose(position=Vec3(4.0, 0.0, 7.0), orientation=yaw_rotation(90.0))
        state = SceneState(time=0.0, poses={USER_BODY: body})
        resolved = resolve_world_pose(layout, state)
        assert resolved.position.is_close(Vec3(6.0, 0.0, 7.0), tol=TOL)

    def test_scale_ref_is_independent(self):
        giant = Pose(scale=Vec3(3.0, 3.0, 3.0))
        state = SceneState(
            time=0.0, poses={USER_BODY: Pose(), "scenery": giant}
        )
        layout = SpatialLayout(
            FrameOfReference(
                position_ref=USER_BODY, orientation_ref=USER_BODY, scale_ref="scenery"
            ),
            Pose(position=Vec3(0.0, 1.0, -1.0)),
        )
        resolved = resolve_world_pose(layout, state)
        assert resolved.scale.is_close(Vec3(3.0, 3.0, 3.0), tol=TOL)
        # scale channel never moves positions
        assert resolved.position.is_close(Vec3(0.0, 1.0, -1.0), tol=TOL)

    def test_unified_agrees_with_dual_route(self):
        rng = random.Random(21)
        for _ in range(1000):
            parent = rand_pose(rng, with_scale=True)
            local = rand_pose(rng, with_scale=True)
            state = SceneState(time=0.0, poses={"anchor": parent})
            layout = SpatialLayout(
                FrameOfReference.unified("anchor"),
                local,
                SizeSpec(scale=Vec3(1.0, 1.0, 1.0)),
            )
            via_hybrid = resolve_world_pose(layout, state)
            via_compose = resolve_unified("anchor", layout, state)
            assert via_hybrid.is_close(via_compose, tol=TOL)

    def test_aspect_ratio_corrects_height(self):
        layout = SpatialLayout(
            FrameOfReference.unified(WORLD),
            Pose(),
            SizeSpec(scale=Vec3(2.0, 9.9, 0.1), aspect_ratio=2.0),
        )
        state = SceneState(time=0.0, poses={})
        resolved = resolve_world_pose(layout, state)
        assert resolved.scale.is_close(Vec3(2.0, 1.0, 0.1), tol=TOL)

    def test_missing_hybrid_ref_raises(self):
        layout = SpatialLayout(
            FrameOfReference(position_ref=USER_BODY, orientation_ref="gone", scale_ref=WORLD)
        )
        state = SceneState(time=0.0, poses={USER_BODY: Pose()})
        with pytest.raises(UnresolvedRef):
            resolve_world_pose(layout, state)
