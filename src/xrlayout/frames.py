"""Frames of reference and world-pose resolution.

An object's spatial anchoring is split into three independent referents:
one entity supplies the position origin, one the orientation, one the
scale.  A frame with all three referents equal behaves exactly like the
classic single-parent case; mixed referents express layouts such as "moves
with the user but keeps a fixed world heading".

Resolution semantics (fixed by design):

  * world orientation  = orientation referent's world orientation
                         composed with the local orientation;
  * world position     = position referent's world position plus the local
                         position offset rotated by the orientation
                         referent's world orientation;
  * world scale        = scale referent's world scale times the local and
                         size scales, per axis.

Rotating the offset by the orientation referent (not the position
referent) is what lets a user-anchored object keep a world-compass offset
when its orientation referent is the world: yawing the user then changes
nothing but the origin.  With a unified frame the two choices coincide.

Entity references are plain string ids; "world", "user_body" and
"user_head" are reserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .errors import UnresolvedRef
from .geometry import GEOM_EPS, Pose, Vec3, compose

if TYPE_CHECKING:  # import cycle guard: designspace builds on these types
    from .designspace import SpatialLayout

WORLD = "world"
USER_BODY = "user_body"
USER_HEAD = "user_head"
RESERVED_REFS = frozenset({WORLD, USER_BODY, USER_HEAD})
_WORLD_POSE = Pose()  # shared by every snapshot that does not set its own

@dataclass(frozen=True)
class FrameOfReference:
    position_ref: str
    orientation_ref: str
    scale_ref: str

    @classmethod
    def unified(cls, ref: str) -> "FrameOfReference":
        return cls(ref, ref, ref)


@dataclass(frozen=True)
class SceneState:
    """Immutable snapshot of world poses for every entity at one instant."""

    time: float
    poses: Mapping[str, Pose] = field(default_factory=dict)

    def __post_init__(self):
        p = dict(self.poses)
        p.setdefault(WORLD, _WORLD_POSE)
        object.__setattr__(self, "poses", p)

    def pose_of(self, ref: str) -> Pose:
        try:
            return self.poses[ref]
        except KeyError:
            raise UnresolvedRef(ref) from None

    def with_poses(self, extra: Mapping[str, Pose]) -> "SceneState":
        merged = dict(self.poses)
        merged.update(extra)
        return SceneState(self.time, merged)

def resolve_world_pose(layout: "SpatialLayout", state: SceneState) -> Pose:
    """World pose of an object laid out in a (possibly hybrid) frame.

    Pure: depends only on the layout and the given state.  The layout's
    size scale multiplies in after the frame scale, then the aspect ratio
    is enforced by correcting the height axis toward the width axis.
    """
    f = layout.frame
    pos_ref = state.pose_of(f.position_ref)
    ori_ref = state.pose_of(f.orientation_ref)
    scl_ref = state.pose_of(f.scale_ref)
    local = layout.local_pose

    scale = scl_ref.scale.hadamard(local.scale).hadamard(layout.size.scale)
    scale = _corrected_aspect(scale, layout.size.aspect_ratio)
    return Pose(
        position=pos_ref.position + ori_ref.orientation.rotate(local.position),
        orientation=ori_ref.orientation * local.orientation,
        scale=scale,
    )


def resolve_unified(ref: str, layout: "SpatialLayout", state: SceneState) -> Pose:
    """Single-parent resolution path, kept separate on purpose.

    Composes the referent's pose with the local pose directly.  For a
    unified frame this must agree with resolve_world_pose to within
    GEOM_EPS; tests compare the two routes.
    """
    parent = state.pose_of(ref)
    resolved = compose(parent, layout.local_pose)
    scale = resolved.scale.hadamard(layout.size.scale)
    return Pose(
        position=resolved.position,
        orientation=resolved.orientation,
        scale=_corrected_aspect(scale, layout.size.aspect_ratio),
    )


def _corrected_aspect(scale: Vec3, aspect_ratio: float | None) -> Vec3:
    """Force width:height to the requested ratio by adjusting the height."""
    if aspect_ratio is None:
        return scale
    target_y = scale.x / aspect_ratio
    if abs(target_y - scale.y) <= GEOM_EPS:
        return scale
    return Vec3(scale.x, target_y, scale.z)
