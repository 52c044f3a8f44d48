"""Panel placement strategies.

Two strategies carry the interesting behavior:

  * body_fixed: each panel sits at a fixed compass bearing in the user's
    body frame (0 = straight ahead, positive = right), at a fixed distance
    and height.  The layout never changes relative to the body.

  * environment_referenced: each panel is re-aimed every update onto the
    horizontal ray from the user's body toward that panel's intermediary
    (the person or poster the panel's content belongs to), at a fixed
    horizontal distance.  Looking at the intermediary therefore always
    brings its panel into view, and panels rearrange themselves as the
    user or the intermediaries move.

world_fixed, object_fixed and head_fixed are the classic baselines and are
supported for comparison runs: head_fixed rings the panels around the
user's eyes at the body-fixed bearings, object_fixed floats each panel
name-tag style above its intermediary, and world_fixed is the body-fixed
layout of the session start, state_at(0.0), held in the world.
Strategy and PlacementParams (with PlacementWarning) are defined in
scenario.py, beside the .scn rows that fill them, and are importable from
here as well.

Every strategy has one direct placement function (place_body_fixed,
place_environment_referenced, place_head_fixed, place_object_fixed), and
session_placement, the one map from a strategy to its placement, is the
only route the simulator takes.  Body-fixed and
environment-referenced panels are kept upright (no vertical tilt): they
yaw to face the user's body position at eye height, with world up as their
up axis.  The direct functions are pure, so callers may keep their
results; the agent's seed-shared session plan does, per scenario and
strategy.  The one stateful piece is EnvironmentReferencedPlacer: it holds
the last valid pose for degenerate frames (user standing exactly on an
intermediary), so its result depends on the history of its calls.  That
history is confined to one placer instance, as one record per panel: the
inputs and the Pose of its last valid placement.  So the session plan
keeps no degenerate placement: a session whose placer would hold a pose
runs without the plan.  The placer also reuses: a panel whose body pose,
intermediary pose and params are the very objects (by identity) of its
record gets the recorded Pose back, since the panel pose is a pure
function of them.  Scenario.state_at hands out the same Pose objects on
still pieces, so on those frames nothing is recomputed.

Body-fixed and environment-referenced placement, a headset app's per-frame
work, run on floats (geometry's scalar kernels, under its bit-identity
rule) and build one Vec3, one Rotation and one Pose per panel, at the end.

emit_layouts is the test oracle: it expresses each strategy as
frame-of-reference layouts (unified frames for body-, head-, world- and
object-fixed, hybrid frames for environment_referenced) that
frames.resolve_world_pose turns into world poses.  It takes the config
sessions place by, and resolving its emission of a state (for world_fixed,
the session start) matches session_placement: bit for bit for head- and
object-fixed, which share one unified-frame transcription of it
(_in_unified_frame), and to within GEOM_EPS for the others; tests compare
both routes.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Mapping

from .designspace import SizeSpec, SpatialLayout
from .errors import (
    DegenerateIntermediary,
    DegenerateTarget,
    MissingConfig,
    WarningEvent,
    field,
    record,
)
from .frames import (
    USER_BODY,
    USER_HEAD,
    WORLD,
    FrameOfReference,
    SceneState,
    _corrected_aspect,
)
from .geometry import (
    FORWARD,
    GEOM_EPS,
    UP,
    Pose,
    Rotation,
    Vec3,
    _look_quat,
    _reject_non_finite,
    _unit,
    compose,
    facing_yaw_deg,
    look_rotation,
    yaw_rotation,
)
from .scenario import PlacementParams, PlacementWarning, Scenario, Strategy

# Horizontal user-intermediary distances below this leave the panel
# bearing undefined.
DEGENERATE_HORIZONTAL_M = 1e-6

# Object-fixed panels float name-tag style this far above their
# intermediary's floor anchor: 0.6 m over the 1.5 m gaze height.
NAME_TAG_HEIGHT_M = 2.1

# The strategies that place each panel through its intermediary; the others
# place it at its bearing from the user.
INTERMEDIARY_PLACED = frozenset({Strategy.ENVIRONMENT_REFERENCED, Strategy.OBJECT_FIXED})


def body_heading_deg(body: Pose) -> float:
    """Compass yaw of the body's horizontal forward; bearings add to it.

    The unit horizontal direction at bearing b is
    yaw_rotation(body_heading_deg(body) + b).forward().
    """
    try:
        return facing_yaw_deg(body.orientation.forward())
    except DegenerateTarget:
        # Body pitched straight up/down never happens for scripted bodies;
        # fall back to world forward so the result stays defined.
        return facing_yaw_deg(FORWARD)


def place_body_fixed(
    state: SceneState,
    bearings: Mapping[str, float],
    params: PlacementParams,
) -> dict[str, Pose]:
    """Direct body-fixed placement, one pose per panel of bearings.

    Each panel goes panel_distance out from the user's body position along
    its configured bearing (relative to the body's horizontal forward),
    with its center panel_height above the body's ground level, facing the
    user, upright.
    """
    body = state.pose_of(USER_BODY)
    heading = body_heading_deg(body)
    out: dict[str, Pose] = {}
    for pid, bearing in bearings.items():
        # yaw_rotation(heading + bearing), with Rotation's renormalisation
        # step, then its rotate(FORWARD), on floats.
        h = 0.5 * -math.radians(heading + bearing)
        s = math.sin(h)
        w, x, y, z = math.cos(h), 0.0 * s, s, 0.0 * s
        n = math.sqrt(w**2 + x**2 + y**2 + z**2)
        if not abs(n - 1.0) <= GEOM_EPS:  # off unit, or NaN from a NaN bearing
            if not math.isfinite(n):
                raise ValueError("degenerate quaternion")
            w, x, y, z = w / n, x / n, y / n, z / n
        tx = (y * -1.0 - z * 0.0) * 2.0
        ty = (z * 0.0 - x * -1.0) * 2.0
        tz = (x * 0.0 - y * 0.0) * 2.0
        dx = 0.0 + tx * w + (y * tz - z * ty)
        dy = 0.0 + ty * w + (z * tx - x * tz)
        dz = -1.0 + tz * w + (x * ty - y * tx)
        out[pid] = _upright_panel(body.position, dx, dy, dz, params)
    return out


def _upright_panel(body_pos: Vec3, dx, dy, dz, params: PlacementParams) -> Pose:
    """center = body_pos + d * panel_distance + UP * panel_height, facing the
    body upright: look_rotation(normalized(horizontal(body_pos - center)), UP)."""
    dist, h = params.panel_distance, params.panel_height
    bx, bz = body_pos.x, body_pos.z
    center = Vec3(bx + dx * dist + 0.0 * h, body_pos.y + dy * dist + h, bz + dz * dist + 0.0 * h)
    fx, fy, fz = _unit(bx - center.x, 0.0, bz - center.z)
    return Pose(center, Rotation(*_look_quat(fx, fy, fz, 0.0, 1.0, 0.0)), params.panel_scale)


def place_environment_referenced(
    state: SceneState,
    intermediaries: Mapping[str, str],
    params: PlacementParams,
) -> dict[str, Pose]:
    """Direct environment-referenced placement, one pose per panel.

    The panel center lies on the horizontal ray from the user's body
    toward the panel's intermediary, at the configured horizontal distance
    (even when the intermediary itself is nearer), panel_height above the
    body's ground level, facing the user, upright.

    Raises DegenerateIntermediary when that ray is undefined; callers that
    want hold-last-pose behavior use EnvironmentReferencedPlacer.
    """
    return EnvironmentReferencedPlacer(intermediaries, params).place(state)


def _toward_intermediary(pid: str, body: Pose, target: Pose, params: PlacementParams) -> Pose:
    """One environment-referenced panel pose, or DegenerateIntermediary."""
    bp, tp = body.position, target.position
    ox, oy, oz = tp.x - bp.x, tp.y - bp.y, tp.z - bp.z
    if ox * 0.0 + oy * 0.0 + oz * 0.0 != 0.0:  # the difference overflowed
        _reject_non_finite(ox, oy, oz)
    dist = math.sqrt(ox * ox + oz * oz)
    if dist < DEGENERATE_HORIZONTAL_M:
        raise DegenerateIntermediary(pid, dist)
    r = 1.0 / dist
    return _upright_panel(bp, ox * r, 0.0 * r, oz * r, params)


def _in_unified_frame(ref: Pose, position: Vec3, orientation: Rotation, params) -> Pose:
    """resolve_world_pose of a panel at (position, orientation) in ref's unified frame.

    Written out in the frames route's operation order, so the floats, zero
    signs included, are that route's.  Two of its steps change no bit and
    are left out: the product with the local scale, ONES, and head-fixed's
    zero height term + UP * 0.0 (a rotated FORWARD has no -0.0 component for
    + 0.0 to clear).
    """
    return Pose(
        position=ref.position + ref.orientation.rotate(position),
        orientation=ref.orientation * orientation,
        scale=_corrected_aspect(ref.scale.hadamard(params.panel_scale), params.aspect_ratio),
    )


def place_head_fixed(
    state: SceneState,
    bearings: Mapping[str, float],
    params: PlacementParams,
) -> dict[str, Pose]:
    """Direct head-fixed placement, one pose per panel of bearings.

    Each panel rides the head panel_distance out along its bearing from
    the head's forward, at eye level, facing the eyes, and turns with the
    head in every axis: the unified head frame, resolved.
    """
    head, d = state.pose_of(USER_HEAD), params.panel_distance
    return {
        pid: _in_unified_frame(head, yaw_rotation(b).forward() * d, yaw_rotation(b + 180.0), params)
        for pid, b in bearings.items()
    }


def place_object_fixed(
    state: SceneState,
    intermediaries: Mapping[str, str],
    params: PlacementParams,
) -> dict[str, Pose]:
    """Direct object-fixed placement, one pose per panel.

    Each panel floats NAME_TAG_HEIGHT_M above its intermediary's anchor,
    in the anchor's frame, oriented as the anchor: the unified anchor
    frame, resolved.
    """
    offset = Vec3(0.0, NAME_TAG_HEIGHT_M, 0.0)
    # The identity product is kept: it can flip the sign of a zero
    # quaternion component.
    return {
        pid: _in_unified_frame(state.pose_of(eid), offset, Rotation.identity(), params)
        for pid, eid in intermediaries.items()
    }


class EnvironmentReferencedPlacer:
    """Stateful wrapper adding hold-last-pose behavior on degeneracy.

    While the user stands (horizontally) on top of an intermediary the
    panel's bearing is undefined; rather than flinging the panel around,
    the placer keeps the last valid pose and records a warning event.  If
    the very first update is already degenerate there is nothing to hold,
    so the underlying error propagates.

    The placer keeps one record per panel: the inputs of its last valid
    placement (body pose, intermediary pose, params) and the Pose it
    produced, which a degenerate frame holds.  When all three inputs are
    the same objects again, compared by identity and never by value (+-0.0
    and NaN would break that), it returns that same Pose; any other frame
    is computed.  A frame's records are committed once all its panels are
    placed, so a frame that raises leaves no history.  Reuse changes no
    result: degenerate frames still hold and warn every time.
    """

    def __init__(self, intermediaries: Mapping[str, str], params: PlacementParams):
        self.intermediaries = dict(intermediaries)
        self.params = params
        self.warnings: list[WarningEvent] = []
        # panel id -> (body, intermediary, params, pose) of its last valid placement
        self._placed: dict[str, tuple] = {}

    def place(self, state: SceneState) -> dict[str, Pose]:
        body = state.pose_of(USER_BODY)
        params, placed = self.params, self._placed
        out: dict[str, Pose] = {}
        computed = {}  # committed once every panel of the frame is placed
        for pid, eid in self.intermediaries.items():
            target = state.pose_of(eid)
            rec = placed.get(pid)
            if rec is not None and rec[0] is body and rec[1] is target and rec[2] is params:
                out[pid] = rec[3]
                continue
            try:
                pose = _toward_intermediary(pid, body, target, params)
            except DegenerateIntermediary as exc:
                if rec is None:
                    raise
                out[pid] = rec[3]
                self.warnings.append(
                    WarningEvent(
                        time=state.time,
                        subject=pid,
                        message="degenerate intermediary bearing; holding last pose",
                        extra={"distance": exc.distance},
                    )
                )
                continue
            computed[pid] = (body, target, params, pose)
            out[pid] = pose
        placed.update(computed)
        return out


def session_placement(strategy: Strategy, scenario: Scenario):
    """(place, warnings): a session's placement under strategy.

    place(state) is the strategy's direct function on the scenario's params
    and its intermediaries or body_bearings; world_fixed's ignores state
    and places the session start, state_at(0.0).  warnings is a new
    EnvironmentReferencedPlacer's list, else a new empty one.
    """
    params = scenario.params
    if strategy is Strategy.ENVIRONMENT_REFERENCED:
        placer = EnvironmentReferencedPlacer(scenario.intermediaries, params)
        return placer.place, placer.warnings
    if strategy is Strategy.OBJECT_FIXED:
        return partial(place_object_fixed, intermediaries=scenario.intermediaries, params=params), []
    bearings = scenario.body_bearings
    if strategy is Strategy.WORLD_FIXED:
        return (lambda state: place_body_fixed(scenario.state_at(0.0), bearings, params)), []
    place = place_head_fixed if strategy is Strategy.HEAD_FIXED else place_body_fixed
    return partial(place, bearings=bearings, params=params), []


@record(frozen=True)
class LayoutEmission:
    """Layouts plus any derived entity poses they reference.

    Environment-referenced layouts orient themselves by per-panel bearing
    entities that are not part of the authored scene; merge derived_poses
    into the state before resolving.
    """

    layouts: dict[str, SpatialLayout]
    derived_poses: dict[str, Pose] = field(default_factory=dict)


def bearing_entity_id(panel_id: str) -> str:
    return f"bearing:{panel_id}"


def emit_layouts(
    strategy: Strategy | str,
    state: SceneState,
    params: PlacementParams,
    *,
    bearings: Mapping[str, float] | None = None,
    intermediaries: Mapping[str, str] | None = None,
) -> LayoutEmission:
    """Express a strategy's placement as frame-of-reference layouts.

    Config: intermediaries for INTERMEDIARY_PLACED, bearings for the rest,
    as sessions place them; MissingConfig when it is absent.  world_fixed
    holds the body-fixed layout of state in the world frame (sessions hold
    the session start's); object_fixed floats each panel NAME_TAG_HEIGHT_M
    above its intermediary, in its frame.  An unknown strategy string
    raises ValueError.
    """
    strategy = Strategy(strategy)
    if strategy in INTERMEDIARY_PLACED:
        if intermediaries is None:
            raise MissingConfig(strategy.value, "intermediaries")
    elif bearings is None:
        raise MissingConfig(strategy.value, "bearings")
    size = SizeSpec(scale=params.panel_scale, aspect_ratio=params.aspect_ratio)

    if strategy is Strategy.OBJECT_FIXED:
        tag = Pose(position=Vec3(0.0, NAME_TAG_HEIGHT_M, 0.0))
        return LayoutEmission(
            {
                pid: SpatialLayout(FrameOfReference.unified(eid), tag, size)
                for pid, eid in intermediaries.items()
            }
        )

    if strategy is Strategy.ENVIRONMENT_REFERENCED:
        body = state.pose_of(USER_BODY)
        layouts: dict[str, SpatialLayout] = {}
        derived: dict[str, Pose] = {}
        local = Pose(
            position=Vec3(0.0, params.panel_height, -params.panel_distance),
            orientation=yaw_rotation(180.0),
        )
        for pid, inter in intermediaries.items():
            target = state.pose_of(inter)
            offset = (target.position - body.position).horizontal()
            if offset.norm() < DEGENERATE_HORIZONTAL_M:
                raise DegenerateIntermediary(pid, offset.norm())
            bid = bearing_entity_id(pid)
            derived[bid] = Pose(
                position=body.position,
                orientation=look_rotation(offset.normalized(), UP),
            )
            layouts[pid] = SpatialLayout(
                FrameOfReference(
                    position_ref=USER_BODY, orientation_ref=bid, scale_ref=USER_BODY
                ),
                local,
                size,
            )
        return LayoutEmission(layouts, derived)

    # Head-fixed panels ring the eyes, so no height term; world-fixed ones
    # hold the body-fixed pose of state in the world frame.
    head, held = strategy is Strategy.HEAD_FIXED, strategy is Strategy.WORLD_FIXED
    height = 0.0 if head else params.panel_height
    frame = FrameOfReference.unified(USER_HEAD if head else WORLD if held else USER_BODY)
    layouts = {}
    for pid, b in bearings.items():
        d = yaw_rotation(b).forward() * params.panel_distance + UP * height
        local = Pose(position=d, orientation=yaw_rotation(b + 180.0))
        if held:
            local = compose(state.pose_of(USER_BODY), local)
        layouts[pid] = SpatialLayout(frame, local, size)
    return LayoutEmission(layouts)


def collinearity_error_rad(
    body_pos: Vec3, panel_center: Vec3, intermediary_pos: Vec3
) -> float:
    """Horizontal angle between body->panel and body->intermediary rays."""
    a = (panel_center - body_pos).horizontal()
    b = (intermediary_pos - body_pos).horizontal()
    return math.atan2(a.cross(b).norm(), a.dot(b))


def reheighted_intermediary(
    head: Pose, panel_center: Vec3, intermediary_pos: Vec3
) -> Vec3:
    """The intermediary's horizontal location lifted onto the head-panel ray.

    Environment-referenced panels share a vertical plane with their
    intermediary as seen from the body, so the point directly above/below
    the intermediary that lies on the ray from the head through the panel
    center is the height-neutral stand-in used by the visibility
    equivalence: the panel is in the view cone exactly when this point is.
    """
    to_panel = panel_center - head.position
    horiz_panel = to_panel.horizontal().norm()
    horiz_inter = (intermediary_pos - head.position).horizontal().norm()
    if horiz_panel < DEGENERATE_HORIZONTAL_M:
        raise DegenerateIntermediary("<panel>", horiz_panel)
    s = horiz_inter / horiz_panel
    lifted = head.position + to_panel * s
    return Vec3(intermediary_pos.x, lifted.y, intermediary_pos.z)
