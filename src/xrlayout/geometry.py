"""Minimal 3D geometry kernel: vectors, unit quaternions, poses, view cones.

The view-cone test, in_fov, takes a scenario.FovSpec: the field of view is
a .scn parameter, defined beside its rows, and at run time this module
imports only errors from the package.

Conventions, fixed once for the whole package:

  * right-handed coordinates, +Y up, -Z forward at identity orientation
    (so +X is to the right of an identity observer);
  * lengths in meters, angles in radians internally, degrees at API and
    file boundaries;
  * quaternions are unit, scalar-first (w, x, y, z), and q and -q denote
    the same rotation;
  * compass yaw: 0 deg faces -Z, positive turns clockwise seen from above
    (toward +X), stored in degrees in scenario files.

Poses carry an independent per-axis scale channel.  Scale composes
multiplicatively and never touches positions; this keeps composition
associative for non-uniform scales and matches how object size is used
here (size metadata, not a spatial transform of children).

All types are immutable value objects and safe to share.  The value types
built many times per step or per session are slotted records
(errors.record with frozen=True, slots=True): Vec3, Rotation and Pose
here, agent.GazeSegment in every session, and metrics.SessionSummary in
its scoring.  Each has a hand-written __init__ that sets the slots through
their descriptors' setters, since the frozen __setattr__ raises
FrozenInstanceError for every name; errors.record states which records
get one.  __reduce__ rebuilds through __init__, so unpickling re-runs its
checks.
Every Vec3 is checked finite when constructed, arithmetic results
included, so a NaN or infinity never travels further than the operation
that made it.  The hot operations are scalar kernels on plain floats:
rotate, yaw_rotation and the private _unit, _shepperd (shared with
Rotation.from_matrix) and _look_quat, which placement calls directly.
Bit-identity rule: a kernel keeps every operation of the formula it
replaces, in order, zero terms that can flip a zero's sign included, and
raises the same exception classes, so it gives the same floats bit for bit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DegenerateTarget, NonFiniteVector, record

if TYPE_CHECKING:
    from .scenario import FovSpec

# Tolerance for geometric equality assertions (positions in meters,
# angles in radians, quaternion components).
GEOM_EPS = 1e-9
# Below this length a direction is considered undefined.
DEGENERACY_EPS = 1e-12


def _finite_number(v: object) -> bool:
    """A JSON number, not a boolean, whose float value is finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


POSITIVE_SCALE_RULE = "positive x, y and z"


def _positive_scale(x: float, y: float, z: float) -> bool:
    """The positive-scale rule; NaN fails it.  Pose.__init__ writes it out (hot path)."""
    return x > 0.0 and y > 0.0 and z > 0.0


def _unit(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z) / its norm; DegenerateTarget when the norm is near zero."""
    n = math.sqrt(x * x + y * y + z * z)
    if n < DEGENERACY_EPS:
        raise DegenerateTarget("cannot normalize a near-zero vector")
    return x / n, y / n, z / n


def _reject_non_finite(*components) -> None:
    for c in components:
        if not math.isfinite(c):
            raise NonFiniteVector(f"non-finite vector component: {c!r}")


@record(frozen=True, slots=True)
class Vec3:
    """Immutable 3-vector; every construction checks that it is finite."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float):
        # c * 0.0 is a signed zero for every finite c and NaN otherwise, so
        # the sum differs from 0.0 exactly when a component is NaN or +-inf.
        if x * 0.0 + y * 0.0 + z * 0.0 != 0.0:
            _reject_non_finite(x, y, z)
        _set_vx(self, x)
        _set_vy(self, y)
        _set_vz(self, z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def hadamard(self, other: "Vec3") -> "Vec3":
        """Per-axis product; used for scale composition."""
        return Vec3(self.x * other.x, self.y * other.y, self.z * other.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        x, y, z = self.x, self.y, self.z
        return math.sqrt(x * x + y * y + z * z)

    def normalized(self) -> "Vec3":
        return Vec3(*_unit(self.x, self.y, self.z))

    def horizontal(self) -> "Vec3":
        """Projection onto the ground plane (y zeroed)."""
        return Vec3(self.x, 0.0, self.z)

    def distance_to(self, other: "Vec3") -> float:
        return (other - self).norm()

    def is_close(self, other: "Vec3", tol: float = GEOM_EPS) -> bool:
        return self.distance_to(other) <= tol

    def to_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @classmethod
    def from_seq(cls, seq) -> "Vec3":
        x, y, z = seq
        return cls(float(x), float(y), float(z))


# Slot setters: the only way fields are written, once, in __init__.
_set_vx, _set_vy, _set_vz = Vec3.x.__set__, Vec3.y.__set__, Vec3.z.__set__

ZERO = Vec3(0.0, 0.0, 0.0)
ONES = Vec3(1.0, 1.0, 1.0)
UP = Vec3(0.0, 1.0, 0.0)
FORWARD = Vec3(0.0, 0.0, -1.0)
RIGHT = Vec3(1.0, 0.0, 0.0)


def angle_between(u: Vec3, v: Vec3) -> float:
    """Unsigned angle between two directions, radians in [0, pi].

    atan2 form: numerically stable near 0 and pi, unlike plain acos.
    """
    nu, nv = u.norm(), v.norm()
    if nu < DEGENERACY_EPS or nv < DEGENERACY_EPS:
        raise DegenerateTarget("angle against a near-zero direction")
    return math.atan2(u.cross(v).norm(), u.dot(v))


@record(frozen=True, slots=True)
class Rotation:
    """Immutable unit quaternion, scalar first.  Normalized on construction."""

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float, x: float, y: float, z: float):
        n = math.sqrt(w**2 + x**2 + y**2 + z**2)
        if not math.isfinite(n) or n < DEGENERACY_EPS:
            raise ValueError("degenerate quaternion")
        if abs(n - 1.0) > GEOM_EPS:
            w, x, y, z = w / n, x / n, y / n, z / n
        _set_qw(self, w)
        _set_qx(self, x)
        _set_qy(self, y)
        _set_qz(self, z)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(1.0, 0.0, 0.0, 0.0)

    def __mul__(self, other: "Rotation") -> "Rotation":
        """Hamilton product; self is applied after other."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Rotation(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def inverse(self) -> "Rotation":
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def rotate(self, v: Vec3) -> Vec3:
        # q v q* expanded via the two-cross-product identity, u = (x, y, z):
        # t = 2 (u x v), result = v + w t + u x t, in that operation order.
        w, x, y, z = self.w, self.x, self.y, self.z
        vx, vy, vz = v.x, v.y, v.z
        tx = (y * vz - z * vy) * 2.0
        ty = (z * vx - x * vz) * 2.0
        tz = (x * vy - y * vx) * 2.0
        return Vec3(
            vx + tx * w + (y * tz - z * ty),
            vy + ty * w + (z * tx - x * tz),
            vz + tz * w + (x * ty - y * tx),
        )

    def forward(self) -> Vec3:
        """World direction of the local -Z axis."""
        return self.rotate(FORWARD)

    @classmethod
    def from_matrix(cls, m) -> "Rotation":
        """Shepperd's method; picks the numerically largest pivot."""
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
        return cls(*_shepperd(m00, m01, m02, m10, m11, m12, m20, m21, m22))

    def angle_to(self, other: "Rotation") -> float:
        """Geodesic angle between two rotations, radians in [0, pi].

        atan2 over the relative quaternion, not acos of the dot product:
        acos loses ~1e-8 of precision right where rotations are nearly
        equal, which is exactly where tolerance checks look.
        """
        d = self.inverse() * other
        vec = math.sqrt(d.x * d.x + d.y * d.y + d.z * d.z)
        return 2.0 * math.atan2(vec, abs(d.w))

    def approx_eq(self, other: "Rotation", tol: float = GEOM_EPS) -> bool:
        """Equality as rotations, i.e. up to quaternion sign."""
        return self.angle_to(other) <= tol


_set_qw, _set_qx, _set_qy, _set_qz = (
    Rotation.w.__set__, Rotation.x.__set__, Rotation.y.__set__, Rotation.z.__set__
)
_IDENTITY = Rotation.identity()


def yaw_rotation(yaw_deg: float) -> Rotation:
    """Compass yaw: 0 faces -Z, positive turns toward +X (right).

    Equivalent to rotating by -yaw about the +Y axis in right-handed terms.
    """
    # The axis-angle quaternion (cos h, axis * sin h) about the unit axis UP,
    # (0.0, 1.0, 0.0); 0.0 * s keeps the sign of a zero component.
    h = 0.5 * -math.radians(yaw_deg)
    s = math.sin(h)
    return Rotation(math.cos(h), 0.0 * s, s, 0.0 * s)


def facing_yaw_deg(direction: Vec3) -> float:
    """Inverse of yaw_rotation restricted to the ground plane, in (-180, 180]."""
    h = direction.horizontal()
    if h.norm() < DEGENERACY_EPS:
        raise DegenerateTarget("facing yaw of a vertical direction")
    d = math.degrees(math.atan2(h.x, -h.z))
    return 180.0 if d == -180.0 else d  # keep yaw in (-180, 180]


def _shepperd(m00, m01, m02, m10, m11, m12, m20, m21, m22):
    """Quaternion (w, x, y, z) of a rotation matrix, before normalisation."""
    tr = m00 + m11 + m22
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        return 0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s
    if m00 > m11 and m00 > m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2
        return (m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s
    if m11 > m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2
        return (m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s
    s = math.sqrt(1.0 + m22 - m00 - m11) * 2
    return (m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s


def _look_quat(fx, fy, fz, ux, uy, uz):
    """look_rotation on floats: the quaternion (w, x, y, z) for Rotation()."""
    fx, fy, fz = _unit(fx, fy, fz)
    # Axes: zaxis = -f, xaxis = normalized(up x zaxis), yaxis = zaxis x xaxis.
    zx, zy, zz = -fx, -fy, -fz
    if abs(fx * ux + fy * uy + fz * uz) > 1.0 - 1e-9:
        # abs(f . FORWARD) is abs(fz) exactly: the 0.0 * f terms are zeros.
        ux, uy, uz = (0.0, 0.0, -1.0) if abs(fz) < 0.9 else (1.0, 0.0, 0.0)
    cx, cy, cz = uy * zz - uz * zy, uz * zx - ux * zz, ux * zy - uy * zx
    xx, xy, xz = _unit(cx, cy, cz)
    return _shepperd(
        xx, zy * xz - zz * xy, zx,
        xy, zz * xx - zx * xz, zy,
        xz, zx * xy - zy * xx, zz,
    )


def look_rotation(forward: Vec3, up: Vec3 = UP) -> Rotation:
    """Rotation whose local -Z points along forward with up as the up hint.

    Falls back to a forward-based hint when forward is near-parallel to up.
    """
    return Rotation(*_look_quat(forward.x, forward.y, forward.z, up.x, up.y, up.z))


@record(frozen=True, slots=True)
class Pose:
    """Position, orientation and per-axis positive scale."""

    position: Vec3
    orientation: Rotation
    scale: Vec3

    def __init__(
        self, position: Vec3 = ZERO, orientation: Rotation = _IDENTITY, scale: Vec3 = ONES
    ):
        if not (scale.x > 0.0 and scale.y > 0.0 and scale.z > 0.0):  # _positive_scale
            raise ValueError(f"scale: expected {POSITIVE_SCALE_RULE}, got {scale!r}")
        _set_position(self, position)
        _set_orientation(self, orientation)
        _set_scale(self, scale)

    def relative_to(self, frame: "Pose") -> "Pose":
        """Express this pose in the given frame's coordinates."""
        inv = frame.orientation.inverse()
        return Pose(
            position=inv.rotate(self.position - frame.position),
            orientation=inv * self.orientation,
            scale=Vec3(
                self.scale.x / frame.scale.x,
                self.scale.y / frame.scale.y,
                self.scale.z / frame.scale.z,
            ),
        )

    def is_close(self, other: "Pose", tol: float = GEOM_EPS) -> bool:
        return (
            self.position.is_close(other.position, tol)
            and self.orientation.approx_eq(other.orientation, tol)
            and self.scale.is_close(other.scale, tol)
        )


_set_position, _set_orientation, _set_scale = (
    Pose.position.__set__, Pose.orientation.__set__, Pose.scale.__set__
)


def compose(parent: Pose, local: Pose) -> Pose:
    """Pose composition: rigid position/orientation, per-axis scale channel.

    Positions are deliberately not scaled by the parent: scale is size
    metadata here, and leaving it out of translation keeps composition
    associative under non-uniform scales.
    """
    return Pose(
        position=parent.position + parent.orientation.rotate(local.position),
        orientation=parent.orientation * local.orientation,
        scale=parent.scale.hadamard(local.scale),
    )


def angular_deviation(head: Pose, target: Vec3) -> float:
    """Angle in degrees between the head's forward axis and the target.

    Raises DegenerateTarget when the target sits at the head position
    (within DEGENERACY_EPS).
    """
    offset = target - head.position
    if offset.norm() < DEGENERACY_EPS:
        raise DegenerateTarget("target coincides with the viewpoint")
    return math.degrees(angle_between(head.orientation.forward(), offset))


def in_fov(head: Pose, target: Vec3, fov: FovSpec) -> bool:
    """Cone visibility: deviation no greater than half the diagonal angle."""
    return angular_deviation(head, target) <= fov.half_angle_deg
