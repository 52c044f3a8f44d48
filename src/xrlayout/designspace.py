"""Design-space vocabulary for XR objects, plus structural validation.

An XRObject bundles what is shown (ContentSpec), how it is rendered
(PresentationSpec) and where it lives (SpatialLayout, built on the hybrid
frame machinery).  The types are deliberately permissive containers:
constructing an inconsistent object is allowed, and validate_object
reports problems as Violation values instead of raising, so tooling can
show all of them at once.

Presentation detail beyond the enum level lives in modality_params, an
open string-keyed map with a published key schema (MODALITY_PARAM_KEYS).
Keys outside the schema must use the "custom." prefix; anything else is
flagged so typos don't silently drop styling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .frames import RESERVED_REFS, FrameOfReference
from .geometry import ONES, Pose, Vec3

AVAILABILITY = ("open", "minimized", "closed")
AVAILABILITY_MUTABILITY = ("user", "context_aware", "immutable")
IMMERSION = ("non_immersive", "partially_immersive", "fully_immersive")
MODALITY = ("visual", "audio", "haptic", "olfactory", "hybrid")
INTERACTIVITY = ("none", "open_close_only", "full")

# Published modality-parameter schema.  Grouped by namespace:
#   visual.*      geometry-independent rendering choices
#   appearance.*  surface treatment shared by visual modalities
#   audio/haptic/olfactory.*  non-visual presentation channels
#   input.*       how the user acts on the object
MODALITY_PARAM_KEYS = frozenset(
    {
        "visual.dimensionality",
        "visual.arrangement",
        "visual.asset.kind",
        "visual.asset.texture",
        "visual.asset.brushstroke",
        "visual.typography.typeface",
        "visual.typography.size_pt",
        "visual.typography.weight",
        "appearance.transparency",
        "appearance.lighting",
        "appearance.color",
        "appearance.dynamic.altered_element",
        "appearance.dynamic.values",
        "appearance.dynamic.frequency_hz",
        "audio.duration_s",
        "audio.volume",
        "audio.spatialization",
        "audio.reverberation",
        "haptic.duration_s",
        "haptic.intensity",
        "haptic.frequency_hz",
        "haptic.position",
        "olfactory.duration_s",
        "olfactory.intensity",
        "olfactory.position",
        "input.modality",
        "input.interaction_technique",
    }
)
CUSTOM_KEY_PREFIX = "custom."


@dataclass(frozen=True)
class ContentSpec:
    availability: str = "open"
    availability_mutability: str = "user"
    topic: str = ""
    level_of_detail: int = 0
    info_focus: str = ""
    sub_objects: tuple[str, ...] = ()


@dataclass(frozen=True)
class PresentationSpec:
    immersion: str = "non_immersive"
    modality: str = "visual"
    modality_params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SizeSpec:
    """Object size: per-axis scale plus an enforced width:height ratio."""

    scale: Vec3 = ONES
    aspect_ratio: float | None = None


@dataclass(frozen=True)
class SpatialLayout:
    frame: FrameOfReference
    local_pose: Pose = field(default_factory=Pose)
    size: SizeSpec = field(default_factory=SizeSpec)


@dataclass(frozen=True)
class XRObject:
    id: str
    content: ContentSpec = field(default_factory=ContentSpec)
    presentation: PresentationSpec = field(default_factory=PresentationSpec)
    layout: SpatialLayout = field(
        default_factory=lambda: SpatialLayout(FrameOfReference.unified("world"))
    )
    interactivity: str = "none"


@dataclass(frozen=True)
class Violation:
    """One structural problem in an object; data, not an exception."""

    code: str
    subject: str
    detail: str = ""

    def __str__(self):
        return f"{self.code}({self.subject}): {self.detail}" if self.detail else f"{self.code}({self.subject})"


# Violation codes.
UNRESOLVED_REF = "unresolved-ref"
HYBRID_NEEDS_TWO_MODALITIES = "hybrid-needs-two-modalities"
CYCLIC_SUB_OBJECTS = "cyclic-sub-objects"
BAD_ENUM_VALUE = "bad-enum-value"
BAD_LEVEL_OF_DETAIL = "bad-level-of-detail"
BAD_SIZE = "bad-size"
UNKNOWN_METADATA_KEY = "unknown-metadata-key"


@dataclass(frozen=True)
class SceneCatalog:
    """Everything an object's references may point at."""

    entity_ids: frozenset[str] = frozenset()
    objects: Mapping[str, XRObject] = field(default_factory=dict)

    def resolves(self, ref: str) -> bool:
        return ref in RESERVED_REFS or ref in self.entity_ids or ref in self.objects


def validate_object(obj: XRObject, catalog: SceneCatalog) -> list[Violation]:
    """All structural violations of one object against a catalog.

    Pure and order-independent: the result is a function of the object and
    catalog contents only.  An empty list means the object is well formed.
    """
    out: list[Violation] = []

    _check_enum(out, obj.id, "availability", obj.content.availability, AVAILABILITY)
    _check_enum(
        out,
        obj.id,
        "availability_mutability",
        obj.content.availability_mutability,
        AVAILABILITY_MUTABILITY,
    )
    _check_enum(out, obj.id, "immersion", obj.presentation.immersion, IMMERSION)
    _check_enum(out, obj.id, "modality", obj.presentation.modality, MODALITY)
    _check_enum(out, obj.id, "interactivity", obj.interactivity, INTERACTIVITY)

    if obj.content.level_of_detail < 0:
        out.append(
            Violation(
                BAD_LEVEL_OF_DETAIL, obj.id, f"negative: {obj.content.level_of_detail}"
            )
        )

    for ref in obj.layout.frame.refs():
        if not catalog.resolves(ref):
            out.append(Violation(UNRESOLVED_REF, ref, f"frame ref of {obj.id!r}"))

    for sub in obj.content.sub_objects:
        if sub not in catalog.objects:
            out.append(Violation(UNRESOLVED_REF, sub, f"sub-object of {obj.id!r}"))
    if _on_cycle(obj, catalog):
        out.append(Violation(CYCLIC_SUB_OBJECTS, obj.id))

    if obj.presentation.modality == "hybrid":
        sub_modalities = {
            catalog.objects[s].presentation.modality
            for s in obj.content.sub_objects
            if s in catalog.objects
        }
        if len(obj.content.sub_objects) < 2 or len(sub_modalities) < 2:
            out.append(
                Violation(
                    HYBRID_NEEDS_TWO_MODALITIES,
                    obj.id,
                    "hybrid modality requires >= 2 sub-objects with distinct modalities",
                )
            )

    size = obj.layout.size
    if min(size.scale.x, size.scale.y, size.scale.z) <= 0.0:
        out.append(Violation(BAD_SIZE, obj.id, f"non-positive scale {size.scale}"))
    if size.aspect_ratio is not None and size.aspect_ratio <= 0.0:
        out.append(
            Violation(BAD_SIZE, obj.id, f"non-positive aspect ratio {size.aspect_ratio}")
        )

    for key in obj.presentation.modality_params:
        if key not in MODALITY_PARAM_KEYS and not key.startswith(CUSTOM_KEY_PREFIX):
            out.append(Violation(UNKNOWN_METADATA_KEY, obj.id, key))

    return out


def _check_enum(out: list[Violation], subject: str, name: str, value: str, allowed):
    if value not in allowed:
        out.append(
            Violation(BAD_ENUM_VALUE, subject, f"{name}={value!r}, expected one of {allowed}")
        )


def _on_cycle(obj: XRObject, catalog: SceneCatalog) -> bool:
    """Does any sub-object chain starting at obj revisit a node?"""
    seen: set[str] = set()
    stack = [(obj.id, iter(obj.content.sub_objects))]
    path = {obj.id}
    while stack:
        _, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            path.discard(stack.pop()[0])
            continue
        if nxt in path:
            return True
        if nxt in seen or nxt not in catalog.objects:
            continue
        seen.add(nxt)
        path.add(nxt)
        stack.append((nxt, iter(catalog.objects[nxt].content.sub_objects)))
    return False
