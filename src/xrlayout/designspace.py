"""Design-space vocabulary for XR objects, plus structural validation.

An XRObject bundles what is shown (ContentSpec), how it is rendered
(PresentationSpec) and where it lives (SpatialLayout, built on the hybrid
frame machinery).  The types are deliberately permissive containers:
constructing an inconsistent object is allowed, and validate_object
reports problems as Violation values instead of raising, so tooling can
show all of them at once.

Presentation detail beyond the enum level lives in modality_params, an
open string-keyed map with a published key schema (MODALITY_PARAM_KEYS).
Keys outside the schema must use the "custom." prefix (is_modality_param_key);
anything else is flagged so typos don't silently drop styling.  validate_object
checks objects built in code; a .scn file's panels are checked by the scenario
schema table, which reads the domains and the key rule from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .frames import RESERVED_REFS, FrameOfReference
from .geometry import (
    _POSITIVE_RULE, ONES, POSITIVE_SCALE_RULE, Pose, Vec3, _finite_positive, _positive_scale
)

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


def is_modality_param_key(key: str) -> bool:
    """The modality_params key rule: a published key, or one under CUSTOM_KEY_PREFIX."""
    return key in MODALITY_PARAM_KEYS or key.startswith(CUSTOM_KEY_PREFIX)


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

    content, presentation = obj.content, obj.presentation
    for name, value, allowed in (
        ("availability", content.availability, AVAILABILITY),
        ("availability_mutability", content.availability_mutability, AVAILABILITY_MUTABILITY),
        ("immersion", presentation.immersion, IMMERSION),
        ("modality", presentation.modality, MODALITY),
        ("interactivity", obj.interactivity, INTERACTIVITY),
    ):
        if value not in allowed:
            detail = f"{name}={value!r}, expected one of {allowed}"
            out.append(Violation(BAD_ENUM_VALUE, obj.id, detail))

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
    if not _positive_scale(*size.scale.to_tuple()):
        detail = f"scale: expected {POSITIVE_SCALE_RULE}, got {size.scale}"
        out.append(Violation(BAD_SIZE, obj.id, detail))
    ratio = size.aspect_ratio
    if ratio is not None and not _finite_positive(ratio):
        detail = f"aspect ratio: expected {_POSITIVE_RULE}, got {ratio!r}"
        out.append(Violation(BAD_SIZE, obj.id, detail))

    for key in obj.presentation.modality_params:
        if not is_modality_param_key(key):
            out.append(Violation(UNKNOWN_METADATA_KEY, obj.id, key))

    return out


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
