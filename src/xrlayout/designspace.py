"""Design-space vocabulary for XR objects.

An XRObject bundles what is shown (ContentSpec) and how it is rendered
(PresentationSpec).  Where an object lives is a SpatialLayout, built on the
hybrid frame machinery and resolved by frames.resolve_world_pose.  The
types are deliberately permissive containers: constructing an
inconsistent object is allowed, and validate_object reports problems as
Diagnostic values instead of raising, so tooling can show all of them at
once.

Presentation detail beyond the enum level lives in modality_params, an
open string-keyed map with a published key schema (MODALITY_PARAM_KEYS).
Keys outside the schema must use the "custom." prefix (is_modality_param_key);
anything else is flagged so typos don't silently drop styling.  The rules
live in one place, the scenario schema table's panel block, which reads the
domains and the key rule from here: it checks a .scn file's panels, and
validate_object applies it to objects built in code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import Diagnostic
from .frames import FrameOfReference
from .geometry import ONES, Pose, Vec3

AVAILABILITY = ("open", "minimized", "closed")
AVAILABILITY_MUTABILITY = ("user", "context_aware", "immutable")
IMMERSION = ("non_immersive", "partially_immersive", "fully_immersive")
MODALITY = ("visual", "audio", "haptic", "olfactory")
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
    interactivity: str = "none"


def validate_object(obj: XRObject) -> list[Diagnostic]:
    """The .scn panel rules applied to an object built in code.

    The object is written as a panel and read back by the scenario schema
    table, so it gets the diagnostics a file holding that panel would get,
    at paths relative to the panel.  An empty list means the object passes.
    """
    from .scenario import _PANEL  # scenario imports this module

    diags: list[Diagnostic] = []
    _PANEL.read(_PANEL.write(obj), "", diags)
    return diags
