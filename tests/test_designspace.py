"""Object description records and their structural validation."""

import pytest

from xrlayout.designspace import (
    AVAILABILITY,
    AVAILABILITY_MUTABILITY,
    BAD_ENUM_VALUE,
    BAD_LEVEL_OF_DETAIL,
    BAD_SIZE,
    CYCLIC_SUB_OBJECTS,
    HYBRID_NEEDS_TWO_MODALITIES,
    IMMERSION,
    INTERACTIVITY,
    MODALITY,
    MODALITY_PARAM_KEYS,
    UNKNOWN_METADATA_KEY,
    UNRESOLVED_REF,
    ContentSpec,
    PresentationSpec,
    SceneCatalog,
    SizeSpec,
    SpatialLayout,
    Violation,
    XRObject,
    is_modality_param_key,
    validate_object,
)
from xrlayout.frames import USER_BODY, FrameOfReference
from xrlayout.geometry import Pose, Vec3


def make_object(oid="panel", **over):
    kwargs = dict(
        id=oid,
        content=ContentSpec(topic="food", level_of_detail=1),
        presentation=PresentationSpec(),
        layout=SpatialLayout(FrameOfReference.unified("world")),
        interactivity="full",
    )
    kwargs.update(over)
    return XRObject(**kwargs)


def catalog_of(*objs, entities=()):
    return SceneCatalog(
        entity_ids=frozenset(entities), objects={o.id: o for o in objs}
    )


def codes(violations):
    return [v.code for v in violations]


class TestEnumDomains:
    def test_published_values(self):
        assert AVAILABILITY == ("open", "minimized", "closed")
        assert AVAILABILITY_MUTABILITY == ("user", "context_aware", "immutable")
        assert IMMERSION == (
            "non_immersive",
            "partially_immersive",
            "fully_immersive",
        )
        assert MODALITY == ("visual", "audio", "haptic", "olfactory", "hybrid")
        assert INTERACTIVITY == ("none", "open_close_only", "full")

    def test_modality_param_namespaces(self):
        # every published key lives in a known namespace
        prefixes = {"visual.", "appearance.", "audio.", "haptic.", "olfactory.", "input."}
        for key in MODALITY_PARAM_KEYS:
            assert any(key.startswith(p) for p in prefixes), key

    @pytest.mark.parametrize(
        "field,value",
        [
            ("availability", "sometimes"),
            ("availability_mutability", "never"),
        ],
    )
    def test_bad_content_enums(self, field, value):
        obj = make_object(content=ContentSpec(**{field: value}, topic="food"))
        found = [v for v in validate_object(obj, catalog_of(obj)) if v.code == BAD_ENUM_VALUE]
        assert found and field in found[0].detail

    def test_bad_presentation_enums(self):
        obj = make_object(presentation=PresentationSpec(immersion="vr", modality="smellovision"))
        got = codes(validate_object(obj, catalog_of(obj)))
        assert got.count(BAD_ENUM_VALUE) == 2

    def test_bad_interactivity(self):
        obj = make_object(interactivity="drag_only")
        assert BAD_ENUM_VALUE in codes(validate_object(obj, catalog_of(obj)))


class TestStructure:
    def test_valid_object_has_no_violations(self):
        obj = make_object()
        assert validate_object(obj, catalog_of(obj)) == []

    def test_negative_level_of_detail(self):
        obj = make_object(content=ContentSpec(topic="x", level_of_detail=-1))
        assert BAD_LEVEL_OF_DETAIL in codes(validate_object(obj, catalog_of(obj)))

    def test_unresolved_frame_ref(self):
        obj = make_object(
            layout=SpatialLayout(
                FrameOfReference(position_ref="ghost", orientation_ref="world", scale_ref="world")
            )
        )
        vs = validate_object(obj, catalog_of(obj))
        assert [v for v in vs if v.code == UNRESOLVED_REF and v.subject == "ghost"]

    def test_reserved_refs_always_resolve(self):
        obj = make_object(layout=SpatialLayout(FrameOfReference.unified(USER_BODY)))
        assert validate_object(obj, catalog_of(obj)) == []

    def test_entity_refs_resolve(self):
        obj = make_object(layout=SpatialLayout(FrameOfReference.unified("host_food")))
        assert validate_object(obj, catalog_of(obj, entities=["host_food"])) == []

    def test_unresolved_sub_object(self):
        obj = make_object(content=ContentSpec(topic="x", sub_objects=("missing",)))
        vs = validate_object(obj, catalog_of(obj))
        assert [v for v in vs if v.code == UNRESOLVED_REF and v.subject == "missing"]

    def test_sub_object_cycle(self):
        a = make_object("a", content=ContentSpec(topic="x", sub_objects=("b",)))
        b = make_object("b", content=ContentSpec(topic="x", sub_objects=("a",)))
        cat = catalog_of(a, b)
        assert CYCLIC_SUB_OBJECTS in codes(validate_object(a, cat))

    def test_self_cycle(self):
        a = make_object("a", content=ContentSpec(topic="x", sub_objects=("a",)))
        assert CYCLIC_SUB_OBJECTS in codes(validate_object(a, catalog_of(a)))

    def test_diamond_is_not_a_cycle(self):
        leaf = make_object("leaf")
        l = make_object("l", content=ContentSpec(topic="x", sub_objects=("leaf",)))
        r = make_object("r", content=ContentSpec(topic="x", sub_objects=("leaf",)))
        top = make_object("top", content=ContentSpec(topic="x", sub_objects=("l", "r")))
        assert CYCLIC_SUB_OBJECTS not in codes(validate_object(top, catalog_of(leaf, l, r, top)))

    def test_deep_chain_terminates(self):
        objs = []
        for i in range(200):
            subs = (f"n{i + 1}",) if i < 199 else ()
            objs.append(make_object(f"n{i}", content=ContentSpec(topic="x", sub_objects=subs)))
        cat = catalog_of(*objs)
        assert CYCLIC_SUB_OBJECTS not in codes(validate_object(objs[0], cat))


class TestHybridModality:
    def _hybrid(self, subs):
        return make_object(
            "h",
            content=ContentSpec(topic="x", sub_objects=tuple(s.id for s in subs)),
            presentation=PresentationSpec(modality="hybrid"),
        )

    def test_needs_at_least_two_children(self):
        one = make_object("v")
        h = self._hybrid([one])
        assert HYBRID_NEEDS_TWO_MODALITIES in codes(validate_object(h, catalog_of(one, h)))

    def test_needs_distinct_child_modalities(self):
        a = make_object("v1")
        b = make_object("v2")
        h = self._hybrid([a, b])  # both visual
        assert HYBRID_NEEDS_TWO_MODALITIES in codes(validate_object(h, catalog_of(a, b, h)))

    def test_two_distinct_modalities_ok(self):
        a = make_object("v1")
        b = make_object("a1", presentation=PresentationSpec(modality="audio"))
        h = self._hybrid([a, b])
        assert HYBRID_NEEDS_TWO_MODALITIES not in codes(validate_object(h, catalog_of(a, b, h)))


class TestSizeAndMetadata:
    def test_non_positive_scale(self):
        obj = make_object(
            layout=SpatialLayout(
                FrameOfReference.unified("world"),
                Pose(),
                SizeSpec(scale=Vec3(1.0, -0.5, 1.0)),
            )
        )
        assert BAD_SIZE in codes(validate_object(obj, catalog_of(obj)))

    def test_non_positive_aspect(self):
        obj = make_object(
            layout=SpatialLayout(
                FrameOfReference.unified("world"),
                Pose(),
                SizeSpec(scale=Vec3(1.0, 1.0, 1.0), aspect_ratio=0.0),
            )
        )
        assert BAD_SIZE in codes(validate_object(obj, catalog_of(obj)))

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -float("inf"), -1.0, True])
    def test_aspect_ratio_not_finite_positive(self, ratio):
        obj = make_object(
            layout=SpatialLayout(
                FrameOfReference.unified("world"),
                Pose(),
                SizeSpec(scale=Vec3(1.0, 1.0, 1.0), aspect_ratio=ratio),
            )
        )
        assert codes(validate_object(obj, catalog_of(obj))) == [BAD_SIZE]

    @pytest.mark.parametrize("ratio", [None, 1.75, 5e-324, 1e308])
    def test_finite_positive_aspect_ratio_passes(self, ratio):
        size = SizeSpec(aspect_ratio=ratio)
        obj = make_object(layout=SpatialLayout(FrameOfReference.unified("world"), Pose(), size))
        assert validate_object(obj, catalog_of(obj)) == []

    def test_unknown_metadata_key(self):
        obj = make_object(
            presentation=PresentationSpec(modality_params={"visual.dpi": 300})
        )
        vs = validate_object(obj, catalog_of(obj))
        assert [v for v in vs if v.code == UNKNOWN_METADATA_KEY and v.detail == "visual.dpi"]

    def test_known_and_custom_keys_pass(self):
        obj = make_object(
            presentation=PresentationSpec(
                modality_params={
                    "visual.typography.size_pt": 14,
                    "custom.team_color": "teal",
                }
            )
        )
        assert validate_object(obj, catalog_of(obj)) == []

    @pytest.mark.parametrize(
        "key, known",
        [
            ("visual.typography.size_pt", True),
            ("custom.team_color", True),
            ("custom.", True),
            ("visual.dpi", False),
            ("custom", False),
            ("Custom.x", False),
            ("", False),
        ],
    )
    def test_key_rule(self, key, known):
        assert is_modality_param_key(key) is known
        obj = make_object(presentation=PresentationSpec(modality_params={key: 1}))
        assert codes(validate_object(obj, catalog_of(obj))) == ([] if known else [UNKNOWN_METADATA_KEY])


class TestCatalog:
    def test_violation_str_mentions_code_and_subject(self):
        v = Violation(BAD_SIZE, "panel_x", "because")
        assert "bad-size" in str(v) and "panel_x" in str(v)
