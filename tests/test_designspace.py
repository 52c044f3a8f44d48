"""Object description records, and the .scn panel rules applied to them.

validate_object writes an object as a .scn panel and reads it back with
the scenario schema table, so an object built in code gets exactly the
diagnostics a file holding that panel gets.  The property below checks that
against the file reader itself: a bundled session with one panel key
mutated reports the same messages, at the same paths under panels[i].
"""

import json
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xrlayout.designspace import (
    AVAILABILITY,
    AVAILABILITY_MUTABILITY,
    IMMERSION,
    INTERACTIVITY,
    MODALITY,
    MODALITY_PARAM_KEYS,
    ContentSpec,
    PresentationSpec,
    XRObject,
    is_modality_param_key,
    validate_object,
)
from xrlayout.errors import replace
from xrlayout.scenario import (
    CATEGORIES,
    bundled_scenario_names,
    bundled_scenario_text,
    load_bundled,
    scan_scenario,
)

RUN = dict(deadline=None, derandomize=True, suppress_health_check=list(HealthCheck))

FIXTURE = "static_stationary_env_ref"
DOC = json.loads(bundled_scenario_text(FIXTURE))
PANELS = list(load_bundled(FIXTURE).panels.values())

# Each panel key of a .scn file and the object attribute it fills.
PANEL_FIELDS = {
    "id": "id",
    "topic": "content.topic",
    "modality_params": "presentation.modality_params",
    "info_focus": "content.info_focus",
    "level_of_detail": "content.level_of_detail",
    "availability": "content.availability",
    "availability_mutability": "content.availability_mutability",
    "immersion": "presentation.immersion",
    "modality": "presentation.modality",
    "interactivity": "interactivity",
}
ENUMS = {
    "topic": CATEGORIES,
    "availability": AVAILABILITY,
    "availability_mutability": AVAILABILITY_MUTABILITY,
    "immersion": IMMERSION,
    "modality": MODALITY,
    "interactivity": INTERACTIVITY,
}
VOCABULARY = sorted({v for domain in ENUMS.values() for v in domain} | {"hybrid", "Open", ""})

# A field value as a file can hold it.  None is left out: an object field
# set to None is written as an absent key, which takes the row's default.
json_leaves = st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
param_keys = (
    st.sampled_from(sorted(MODALITY_PARAM_KEYS))
    | st.text(max_size=8).map("custom.".__add__)
    | st.text(max_size=12)
)
param_maps = st.dictionaries(param_keys, json_values, max_size=4)
words = st.sampled_from(VOCABULARY) | st.text(max_size=12)


def with_field(obj, attr, value):
    """obj with the (possibly dotted) attribute attr set to value."""
    group, _, name = attr.rpartition(".")
    if not group:
        return replace(obj, **{name: value})
    return replace(obj, **{group: replace(getattr(obj, group), **{name: value})})


class TestEnumDomains:
    def test_published_values(self):
        assert AVAILABILITY == ("open", "minimized", "closed")
        assert AVAILABILITY_MUTABILITY == ("user", "context_aware", "immutable")
        assert IMMERSION == (
            "non_immersive",
            "partially_immersive",
            "fully_immersive",
        )
        assert MODALITY == ("visual", "audio", "haptic", "olfactory")
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
        obj = XRObject("panel", content=ContentSpec(**{field: value}, topic="food"))
        assert [(d.kind, d.path) for d in validate_object(obj)] == [("schema", field)]

    def test_bad_presentation_enums(self):
        obj = XRObject(
            "panel",
            content=ContentSpec(topic="food"),
            presentation=PresentationSpec(immersion="vr", modality="smellovision"),
        )
        assert sorted(d.path for d in validate_object(obj)) == ["immersion", "modality"]

    def test_bad_interactivity(self):
        obj = XRObject("panel", content=ContentSpec(topic="food"), interactivity="drag_only")
        assert [d.path for d in validate_object(obj)] == ["interactivity"]

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
        obj = with_field(PANELS[0], "presentation.modality_params", {key: 1})
        want = [] if known else [(f"modality_params.{key}", "unknown key")]
        assert [(d.path, d.message) for d in validate_object(obj)] == want


class TestStructure:
    def test_valid_object_has_no_violations(self):
        obj = XRObject("panel", content=ContentSpec(topic="food", level_of_detail=1), interactivity="full")
        assert validate_object(obj) == []

    def test_negative_level_of_detail(self):
        obj = XRObject("panel", content=ContentSpec(topic="food", level_of_detail=-1))
        assert [d.path for d in validate_object(obj)] == ["level_of_detail"]


class TestValidateObject:
    def test_bundled_panels_pass(self):
        for name in bundled_scenario_names():
            for panel in load_bundled(name).panels.values():
                assert validate_object(panel) == [], (name, panel.id)

    def test_a_bad_object_gets_the_files_text(self):
        obj = XRObject("p", content=ContentSpec(topic="food", availability="bogus"))
        assert [(d.kind, d.path, d.message) for d in validate_object(obj)] == [
            ("schema", "availability", "expected one of ('open', 'minimized', 'closed'), got str 'bogus'")
        ]

    @pytest.mark.parametrize(
        "value, got",
        [(3, "int 3"), ("ab", "str 'ab'"), ([["a", 1]], "list")],
        ids=["int", "str", "list of pairs"],
    )
    def test_modality_params_that_are_no_map_get_the_files_text(self, value, got):
        obj = with_field(PANELS[0], "presentation.modality_params", value)
        assert [(d.path, d.message) for d in validate_object(obj)] == [
            ("modality_params", f"expected object, got {got}")
        ]

    @settings(max_examples=300, **RUN)
    @given(
        index=st.integers(0, len(PANELS) - 1),
        key=st.sampled_from(sorted(PANEL_FIELDS)),
        data=st.data(),
    )
    def test_an_object_gets_the_diagnostics_of_a_file_with_that_panel(self, index, key, data):
        # any JSON value, and for modality_params also maps of its own keys
        values = words | json_values
        value = data.draw(values | param_maps if key == "modality_params" else values)
        if key == "id":  # a repeated panel id is a list rule, not a panel rule
            assume(value not in [p.id for i, p in enumerate(PANELS) if i != index])
        doc = json.loads(json.dumps(DOC))
        doc["panels"][index][key] = value
        _, diags = scan_scenario(json.dumps(doc))
        from_file = [(d.path, d.message) for d in diags if d.kind == "schema"]
        obj = with_field(PANELS[index], PANEL_FIELDS[key], value)
        got = [(f"panels[{index}].{d.path}", d.message) for d in validate_object(obj)]
        assert got == from_file

    @settings(max_examples=300, **RUN)
    @given(
        obj=st.builds(
            XRObject,
            id=st.text(max_size=8),
            content=st.builds(
                ContentSpec,
                availability=words,
                availability_mutability=words,
                topic=words,
                level_of_detail=st.integers(),
                info_focus=st.text(max_size=8),
            ),
            presentation=st.builds(
                PresentationSpec, immersion=words, modality=words, modality_params=param_maps
            ),
            interactivity=words,
        )
    )
    def test_an_object_of_annotated_types_is_checked_without_raising(self, obj):
        bad = [
            key
            for key, attr in PANEL_FIELDS.items()
            if key in ENUMS and attrgetter(attr)(obj) not in ENUMS[key]
        ]
        if obj.content.level_of_detail < 0:
            bad.append("level_of_detail")
        bad += [
            f"modality_params.{k}"
            for k in obj.presentation.modality_params
            if not is_modality_param_key(k)
        ]
        diags = validate_object(obj)
        assert all(d.kind == "schema" for d in diags)
        assert sorted(d.path for d in diags) == sorted(bad)
