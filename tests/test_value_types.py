"""Every record of the package keeps the dataclass value semantics.

errors.record builds each record's methods from its annotations.  Each of
the package's records is checked against a dataclass oracle, made here
with make_dataclass from the record's annotations, with the same defaults
(default factories included) and the same frozen flag, and with the old
__post_init__ where the record had one: fields() and __match_args__, eq,
hash or unhashability, repr, assignment and deletion, construction by
position and keyword, missing and unknown arguments, replace(), and the
checks a construction runs.  Every record pickles, copies and deep-copies
back to an equal record of its own class.  Vec3, Rotation, Pose and
GazeSegment are also checked at edge values: signed zeros, subnormal,
huge and infinite floats.
"""

import contextlib
import copy
import dataclasses
import functools
import importlib
import inspect
import math
import pickle
import pkgutil

import pytest

import xrlayout
from xrlayout.agent import (
    DocumentGaze,
    GazeSample,
    GazeSegment,
    IntermediaryGaze,
    NoGaze,
    OpenEvent,
    PanelGaze,
    ScreenGaze,
    SessionTrace,
    TrialTrace,
)
from xrlayout.designspace import (
    ContentSpec,
    PresentationSpec,
    SizeSpec,
    SpatialLayout,
    XRObject,
)
from xrlayout.errors import Diagnostic, FrozenInstanceError, WarningEvent, fields, replace
from xrlayout.frames import WORLD, FrameOfReference, SceneState
from xrlayout.geometry import UP, Pose, Rotation, Vec3, yaw_rotation
from xrlayout.metrics import SessionSummary, TrialMetrics
from xrlayout.placement import LayoutEmission, PlacementWarning
from xrlayout.scenario import (
    AgentParams,
    EntitySpec,
    FovSpec,
    PlacementParams,
    QuestionStatus,
    Scenario,
    Strategy,
    Trajectory,
    Trial,
    Waypoint,
    load_bundled,
)

SCENARIO = load_bundled("dynamic_mobile_body_fixed")
SEGMENTS = [
    GazeSegment(0.0, 1.5, PanelGaze("food")), GazeSegment(1.5, 2.0, DocumentGaze("food", 1, 2))
]
OPENS = [OpenEvent(1.8, "food", "Japan", 1, 2, True)]
TRIAL_TRACE_ARGS = (SCENARIO.trials[0], 3.0, 4.5, SEGMENTS, OPENS, AgentParams())


def field_values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj))


# Constructor arguments of one instance of every record.
SAMPLE_ARGS = {
    Diagnostic: ("schema", "expected a number", 3, 7, "panels.p1.scale"),
    WarningEvent: (1.5, "panel_food", "bearing undefined", {"distance_m": 0.0}),
    ContentSpec: ("minimized", "context_aware", "food", 2, "price"),
    PresentationSpec: ("partially_immersive", "audio", {"audio.volume": 0.5}),
    SizeSpec: (Vec3(1.4, 0.8, 0.02), 1.75),
    SpatialLayout: (FrameOfReference(WORLD, "user_body", "user_head"), Pose(UP), SizeSpec()),
    XRObject: ("p1", ContentSpec(topic="food"), PresentationSpec(), "full"),
    FrameOfReference: ("world", "user_body", "user_head"),
    SceneState: (2.5, {WORLD: Pose(), "user_body": Pose(UP)}),
    Waypoint: (1.0, Vec3(0.0, 0.0, -2.0), 90.0),
    Trajectory: ((Waypoint(0.0, Vec3(0.0, 0.0, 0.0), 0.0), Waypoint(1.0, UP, 90.0)), "hold"),
    EntitySpec: ("host_food", "host", "food", Vec3(1.0, 0.0, -3.0), -45.0, None, 1.25),
    Trial: (0, "food", "Japan", ("Which", "dish", "Japan"), (1.0, 1.5, 2.0), 30.0, True),
    QuestionStatus: (1, 2, 3, True, False, True),
    FovSpec: (60.0, 1.5),
    PlacementParams: (1.0, 1.4, 1.7, Vec3(1.2, 0.7, 0.02), 1.6),
    AgentParams: (0.2, 0.25, "random_seeded", False, 7, 120.0, 20.0, 0.25, 0.01),
    Scenario: field_values(SCENARIO),
    LayoutEmission: ({"p1": SpatialLayout(FrameOfReference.unified(WORLD))}, {"b1": Pose()}),
    NoGaze: (),
    ScreenGaze: (),
    IntermediaryGaze: ("host_food",),
    PanelGaze: ("food",),
    DocumentGaze: ("movies", 3, 6),
    GazeSample: (0.25, DocumentGaze("food", 1, 2)),
    GazeSegment: (0.0, 1.5, DocumentGaze("sports", 1, 2)),
    OpenEvent: (2.25, "food", "Japan", 1, 2, False),
    TrialTrace: TRIAL_TRACE_ARGS,
    SessionTrace: (
        "s", "dynamic_mobile", Strategy.BODY_FIXED, AgentParams(), 3,
        [TrialTrace(*TRIAL_TRACE_ARGS)], SEGMENTS, [WarningEvent(0.5, "p1", "low")], 60.0,
    ),
    Vec3: (1.5, -0.0, 1e308),
    Rotation: (0.6, -0.0, 0.8, 0.0),
    Pose: (Vec3(1.0, 2.0, 3.0), yaw_rotation(30.0), Vec3(0.5, 2.0, 1e-300)),
    TrialMetrics: ("static_mobile", "body_fixed", 2, "food", "Japan", 1.25, 3, 0, True, None),
    SessionSummary: ("dynamic_mobile", "env_ref", 7, 6, 1.5, 1.25, 0.5, 2.0, 2.0, -0.0, 1, 0.5),
}
SAMPLES = {cls: cls(*args) for cls, args in SAMPLE_ARGS.items()}

# Edge values of the records most often built: signed zeros, subnormal and
# huge floats, an infinite end time, and a rotation normalized on construction.
EDGE_ARGS = [
    (Vec3, (1.0, -0.0, 2.5)),
    (Vec3, (0.0, 5e-324, -1e308)),
    (Rotation, (1.0, 0.0, 0.0, 0.0)),
    (Rotation, (0.3, 0.1, -0.2, 0.9)),
    (Pose, ()),
    (Pose, (UP, Rotation(0.6, 0.0, 0.8, 0.0))),
    (GazeSegment, (0.0, 1.5, NoGaze())),
    (GazeSegment, (-0.0, 0.0, ScreenGaze())),
    (GazeSegment, (2.25, 2.4, DocumentGaze("sports", 2, 3))),
    (GazeSegment, (1e308, math.inf, IntermediaryGaze("host_food"))),
    (GazeSegment, (0.1, 0.30000000000000004, PanelGaze("movies"))),
]
EDGES = pytest.mark.parametrize(
    "cls, args", EDGE_ARGS, ids=[f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(EDGE_ARGS)]
)

# The records that are not frozen, and every default factory.
MUTABLE = {WarningEvent, TrialTrace, SessionTrace}
FACTORIES = {
    WarningEvent: {"extra": dict},
    PresentationSpec: {"modality_params": dict},
    SpatialLayout: {"local_pose": Pose, "size": SizeSpec},
    XRObject: {"content": ContentSpec, "presentation": PresentationSpec},
    SceneState: {"poses": dict},
    Scenario: {"agent": AgentParams, "metadata": dict},
    LayoutEmission: {"derived_poses": dict},
}


def _scene_state_post_init(self):
    """SceneState's __post_init__ when it was a dataclass."""
    p = dict(self.poses)
    p.setdefault(WORLD, Pose())
    object.__setattr__(self, "poses", p)


def _default(cls, name: str):
    """The field's default as the record declares it: a factory, a class
    attribute, or a default of the class's own __init__."""
    if name in FACTORIES.get(cls, {}):
        return dataclasses.field(default_factory=FACTORIES[cls][name])
    if name in vars(cls) and "__slots__" not in vars(cls):  # not a slot's descriptor
        return dataclasses.field(default=vars(cls)[name])
    param = inspect.signature(cls.__init__).parameters.get(name)
    if param is not None and param.default is not param.empty:
        return dataclasses.field(default=param.default)
    return dataclasses.field()


def _oracle(cls) -> type:
    post_init = _scene_state_post_init if cls is SceneState else vars(cls).get("__post_init__")
    annotations = vars(cls).get("__annotations__", {})
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, annotation, _default(cls, name)) for name, annotation in annotations.items()],
        frozen=cls not in MUTABLE,
        namespace={} if post_init is None else {"__post_init__": post_init},
    )


ORACLES = {cls: _oracle(cls) for cls in SAMPLE_ARGS}
RECORDS = pytest.mark.parametrize("cls", list(SAMPLE_ARGS), ids=lambda cls: cls.__name__)
ROUNDTRIPS = pytest.mark.parametrize(
    "roundtrip",
    [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)


def record_classes() -> set[type]:
    """Every class of the package built by errors.record."""
    found = set()
    for info in pkgutil.iter_modules(xrlayout.__path__):
        module = importlib.import_module(f"xrlayout.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and "__record_fields__" in vars(value):
                found.add(value)
    return found


def old_twin(obj):
    """The oracle record holding obj's field values."""
    return ORACLES[type(obj)](*field_values(obj))


def required_args(cls) -> tuple:
    """The sample's arguments for the fields that have no default."""
    oracle_fields = dataclasses.fields(ORACLES[cls])
    n = sum(f.default is f.default_factory is dataclasses.MISSING for f in oracle_fields)
    return SAMPLE_ARGS[cls][:n]


def other_value(value):
    """A value unequal to value, of the same kind."""
    if value is None or isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2 + 1
    if isinstance(value, float):
        return value + 1.0 if abs(value) < 1e15 else value / 2
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, (tuple, list)):
        return type(value)([*value, value[0] if value else None])
    if isinstance(value, dict):
        return {**value, "other": None}
    first = fields(value)[0].name
    return replace(value, **{first: other_value(getattr(value, first))})


def warns_out_of_band(cls):
    """Expects the PlacementWarning where other_value leaves the comfort band.

    On the Scenario sample it moves params.panel_distance from 1.2 m to 2.2 m.
    """
    if cls is Scenario:
        return pytest.warns(PlacementWarning, match="panel_distance 2.2 m outside")
    return contextlib.nullcontext()


def unhashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return True
    return False


def test_samples_cover_every_record():
    assert record_classes() == set(SAMPLE_ARGS)
    assert len(SAMPLE_ARGS) == 34


@ROUNDTRIPS
@RECORDS
def test_every_record_pickles_and_copies(cls, roundtrip):
    obj = SAMPLES[cls]
    back = roundtrip(obj)
    assert type(back) is cls
    assert back == obj
    assert repr(back) == repr(obj)  # every bit, signed zeros included


@ROUNDTRIPS
@EDGES
def test_edge_values_pickle_and_copy(cls, args, roundtrip):
    obj = cls(*args)
    back = roundtrip(obj)
    assert type(back) is cls
    assert back == obj
    assert repr(back) == repr(obj)


@EDGES
def test_edge_values_eq_hash_and_repr_are_the_dataclass_ones(cls, args):
    obj, old = cls(*args), old_twin(cls(*args))
    assert repr(obj) == repr(old)
    assert hash(obj) == hash(old)
    assert obj == cls(*args)
    assert obj != old


class TestRecordsAgainstDataclassOracles:
    @RECORDS
    def test_fields_and_match_args_are_the_oracle_ones(self, cls):
        assert [(f.name, f.type) for f in fields(cls)] == [
            (f.name, f.type) for f in dataclasses.fields(ORACLES[cls])
        ]
        assert fields(SAMPLES[cls]) == fields(cls)
        assert cls.__match_args__ == ORACLES[cls].__match_args__

    @RECORDS
    def test_eq_hash_and_repr_are_the_dataclass_ones(self, cls):
        obj, old = SAMPLES[cls], old_twin(SAMPLES[cls])
        assert repr(obj) == repr(old)
        assert unhashable(obj) is unhashable(old)
        assert (cls.__hash__ is None) is (cls in MUTABLE)
        if not unhashable(obj):
            assert hash(obj) == hash(old)
            assert len({obj, cls(*SAMPLE_ARGS[cls])}) == 1
        assert obj == cls(*SAMPLE_ARGS[cls])
        assert obj != old  # another class, as between two dataclasses
        assert obj != SAMPLE_ARGS[cls]
        if hasattr(obj, "__dict__"):
            assert vars(obj) == vars(old)

    @RECORDS
    def test_equality_follows_every_field(self, cls):
        args = SAMPLE_ARGS[cls]
        with warns_out_of_band(cls):
            for i, value in enumerate(args):
                changed = (*args[:i], other_value(value), *args[i + 1 :])
                try:
                    ORACLES[cls](*changed)
                except ValueError:  # the oracle's __post_init__ check
                    with pytest.raises(ValueError):
                        cls(*changed)
                    continue
                new = cls(*changed)
                assert new != cls(*args), fields(cls)[i].name
                assert repr(new) == repr(old_twin(new))

    @RECORDS
    def test_assignment_and_deletion(self, cls):
        obj, old = copy.deepcopy(SAMPLES[cls]), old_twin(SAMPLES[cls])
        if cls in MUTABLE:
            for f in fields(cls):
                setattr(obj, f.name, None)
                setattr(old, f.name, None)
            assert repr(obj) == repr(old)
            for f in fields(cls):
                delattr(obj, f.name)
                assert not hasattr(obj, f.name)
            return
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{f.name}'"):
                setattr(obj, f.name, 2.0)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{f.name}'"):
                delattr(obj, f.name)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
            obj.extra = 1
        assert obj == SAMPLES[cls]

    @RECORDS
    def test_construction_by_keyword_and_its_errors(self, cls):
        args = SAMPLE_ARGS[cls]
        kwargs = {f.name: value for f, value in zip(fields(cls), args)}
        assert cls(**dict(reversed(kwargs.items()))) == SAMPLES[cls]
        with pytest.raises(TypeError):
            cls(*args, None)  # one argument too many
        with pytest.raises(TypeError):
            cls(**kwargs, unknown=1)
        if args:
            with pytest.raises(TypeError):
                cls(args[0], **kwargs)  # the first field twice
        for f in dataclasses.fields(ORACLES[cls])[: len(required_args(cls))]:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in kwargs.items() if k != f.name})

    @RECORDS
    def test_defaults_are_the_oracle_ones(self, cls):
        required = required_args(cls)
        assert repr(cls(*required)) == repr(ORACLES[cls](*required))
        for name in FACTORIES.get(cls, {}):
            first, second = getattr(cls(*required), name), getattr(cls(*required), name)
            assert first == second
            assert first is not second, f"{name}: one default shared by two records"

    @RECORDS
    def test_replace_goes_through_init(self, cls):
        obj = SAMPLES[cls]
        kwargs = {f.name: value for f, value in zip(fields(cls), SAMPLE_ARGS[cls])}
        assert replace(obj) == obj and replace(obj) is not obj
        with pytest.raises(TypeError):
            replace(obj, unknown=1)
        with warns_out_of_band(cls):
            for name, value in kwargs.items():
                new = other_value(value)
                try:
                    want = cls(**{**kwargs, name: new})
                except ValueError:  # replace runs the same checks
                    with pytest.raises(ValueError):
                        replace(obj, **{name: new})
                    continue
                changed = replace(obj, **{name: new})
                assert type(changed) is cls
                assert changed == want
                assert repr(changed) == repr(want)

    def test_a_partial_given_for_a_factory_field_is_kept(self):
        given, checked = functools.partial(dict, a=1), set()
        for cls, factories in FACTORIES.items():
            required = required_args(cls)
            for name in factories:
                try:
                    ORACLES[cls](*required, **{name: given})
                except (TypeError, ValueError):  # the field's checks reject a partial
                    continue
                assert getattr(cls(*required, **{name: given}), name) is given
                assert getattr(replace(cls(*required), **{name: given}), name) is given
                checked.add(cls)
        assert {WarningEvent, LayoutEmission} <= checked

    def test_checks_run_as_the_oracles_do(self):
        for cls, bad in (
            (FovSpec, {"diagonal_deg": 180.0}),
            (PlacementParams, {"panel_height": math.nan}),
            (AgentParams, {"scan_policy": "nope"}),
        ):
            with pytest.raises(ValueError):
                ORACLES[cls](**bad)
            with pytest.raises(ValueError):
                cls(**bad)
            with pytest.raises(ValueError):
                replace(cls(), **bad)

    def test_a_scenario_copy_starts_with_an_empty_cache(self):
        scn = replace(SCENARIO)
        scn.state_at(0.0)
        assert scn._cache and replace(scn)._cache == {}
        assert scn == replace(scn)
        assert "_cache" not in repr(scn)


# -- the per-session records read by metrics, by annotation --------------------

# Each record's fields, in order, with their annotations (metrics reads them).
ORIGINAL_FIELDS = {
    PanelGaze: [("category", "str")],
    DocumentGaze: [("category", "str"), ("row", "int"), ("col", "int")],
    OpenEvent: [
        ("t", "float"),
        ("category", "str"),
        ("country", "str"),
        ("row", "int"),
        ("col", "int"),
        ("correct", "bool"),
    ],
    TrialMetrics: [
        ("context", "str"),
        ("strategy", "str"),
        ("trial_index", "int"),
        ("category", "str"),
        ("country", "str"),
        ("navigation_time_s", "float"),
        ("gaze_switches", "int"),
        ("errors", "int"),
        ("relevant", "bool"),
        ("near", "bool | None"),
    ],
    SessionSummary: [
        ("context", "str"),
        ("strategy", "str"),
        ("seed", "int"),
        ("trials", "int"),
        ("nav_time_mean_s", "float"),
        ("nav_time_median_s", "float"),
        ("nav_time_sd_s", "float"),
        ("switches_mean", "float"),
        ("switches_median", "float"),
        ("switches_sd", "float"),
        ("errors_total", "int"),
        ("relevant_fraction", "float"),
    ],
}


class TestSessionRecordValueSemantics:
    @pytest.mark.parametrize("cls", list(ORIGINAL_FIELDS), ids=lambda cls: cls.__name__)
    def test_fields_are_the_original_ones(self, cls):
        assert [(f.name, f.type) for f in fields(cls)] == ORIGINAL_FIELDS[cls]
        assert not hasattr(SAMPLES[cls], "__dict__")

    def test_pattern_matching_by_position(self):
        match GazeSegment(1.0, 2.0, DocumentGaze("food", 1, 2)):
            case GazeSegment(_, _, DocumentGaze(category, row, col)):
                assert (category, row, col) == ("food", 1, 2)
            case _:
                pytest.fail("positional pattern did not match")
        match PanelGaze("news"):
            case NoGaze():
                pytest.fail("matched another class")
            case PanelGaze(category):
                assert category == "news"
            case _:
                pytest.fail("positional pattern did not match")
        match SAMPLES[OpenEvent]:
            case OpenEvent(t, _, country, _, _, correct):
                assert (t, country, correct) == (2.25, "Japan", False)
            case _:
                pytest.fail("positional pattern did not match")
        match SAMPLES[TrialMetrics]:
            case TrialMetrics(context, strategy, index, _, _, nav, _, _, _, near):
                assert (context, strategy, index, nav, near) == (
                    "static_mobile", "body_fixed", 2, 1.25, None
                )
            case _:
                pytest.fail("positional pattern did not match")
        match SAMPLES[SessionSummary]:
            case SessionSummary(_, _, seed, trials, mean, _, _, _, _, _, _, fraction):
                assert (seed, trials, mean, fraction) == (7, 6, 1.5, 0.5)
            case _:
                pytest.fail("positional pattern did not match")
