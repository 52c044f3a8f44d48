"""The geometry._value_type classes keep the frozen dataclass's value semantics.

Every class built on the recipe pickles, copies and deep-copies back to an
equal object of its own class.  The per-session records converted to it
(agent.PanelGaze, DocumentGaze and OpenEvent, metrics.TrialMetrics and
SessionSummary) are also checked against the frozen dataclasses they
replaced, rebuilt here with make_dataclass from their original fields:
eq, hash and repr, frozen assignment and deletion, positional pattern
matching, fields(), replace() and keyword construction.
"""

import copy
import importlib
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, fields, make_dataclass, replace

import pytest

import xrlayout
from xrlayout.agent import DocumentGaze, GazeSegment, NoGaze, OpenEvent, PanelGaze
from xrlayout.geometry import Pose, Rotation, Vec3, _frozen_setattr, yaw_rotation
from xrlayout.metrics import SessionSummary, TrialMetrics

# Constructor arguments of one instance of every _value_type class.
SAMPLE_ARGS = {
    Vec3: (1.5, -0.0, 1e308),
    Rotation: (0.6, -0.0, 0.8, 0.0),
    Pose: (Vec3(1.0, 2.0, 3.0), yaw_rotation(30.0), Vec3(0.5, 2.0, 1e-300)),
    GazeSegment: (0.0, 1.5, DocumentGaze("sports", 1, 2)),
    PanelGaze: ("food",),
    DocumentGaze: ("movies", 3, 6),
    OpenEvent: (2.25, "food", "Japan", 1, 2, False),
    TrialMetrics: ("static_mobile", "body_fixed", 2, "food", "Japan", 1.25, 3, 0, True, None),
    SessionSummary: ("dynamic_mobile", "env_ref", 7, 6, 1.5, 1.25, 0.5, 2.0, 2.0, -0.0, 1, 0.5),
}
SAMPLES = {cls: cls(*args) for cls, args in SAMPLE_ARGS.items()}

ROUNDTRIPS = pytest.mark.parametrize(
    "roundtrip",
    [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)


def value_type_classes() -> set[type]:
    """Every class of the package frozen by _value_type."""
    found = set()
    for info in pkgutil.iter_modules(xrlayout.__path__):
        module = importlib.import_module(f"xrlayout.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__setattr__ is _frozen_setattr:
                found.add(value)
    return found


def test_samples_cover_every_value_type():
    assert value_type_classes() == set(SAMPLES)


@ROUNDTRIPS
@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_every_value_type_pickles_and_copies(cls, roundtrip):
    obj = SAMPLES[cls]
    back = roundtrip(obj)
    assert type(back) is cls
    assert back == obj
    assert repr(back) == repr(obj)  # every bit, signed zeros included


# -- the per-session records against the frozen dataclasses they replaced ----

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
ORACLES = {
    cls: make_dataclass(cls.__name__, spec, frozen=True) for cls, spec in ORIGINAL_FIELDS.items()
}
RECORDS = pytest.mark.parametrize("cls", list(ORIGINAL_FIELDS), ids=lambda cls: cls.__name__)


def other_value(value):
    """A value unequal to value, of the same type."""
    if value is None or isinstance(value, bool):
        return not value
    return value + ("x" if isinstance(value, str) else 1)


class TestSessionRecordValueSemantics:
    @RECORDS
    def test_fields_are_the_original_ones(self, cls):
        assert [(f.name, f.type) for f in fields(cls)] == ORIGINAL_FIELDS[cls]
        assert cls.__match_args__ == ORACLES[cls].__match_args__

    @RECORDS
    def test_eq_hash_and_repr_are_the_dataclass_ones(self, cls):
        args = SAMPLE_ARGS[cls]
        obj, old = cls(*args), ORACLES[cls](*args)
        assert repr(obj) == repr(old)
        assert hash(obj) == hash(old)
        assert obj == cls(*args)
        assert obj != old  # another class, as between two dataclasses
        assert obj != args
        assert len({obj, cls(*args)}) == 1

    @RECORDS
    def test_equality_follows_every_field(self, cls):
        args = SAMPLE_ARGS[cls]
        for i, value in enumerate(args):
            changed = (*args[:i], other_value(value), *args[i + 1 :])
            assert cls(*changed) != cls(*args), ORIGINAL_FIELDS[cls][i][0]
            assert repr(cls(*changed)) == repr(ORACLES[cls](*changed))

    @RECORDS
    def test_assignment_and_deletion_raise(self, cls):
        obj = SAMPLES[cls]
        for name, _ in ORIGINAL_FIELDS[cls]:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 2.0)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        with pytest.raises(FrozenInstanceError):
            obj.extra = 1
        assert not hasattr(obj, "__dict__")
        assert repr(obj) == repr(ORACLES[cls](*SAMPLE_ARGS[cls]))

    @RECORDS
    def test_keyword_construction_and_replace(self, cls):
        obj, args = SAMPLES[cls], SAMPLE_ARGS[cls]
        kwargs = {name: value for (name, _), value in zip(ORIGINAL_FIELDS[cls], args)}
        assert cls(**dict(reversed(kwargs.items()))) == obj
        for name, value in kwargs.items():
            new = other_value(value)
            changed = replace(obj, **{name: new})
            assert type(changed) is cls
            assert changed == cls(**{**kwargs, name: new})
            assert repr(changed) == repr(replace(ORACLES[cls](*args), **{name: new}))

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
