"""Exception types shared across the package.

Everything raised deliberately by this package derives from XRLayoutError so
callers can catch domain failures without swallowing programming errors.
Scenario-file problems are *not* raised eagerly during parsing; they are
collected as Diagnostic records first (see scenario.py) and only raised,
bundled, at the end of a parse.

It also holds the package's record recipe, record, which every module
imports from here: the dataclass methods its value classes need, built as
closures over the class annotations, so no method source is generated and
compiled when the package is imported.  fields, replace and
FrozenInstanceError stand in for the dataclasses ones on these classes
(dataclasses.is_dataclass() is False for them).
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import attrgetter
from types import SimpleNamespace


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class _Factory(partial):
    """A field's default that is built anew, by calling it, for each record."""


def field(*, default_factory) -> _Factory:
    """The default of a field whose value default_factory() builds anew for each record."""
    return _Factory(default_factory)


def fields(record) -> tuple[SimpleNamespace, ...]:
    """The fields of a record class or instance, in order: each one's name and its
    annotation as written (a string), as .name and .type."""
    return record.__record_fields__


def replace(obj, /, **changes):
    """A new record of obj's class with obj's fields, changes applied, through __init__."""
    return obj.__class__(**{**{f.name: getattr(obj, f.name) for f in fields(obj)}, **changes})


_MISSING = object()
_setattr = object.__setattr__


def record(cls=None, /, *, frozen: bool = False, slots: bool = False):
    """The record recipe: what @dataclass adds to the package's value classes.

    From cls's annotations, in order, it adds fields(), __match_args__,
    __eq__ over a same-class tuple of the fields, a __repr__ byte for byte
    the dataclass one, and __hash__ of that tuple when frozen (None when
    not).  A class without an __init__ of its own gets one that takes the
    fields by position or keyword, with the class attributes as defaults
    (field(default_factory=...) builds one per record), and then calls
    __post_init__ if the class has one.

    frozen makes every assignment and deletion raise FrozenInstanceError,
    so an __init__ of the class's own writes through object.__setattr__
    or, when slotted, its slots' setters.  slots rebuilds the class with a
    slot per field and no __dict__; __reduce__ then rebuilds a record
    through __init__ from its fields, so unpickling runs its checks again.
    """
    if cls is None:
        return partial(record, frozen=frozen, slots=slots)
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    if slots:
        body = dict(cls.__dict__, __slots__=names, __qualname__=cls.__qualname__)
        del body["__dict__"], body["__weakref__"]
        cls = type(cls)(cls.__name__, cls.__bases__, body)

    def values(self) -> tuple:
        return tuple(map(getattr, repeat(self), names))

    if len(names) > 1:  # the same tuple, faster; for one name attrgetter gives a bare value
        values = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    text = f"{cls.__qualname__}({', '.join(map('{}={{!r}}'.format, names))})"

    def __repr__(self):
        return text.format(*values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__record_fields__ = tuple(SimpleNamespace(name=n, type=t) for n, t in annotations.items())
    cls.__match_args__, cls.__eq__, cls.__repr__ = names, __eq__, __repr__
    cls.__hash__ = __hash__ if frozen else None
    if frozen:
        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    if slots:
        cls.__reduce__ = lambda self: (self.__class__, values(self))
    if "__init__" in cls.__dict__:
        return cls
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    for name, default in defaults.items():
        if default.__class__ is _Factory:  # a factory leaves the class, as with dataclasses
            delattr(cls, name)
    post_init, where = hasattr(cls, "__post_init__"), f"{cls.__qualname__}()"

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args))
        if len(args) > len(names) or not given.keys().isdisjoint(kwargs):
            raise TypeError(f"{where} takes {len(names)} arguments, each once")
        given.update(kwargs)
        for name in names:
            value = given.pop(name, _MISSING)
            if value is _MISSING:  # only a default, never a value given, is a factory to call
                value = defaults.get(name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{where} missing required argument {name!r}")
                if value.__class__ is _Factory:
                    value = value()
            _setattr(self, name, value)
        if given:
            raise TypeError(f"{where} got unexpected keyword arguments {sorted(given)}")
        if post_init:
            self.__post_init__()

    cls.__init__ = __init__
    return cls


class XRLayoutError(Exception):
    """Base class for all deliberate failures in this package."""


class DegenerateTarget(XRLayoutError):
    """Angular measurement requested against a target at the viewpoint."""


class NonFiniteVector(XRLayoutError, ValueError):
    """A vector component overflowed or is NaN, e.g. from extreme panel sizes."""


class UnresolvedRef(XRLayoutError):
    """A frame or object reference names an entity absent from the scene."""

    def __init__(self, ref: str):
        super().__init__(f"unresolved entity reference: {ref!r}")
        self.ref = ref


class DegenerateIntermediary(XRLayoutError):
    """User and intermediary coincide horizontally; bearing is undefined."""

    def __init__(self, panel_id: str, distance: float):
        super().__init__(
            f"panel {panel_id!r}: horizontal distance to intermediary "
            f"{distance:.3e} m is below the degeneracy threshold"
        )
        self.panel_id = panel_id
        self.distance = distance


class MissingConfig(XRLayoutError):
    """A placement strategy was invoked without its required config."""

    def __init__(self, strategy: str, needed: str):
        super().__init__(f"strategy {strategy!r} requires {needed}")
        self.strategy = strategy
        self.needed = needed


class UnknownCountry(XRLayoutError):
    """Country label not present in the bundled document corpus."""

    def __init__(self, country: str):
        super().__init__(f"unknown country: {country!r}")
        self.country = country


class IncompleteTrial(XRLayoutError):
    """A metric was requested for a trial that never reached its endpoint."""


class EmptyTrialSet(XRLayoutError):
    """Aggregation requested over zero trials."""


class MismatchedScenarios(XRLayoutError):
    """Comparison requested between runs that do not share a trial set."""


@record(frozen=True)
class Diagnostic:
    """One problem found in a scenario file.

    kind is one of "syntax", "schema", "invariant".  line/col are 1-based;
    syntax problems carry the real position while schema and invariant
    problems anchor at the document start and name a dotted path instead.
    """

    kind: str
    message: str
    line: int = 1
    col: int = 1
    path: str = ""

    def render(self, source: str = "<scenario>") -> str:
        if self.kind == "syntax":
            return f"{source}:{self.line}:{self.col}: syntax: {self.message}"
        where = f" at {self.path}" if self.path else ""
        return f"{source}:{self.line}:{self.col}: {self.kind}{where}: {self.message}"


class ScenarioError(XRLayoutError):
    """Base for scenario-file failures; carries structured diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic], source: str = "<scenario>"):
        self.diagnostics = list(diagnostics)
        self.source = source
        super().__init__("\n".join(d.render(source) for d in self.diagnostics))


class ScenarioSyntaxError(ScenarioError):
    """The file is not syntactically well formed."""


class ScenarioSchemaError(ScenarioError):
    """The file is well formed but does not match the scenario schema."""


class ScenarioInvariantError(ScenarioError):
    """The file matches the schema but violates a semantic invariant."""


@record
class WarningEvent:
    """A non-fatal runtime condition noted by the simulator."""

    time: float
    subject: str
    message: str
    extra: dict = field(default_factory=dict)
