"""Exception types shared across the package.

Everything raised deliberately by this package derives from XRLayoutError so
callers can catch domain failures without swallowing programming errors.
Scenario-file problems are *not* raised eagerly during parsing; they are
collected as Diagnostic records first (see scenario.py) and only raised,
bundled, at the end of a parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass(frozen=True)
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


@dataclass
class WarningEvent:
    """A non-fatal runtime condition noted by the simulator."""

    time: float
    subject: str
    message: str
    extra: dict = field(default_factory=dict)
