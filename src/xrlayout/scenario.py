"""Scenario files (.scn) and deterministic replay.

A scenario bundles one session of the reference trivia task: a room with
three intermediaries (posters when static, moving hosts when dynamic), a
scripted user, three category panels each holding a 4x7 alphabetical grid
of 28 country documents, and a list of timed trivia trials whose question
names the country to open.  Four context combinations exist:

    setting    x  user
    static        stationary   3 trials
    static        mobile       6 trials (near/far pair per category)
    dynamic       stationary   3 trials
    dynamic       mobile       6 trials (near/far pair per category)

Files are JSON text with a versioned header (key "schema").  The schema
table below (_SCENARIO and the blocks it nests) is the field reference:
one row per file key, with its kind and constraints, its default or that
it is required, and the attribute it fills.  The reader and the writer
(Scenario.to_dict) walk that table.  The agent block builds Scenario.agent,
an AgentParams (the gaze agent's parameters), whose fields are checked by
the same rows (AGENT_ROWS) wherever one is built; the bundled files state
every agent parameter, as the writer does.
Blocks are closed, so a key the table does not list is an error; metadata
is an open map, and a panel's modality_params and five enums follow the
design-space key rule and domains, checked at their keys.  The panel block
(_PANEL) is also designspace.validate_object's rule for objects built in code.
Ids are schema checks too: the entities and panels lists each reject a
repeated id, and an entity an id reserved for a frame of reference, at
the id's own path.

Parsing is total: any input yields either a Scenario or a list of
Diagnostic records (syntax problems carry line/column, schema problems a
dotted path, invariant problems a message), raised bundled in the
matching ScenarioError subclass.  serialize_scenario() round-trips:
parsing its output reproduces an equal Scenario.

Replay is pure: state_at(scenario, t) depends only on the scenario and t.
Waypoint trajectories interpolate linearly (or hold) between strictly
increasing timestamps and clamp outside them, one rule (Trajectory._motion)
per piece of the time line.  Each pose that cannot change with t (no
trajectory, a clamp, a hold, equal waypoints) is built once per scenario,
on the first state_at; it is derived state, whose lifecycle rule
Scenario._derived states.
Question presentation is a word-at-a-time reveal on a fixed schedule,
repeated every repeat_interval until answered; panel headers are
transparent while words are revealing.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from operator import attrgetter, lt
from typing import Mapping, NamedTuple

from .designspace import (
    AVAILABILITY,
    AVAILABILITY_MUTABILITY,
    IMMERSION,
    INTERACTIVITY,
    MODALITY,
    ContentSpec,
    PresentationSpec,
    XRObject,
    is_modality_param_key,
)
from .errors import (
    Diagnostic,
    ScenarioInvariantError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    UnknownCountry,
    XRLayoutError,
)
from .frames import RESERVED_REFS, USER_BODY, USER_HEAD, SceneState
from .geometry import (
    _POSITIVE_RULE,
    POSITIVE_SCALE_RULE,
    FovSpec,
    Pose,
    Vec3,
    _finite_number,
    _positive_scale,
    angle_between,
    yaw_rotation,
)
from .placement import PlacementParams, Strategy

SCHEMA_VERSION = 1

CATEGORIES = ("food", "movies", "sports")

# The bundled document corpus: 28 countries, alphabetical, shared by all
# three categories (84 documents total).  Grid cells are assigned row
# major over this order.
COUNTRIES = (
    "Argentina",
    "Australia",
    "Belgium",
    "Brazil",
    "Canada",
    "Chile",
    "China",
    "Colombia",
    "Egypt",
    "France",
    "Germany",
    "Greece",
    "India",
    "Indonesia",
    "Italy",
    "Japan",
    "Kenya",
    "Mexico",
    "Morocco",
    "Nigeria",
    "Norway",
    "Peru",
    "Portugal",
    "Spain",
    "Sweden",
    "Thailand",
    "Turkey",
    "Vietnam",
)
GRID_ROWS = 4
GRID_COLS = 7

# Horizontal user-intermediary distance that separates "near" from "far"
# trials in mobile sessions.
NEAR_THRESHOLD_M = 1.5

# Word-at-a-time reveal pace used when a trial gives no explicit schedule.
DEFAULT_WORD_INTERVAL_S = 0.45
DEFAULT_REPEAT_INTERVAL_S = 30.0

SETTINGS = ("static", "dynamic")
USER_STATES = ("stationary", "mobile")

# The gaze agent's header-search orders (see agent.py), checked here so that
# a scenario's agent block is rejected at parse time, not mid-simulation.
SCAN_POLICIES = ("nearest_panel_first", "bearing_order", "random_seeded")

# Gaze streams hold one sample per tick, so the tick rate bounds their size:
# at MAX_TICK_HZ a two-minute session is 1.2 million samples.
MAX_TICK_HZ = 10_000
TICK_RATE_RULE = f"tick rate above 0 and at most {MAX_TICK_HZ} Hz with a finite period"


def valid_tick_rate(hz: float) -> bool:
    """The one rule for a tick rate, wherever one is given (TICK_RATE_RULE).

    NaN and infinities fail the bounds; a subnormal rate passes them but
    its period 1 / hz is infinite, and tick k * period would be NaN at 0.
    """
    return 0 < hz <= MAX_TICK_HZ and math.isfinite(1.0 / hz)


_COUNTRY_INDEX = {c: i for i, c in enumerate(COUNTRIES)}


def grid_cell(category: str, country: str) -> tuple[int, int]:
    """Row-major alphabetical cell of a country document on its panel."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category: {category!r}")
    try:
        idx = _COUNTRY_INDEX[country]
    except KeyError:
        raise UnknownCountry(country) from None
    return divmod(idx, GRID_COLS)


@dataclass(frozen=True)
class Waypoint:
    time: float
    position: Vec3
    yaw_deg: float


@dataclass(frozen=True)
class Trajectory:
    """Scripted motion: clamped interpolation over strictly increasing times."""

    waypoints: tuple[Waypoint, ...]
    interpolation: str = "linear"  # or "hold"

    def sample(self, t: float) -> tuple[Vec3, float]:
        """The motion at t."""
        return self._motion(_piece(tuple(w.time for w in self.waypoints), t), t)

    def _motion(self, k: int, t: float) -> tuple[Vec3, float]:
        """The motion at t on piece k of the time line (see _piece).

        Pieces 0 and len(waypoints) clamp to the first and last waypoint;
        piece k between them is the segment that ends at waypoint k.
        """
        wps = self.waypoints
        if 0 < k < len(wps):
            return self._between(k, t)
        w = wps[0] if k == 0 else wps[-1]
        return w.position, w.yaw_deg

    def _between(self, hi: int, t: float) -> tuple[Vec3, float]:
        """The motion at t on the segment from waypoint hi - 1 to waypoint hi."""
        a, b = self.waypoints[hi - 1], self.waypoints[hi]
        if self.interpolation == "hold":
            return a.position, a.yaw_deg
        t0, t1, p0, p1 = a.time, b.time, a.position, b.position
        u = (t - t0) / (t1 - t0)
        # slope * (t - t0) + p0 is np.interp's operation order, so positions
        # match it bit for bit (tests use np.interp as the reference).
        pos = Vec3(
            (p1.x - p0.x) / (t1 - t0) * (t - t0) + p0.x,
            (p1.y - p0.y) / (t1 - t0) * (t - t0) + p0.y,
            (p1.z - p0.z) / (t1 - t0) * (t - t0) + p0.z,
        )
        return pos, a.yaw_deg + u * (b.yaw_deg - a.yaw_deg)

    def _still_motions(self) -> list[tuple[Vec3, float] | None]:
        """_motion's value on each piece of the time line (see _piece), None where t moves it.

        The clamps never move.  A segment that holds, or joins equal
        waypoints (as floats, so +-0.0 may mix) over a finite span, gives the
        same bits for every t - t0 >= +0.0, so its formula runs once, at t0.
        Not after an inner waypoint at time +0.0: t = -0.0 there makes
        t - t0 = -0.0, which flips zeros.  Times that are not finite and
        increasing (only possible outside the parser) leave every piece to
        run at t.
        """
        wps, times = self.waypoints, tuple(w.time for w in self.waypoints)
        if not (all(map(math.isfinite, times)) and _strictly_increasing(times)):
            return [None] * (len(wps) + 1)

        def still(k: int) -> bool:
            if k == 0 or k == len(wps) or self.interpolation == "hold":
                return True
            a, b = wps[k - 1], wps[k]
            return (
                a.position == b.position
                and a.yaw_deg == b.yaw_deg
                and math.isfinite(b.time - a.time)
                and (k == 1 or a.time != 0.0)
            )

        # At t0 = wps[k - 1].time; a clamp's motion does not depend on t.
        return [self._motion(k, wps[k - 1].time) if still(k) else None for k in range(len(wps) + 1)]


def _entity_pose(position: Vec3, yaw_deg: float) -> Pose:
    return Pose(position, yaw_rotation(yaw_deg))


def _built(build, *args):
    """build(*args), or None when that raises ValueError (NonFiniteVector included)."""
    try:
        return build(*args)
    except ValueError:
        return None


def _strictly_increasing(xs) -> bool:
    """Each item of the sequence xs below the next (NaN fails)."""
    return all(map(lt, xs, xs[1:]))


def _piece(times: tuple[float, ...], t: float) -> int:
    """The piece of the time line t falls on: bisect_right, but t == times[0] clamps."""
    k = bisect_right(times, t)
    return 0 if k == 1 and t == times[0] else k


@dataclass(frozen=True)
class EntitySpec:
    """A scene entity: the user, an intermediary, or the question screen."""

    id: str
    kind: str  # "user" | "poster" | "host" | "screen"
    category: str | None = None
    position: Vec3 = Vec3(0.0, 0.0, 0.0)
    yaw_deg: float = 0.0
    anchor: str | None = None  # "user_forward" keeps screens ahead of the user
    anchor_distance_m: float = 1.5


@dataclass(frozen=True)
class Trial:
    index: int
    category: str
    country: str
    question_words: tuple[str, ...]
    word_schedule: tuple[float, ...]  # absolute session seconds, one per word
    repeat_interval: float = DEFAULT_REPEAT_INTERVAL_S
    near: bool | None = None  # mobile sessions only

    @property
    def question_start(self) -> float:
        return self.word_schedule[0]

    @property
    def question_complete(self) -> float:
        """First instant the question has been fully presented once."""
        return self.word_schedule[-1]

    @property
    def presentation_duration(self) -> float:
        return self.word_schedule[-1] - self.word_schedule[0]


@dataclass(frozen=True)
class QuestionStatus:
    """Presentation state of the active trial at one instant."""

    trial_index: int | None
    cycle: int = 0
    words_revealed: int = 0
    presenting: bool = False
    fully_presented: bool = False
    headers_transparent: bool = False


@dataclass(frozen=True)
class AgentParams:
    """The gaze agent's parameters (see agent.py); AGENT_ROWS are their file keys."""

    fixation_min: float = 0.15  # s of dwell for a fixation to count
    per_cell_scan_time: float = 0.2  # s to localize one grid cell
    scan_policy: str = "nearest_panel_first"
    known_grid: bool = True  # agent knows the alphabetical indexing
    seed: int = 42
    yaw_rate_deg_s: float = 180.0
    tick_hz: float = 50.0
    confusion_prob: float = 0.1  # consulted only by random_seeded
    dwell_jitter_s: float = 0.02  # seeded jitter on post-open dwell

    def __post_init__(self):
        """Each field is checked by the kind of its AGENT_ROWS row, as in files."""
        for row in AGENT_ROWS:
            attr = row.attr or row.key
            row.kind.require(attr, getattr(self, attr))

    def _with_seed(self, seed: int) -> AgentParams:
        """replace(self, seed=seed) that checks only the seed: the rest passed already."""
        _SEED_KIND.require("seed", seed)
        params = object.__new__(type(self))
        vars(params).update(vars(self), seed=seed)
        return params


@dataclass(frozen=True)
class Scenario:
    name: str
    setting: str  # "static" | "dynamic"
    user_state: str  # "stationary" | "mobile"
    fov: FovSpec
    strategy: Strategy
    params: PlacementParams
    body_bearings: Mapping[str, float]  # panel id -> bearing deg
    intermediaries: Mapping[str, str]  # panel id -> entity id
    entities: tuple[EntitySpec, ...]
    trajectories: Mapping[str, Trajectory]
    panels: Mapping[str, XRObject]
    trials: tuple[Trial, ...]
    agent: AgentParams = field(default_factory=AgentParams)
    metadata: Mapping[str, object] = field(default_factory=dict)
    # Values derived from the fields, by builder (see _derived).
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # Not a field: the schema version every scenario is written under.
    schema = SCHEMA_VERSION

    @property
    def context(self) -> str:
        return f"{self.setting}_{self.user_state}"

    @property
    def user(self) -> EntitySpec:
        return next(e for e in self.entities if e.kind == "user")

    def intermediary_entities(self) -> list[EntitySpec]:
        return [e for e in self.entities if e.kind in ("poster", "host")]

    def panel_for_category(self, category: str) -> str:
        for pid, panel in self.panels.items():
            if panel.content.topic == category:
                return pid
        raise KeyError(category)

    @property
    def duration(self) -> float:
        """Nominal session length: last scripted event plus a settle tail."""
        t = max((t.question_complete for t in self.trials), default=0.0)
        for traj in self.trajectories.values():
            t = max(t, traj.waypoints[-1].time)
        return t + 10.0

    def _derived(self, build):
        """build(self), made on the first call for that build and kept.

        The one home of every value derived from a scenario: state_at's
        prebuilt poses (_prebuild) and the agent's seed-shared session plan
        (agent._SessionPlan).  Their lifecycle rule: a value is built
        on first use; it stays outside equality, repr and to_dict;
        dataclasses.replace() gives a copy with an empty cache, which builds
        its own; and since the fields are read only then, a scenario must not
        be mutated after use.
        """
        value = self._cache.get(build)
        if value is None:
            value = self._cache[build] = build(self)
        return value

    # -- replay ---------------------------------------------------------

    def state_at(self, t: float) -> SceneState:
        """Scene poses at time t.  Pure in (self, t).

        Prebuilt on the first call (_prebuild) are the poses of an entity
        without a trajectory and, on a trajectory, those before its first
        and after its last waypoint, on hold segments and between equal
        waypoints; a still user's body, head and user_forward screens with
        them.  Only a segment that moves runs the formulas at t.  Every t on
        a still piece gets the very same Pose objects (identical by `is`),
        which EnvironmentReferencedPlacer relies on to reuse its placements.
        The table is derived state and follows _derived's rule.
        """
        (user, times, still), others = self._derived(Scenario._prebuild)
        k = _piece(times, t)
        user_poses = still[k]
        if user_poses is None:
            user_poses = self._user_poses(*self._entity_motion(user, k, t))
        body, head, screens = user_poses
        poses = {USER_BODY: body, USER_HEAD: head}
        for ent, times, still in others:
            if times is None:  # a user_forward screen
                poses[ent.id] = screens[ent.id]
                continue
            k = _piece(times, t)
            pose = still[k]
            if pose is None:
                pose = _entity_pose(*self._entity_motion(ent, k, t))
            poses[ent.id] = pose
        return SceneState(time=t, poses=poses)

    def _user_poses(self, body_pos: Vec3, body_yaw: float) -> tuple[Pose, Pose, dict]:
        """(body, head, {screen id: pose}) of the user at one motion."""
        body_rot = yaw_rotation(body_yaw)
        body = Pose(body_pos, body_rot)
        # body_pos + UP * eye_height on floats; 0.0 * e keeps a zero's sign.
        e = self.params.eye_height
        head = Vec3(body_pos.x + 0.0 * e, body_pos.y + e, body_pos.z + 0.0 * e)
        screens = {}
        for ent in self.entities:
            if ent.kind != "user" and ent.anchor == "user_forward":
                # head + normalized(horizontal(forward)) * a on floats; a yaw's
                # forward is horizontal, so its norm is never near 0.
                f, a = body_rot.forward(), ent.anchor_distance_m
                n = math.sqrt(f.x * f.x + f.z * f.z)
                center = Vec3(head.x + f.x / n * a, head.y + 0.0 * a, head.z + f.z / n * a)
                screens[ent.id] = Pose(center, yaw_rotation(body_yaw + 180.0))
        return body, Pose(head, body_rot), screens

    def _entity_motion(self, e: EntitySpec, k: int, t: float) -> tuple[Vec3, float]:
        """e's motion at t, which falls on piece k of its trajectory's times (see _piece)."""
        traj = self.trajectories.get(e.id)
        return (e.position, e.yaw_deg) if traj is None else traj._motion(k, t)

    def _prebuild(self) -> tuple:
        """state_at's table: ((user, times, still), ((entity, times, still), ...)).

        still[k] is what piece k of times (see _piece) gives every t: the
        user's (body, head, screens) or an entity's pose, or None where it
        moves.  An entity without a trajectory has no times and one piece; a
        user_forward screen has times None and rides on the user's entry.
        A still piece whose poses raise is left to run at t, and raises there.
        """

        def pieces(e: EntitySpec, build) -> tuple[tuple[float, ...], tuple]:
            traj = self.trajectories.get(e.id)
            if traj is None:
                times, motions = (), [(e.position, e.yaw_deg)]
            else:
                times, motions = tuple(w.time for w in traj.waypoints), traj._still_motions()
            return times, tuple(None if m is None else _built(build, *m) for m in motions)

        user = self.user
        others = tuple(
            (e, None, None) if e.anchor == "user_forward" else (e, *pieces(e, _entity_pose))
            for e in self.entities
            if e.kind != "user"
        )
        return (user, *pieces(user, self._user_poses)), others

    def active_trial_index(self, t: float) -> int | None:
        idx = None
        for trial in self.trials:
            if t >= trial.question_start:
                idx = trial.index
        return idx

    def question_status(self, t: float, answered_at: float | None = None) -> QuestionStatus:
        idx = self.active_trial_index(t)
        if idx is None:
            return QuestionStatus(trial_index=None)
        trial = self.trials[idx]
        if answered_at is not None and t >= answered_at:
            return QuestionStatus(
                trial_index=idx, fully_presented=t >= trial.question_complete
            )
        elapsed = t - trial.question_start
        cycle = int(elapsed // trial.repeat_interval)
        in_cycle = elapsed - cycle * trial.repeat_interval
        offsets = [w - trial.question_start for w in trial.word_schedule]
        revealed = sum(1 for o in offsets if o <= in_cycle + 1e-12)
        presenting = in_cycle <= trial.presentation_duration + 1e-12
        return QuestionStatus(
            trial_index=idx,
            cycle=cycle,
            words_revealed=revealed,
            presenting=presenting,
            fully_presented=t >= trial.question_complete,
            headers_transparent=presenting,
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return _SCENARIO.write(self)


def serialize_scenario(scn: Scenario) -> str:
    return _canonical_text(scn.to_dict())


def _canonical_text(doc: dict) -> str:
    """The one .scn text format: what serialize_scenario writes and bundled files hold."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- parsing ---------------------------------------------------------------


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario text; total over inputs.

    Raises ScenarioSyntaxError / ScenarioSchemaError /
    ScenarioInvariantError carrying all diagnostics found at the failing
    stage; never lets malformed input escape as an unrelated exception.
    """
    scn, diags = scan_scenario(text)
    if diags:
        kind = diags[0].kind
        cls = {
            "syntax": ScenarioSyntaxError,
            "schema": ScenarioSchemaError,
            "invariant": ScenarioInvariantError,
        }[kind]
        raise cls(diags, source)
    assert scn is not None
    return scn


def scan_scenario(text: str) -> tuple[Scenario | None, list[Diagnostic]]:
    """Parse without raising: (scenario, []) or (None, diagnostics).

    Diagnostics are staged: syntax problems suppress schema checks, schema
    problems suppress invariant checks, but within a stage everything
    found is reported.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [
            Diagnostic("syntax", exc.msg, line=exc.lineno, col=exc.colno)
        ]
    except (RecursionError, ValueError) as exc:  # nesting too deep, an integer too long
        return None, [Diagnostic("syntax", str(exc), line=1, col=1)]
    diags: list[Diagnostic] = []
    scn = _SCENARIO.read(doc, "", diags)
    if scn is None:
        return None, diags
    _check_invariants(scn, diags)
    if diags:
        return None, diags
    return scn, diags


# -- the schema table ------------------------------------------------------
#
# The reader checks a block's rows in table order, so diagnostics come out in
# that order, and builds the block's object only when it found nothing wrong.

_REQUIRED = object()  # the key must be present
_OPTIONAL = object()  # an absent key leaves the built object's own default


class _Row(NamedTuple):
    """One file key; default is _REQUIRED, _OPTIONAL or a file value.

    attr is the dotted attribute the key fills: the key itself when None,
    the enclosing object when "".  The writer leaves the key out when its
    value is None, or when the row named by `when` was left out.
    """

    key: str
    kind: _Kind
    default: object = _OPTIONAL
    attr: str | None = None
    when: _Row | None = None


class _Invalid(Exception):
    """Raised by a builder with (attr, expected, got) for values that do not fit together."""


def _fail(diags: list[Diagnostic], path: str, expected: str, got: object) -> None:
    diags.append(Diagnostic("schema", f"expected {expected}, got {_describe(got)}", path=path))


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path and key else path or key


def _describe(v: object) -> str:
    if v is None:
        return "nothing"
    return f"{type(v).__name__} {v!r}" if not isinstance(v, (dict, list)) else type(v).__name__


class _Kind:
    """A value checked by (test, expected) pairs; the first that fails is reported.

    name is what a missing key was expected to be (by default the first
    expectation), rule what a constructor's field was expected to be (by
    default the last).  Subclasses read and write nested values.
    """

    def __init__(
        self, *checks, name: str | None = None, rule: str | None = None, convert=None, dump=None
    ):
        self.checks = checks
        self.name = name or checks[0][1]
        self.rule = rule or checks[-1][1]
        self.convert = convert
        self.dump = dump

    def require(self, attr: str, value: object) -> None:
        """A constructor's check of its field attr: ValueError unless the kind accepts value."""
        for test, _ in self.checks:
            if not test(value):
                raise ValueError(f"{attr}: expected {self.rule}, got {value!r}")

    def read(self, raw: object, path: str, diags: list[Diagnostic]) -> object:
        """The converted value, or None after recording a diagnostic."""
        for test, expected in self.checks:
            if not test(raw):
                _fail(diags, path, expected, raw)
                return None
        return raw if self.convert is None else self.convert(raw)

    def write(self, value) -> object:
        return value if self.dump is None else self.dump(value)


class _Block(_Kind):
    """A closed JSON object read into build(**values).

    Values of dotted attrs reach build grouped by their first part.  A block
    without build is only checked, and kept as written.  known(key), if given,
    replaces its rows' keys as the rule for which keys it takes.
    """

    def __init__(self, *rows: _Row, build=None, name: str = "object", known=None):
        super().__init__((_is_dict, name))
        self.rows = rows
        self.build = build
        self.known = known or frozenset(row.key for row in rows).__contains__
        self.slots = []  # (row, group, attr): where build receives the row's value
        for row in rows:
            group, _, attr = (row.key if row.attr is None else row.attr).rpartition(".")
            self.slots.append((row, group, attr))

    def read(self, raw: object, path: str, diags: list[Diagnostic]) -> object:
        if super().read(raw, path, diags) is None:
            return None
        start = len(diags)
        values: dict[str, object] = {}
        for row, group, attr in self.slots:
            value = raw.get(row.key, row.default)
            if value is _OPTIONAL:
                continue
            where = f"{path}.{row.key}" if path else row.key
            if value is _REQUIRED:
                _fail(diags, where, row.kind.name, None)
                continue
            value = row.kind.read(value, where, diags)
            if attr:
                (values.setdefault(group, {}) if group else values)[attr] = value
            else:
                values.update(value or {})
        for key in raw:
            if not self.known(key):
                diags.append(Diagnostic("schema", "unknown key", path=f"{path}.{key}" if path else key))
        if len(diags) > start:
            return None
        if self.build is None:
            return dict(raw)
        try:
            return self.build(**values)
        except _Invalid as exc:
            attr, expected, got = exc.args
            key = next((row.key for row in self.rows if (row.attr or row.key) == attr), "")
            _fail(diags, _join(path, key), expected, got)
            return None

    def write(self, obj) -> object:
        if self.build is None:  # a value that is no map is written as is, for read to report
            return dict(obj) if isinstance(obj, Mapping) else obj
        out = {}
        for row in self.rows:
            value = obj if row.attr == "" else attrgetter(row.attr or row.key)(obj)
            if value is not None and (row.when is None or row.when.key in out):
                out[row.key] = row.kind.write(value)
        return out


class _ListOf(_Kind):
    """A JSON list of one kind, read into a tuple.

    With ids (what an item's id is expected to be), each read item's id must
    differ from those before it; a repeat is reported at its own id.
    """

    def __init__(self, item: _Kind, *checks, ids: str | None = None):
        super().__init__(_LIST, *checks)
        self.item = item
        self.ids = ids

    def read(self, raw: object, path: str, diags: list[Diagnostic]) -> tuple | None:
        if super().read(raw, path, diags) is None:
            return None
        start, seen, items = len(diags), set(), []
        for i, x in enumerate(raw):
            item = self.item.read(x, f"{path}[{i}]", diags)
            if self.ids and item is not None:
                if item.id in seen:
                    _fail(diags, f"{path}[{i}].id", self.ids, item.id)
                seen.add(item.id)
            items.append(item)
        return None if len(diags) > start else tuple(items)

    def write(self, items) -> list:
        if isinstance(items, Mapping):  # panels are kept keyed by id
            items = items.values()
        return [self.item.write(x) for x in items]


class _MapOf(_Kind):
    """A JSON object with free keys and values of one kind."""

    def __init__(self, item: _Kind):
        super().__init__((_is_dict, "object"))
        self.item = item

    def read(self, raw: object, path: str, diags: list[Diagnostic]) -> dict | None:
        if super().read(raw, path, diags) is None:
            return None
        items = {k: self.item.read(v, f"{path}.{k}", diags) for k, v in raw.items()}
        return None if any(v is None for v in items.values()) else items

    def write(self, items: Mapping) -> dict:
        return {k: self.item.write(v) for k, v in items.items()}


class _Waypoint(_Kind):
    """[time, [x, y, z], yaw_deg]; a bad position is reported at [1]."""

    def read(self, raw: object, path: str, diags: list[Diagnostic]) -> Waypoint | None:
        if super().read(raw, path, diags) is None:
            return None
        position = _VEC3.read(raw[1], f"{path}[1]", diags)
        return None if position is None else Waypoint(float(raw[0]), position, float(raw[2]))

    def write(self, w: Waypoint) -> list:
        return [w.time, _VEC3.write(w.position), w.yaw_deg]


def _is_str(v: object) -> bool:
    return isinstance(v, str)


def _is_dict(v: object) -> bool:
    return isinstance(v, dict)


def _is_xyz(v: object) -> bool:
    return isinstance(v, list) and len(v) == 3 and not any(
        isinstance(c, bool) or not isinstance(c, (int, float)) for c in v
    )


def _is_waypoint(v: object) -> bool:
    return isinstance(v, list) and len(v) == 3 and _finite_number(v[0]) and _finite_number(v[2])


def _one_of(options: tuple, **kw) -> _Kind:
    return _Kind((_is_str, "string"), (options.__contains__, f"one of {options}"), **kw)


_FINITE = (_finite_number, "finite number")
_INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "integer")
_LIST = (lambda v: isinstance(v, list), "list")
_STR = _Kind((_is_str, "string"))
_NUM = _Kind(_FINITE, name="number", rule="a finite number", convert=float)
_POSITIVE = _Kind(
    _FINITE, (lambda v: v > 0, "positive number"), name="number", rule=_POSITIVE_RULE, convert=float
)
_TICK_RATE = _Kind(
    *_POSITIVE.checks, (valid_tick_rate, TICK_RATE_RULE), name="number", convert=float
)
_BOOL = _Kind((lambda v: isinstance(v, bool), "boolean"))
_OBJECT = _Kind((_is_dict, "object"), convert=dict, dump=dict)
_VEC3 = _Kind(
    (_is_xyz, "[x, y, z] numbers"),
    (lambda v: all(map(_finite_number, v)), "finite [x, y, z]"),
    convert=Vec3.from_seq,
    dump=lambda v: list(v.to_tuple()),
)
_POSITIVE_VEC3 = _Kind(
    *_VEC3.checks,
    (lambda v: _positive_scale(*v), POSITIVE_SCALE_RULE),
    convert=_VEC3.convert,
    dump=_VEC3.dump,
)


def _fov(**values) -> FovSpec:
    try:
        return FovSpec(**values)
    except ValueError as exc:  # FovSpec also bounds the diagonal below 180 degrees
        raise _Invalid("", "valid fov", str(exc)) from None


def _panel(content: dict, presentation: dict | None = None, **values) -> XRObject:
    return XRObject(
        content=ContentSpec(**content),
        presentation=PresentationSpec(**(presentation or {})),
        **values,
    )


def _trial(question_start: float, question_words: tuple, word_schedule=None, **values) -> dict:
    """Trial fields but the index; without a schedule the words come at a steady pace."""
    if word_schedule is None:
        word_schedule = tuple(
            question_start + k * DEFAULT_WORD_INTERVAL_S for k in range(len(question_words))
        )
    elif word_schedule[0] != question_start:
        expected = f"first entry equal to question_start_s {question_start!r}"
        raise _Invalid("word_schedule", expected, word_schedule[0])
    return dict(values, question_words=question_words, word_schedule=word_schedule)


def _scenario(schema, panels, trials, params=None, fov=FovSpec(), **values) -> Scenario:
    """The Scenario; its row already checked schema, which every scenario writes as its own."""
    return Scenario(
        fov=fov,
        params=PlacementParams(**(params or {})),
        panels={p.id: p for p in panels},
        trials=tuple(Trial(index=i, **t) for i, t in enumerate(trials)),
        **values,
    )


_SEED_KIND = _Kind(_INTEGER)

# The agent block, read into Scenario.agent; each row's attr names the
# AgentParams field it fills, and AgentParams checks that field by its kind.
AGENT_ROWS = (
    _Row("scan_policy", _one_of(SCAN_POLICIES)),
    _Row("fixation_min_s", _POSITIVE, attr="fixation_min"),
    _Row("per_cell_scan_time_s", _POSITIVE, attr="per_cell_scan_time"),
    _Row("yaw_rate_deg_s", _POSITIVE),
    _Row("tick_hz", _TICK_RATE),
    _Row("confusion_prob", _NUM),
    _Row("dwell_jitter_s", _NUM),
    _Row("known_grid", _BOOL),
    _Row("seed", _SEED_KIND),
)

_FOV = _Block(
    _Row("diagonal_deg", _POSITIVE, _REQUIRED),
    _Row("aspect_ratio", _POSITIVE, _REQUIRED),
    build=_fov,
)

_STRATEGY = _one_of(tuple(s.value for s in Strategy), convert=Strategy, dump=attrgetter("value"))

_PLACEMENT = _Block(
    _Row("strategy", _STRATEGY, _REQUIRED),
    _Row("panel_distance_m", _POSITIVE, attr="params.panel_distance"),
    _Row("panel_height_m", _POSITIVE, attr="params.panel_height"),
    _Row("eye_height_m", _POSITIVE, attr="params.eye_height"),
    _Row("panel_aspect_ratio", _POSITIVE, attr="params.aspect_ratio"),
    _Row("panel_scale", _POSITIVE_VEC3, attr="params.panel_scale"),
    _Row("body_bearings_deg", _MapOf(_NUM), _REQUIRED, attr="body_bearings"),
    _Row("intermediaries", _MapOf(_Kind((_is_str, "entity id string"))), _REQUIRED),
    build=dict,
)

_ANCHOR = _Row("anchor", _one_of(("user_forward",)))

# Poses are looked up by entity id and frame-of-reference name alike.
_ENTITY_ID = _Kind(
    (_is_str, "string"), (lambda v: v not in RESERVED_REFS, "id not reserved for a frame of reference")
)

_ENTITY = _Block(
    _Row("id", _ENTITY_ID, _REQUIRED),
    _Row("kind", _one_of(("user", "poster", "host", "screen")), _REQUIRED),
    _Row("category", _one_of(CATEGORIES)),
    _Row("position", _VEC3),
    _Row("yaw_deg", _NUM),
    _ANCHOR,
    _Row("anchor_distance_m", _POSITIVE, when=_ANCHOR),
    build=EntitySpec,
)

_WAYPOINTS = _ListOf(
    _Waypoint((_is_waypoint, "[time, [x,y,z], yaw_deg] with finite numbers")),
    (bool, "non-empty waypoint list"),
)

_TRAJECTORY = _Block(
    _Row("interpolation", _one_of(("linear", "hold"))),
    _Row("waypoints", _WAYPOINTS, _REQUIRED),
    build=Trajectory,
)

_LEVEL = _Kind(_INTEGER, (lambda v: v >= 0, "integer >= 0"))

_MODALITY_PARAMS = _Block(known=is_modality_param_key)

_PANEL = _Block(
    _Row("id", _STR, _REQUIRED),
    _Row("topic", _one_of(CATEGORIES), _REQUIRED, attr="content.topic"),
    _Row("modality_params", _MODALITY_PARAMS, attr="presentation.modality_params"),
    _Row("info_focus", _STR, attr="content.info_focus"),
    _Row("level_of_detail", _LEVEL, 1, attr="content.level_of_detail"),
    _Row("availability", _one_of(AVAILABILITY), attr="content.availability"),
    _Row("availability_mutability", _one_of(AVAILABILITY_MUTABILITY), "context_aware",
         attr="content.availability_mutability"),
    _Row("immersion", _one_of(IMMERSION), attr="presentation.immersion"),
    _Row("modality", _one_of(MODALITY), attr="presentation.modality"),
    _Row("interactivity", _one_of(INTERACTIVITY), "full"),
    build=_panel,
)

_WORDS = _Kind(
    _LIST,
    (lambda v: v and all(map(_is_str, v)), "non-empty list of strings"),
    convert=tuple,
    dump=list,
)
_SCHEDULE = _Kind(
    _LIST,
    (lambda v: v and all(map(_finite_number, v)), "non-empty list of finite numbers"),
    convert=lambda v: tuple(map(float, v)),
    dump=list,
)

_TRIAL = _Block(
    _Row("category", _one_of(CATEGORIES), _REQUIRED),
    _Row("country", _STR, _REQUIRED),
    _Row("question_words", _WORDS, _REQUIRED),
    _Row("question_start_s", _NUM, _REQUIRED, attr="question_start"),
    _Row("word_schedule_s", _SCHEDULE, attr="word_schedule"),
    _Row("repeat_interval_s", _POSITIVE, attr="repeat_interval"),
    _Row("near", _BOOL),
    build=_trial,
)

_VERSION = f"supported schema version {SCHEMA_VERSION}"

_SCENARIO = _Block(
    _Row("schema", _Kind((lambda v: v == SCHEMA_VERSION, _VERSION)), _REQUIRED),
    _Row("name", _STR, _REQUIRED),
    _Row("setting", _one_of(SETTINGS), _REQUIRED),
    _Row("user_state", _one_of(USER_STATES), _REQUIRED),
    _Row("metadata", _OBJECT),
    _Row("fov", _FOV),
    _Row("placement", _PLACEMENT, _REQUIRED, attr=""),
    _Row("agent", _Block(*AGENT_ROWS, build=AgentParams)),
    _Row("entities", _ListOf(_ENTITY, ids="unique entity id"), _REQUIRED),
    _Row("trajectories", _MapOf(_TRAJECTORY), {}),
    _Row("panels", _ListOf(_PANEL, ids="unique panel id"), _REQUIRED),
    _Row("trials", _ListOf(_TRIAL), _REQUIRED),
    build=_scenario,
    name="top-level object",
)


def _check_invariants(scn: Scenario, diags: list[Diagnostic]) -> None:
    def bad(message: str, path: str = "") -> None:
        diags.append(Diagnostic("invariant", message, path=path))

    users = [e for e in scn.entities if e.kind == "user"]
    if len(users) != 1:
        bad(f"expected exactly one user entity, found {len(users)}", "entities")
        return

    inters = scn.intermediary_entities()
    inter_kinds = {e.kind for e in inters}
    expected_kind = "host" if scn.setting == "dynamic" else "poster"
    if len(inters) != 3 or {e.category for e in inters} != set(CATEGORIES):
        bad(
            "expected exactly three intermediaries covering all categories",
            "entities",
        )
    elif inter_kinds != {expected_kind}:
        bad(
            f"{scn.setting} sessions use {expected_kind} intermediaries, found {sorted(inter_kinds)}",
            "entities",
        )
    if scn.setting == "static" and not any(e.kind == "screen" for e in scn.entities):
        bad("static sessions need a question screen entity", "entities")

    # Panels (the schema table checked their design metadata): one per category,
    # configured on both strategy maps so a run can switch strategies without editing the file.
    topics = sorted(p.content.topic for p in scn.panels.values())
    if topics != sorted(CATEGORIES):
        bad(f"expected one panel per category, found topics {topics}", "panels")
    for pid in scn.panels:
        if pid not in scn.body_bearings:
            bad(f"panel {pid!r} missing a body bearing", "placement.body_bearings_deg")
        elif not -180.0 < scn.body_bearings[pid] <= 180.0:
            bad(
                f"panel {pid!r} bearing {scn.body_bearings[pid]} outside (-180, 180]",
                "placement.body_bearings_deg",
            )
        if pid not in scn.intermediaries:
            bad(f"panel {pid!r} missing an intermediary", "placement.intermediaries")
    for pid in scn.body_bearings:
        if pid not in scn.panels:
            bad(f"body bearing names unknown panel {pid!r}", "placement.body_bearings_deg")
    entity_by_id = {e.id: e for e in scn.entities}
    for pid, eid in scn.intermediaries.items():
        if pid not in scn.panels:
            bad(f"intermediary map names unknown panel {pid!r}", "placement.intermediaries")
            continue
        target = entity_by_id.get(eid)
        if target is None:
            bad(f"panel {pid!r} intermediary {eid!r} is not a scene entity",
                "placement.intermediaries")
        elif target.category != scn.panels[pid].content.topic:
            bad(
                f"panel {pid!r} (topic {scn.panels[pid].content.topic!r}) mapped to "
                f"{eid!r} with category {target.category!r}",
                "placement.intermediaries",
            )

    for eid, traj in scn.trajectories.items():
        if eid not in entity_by_id:
            bad(f"trajectory for unknown entity {eid!r}", f"trajectories.{eid}")
        times = [w.time for w in traj.waypoints]
        if not _strictly_increasing(times):
            bad(
                f"waypoint times must be strictly increasing, got {times}",
                f"trajectories.{eid}",
            )

    # Trial set shape.
    expected_trials = 3 if scn.user_state == "stationary" else 6
    if len(scn.trials) != expected_trials:
        bad(
            f"{scn.user_state} sessions have exactly {expected_trials} trials, "
            f"found {len(scn.trials)}",
            "trials",
        )
    per_category: dict[str, list[Trial]] = {c: [] for c in CATEGORIES}
    for trial in scn.trials:
        path = f"trials[{trial.index}]"
        per_category.setdefault(trial.category, []).append(trial)
        if trial.country not in _COUNTRY_INDEX:
            bad(f"unknown country {trial.country!r}", path)
        if trial.question_words and trial.question_words[-1] != trial.country:
            bad(
                f"question must end with the country, got {trial.question_words[-1]!r}",
                path,
            )
        if len(trial.word_schedule) != len(trial.question_words):
            bad("word schedule length must match question words", path)
        if not _strictly_increasing(trial.word_schedule):
            bad("word schedule must be strictly increasing", path)
        if trial.presentation_duration >= trial.repeat_interval:
            bad("presentation longer than its repeat interval", path)
        if scn.user_state == "stationary" and trial.near is not None:
            bad("stationary trials take no near flag", path)
        if scn.user_state == "mobile" and trial.near is None:
            bad("mobile trials require a near flag", path)
    if scn.user_state == "mobile" and len(scn.trials) == 6:
        for c, ts in per_category.items():
            flags = sorted(t.near for t in ts if t.near is not None)
            if len(ts) != 2 or flags != [False, True]:
                bad(
                    f"category {c!r} needs one near and one far trial",
                    "trials",
                )
    if scn.user_state == "stationary" and len(scn.trials) == 3:
        cats = sorted(t.category for t in scn.trials)
        if cats != sorted(CATEGORIES):
            bad(f"stationary sessions cover each category once, found {cats}", "trials")
    starts = [t.question_start for t in scn.trials]
    if not _strictly_increasing(starts):
        bad("trials must be ordered by strictly increasing question start", "trials")
    for a, b in zip(scn.trials, scn.trials[1:]):
        if a.question_complete >= b.question_start:
            bad(
                f"trial {a.index} presentation overlaps trial {b.index}",
                f"trials[{a.index}]",
            )

    if diags:
        return
    try:
        _check_replay(scn, inters, bad)
    except XRLayoutError as exc:  # e.g. an entity placed on the user
        bad(f"scene cannot be replayed: {exc}", "entities")


def _check_replay(scn: Scenario, inters: list[EntitySpec], bad) -> None:
    """Start configuration and near/far classification, which need replay."""
    state0 = scn.state_at(0.0)
    user_pos = state0.pose_of(USER_BODY).position
    dists = {
        e.id: (state0.pose_of(e.id).position - user_pos).horizontal().norm()
        for e in inters
    }
    if dists and max(dists.values()) - min(dists.values()) > 0.01:
        bad(
            f"user must start equidistant (within 1 cm) from all intermediaries, "
            f"distances {_fmt_dists(dists)}",
            "entities",
        )
    sports = next((e for e in inters if e.category == "sports"), None)
    if sports is not None:
        to_sports = (state0.pose_of(sports.id).position - user_pos).horizontal()
        fwd = state0.pose_of(USER_BODY).orientation.forward().horizontal()
        if math.degrees(angle_between(fwd, to_sports)) > 1.0:
            bad("user must start facing the sports intermediary", "entities")

    if scn.user_state == "mobile":
        for trial in scn.trials:
            pid = scn.panel_for_category(trial.category)
            state = scn.state_at(trial.question_start)
            inter_pos = state.pose_of(scn.intermediaries[pid]).position
            d = (inter_pos - state.pose_of(USER_BODY).position).horizontal().norm()
            is_near = d < NEAR_THRESHOLD_M
            if is_near != trial.near:
                bad(
                    f"trial {trial.index} flagged near={trial.near} but user is "
                    f"{d:.2f} m from {scn.intermediaries[pid]!r} at question start",
                    f"trials[{trial.index}]",
                )


def _fmt_dists(dists: Mapping[str, float]) -> str:
    return ", ".join(f"{k}={v:.3f}" for k, v in sorted(dists.items()))


# -- bundled fixtures -------------------------------------------------------
#
# Strategy is a run axis, not a copied fixture.  fixtures/ holds one file per
# context, "<context>_env_ref.scn", and each context is bundled as two named
# sessions: the file itself and "<context>_body_fixed", the same document
# renamed and switched to the body-fixed strategy.  Each session is parsed
# from its own text, so each builds its own derived state.  The agent's RNG
# stream is seeded from the session name, so the two sessions stay
# independent.

_ENV_REF = "_env_ref"
_BODY_FIXED = "_body_fixed"


def bundled_scenario_names() -> list[str]:
    """Names of the eight bundled sessions, sorted: four contexts x two strategies."""
    root = resources.files(__package__) / "fixtures"
    contexts = [
        p.name.removesuffix(f"{_ENV_REF}.scn")
        for p in root.iterdir()
        if p.name.endswith(f"{_ENV_REF}.scn")
    ]
    return sorted(c + suffix for c in contexts for suffix in (_ENV_REF, _BODY_FIXED))


def bundled_scenario_text(name: str) -> str:
    """Canonical .scn text of a bundled session; body-fixed ones are derived."""
    if not name.endswith(_BODY_FIXED):
        root = resources.files(__package__) / "fixtures"
        return (root / f"{name}.scn").read_text(encoding="utf-8")
    doc = json.loads(bundled_scenario_text(name.removesuffix(_BODY_FIXED) + _ENV_REF))
    doc["name"] = name
    doc["placement"]["strategy"] = Strategy.BODY_FIXED.value
    return _canonical_text(doc)


def load_bundled(name: str) -> Scenario:
    return parse_scenario(bundled_scenario_text(name), source=f"{name}.scn")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, source=str(path))
