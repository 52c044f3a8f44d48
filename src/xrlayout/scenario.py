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

Files are JSON text with a versioned header (key "schema").  Parsing is
total: any input yields either a Scenario or a list of Diagnostic records
(syntax problems carry line/column, schema problems a dotted path,
invariant problems a message), raised bundled in the matching
ScenarioError subclass.  serialize_scenario() round-trips: parsing its
output reproduces an equal Scenario.

Replay is pure: state_at(scenario, t) depends only on the scenario and t.
Waypoint trajectories interpolate linearly (or hold) between strictly
increasing timestamps and clamp outside them.  Question presentation is a
word-at-a-time reveal on a fixed schedule, repeated every repeat_interval
until answered; panel headers are transparent while words are revealing.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

from .designspace import (
    ContentSpec,
    PresentationSpec,
    SceneCatalog,
    SizeSpec,
    SpatialLayout,
    XRObject,
    validate_object,
)
from .errors import (
    Diagnostic,
    ScenarioInvariantError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    UnknownCountry,
)
from .frames import USER_BODY, USER_HEAD, FrameOfReference, SceneState
from .geometry import (
    UP,
    FovSpec,
    Pose,
    Vec3,
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
        wps = self.waypoints
        times = [w.time for w in wps]
        if t <= times[0]:
            w = wps[0]
            return w.position, w.yaw_deg
        if t >= times[-1]:
            w = wps[-1]
            return w.position, w.yaw_deg
        hi = bisect_right(times, t)
        a, b = wps[hi - 1], wps[hi]
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
    agent: Mapping[str, object] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)
    # The agent's seed-shared scene track (agent._SceneTrack), created on
    # the first simulated session.  Outside equality, repr and to_dict;
    # replace() starts the copy without one.
    _track: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def context(self) -> str:
        return f"{self.setting}_{self.user_state}"

    def entity(self, entity_id: str) -> EntitySpec:
        for e in self.entities:
            if e.id == entity_id:
                return e
        raise KeyError(entity_id)

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

    # -- replay ---------------------------------------------------------

    def state_at(self, t: float) -> SceneState:
        """Scene poses at time t.  Pure in (self, t)."""
        poses: dict[str, Pose] = {}
        user = self.user
        body_pos, body_yaw = self._entity_motion(user, t)
        body = Pose(position=body_pos, orientation=yaw_rotation(body_yaw))
        poses[USER_BODY] = body
        poses[USER_HEAD] = Pose(
            position=body_pos + UP * self.params.eye_height, orientation=body.orientation
        )
        for e in self.entities:
            if e.kind == "user":
                continue
            if e.anchor == "user_forward":
                fwd = body.orientation.forward().horizontal().normalized()
                center = body_pos + UP * self.params.eye_height + fwd * e.anchor_distance_m
                poses[e.id] = Pose(
                    position=center, orientation=yaw_rotation(body_yaw + 180.0)
                )
                continue
            pos, yaw = self._entity_motion(e, t)
            poses[e.id] = Pose(position=pos, orientation=yaw_rotation(yaw))
        return SceneState(time=t, poses=poses)

    def _entity_motion(self, e: EntitySpec, t: float) -> tuple[Vec3, float]:
        traj = self.trajectories.get(e.id)
        if traj is None:
            return e.position, e.yaw_deg
        return traj.sample(t)

    def trial_window(self, index: int) -> tuple[float, float]:
        """[question start, next question start) span owned by a trial."""
        start = self.trials[index].question_start
        if index + 1 < len(self.trials):
            return start, self.trials[index + 1].question_start
        return start, math.inf

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
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "setting": self.setting,
            "user_state": self.user_state,
            "metadata": dict(self.metadata),
            "fov": {
                "diagonal_deg": self.fov.diagonal_deg,
                "aspect_ratio": self.fov.aspect_ratio,
            },
            "placement": {
                "strategy": self.strategy.value,
                "panel_distance_m": self.params.panel_distance,
                "panel_height_m": self.params.panel_height,
                "eye_height_m": self.params.eye_height,
                "panel_scale": list(self.params.panel_scale.to_tuple()),
                "panel_aspect_ratio": self.params.aspect_ratio,
                "body_bearings_deg": dict(self.body_bearings),
                "intermediaries": dict(self.intermediaries),
            },
            "agent": dict(self.agent),
            "entities": [_entity_to_dict(e) for e in self.entities],
            "trajectories": {
                eid: {
                    "interpolation": traj.interpolation,
                    "waypoints": [
                        [w.time, list(w.position.to_tuple()), w.yaw_deg]
                        for w in traj.waypoints
                    ],
                }
                for eid, traj in self.trajectories.items()
            },
            "panels": [_panel_to_dict(p) for p in self.panels.values()],
            "trials": [_trial_to_dict(t) for t in self.trials],
        }


def _entity_to_dict(e: EntitySpec) -> dict:
    d = {
        "id": e.id,
        "kind": e.kind,
        "position": list(e.position.to_tuple()),
        "yaw_deg": e.yaw_deg,
    }
    if e.category is not None:
        d["category"] = e.category
    if e.anchor is not None:
        d["anchor"] = e.anchor
        d["anchor_distance_m"] = e.anchor_distance_m
    return d


def _panel_to_dict(p: XRObject) -> dict:
    return {
        "id": p.id,
        "topic": p.content.topic,
        "info_focus": p.content.info_focus,
        "level_of_detail": p.content.level_of_detail,
        "availability": p.content.availability,
        "availability_mutability": p.content.availability_mutability,
        "immersion": p.presentation.immersion,
        "modality": p.presentation.modality,
        "modality_params": dict(p.presentation.modality_params),
        "interactivity": p.interactivity,
    }


def _trial_to_dict(t: Trial) -> dict:
    d = {
        "category": t.category,
        "country": t.country,
        "question_words": list(t.question_words),
        "question_start_s": t.question_start,
        "word_schedule_s": list(t.word_schedule),
        "repeat_interval_s": t.repeat_interval,
    }
    if t.near is not None:
        d["near"] = t.near
    return d


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def serialize_scenario(scn: Scenario) -> str:
    return _canonical_json(scn.to_dict())


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
    diags: list[Diagnostic] = []
    scn = _build(doc, diags)
    if diags or scn is None:
        return None, diags
    _check_invariants(scn, diags)
    if diags:
        return None, diags
    return scn, diags


_MISSING = object()


def _finite_number(v: object) -> bool:
    """A JSON number, not a boolean, whose float value is finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


class _Reader:
    """Typed field access over parsed JSON, recording schema diagnostics.

    Missing required keys and wrong types both produce a diagnostic and
    fall back to the caller's default, so one pass reports everything.
    """

    def __init__(self, diags: list[Diagnostic]):
        self.diags = diags

    def fail(self, path: str, expected: str, got: object) -> None:
        self.diags.append(
            Diagnostic(
                "schema", f"expected {expected}, got {_describe(got)}", path=path
            )
        )

    def _raw(self, obj, key, expected, path, required):
        if not isinstance(obj, dict) or key not in obj:
            if required:
                self.fail(_join(path, key), expected, None)
            return _MISSING
        return obj[key]

    def str_(self, obj, key, path, *, required=True, default=None, choices=None):
        v = self._raw(obj, key, "string", path, required)
        if v is _MISSING:
            return default
        if not isinstance(v, str):
            self.fail(_join(path, key), "string", v)
            return default
        if choices is not None and v not in choices:
            self.fail(_join(path, key), f"one of {choices}", v)
            return default
        return v

    def num(self, obj, key, path, *, required=True, default=None, positive=False):
        v = self._raw(obj, key, "number", path, required)
        if v is _MISSING:
            return default
        if not _finite_number(v):
            self.fail(_join(path, key), "finite number", v)
            return default
        if positive and v <= 0:
            self.fail(_join(path, key), "positive number", v)
            return default
        return float(v)

    def int_(self, obj, key, path, *, required=True, default=None, minimum=None):
        v = self._raw(obj, key, "integer", path, required)
        if v is _MISSING:
            return default
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(_join(path, key), "integer", v)
            return default
        if minimum is not None and v < minimum:
            self.fail(_join(path, key), f"integer >= {minimum}", v)
            return default
        return v

    def bool_(self, obj, key, path, *, required=True, default=None):
        v = self._raw(obj, key, "boolean", path, required)
        if v is _MISSING:
            return default
        if not isinstance(v, bool):
            self.fail(_join(path, key), "boolean", v)
            return default
        return v

    def list_(self, obj, key, path, *, required=True, default=None):
        v = self._raw(obj, key, "list", path, required)
        if v is _MISSING:
            return default
        if not isinstance(v, list):
            self.fail(_join(path, key), "list", v)
            return default
        return v

    def dict_(self, obj, key, path, *, required=True, default=None):
        v = self._raw(obj, key, "object", path, required)
        if v is _MISSING:
            return default
        if not isinstance(v, dict):
            self.fail(_join(path, key), "object", v)
            return default
        return v

    def vec3(self, raw, path):
        if (
            not isinstance(raw, list)
            or len(raw) != 3
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in raw)
        ):
            self.fail(path, "[x, y, z] numbers", raw)
            return None
        if not all(_finite_number(c) for c in raw):
            self.fail(path, "finite [x, y, z]", raw)
            return None
        return Vec3.from_seq(raw)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _describe(v: object) -> str:
    if v is None:
        return "nothing"
    return f"{type(v).__name__} {v!r}" if not isinstance(v, (dict, list)) else type(v).__name__


def _build(doc: object, diags: list[Diagnostic]) -> Scenario | None:
    r = _Reader(diags)
    if not isinstance(doc, dict):
        r.fail("", "top-level object", doc)
        return None

    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        r.fail("schema", f"supported schema version {SCHEMA_VERSION}", schema)

    name = r.str_(doc, "name", "")
    setting = r.str_(doc, "setting", "", choices=SETTINGS)
    user_state = r.str_(doc, "user_state", "", choices=USER_STATES)
    metadata = r.dict_(doc, "metadata", "", required=False, default={})

    fov_d = r.dict_(doc, "fov", "", required=False, default=None)
    fov = FovSpec()
    if fov_d is not None:
        diag = r.num(fov_d, "diagonal_deg", "fov", positive=True)
        aspect = r.num(fov_d, "aspect_ratio", "fov", positive=True)
        if diag is not None and aspect is not None:
            try:
                fov = FovSpec(diagonal_deg=diag, aspect_ratio=aspect)
            except ValueError as exc:
                r.fail("fov", "valid fov", str(exc))

    placement = r.dict_(doc, "placement", "")
    strategy = Strategy.ENVIRONMENT_REFERENCED
    params = PlacementParams()
    bearings: dict[str, float] = {}
    intermediaries: dict[str, str] = {}
    if placement is not None:
        sname = r.str_(
            placement, "strategy", "placement", choices=tuple(s.value for s in Strategy)
        )
        if sname:
            strategy = Strategy(sname)
        dist = r.num(placement, "panel_distance_m", "placement", positive=True, required=False, default=1.2)
        height = r.num(placement, "panel_height_m", "placement", positive=True, required=False, default=1.5)
        eye = r.num(placement, "eye_height_m", "placement", positive=True, required=False, default=1.6)
        aspect = r.num(placement, "panel_aspect_ratio", "placement", positive=True, required=False, default=1.75)
        scale_raw = placement.get("panel_scale", [1.4, 0.8, 0.02])
        scale = r.vec3(scale_raw, "placement.panel_scale")
        if None not in (dist, height, eye, aspect) and scale is not None:
            try:
                params = PlacementParams(
                    panel_distance=dist,
                    panel_height=height,
                    eye_height=eye,
                    panel_scale=scale,
                    aspect_ratio=aspect,
                )
            except ValueError as exc:
                r.fail("placement", "valid placement params", str(exc))
        b = r.dict_(placement, "body_bearings_deg", "placement")
        if b is not None:
            for pid, deg in b.items():
                if not _finite_number(deg):
                    r.fail(f"placement.body_bearings_deg.{pid}", "finite number", deg)
                else:
                    bearings[pid] = float(deg)
        im = r.dict_(placement, "intermediaries", "placement")
        if im is not None:
            for pid, eid in im.items():
                if not isinstance(eid, str):
                    r.fail(f"placement.intermediaries.{pid}", "entity id string", eid)
                else:
                    intermediaries[pid] = eid

    agent = r.dict_(doc, "agent", "", required=False, default={})
    r.str_(agent, "scan_policy", "agent", required=False, choices=SCAN_POLICIES)
    for key in ("fixation_min_s", "per_cell_scan_time_s", "yaw_rate_deg_s", "tick_hz"):
        r.num(agent, key, "agent", required=False, positive=True)
    for key in ("confusion_prob", "dwell_jitter_s"):
        r.num(agent, key, "agent", required=False)
    r.bool_(agent, "known_grid", "agent", required=False)
    r.int_(agent, "seed", "agent", required=False)

    entities: list[EntitySpec] = []
    ents_raw = r.list_(doc, "entities", "")
    if ents_raw is not None:
        for i, e_raw in enumerate(ents_raw):
            path = f"entities[{i}]"
            if not isinstance(e_raw, dict):
                r.fail(path, "object", e_raw)
                continue
            eid = r.str_(e_raw, "id", path)
            kind = r.str_(
                e_raw, "kind", path, choices=("user", "poster", "host", "screen")
            )
            category = r.str_(
                e_raw, "category", path, required=False, default=None, choices=CATEGORIES
            )
            pos = r.vec3(e_raw.get("position", [0, 0, 0]), f"{path}.position")
            yaw = r.num(e_raw, "yaw_deg", path, required=False, default=0.0)
            anchor = r.str_(
                e_raw, "anchor", path, required=False, default=None, choices=("user_forward",)
            )
            adist = r.num(
                e_raw, "anchor_distance_m", path, required=False, default=1.5, positive=True
            )
            if None in (eid, kind, pos, yaw):
                continue
            entities.append(
                EntitySpec(
                    id=eid,
                    kind=kind,
                    category=category,
                    position=pos,
                    yaw_deg=yaw,
                    anchor=anchor,
                    anchor_distance_m=adist if adist is not None else 1.5,
                )
            )

    trajectories: dict[str, Trajectory] = {}
    trajs_raw = r.dict_(doc, "trajectories", "", required=False, default={})
    if trajs_raw:
        for eid, t_raw in trajs_raw.items():
            path = f"trajectories.{eid}"
            if not isinstance(t_raw, dict):
                r.fail(path, "object", t_raw)
                continue
            interp = r.str_(
                t_raw, "interpolation", path, required=False, default="linear",
                choices=("linear", "hold"),
            )
            wps_raw = r.list_(t_raw, "waypoints", path)
            if wps_raw is None:
                continue
            wps: list[Waypoint] = []
            ok = True
            for j, w_raw in enumerate(wps_raw):
                wpath = f"{path}.waypoints[{j}]"
                if (
                    not isinstance(w_raw, list)
                    or len(w_raw) != 3
                    or not _finite_number(w_raw[0])
                    or not _finite_number(w_raw[2])
                ):
                    r.fail(wpath, "[time, [x,y,z], yaw_deg] with finite numbers", w_raw)
                    ok = False
                    continue
                pos = r.vec3(w_raw[1], f"{wpath}[1]")
                if pos is None:
                    ok = False
                    continue
                wps.append(Waypoint(float(w_raw[0]), pos, float(w_raw[2])))
            if not ok or not wps:
                if not wps and ok:
                    r.fail(f"{path}.waypoints", "non-empty waypoint list", wps_raw)
                continue
            trajectories[eid] = Trajectory(tuple(wps), interp if interp else "linear")

    panels: dict[str, XRObject] = {}
    panels_raw = r.list_(doc, "panels", "")
    if panels_raw is not None:
        for i, p_raw in enumerate(panels_raw):
            path = f"panels[{i}]"
            if not isinstance(p_raw, dict):
                r.fail(path, "object", p_raw)
                continue
            pid = r.str_(p_raw, "id", path)
            topic = r.str_(p_raw, "topic", path, choices=CATEGORIES)
            params_d = r.dict_(p_raw, "modality_params", path, required=False, default={})
            obj_kwargs = dict(
                info_focus=r.str_(p_raw, "info_focus", path, required=False, default=""),
                level_of_detail=r.int_(
                    p_raw, "level_of_detail", path, required=False, default=1, minimum=0
                ),
                availability=r.str_(p_raw, "availability", path, required=False, default="open"),
                availability_mutability=r.str_(
                    p_raw, "availability_mutability", path, required=False, default="context_aware"
                ),
            )
            if pid is None or topic is None or None in obj_kwargs.values():
                continue
            panels[pid] = XRObject(
                id=pid,
                content=ContentSpec(topic=topic, **obj_kwargs),
                presentation=PresentationSpec(
                    immersion=r.str_(
                        p_raw, "immersion", path, required=False, default="non_immersive"
                    )
                    or "non_immersive",
                    modality=r.str_(p_raw, "modality", path, required=False, default="visual")
                    or "visual",
                    modality_params=dict(params_d) if params_d else {},
                ),
                layout=SpatialLayout(
                    FrameOfReference.unified(USER_BODY),
                    Pose(),
                    SizeSpec(scale=params.panel_scale, aspect_ratio=params.aspect_ratio),
                ),
                interactivity=r.str_(
                    p_raw, "interactivity", path, required=False, default="full"
                )
                or "full",
            )

    trials: list[Trial] = []
    trials_raw = r.list_(doc, "trials", "")
    if trials_raw is not None:
        for i, t_raw in enumerate(trials_raw):
            path = f"trials[{i}]"
            if not isinstance(t_raw, dict):
                r.fail(path, "object", t_raw)
                continue
            category = r.str_(t_raw, "category", path, choices=CATEGORIES)
            country = r.str_(t_raw, "country", path)
            words_raw = r.list_(t_raw, "question_words", path)
            words: tuple[str, ...] | None = None
            if words_raw is not None:
                if not words_raw or any(not isinstance(w, str) for w in words_raw):
                    r.fail(f"{path}.question_words", "non-empty list of strings", words_raw)
                else:
                    words = tuple(words_raw)
            start = r.num(t_raw, "question_start_s", path)
            sched_raw = r.list_(t_raw, "word_schedule_s", path, required=False, default=None)
            repeat = r.num(
                t_raw, "repeat_interval_s", path, required=False,
                default=DEFAULT_REPEAT_INTERVAL_S, positive=True,
            )
            near = r.bool_(t_raw, "near", path, required=False, default=None)
            if None in (category, country, words, start) or repeat is None:
                continue
            if sched_raw is None:
                schedule = tuple(
                    start + k * DEFAULT_WORD_INTERVAL_S for k in range(len(words))
                )
            else:
                if not sched_raw or not all(_finite_number(x) for x in sched_raw):
                    r.fail(
                        f"{path}.word_schedule_s", "non-empty list of finite numbers",
                        sched_raw,
                    )
                    continue
                schedule = tuple(float(x) for x in sched_raw)
            trials.append(
                Trial(
                    index=len(trials),
                    category=category,
                    country=country,
                    question_words=words,
                    word_schedule=schedule,
                    repeat_interval=repeat,
                    near=near,
                )
            )

    if diags:
        return None
    return Scenario(
        name=name,
        setting=setting,
        user_state=user_state,
        fov=fov,
        strategy=strategy,
        params=params,
        body_bearings=bearings,
        intermediaries=intermediaries,
        entities=tuple(entities),
        trajectories=trajectories,
        panels=panels,
        trials=tuple(trials),
        agent=dict(agent) if agent else {},
        metadata=dict(metadata) if metadata else {},
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

    # Panels: one per category, valid design metadata, configured on both
    # strategy maps so a run can switch strategies without editing the file.
    topics = sorted(p.content.topic for p in scn.panels.values())
    if topics != sorted(CATEGORIES):
        bad(f"expected one panel per category, found topics {topics}", "panels")
    catalog = SceneCatalog(
        entity_ids=frozenset(e.id for e in scn.entities if e.kind != "user"),
        objects=dict(scn.panels),
    )
    for pid, panel in scn.panels.items():
        for v in validate_object(panel, catalog):
            bad(f"panel {pid!r}: {v}", "panels")
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
        if any(b <= a for a, b in zip(times, times[1:])):
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
        if any(
            b <= a for a, b in zip(trial.word_schedule, trial.word_schedule[1:])
        ):
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
    if any(b <= a for a, b in zip(starts, starts[1:])):
        bad("trials must be ordered by strictly increasing question start", "trials")
    for a, b in zip(scn.trials, scn.trials[1:]):
        if a.question_complete >= b.question_start:
            bad(
                f"trial {a.index} presentation overlaps trial {b.index}",
                f"trials[{a.index}]",
            )

    if diags:
        return

    # Start configuration and near/far classification need replay.
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
            pid = next(
                (p for p, obj in scn.panels.items() if obj.content.topic == trial.category),
                None,
            )
            if pid is None:
                continue
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
# sessions: the file itself and "<context>_body_fixed", the same session
# renamed and switched to the body-fixed strategy.  The agent's RNG stream is
# seeded from the session name, so the two sessions stay independent.

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
    root = resources.files(__package__) / "fixtures"
    context = name.removesuffix(_BODY_FIXED)
    if context == name:
        return (root / f"{name}.scn").read_text(encoding="utf-8")
    doc = json.loads((root / f"{context}{_ENV_REF}.scn").read_text(encoding="utf-8"))
    doc["name"] = name
    doc["placement"]["strategy"] = Strategy.BODY_FIXED.value
    return _canonical_json(doc)


def load_bundled(name: str) -> Scenario:
    return parse_scenario(bundled_scenario_text(name), source=f"{name}.scn")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, source=str(path))
