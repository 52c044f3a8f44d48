"""Deterministic synthetic gaze agent and session simulation.

The agent replays a scenario and produces what an eye tracker would have
logged: a gaze-target segment timeline (exact boundaries), a fixed-rate
sample stream derived from it, and document open events.  A trace depends
only on (scenario, strategy, agent params, seed); two runs with identical
inputs produce bit-identical traces.

Only the agent's RNG depends on the seed, so the sessions run on one
Scenario object share a scene track (_SceneTrack, kept in the scenario's
private _track slot): the scene states and panel poses at the scripted
query times, computed once per scenario and strategy instead of once per
seed.  The track is invisible in every output.  It stores only values that
are pure in (scenario, strategy, t), it leaves out environment-referenced
poses wherever a panel is degenerate (hold-last depends on the session's
own history there), and it is outside the scenario's equality, repr and
serialization.  So a session gives the same trace and warnings whether the
track was cold or warm.

Behavioral model
----------------

Outside questions the agent rests its gaze on the scripted focus: the
conversation partner in dynamic sessions, the nearby intermediary when
static and mobile, the sports poster when static and stationary.  During
question presentation it watches the asking host (dynamic) or the
question screen (static).  Search starts only once the question has been
fully presented.

How the agent finds the category panel depends on what structure the
interface offers, mirroring how trained participants behave:

  * environment_referenced / object_fixed: the panel's location is given
    by its intermediary, so the agent turns toward the target intermediary
    and fixates the panel found there.  No header reading is needed; when
    the agent is already looking at the asking intermediary the panel is
    under its gaze at question end.

  * any strategy in the static stationary context: the panel arrangement
    never changed during training or the session, so the agent recalls it
    and turns directly to the target panel.

  * otherwise (notably body_fixed under social or locomotion load): the
    agent falls back to visual search, fixating candidate panels to read
    their headers until the target turns up, ordered per scan_policy.

Head turns are charged at yaw_rate_deg_s along the geodesic between gaze
directions (default 180 deg/s), so farther panels cost time.  On the
target panel, locating the wanted cell costs per_cell_scan_time when the
agent knows the alphabetical grid indexing, or a row-major cell-by-cell
scan otherwise.  A document open fires after fixation_min of confirming
dwell on the cell.  Wrong-category opens happen only under the
random_seeded policy, which confuses itself with probability
confusion_prob per rejected panel.

scan_policy is a free parameter of this model (participant scan order was
not recorded); it is carried in run outputs so results can be read
against it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Mapping

from .errors import WarningEvent, XRLayoutError
from .frames import USER_BODY, USER_HEAD, SceneState, resolve_world_pose
from .geometry import Pose, Vec3, angle_between
from .placement import (
    EnvironmentReferencedPlacer,
    Strategy,
    emit_layouts,
    place_body_fixed,
)
from .scenario import GRID_COLS, GRID_ROWS, SCAN_POLICIES, Scenario, Trial, grid_cell

# Vertical offset from an intermediary's floor anchor to where people
# actually look at it (a host's face, a poster's center).
GAZE_HEIGHT_M = 1.5


# -- gaze targets ------------------------------------------------------------


@dataclass(frozen=True)
class NoGaze:
    """Saccade / head travel; the gaze is on nothing in particular."""


@dataclass(frozen=True)
class ScreenGaze:
    pass


@dataclass(frozen=True)
class IntermediaryGaze:
    entity_id: str


@dataclass(frozen=True)
class PanelGaze:
    category: str


@dataclass(frozen=True)
class DocumentGaze:
    category: str
    row: int
    col: int


GazeTarget = NoGaze | ScreenGaze | IntermediaryGaze | PanelGaze | DocumentGaze


def panel_category_of(target: GazeTarget) -> str | None:
    """Panel a gaze target lies on, for switch counting; None off-panel."""
    if isinstance(target, PanelGaze):
        return target.category
    if isinstance(target, DocumentGaze):
        return target.category
    return None


@dataclass(frozen=True)
class GazeSample:
    t: float
    target: GazeTarget


@dataclass(frozen=True)
class GazeSegment:
    """Half-open span [t0, t1) of constant gaze target."""

    t0: float
    t1: float
    target: GazeTarget

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class OpenEvent:
    t: float
    category: str
    country: str
    row: int
    col: int
    correct: bool


@dataclass(frozen=True)
class AgentParams:
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
        if self.scan_policy not in SCAN_POLICIES:
            raise ValueError(f"unknown scan policy: {self.scan_policy!r}")
        for name in ("fixation_min", "per_cell_scan_time", "yaw_rate_deg_s", "tick_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_mapping(cls, m: Mapping[str, object]) -> "AgentParams":
        """Build from a scenario's agent block (file key names)."""
        keymap = {
            "fixation_min_s": "fixation_min",
            "per_cell_scan_time_s": "per_cell_scan_time",
            "scan_policy": "scan_policy",
            "known_grid": "known_grid",
            "seed": "seed",
            "yaw_rate_deg_s": "yaw_rate_deg_s",
            "tick_hz": "tick_hz",
            "confusion_prob": "confusion_prob",
            "dwell_jitter_s": "dwell_jitter_s",
        }
        kwargs = {}
        for file_key, attr in keymap.items():
            if file_key in m:
                kwargs[attr] = m[file_key]
        return cls(**kwargs)


# -- scripted focus ----------------------------------------------------------


def focus_target(
    state: SceneState,
    scenario: Scenario,
    t: float,
    answered_at: float | None = None,
) -> GazeTarget:
    """Where the scripted attention of the user rests at time t.

    During question presentation: the asking host (dynamic) or the screen
    (static).  Otherwise: the conversation partner for dynamic sessions
    (the next asker once the current trial is answered), the nearest
    intermediary when static mobile, the sports poster when static
    stationary.
    """
    status = scenario.question_status(t, answered_at)
    hosts = {e.category: e.id for e in scenario.intermediary_entities()}
    if status.trial_index is not None and status.presenting:
        if scenario.setting == "dynamic":
            return IntermediaryGaze(hosts[scenario.trials[status.trial_index].category])
        return ScreenGaze()
    if scenario.setting == "dynamic":
        idx = status.trial_index
        if idx is None:
            partner = scenario.trials[0].category
        elif answered_at is not None and t >= answered_at and idx + 1 < len(scenario.trials):
            partner = scenario.trials[idx + 1].category
        else:
            partner = scenario.trials[idx].category
        return IntermediaryGaze(hosts[partner])
    if scenario.user_state == "mobile":
        user_pos = state.pose_of(USER_BODY).position
        nearest = min(
            scenario.intermediary_entities(),
            key=lambda e: (state.pose_of(e.id).position - user_pos).horizontal().norm(),
        )
        return IntermediaryGaze(nearest.id)
    return IntermediaryGaze(hosts["sports"])


# -- traces ------------------------------------------------------------------


@dataclass
class TrialTrace:
    trial: Trial
    t_complete: float  # question fully presented
    t_open: float | None  # correct document opened
    segments: list[GazeSegment]  # slice covering [question_start, dwell end]
    opens: list[OpenEvent]

    def boundary_samples(self) -> list[GazeSample]:
        """Exact-boundary sample stream for metric computation."""
        return [GazeSample(s.t0, s.target) for s in self.segments]


@dataclass
class SessionTrace:
    scenario_name: str
    context: str
    strategy: Strategy
    params: AgentParams
    seed: int
    trials: list[TrialTrace]
    segments: list[GazeSegment]
    warnings: list[WarningEvent]
    duration: float

    def tick_samples(self, tick_hz: float | None = None) -> list[GazeSample]:
        """Fixed-rate stream over the whole session (strictly increasing t).

        tick_hz=None uses the session's params rate; any other rate must be
        a finite number above zero, else ValueError.
        """
        if tick_hz is None:
            hz = self.params.tick_hz
        elif math.isfinite(tick_hz) and tick_hz > 0:
            hz = tick_hz
        else:
            raise ValueError(f"tick rate must be a finite number above zero, got {tick_hz!r}")
        dt = 1.0 / hz
        out: list[GazeSample] = []
        seg_i = 0
        n = max(1, int(math.ceil(self.duration * hz)))
        for k in range(n):
            t = k * dt
            while seg_i + 1 < len(self.segments) and t >= self.segments[seg_i].t1:
                seg_i += 1
            out.append(GazeSample(t, self.segments[seg_i].target))
        return out


def _stable_seed(*parts: object) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- simulation --------------------------------------------------------------


# Scripted query times sit this far before each trial's window opens, so
# the idle approach sees the scene just before the question starts.
IDLE_LEAD_S = 1e-6


class _SceneTrack:
    """Seed-independent replay of one scenario, shared by all its sessions.

    Only the agent's RNG depends on the seed.  The scene state and the panel
    poses at the scripted query times (0.0 and, for each trial, the instant
    IDLE_LEAD_S before its window, its question start and its question
    complete) do not, so the track keeps them, filled lazily as sessions
    first ask for them: a seed sweep computes each once per scenario, and
    poses once per (scenario, strategy).  Any other time (the settle tail,
    a cursor that overran its scripted time) is computed on the spot and
    never stored, so the track stays bounded by the scripted times however
    many seeds run.

    Nothing a session returns depends on whether the track was cold or
    warm: replay and the stateless strategies are pure in t, and
    environment-referenced poses are stored only where they equal the pure
    placement (see _PanelTracker.poses_at).  The track holds no reference
    to its scenario; callers pass it.
    """

    def __init__(self, scenario: Scenario):
        times = {0.0}
        for trial in scenario.trials:
            t0, _ = scenario.trial_window(trial.index)
            times.update((t0 - IDLE_LEAD_S, trial.question_start, trial.question_complete))
        self.times = frozenset(times)
        self.states: dict[float, SceneState] = {}
        self.strategies: dict[Strategy, _StrategyTrack] = {}

    @staticmethod
    def of(scenario: Scenario) -> "_SceneTrack":
        """The scenario's track, created on first use."""
        track = scenario._track
        if track is None:
            track = _SceneTrack(scenario)
            object.__setattr__(scenario, "_track", track)
        return track

    def state_at(self, scenario: Scenario, t: float) -> SceneState:
        if t not in self.times:
            return scenario.state_at(t)
        state = self.states.get(t)
        if state is None:
            state = self.states[t] = scenario.state_at(t)
        return state

    def strategy(self, scenario: Scenario, strategy: Strategy) -> "_StrategyTrack":
        shared = self.strategies.get(strategy)
        if shared is None:
            shared = self.strategies[strategy] = _StrategyTrack(scenario, strategy, self)
        return shared


class _StrategyTrack:
    """One strategy's share of a scene track: session set-up and poses.

    poses maps a scripted time to the panel poses there, or to None when an
    environment-referenced panel is degenerate at that time.
    """

    def __init__(self, scenario: Scenario, strategy: Strategy, track: _SceneTrack):
        params = scenario.params
        self.poses: dict[float, dict[str, Pose] | None] = {}
        self.frozen: dict[str, Pose] | None = None
        self.emission = None
        if strategy is Strategy.WORLD_FIXED:
            # World-fixed panels freeze at the session-start body-fixed
            # arrangement; there is no other sensible world pose to give
            # them from a scenario authored for adaptive strategies.
            self.frozen = place_body_fixed(
                track.state_at(scenario, 0.0), scenario.body_bearings, params
            )
        elif strategy is Strategy.OBJECT_FIXED:
            # Name-tag style: each panel floats a fixed offset above its
            # intermediary, facing whoever the intermediary faces.
            anchors = {
                pid: (
                    eid,
                    Pose(position=Vec3(0.0, GAZE_HEIGHT_M + 0.6, 0.0)),
                )
                for pid, eid in scenario.intermediaries.items()
            }
            self.emission = emit_layouts(
                strategy,
                track.state_at(scenario, 0.0),
                params,
                anchors=anchors,
            )
        elif strategy is Strategy.HEAD_FIXED:
            self.emission = emit_layouts(
                strategy,
                track.state_at(scenario, 0.0),
                params,
                bearings=scenario.body_bearings,
            )


class _PanelTracker:
    """Panel world poses per state for one session's strategy."""

    def __init__(self, scenario: Scenario, strategy: Strategy, track: _SceneTrack):
        self.scenario = scenario
        self.strategy = strategy
        self.params = scenario.params
        self.times = track.times
        self.shared = track.strategy(scenario, strategy)
        self.warnings: list[WarningEvent] = []
        self._placer: EnvironmentReferencedPlacer | None = None
        if strategy is Strategy.ENVIRONMENT_REFERENCED:
            self._placer = EnvironmentReferencedPlacer(
                scenario.intermediaries, self.params
            )
            self.warnings = self._placer.warnings

    def poses_at(self, state: SceneState) -> dict[str, Pose]:
        """Poses at state, through the shared track at scripted times.

        The session's own placer holds the last pose on degenerate states,
        so its result depends on the session's query history.  On a state
        where no panel is degenerate it does not: it equals the pure
        placement, and storing it is safe.  A cache hit still hands the
        poses to the placer, so later degenerate states hold exactly what
        they would have held without the track; a degenerate state always
        goes through the placer, so each session records its own warnings.
        """
        t = state.time
        if t not in self.times:
            return self._place(state)
        poses = self.shared.poses.get(t)
        if poses is not None:
            if self._placer is not None:
                self._placer.remember(poses)
            return poses
        if t in self.shared.poses:  # degenerate here
            return self._place(state)
        held = len(self.warnings)
        poses = self._place(state)
        self.shared.poses[t] = poses if len(self.warnings) == held else None
        return poses

    def _place(self, state: SceneState) -> dict[str, Pose]:
        if self.strategy is Strategy.BODY_FIXED:
            return place_body_fixed(state, self.scenario.body_bearings, self.params)
        if self.strategy is Strategy.ENVIRONMENT_REFERENCED:
            return self._placer.place(state)
        if self.strategy is Strategy.WORLD_FIXED:
            return dict(self.shared.frozen)
        return {
            pid: resolve_world_pose(layout, state)
            for pid, layout in self.shared.emission.layouts.items()
        }


def document_center(panel_pose: Pose, row: int, col: int) -> Vec3:
    """World center of a grid cell on a panel (4 rows x 7 columns)."""
    width, height = panel_pose.scale.x, panel_pose.scale.y
    dx = (col - (GRID_COLS - 1) / 2.0) * (width / GRID_COLS)
    dy = ((GRID_ROWS - 1) / 2.0 - row) * (height / GRID_ROWS)
    return panel_pose.apply_to_point(Vec3(dx, dy, 0.0))


class _Simulator:
    def __init__(
        self,
        scenario: Scenario,
        params: AgentParams,
        strategy: Strategy,
        seed: int,
    ):
        self.scn = scenario
        self.params = params
        self.strategy = strategy
        self.seed = seed
        self.rng = random.Random(_stable_seed(seed, scenario.name, strategy.value))
        self.track = _SceneTrack.of(scenario)
        self.tracker = _PanelTracker(scenario, strategy, self.track)
        self.segments: list[GazeSegment] = []
        self.opens: list[OpenEvent] = []
        self.cursor = 0.0
        self.gaze_dir = Vec3(0.0, 0.0, -1.0)
        self.panel_by_category = {
            scenario.panels[pid].content.topic: pid for pid in scenario.panels
        }

    def _state_at(self, t: float) -> SceneState:
        return self.track.state_at(self.scn, t)

    # -- geometry helpers ---------------------------------------------

    def _gaze_point(self, state: SceneState, target: GazeTarget, panels) -> Vec3 | None:
        if isinstance(target, NoGaze):
            return None
        if isinstance(target, ScreenGaze):
            screen = next(e for e in self.scn.entities if e.kind == "screen")
            return state.pose_of(screen.id).position
        if isinstance(target, IntermediaryGaze):
            base = state.pose_of(target.entity_id).position
            return base + Vec3(0.0, GAZE_HEIGHT_M, 0.0)
        if isinstance(target, PanelGaze):
            return panels[self.panel_by_category[target.category]].position
        if isinstance(target, DocumentGaze):
            pose = panels[self.panel_by_category[target.category]]
            return document_center(pose, target.row, target.col)
        raise XRLayoutError(f"no gaze point for {target!r}")

    def _head_pos(self, state: SceneState) -> Vec3:
        return state.pose_of(USER_HEAD).position

    def _travel_time(self, state: SceneState, point: Vec3) -> float:
        new_dir = point - self._head_pos(state)
        if new_dir.norm() < 1e-9:
            return 0.0
        deg = math.degrees(angle_between(self.gaze_dir, new_dir))
        return deg / self.params.yaw_rate_deg_s

    def _look_at(self, state: SceneState, point: Vec3) -> None:
        d = point - self._head_pos(state)
        if d.norm() >= 1e-9:
            self.gaze_dir = d.normalized()

    # -- segment emission ---------------------------------------------

    def _emit(self, t1: float, target: GazeTarget) -> None:
        """Append a segment from the cursor to t1 (skipped when empty)."""
        if t1 > self.cursor + 1e-12:
            self.segments.append(GazeSegment(self.cursor, t1, target))
            self.cursor = t1

    def _travel_to(self, state: SceneState, point: Vec3, deadline=None) -> None:
        dt = self._travel_time(state, point)
        if deadline is not None:
            dt = min(dt, max(0.0, deadline - self.cursor))
        self._emit(self.cursor + dt, NoGaze())
        self._look_at(state, point)

    # -- phases ---------------------------------------------------------

    def run(self) -> SessionTrace:
        scn = self.scn
        trial_traces: list[TrialTrace] = []
        for trial in scn.trials:
            t0, _ = scn.trial_window(trial.index)
            seg_start = len(self.segments)
            self._idle_phase(t0)
            self._question_phase(trial)
            t_open = self._search_phase(trial)
            trial_traces.append(
                TrialTrace(
                    trial=trial,
                    t_complete=trial.question_complete,
                    t_open=t_open,
                    segments=[
                        s for s in self.segments[seg_start:] if s.t1 > t0
                    ],
                    opens=[o for o in self.opens if t0 <= o.t <= self.cursor],
                )
            )
        # settle tail so the final fixation has somewhere to live
        tail_state = self._state_at(self.cursor)
        tail_focus = focus_target(tail_state, scn, self.cursor, answered_at=self.cursor)
        tail_point = self._gaze_point(tail_state, tail_focus, self.tracker.poses_at(tail_state))
        self._travel_to(tail_state, tail_point)
        self._emit(self.cursor + 2.0, tail_focus)
        return SessionTrace(
            scenario_name=scn.name,
            context=scn.context,
            strategy=self.strategy,
            params=self.params,
            seed=self.seed,
            trials=trial_traces,
            segments=self.segments,
            warnings=list(self.tracker.warnings),
            duration=self.cursor,
        )

    def _idle_phase(self, until: float) -> None:
        if until <= self.cursor:
            return
        t = max(self.cursor, until - IDLE_LEAD_S)
        state = self._state_at(t)
        focus = focus_target(state, self.scn, t, answered_at=self.cursor)
        panels = self.tracker.poses_at(state)
        point = self._gaze_point(state, focus, panels)
        self._travel_to(state, point, deadline=until)
        self._emit(until, focus)

    def _question_phase(self, trial: Trial) -> None:
        state = self._state_at(trial.question_start)
        focus = focus_target(state, self.scn, trial.question_start)
        panels = self.tracker.poses_at(state)
        point = self._gaze_point(state, focus, panels)
        self._travel_to(state, point, deadline=trial.question_complete)
        self._emit(trial.question_complete, focus)

    def _search_phase(self, trial: Trial) -> float:
        """Find the category panel, then the country document; open it."""
        scn = self.scn
        state = self._state_at(self.cursor)
        panels = self.tracker.poses_at(state)
        segments, opens, t_open, end_dir = search_and_open(
            state=state,
            trial=trial,
            params=self.params,
            strategy=self.strategy,
            panels=panels,
            panel_by_category=self.panel_by_category,
            intermediaries=scn.intermediaries,
            context=scn.context,
            start_time=self.cursor,
            gaze_dir=self.gaze_dir,
            rng=self.rng,
        )
        self.segments.extend(segments)
        self.opens.extend(opens)
        self.cursor = segments[-1].t1 if segments else self.cursor
        self.gaze_dir = end_dir
        return t_open


def search_and_open(
    *,
    state: SceneState,
    trial: Trial,
    params: AgentParams,
    strategy: Strategy,
    panels: Mapping[str, Pose],
    panel_by_category: Mapping[str, str],
    intermediaries: Mapping[str, str],
    context: str,
    start_time: float,
    gaze_dir: Vec3,
    rng: random.Random,
) -> tuple[list[GazeSegment], list[OpenEvent], float, Vec3]:
    """Post-question navigation for one trial.

    Returns (segments, open events, time of the correct open, final gaze
    direction).  Starts at start_time, which must be at or after the
    question's full presentation; the agent never touches a document
    earlier than that.
    """
    head = state.pose_of(USER_HEAD).position
    segments: list[GazeSegment] = []
    opens: list[OpenEvent] = []
    cursor = start_time
    cur_dir = gaze_dir

    def travel(point: Vec3) -> None:
        nonlocal cursor, cur_dir
        d = point - head
        if d.norm() < 1e-9:
            return
        deg = math.degrees(angle_between(cur_dir, d))
        dt = deg / params.yaw_rate_deg_s
        if dt > 1e-12:
            segments.append(GazeSegment(cursor, cursor + dt, NoGaze()))
            cursor += dt
        cur_dir = d.normalized()

    def dwell(duration: float, target: GazeTarget) -> None:
        nonlocal cursor
        if duration > 1e-12:
            segments.append(GazeSegment(cursor, cursor + duration, target))
            cursor += duration

    target_cat = trial.category
    target_pid = panel_by_category[target_cat]
    row, col = grid_cell(target_cat, trial.country)
    cat_of = {pid: c for c, pid in panel_by_category.items()}

    direct = strategy in (Strategy.ENVIRONMENT_REFERENCED, Strategy.OBJECT_FIXED) or (
        context == "static_stationary"
    )
    if direct:
        route = [target_pid]
    else:
        route = _scan_route(panels, target_pid, head, cur_dir, params, rng)

    for pid in route:
        pose = panels[pid]
        travel(pose.position)
        if pid != target_pid:
            # read the header, reject, move on
            dwell(params.fixation_min, PanelGaze(cat_of[pid]))
            if (
                params.scan_policy == "random_seeded"
                and rng.random() < params.confusion_prob
            ):
                # confusion: opens the same-lettered cell on the wrong panel
                wrow, wcol = grid_cell(cat_of[pid], trial.country)
                dwell(params.fixation_min, DocumentGaze(cat_of[pid], wrow, wcol))
                opens.append(
                    OpenEvent(cursor, cat_of[pid], trial.country, wrow, wcol, False)
                )
            continue
        # on the target panel: grid acquisition, then the cell
        dwell(params.per_cell_scan_time, PanelGaze(target_cat))
        if not params.known_grid:
            for idx in range(row * GRID_COLS + col):
                r, c = divmod(idx, GRID_COLS)
                dwell(params.per_cell_scan_time, DocumentGaze(target_cat, r, c))
        t_fix = cursor
        confirm = params.fixation_min
        jitter = rng.uniform(0.0, params.dwell_jitter_s) if params.dwell_jitter_s > 0 else 0.0
        dwell(confirm + jitter, DocumentGaze(target_cat, row, col))
        t_open = t_fix + confirm
        opens.append(OpenEvent(t_open, target_cat, trial.country, row, col, True))
        return segments, opens, t_open, cur_dir

    raise XRLayoutError("scan route never reached the target panel")


def _scan_route(
    panels: Mapping[str, Pose],
    target_pid: str,
    head: Vec3,
    cur_dir: Vec3,
    params: AgentParams,
    rng: random.Random,
) -> list[str]:
    """Candidate visiting order; always ends no later than the target."""
    pids = sorted(panels)
    if params.scan_policy == "random_seeded":
        order = list(pids)
        rng.shuffle(order)
        return _truncate(order, target_pid)

    def deviation(pid: str) -> float:
        return angle_between(cur_dir, panels[pid].position - head)

    if params.scan_policy == "nearest_panel_first":
        # ties (symmetric left/right layouts) break by seeded draw
        keyed = sorted(pids, key=lambda p: (round(deviation(p), 9), rng.random()))
        return _truncate(keyed, target_pid)

    # bearing_order: sweep by horizontal angle from the current heading,
    # nearest absolute bearing first, leftward on ties.
    def signed_bearing(pid: str) -> float:
        v = (panels[pid].position - head).horizontal()
        f = cur_dir.horizontal()
        ang = math.degrees(angle_between(f, v))
        side = f.cross(v).y  # +y cross means target is to the left here
        return -ang if side > 0 else ang

    keyed = sorted(pids, key=lambda p: (round(abs(signed_bearing(p)), 9), signed_bearing(p)))
    return _truncate(keyed, target_pid)


def _truncate(order: list[str], target_pid: str) -> list[str]:
    out = []
    for pid in order:
        out.append(pid)
        if pid == target_pid:
            break
    return out


def simulate_session(
    scenario: Scenario,
    params: AgentParams | None = None,
    *,
    strategy: Strategy | None = None,
    seed: int | None = None,
) -> SessionTrace:
    """Run one full session; the core entry point for batch runs.

    params defaults to the scenario's agent block; seed (when given)
    overrides the params seed so batch sweeps can share scenario files.
    """
    if params is None:
        params = AgentParams.from_mapping(scenario.agent)
    if seed is not None:
        params = replace(params, seed=seed)
    strategy = strategy or scenario.strategy
    sim = _Simulator(scenario, params, strategy, params.seed)
    return sim.run()
