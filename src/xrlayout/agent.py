"""Deterministic synthetic gaze agent and session simulation.

The agent replays a scenario and produces what an eye tracker would have
logged: a gaze-target segment timeline (exact boundaries), a fixed-rate
sample stream derived from it, and document open events.  A trace depends
only on (scenario, strategy, agent params, seed); two runs with identical
inputs produce bit-identical traces.

Panels are placed by one path: each session calls its strategy's direct
placement function from placement.py (environment-referenced through the
session's own EnvironmentReferencedPlacer, which holds the last pose on
degenerate frames; world-fixed as the body-fixed layout at t = 0).  Gaze
segments are laid down by one emitter, _Timeline, which both the session
phases of _Simulator and search_and_open use.

Only the agent's RNG depends on the seed, so the sessions run on one
Scenario object share a scene track (_SceneTrack, kept in the scenario's
private _track slot): the scene states and, per strategy, the panel poses
at the scripted query times, computed once per scenario and strategy
instead of once per seed.  The track is invisible in every output.  It
stores only values that are pure in (scenario, strategy, t), it leaves out
environment-referenced poses wherever a panel is degenerate (hold-last
depends on the session's own history there), and it is outside the
scenario's equality, repr and serialization.  So a session gives the same
trace and warnings whether the track was cold or warm.

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
from functools import partial
from typing import Mapping

from .errors import WarningEvent, XRLayoutError
from .frames import USER_BODY, USER_HEAD, SceneState
from .geometry import Pose, Vec3, angle_between
from .placement import (
    EnvironmentReferencedPlacer,
    Strategy,
    place_body_fixed,
    place_head_fixed,
    place_object_fixed,
)
from .scenario import AGENT_ROWS, GRID_COLS, GRID_ROWS, SCAN_POLICIES, Scenario, Trial, grid_cell

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
        """Build from a scenario's agent block (file key names, see AGENT_ROWS)."""
        return cls(**{row.attr or row.key: m[row.key] for row in AGENT_ROWS if row.key in m})


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
    first ask for them: a seed sweep computes each state once per scenario,
    and poses once per (scenario, strategy).  Any other time (the settle
    tail, a cursor that overran its scripted time) is computed on the spot
    and never stored, so the track stays bounded by the scripted times
    however many seeds run.

    poses[strategy] maps a scripted time to the panel poses there, or to
    None when an environment-referenced panel is degenerate at that time;
    _Simulator._poses_at fills it.  Nothing a session returns depends on
    whether the track was cold or warm.  The track holds no reference to
    its scenario; callers pass it.
    """

    def __init__(self, scenario: Scenario):
        times = {0.0}
        for trial in scenario.trials:
            t0, _ = scenario.trial_window(trial.index)
            times.update((t0 - IDLE_LEAD_S, trial.question_start, trial.question_complete))
        self.times = frozenset(times)
        self.states: dict[float, SceneState] = {}
        self.poses: dict[Strategy, dict[float, dict[str, Pose] | None]] = {
            strategy: {} for strategy in Strategy
        }

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


class _Timeline:
    """Gaze segments laid end to end from a cursor, plus the gaze direction."""

    def __init__(self, start: float, gaze_dir: Vec3, yaw_rate_deg_s: float):
        self.segments: list[GazeSegment] = []
        self.cursor = start
        self.gaze_dir = gaze_dir
        self.yaw_rate_deg_s = yaw_rate_deg_s

    def until(self, t1: float, target: GazeTarget) -> None:
        """Hold target from the cursor to t1 (nothing unless t1 is later)."""
        if t1 > self.cursor + 1e-12:
            self.segments.append(GazeSegment(self.cursor, t1, target))
            self.cursor = t1

    def dwell(self, duration: float, target: GazeTarget) -> None:
        """Hold target for duration (nothing when it is empty)."""
        if duration > 1e-12:
            self.segments.append(GazeSegment(self.cursor, self.cursor + duration, target))
            self.cursor += duration

    def travel(self, head: Vec3, point: Vec3, deadline: float | None = None) -> None:
        """Turn the gaze from head toward point, gazing at nothing meanwhile.

        The turn takes the geodesic angle at yaw_rate_deg_s, cut short at
        deadline; the gaze direction ends on point either way.
        """
        d = point - head
        if d.norm() < 1e-9:
            return
        dt = math.degrees(angle_between(self.gaze_dir, d)) / self.yaw_rate_deg_s
        if deadline is not None:
            dt = min(dt, max(0.0, deadline - self.cursor))
        if dt > 1e-12:
            self.segments.append(GazeSegment(self.cursor, self.cursor + dt, NoGaze()))
            self.cursor += dt
        self.gaze_dir = d.normalized()


def _direct_placement(strategy: Strategy, scenario: Scenario):
    """A stateless strategy's placement as a function of the scene state."""
    params = scenario.params
    if strategy is Strategy.OBJECT_FIXED:
        return partial(place_object_fixed, intermediaries=scenario.intermediaries, params=params)
    place = place_head_fixed if strategy is Strategy.HEAD_FIXED else place_body_fixed
    return partial(place, bearings=scenario.body_bearings, params=params)


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
        self.poses = self.track.poses[strategy]
        self.placer: EnvironmentReferencedPlacer | None = None
        self.warnings: list[WarningEvent] = []
        if strategy is Strategy.ENVIRONMENT_REFERENCED:
            self.placer = EnvironmentReferencedPlacer(scenario.intermediaries, scenario.params)
            self.warnings = self.placer.warnings
            self.place = self.placer.place
        else:
            self.place = _direct_placement(strategy, scenario)
        self.line = _Timeline(0.0, Vec3(0.0, 0.0, -1.0), params.yaw_rate_deg_s)
        self.opens: list[OpenEvent] = []
        self.panel_by_category = {
            scenario.panels[pid].content.topic: pid for pid in scenario.panels
        }

    def _state_at(self, t: float) -> SceneState:
        return self.track.state_at(self.scn, t)

    def _poses_at(self, state: SceneState) -> dict[str, Pose]:
        """Panel poses at state, through the shared track at scripted times.

        World-fixed panels freeze at the session-start body-fixed
        arrangement (there is no other sensible world pose to give them
        from a scenario authored for adaptive strategies), so every state
        asks for the poses at 0.0.

        The environment-referenced placer holds the last pose on degenerate
        states, so its result depends on the session's query history.  On a
        state where no panel is degenerate it does not: it equals the pure
        placement, and storing it is safe.  A cache hit still hands the
        poses to the placer, so later degenerate states hold exactly what
        they would have held without the track; a degenerate state always
        goes through the placer, so each session records its own warnings.
        """
        if self.strategy is Strategy.WORLD_FIXED:
            state = self._state_at(0.0)
        t = state.time
        if t not in self.track.times:
            return self.place(state)
        poses = self.poses.get(t)
        if poses is not None:
            if self.placer is not None:
                self.placer.remember(poses)
            return poses
        if t in self.poses:  # degenerate here
            return self.place(state)
        held = len(self.warnings)
        poses = self.place(state)
        self.poses[t] = poses if len(self.warnings) == held else None
        return poses

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

    # -- phases ---------------------------------------------------------

    def run(self) -> SessionTrace:
        scn = self.scn
        line = self.line
        trial_traces: list[TrialTrace] = []
        for trial in scn.trials:
            t0, _ = scn.trial_window(trial.index)
            seg_start = len(line.segments)
            self._idle_phase(t0)
            self._question_phase(trial)
            t_open = self._search_phase(trial)
            trial_traces.append(
                TrialTrace(
                    trial=trial,
                    t_complete=trial.question_complete,
                    t_open=t_open,
                    segments=[
                        s for s in line.segments[seg_start:] if s.t1 > t0
                    ],
                    opens=[o for o in self.opens if t0 <= o.t <= line.cursor],
                )
            )
        # settle tail so the final fixation has somewhere to live
        tail_state = self._state_at(line.cursor)
        tail_focus = focus_target(tail_state, scn, line.cursor, answered_at=line.cursor)
        tail_point = self._gaze_point(tail_state, tail_focus, self._poses_at(tail_state))
        line.travel(tail_state.pose_of(USER_HEAD).position, tail_point)
        line.dwell(2.0, tail_focus)
        return SessionTrace(
            scenario_name=scn.name,
            context=scn.context,
            strategy=self.strategy,
            params=self.params,
            seed=self.seed,
            trials=trial_traces,
            segments=line.segments,
            warnings=list(self.warnings),
            duration=line.cursor,
        )

    def _idle_phase(self, until: float) -> None:
        line = self.line
        if until <= line.cursor:
            return
        t = max(line.cursor, until - IDLE_LEAD_S)
        state = self._state_at(t)
        focus = focus_target(state, self.scn, t, answered_at=line.cursor)
        point = self._gaze_point(state, focus, self._poses_at(state))
        line.travel(state.pose_of(USER_HEAD).position, point, deadline=until)
        line.until(until, focus)

    def _question_phase(self, trial: Trial) -> None:
        state = self._state_at(trial.question_start)
        focus = focus_target(state, self.scn, trial.question_start)
        point = self._gaze_point(state, focus, self._poses_at(state))
        self.line.travel(
            state.pose_of(USER_HEAD).position, point, deadline=trial.question_complete
        )
        self.line.until(trial.question_complete, focus)

    def _search_phase(self, trial: Trial) -> float:
        """Find the category panel, then the country document; open it."""
        scn = self.scn
        line = self.line
        state = self._state_at(line.cursor)
        segments, opens, t_open, end_dir = search_and_open(
            state=state,
            trial=trial,
            params=self.params,
            strategy=self.strategy,
            panels=self._poses_at(state),
            panel_by_category=self.panel_by_category,
            intermediaries=scn.intermediaries,
            context=scn.context,
            start_time=line.cursor,
            gaze_dir=line.gaze_dir,
            rng=self.rng,
        )
        line.segments.extend(segments)
        if segments:
            line.cursor = segments[-1].t1
        line.gaze_dir = end_dir
        self.opens.extend(opens)
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
    line = _Timeline(start_time, gaze_dir, params.yaw_rate_deg_s)
    opens: list[OpenEvent] = []

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
        route = _scan_route(panels, target_pid, head, line.gaze_dir, params, rng)

    for pid in route:
        line.travel(head, panels[pid].position)
        if pid != target_pid:
            # read the header, reject, move on
            line.dwell(params.fixation_min, PanelGaze(cat_of[pid]))
            if (
                params.scan_policy == "random_seeded"
                and rng.random() < params.confusion_prob
            ):
                # confusion: opens the same-lettered cell on the wrong panel
                wrow, wcol = grid_cell(cat_of[pid], trial.country)
                line.dwell(params.fixation_min, DocumentGaze(cat_of[pid], wrow, wcol))
                opens.append(
                    OpenEvent(line.cursor, cat_of[pid], trial.country, wrow, wcol, False)
                )
            continue
        # on the target panel: grid acquisition, then the cell
        line.dwell(params.per_cell_scan_time, PanelGaze(target_cat))
        if not params.known_grid:
            for idx in range(row * GRID_COLS + col):
                r, c = divmod(idx, GRID_COLS)
                line.dwell(params.per_cell_scan_time, DocumentGaze(target_cat, r, c))
        t_fix = line.cursor
        confirm = params.fixation_min
        jitter = rng.uniform(0.0, params.dwell_jitter_s) if params.dwell_jitter_s > 0 else 0.0
        line.dwell(confirm + jitter, DocumentGaze(target_cat, row, col))
        t_open = t_fix + confirm
        opens.append(OpenEvent(t_open, target_cat, trial.country, row, col, True))
        return line.segments, opens, t_open, line.gaze_dir

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
