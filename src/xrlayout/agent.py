"""Deterministic synthetic gaze agent and session simulation.

The agent replays a scenario and produces what an eye tracker would have
logged: a gaze-target segment timeline (exact boundaries), a fixed-rate
sample stream derived from it, and document open events.  A trace depends
only on (scenario, strategy, agent params, seed); two runs with identical
inputs produce bit-identical traces.

A session runs in phases on one simulator, _Simulator: per trial an idle
approach to the scripted focus, the question, and the search
(search_and_open), then a settle tail.  Panels are placed by one path:
each session calls its strategy's direct placement function from
placement.py (environment-referenced through the session's own
EnvironmentReferencedPlacer, which holds the last pose on degenerate
frames; world-fixed as the body-fixed layout at t = 0).  Gaze segments are
laid down by one emitter, _Timeline.

Only the agent's RNG depends on the seed, and a seed sweep runs many
sessions on one Scenario object.  So the sessions share a session plan
(_SessionPlan, derived state of the scenario; see Scenario._derived) of
every value pure in (scenario, strategy, scripted time): scene states,
panel poses, the scripted focus with its head position and gaze point,
head turns and scan-route sort keys.  Plan use is decided once per
session: simulate_session runs the session on the plan, reading and
filling it, and a first step off the script (a scene query at a time that
is not scripted, a settle tail before the scene has settled among them, or
a degenerate placement) abandons that run and reruns the session from
t = 0 with no plan, computing every value by the same code and storing
nothing.  So a warm scripted session does only its per-seed work, and an
off-script session's trace and warnings are by construction those of a
run with no plan, whether the plan was cold or warm.

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

These parameters, with the tick rate, the dwell jitter and the seed, make
an AgentParams.  It is defined in scenario.py with the rows of the .scn
agent block, which builds one per scenario (Scenario.agent); a session runs
under it unless the caller passes its own.  They are free parameters of
this model, which no participant data fixes; participant scan order, for
one, was not recorded.  A trace carries its AgentParams, but run outputs
(results files, gaze exports) do not carry scan_policy yet, so results
cannot be read against it from the files alone.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Mapping

from .errors import DegenerateIntermediary, WarningEvent
from .frames import USER_BODY, USER_HEAD, SceneState
from .geometry import Pose, Vec3, _value_type, angle_between
from .placement import (
    EnvironmentReferencedPlacer,
    Strategy,
    place_body_fixed,
    place_head_fixed,
    place_object_fixed,
)
from .scenario import (
    _TICK_RATE,
    GRID_COLS,
    AgentParams,
    Scenario,
    Trial,
    grid_cell,
)

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

_NO_GAZE = NoGaze()


def panel_category_of(target: GazeTarget) -> str | None:
    """Panel a gaze target lies on, for switch counting; None off-panel."""
    return target.category if isinstance(target, (PanelGaze, DocumentGaze)) else None


@dataclass(frozen=True)
class GazeSample:
    t: float
    target: GazeTarget


@_value_type
class GazeSegment:
    """Half-open span [t0, t1) of constant gaze target.

    Built for every step of every session, so it follows the geometry.Vec3
    recipe, _value_type.
    """

    t0: float
    t1: float
    target: GazeTarget

    def __init__(self, t0: float, t1: float, target: GazeTarget):
        _set_t0(self, t0)
        _set_t1(self, t1)
        _set_target(self, target)


_set_t0, _set_t1, _set_target = (
    GazeSegment.t0.__set__,
    GazeSegment.t1.__set__,
    GazeSegment.target.__set__,
)


@dataclass(frozen=True)
class OpenEvent:
    t: float
    category: str
    country: str
    row: int
    col: int
    correct: bool


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
    params: AgentParams  # the agent that produced the trace; scoring reads it


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

        Tick k, at k * (1 / hz), samples the segment in force then; there
        are ceil(duration * hz) ticks, at least one.  tick_hz=None uses the
        session's params rate; every rate must pass the tick_hz row's kind,
        as AgentParams.tick_hz does, else ValueError.  The CLI's gaze
        export, metrics.gaze_to_csv, writes this stream run by run from the
        same runs, without building the samples.
        """
        grid, _, runs = self._tick_runs(tick_hz)
        times = grid.times
        return [GazeSample(times[k], target) for a, b, target in runs for k in range(a, b)]

    def _tick_runs(self, tick_hz: float | None) -> tuple[_TickGrid, int, list[tuple]]:
        """(grid, n, runs): the n ticks as runs (a, b, target), ticks a..b-1 on target.

        A segment holds the ticks from where the previous one stopped up to
        its end t1 (bisect_left: a tick at t1 belongs to the next segment),
        and the last segment takes the rest.  Empty runs are left out.
        """
        hz = self.params.tick_hz if tick_hz is None else tick_hz
        _TICK_RATE.require("tick_hz", hz)
        n = max(1, int(math.ceil(self.duration * hz)))
        grid = _tick_grid(hz, n)
        times = grid.times_to(n)
        runs = []
        a = 0
        last = len(self.segments) - 1
        for i, seg in enumerate(self.segments):
            b = n if i == last else bisect_left(times, seg.t1, a, n)
            if b > a:
                runs.append((a, b, seg.target))
                a = b
        return grid, n, runs


class _TickGrid:
    """Tick times k * (1 / hz) of one rate, and their repr, grown on demand."""

    def __init__(self, hz: float):
        self.dt = 1.0 / hz
        self.times: list[float] = []
        self.text: list[str] = []

    def times_to(self, n: int) -> list[float]:
        """The grid's times, at least n of them."""
        times, dt = self.times, self.dt
        if len(times) < n:
            times.extend([k * dt for k in range(len(times), n)])
        return times

    def text_to(self, n: int) -> list[str]:
        """repr of the grid's times, at least n of them (times_to(n) ran first)."""
        text = self.text
        if len(text) < n:
            text.extend(map(repr, self.times[len(text) : n]))
        return text


# Every session sampled at one rate shares that rate's grid, so a process
# computes and formats each tick time once.  A process uses a rate or two
# (the params rate, --tick-hz); beyond _TICK_GRID_RATES rates the oldest
# grid is dropped, and a stream longer than _TICK_GRID_TICKS (about 12 MB
# of times and text) gets a grid of its own, so neither many rates nor a
# high one keeps memory after the export.
_TICK_GRIDS: dict[float, _TickGrid] = {}
_TICK_GRID_RATES = 4
_TICK_GRID_TICKS = 1 << 17


def _tick_grid(hz: float, n: int) -> _TickGrid:
    if n > _TICK_GRID_TICKS:
        return _TickGrid(hz)
    grid = _TICK_GRIDS.get(hz)
    if grid is None:
        if len(_TICK_GRIDS) >= _TICK_GRID_RATES:
            del _TICK_GRIDS[next(iter(_TICK_GRIDS))]
        grid = _TICK_GRIDS[hz] = _TickGrid(hz)
    return grid


def _stable_seed(*parts: object) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- simulation --------------------------------------------------------------


# Scripted query times sit this far before each trial's window opens, so
# the idle approach sees the scene just before the question starts.
IDLE_LEAD_S = 1e-6

# Plan keys of the gaze direction every session starts with and of the
# settle tail's state, poses and aim; every other key is built from plan
# times.
_START = "start"
_TAIL = "tail"
# Default of a plan lookup: None is a stored value (a turn toward a point
# at the head).
_MISS = object()


class _SessionPlan:
    """Seed-free work of one scenario's sessions, shared by all of them.

    Only the agent's RNG depends on the seed; every other value a session
    computes on its script is pure in (scenario, strategy, scripted time),
    so the plan keeps it, filled lazily as sessions first ask for it.  Its
    keys are plan times and symbolic steps, never object identities or
    seed-dependent floats:

      * a plan time is a scripted query time: 0.0 and, for each trial, the
        instant IDLE_LEAD_S before its window, its question start and its
        question complete.  _TAIL names the settle tail, which starts once
        the scene has stopped (past rest, the last waypoint time of any
        trajectory, state_at(t) has the poses of state_at(rest) bit for
        bit) and the last question has started (settled);
      * states: plan time or _TAIL -> scene state;
      * poses[strategy]: plan time or _TAIL -> panel poses;
      * aims: (plan time or _TAIL, presenting) -> (focus, head position,
        gaze point);
      * turns[strategy]: (from, to) -> (degrees, end direction) of a head
        turn between two named gaze points, or None when the point is at
        the head; an aim is named by its key, a panel seen from a plan time
        by (time, panel id), the start direction by _START;
      * scan_keys[strategy]: (policy, from, plan time) -> the seed-free
        sort keys of a scan route (_scan_keys).

    Plan use is decided once per session: a session reads and fills the
    tables until its first step off the script, which is a scene query at
    a time that is not a plan time (where a cursor that overran its
    scripted time lands; a settle tail before settled queries at its own
    start, which is later than every plan time), or a degenerate
    environment-referenced placement (hold-last depends on the session's
    own history there).  That step raises _OffScript, and simulate_session
    reruns the whole session with no tables, so nothing off the script is
    stored.  So the plan stays bounded by the scripted times however many
    seeds run, and a session gives the same trace and warnings whether the
    plan was cold or warm.  The plan holds no reference to its scenario;
    callers pass it.  It is derived state of the scenario (see
    Scenario._derived).
    """

    def __init__(self, scenario: Scenario):
        times = {0.0}
        for trial in scenario.trials:
            t0 = trial.question_start
            times.update((t0 - IDLE_LEAD_S, t0, trial.question_complete))
        self.times = frozenset(times)
        self.rest = max(
            [traj.waypoints[-1].time for traj in scenario.trajectories.values()], default=0.0
        )
        self.settled = max([self.rest, *(trial.question_start for trial in scenario.trials)])
        self.states: dict[object, SceneState] = {}
        self.aims: dict[tuple, tuple[GazeTarget, Vec3, Vec3]] = {}
        self.poses: dict[Strategy, dict[object, dict[str, Pose]]] = {
            strategy: {} for strategy in Strategy
        }
        self.turns: dict[Strategy, dict[tuple, tuple[float, Vec3] | None]] = {
            strategy: {} for strategy in Strategy
        }
        self.scan_keys: dict[Strategy, dict[tuple, tuple]] = {
            strategy: {} for strategy in Strategy
        }
        self.panel_by_category = {
            scenario.panels[pid].content.topic: pid for pid in scenario.panels
        }
        self.category_of = {pid: c for c, pid in self.panel_by_category.items()}


def _planned(table: dict | None, key, compute):
    """table[key], computed by compute() and stored on a miss; no table: compute()."""
    if table is None:
        return compute()
    value = table.get(key, _MISS)
    if value is _MISS:
        value = table[key] = compute()
    return value


def _turn(gaze_dir: Vec3, head: Vec3, point: Vec3) -> tuple[float, Vec3] | None:
    """(degrees, end direction) of turning gaze_dir toward point from head.

    None when point is at the head: there is no direction to turn to.
    """
    d = point - head
    if d.norm() < 1e-9:
        return None
    return math.degrees(angle_between(gaze_dir, d)), d.normalized()


class _Timeline:
    """Gaze segments laid end to end from a cursor, plus the gaze direction.

    The gaze starts at 0.0 facing forward (-z); facing is the plan key of
    the gaze direction, turns the plan's head-turn table (None in a
    session run without the plan).
    """

    def __init__(self, yaw_rate_deg_s: float, turns: dict):
        self.segments: list[GazeSegment] = []
        self.cursor = 0.0
        self.gaze_dir = Vec3(0.0, 0.0, -1.0)
        self.facing = _START
        self.yaw_rate_deg_s = yaw_rate_deg_s
        self.turns = turns

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

    def travel(self, head: Vec3, point: Vec3, key, deadline: float | None = None) -> None:
        """Turn the gaze from head toward point, gazing at nothing meanwhile.

        The turn takes the geodesic angle at yaw_rate_deg_s, cut short at
        deadline; the gaze direction ends on point either way.  key is the
        plan key of (head, point).
        """
        turn = _planned(self.turns, (self.facing, key), lambda: _turn(self.gaze_dir, head, point))
        if turn is None:
            return
        degrees, self.gaze_dir = turn
        self.facing = key
        dt = degrees / self.yaw_rate_deg_s
        if deadline is not None:
            dt = min(dt, max(0.0, deadline - self.cursor))
        if dt > 1e-12:
            self.segments.append(GazeSegment(self.cursor, self.cursor + dt, _NO_GAZE))
            self.cursor += dt


def _direct_placement(strategy: Strategy, scenario: Scenario):
    """A stateless strategy's placement as a function of the scene state.

    World-fixed panels freeze at the session-start body-fixed arrangement
    (there is no other sensible world pose to give them from a scenario
    authored for adaptive strategies): their placement ignores the state.
    """
    params = scenario.params
    if strategy is Strategy.OBJECT_FIXED:
        return partial(place_object_fixed, intermediaries=scenario.intermediaries, params=params)
    if strategy is Strategy.WORLD_FIXED:
        return lambda state: place_body_fixed(
            scenario.state_at(0.0), scenario.body_bearings, params
        )
    place = place_head_fixed if strategy is Strategy.HEAD_FIXED else place_body_fixed
    return partial(place, bearings=scenario.body_bearings, params=params)


class _OffScript(Exception):
    """A session on the plan stepped off the script; simulate_session reruns it."""


class _Simulator:
    def __init__(
        self,
        scenario: Scenario,
        params: AgentParams,
        strategy: Strategy,
        seed: int,
        on_plan: bool = True,
    ):
        self.scn = scenario
        self.params = params
        self.strategy = strategy
        self.seed = seed
        self.rng = random.Random(_stable_seed(seed, scenario.name, strategy.value))
        self.plan = plan = scenario._derived(_SessionPlan)
        # The session's plan tables; with none, _planned computes every value.
        tables = (plan.states, plan.aims, plan.poses[strategy], plan.scan_keys[strategy])
        self.states, self.aims, self.poses, self.scan_keys = tables if on_plan else (None,) * 4
        self.warnings: list[WarningEvent] = []
        if strategy is Strategy.ENVIRONMENT_REFERENCED:
            placer = EnvironmentReferencedPlacer(scenario.intermediaries, scenario.params)
            self.warnings = placer.warnings
            self.place = placer.place
        else:
            self.place = _direct_placement(strategy, scenario)
        self.line = _Timeline(params.yaw_rate_deg_s, plan.turns[strategy] if on_plan else None)
        self.opens: list[OpenEvent] = []
        self.panel_by_category = plan.panel_by_category
        # Where the panel sits is known without a header search: given by
        # its intermediary, or recalled in the static stationary room.
        self.direct = strategy in (Strategy.ENVIRONMENT_REFERENCED, Strategy.OBJECT_FIXED) or (
            scenario.context == "static_stationary"
        )

    def _state(self, t: float, at) -> SceneState:
        """Scene state at t (plan key at); the tail's comes back under t (warnings read it)."""
        state = _planned(self.states, at, partial(self.scn.state_at, t))
        return state if state.time == t else SceneState(t, state.poses)

    def _scene_at(self, t: float, at) -> tuple[SceneState, dict[str, Pose]]:
        """(scene state, panel poses) at t, whose plan key at is t or _TAIL.

        On the plan, a step off the script raises _OffScript: a time that
        is not a plan time (run keys a settle tail that starts before
        settled by its time, so it is one), or a degenerate placement.  The
        environment-referenced placer holds the last pose there, or raises
        DegenerateIntermediary with nothing to hold, so its result depends
        on the session's history, which plan hits do not feed.  Elsewhere
        the placement is pure in the state.
        """
        if self.poses is None:
            state = self._state(t, at)
            return state, self.place(state)
        if at is not _TAIL and at not in self.plan.times:
            raise _OffScript
        state = self._state(t, at)
        poses = self.poses.get(at)
        if poses is None:
            held = len(self.warnings)
            try:
                poses = self.place(state)
            except DegenerateIntermediary:
                raise _OffScript from None
            if len(self.warnings) > held:
                raise _OffScript
            self.poses[at] = poses
        return state, poses

    def _gaze_point(self, state: SceneState, target: ScreenGaze | IntermediaryGaze) -> Vec3:
        """Where the eyes rest on a scripted focus (what focus_target returns)."""
        if isinstance(target, ScreenGaze):
            screen = next(e for e in self.scn.entities if e.kind == "screen")
            return state.pose_of(screen.id).position
        return state.pose_of(target.entity_id).position + Vec3(0.0, GAZE_HEIGHT_M, 0.0)

    # -- phases ---------------------------------------------------------

    def run(self) -> SessionTrace:
        scn = self.scn
        line = self.line
        trial_traces: list[TrialTrace] = []
        for trial in scn.trials:
            t0 = trial.question_start
            seg_start = len(line.segments)
            self._idle_phase(t0)
            self._question_phase(trial)
            t_open = search_and_open(self, trial)
            trial_traces.append(
                TrialTrace(
                    trial=trial,
                    t_complete=trial.question_complete,
                    t_open=t_open,
                    segments=[
                        s for s in line.segments[seg_start:] if s.t1 > t0
                    ],
                    opens=[o for o in self.opens if t0 <= o.t <= line.cursor],
                    params=self.params,
                )
            )
        # settle tail so the final fixation has somewhere to live
        t = line.cursor
        line.dwell(2.0, self._look(t, _TAIL if t >= self.plan.settled else t, t))
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

    def _look(self, t: float, at, answered_at: float | None, deadline: float | None = None):
        """Turn toward the scripted focus at t (plan key at); returns the focus.

        The question phase passes answered_at None: it presents the question.
        """
        state, _ = self._scene_at(t, at)  # placed here too: hold-last reads every placement

        def aim():
            focus = focus_target(state, self.scn, t, answered_at=answered_at)
            return focus, state.pose_of(USER_HEAD).position, self._gaze_point(state, focus)

        key = (at, answered_at is None)
        focus, head, point = _planned(self.aims, key, aim)
        self.line.travel(head, point, key, deadline)
        return focus

    def _idle_phase(self, until: float) -> None:
        line = self.line
        if until <= line.cursor:
            return
        t = max(line.cursor, until - IDLE_LEAD_S)
        # at or after the cursor, so answered whatever the cursor was
        line.until(until, self._look(t, t, line.cursor, deadline=until))

    def _question_phase(self, trial: Trial) -> None:
        t = trial.question_start
        focus = self._look(t, t, None, deadline=trial.question_complete)
        self.line.until(trial.question_complete, focus)


def search_and_open(sim: _Simulator, trial: Trial) -> float:
    """Post-question navigation for one trial of a session.

    Finds the category panel, then the country document, and opens it:
    lays the segments onto the session's timeline from its cursor, records
    the open events, and returns the time of the correct open.  The cursor
    must be at or after the question's full presentation; the agent never
    touches a document earlier than that.
    """
    line, params, rng = sim.line, sim.params, sim.rng
    at = line.cursor
    state, panels = sim._scene_at(at, at)
    head = state.pose_of(USER_HEAD).position

    target_cat = trial.category
    target_pid = sim.panel_by_category[target_cat]
    row, col = grid_cell(target_cat, trial.country)
    cat_of = sim.plan.category_of

    if sim.direct:
        route = [target_pid]
    else:
        policy = params.scan_policy
        keys = _planned(
            sim.scan_keys,
            (policy, line.facing, at),
            lambda: _scan_keys(panels, head, line.gaze_dir, policy),
        )
        route = _scan_route(keys, target_pid, params, rng)

    for pid in route:
        line.travel(head, panels[pid].position, (at, pid))
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
                sim.opens.append(
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
        sim.opens.append(OpenEvent(t_open, target_cat, trial.country, row, col, True))
        return t_open


def _scan_keys(panels: Mapping[str, Pose], head: Vec3, cur_dir: Vec3, policy: str) -> tuple:
    """Seed-free part of a scan route: the panel ids with their sort keys.

    random_seeded: the ids, in sorted order, for the seeded shuffle.
    nearest_panel_first: (rounded deviation from cur_dir, id) in sorted id
    order; seeded draws break the ties.  bearing_order: the whole route,
    by horizontal angle from the current heading, nearest absolute bearing
    first, leftward on ties.
    """
    pids = sorted(panels)
    if policy == "random_seeded":
        return tuple(pids)
    if policy == "nearest_panel_first":
        return tuple(
            (round(angle_between(cur_dir, panels[pid].position - head), 9), pid) for pid in pids
        )

    def signed_bearing(pid: str) -> float:
        v = (panels[pid].position - head).horizontal()
        f = cur_dir.horizontal()
        ang = math.degrees(angle_between(f, v))
        side = f.cross(v).y  # +y cross means target is to the left here
        return -ang if side > 0 else ang

    return tuple(
        sorted(pids, key=lambda p: (round(abs(signed_bearing(p)), 9), signed_bearing(p)))
    )


def _scan_route(keys: tuple, target_pid: str, params: AgentParams, rng: random.Random) -> list[str]:
    """Candidate visiting order, cut after the target (every panel is a candidate)."""
    if params.scan_policy == "random_seeded":
        order = list(keys)
        rng.shuffle(order)
    elif params.scan_policy == "nearest_panel_first":
        # ties (symmetric left/right layouts) break by seeded draw, one per
        # panel in sorted id order; ids are distinct, so sorting the triples
        # orders exactly as a stable sort on (deviation, draw) would
        order = [pid for _, _, pid in sorted((dev, rng.random(), pid) for dev, pid in keys)]
    else:
        order = list(keys)
    return order[: order.index(target_pid) + 1]


def simulate_session(
    scenario: Scenario,
    params: AgentParams | None = None,
    *,
    strategy: Strategy | str | None = None,
    seed: int | None = None,
) -> SessionTrace:
    """Run one full session; the core entry point for batch runs.

    params defaults to scenario.agent, its file's agent block; seed (when given)
    overrides the params seed so batch sweeps can share scenario files.
    strategy may be a value string ("head_fixed"); an unknown one raises ValueError.
    A session that steps off the script is run again without the session
    plan (see _SessionPlan), so its trace is that of a run with no plan.
    """
    if params is None:
        params = scenario.agent
    if seed is not None:
        params = params._with_seed(seed)
    strategy = scenario.strategy if strategy is None else Strategy(strategy)
    try:
        return _Simulator(scenario, params, strategy, params.seed).run()
    except _OffScript:
        return _Simulator(scenario, params, strategy, params.seed, on_plan=False).run()
