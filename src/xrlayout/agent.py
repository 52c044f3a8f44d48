"""Deterministic synthetic gaze agent and session simulation.

The agent replays a scenario and produces what an eye tracker would have
logged: a gaze-target segment timeline (exact boundaries), a fixed-rate
sample stream derived from it, and document open events.  A trace depends
only on (scenario, strategy, agent params, seed); two runs with identical
inputs produce bit-identical traces.

A session is one walk on one simulator, _Simulator.run: per trial an idle
approach to the scripted focus, the question, and the search
(search_and_open), then a settle tail, with the cursor, facing and gaze
direction in the walk's locals.  Panels are placed by one path: each
session places by placement.session_placement(strategy, scenario), the one
map from a strategy to its direct placement function
(environment-referenced through the session's own
EnvironmentReferencedPlacer, which holds the last pose on degenerate
frames; world-fixed as the body-fixed layout at t = 0), built on the
session's first scene query.  The walk lays the idle and settle segments
and each confirming dwell itself; plan entries are laid on a _Timeline.

Only the agent's RNG depends on the seed, and a seed sweep runs many
sessions on one Scenario object.  So the sessions share a session plan
(_SessionPlan, derived state of the scenario; see Scenario._derived), a
graph of whole scripted steps, each pure in (scenario, strategy, scripted
time).  Its nodes are trial entries, laid from the question start and
keyed by trial index and facing: the question phase (its segments), the
scene and the scan route's sort keys where the search starts.  Its edges
are a node's searches by drawn route and confusion flags (their segments
and opens up to the fixation).  The first walk of an edge links it to what
follows: the idle look at the next question's lead (its focus and head
turn) with the next trial entry, or the settle tail's look.  A step that
misses computes its scene state, panel placement and focus afresh; only
trial entries keep a scene.  Plan use is decided once per session:
simulate_session walks the session on the plan, reading and filling it,
and a first step off the script (an idle phase that starts past the
question's lead after a search, a question phase that does not start at
its question start, a settle tail before the scene has settled, a scene
query at a time that is not scripted, or a degenerate placement) abandons
that walk and reruns the session from t = 0 with no plan, computing every
value by the same code and storing nothing.  So a warm scripted trial is its draws, one
edge lookup, at most three new segments (the idle turn, cut at the
question start from the cursor that the jitter moved, the idle hold and
the jittered confirming dwell) and its TrialTrace.  An off-script
session's trace and warnings are by construction those of a run with no
plan, whether the plan was cold or warm.  A trial trace laid on the plan
points at its plan entries, so metrics.session_metrics scores each search
entry once and hands the row to the warm trials it provably holds for.

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

What the seed varies
--------------------

The seed (with the scenario name and the strategy) seeds the agent's RNG
and nothing else, and the agent draws from it only in search_and_open:

  * under every policy, one dwell jitter per trial when dwell_jitter_s is
    positive.  It lengthens the confirming dwell after the open time is
    scored, so it moves the gaze stream, not the open;
  * nearest_panel_first (the default): one draw per panel of a visual
    search, which only breaks ties between panels at equal deviation
    from the gaze (a symmetric left/right layout).  A search without a
    tie takes one route for every seed;
  * bearing_order: nothing more; the route is seed-free;
  * random_seeded: a shuffle of the panels of a visual search, and a
    confusion draw per rejected panel (a wrong open with probability
    confusion_prob).

A direct-placed session (environment-referenced, object-fixed, or any
strategy in the static stationary room) searches no route.  So at default
AgentParams its metrics are one vector for every seed, and a visual-search
session's are at most 2 ** trials vectors, one per way its tied searches
fall.  Over seeds 1-100 the bundled sessions give 1, 2, 4, 8 or 16
(tests/test_agent.py, TestWhatTheSeedVaries).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Mapping

try:  # hashlib is heavy to load (it maps OpenSSL); the builtin sha256 module is lean
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .errors import DegenerateIntermediary, WarningEvent, record
from .frames import USER_BODY, USER_HEAD, SceneState
from .geometry import Pose, Vec3, angle_between
from .placement import INTERMEDIARY_PLACED, session_placement
from .scenario import (
    _TICK_RATE,
    GRID_COLS,
    AgentParams,
    Scenario,
    Strategy,
    Trial,
    grid_cell,
)

# Vertical offset from an intermediary's floor anchor to where people
# actually look at it (a host's face, a poster's center).
GAZE_HEIGHT_M = 1.5


# -- gaze targets ------------------------------------------------------------


@record(frozen=True)
class NoGaze:
    """Saccade / head travel; the gaze is on nothing in particular."""


@record(frozen=True)
class ScreenGaze:
    pass


@record(frozen=True)
class IntermediaryGaze:
    entity_id: str


@record(frozen=True, slots=True)
class PanelGaze:
    category: str


@record(frozen=True, slots=True)
class DocumentGaze:
    category: str
    row: int
    col: int


GazeTarget = NoGaze | ScreenGaze | IntermediaryGaze | PanelGaze | DocumentGaze

_NO_GAZE = NoGaze()


@record(frozen=True)
class GazeSample:
    t: float
    target: GazeTarget


@record(frozen=True, slots=True)
class GazeSegment:
    """Half-open span [t0, t1) of constant gaze target.

    Built for every step of every session, so it is a slotted record with
    its own __init__, as geometry.Vec3 is.
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
_segment_end = attrgetter("t1")


@record(frozen=True, slots=True)
class OpenEvent:
    t: float
    category: str
    country: str
    row: int
    col: int
    correct: bool


_open_time = attrgetter("t")


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


# A session builds one SessionTrace and a TrialTrace per trial, so both
# write their __init__ out.


@record
class TrialTrace:
    trial: Trial
    t_complete: float  # question fully presented
    t_open: float | None  # correct document opened
    segments: list[GazeSegment]  # slice covering [question_start, dwell end]
    opens: list[OpenEvent]
    params: AgentParams  # the agent that produced the trace; scoring reads it

    # A trace laid on the session plan: (its question entry's segments, its
    # search entry), whose score slot metrics.session_metrics reads and
    # fills.  It is not a field, so eq, repr, fields() and replace() ignore
    # it, and a pickle or copy leaves it out.
    _plan = None

    def __init__(self, trial, t_complete, t_open, segments, opens, params):
        self.trial, self.t_complete, self.t_open = trial, t_complete, t_open
        self.segments, self.opens, self.params = segments, opens, params

    def __getstate__(self):
        state = vars(self).copy()
        state.pop("_plan", None)
        return state


@record
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

    def __init__(
        self, scenario_name, context, strategy, params, seed, trials, segments, warnings, duration
    ):
        self.scenario_name, self.context, self.strategy = scenario_name, context, strategy
        self.params, self.seed, self.trials = params, seed, trials
        self.segments, self.warnings, self.duration = segments, warnings, duration

    def tick_samples(self, tick_hz: float | None = None) -> list[GazeSample]:
        """Fixed-rate stream over the whole session (strictly increasing t).

        Tick k, at k * (1 / hz), samples the segment in force then; there
        are ceil(duration * hz) ticks, at least one.  tick_hz=None uses the
        session's params rate; every rate must pass the tick_hz row's kind,
        as AgentParams.tick_hz does, else ValueError.  The CLI's gaze
        export, metrics.gaze_csv_chunks, writes this stream run by run from
        the same runs, without building the samples.
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
    """Tick times k * (1 / hz) of one rate, grown on demand, and their repr:
    kept and grown with them on a shared grid, formatted afresh on a private one."""

    def __init__(self, hz: float, shared: bool):
        self.dt = 1.0 / hz
        self.times: list[float] = []
        self.text: list[str] | None = [] if shared else None

    def times_to(self, n: int) -> list[float]:
        """The grid's times, at least n of them."""
        times, dt = self.times, self.dt
        if len(times) < n:
            times.extend([k * dt for k in range(len(times), n)])
        return times

    def text_of(self, a: int, b: int) -> list[str]:
        """repr of the times of ticks a..b-1 (times_to(b) ran first)."""
        text = self.text
        if text is None:
            return list(map(repr, self.times[a:b]))
        if len(text) < b:
            text.extend(map(repr, self.times[len(text) : b]))
        return text[a:b]


# Every session sampled at one rate shares that rate's grid, so a process
# computes and formats each tick time once.  A process uses a rate or two
# (the params rate, --tick-hz); beyond _TICK_GRID_RATES rates the oldest
# grid is dropped, and a stream longer than _TICK_GRID_TICKS (about 12 MB
# of times and text) gets a private grid, which keeps no text, so neither
# many rates nor a high one keeps memory after the export.
_TICK_GRIDS: dict[float, _TickGrid] = {}
_TICK_GRID_RATES = 4
_TICK_GRID_TICKS = 1 << 17


def _tick_grid(hz: float, n: int) -> _TickGrid:
    if n > _TICK_GRID_TICKS:
        return _TickGrid(hz, shared=False)
    grid = _TICK_GRIDS.get(hz)
    if grid is None:
        if len(_TICK_GRIDS) >= _TICK_GRID_RATES:
            del _TICK_GRIDS[next(iter(_TICK_GRIDS))]
        grid = _TICK_GRIDS[hz] = _TickGrid(hz, shared=True)
    return grid


def _stable_seed(*parts: object) -> int:
    digest = sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- simulation --------------------------------------------------------------


# Scripted query times sit this far before each trial's window opens, so
# the idle approach sees the scene just before the question starts.
IDLE_LEAD_S = 1e-6

# Plan key of the gaze direction every session starts with, and the scene
# key of the settle tail; every other key is built from plan times.
_START = "start"
_TAIL = "tail"


class _SessionPlan:
    """Seed-free work of one scenario's sessions, shared by all of them.

    Only the agent's RNG depends on the seed; every other value a session
    computes on its script is pure in (scenario, strategy, scripted time),
    so the plan keeps whole scripted steps as a graph that sessions walk,
    filled lazily as they first take each step.  A step that misses
    computes its scene state, panel placement and focus afresh; the plan
    stores no scene but the one a trial entry holds for its searches.  Its
    keys are plan times and symbolic steps, never object identities or
    seed-dependent floats:

      * a plan time is a scripted query time: 0.0 and, for each trial, its
        lead (the instant IDLE_LEAD_S before its window), its question
        start and its question complete.  _TAIL names the settle tail's
        scene, which starts once the scene has stopped (past rest, the last
        waypoint time of any trajectory, state_at(t) has the poses of
        state_at(rest) bit for bit) and the last question has started
        (settled);
      * a gaze direction is named by the point it was turned to: a look by
        its aim (plan time, presenting), a panel seen from a plan time by
        (time, panel id), the start direction by _START;
      * nodes: trials[(strategy, scan_policy, yaw_rate_deg_s, fixation_min,
        per_cell_scan_time, known_grid)] maps (trial index, facing at the
        question start) to a trial entry laid from its question start
        (_Simulator._question): the question phase with the gaze after it;
        the scene and the seed-free scan route keys (_scan_keys) at its
        end, where the search starts; and its edges.  The agent parameters
        that shape the entries pick the table;
      * edges: a trial entry's searches by (route, confusion flags)
        (_search), each the segments up to the fixation, the wrong opens,
        the fixation time, the end facing and gaze direction, the wanted
        document and the correct open; a score slot, the trial's metrics,
        which metrics.session_metrics computes once from the entry and
        hands to every trace laid on it that it proves they hold for; and
        a link;
      * links: the first walk of an edge stores what follows it: the idle
        look at the next question's lead (its focus and the length of its
        turn) with the next trial entry, or, after the last trial, the
        settle tail's look.  That is pure in the direction the edge ends
        facing, so a new edge takes the link of a sibling that ends facing
        the same way (every route of a trial ends on its target panel).
        starts[shape] holds the link from the session start to trial 0,
        whose cursor is 0.0 in every session: (None, None, entry) when
        trial 0 is asked at 0.0 and there is no idle phase.

    Plan use is decided once per session: a session walks and fills the
    plan until its first step off the script, which is an idle phase whose
    cursor is past the question's lead after a search (the jitter moves a
    search's end, so its link would not hold for every session), a
    question phase whose cursor is not its question start, a settle tail
    before settled, a scene query at a time that is not a plan time, or a
    degenerate environment-referenced placement (hold-last depends on the
    session's own history there).  That step raises _OffScript, and
    simulate_session reruns the whole session with no plan, so nothing off
    the script is stored.  Each such step is off the script in a run with
    no plan too, except in rare cases (a search that ends exactly at the
    next question start, a cursor that lands on a plan time), where the
    rerun is still the run with no plan.  An entry or link is stored only
    after its scene queries passed, so a walk along it, which skips them,
    is on the script too.  So the plan stays bounded by the scripted times
    however many seeds run, and a session gives the same trace and
    warnings whether the plan was cold or warm.  The plan holds no
    reference to its scenario; callers pass it.  It is derived state of
    the scenario (see Scenario._derived).
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
        self.trials: dict[tuple, dict[tuple, tuple]] = {}
        self.starts: dict[tuple, list] = {}
        self.panel_by_category = {
            scenario.panels[pid].content.topic: pid for pid in scenario.panels
        }
        self.category_of = {pid: c for c, pid in self.panel_by_category.items()}


def _turn(gaze_dir: Vec3, head: Vec3, point: Vec3) -> tuple[float, Vec3] | None:
    """(degrees, end direction) of turning gaze_dir toward point from head.

    None when point is at the head: there is no direction to turn to.
    """
    d = point - head
    if d.norm() < 1e-9:
        return None
    return math.degrees(angle_between(gaze_dir, d)), d.normalized()


_FORWARD = Vec3(0.0, 0.0, -1.0)


class _Timeline:
    """Gaze segments laid end to end from a cursor, plus the gaze direction.

    A plan entry is laid on one, from the walk's cursor, facing (the plan
    key of the gaze direction) and gaze direction.
    """

    def __init__(self, yaw_rate_deg_s: float, cursor: float, facing, gaze_dir: Vec3):
        self.segments: list[GazeSegment] = []
        self.cursor, self.facing, self.gaze_dir = cursor, facing, gaze_dir
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

    def turn(self, turn: tuple[float, Vec3] | None, key, deadline: float | None = None) -> None:
        """Take turn, a _turn result, toward the point named key, gazing at nothing meanwhile.

        The turn takes its angle at yaw_rate_deg_s, cut short at deadline;
        the gaze direction ends on the point either way.
        """
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


class _OffScript(Exception):
    """A session on the plan stepped off the script; simulate_session reruns it."""


class _Simulator:
    def __init__(
        self, scenario: Scenario, params: AgentParams, strategy: Strategy, seed: int, on_plan=True
    ):
        self.scn, self.params, self.strategy, self.seed = scenario, params, strategy, seed
        self.rng = random.Random(_stable_seed(seed, scenario.name, strategy.value))
        self.plan = plan = scenario._derived(_SessionPlan)
        # The session's node table and start link; with none, every value is computed.
        self.trials = self.start = None
        if on_plan:
            shape = (strategy, params.scan_policy, params.yaw_rate_deg_s, params.fixation_min)
            shape += (params.per_cell_scan_time, params.known_grid)
            self.trials = plan.trials.setdefault(shape, {})
            self.start = plan.starts.setdefault(shape, [None])
        # placed from the first scene query (_scene_at), which a warm session never makes
        self.place, self.warnings = None, []
        self.segments, self.opens = [], []  # the session's, which search_and_open extends
        self.panel_by_category = plan.panel_by_category

    def _scene_at(self, t: float, at) -> tuple[SceneState, dict[str, Pose]]:
        """(scene state, panel poses) at t, whose plan key at is t or _TAIL.

        The state is scn.state_at(t), placed by the session's own placer;
        nothing here is stored.  On the plan, a step off the script raises
        _OffScript: a time that is not a plan time, or a degenerate
        placement.  The environment-referenced placer holds the last pose
        there, or raises DegenerateIntermediary with nothing to hold, so its
        result depends on the session's history, and an entry or link
        computed from it would carry that history to other sessions.
        Elsewhere the placement is pure in the state.
        """
        if self.place is None:
            self.place, self.warnings = session_placement(self.strategy, self.scn)
        if self.trials is None:
            state = self.scn.state_at(t)
            return state, self.place(state)
        if at is not _TAIL and at not in self.plan.times:
            raise _OffScript
        state = self.scn.state_at(t)
        held = len(self.warnings)
        try:
            poses = self.place(state)
        except DegenerateIntermediary:
            raise _OffScript from None
        if len(self.warnings) > held:
            raise _OffScript
        return state, poses

    def run(self) -> SessionTrace:
        """Walk the session: per trial the idle look, question and search, then the settle tail.

        The cursor, facing and gaze direction live here.  The walk comes to
        each trial from an edge (the session start for trial 0): on the
        plan, a linked edge hands over the idle look and the trial entry,
        so a warm trial lays its idle turn and hold, the entry's question
        segments and, in search_and_open, its draws, one edge lookup and
        the confirming dwell.  An unlinked edge (the first walk, or a run
        with no plan) computes the look and looks the entry up by (trial
        index, facing), building it on a miss; on the plan both are stored.
        """
        scn, params, trials = self.scn, self.params, self.trials
        on = trials is not None
        yaw_rate = params.yaw_rate_deg_s
        segments, opens, traces = self.segments, self.opens, []
        cursor, facing, gaze_dir = 0.0, _START, _FORWARD
        edge = self.start if on else [None]  # what the walk comes from; its last item links
        for trial in scn.trials:
            t0 = trial.question_start
            # a search's end moves with the jitter; the start's cursor is 0.0 in every session
            if on and edge is not self.start and cursor > t0 - IDLE_LEAD_S:
                raise _OffScript  # the idle look would aim from the session's own cursor
            seg_start, link = len(segments), edge[-1]
            focus = turn_s = node = None
            if link is not None:
                focus, turn_s, node = link
            elif cursor < t0:  # the idle look: a turn to the scripted focus
                # at or after the cursor, so answered whatever the cursor was
                t = max(cursor, t0 - IDLE_LEAD_S)
                focus, turn = self._aim(t, t, cursor, gaze_dir)
                if turn is not None:
                    degrees, gaze_dir = turn
                    facing, turn_s = (t, False), degrees / yaw_rate
            if cursor < t0:  # the idle phase: the look's turn and its hold until t0
                if turn_s is not None:
                    dt = min(turn_s, t0 - cursor)  # the turn is cut at the question start
                    if dt > 1e-12:
                        segments.append(GazeSegment(cursor, cursor + dt, _NO_GAZE))
                        cursor += dt
                if t0 > cursor + 1e-12:
                    segments.append(GazeSegment(cursor, t0, focus))
                    cursor = t0
            if on and cursor != t0:
                raise _OffScript  # its segments would start at the session's own cursor
            # segments tile the session with positive lengths, so their ends
            # never decrease, and a question laid from t0 starts the slice
            first = len(segments) if cursor == t0 else None
            if node is None:
                key = trial.index, facing
                node = trials.get(key) if on else None
                if node is None:
                    node = self._question(trial, cursor, facing, gaze_dir)
                    if on:
                        trials[key] = node
                if on:
                    edge[-1] = focus, turn_s, node
            segments += node[0]
            edge = search_and_open(self, trial, node)
            facing, gaze_dir, opened = edge[3], edge[4], edge[6]
            cursor = segments[-1].t1
            if first is None:
                first = bisect_right(segments, t0, seg_start, key=_segment_end)
            # opens come in time order, none past the cursor: the trial's are those from t0 on
            k = bisect_left(opens, t0, key=_open_time)
            trace = TrialTrace(
                trial, trial.question_complete, opened.t, segments[first:], opens[k:], params
            )
            if on:
                trace._plan = node[0], edge
            traces.append(trace)
        # settle tail so the final fixation has somewhere to live
        if on and cursor < self.plan.settled:
            raise _OffScript  # its scene would be the session's own time
        link = edge[-1]
        if link is None:
            focus, turn = self._aim(cursor, _TAIL, cursor, gaze_dir)
            link = focus, None if turn is None else turn[0] / yaw_rate
            if on:
                edge[-1] = link
        focus, turn_s = link
        if turn_s is not None and turn_s > 1e-12:
            segments.append(GazeSegment(cursor, cursor + turn_s, _NO_GAZE))
            cursor += turn_s
        segments.append(GazeSegment(cursor, cursor + 2.0, focus))
        return SessionTrace(
            scn.name, scn.context, self.strategy, params, self.seed,
            traces, segments, list(self.warnings), cursor + 2.0
        )

    def _aim(self, t: float, at, answered_at: float | None, gaze_dir: Vec3):
        """(focus, turn) of a look at the scripted focus at t (scene key at) from gaze_dir.

        answered_at None presents the question.  An idle or settle look has
        answered_at at or before t, so its focus is the one outside
        questions; a turn is _turn's (degrees, end direction), or None.
        """
        state, _ = self._scene_at(t, at)  # placed here too: hold-last reads every placement
        focus = focus_target(state, self.scn, t, answered_at=answered_at)
        if isinstance(focus, ScreenGaze):
            screen = next(e for e in self.scn.entities if e.kind == "screen")
            point = state.pose_of(screen.id).position
        else:
            point = state.pose_of(focus.entity_id).position + Vec3(0.0, GAZE_HEIGHT_M, 0.0)
        return focus, _turn(gaze_dir, state.pose_of(USER_HEAD).position, point)

    def _question(self, trial: Trial, cursor: float, facing, gaze_dir: Vec3) -> tuple:
        """The trial entry: the question phase from the walk's gaze, and the search's start.

        Returns (segments, cursor, facing, gaze direction, scene, scan
        keys, searches): the question phase laid on a timeline of its own
        (a turn to the asker or the screen, cut at question complete, then
        the hold on it until then); the (state, panel poses) at its end,
        where the search starts; _scan_keys there, or None for a
        direct-placed session; and an empty dict that search_and_open
        fills by (route, confusion flags).
        """
        t, done = trial.question_start, trial.question_complete
        line = _Timeline(self.params.yaw_rate_deg_s, cursor, facing, gaze_dir)
        focus, turn = self._aim(t, t, None, gaze_dir)
        line.turn(turn, (t, True), done)
        line.until(done, focus)
        at = line.cursor
        scene = state, panels = self._scene_at(at, at)
        keys = None
        # Where the panel sits is known without a header search when its
        # intermediary gives it, or recalled in the static stationary room.
        if self.strategy not in INTERMEDIARY_PLACED and self.scn.context != "static_stationary":
            head = state.pose_of(USER_HEAD).position
            keys = _scan_keys(panels, head, line.gaze_dir, self.params.scan_policy)
        return tuple(line.segments), at, line.facing, line.gaze_dir, scene, keys, {}


def search_and_open(sim: _Simulator, trial: Trial, node: tuple) -> list:
    """Post-question navigation for one trial of a session.

    Finds the category panel, then the country document, and opens it:
    appends the segments to the session's, from where the trial's question
    phase ended, records the open events, and returns the search's plan
    entry (_search), which holds the correct open.  node is the trial's
    entry (_Simulator._question), which holds the scene and the scan keys
    there; the agent never touches a document before the question's full
    presentation.

    The RNG draws come first, in one order: the route's, then one
    confusion flag per rejected panel (random_seeded only), then the
    dwell jitter.  With the route and the flags drawn, the entry's search
    for them replays everything up to the fixation; only the jittered
    confirming dwell and the open are the session's own.  The search
    entry's score slot holds the trial's metrics once a session laid on it
    is scored: the jitter only lengthens the confirming dwell, which moves
    no metric (see metrics.session_metrics).
    """
    params, rng = sim.params, sim.rng
    keys, searches = node[5], node[6]
    target_pid = sim.panel_by_category[trial.category]
    route = (target_pid,) if keys is None else _scan_route(keys, target_pid, params, rng)
    # per rejected panel: whether the agent confuses it and opens its same-lettered cell
    confused = [False] * (len(route) - 1)
    if params.scan_policy == "random_seeded":
        for k in range(len(confused)):
            confused[k] = rng.random() < params.confusion_prob
    key = route, tuple(confused)
    search = searches.get(key)
    if search is None:
        search = searches[key] = _search(sim, trial, route, confused, node)
    segments, wrong, t_fix, _, _, wanted, opened, _, _ = search
    sim.segments += segments
    sim.opens += wrong
    jitter = rng.uniform(0.0, params.dwell_jitter_s) if params.dwell_jitter_s > 0 else 0.0
    # fixation_min is at least 0.001 s (its row's kind), so the dwell is never empty
    sim.segments.append(GazeSegment(t_fix, t_fix + (params.fixation_min + jitter), wanted))
    sim.opens.append(opened)
    return search


def _search(
    sim: _Simulator, trial: Trial, route: tuple[str, ...], confused: list[bool], node: tuple
) -> list:
    """A search from the end of node's question phase up to the fixation on the wanted cell.

    Returns its plan entry, [segments from the cursor, wrong opens,
    fixation time, end facing, end gaze direction, wanted document, correct
    open, score slot, link], laid on a timeline of its own from the
    cursor, facing, gaze direction and scene the trial entry node holds;
    the open fires after fixation_min of confirming dwell, which
    search_and_open lays.  The score slot is None until
    metrics.session_metrics first scores a trial laid on the entry.  The
    link is that of a sibling search that ends facing the same way, else
    None until the walk first goes on from the entry (_Simulator.run).
    """
    params, opens = sim.params, []
    _, at, facing, gaze_dir, (state, panels), _, _ = node
    line = _Timeline(params.yaw_rate_deg_s, at, facing, gaze_dir)
    head = state.pose_of(USER_HEAD).position
    cat_of = sim.plan.category_of
    for pid, wrong in zip(route, confused):
        line.turn(_turn(line.gaze_dir, head, panels[pid].position), (at, pid))
        # read the header, reject, move on
        line.dwell(params.fixation_min, PanelGaze(cat_of[pid]))
        if wrong:
            wrow, wcol = grid_cell(cat_of[pid], trial.country)
            line.dwell(params.fixation_min, DocumentGaze(cat_of[pid], wrow, wcol))
            opens.append(OpenEvent(line.cursor, cat_of[pid], trial.country, wrow, wcol, False))
    # on the target panel: grid acquisition, then the cell
    target_pid, target_cat = route[-1], trial.category
    row, col = grid_cell(target_cat, trial.country)
    line.turn(_turn(line.gaze_dir, head, panels[target_pid].position), (at, target_pid))
    line.dwell(params.per_cell_scan_time, PanelGaze(target_cat))
    if not params.known_grid:
        for idx in range(row * GRID_COLS + col):
            r, c = divmod(idx, GRID_COLS)
            line.dwell(params.per_cell_scan_time, DocumentGaze(target_cat, r, c))
    t_fix = line.cursor
    # What follows an edge is pure in the direction it ends facing, so a
    # sibling search that ends facing the same way has its link already.
    link = next((e[8] for e in node[6].values() if e[3] == line.facing and e[8]), None)
    return [
        tuple(line.segments),
        tuple(opens),
        t_fix,
        line.facing,
        line.gaze_dir,
        DocumentGaze(target_cat, row, col),
        OpenEvent(t_fix + params.fixation_min, target_cat, trial.country, row, col, True),
        None,
        link,
    ]


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


def _scan_route(
    keys: tuple, target_pid: str, params: AgentParams, rng: random.Random
) -> tuple[str, ...]:
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
    return tuple(order[: order.index(target_pid) + 1])


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
