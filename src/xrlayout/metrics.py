"""Placement-quality metrics over gaze traces, plus tabular export.

Metrics are computed from gaze sample streams (time-stamped target
observations) rather than from the simulator's internals, so recorded
hardware streams and synthetic traces go through the same code path:
one scan over (t, target) pairs (_scan) holds the dwell rule and the
switch rule.  Trial scoring reads a trace's segments as the
exact-boundary stream, each segment's (t0, target), through that same
scan, so navigation time and switches come from one pass and no sample
object is built.  A trial scores under the fixation threshold of the agent
that produced it; the stream functions take one, as a recorded stream
carries no agent.  A session summary states each column's mean, median
and sample SD by one rule (_stats), with no statistics module.

Warm seed sweeps score each plan search once.  A trial a session laid on
its session plan (agent._SessionPlan) is the question entry's segments,
the search entry's segments, and a confirming dwell on the wanted
document from the fixation time t_fix that lasts fixation_min plus the
session's dwell jitter.  So session_metrics scores a canonical trial per
search entry, the first time a trial laid on it is scored: the same
segments with a dwell of exactly fixation_min, ending at t_fix +
fixation_min, and the search's opens, through trial_metrics like any
trial.  It keeps the row in the entry's score slot (or that the entry is
always scanned, when the canonical trial does not score, as when its end
rounds to t_fix), and hands it to a trace only when everything trial_metrics
reads matches: the trial (by identity) and fixation_min; the session's
context and strategy; the count of wrong opens; the question and search
segments, the same objects in order; and one last segment on the wanted
document from t_fix that ends no earlier than the canonical end.  That is
exact for every jitter: the two streams differ only in the last end time,
which lies past every pair, and float subtraction is monotone, so a
longer last dwell still qualifies and the navigation time, start -
t_done, is the same.  Every other trace is scanned.  aggregate keeps the
summaries of recent row sequences by the rows' identities, for rows that
are frozen and that the memo keeps alive; identity, not value, since
0.0 == -0.0 would make a result depend on call order.

The result rows are TrialMetrics and SessionSummary: the CSV and JSON
columns are their fields, in order (TRIAL_FIELDS, SUMMARY_FIELDS).  Both
readers check a row by one rule (_row), keyed by each field's annotation,
and raise ValueError naming the location of any text the writers do not
produce.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from functools import cache
from operator import attrgetter, is_, itemgetter, mul
from typing import Iterable, Sequence

from .agent import (
    AgentParams,
    DocumentGaze,
    GazeSample,
    GazeSegment,
    GazeTarget,
    OpenEvent,
    PanelGaze,
    SessionTrace,
    TrialTrace,
)
from .errors import EmptyTrialSet, IncompleteTrial, fields, record
from .scenario import Trial, grid_cell

# A glance shorter than this is a saccade passing through, not a fixation.
DEFAULT_MIN_FIXATION_S = AgentParams.fixation_min
# The run before the first pair: equal to no target.
_NO_RUN = object()


def _scan(
    pairs: Iterable[tuple[float, GazeTarget]],
    *,
    want: DocumentGaze | None = None,
    t_done: float = 0.0,
    end_time: float = 0.0,
    min_fixation: float = DEFAULT_MIN_FIXATION_S,
    window: tuple[float, float] | None = None,
) -> tuple[float | None, int]:
    """(navigation time or None, panel switches) of one (t, target) stream.

    The one dwell rule: consecutive equal targets form a run that lasts
    until the next different target, the last one until end_time.  The
    navigation time is that of the first run on want whose part after
    t_done lasts at least min_fixation (1e-12 of slack), measured from
    t_done; None when no run qualifies (or want is None).

    A switch is a move between distinct panels, counted over the pairs
    whose t lies in the half-open window (all pairs when it is None).
    Document fixations count as being on their panel.  Off-panel targets
    (hosts, the screen, saccades) neither count nor reset the previous
    panel, so glancing away and back to the same panel is not a switch.
    """
    nav = None
    want_cls = want.__class__
    need = min_fixation - 1e-12
    run_t0, run = 0.0, _NO_RUN
    last = None  # panel of the latest on-panel pair in the window
    switches = 0
    w0, w1 = window or (None, None)
    for t, target in pairs:
        # targets of different classes are never equal (record equality)
        if target is not run and (target.__class__ is not run.__class__ or target != run):
            if nav is None and run.__class__ is want_cls and run == want:
                start = max(run_t0, t_done)
                if t - start >= need:
                    nav = start - t_done
            run_t0, run = t, target
        if window is None or w0 <= t < w1:
            cls = target.__class__
            if cls is PanelGaze or cls is DocumentGaze:  # on a panel
                cat = target.category
                if last is not None and cat != last:
                    switches += 1
                last = cat
    if nav is None and run.__class__ is want_cls and run == want:
        start = max(run_t0, t_done)
        if end_time - start >= need:
            nav = start - t_done
    return nav, switches


def navigation_time(
    samples: Sequence[GazeSample],
    trial: Trial,
    *,
    end_time: float,
    min_fixation: float = DEFAULT_MIN_FIXATION_S,
) -> float:
    """Seconds from full question presentation to the first qualifying
    fixation on the correct document cell.

    Raises IncompleteTrial when no such fixation exists in the stream.
    """
    nav, _ = _scan(
        ((s.t, s.target) for s in samples),
        want=_wanted(trial.category, trial.country),
        t_done=trial.question_complete,
        end_time=end_time,
        min_fixation=min_fixation,
    )
    return _complete(nav, trial, min_fixation)


def gaze_switches(
    samples: Sequence[GazeSample],
    *,
    window: tuple[float, float] | None = None,
) -> int:
    """Transitions between distinct panels within the window (see _scan)."""
    _, switches = _scan(((s.t, s.target) for s in samples), window=window)
    return switches


@cache  # one entry per cell of the finite grid: grid_cell raises on any other
def _wanted(category: str, country: str) -> DocumentGaze:
    """The document a trial of category and country asks for."""
    row, col = grid_cell(category, country)
    return DocumentGaze(category, row, col)


def _complete(nav: float | None, trial: Trial, min_fixation: float) -> float:
    """nav, or IncompleteTrial when the stream had no qualifying fixation."""
    if nav is None:
        raise IncompleteTrial(
            f"no fixation >= {min_fixation}s on {trial.category}/{trial.country}"
        )
    return nav


def error_events(opens: Iterable[OpenEvent]) -> list[OpenEvent]:
    """Wrong-document opens, in time order."""
    return sorted((o for o in opens if not o.correct), key=lambda o: o.t)


def classify_relevance(trial: Trial, *, context: str) -> bool:
    """Whether adaptive placement had the right intermediary available.

    Dynamic contexts always do (hosts carry their own category).  Static
    mobile has it only when the user is near the matching poster.  Static
    stationary only for the sports poster the user faces throughout.
    """
    if context in ("dynamic_mobile", "dynamic_stationary"):
        return True
    if context == "static_mobile":
        if trial.near is None:
            raise ValueError("static mobile trial without a near flag")
        return trial.near
    if context == "static_stationary":
        return trial.category == "sports"
    raise ValueError(f"unknown context: {context!r}")


@record(frozen=True, slots=True)
class TrialMetrics:
    context: str
    strategy: str
    trial_index: int
    category: str
    country: str
    navigation_time_s: float
    gaze_switches: int
    errors: int
    relevant: bool
    near: bool | None


# Every session of a sweep, warm ones included, builds one SessionSummary,
# so it is a slotted record with its own __init__, as geometry.Vec3 is.


@record(frozen=True, slots=True)
class SessionSummary:
    context: str
    strategy: str
    seed: int
    trials: int
    nav_time_mean_s: float
    nav_time_median_s: float
    nav_time_sd_s: float
    switches_mean: float
    switches_median: float
    switches_sd: float
    errors_total: int
    relevant_fraction: float

    def __init__(
        self,
        context: str,
        strategy: str,
        seed: int,
        trials: int,
        nav_time_mean_s: float,
        nav_time_median_s: float,
        nav_time_sd_s: float,
        switches_mean: float,
        switches_median: float,
        switches_sd: float,
        errors_total: int,
        relevant_fraction: float,
    ):
        _set_ss_context(self, context)
        _set_ss_strategy(self, strategy)
        _set_ss_seed(self, seed)
        _set_ss_trials(self, trials)
        _set_ss_nav_time_mean_s(self, nav_time_mean_s)
        _set_ss_nav_time_median_s(self, nav_time_median_s)
        _set_ss_nav_time_sd_s(self, nav_time_sd_s)
        _set_ss_switches_mean(self, switches_mean)
        _set_ss_switches_median(self, switches_median)
        _set_ss_switches_sd(self, switches_sd)
        _set_ss_errors_total(self, errors_total)
        _set_ss_relevant_fraction(self, relevant_fraction)


_set_ss_context, _set_ss_strategy, _set_ss_seed, _set_ss_trials = (
    SessionSummary.context.__set__,
    SessionSummary.strategy.__set__,
    SessionSummary.seed.__set__,
    SessionSummary.trials.__set__,
)
_set_ss_nav_time_mean_s, _set_ss_nav_time_median_s, _set_ss_nav_time_sd_s = (
    SessionSummary.nav_time_mean_s.__set__,
    SessionSummary.nav_time_median_s.__set__,
    SessionSummary.nav_time_sd_s.__set__,
)
_set_ss_switches_mean, _set_ss_switches_median, _set_ss_switches_sd = (
    SessionSummary.switches_mean.__set__,
    SessionSummary.switches_median.__set__,
    SessionSummary.switches_sd.__set__,
)
_set_ss_errors_total, _set_ss_relevant_fraction = (
    SessionSummary.errors_total.__set__, SessionSummary.relevant_fraction.__set__
)


# A segment's (t0, target): its pair of the exact-boundary stream.
_segment_pair = attrgetter("t0", "target")


def trial_metrics(trace: TrialTrace, *, context: str, strategy: str) -> TrialMetrics:
    """One trial's metrics.

    The fixation threshold is that of the agent that produced the trace,
    so a trial scores under the dwell that opened it.
    """
    min_fixation = trace.params.fixation_min
    trial = trace.trial
    segments = trace.segments
    end = segments[-1].t1 if segments else trace.t_complete
    nav, switches = _scan(
        map(_segment_pair, segments),
        want=_wanted(trial.category, trial.country),
        t_done=trial.question_complete,
        end_time=end,
        min_fixation=min_fixation,
        window=(trial.question_start, end),
    )
    nav = _complete(nav, trial, min_fixation)
    return TrialMetrics(
        context,
        strategy,
        trial.index,
        trial.category,
        trial.country,
        nav,
        switches,
        sum(not o.correct for o in trace.opens),  # the error_events count, unsorted
        classify_relevance(trial, context=context),
        trial.near,
    )


def session_metrics(trace: SessionTrace) -> list[TrialMetrics]:
    """Per-trial metrics, each under the agent's fixation threshold.

    A trial laid on the session plan takes its search entry's score when
    it provably equals trial_metrics of the trial (see the module
    docstring); every other trial is scanned.
    """
    context, strategy = trace.context, trace.strategy.value
    rows = []
    for t in trace.trials:
        row = None if t._plan is None else _planned_row(t, context, strategy)
        rows.append(trial_metrics(t, context=context, strategy=strategy) if row is None else row)
    return rows


def _planned_row(trace: TrialTrace, context: str, strategy: str) -> TrialMetrics | None:
    """The score of trace's search entry if it is trial_metrics(trace) exactly, else None.

    The first trace laid on the entry fills its score slot (_plan_score).
    """
    question, search = trace._plan
    score = search[7]
    if score is None:
        score = search[7] = _plan_score(trace, question, search, context, strategy)
    trial, fixation_min, prefix, end, row = score
    segments = trace.segments
    if (
        row is None
        or trace.trial is not trial
        or trace.params.fixation_min != fixation_min
        or row.context != context
        or row.strategy != strategy
        or len(segments) != len(prefix) + 1
    ):
        return None
    last = segments[-1]
    if (
        last.t0 is not search[2]  # t_fix
        or last.target is not search[5]  # the wanted document
        or not last.t1 >= end
        or not all(map(is_, segments, prefix))
        or sum(not o.correct for o in trace.opens) != row.errors
    ):
        return None
    return row


def _plan_score(
    trace: TrialTrace, question: tuple, search: list, context: str, strategy: str
) -> tuple:
    """A search entry's score slot, from the first trace laid on it.

    (trial, fixation_min, question and search segments, canonical end,
    row): the row is trial_metrics of the canonical trial, or None when
    that trial is incomplete (no trace laid on the entry then takes the
    row).  That covers an end that rounds to t_fix: the canonical last
    run on the wanted document then lasts 0 s, and no earlier segment is
    on that document (rejected panels have other categories, and the cell
    scan stops before the wanted cell), so the trial is incomplete.
    """
    segments, wrong, t_fix, _, _, wanted, opened, _, _ = search
    trial, params = trace.trial, trace.params
    prefix, end = question + segments, t_fix + params.fixation_min
    canonical = TrialTrace(
        trial,
        trial.question_complete,
        opened.t,
        [*prefix, GazeSegment(t_fix, end, wanted)],
        [*wrong, opened],
        params,
    )
    try:
        row = trial_metrics(canonical, context=context, strategy=strategy)
    except IncompleteTrial:
        row = None
    return trial, params.fixation_min, prefix, end, row


# Bits the integer square root keeps: two beyond the float mantissa, so
# rounding it to odd first and to nearest float after is one correct rounding.
_SQRT_BITS = sys.float_info.mant_dig + 2


def _sqrt_of_fraction(p: int, q: int) -> float:
    """sqrt(p / q) correctly rounded to float, for integers p >= 0, q > 0."""
    e = (p.bit_length() - q.bit_length() - 2 * _SQRT_BITS) // 2
    num, den = (p, q << 2 * e) if e >= 0 else (p << -2 * e, q)
    root = math.isqrt(num // den)
    root |= root * root * den != num  # sticky bit: the root was inexact
    return float(root << e) if e >= 0 else root / (1 << -e)


def _exact_integers(xs: Sequence[float]) -> tuple[list[int], int]:
    """(ints, den): each value is exactly its int / den.

    Float denominators are powers of two, so over the largest one every
    value is an exact integer.
    """
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(map(itemgetter(1), ratios))
    return [num * (den // d) for num, d in ratios], den


def sample_sd(xs: Sequence[float]) -> float:
    """Sample standard deviation, correctly rounded; 0.0 below two values.

    The square root of the exact sample variance, rounded once.  This is
    what statistics.stdev returns from Python 3.11 on; 3.10's stdev can be
    1 ulp off, so the result bytes would depend on the interpreter.
    """
    n = len(xs)
    if n < 2:
        return 0.0
    if all(x.__class__ is int for x in xs):  # a count column is exact as it is
        ints, den = xs, 1
    else:
        ints, den = _exact_integers(xs)
    total = sum(ints)
    num = n * sum(map(mul, ints, ints)) - total * total
    if not num:  # every value equal
        return 0.0
    return _sqrt_of_fraction(num, n * (n - 1) * den * den)


def _stats(xs: Sequence[float]) -> tuple[float, float, float]:
    """(mean, median, sample sd) of a non-empty column of floats or integers.

    The mean is math.fsum(xs) / n and the median the sorted middle (the
    mean of the two middle values when n is even): the bits of
    statistics.fmean and statistics.median.  Integers below 2**53 give the
    bits of the same integers as floats.  Where the float sum of finite
    values overflows, the mean and median are still the finite values
    between them: the exact mean rounded once, the sum of halves.
    """
    n, s = len(xs), sorted(xs)
    mid = n // 2
    if n % 2:
        median = float(s[mid])
    else:
        a, b = s[mid - 1], s[mid]
        median = (a + b) / 2
        if math.isinf(median):
            median = a / 2 + b / 2  # halves of values that large are exact
    try:
        mean = math.fsum(xs) / n
    except OverflowError:  # finite values only: fsum gives inf or ValueError for infinities
        ints, den = _exact_integers(xs)
        mean = sum(ints) / (n * den)  # int / int rounds once
    return mean, median, sample_sd(xs)


# aggregate's memo: the ids of a row sequence -> (the rows, which the entry
# keeps alive so no id is reused while it is kept, then the summary's
# fields but the seed).  Warm sessions of a sweep hand back the same plan
# rows (session_metrics), so a sweep has an entry per outcome it drew.
# Only sequences of frozen TrialMetrics are kept, no exception is, and past
# _AGGREGATE_ENTRIES the oldest entry is dropped, as agent._TICK_GRIDS does.
_AGGREGATES: dict[tuple, tuple] = {}
_AGGREGATE_ENTRIES = 1024


def aggregate(rows: Sequence[TrialMetrics], *, seed: int) -> SessionSummary:
    """Mean/median/sd summary over one session's trials."""
    if not rows:
        raise EmptyTrialSet("cannot aggregate zero trials")
    key = tuple(map(id, rows))
    hit = _AGGREGATES.get(key)
    if hit is not None:
        _, context, strategy, summary = hit
        return SessionSummary(context, strategy, seed, *summary)
    context, strategy = rows[0].context, rows[0].strategy
    for r in rows:
        if r.context != context or r.strategy != strategy:
            raise ValueError("aggregate expects rows from a single session")
    n = len(rows)
    summary = (
        n,
        *_stats([r.navigation_time_s for r in rows]),  # nav_time_mean_s, _median_s, _sd_s
        *_stats([r.gaze_switches for r in rows]),  # switches_mean, _median, _sd
        sum(r.errors for r in rows),  # errors_total
        sum(1 for r in rows if r.relevant) / n,  # relevant_fraction
    )
    if all(r.__class__ is TrialMetrics for r in rows):
        if len(_AGGREGATES) >= _AGGREGATE_ENTRIES:
            del _AGGREGATES[next(iter(_AGGREGATES))]
        _AGGREGATES[key] = tuple(rows), context, strategy, summary
    return SessionSummary(context, strategy, seed, *summary)


# -- export -----------------------------------------------------------------
#
# Floats are written with repr so CSV -> read -> CSV is byte-stable and
# values round-trip exactly.

TRIAL_FIELDS = tuple(f.name for f in fields(TrialMetrics))
SUMMARY_FIELDS = tuple(f.name for f in fields(SessionSummary))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_FLAGS = {"true": True, "false": False}


def _parse_flag(text: str) -> bool:
    if text not in _FLAGS:
        raise ValueError(f"expected true or false, got {text!r}")
    return _FLAGS[text]


def _parse_optional_flag(text: str) -> bool | None:
    return None if text == "" else _parse_flag(text)


# A cell's parser, by its field's annotation.
_PARSERS = {
    "str": str, "int": int, "float": float, "bool": _parse_flag, "bool | None": _parse_optional_flag
}
# A field's value types, by its annotation: what a cell's parser makes and a
# results.json value must be (so no boolean is an int and no integer a float).
_TYPES = {
    "str": (str,), "int": (int,), "float": (float,), "bool": (bool,),
    "bool | None": (bool, type(None)),
}


def _object(value: object, where: str, keys=None) -> dict:
    """value, a JSON object with exactly keys (any keys when None); else ValueError naming where."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {type(value).__name__}")
    if keys is not None and value.keys() != set(keys):
        missing, unknown = sorted(set(keys) - value.keys()), sorted(value.keys() - set(keys))
        raise ValueError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    return value


def _row(cls, values: object, where: str):
    """The CSV and JSON readers' one row rule: cls from an object holding each field at its
    annotated type, a float finite; else ValueError naming where, or where.field for a
    field's value."""
    _object(values, where, [f.name for f in fields(cls)])
    for f in fields(cls):
        value = values[f.name]
        if type(value) not in _TYPES[f.type]:
            raise ValueError(f"{where}.{f.name}: expected {f.type}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"{where}.{f.name}: expected a finite float, got {value!r}")
    return cls(**values)


def _to_csv(cls, rows) -> str:
    """A header of cls's field names, then one row of cells per row."""
    names = [f.name for f in fields(cls)]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    for r in rows:
        w.writerow([_cell(getattr(r, name)) for name in names])
    return buf.getvalue()


def _from_csv(cls, text: str) -> list:
    """The rows _to_csv(cls, ...) wrote; on any other text, ValueError naming its line."""
    parsers = {f.name: _PARSERS[f.type] for f in fields(cls)}
    names = list(parsers)
    reader = csv.reader(io.StringIO(text))
    rows = []
    try:
        header = next(reader, None)
        if header != names:
            raise ValueError(f"unexpected header: {header}")
        for row in reader:
            if len(row) != len(names):
                raise ValueError(f"expected {len(names)} cells, got {len(row)}")
            rows.append(_row(cls, {n: parsers[n](v) for n, v in zip(names, row)}, cls.__name__))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{cls.__name__} csv line {reader.line_num}: {exc}") from None
    return rows


def trials_to_csv(rows: Sequence[TrialMetrics]) -> str:
    return _to_csv(TrialMetrics, rows)


def gaze_to_csv(trace: SessionTrace, tick_hz: float | None = None) -> str:
    """The session's tick stream (SessionTrace.tick_samples) as t,target rows.

    One row per tick, f"{t!r},{target!r}", written a run at a time: the
    ticks a segment holds share its target, so a run is one join over the
    rate's formatted tick times (kept per process), with no sample built.
    """
    grid, n, runs = trace._tick_runs(tick_hz)
    text = grid.text_to(n)
    parts = ["t,target\n"]
    for a, b, target in runs:
        tail = f",{target!r}\n"
        parts.append(tail.join(text[a:b]) + tail)
    return "".join(parts)


def summaries_to_csv(rows: Sequence[SessionSummary]) -> str:
    return _to_csv(SessionSummary, rows)


def trials_from_csv(text: str) -> list[TrialMetrics]:
    return _from_csv(TrialMetrics, text)


def summaries_from_csv(text: str) -> list[SessionSummary]:
    return _from_csv(SessionSummary, text)


def results_to_json(
    summaries: Sequence[SessionSummary],
    trials: Sequence[TrialMetrics],
    *,
    meta: dict | None = None,
) -> str:
    """The results file; ValueError on a NaN or infinite value (allow_nan=False)."""
    doc = {
        "meta": dict(meta or {}),
        "summaries": [{f: getattr(r, f) for f in SUMMARY_FIELDS} for r in summaries],
        "trials": [{f: getattr(r, f) for f in TRIAL_FIELDS} for r in trials],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def results_from_json(text: str) -> tuple[list[SessionSummary], list[TrialMetrics], dict]:
    """(summaries, trials, meta) of what results_to_json wrote; on any other
    text, ValueError naming where it differs (results.json summaries[0].seed),
    a NaN, Infinity or -Infinity number among them."""
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:  # nesting too deep, an integer too long
        raise ValueError(f"results.json: {exc}") from None
    _object(doc, "results.json", ("meta", "summaries", "trials"))
    out = []
    for cls, key in ((SessionSummary, "summaries"), (TrialMetrics, "trials")):
        where = f"results.json {key}"
        if not isinstance(doc[key], list):
            raise ValueError(f"{where}: expected a list, got {type(doc[key]).__name__}")
        out.append([_row(cls, r, f"{where}[{i}]") for i, r in enumerate(doc[key])])
    meta = _object(doc["meta"], "results.json meta")
    try:
        json.dumps(meta, allow_nan=False)
    except ValueError:
        raise ValueError("results.json meta: a NaN or infinite number") from None
    return out[0], out[1], meta
