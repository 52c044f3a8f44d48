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

The result rows are TrialMetrics and SessionSummary: the CSV and JSON
columns are their fields, in order (TRIAL_FIELDS, SUMMARY_FIELDS), and a
CSV cell is read back by its field's annotation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .agent import (
    AgentParams,
    DocumentGaze,
    GazeSample,
    GazeTarget,
    OpenEvent,
    SessionTrace,
    TrialTrace,
    panel_category_of,
)
from .errors import EmptyTrialSet, IncompleteTrial
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
        # targets of different classes are never equal (dataclass equality)
        if target is not run and (target.__class__ is not run.__class__ or target != run):
            if nav is None and run.__class__ is want_cls and run == want:
                start = max(run_t0, t_done)
                if t - start >= need:
                    nav = start - t_done
            run_t0, run = t, target
        if window is None or w0 <= t < w1:
            cat = panel_category_of(target)
            if cat is not None:
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
        want=_wanted(trial),
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


def _wanted(trial: Trial) -> DocumentGaze:
    """The document a trial asks for."""
    row, col = grid_cell(trial.category, trial.country)
    return DocumentGaze(trial.category, row, col)


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        [(s.t0, s.target) for s in segments],
        want=_wanted(trial),
        t_done=trial.question_complete,
        end_time=end,
        min_fixation=min_fixation,
        window=(trial.question_start, end),
    )
    nav = _complete(nav, trial, min_fixation)
    return TrialMetrics(
        context=context,
        strategy=strategy,
        trial_index=trial.index,
        category=trial.category,
        country=trial.country,
        navigation_time_s=nav,
        gaze_switches=switches,
        errors=len(error_events(trace.opens)),
        relevant=classify_relevance(trial, context=context),
        near=trial.near,
    )


def session_metrics(trace: SessionTrace) -> list[TrialMetrics]:
    """Per-trial metrics, each under the agent's fixation threshold."""
    return [
        trial_metrics(t, context=trace.context, strategy=trace.strategy.value)
        for t in trace.trials
    ]


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
    ints, den = _exact_integers(xs)
    total = sum(ints)
    return _sqrt_of_fraction(
        n * sum(map(mul, ints, ints)) - total * total, n * (n - 1) * den * den
    )


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


def aggregate(rows: Sequence[TrialMetrics], *, seed: int) -> SessionSummary:
    """Mean/median/sd summary over one session's trials."""
    if not rows:
        raise EmptyTrialSet("cannot aggregate zero trials")
    if len({(r.context, r.strategy) for r in rows}) != 1:
        raise ValueError("aggregate expects rows from a single session")
    n = len(rows)
    return SessionSummary(
        rows[0].context,
        rows[0].strategy,
        seed,
        n,
        *_stats([r.navigation_time_s for r in rows]),  # nav_time_mean_s, _median_s, _sd_s
        *_stats([r.gaze_switches for r in rows]),  # switches_mean, _median, _sd
        errors_total=sum(r.errors for r in rows),
        relevant_fraction=sum(1 for r in rows if r.relevant) / n,
    )


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
    names = [f.name for f in fields(cls)]
    parsers = [_PARSERS[f.type] for f in fields(cls)]
    reader = csv.reader(io.StringIO(text))
    rows = []
    try:
        header = next(reader, None)
        if header != names:
            raise ValueError(f"unexpected header: {header}")
        for row in reader:
            if len(row) != len(names):
                raise ValueError(f"expected {len(names)} cells, got {len(row)}")
            rows.append(cls(*(parse(v) for parse, v in zip(parsers, row))))
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
    doc = json.loads(text)
    summaries = [SessionSummary(**{f: r[f] for f in SUMMARY_FIELDS}) for r in doc["summaries"]]
    trials = [TrialMetrics(**{f: r[f] for f in TRIAL_FIELDS}) for r in doc["trials"]]
    return summaries, trials, doc.get("meta", {})
