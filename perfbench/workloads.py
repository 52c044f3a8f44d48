"""The benchmark's three workloads and their output checks.

Every workload is a closed loop: one caller, the next operation starts only
after the previous one has finished.  Each has

  * a timed loop for the end-to-end metrics (no tracing), and
  * a fixed unit of work that the traced run repeats with and without the
    tracer, for the per-layer metrics and the tracing overhead.

All inputs derive from the workload seed.  Every operation is checked, and
an operation whose check fails counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import xrlayout as xl
from xrlayout.placement import Strategy

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

STRATEGIES = tuple(Strategy)
SEEDS_PER_SWEEP = 2  # one sweep: 8 fixtures x 5 strategies x 2 seeds, one JSON
TRACED_SWEEPS = 5  # sweeps in the traced seed_sweep unit: 10 seeds, 400 sessions
FRAME_HZ = 90.0
FRAMES_PER_PASS = 45  # frames of one fixture in one round (one strided pass)
FRAME_UNIT_ROUNDS = 2  # rounds in the traced frame_placement unit
SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
QUIET_SHARE = 0.05  # share of each op kind's repetitions in the quiet sample
MIN_KEPT = 5
CHILD_TIMEOUT_S = 120

# Criterion-1 tolerance for environment-referenced panels.
POSE_TOL = 1e-9
# Below this horizontal user-intermediary distance the panel bearing is
# undefined and the placer holds the last pose, so the ray checks do not apply.
DEGENERATE_M = 1e-6


class Tally:
    """Attempted and failed operations; the first few failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


class Recorder:
    """Per-op latencies (ms), each tagged with the kind of op it was.

    Ops of one kind repeat through the run with the same work: one
    (fixture, strategy) pair per seed in seed_sweep, one (fixture, place in
    the pass) per round in frame_placement, one CLI command per run in
    cli_batch.  The host this benchmark was built on runs the same work up
    to 2x slower for seconds to minutes while other tenants are busy, so the
    timing metrics use the quiet sample: for each kind, the fastest
    QUIET_SHARE of its repetitions (at least MIN_KEPT).  Every kind keeps
    the same share, so the sample keeps the workload's mix of work.

    The stores are preallocated, so peak RSS does not grow with speed.
    """

    def __init__(self, capacity: int):
        self.ms = array("d", bytes(8 * capacity))
        self.kind = array("l", bytes(array("l").itemsize * capacity))
        self.n = 0

    def add(self, ms: float, kind: int) -> None:
        if self.n < len(self.ms):
            self.ms[self.n] = ms
            self.kind[self.n] = kind
        else:
            self.ms.append(ms)
            self.kind.append(kind)
        self.n += 1

    def quiet(self) -> dict:
        by_kind: dict[int, list[float]] = {}
        for ms, kind in zip(self.ms[: self.n], self.kind[: self.n]):
            by_kind.setdefault(kind, []).append(ms)
        kept = []
        for values in by_kind.values():
            values.sort()
            kept += values[: max(MIN_KEPT, round(QUIET_SHARE * len(values)))]
        if len(kept) < 2:
            raise RuntimeError(f"only {len(kept)} timed ops; run for longer")
        kept.sort()
        return {
            "ops_per_s": len(kept) / (math.fsum(kept) / 1e3),
            "op_ms_p50": statistics.median(kept),
            "op_ms_p90": statistics.quantiles(kept, n=10, method="inclusive")[8],
            "kept": len(kept),
            "kinds": len(by_kind),
            "all_ms": self.ms[: self.n],
        }


@dataclass
class Timed:
    """What a timed loop measured."""

    rec: Recorder
    peak_rss_kb: int
    digest: str
    extra: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def load_scenarios():
    return [xl.load_bundled(name) for name in xl.bundled_scenario_names()]


def _peak_rss_self_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- set-up ----------------------------------------------------------------


class SetupProbe:
    """setup_s: a fresh interpreter until import xrlayout + every fixture parsed.

    SETUP_RUNS samples, spread evenly over the timed loop so that they see
    the same host as the ops do; setup_s is their median.  One more
    interpreter runs first, untimed, so the bytecode cache is warm as it is
    for a user's second run.  The child stamps the moment it is done with
    perf_counter, which on Linux reads the same monotonic clock in every
    process.
    """

    def __init__(self, env: dict, seconds: float):
        self.env = env
        self.every = seconds / SETUP_RUNS
        self.samples: list[tuple[float, float, float]] = []
        self._sample()
        self.samples.clear()

    def _sample(self) -> None:
        t0 = perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py")], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{out.stderr}")
        info = json.loads(out.stdout.splitlines()[0])
        if not Path(info["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child imported {info['module']}, not {SRC}")
        if info["scenarios"] != len(xl.bundled_scenario_names()):
            raise RuntimeError(f"set-up child parsed {info['scenarios']} fixtures")
        self.samples.append((info["ready_at"] - t0, info["import_s"], info["parse_s"]))

    def tick(self, elapsed: float) -> None:
        """Take the next sample once its share of the loop has passed."""
        if len(self.samples) < SETUP_RUNS and elapsed >= len(self.samples) * self.every:
            self._sample()

    def result(self) -> dict:
        while len(self.samples) < SETUP_RUNS:
            self._sample()
        total, imports, parses = zip(*self.samples)
        return {
            "setup_s": statistics.median(total),
            "setup.import_s": statistics.median(imports),
            "setup.parse_s": statistics.median(parses),
        }


# -- seed_sweep --------------------------------------------------------------


def _session(scn, strategy, seed):
    trace = xl.simulate_session(scn, strategy=strategy, seed=seed)
    rows = xl.session_metrics(trace)
    return trace, rows, xl.aggregate(rows, seed=seed)


def _session_json(rows, summary, seed) -> str:
    return xl.results_to_json([summary], rows, meta={"seed": seed, "sessions": 1})


def _opens_ok(trace) -> bool:
    return bool(trace.trials) and all(
        tt.t_open is not None and any(o.correct for o in tt.opens) for tt in trace.trials
    )


def sweep(scenarios, seeds, tally, rec=None, tracer=None):
    """Every fixture x strategy x seed, then one results_to_json over all.

    Returns (json text, busy ns, first session's result).
    Busy time covers the sessions and the JSON build, not the checks.
    """
    summaries, rows = [], []
    busy = 0
    first = None
    for seed in seeds:
        for kind, (scn, strategy) in enumerate(
            (scn, strategy) for scn in scenarios for strategy in STRATEGIES
        ):
            op = f"{scn.name}/{strategy.value}/{seed}"
            if tracer:
                tracer.op = op
            t0 = perf_counter_ns()
            try:
                trace, srows, summary = _session(scn, strategy, seed)
            except Exception:  # counted as a failed op, run goes on
                tally.op(False, f"session {op}: {traceback.format_exc(limit=4)}")
                continue
            dt = perf_counter_ns() - t0
            busy += dt
            if rec is not None:
                rec.add(dt / 1e6, kind)
            tally.op(_opens_ok(trace), f"session {op}: a trial has no correct open")
            if first is None:
                first = (srows, summary, seed)
            summaries.append(summary)
            rows.extend(srows)
    meta = {"seeds": [seeds[0], seeds[-1]], "sessions": len(summaries)}
    if tracer:
        tracer.op = "results_to_json"
    t0 = perf_counter_ns()
    text = xl.results_to_json(summaries, rows, meta=meta)
    busy += perf_counter_ns() - t0
    tally.op(
        xl.results_from_json(text) == (summaries, rows, meta),
        f"sweep {meta['seeds']}: results_to_json -> results_from_json not equal",
    )
    return text, busy, first


def _sweep_seeds(seed: int, k: int) -> range:
    return range(seed + k * SEEDS_PER_SWEEP, seed + (k + 1) * SEEDS_PER_SWEEP)


def timed_seed_sweep(seed: int, seconds: float, tally: Tally, setup: SetupProbe) -> Timed:
    scenarios = load_scenarios()
    # The sweep's first session, run once up front: the reference for the
    # re-run check, and a warm-up.
    _, ref_rows, ref_summary = _session(scenarios[0], STRATEGIES[0], seed)
    ref_json = _session_json(ref_rows, ref_summary, seed)
    rec = Recorder(int(seconds * 2000))
    digest = ""
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        text, _, first = sweep(scenarios, _sweep_seeds(seed, k), tally, rec)
        setup.tick(perf_counter() - start)
        if k == 0:
            digest = hashlib.sha256(text.encode()).hexdigest()
            tally.op(
                first is not None and _session_json(*first) == ref_json,
                "re-running the first session gave different JSON",
            )
        k += 1
    return Timed(rec, _peak_rss_self_kb(), digest)


def seed_sweep_unit(seed: int, tally: Tally, tracer=None) -> float:
    """Traced-run unit: parse the fixtures, then the first TRACED_SWEEPS sweeps.

    Returns the busy seconds.
    """
    t0 = perf_counter_ns()
    scenarios = load_scenarios()
    busy = perf_counter_ns() - t0
    for k in range(TRACED_SWEEPS):
        busy += sweep(scenarios, _sweep_seeds(seed, k), tally, tracer=tracer)[1]
    return busy / 1e9


# -- frame_placement ---------------------------------------------------------


class _Track:
    """One fixture's frames: t = phase + k / FRAME_HZ over the whole session.

    Round r is a pass, in time order and with a fresh placer, over every
    stride-th frame starting at k = r mod stride.  After `stride` rounds
    every frame of the session has been placed once and the cycle repeats.
    So every round holds the same mix of the session, however long the run.
    """

    def __init__(self, scn, phase: float):
        self.scn = scn
        self.phase = phase
        self.frames = int((scn.duration - phase) * FRAME_HZ) + 1
        self.stride = math.ceil(self.frames / FRAMES_PER_PASS)
        self.rounds = 0

    def next_pass(self):
        """(placer, frame times) for the next round."""
        first = self.rounds % self.stride
        self.rounds += 1
        placer = xl.EnvironmentReferencedPlacer(self.scn.intermediaries, self.scn.params)
        times = [self.phase + k / FRAME_HZ for k in range(first, self.frames, self.stride)]
        return placer, times


def _tracks(scenarios, seed: int) -> list[_Track]:
    rng = random.Random(seed)
    return [_Track(scn, rng.random() / FRAME_HZ) for scn in scenarios]


def _finite(pose) -> bool:
    p, q, s = pose.position, pose.orientation, pose.scale
    return all(
        math.isfinite(c) for c in (p.x, p.y, p.z, q.w, q.x, q.y, q.z, s.x, s.y, s.z)
    )


def _frame_ok(scn, state, body, env) -> bool:
    if set(body) != set(scn.body_bearings) or set(env) != set(scn.intermediaries):
        return False
    if not all(_finite(p) for p in (*body.values(), *env.values())):
        return False
    user = state.pose_of("user_body").position
    for pid, pose in env.items():
        inter = state.pose_of(scn.intermediaries[pid]).position
        ix, iz = inter.x - user.x, inter.z - user.z
        if math.hypot(ix, iz) < DEGENERATE_M:
            continue
        px, pz = pose.position.x - user.x, pose.position.z - user.z
        if math.atan2(abs(px * iz - pz * ix), px * ix + pz * iz) > POSE_TOL:
            return False
        if abs(math.hypot(px, pz) - scn.params.panel_distance) > POSE_TOL:
            return False
    return True


def _pose_bytes(poses) -> bytes:
    return repr(
        [
            (pid, p.position.to_tuple(), (p.orientation.w, p.orientation.x,
                                          p.orientation.y, p.orientation.z))
            for pid, p in sorted(poses.items())
        ]
    ).encode()


def frame_round(tracks, tally, rec=None, tracer=None, sink=None):
    """One round: the next pass of every fixture, one fixture after another.

    Returns the busy ns.  A frame is state_at, place_body_fixed
    and the pass's EnvironmentReferencedPlacer.place; the pose checks run
    outside the timed span.
    """
    busy = 0
    for i, track in enumerate(tracks):
        scn = track.scn
        placer, times = track.next_pass()
        for j, t in enumerate(times):
            if tracer:
                tracer.op = f"{scn.name}@{t!r}"
            t0 = perf_counter_ns()
            try:
                state = scn.state_at(t)
                body = xl.place_body_fixed(state, scn.body_bearings, scn.params)
                env = placer.place(state)
            except Exception:  # counted as a failed op, run goes on
                tally.op(False, f"frame {scn.name} t={t!r}: {traceback.format_exc(limit=4)}")
                continue
            dt = perf_counter_ns() - t0
            busy += dt
            if rec is not None:
                rec.add(dt / 1e6, i * FRAMES_PER_PASS + j)
            tally.op(_frame_ok(scn, state, body, env), f"frame {scn.name} t={t!r}: pose check")
            if sink is not None:
                sink.update(_pose_bytes(body) + _pose_bytes(env))
    return busy


def timed_frame_placement(
    seed: int, seconds: float, tally: Tally, setup: SetupProbe
) -> Timed:
    tracks = _tracks(load_scenarios(), seed)
    rec = Recorder(int(seconds * 20000))
    digest = hashlib.sha256()
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        frame_round(tracks, tally, rec, sink=digest if rounds == 0 else None)
        setup.tick(perf_counter() - start)
        rounds += 1
    return Timed(rec, _peak_rss_self_kb(), digest.hexdigest())


def frame_placement_unit(seed: int, tally: Tally, tracer=None) -> float:
    """Traced-run unit: parse the fixtures, then FRAME_UNIT_ROUNDS rounds."""
    t0 = perf_counter_ns()
    tracks = _tracks(load_scenarios(), seed)
    busy = perf_counter_ns() - t0
    for _ in range(FRAME_UNIT_ROUNDS):
        busy += frame_round(tracks, tally, tracer=tracer)
    return busy / 1e9


# -- cli_batch ---------------------------------------------------------------


def cli_args(seed: int, out_dir: Path) -> list[str]:
    return [
        "run", "--all", "--format", "json", "--gaze", "--tick-hz", "50",
        "--seed", str(seed), "--out", str(out_dir),
    ]


def _run_child(cmd: list[str], env: dict) -> tuple[int, float, str]:
    """Run one child to completion; returns (exit code, wall s, stderr)."""
    t0 = perf_counter()
    out = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    return out.returncode, perf_counter() - t0, out.stderr


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _file_digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _cli_output_ok(code: int, stderr: str, out_dir: Path) -> tuple[bool, str]:
    if code != 0:
        return False, f"exit code {code}: {stderr.strip()[-500:]}"
    try:
        meta = json.loads((out_dir / "results.json").read_text(encoding="utf-8"))["meta"]
    except (OSError, ValueError, KeyError) as exc:
        return False, f"results.json unreadable: {exc!r}"
    if meta.get("sessions") != 8:
        return False, f"results.json has sessions={meta.get('sessions')!r}, want 8"
    want = {f"gaze_{name}.csv" for name in xl.bundled_scenario_names()}
    have = {p.name for p in out_dir.glob("gaze_*.csv")}
    if have != want:
        return False, f"gaze files {sorted(have)} != {sorted(want)}"
    return True, ""


def malformed_gaze_rows(out_dir: Path) -> int:
    """gaze_*.csv data rows that do not have exactly two fields."""
    bad = 0
    for path in sorted(out_dir.glob("gaze_*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            next(rows, None)
            bad += sum(1 for row in rows if len(row) != 2)
    return bad


def _cli_command(seed: int, out_dir: Path) -> list[str]:
    return [sys.executable, "-m", "xrlayout.cli", *cli_args(seed, out_dir)]


def timed_cli_batch(
    seed: int, seconds: float, tally: Tally, setup: SetupProbe, env: dict
) -> Timed:
    run_dir = OUT / "cli_batch"
    rec = Recorder(int(seconds * 20))
    first_files: dict[str, str] = {}
    extra = {}
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        out_dir = _fresh_dir(run_dir)
        code, wall, stderr = _run_child(_cli_command(seed + i, out_dir), env)
        ok, problem = _cli_output_ok(code, stderr, out_dir)
        tally.op(ok, f"cli seed {seed + i}: {problem}")
        if ok:
            rec.add(wall * 1e3, 0)
        if i == 0 and ok:
            first_files = _file_digests(out_dir)
            extra["cli.gaze_rows_malformed"] = malformed_gaze_rows(out_dir)
        setup.tick(perf_counter() - start)
        i += 1
    # Re-run the first seed: every file must come out byte-identical.
    out_dir = _fresh_dir(run_dir)
    code, _, stderr = _run_child(_cli_command(seed, out_dir), env)
    ok, problem = _cli_output_ok(code, stderr, out_dir)
    tally.op(
        ok and _file_digests(out_dir) == first_files,
        f"cli re-run of seed {seed}: {problem or 'files differ'}",
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    digest = hashlib.sha256(json.dumps(first_files, sort_keys=True).encode()).hexdigest()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return Timed(rec, peak, digest, extra)


def cli_batch_unit(seed: int, tally: Tally, traced: bool, env: dict):
    """Traced-run unit: one CLI process for the workload seed.

    Untraced it is ``python -m xrlayout.cli``; traced it runs the same
    arguments under traced_cli.py.  Returns (wall s, report or None).
    """
    out_dir = _fresh_dir(OUT / "cli_batch")
    report_path = OUT / "cli_batch_report.json"
    if traced:
        cmd = [
            sys.executable, str(HERE / "traced_cli.py"),
            str(report_path), str(OUT / "spans_cli_batch.jsonl"),
            "--", *cli_args(seed, out_dir),
        ]
    else:
        cmd = _cli_command(seed, out_dir)
    code, wall, stderr = _run_child(cmd, env)
    ok, problem = _cli_output_ok(code, stderr, out_dir)
    tally.op(ok, f"cli seed {seed}{' (traced)' if traced else ''}: {problem}")
    report = None
    if traced and ok:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["cli.bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        report["cli.gaze_rows_malformed"] = malformed_gaze_rows(out_dir)
        report_path.unlink()
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall, report


# -- traced run --------------------------------------------------------------


def traced_run(workload: str, seed: int, seconds: float, tally: Tally, env: dict) -> dict:
    """Alternate untraced and traced units until `seconds` have passed.

    Counts come from the first traced unit (they repeat exactly); times are
    medians over the traced units.  trace.overhead_frac compares the median
    traced unit with the median untraced one.  The spans of the first traced
    unit stay in memory and are written to OUT when the run ends.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    reports: list[dict] = []
    spans = None
    start = perf_counter()
    i = 0
    while i < 2 or perf_counter() - start < seconds:
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if workload == "cli_batch":
                wall, report = cli_batch_unit(seed, tally, traced, env)
            else:
                unit = seed_sweep_unit if workload == "seed_sweep" else frame_placement_unit
                tracer = tracing.Tracer() if traced else None
                if tracer:
                    tracer.install()
                try:
                    wall = unit(seed, tally, tracer)
                finally:
                    if tracer:
                        tracer.uninstall()
                report = tracer.report() if tracer else None
                if tracer and spans is None:
                    spans = tracer.span_records()
            walls[traced].append(wall)
            if report is not None:
                reports.append(report)
        i += 1
    if spans is not None:
        tracing.write_spans(OUT / f"spans_{workload}.jsonl", spans)
    if not reports:
        return {}
    out = dict(reports[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(r.get(key, 0.0) for r in reports)
    out["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    out["trace.units"] = len(reports)
    return out
