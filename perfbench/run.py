"""xrlayout benchmark: ``python3 perfbench/run.py --workload NAME [options]``.

Workloads: seed_sweep, cli_batch, frame_placement (see perfbench/README.md),
or ``all``, which runs each workload untraced and then traced, one fresh
interpreter at a time.

    --seed N      workload seed; every input derives from it (default 42)
    --seconds S   how long the timed loop runs (default 30)
    --trace 0|1   0: end-to-end metrics, no tracing; 1: per-layer metrics

The program is imported from ``src/`` next to this directory and nowhere
else.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("seed_sweep", "cli_batch", "frame_placement")

# Each workload's own names for ops_per_s and op_ms_p50 / op_ms_p90 in the
# human-readable lines: (rate name, latency name, latency unit, per ms).
OP_NAMES = {
    "seed_sweep": ("sessions_per_s", "session_ms", "ms", 1.0),
    "cli_batch": ("cli_runs_per_s", "cli_run_s", "s", 1e-3),
    "frame_placement": ("frames_per_s", "frame_us", "us", 1e3),
}

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
)

# (name, unit); a metric a workload does not exercise reads 0.
PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.parse_s", "s"),
    ("scenario.parse_scenario.busy_s", "s"),
    ("designspace.validate_object.calls", "count"),
    ("designspace.validate_object.busy_s", "s"),
    ("scenario.state_at.calls", "count"),
    ("scenario.state_at.busy_s", "s"),
    ("scenario.state_at.distinct_ratio", "ratio"),
    ("geometry.Vec3.constructed", "count"),
    ("geometry.Rotation.constructed", "count"),
    ("placement.place_body_fixed.calls", "count"),
    ("placement.place_body_fixed.busy_s", "s"),
    ("placement.EnvironmentReferencedPlacer.place.calls", "count"),
    ("placement.EnvironmentReferencedPlacer.place.busy_s", "s"),
    ("placement.emit_layouts.calls", "count"),
    ("placement.emit_layouts.busy_s", "s"),
    ("frames.resolve_world_pose.calls", "count"),
    ("frames.resolve_world_pose.busy_s", "s"),
    ("placement.self_s", "s"),
    ("frames.self_s", "s"),
    ("placement.warnings", "count"),
    ("agent.simulate_session.calls", "count"),
    ("agent.simulate_session.busy_s", "s"),
    ("agent.search_and_open.calls", "count"),
    ("agent.search_and_open.busy_s", "s"),
    ("agent.focus_target.calls", "count"),
    ("agent.segments", "count"),
    ("agent.self_s", "s"),
    ("agent.SessionTrace.tick_samples.calls", "count"),
    ("agent.SessionTrace.tick_samples.busy_s", "s"),
    ("agent.SessionTrace.tick_samples.samples", "count"),
    ("metrics.session_metrics.busy_s", "s"),
    ("metrics.aggregate.busy_s", "s"),
    ("metrics.results_to_json.busy_s", "s"),
    ("metrics.json_bytes", "B"),
    ("cli.bytes_written", "B"),
    ("cli.gaze_rows_malformed", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program() -> None:
    """Import xrlayout from src/ beside this directory, or fail."""
    if not (SRC / "xrlayout" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no xrlayout package under {SRC}")
    sys.path.insert(0, str(SRC))
    import xrlayout

    if not Path(xrlayout.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: imported {xrlayout.__file__}, not the one under {SRC}")


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<52} {value!r:>24} {unit:<6} {note}".rstrip())


def _end_to_end(workload, args, tally, env, wl) -> dict:
    probe = wl.SetupProbe(env, args.seconds)
    if workload == "seed_sweep":
        timed = wl.timed_seed_sweep(args.seed, args.seconds, tally, probe)
    elif workload == "frame_placement":
        timed = wl.timed_frame_placement(args.seed, args.seconds, tally, probe)
    else:
        timed = wl.timed_cli_batch(args.seed, args.seconds, tally, probe, env)
    setup = probe.result()
    quiet = timed.rec.quiet()
    metrics = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": timed.peak_rss_kb * 1024 / 1e6,
        **{k: quiet[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_p90")},
    }
    rate_name, lat_name, lat_unit, scale = OP_NAMES[workload]
    every = quiet["all_ms"]
    print(
        f"{workload}: seed {args.seed}, {args.seconds:g} s, {len(every)} timed ops of "
        f"{quiet['kinds']} kinds; quiet sample: {quiet['kept']} ops"
    )
    _line("setup_s", metrics["setup_s"], "s",
          f"median of {wl.SETUP_RUNS} fresh interpreters spread over the run")
    _line("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    _line(rate_name, metrics["ops_per_s"], "1/s", "quiet sample")
    _line(f"{lat_name}_p50", metrics["op_ms_p50"] * scale, lat_unit, "quiet sample")
    _line(f"{lat_name}_p90", metrics["op_ms_p90"] * scale, lat_unit, "quiet sample")
    _line(f"{lat_name}_p50 (all ops)", statistics.median(every) * scale, lat_unit,
          "not gated")
    _line(f"{lat_name}_p90 (all ops)",
          statistics.quantiles(every, n=10, method="inclusive")[8] * scale, lat_unit,
          "not gated")
    _line("failed_frac", tally.failed / max(tally.attempted, 1), "ratio",
          f"{tally.failed}/{tally.attempted}")
    for key, value in timed.extra.items():
        _line(key, value, "count", f"seed {args.seed}")
    print(f"  output_digest sha256:{timed.digest}")
    return metrics


def _per_layer(workload, args, tally, env, wl) -> dict:
    setup = wl.SetupProbe(env, args.seconds).result()
    report = wl.traced_run(workload, args.seed, args.seconds, tally, env)
    report.update({k: setup[k] for k in ("setup.import_s", "setup.parse_s")})
    metrics = {name: report.get(name, 0) for name, _ in PER_LAYER}
    print(f"{workload} (traced): seed {args.seed}, {report.get('trace.units', 0)} traced units")
    for name, unit in PER_LAYER:
        _line(name, metrics[name], unit)
    _line("failed_frac", tally.failed / max(tally.attempted, 1), "ratio",
          f"{tally.failed}/{tally.attempted}")
    print(f"  spans written under {wl.OUT.relative_to(HERE.parent)}/")
    return metrics


def run_one(args) -> int:
    _import_program()
    import workloads as wl

    wl.OUT.mkdir(parents=True, exist_ok=True)
    env = wl.child_env()
    tally = wl.Tally()
    units = dict(END_TO_END if not args.trace else PER_LAYER)
    measure = _per_layer if args.trace else _end_to_end
    values = measure(args.workload, args, tally, env, wl)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    _import_program()
    print(f"python {platform.python_version()}, seed {args.seed}, {args.seconds:g} s per run")
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = out.stdout.splitlines()
            ok = out.returncode == 0 and json.loads(lines[-1])["correct"]
            print("\n".join(lines[:-1] if out.returncode == 0 else lines), flush=True)
            if not ok:
                print(f"{workload} trace={trace}: FAILED (exit {out.returncode})")
                status = 1
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
