"""Batch command line interface.

Subcommands:

  validate FILE...        check scenario files, print file:line:col diagnostics
  run                     simulate sessions and write metric tables
  compare A.json B.json   per-context sign report between two result sets

Exit codes: 0 success, 1 domain failure (invalid scenario, incomparable
results), 2 usage or I/O error.  Outputs are deterministic: identical
inputs and seeds produce byte-identical files (no timestamps, repr
floats, sorted keys, LF line endings, atomic replace on write).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from . import __version__
from .agent import simulate_session
from .errors import MismatchedScenarios, ScenarioError, XRLayoutError
from .metrics import (
    aggregate,
    gaze_csv_chunks,
    results_from_json,
    results_to_json,
    session_metrics,
    summaries_to_csv,
    trials_to_csv,
)
from .scenario import (
    SCHEMA_VERSION,
    TICK_RATE_RULE,
    Strategy,
    bundled_scenario_names,
    load_bundled,
    load_scenario,
    parse_scenario,
    valid_tick_rate,
)

OUT_DIR_ENV = "XRLAYOUT_OUT_DIR"

STRATEGY_FLAGS = {
    "env-ref": Strategy.ENVIRONMENT_REFERENCED,
    "body-fixed": Strategy.BODY_FIXED,
    "world-fixed": Strategy.WORLD_FIXED,
    "object-fixed": Strategy.OBJECT_FIXED,
    "head-fixed": Strategy.HEAD_FIXED,
}

COMPARE_METRICS = ("nav_time_mean_s", "switches_mean", "errors_total")


def _version_blob() -> str:
    return (
        json.dumps(
            {
                "package": "xrlayout",
                "version": __version__,
                "scenario_schema": SCHEMA_VERSION,
            },
            sort_keys=True,
        )
        + "\n"
    )


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to path as UTF-8 with LF line endings.

    The chunks are streamed into <name>.tmp beside path, one at a time, so
    no file is held whole; os.replace then puts it in place, so path holds
    either its old content or all of the new.  On any failure (a write, the
    replace, or the chunk source raising) the temp file is removed and the
    error propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_by_ref(ref: str, bundled: list[str]):
    """Scenario by bundled name (one of bundled, the listing) or filesystem path."""
    if ref in bundled:
        return load_bundled(ref)
    path = Path(ref)
    if not path.exists():
        raise FileNotFoundError(
            f"neither a bundled scenario nor a file; bundled: {', '.join(bundled)}"
        )
    return load_scenario(path)


# -- validate ----------------------------------------------------------------


def _cmd_validate(args) -> int:
    any_bad = False
    for name in args.files:
        path = Path(name)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeError) as exc:
            print(f"validate: cannot read {name}: {exc}", file=sys.stderr)
            return 2
        try:
            parse_scenario(text, source=str(path))
        except ScenarioError as exc:
            any_bad = True
            for d in exc.diagnostics:
                print(d.render(str(path)))
            continue
        print(f"{path}: OK")
    return 1 if any_bad else 0


# -- run ---------------------------------------------------------------------


def _run_one(scenario, strategy, seed):
    trace = simulate_session(scenario, strategy=strategy, seed=seed)
    rows = session_metrics(trace)
    summary = aggregate(rows, seed=seed)
    return trace, rows, summary


def _cmd_run(args) -> int:
    if bool(args.scenario) == bool(args.all):
        print("run: exactly one of --scenario or --all is required", file=sys.stderr)
        return 2
    bundled = bundled_scenario_names()
    refs = bundled if args.all else [args.scenario]
    strategy = STRATEGY_FLAGS[args.strategy] if args.strategy else None

    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    all_rows = []
    all_summaries = []
    gaze_traces = {}
    try:
        for ref in refs:
            scenario = _load_by_ref(ref, bundled)
            trace, rows, summary = _run_one(scenario, strategy, args.seed)
            all_rows.extend(rows)
            all_summaries.append(summary)
            if args.gaze:
                gaze_traces[f"gaze_{scenario.name}.csv"] = trace
    except (OSError, UnicodeError) as exc:
        print(f"run: cannot read {ref}: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        for d in exc.diagnostics:
            print(d.render(exc.source), file=sys.stderr)
        return 1
    except XRLayoutError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    all_rows.sort(key=lambda r: (r.context, r.strategy, r.trial_index))
    all_summaries.sort(key=lambda s: (s.context, s.strategy))
    meta = {
        "package_version": __version__,
        "scenario_schema": SCHEMA_VERSION,
        "seed": args.seed,
        "sessions": len(all_summaries),
    }

    # Each file is its text chunks; a gaze file's are made as it is written.
    if args.format == "json":
        files = {"results.json": [results_to_json(all_summaries, all_rows, meta=meta)]}
    else:
        files = {
            "summaries.csv": [summaries_to_csv(all_summaries)],
            "trials.csv": [trials_to_csv(all_rows)],
        }
    for name, trace in sorted(gaze_traces.items()):
        files[name] = gaze_csv_chunks(trace, args.tick_hz)
    try:
        for name, chunks in files.items():
            _atomic_write(out_dir / name, chunks)
    except OSError as exc:
        print(f"run: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 2

    print(f"{len(all_summaries)} sessions, {len(all_rows)} trials")
    for name in files:
        print(f"wrote {out_dir / name}")
    return 0


# -- compare -----------------------------------------------------------------


def compare_results(a_text: str, b_text: str) -> dict:
    """Per-context, per-metric sign report between two result sets.

    sign is -1 / 0 / +1 for (A - B); swapping inputs flips every sign.
    Raises MismatchedScenarios when the two sets cover different contexts
    or strategies.
    """
    a_summaries, _, _ = results_from_json(a_text)
    b_summaries, _, _ = results_from_json(b_text)
    a_by_key = {(s.context, s.strategy): s for s in a_summaries}
    b_by_key = {(s.context, s.strategy): s for s in b_summaries}
    if set(a_by_key) != set(b_by_key):
        only_a = sorted(set(a_by_key) - set(b_by_key))
        only_b = sorted(set(b_by_key) - set(a_by_key))
        raise MismatchedScenarios(
            f"result sets cover different sessions; only in A: {only_a}, only in B: {only_b}"
        )
    report = []
    for key in sorted(a_by_key):
        context, strategy = key
        for metric in COMPARE_METRICS:
            va = getattr(a_by_key[key], metric)
            vb = getattr(b_by_key[key], metric)
            sign = 0 if va == vb else (1 if va > vb else -1)
            report.append(
                {
                    "context": context,
                    "strategy": strategy,
                    "metric": metric,
                    "a": va,
                    "b": vb,
                    "sign": sign,
                }
            )
    return {"comparisons": report}


def _cmd_compare(args) -> int:
    try:
        a_text = Path(args.a).read_text(encoding="utf-8")
        b_text = Path(args.b).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        print(f"compare: cannot read: {exc}", file=sys.stderr)
        return 2
    try:
        report = compare_results(a_text, b_text)
    except MismatchedScenarios as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # results_from_json raises nothing else on bad text
        print(f"compare: malformed results file: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


# -- parser ------------------------------------------------------------------


def _positive_rate(text: str) -> float:
    """argparse type for tick rates: a number that passes valid_tick_rate."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not valid_tick_rate(value):
        raise argparse.ArgumentTypeError(f"expected {TICK_RATE_RULE}, got {text!r}")
    return value


class _VersionAction(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(_version_blob())
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xrlayout",
        description="Headless XR layout engine: validate, replay, compare.",
    )
    parser.add_argument(
        "--version", action=_VersionAction, nargs=0, help="print version info as JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check scenario files")
    p_val.add_argument("files", nargs="+", metavar="FILE")
    p_val.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="simulate sessions and write metrics")
    p_run.add_argument("--scenario", help="bundled scenario name or .scn path")
    p_run.add_argument("--all", action="store_true", help="run every bundled scenario")
    p_run.add_argument(
        "--strategy",
        choices=sorted(STRATEGY_FLAGS),
        help="override the placement strategy baked into the scenario",
    )
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument("--out", help=f"output directory (default: ${OUT_DIR_ENV} or .)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--tick-hz", type=_positive_rate, default=None, dest="tick_hz")
    p_run.add_argument(
        "--gaze", action="store_true", help="also write per-session gaze sample streams"
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="sign report between two result sets")
    p_cmp.add_argument("a", metavar="A.json")
    p_cmp.add_argument("b", metavar="B.json")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
