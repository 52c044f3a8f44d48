"""Interleaved parent/change pairs of perfbench/run.py, appended as a BENCH block.

Run from the repository root:

    python tools/bench_pairs.py --parent REV --label NAME \\
        --workload seed_sweep=10 --workload cli_batch=5 --seed S [--claim METRIC]

Each side (the parent, --parent, and the change, HEAD) is exported with
`git archive` into a directory of its own under a temporary directory, so
each runs its own committed perfbench/ and src/ and nothing else: no
working-tree edit, no build left over, no registration in the repository.
For every workload, pair k runs `python3 perfbench/run.py --workload W
--seed S --seconds 30` once on each side, unmodified, the parent first on
even k and the change first on odd k, both sides under PYTHONHASHSEED=k:
a side's hash layout is then the same as its pair partner's and varies
across pairs, so it cannot read as a change.  Every pair must report
failed = 0 on both sides and the same output_digest on both, or nothing
is written.  With --traced, each side then runs once more with --trace 1
(PYTHONHASHSEED=0) per workload.

The block goes under key NAME of BENCH_<first workload>.json: what,
claim (the first workload's --claim metric, ops_per_s by default, any
end-to-end metric of BENCHMARK.json), command, parent, host and seed;
per workload its pairs (each with its hashseed) and their summary
(median and inclusive quartiles
per side, ratio of medians, change wins, the median gap against the
parent's IQR, and the metric's bound and verdict (see verdict), for every
end-to-end metric of BENCHMARK.json), output_digest_equal, output_digest
and failed_total, the shape tests/test_bench_files.py recomputes; and
with --traced the traced per-layer metrics per side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DIGEST = re.compile(r"output_digest sha256:([0-9a-f]+)")
SECONDS = 30  # per run
# How a claim prints a metric's values, by the metric's BENCHMARK.json unit.
UNIT_FORMATS = {"1/s": "{:,.0f}", "MB": "{:.2f} MB", "s": "{:.4f} s", "ms": "{:.3f} ms"}


def export(rev: str, dest: Path) -> None:
    """The committed tree of rev, extracted into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest)


def run_bench(tree: Path, workload: str, seed: int, trace: int, hashseed: int) -> dict:
    """One perfbench/run.py run in tree under PYTHONHASHSEED=hashseed: its metric
    values, digest, failed and attempted."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = str(hashseed)
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        digest = DIGEST.search(out.stdout)
        values["output_digest"] = digest.group(1) if digest else None
        values["failed"] = result["failed"]
        values["attempted"] = result["attempted"]
    return values


def verdict(summary: dict) -> str:
    """A metric's verdict against its bound, a fraction of the parent's median.

    "unresolved" when the parent's IQR exceeds the bound, so the runs spread
    too widely to tell; else "worse past bound" when the change's median is
    worse than the parent's by more than the bound; "better" when it is
    better by more than the parent's IQR; else "within bound".
    """
    parent, change = summary["parent"]["median"], summary["change"]["median"]
    gap, iqr = summary["median_gap_vs_parent_iqr"]
    allowed = summary["bound"] * abs(parent)
    worse = change < parent if summary["better"] == "higher" else change > parent
    if iqr > allowed:
        return "unresolved"
    if worse and gap > allowed:
        return "worse past bound"
    return "better" if not worse and gap > iqr else "within bound"


def summarize(pairs: list[dict], metric: str, better: str, bound: float) -> dict:
    sides = {s: [p[s][metric] for p in pairs] for s in SIDES}
    summary: dict = {"better": better}
    for side, values in sides.items():
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary[side] = {"q1": q1, "median": statistics.median(values), "q3": q3}
    parent, change = summary["parent"], summary["change"]
    higher = better == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
    summary["ratio_of_medians"] = change["median"] / parent["median"]
    summary["change_wins"] = f"{wins}/{len(pairs)}"
    summary["median_gap_vs_parent_iqr"] = [
        abs(change["median"] - parent["median"]),
        parent["q3"] - parent["q1"],
    ]
    summary["bound"] = bound
    summary["verdict"] = verdict(summary)
    return summary


def measure(trees: dict, workload: str, n: int, seed: int, metrics, shown: str) -> dict:
    pairs = []
    for k in range(n):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"pair": k, "first": order[0], "hashseed": k}
        for side in order:
            pair[side] = run_bench(trees[side], workload, seed, trace=0, hashseed=k)
        print(
            f"{workload} pair {k}: {shown} {pair['parent'][shown]:.6g} -> "
            f"{pair['change'][shown]:.6g}",
            flush=True,
        )
        for side in SIDES:
            if pair[side]["failed"] or pair[side]["output_digest"] is None:
                raise SystemExit(f"{workload} pair {k}: {side} failed or printed no digest")
        if pair["parent"]["output_digest"] != pair["change"]["output_digest"]:
            raise SystemExit(f"{workload} pair {k}: the sides' output digests differ")
        pairs.append(pair)
    return {
        "pairs": pairs,
        "summary": {
            m["name"]: summarize(pairs, m["name"], m["better"], m["bound"]) for m in metrics
        },
        "output_digest_equal": True,
        "output_digest": sorted({p["change"]["output_digest"] for p in pairs}),
        "failed_total": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
    }


def claim(workload: str, summary: dict, metric: str, unit: str) -> str:
    s = summary[metric]
    fmt = UNIT_FORMATS[unit].format
    gap, iqr = s["median_gap_vs_parent_iqr"]
    return (
        f"{workload} {metric}: median {fmt(s['parent']['median'])} -> "
        f"{fmt(s['change']['median'])} ({s['ratio_of_medians']:.2f}x), change wins "
        f"{s['change_wins']} pairs, median gap {fmt(gap)} vs parent IQR {fmt(iqr)}"
    )


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="tools/bench_pairs.py", description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="the parent revision")
    p.add_argument(
        "--workload", action="append", required=True, metavar="W=PAIRS",
        help="a workload and its pair count; repeatable",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--label", required=True, help="the block's key in the BENCH file")
    p.add_argument("--what", default="", help="what the change is (the block's 'what')")
    p.add_argument("--traced", action="store_true", help="add one --trace 1 run per side")
    p.add_argument(
        "--claim", default="ops_per_s", metavar="METRIC",
        help="the end-to-end metric the claim line states (default: ops_per_s)",
    )
    args = p.parse_args(argv)
    plan = []
    for spec in args.workload:
        name, _, n = spec.partition("=")
        if not n:
            p.error(f"--workload {spec}: give its pair count as W=PAIRS")
        plan.append((name, int(n)))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    if args.claim not in units:
        p.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json ({', '.join(units)})")
    out = ROOT / f"BENCH_{plan[0][0]}.json"
    revs = {
        side: subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", rev],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", "HEAD"))
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        workloads = {
            name: measure(trees, name, n, args.seed, metrics, args.claim) for name, n in plan
        }
        traced = {
            name: {
                side: run_bench(trees[side], name, args.seed, trace=1, hashseed=0)
                for side in SIDES
            }
            for name, _ in plan
        } if args.traced else None
    counts = ", ".join(f"{name} {n} pairs" for name, n in plan)
    block = {
        "what": (
            f"{args.what} Interleaved parent/change pairs of unmodified perfbench/run.py "
            f"({counts}), {SECONDS} s per run, order alternated per pair, each side "
            f"run from its own export of the committed tree (tools/bench_pairs.py)."
        ).strip(),
        "claim": claim(
            plan[0][0], workloads[plan[0][0]]["summary"], args.claim, units[args.claim]
        ),
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
        f"--seconds {SECONDS}",
        "parent": revs["parent"],
        "host": f"{os.cpu_count()} CPUs ({platform.machine()}), Python "
        f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "seed": args.seed,
        "workloads": workloads,
    }
    if traced is not None:
        block["traced"] = traced
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.label] = block
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{out.name}: block {args.label!r} written; {block['claim']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
