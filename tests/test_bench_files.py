"""The committed BENCH_*.json files hold what their summaries say.

A BENCH file records interleaved parent/change pairs of perfbench/run.py
(one block at the file's top level, and one more under each named key).
Every pair must have checked the same outputs on both sides, with no
failed op, and each summary (medians, inclusive quartiles, win counts,
ratios, the median gap against the parent's IQR, and where a block has
one, the verdict against the metric's bound) must follow from the pairs,
so a hand-edited number cannot stand.

The benchmark's tracer also pins names of the package: every function it
wraps and every class whose constructions it counts must still exist, or
the traced run stops before it measures anything.
"""

import ast
import importlib
import importlib.util
import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def blocks(doc: dict):
    """(label, block) for the top-level block and every named one."""
    if "workloads" in doc:
        yield "<top>", doc
    for key, value in doc.items():
        if isinstance(value, dict) and "workloads" in value:
            yield key, value


CASES = [
    pytest.param(block, id=f"{path.name}:{label}")
    for path in BENCH_FILES
    for label, block in blocks(json.loads(path.read_text()))
]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def expected_verdict(summary: dict) -> str:
    """The verdict of a summary against its bound (a fraction of the parent's median)."""
    p, c = summary["parent"], summary["change"]
    sign = 1.0 if summary["better"] == "lower" else -1.0
    worse_by = sign * (c["median"] - p["median"])  # positive when the change is worse
    allowed = summary["bound"] * abs(p["median"])
    if p["q3"] - p["q1"] > allowed:
        return "unresolved"
    if worse_by > allowed:
        return "worse past bound"
    if -worse_by > p["q3"] - p["q1"]:
        return "better"
    return "within bound"


def test_there_are_bench_blocks():
    assert BENCH_FILES and CASES


@pytest.mark.parametrize("block", CASES)
def test_pairs_check_equal_outputs_without_failures(block):
    for workload in block["workloads"].values():
        digests = set()
        failed = {"parent": 0, "change": 0}
        for pair in workload["pairs"]:
            assert pair["parent"]["output_digest"] == pair["change"]["output_digest"]
            assert pair["parent"]["failed"] == 0 and pair["change"]["failed"] == 0
            digests.add(pair["change"]["output_digest"])
            for side in failed:
                failed[side] += pair[side]["failed"]
        assert workload["output_digest_equal"] is True
        assert sorted(digests) == sorted(workload["output_digest"])
        assert workload["failed_total"] == failed


@pytest.mark.parametrize("block", CASES)
def test_summaries_follow_from_the_pairs(block):
    for workload in block["workloads"].values():
        pairs = workload["pairs"]
        assert [p["pair"] for p in pairs] == list(range(len(pairs)))
        for metric, summary in workload["summary"].items():
            sides = {s: [p[s][metric] for p in pairs] for s in ("parent", "change")}
            for side, values in sides.items():
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                got = summary[side]
                assert close(got["q1"], q1) and close(got["q3"], q3), (metric, side)
                assert close(got["median"], statistics.median(values)), (metric, side)
            parent, change = summary["parent"], summary["change"]
            assert close(summary["ratio_of_medians"], change["median"] / parent["median"])
            higher = summary["better"] == "higher"
            wins = sum(
                (c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"])
            )
            assert summary["change_wins"] == f"{wins}/{len(pairs)}", metric
            gap, iqr = summary["median_gap_vs_parent_iqr"]
            assert close(gap, abs(change["median"] - parent["median"])), metric
            assert close(iqr, parent["q3"] - parent["q1"]), metric
            if "verdict" in summary:
                assert summary["verdict"] == expected_verdict(summary), metric


def test_bench_pairs_writes_each_verdict():
    """tools/bench_pairs.py's summary on pairs made to fall in each verdict."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def summary(parent, change, better="higher"):
        pairs = [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]
        return tool.summarize(pairs, "m", better, 0.25)

    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    cases = {
        "better": summary(steady, [120.0, 121.0, 119.0, 120.0, 120.5]),
        "within bound": summary(steady, [90.0, 91.0, 89.0, 90.0, 90.5]),
        "worse past bound": summary(steady, [70.0, 71.0, 69.0, 70.0, 70.5]),
        "unresolved": summary([50.0, 150.0, 100.0, 60.0, 140.0], steady),
        "worse past bound, lower better": summary(steady, [130.0] * 5, better="lower"),
    }
    for name, got in cases.items():
        assert got["bound"] == 0.25
        assert got["verdict"] == expected_verdict(got) == name.split(",")[0], name


def tracer_table(name: str) -> tuple:
    """A literal table of perfbench/tracer.py, read without running the file."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py has no {name}")


@pytest.mark.parametrize("module, path, span", tracer_table("SPAN_TARGETS"))
def test_every_traced_function_exists(module, path, span):
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(f"xrlayout.{module}")
    if owner_name:  # the tracer patches a method in its class's own namespace
        owner = getattr(owner, owner_name)
        assert callable(vars(owner).get(attr)), span
    else:
        assert callable(getattr(owner, attr, None)), span


@pytest.mark.parametrize("module, cls, key", tracer_table("COUNTED_CLASSES"))
def test_every_counted_class_exists(module, cls, key):
    assert isinstance(getattr(importlib.import_module(f"xrlayout.{module}"), cls, None), type), key
