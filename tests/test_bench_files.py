"""The committed BENCH_*.json files hold what their summaries say.

A BENCH file records interleaved parent/change pairs of perfbench/run.py
(one block at the file's top level, and one more under each named key).
Every pair must have checked the same outputs on both sides, with no
failed op, and each summary (medians, inclusive quartiles, win counts,
ratios, the median gap against the parent's IQR) must follow from the
pairs, so a hand-edited number cannot stand.

The benchmark's tracer also pins names of the package: every function it
wraps and every class whose constructions it counts must still exist, or
the traced run stops before it measures anything.
"""

import ast
import importlib
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
