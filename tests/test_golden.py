"""Golden outputs: `run --all --format json --gaze --tick-hz 20` and
`run --all --format csv` are pinned by digest.

Fourteen runs are compared file by file against the sha256 manifest in
tests/golden/run_all.sha256: the JSON run at seeds 7 and 42 under the
fixture's own strategy and under each of the five --strategy overrides,
and the CSV run at both seeds under the fixture's strategy.  A change that
moves any output byte fails here and names the file.  The manifest was
produced by this command, run from the repository root:

    d=$(mktemp -d)
    for seed in 7 42; do
      for s in fixture env-ref body-fixed world-fixed object-fixed head-fixed; do
        if [ $s = fixture ]; then flag=; else flag="--strategy $s"; fi
        PYTHONPATH=src python -m xrlayout.cli run --all --format json --gaze \\
          --tick-hz 20 --seed $seed $flag --out $d/seed$seed/$s
      done
      PYTHONPATH=src python -m xrlayout.cli run --all --format csv \\
        --seed $seed --out $d/seed$seed/csv
    done
    (cd $d && sha256sum seed*/*/*) > tests/golden/run_all.sha256

Those runs are cold: each CLI run parses its fixtures afresh, so every
session fills the session plan it reads.  A seed sweep runs warm, every
seed on one parsed Scenario, and its later sessions read the plan the
first ones filled.  tests/golden/warm_sweep.sha256 pins that path: the
results.json text of every bundled fixture x strategy x seeds 1-20, run on
one Scenario per fixture.  It was produced by this command, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/warm_sweep.sha256
"""

import hashlib
from pathlib import Path

import pytest

import xrlayout as xl
from xrlayout.cli import STRATEGY_FLAGS, main

MANIFEST = Path(__file__).parent / "golden" / "run_all.sha256"
WARM_MANIFEST = Path(__file__).parent / "golden" / "warm_sweep.sha256"
WARM_SEEDS = range(1, 21)
SEEDS = (7, 42)
STRATEGIES = ("fixture", *sorted(STRATEGY_FLAGS))


def _manifest() -> dict[str, str]:
    digests = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, rel = line.split(maxsplit=1)
        digests[rel] = digest
    return digests


def _assert_golden(tmp_path, run_dir, argv):
    """Run the CLI with argv into tmp_path; its files must match run_dir's digests."""
    assert main([*argv, "--out", str(tmp_path)]) == 0
    want = {
        rel.removeprefix(run_dir + "/"): digest
        for rel, digest in _manifest().items()
        if rel.startswith(run_dir + "/")
    }
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
    }
    assert sorted(got) == sorted(want), "output file set changed"
    differing = sorted(name for name in want if got[name] != want[name])
    assert not differing, f"{run_dir}: outputs differ from golden: {differing}"


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_run_all_matches_golden_digests(tmp_path, seed, strategy):
    argv = ["run", "--all", "--format", "json", "--gaze", "--tick-hz", "20"]
    argv += ["--seed", str(seed)]
    if strategy != "fixture":
        argv += ["--strategy", strategy]
    _assert_golden(tmp_path, f"seed{seed}/{strategy}", argv)


@pytest.mark.parametrize("seed", SEEDS)
def test_run_all_csv_matches_golden_digests(tmp_path, seed):
    argv = ["run", "--all", "--format", "csv", "--seed", str(seed)]
    _assert_golden(tmp_path, f"seed{seed}/csv", argv)


def warm_sweep_results() -> str:
    """results.json text of every fixture x strategy x WARM_SEEDS, each fixture parsed once."""
    scenarios = [xl.load_bundled(name) for name in xl.bundled_scenario_names()]
    summaries, rows = [], []
    for seed in WARM_SEEDS:
        for scn in scenarios:
            for strategy in xl.Strategy:
                trial_rows = xl.session_metrics(
                    xl.simulate_session(scn, strategy=strategy, seed=seed)
                )
                summaries.append(xl.aggregate(trial_rows, seed=seed))
                rows.extend(trial_rows)
    meta = {"seeds": [WARM_SEEDS[0], WARM_SEEDS[-1]], "sessions": len(summaries)}
    return xl.results_to_json(summaries, rows, meta=meta)


def test_warm_seed_sweep_matches_golden_digest():
    digest, rel = WARM_MANIFEST.read_text(encoding="utf-8").split()
    assert rel == "warm_sweep/results.json"
    got = hashlib.sha256(warm_sweep_results().encode()).hexdigest()
    assert got == digest, "warm seed-sweep results differ from golden"


if __name__ == "__main__":
    print(f"{hashlib.sha256(warm_sweep_results().encode()).hexdigest()}  warm_sweep/results.json")
