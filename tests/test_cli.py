"""Command line interface: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import xrlayout
from xrlayout import __version__
from xrlayout.cli import build_parser, compare_results, main
from xrlayout.errors import MismatchedScenarios
from xrlayout.metrics import summaries_from_csv, trials_from_csv
from xrlayout.scenario import (
    MAX_TICK_HZ,
    SCHEMA_VERSION,
    TICK_RATE_RULE,
    bundled_scenario_names,
)

FIXTURES = resources.files("xrlayout") / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVersion:
    def test_version_prints_machine_readable_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob == {
            "package": "xrlayout",
            "version": __version__,
            "scenario_schema": SCHEMA_VERSION,
        }


class TestValidate:
    def test_valid_files_exit_zero(self, capsys):
        path = FIXTURES / "static_stationary_env_ref.scn"
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert out == f"{path}: OK\n"

    def test_invalid_file_prints_diagnostics_and_exits_one(self, capsys):
        bad = FIXTURES / "invalid" / "invalid_stationary_near_flag.scn"
        good = FIXTURES / "dynamic_mobile_env_ref.scn"
        code, out, err = run_cli(capsys, "validate", str(bad), str(good))
        assert code == 1
        lines = out.splitlines()
        assert any(": invariant" in line and str(bad) in line for line in lines)
        assert f"{good}: OK" in lines
        # diagnostics carry a 1-based location and a document path
        bad_line = next(line for line in lines if str(bad) in line)
        _, line_no, col_no, rest = bad_line.split(":", 3)
        assert int(line_no) >= 1 and int(col_no) >= 1
        assert " at trials" in rest

    def test_unreplayable_scene_prints_diagnostics_and_exits_one(self, capsys, tmp_path):
        # an intermediary on the user used to escape as a DegenerateTarget traceback
        doc = json.loads((FIXTURES / "static_stationary_env_ref.scn").read_text())
        next(e for e in doc["entities"] if e["id"] == "poster_sports")["position"] = [0, 0, 0]
        path = tmp_path / "on_user.scn"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert f"{path}:1:1: invariant at entities: scene cannot be replayed" in out
        assert err == ""

    def test_unreadable_file_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", str(tmp_path / "missing.scn"))
        assert code == 2
        assert "cannot read" in err


class TestRun:
    def test_requires_exactly_one_target(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--out", str(tmp_path))
        assert code == 2
        code, _, err2 = run_cli(
            capsys, "run", "--all", "--scenario", "static_mobile_env_ref",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "exactly one" in err and "exactly one" in err2

    def test_unknown_scenario_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "no_such_session", "--out", str(tmp_path)
        )
        assert code == 2
        assert "bundled" in err

    def test_invalid_scenario_file_exits_one(self, capsys, tmp_path):
        bad = FIXTURES / "invalid" / "invalid_mobile_five_trials.scn"
        code, _, err = run_cli(capsys, "run", "--scenario", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "invariant" in err

    def test_single_scenario_csv_outputs(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "static_mobile_env_ref", "--out", str(tmp_path)
        )
        assert code == 0
        assert "1 sessions, 6 trials" in out
        summaries = summaries_from_csv((tmp_path / "summaries.csv").read_text())
        trials = trials_from_csv((tmp_path / "trials.csv").read_text())
        assert len(summaries) == 1
        assert len(trials) == 6
        assert summaries[0].context == "static_mobile"
        assert summaries[0].strategy == "environment_referenced"

    def test_all_runs_every_bundled_scenario(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--all", "--format", "json", "--out", str(tmp_path)
        )
        assert code == 0
        assert "8 sessions, 36 trials" in out
        doc = json.loads((tmp_path / "results.json").read_text())
        assert len(doc["summaries"]) == len(bundled_scenario_names()) == 8
        assert len(doc["trials"]) == 36
        assert doc["meta"]["sessions"] == 8
        assert doc["meta"]["seed"] == 42
        assert "timestamp" not in json.dumps(doc["meta"])
        keys = [(s["context"], s["strategy"]) for s in doc["summaries"]]
        assert keys == sorted(keys)

    def test_strategy_override(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", "--scenario", "static_stationary_env_ref",
            "--strategy", "head-fixed", "--out", str(tmp_path),
        )
        assert code == 0
        trials = trials_from_csv((tmp_path / "trials.csv").read_text())
        assert {r.strategy for r in trials} == {"head_fixed"}

    def test_out_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("XRLAYOUT_OUT_DIR", str(tmp_path / "nested" / "out"))
        code, out, _ = run_cli(capsys, "run", "--scenario", "dynamic_mobile_env_ref")
        assert code == 0
        assert (tmp_path / "nested" / "out" / "trials.csv").exists()

    def test_explicit_out_beats_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("XRLAYOUT_OUT_DIR", str(tmp_path / "env"))
        code, _, _ = run_cli(
            capsys, "run", "--scenario", "dynamic_mobile_env_ref",
            "--out", str(tmp_path / "flag"),
        )
        assert code == 0
        assert (tmp_path / "flag" / "trials.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_identical_seeds_give_byte_identical_outputs(self, capsys, tmp_path):
        for sub in ("a", "b"):
            code, _, _ = run_cli(
                capsys, "run", "--all", "--seed", "7", "--format", "json",
                "--out", str(tmp_path / sub),
            )
            assert code == 0
        a = (tmp_path / "a" / "results.json").read_bytes()
        b = (tmp_path / "b" / "results.json").read_bytes()
        assert a == b

    def test_different_seeds_change_something(self, capsys, tmp_path):
        for sub, seed in (("a", "1"), ("b", "2")):
            run_cli(
                capsys, "run", "--scenario", "dynamic_mobile_body_fixed",
                "--seed", seed, "--format", "json", "--out", str(tmp_path / sub),
            )
        a = (tmp_path / "a" / "results.json").read_bytes()
        b = (tmp_path / "b" / "results.json").read_bytes()
        assert a != b

    def test_gaze_stream_export(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "static_stationary_env_ref",
            "--gaze", "--tick-hz", "10", "--out", str(tmp_path),
        )
        assert code == 0
        gaze = (tmp_path / "gaze_static_stationary_env_ref.csv").read_text()
        lines = gaze.splitlines()
        assert lines[0] == "t,target"
        assert len(lines) > 100
        t0 = float(lines[1].split(",", 1)[0])
        t1 = float(lines[2].split(",", 1)[0])
        assert t1 - t0 == pytest.approx(0.1)

    @pytest.mark.parametrize("hz", ["0", "-5"])
    def test_non_positive_tick_hz_exits_two(self, capsys, tmp_path, hz):
        # 0 used to fall back to the fixture rate and -5 wrote a 1-sample stream
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--scenario", "static_stationary_env_ref",
                "--gaze", "--tick-hz", hz, "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "--tick-hz" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("hz", ["1e308", "1e-320", "10000.5"])
    def test_out_of_range_tick_hz_exits_two(self, capsys, tmp_path, hz):
        # 1e308 died with an OverflowError traceback and 1e-320 wrote one
        # "nan,NoGaze()" row; rejected before anything is simulated
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--scenario", "static_stationary_env_ref",
                "--gaze", "--tick-hz", hz, "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --tick-hz: expected {TICK_RATE_RULE}, got {hz!r}" in err
        assert not any(tmp_path.iterdir())

    def test_max_tick_hz_is_accepted(self):
        # checked on the parser alone: a full session at 10 kHz is 10^6 rows
        args = build_parser().parse_args(["run", "--all", "--tick-hz", str(MAX_TICK_HZ)])
        assert args.tick_hz == MAX_TICK_HZ


class TestIOErrors:
    @pytest.mark.parametrize(
        "case",
        [
            "run --out at a file",
            "run --scenario at a directory",
            "run on a non-UTF-8 file",
            "validate on a non-UTF-8 file",
            "compare on a non-UTF-8 file",
        ],
    )
    def test_io_errors_print_one_line_and_exit_two(self, capsys, tmp_path, case):
        # each used to escape as a traceback with exit code 1
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        latin1 = tmp_path / "latin1.scn"
        latin1.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
        out = str(tmp_path / "out")
        argv = {
            "run --out at a file": ["run", "--scenario", "static_mobile_env_ref", "--out", a_file],
            "run --scenario at a directory": ["run", "--scenario", str(tmp_path), "--out", out],
            "run on a non-UTF-8 file": ["run", "--scenario", str(latin1), "--out", out],
            "validate on a non-UTF-8 file": ["validate", str(latin1)],
            "compare on a non-UTF-8 file": ["compare", str(latin1), str(latin1)],
        }[case]
        code, stdout, err = run_cli(capsys, *map(str, argv))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1, err


class TestCompare:
    def _results(self, capsys, tmp_path, name, seed, sub, strategy=None):
        argv = [
            "run", "--scenario", name, "--seed", str(seed),
            "--format", "json", "--out", str(tmp_path / sub),
        ]
        if strategy:
            argv += ["--strategy", strategy]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        return tmp_path / sub / "results.json"

    def test_report_structure_and_antisymmetry(self, capsys, tmp_path):
        a = self._results(capsys, tmp_path, "dynamic_mobile_body_fixed", 1, "a")
        b = self._results(capsys, tmp_path, "dynamic_mobile_body_fixed", 2, "b")
        code, out, _ = run_cli(capsys, "compare", str(a), str(b))
        assert code == 0
        fwd = json.loads(out)["comparisons"]
        assert len(fwd) == 3  # one session key, three metrics
        code, out, _ = run_cli(capsys, "compare", str(b), str(a))
        rev = json.loads(out)["comparisons"]
        for f, r in zip(fwd, rev):
            assert f["metric"] == r["metric"]
            assert f["sign"] == -r["sign"]
            assert f["a"] == r["b"] and f["b"] == r["a"]

    def test_mismatched_sessions_exit_one(self, capsys, tmp_path):
        a = self._results(capsys, tmp_path, "static_mobile_env_ref", 1, "a")
        b = self._results(
            capsys, tmp_path, "static_mobile_env_ref", 1, "b", strategy="body-fixed"
        )
        code, _, err = run_cli(capsys, "compare", str(a), str(b))
        assert code == 1
        assert "different sessions" in err

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[" * 100_000, "1" * 5_000],
        ids=["not json", "nested too deep", "5000-digit integer"],
    )
    def test_malformed_json_exits_two(self, capsys, tmp_path, text):
        good = self._results(capsys, tmp_path, "static_mobile_env_ref", 1, "a")
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "compare", str(good), str(bad))
        assert code == 2
        assert "malformed" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        good = self._results(capsys, tmp_path, "static_mobile_env_ref", 1, "a")
        code, _, err = run_cli(capsys, "compare", str(good), str(tmp_path / "nope.json"))
        assert code == 2

    def test_compare_results_equal_inputs_all_zero(self, capsys, tmp_path):
        a = self._results(capsys, tmp_path, "static_stationary_env_ref", 5, "a")
        text = a.read_text()
        report = compare_results(text, text)
        assert all(c["sign"] == 0 for c in report["comparisons"])

    def test_compare_results_raises_on_key_mismatch(self):
        empty = json.dumps({"meta": {}, "summaries": [], "trials": []})
        one = json.dumps(
            {
                "meta": {},
                "summaries": [
                    {
                        "context": "static_mobile",
                        "strategy": "body_fixed",
                        "seed": 1,
                        "trials": 6,
                        "nav_time_mean_s": 1.0,
                        "nav_time_median_s": 1.0,
                        "nav_time_sd_s": 0.0,
                        "switches_mean": 0.0,
                        "switches_median": 0.0,
                        "switches_sd": 0.0,
                        "errors_total": 0,
                        "relevant_fraction": 0.5,
                    }
                ],
                "trials": [],
            }
        )
        with pytest.raises(MismatchedScenarios):
            compare_results(empty, one)


class TestImportGraph:
    def test_a_full_run_loads_no_statistics_modules(self, tmp_path):
        """A mean and a median need no statistics module, nor the fractions and
        decimal modules it brings, in a CLI process."""
        script = (
            "import sys\n"
            "from xrlayout.cli import main\n"
            f"code = main(['run', '--all', '--format', 'json', '--gaze', '--out', {str(tmp_path)!r}])\n"
            "print(code, sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))\n"
        )
        src = str(Path(xrlayout.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.splitlines()[-1] == "0 []"
        assert (tmp_path / "results.json").exists()
