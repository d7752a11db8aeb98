"""Tests for the command-line driver: argument handling, config files,
artifact output, error reporting, and run-to-run determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ctdopt import (
    FixedIterations,
    LambdaStall,
    RankThreshold,
    add,
    eval_entry,
    load_ctd,
    parse_termination,
    random_ctd,
    save_ctd,
    spike_ctd,
    termination_to_string,
    to_dense,
)
from ctdopt.cli import main

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def spiked_instance(rng, modes=(6, 6, 6), loc=(2, 0, 5), target=3.5):
    """Small background plus one spike making ``loc`` the clear maximum."""
    background = random_ctd(modes, 2, low=0.9, high=1.0, rng=rng)
    spike = spike_ctd(modes, loc, target - eval_entry(background, loc))
    return add(background, spike)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestTerminationParsing:
    def test_fixed(self):
        assert parse_termination("fixed:7") == FixedIterations(7)

    def test_lambda(self):
        rule = parse_termination("lambda:1e-4")
        assert isinstance(rule, LambdaStall)
        assert rule.delta == 1e-4

    def test_rank(self):
        assert parse_termination("rank:2") == RankThreshold(2)

    def test_round_trip(self):
        for text in ["fixed:7", "rank:2", "lambda:0.0001"]:
            assert termination_to_string(parse_termination(text)) == text

    def test_round_trip_from_rule(self):
        for rule in [FixedIterations(3), LambdaStall(1e-6), RankThreshold(1)]:
            assert parse_termination(termination_to_string(rule)) == rule

    def test_missing_separator(self):
        with pytest.raises(ValueError, match="kind:value"):
            parse_termination("sometimes")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_termination("epoch:3")

    def test_bad_argument(self):
        with pytest.raises(ValueError, match="bad termination"):
            parse_termination("fixed:soon")

    def test_invalid_rule_value(self):
        with pytest.raises(ValueError, match="bad termination"):
            parse_termination("rank:0")

    def test_to_string_rejects_unknown(self):
        with pytest.raises(ValueError):
            termination_to_string("rank:1")


class TestReduceCommand:
    def test_duplicate_terms_collapse(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        U = random_ctd([5, 5, 5], 3, rng=rng)
        doubled = add(U, U)
        src = tmp_path / "doubled.json"
        save_ctd(doubled, str(src))

        out = tmp_path / "red"
        rc = main(["reduce", str(src), "--epsilon", "1e-8",
                   "--algorithm", "id", "--out", str(out)])
        assert rc == 0

        meta = read_json(out / "reduction_metadata.json")
        assert meta["input_rank"] == 6
        assert meta["achieved_rank"] == 3
        assert meta["tolerance_met"]

        V = load_ctd(str(out / "reduced_ctd.json"))
        dense = to_dense(doubled)
        err = np.linalg.norm(to_dense(V) - dense)
        assert err <= 1e-8 * np.linalg.norm(dense)

        printed = json.loads(capsys.readouterr().out)
        assert printed == meta

    def test_already_minimal_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        U = random_ctd([4, 6, 5], 3, rng=rng)
        src = tmp_path / "u.json"
        save_ctd(U, str(src))

        out = tmp_path / "red"
        rc = main(["reduce", str(src), "--out", str(out)])
        assert rc == 0
        V = load_ctd(str(out / "reduced_ctd.json"))
        assert V.rank <= 3
        dense = to_dense(U)
        np.testing.assert_allclose(to_dense(V), dense,
                                   atol=1e-6 * np.linalg.norm(dense))

    def test_manifest_echoes_settings(self, tmp_path):
        rng = np.random.default_rng(2)
        src = tmp_path / "u.json"
        save_ctd(random_ctd([4, 4], 2, rng=rng), str(src))

        out = tmp_path / "red"
        main(["reduce", str(src), "--epsilon", "1e-5",
              "--norm", "snorm", "--out", str(out)])
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["operation"] == "reduce"
        assert manifest["config"]["epsilon"] == 1e-5
        assert manifest["config"]["norm"] == "snorm"
        assert "version" in manifest


class TestMaxEntryCommand:
    def test_finds_planted_spike(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        U = spiked_instance(rng)
        src = tmp_path / "spiked.json"
        save_ctd(U, str(src))

        out = tmp_path / "found"
        rc = main(["max-entry", str(src), "--epsilon", "1e-6", "--out", str(out)])
        assert rc == 0

        doc = read_json(out / "max_entry.json")
        assert doc["location"] == [3, 1, 6]
        np.testing.assert_allclose(doc["value"], 3.5, rtol=1e-6)
        assert doc["method"] == "squaring"
        assert (out / "max_entry_trace.csv").exists()

        printed = json.loads(capsys.readouterr().out)
        assert printed["location"] == [3, 1, 6]

    def test_power_method_via_config(self, tmp_path):
        rng = np.random.default_rng(5)
        src = tmp_path / "spiked.json"
        save_ctd(spiked_instance(rng), str(src))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "power", "epsilon": 1e-6}))

        out = tmp_path / "found"
        rc = main(["max-entry", str(src), "--config", str(config),
                   "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "max_entry.json")
        assert doc["method"] == "power"
        assert doc["location"] == [3, 1, 6]
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["method"] == "power"


class TestConfigFile:
    def test_config_overrides_flag(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3}))
        out = tmp_path / "demo"
        rc = main(["demo-convergence", "--seed", "99",
                   "--config", str(config), "--out", str(out)])
        assert rc == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["seed"] == 3

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sede": 3}))
        rc = main(["demo-convergence", "--config", str(config),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "sede" in err["message"]

    def test_method_key_needs_max_entry(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "power"}))
        rc = main(["demo-convergence", "--config", str(config),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_config_must_be_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([1, 2]))
        rc = main(["demo-convergence", "--config", str(config),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"


class TestErrorHandling:
    def test_unknown_command(self, capsys):
        rc = main(["frobnicate"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"

    def test_no_command(self, capsys):
        rc = main([])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["reduce", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_unparseable_input_file(self, tmp_path, capsys):
        src = tmp_path / "junk.json"
        src.write_text("not json")
        rc = main(["reduce", str(src), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] != "usage"

    def test_bad_termination_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        src = tmp_path / "u.json"
        save_ctd(random_ctd([4, 4], 2, rng=rng), str(src))
        rc = main(["max-entry", str(src), "--termination", "whenever",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_bad_choice_value(self, capsys):
        rc = main(["demo-convergence", "--norm", "euclidean"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"


class TestDeterminism:
    def test_demo_convergence_byte_identical(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc = main(["demo-convergence", "--seed", "7", "--out", str(d)])
            assert rc == 0
        capsys.readouterr()
        for name in ["convergence_trace.csv", "convergence_summary.json"]:
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second, name
        manifests = [read_json(d / "manifest.json") for d in dirs]
        for doc in manifests:
            doc["config"].pop("out_dir")
        assert manifests[0] == manifests[1]

    def test_compare_byte_identical(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc = main(["compare", "--trials", "3", "--seed", "11",
                       "--out", str(d)])
            assert rc == 0
        capsys.readouterr()
        for name in ["compare_results.csv", "compare_summary.json"]:
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second, name
        summary = read_json(dirs[0] / "compare_summary.json")
        assert summary["trials"] == 3
        assert (dirs[0] / "compare_times.csv").exists()


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        rng = np.random.default_rng(8)
        src = tmp_path / "u.json"
        save_ctd(random_ctd([4, 4, 4], 2, rng=rng), str(src))
        out = tmp_path / "red"
        # the child imports the package from this checkout's src directory,
        # whether or not the test run itself was given a PYTHONPATH
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ctdopt", "reduce", str(src),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        printed = json.loads(proc.stdout)
        assert printed["achieved_rank"] <= 2
        assert (out / "reduced_ctd.json").exists()
