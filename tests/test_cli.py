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
    scale,
    spike_ctd,
    termination_to_string,
    to_dense,
)
from ctdopt import cli
from ctdopt.cli import CommandLineError, main

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

    def test_unparseable_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("not json")
        out = tmp_path / "out"
        rc = main(["demo-convergence", "--config", str(config), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "JSON" in err["message"]
        assert not out.exists()
        # A config file that is not there is not a usage problem, like a
        # missing input file.
        rc = main(["demo-convergence", "--config", str(tmp_path / "absent.json"),
                   "--out", str(out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        assert not out.exists()

    def test_config_must_be_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([1, 2]))
        rc = main(["demo-convergence", "--config", str(config),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"


# Every flag a command may take, with a value and the value it parses to.
FLAG_VALUES = {
    "--seed": ("5", 5),
    "--trials": ("3", 3),
    "--epsilon": ("1e-5", 1e-5),
    "--norm": ("snorm", "snorm"),
    "--algorithm": ("als", "als"),
    "--termination": ("rank:2", "rank:2"),
    "--out": ("outdir", "outdir"),
    "--config": ("config.json", "config.json"),
    "--method": ("power", "power"),
}

# Exactly the flags each command's run reads.
KEPT_FLAGS = {
    "demo-convergence": ["--seed", "--epsilon", "--norm", "--algorithm",
                         "--termination", "--out", "--config"],
    "demo-two-maxima": ["--seed", "--epsilon", "--norm", "--algorithm",
                        "--out", "--config"],
    "compare": ["--seed", "--trials", "--epsilon", "--norm", "--algorithm",
                "--termination", "--out", "--config"],
    "ackley": ["--epsilon", "--norm", "--algorithm", "--termination",
               "--out", "--config"],
    "reduce": ["--epsilon", "--norm", "--algorithm", "--out", "--config"],
    "max-entry": ["--epsilon", "--norm", "--algorithm", "--termination",
                  "--method", "--out", "--config"],
}

# Flags a command used to accept although its run never read them.
REMOVED_FLAGS = [
    ("demo-convergence", "--trials"),
    ("demo-two-maxima", "--trials"),
    ("demo-two-maxima", "--termination"),
    ("ackley", "--seed"),
    ("ackley", "--trials"),
    ("reduce", "--seed"),
    ("reduce", "--trials"),
    ("reduce", "--termination"),
    ("max-entry", "--seed"),
    ("max-entry", "--trials"),
]


def command_argv(command, src):
    """The command with its input file, if it takes one."""
    return [command, str(src)] if command in ("reduce", "max-entry") else [command]


class TestCommandFlags:
    @pytest.fixture
    def src(self, tmp_path):
        path = tmp_path / "u.json"
        save_ctd(random_ctd([4, 4], 2, rng=np.random.default_rng(6)), str(path))
        return path

    def test_each_command_takes_exactly_its_flags(self, src):
        for command, kept in KEPT_FLAGS.items():
            for flag, (text, value) in FLAG_VALUES.items():
                argv = command_argv(command, src) + [flag, text]
                if flag not in kept:
                    with pytest.raises(CommandLineError, match=flag):
                        cli._build_parser().parse_args(argv)
                    continue
                args = cli._build_parser().parse_args(argv)
                assert getattr(args, flag[2:]) == value, (command, flag)

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
    def test_removed_flag_is_usage_error(self, tmp_path, src, capsys, command, flag):
        out = tmp_path / "out"
        argv = command_argv(command, src) + [flag, FLAG_VALUES[flag][0]]
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert flag in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
    def test_removed_config_key_is_usage_error(self, tmp_path, src, capsys,
                                               command, flag):
        key = flag[2:]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: FLAG_VALUES[flag][1]}))
        out = tmp_path / "out"
        rc = main(command_argv(command, src) + ["--config", str(config),
                                                "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert f"unknown config key {key!r}" in err["message"]
        assert not out.exists()

    def test_manifest_names_only_settings_read(self, tmp_path, capsys):
        out = tmp_path / "demo"
        rc = main(["demo-convergence", "--seed", "7", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        config = read_json(out / "manifest.json")["config"]
        assert config["seed"] == 7
        assert "trials" not in config


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


class TestInvalidValues:
    def test_bad_values_are_usage_errors(self, tmp_path, capsys):
        """A value the configuration rejects, from a flag or a config file,
        exits 2 with a usage error before anything runs."""
        src = tmp_path / "u.json"
        save_ctd(random_ctd([4, 4], 2, rng=np.random.default_rng(6)), str(src))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epsilon": -1}))
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps({"trials": "many"}))
        method = tmp_path / "method.json"
        method.write_text(json.dumps({"method": "bogus"}))
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"seed": "abc"}))
        cases = [
            (["demo-convergence", "--epsilon", "0"], "epsilon"),
            (["compare", "--trials", "0"], "trials"),
            (["demo-convergence", "--config", str(config)], "epsilon"),
            (["compare", "--config", str(typed)], "not supported"),
            (["reduce", str(src), "--epsilon", "0"], "epsilon"),
            (["max-entry", str(src), "--config", str(config)], "epsilon"),
            (["max-entry", str(src), "--config", str(method)], "bogus"),
            (["demo-convergence", "--config", str(seed)], "seed"),
        ]
        for argv, word in cases:
            out = tmp_path / "out"
            rc = main(argv + ["--out", str(out)])
            assert rc == 2, argv
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "usage", argv
            assert word in err["message"], argv
            assert not out.exists(), argv

    @pytest.mark.parametrize("argv", [
        ["demo-convergence", "--seed", "-1"],
        ["demo-two-maxima", "--seed", "-1"],
        ["compare", "--seed", "-1", "--trials", "1"],
        ["demo-convergence", "--config", "seed.json"],
    ], ids=["demo-convergence", "demo-two-maxima", "compare", "config-file"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        (tmp_path / "seed.json").write_text(json.dumps({"seed": -1}))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "seed" in err["message"]
        assert not out.exists()


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


    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # Each command runs twice in a child process, into the same --out
        # directory: once on one OpenBLAS thread, once with this process's
        # environment (BLAS picks its own thread count).  Every file written
        # must be byte-identical.
        rng = np.random.default_rng(9)
        W = random_ctd([40] * 4, 12, low=-1.0, high=1.0, rng=rng)
        noise = random_ctd([40] * 4, 6, low=-1.0, high=1.0, rng=rng)
        U = add(add(W, scale(W, 0.5)), scale(noise, 1e-5))
        src = tmp_path / "u.json"
        save_ctd(U, str(src))
        # ID in the s-norm at 1e-5 settles its skeleton on the flattening
        # bound: a positive-definiteness verdict read from GEMM output.
        commands = {
            "reduce": ["reduce", str(src), "--algorithm", "als",
                       "--norm", "frobenius", "--epsilon", "1e-6"],
            "reduce-snorm": ["reduce", str(src), "--algorithm", "id",
                             "--norm", "snorm", "--epsilon", "1e-5"],
            "demo": ["demo-convergence", "--seed", "7"],
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        one_thread = dict(env, OPENBLAS_NUM_THREADS="1")
        for name, argv in commands.items():
            out = tmp_path / name
            runs = []
            for child_env in (one_thread, env):
                proc = subprocess.run(
                    [sys.executable, "-m", "ctdopt", *argv, "--out", str(out)],
                    capture_output=True, text=True, env=child_env,
                )
                assert proc.returncode == 0, proc.stderr
                files = sorted(out.iterdir())
                runs.append((proc.stdout, {f.name: f.read_bytes() for f in files}))
                for f in files:
                    f.unlink()
            assert runs[0][1], name
            assert runs[0] == runs[1], name


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
