"""Command-line driver for the seeded experiments and CTD file operations.

Examples
--------
::

    ctdopt demo-convergence --seed 7 --out artifacts/convergence
    ctdopt compare --trials 100 --out artifacts/compare
    ctdopt ackley --out artifacts/ackley
    ctdopt reduce input.json --epsilon 1e-6 --norm snorm --algorithm id --out red
    ctdopt max-entry input.json --termination rank:1 --out located

Each command takes only the flags its run reads.  A ``--config FILE``
JSON object overrides any of the command's flags of the same name.  On
success the run's summary is printed to stdout as JSON and the exit code is
0; on failure a one-line JSON error object goes to stderr and the exit code
is nonzero (2 for usage errors, 1 otherwise).
"""

import argparse
import json
import sys
from dataclasses import fields
from functools import partial

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    _reduction,
    max_entry_file,
    parse_termination,
    reduce_file,
)
from .maxentry import MaxEntrySearchConfig, RankThreshold


class CommandLineError(ValueError):
    """A problem with the invocation itself, as opposed to the run."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of calling sys.exit, so usage
    errors reach the JSON error path."""

    def error(self, message):
        raise CommandLineError(message)


def _build_parser():
    # Small parent parsers, one per group of settings.  --seed and --trials
    # have no parser default, so ExperimentConfig's defaults hold.
    seed, trials, reduction, termination, output = (
        _Parser(add_help=False) for _ in range(5))
    seed.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                      help="master RNG seed")
    trials.add_argument("--trials", type=int, default=argparse.SUPPRESS,
                        help="trial count")
    reduction.add_argument("--epsilon", type=float, help="rank-reduction tolerance")
    reduction.add_argument("--norm", choices=("frobenius", "snorm"),
                           help="norm the tolerance is measured in")
    reduction.add_argument("--algorithm", choices=("als", "id"),
                           help="rank-reduction algorithm")
    termination.add_argument("--termination", metavar="RULE",
                             help="fixed:N, lambda:DELTA, or rank:R")
    output.add_argument("--out", default=".", metavar="DIR",
                        help="artifact output directory")
    output.add_argument("--config", metavar="FILE",
                        help="JSON file whose entries override flags")
    # Each command takes exactly the settings its run reads.
    commands = {
        "demo-convergence": [seed, reduction, termination],
        "demo-two-maxima": [seed, reduction],
        "compare": [seed, trials, reduction, termination],
        "ackley": [reduction, termination],
        "reduce": [reduction],
        "max-entry": [reduction, termination],
    }

    parser = _Parser(prog="ctdopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, parents in commands.items():
        p = sub.add_parser(name, parents=parents + [output])
        if name not in EXPERIMENTS:
            p.add_argument("input", help="serialized CTD file")
        if name == "max-entry":
            p.add_argument("--method", choices=("squaring", "power"),
                           default="squaring", help="which search iteration")
    return parser


def _config_value(action, key, value):
    """Check a config-file value against its flag's type and choices.

    JSON values arrive typed, so a value must already be of the type the
    flag converts to (an integer also counts as a float); ``null`` is
    accepted where the flag's own default is None.
    """
    if value is None and action.default is None:
        return
    want = action.type or str
    kinds = (int, float) if want is float else (want,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CommandLineError(
            f"config key {key!r}: {type(value).__name__} value {value!r} "
            f"not supported, expected {want.__name__}"
        )
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise CommandLineError(
            f"config key {key!r}: invalid choice {value!r} (choose from {choices})"
        )


def _apply_config_file(parser, args):
    if args.config is None:
        return
    with open(args.config) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise CommandLineError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CommandLineError("config file must contain a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # The keys are the subcommand's own options, less --help and --config.
    actions = {a.dest: a for a in sub.choices[args.command]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, value in doc.items():
        if key not in actions:
            raise CommandLineError(f"unknown config key {key!r}")
        _config_value(actions[key], key, value)
        setattr(args, key, value)


def _configure(args):
    """The run the arguments ask for, as a call without arguments."""
    # The command's settings, by ExperimentConfig field name; a setting the
    # command does not take is absent, so ExperimentConfig's default holds.
    settings = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                if hasattr(args, f.name)}
    if settings.get("termination") is not None:
        settings["termination"] = parse_termination(settings["termination"])
    if args.command in EXPERIMENTS:
        cfg = ExperimentConfig(experiment=args.command, out_dir=args.out, **settings)
        return partial(EXPERIMENTS[args.command], cfg)
    reduction = _reduction(args, "frobenius")
    if args.command == "reduce":
        return partial(reduce_file, args.input, reduction, args.out)
    search = MaxEntrySearchConfig(
        reduction=reduction,
        termination=settings["termination"] or RankThreshold(1),
    )
    return partial(max_entry_file, args.input, search, args.out, method=args.method)


def _dispatch(args):
    # A bad value met while building the configuration is a usage error;
    # errors of the run itself are not.
    try:
        run = _configure(args)
    except (TypeError, ValueError) as exc:
        raise CommandLineError(str(exc)) from exc
    return run()


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(parser, args)
        summary = _dispatch(args)
    except CommandLineError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0
