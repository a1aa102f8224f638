"""Command-line interface.

Subcommands::

    bounds | verify | dual | theta | perturb | refine   one operation on a
                                                        configured scenario
    paper-example                                       built-in worked example
    run                                                 execute the config's
                                                        own request list

Exit codes: 0 success, 1 a verification failed or an operation errored,
2 input error (unreadable/invalid config, unwritable ``--out``).

Reports are JSON with sorted keys, so runs with a fixed seed are
byte-identical apart from the wall-clock field.  Each dict entry gets a
line of its own; lists and scalars are written on one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InvalidConfig, ParseError
from .scenarios import REQUEST_KINDS, ScenarioConfig, load_config, parse_config, run_config

PAPER_EXAMPLE_DEFAULT = {
    "scenario": {"kind": "paper_example", "m": 8, "atoms_per_cell": 1},
    "requests": ["bounds", "verify"],
    "claimed": [1.0, 4.0],
}


def _add_common_flags(parser: argparse.ArgumentParser, config_required: bool) -> None:
    parser.add_argument(
        "--config",
        required=config_required,
        help="path to a JSON scenario config",
    )
    parser.add_argument("--out", help="write the JSON report here (default: stdout)")
    parser.add_argument("--csv", help="write refinement curves here (CSV)")
    parser.add_argument(
        "--tol", type=float, help="override the residual tolerance (residual_tol)"
    )
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    parser.add_argument("--samples", type=int, help="override the sample count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckgframes",
        description="Frame bounds, duals, and perturbation checks for "
        "operator families over finite measure spaces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in REQUEST_KINDS:
        sub = subparsers.add_parser(name, help=f"run the {name} operation")
        _add_common_flags(sub, config_required=True)
    sub = subparsers.add_parser(
        "paper-example", help="run the built-in worked example (bounds + verify)"
    )
    _add_common_flags(sub, config_required=False)
    sub = subparsers.add_parser("run", help="run every request listed in the config")
    _add_common_flags(sub, config_required=True)
    return parser


# Building the parser costs some fifty times as much as one parse, and
# parsing leaves it unchanged, so every call of ``main`` shares one.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    raw = dict(raw)
    if args.tol is not None:
        tolerances = dict(raw.get("tolerances", {}))
        tolerances["residual_tol"] = args.tol
        raw["tolerances"] = tolerances
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.samples is not None:
        raw["samples"] = args.samples
    return raw


def _load(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is not None:
        cfg = load_config(args.config)
        raw = cfg.raw
    else:
        raw = PAPER_EXAMPLE_DEFAULT
    return parse_config(_apply_overrides(raw, args))


# built once: ``json.dumps(value, sort_keys=True)`` builds this encoder per call
_ONE_LINE = json.JSONEncoder(sort_keys=True).encode


def _encode(value, indent: str = "") -> str:
    """JSON text of ``value`` with sorted keys: a non-empty dict is written one
    entry per line, two spaces deeper per level; every other value goes on one
    line through the C encoder (``json.dumps`` falls back to a pure-Python
    encoder whenever ``indent`` is set)."""
    if not (isinstance(value, dict) and value):
        return _ONE_LINE(value)
    inner = indent + "  "
    entries = ",\n".join(
        f"{inner}{_ONE_LINE(key)}: {_encode(value[key], inner)}" for key in sorted(value)
    )
    return f"{{\n{entries}\n{indent}}}"


def _emit(report: dict, out_path) -> None:
    text = _encode(report) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load(args)
        requests = None if args.command in ("run", "paper-example") else (args.command,)
        report = run_config(cfg, requests=requests, csv_path=args.csv)
    except (ParseError, InvalidConfig) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    try:
        _emit(report, args.out)
    except OSError as err:
        reason = err.strerror or err
        sys.stderr.write(f"error: cannot write report to {args.out or 'stdout'}: {reason}\n")
        return 2
    return 0 if report["success"] else 1


if __name__ == "__main__":
    sys.exit(main())
