"""Scenario-driven command line: configure, run pipelines, emit reports.

    maglab run --config scenario.json [--out DIR] [--seed N]
    maglab STAGE --config scenario.json ...

STAGE is a stage kind of `scenarios.STAGE_TABLE` (simulate, orbits, ...).
Single-stage subcommands execute the matching pipeline entries (plus silent
prerequisites such as orbit finding) and write only their own reports.  The
environment variable MAGLAB_LOG sets the logging level (e.g. DEBUG, INFO).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import ConfigError, MaglabError
from .scenarios import STAGE_TABLE, load_scenario, run_scenario

log = logging.getLogger("maglab")


def build_parser():
    parser = argparse.ArgumentParser(prog="maglab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*STAGE_TABLE, "run"]:
        p = sub.add_parser(name, help=f"{name} stage" if name != "run"
                           else "full pipeline")
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    level = os.environ.get("MAGLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if args.seed < 0:
            print(f"configuration error: --seed must be nonnegative, got {args.seed}",
                  file=sys.stderr)
            return 2
        scenario.random_seed = args.seed
    only = None if args.command == "run" else args.command
    try:
        code, reports = run_scenario(scenario, only_stage=only, out_dir=args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MaglabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for kind, rep in reports.items():
        if "error" in rep:
            log.error("stage %s failed: %s", kind, rep["error"])
    if code == 0:
        log.info("wrote reports to %s", args.out or scenario.out_dir)
    else:
        print("pipeline stopped on a numerical failure; partial reports kept",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
