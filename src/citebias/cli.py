"""Command-line entry point.

Subcommands map one-to-one onto the entries of ``pipeline.STAGE_TABLE``,
plus ``all`` to run the whole chain and ``calibrate`` for threshold
calibration on a labelled pair set. The global path flags and every
pipeline command's ``--model`` and ``--runs`` override the corresponding
config values (``config.OVERRIDABLE``) before the config is validated
and hashed, so running stage by stage needs the same flags on each
command.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import matcher
from .clients import atomic_write_text, dump_json
from .config import OVERRIDABLE, load_config
from .errors import CitebiasError
from .pipeline import STAGE_TABLE, run_pipeline

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citebias",
        description="Audit the citation behavior of LLMs against a scholarly index.",
    )
    parser.add_argument("--config", type=Path, required=False, help="pipeline config (YAML)")
    parser.add_argument("--cache-dir", type=Path, help="override the cache directory")
    parser.add_argument("--out-dir", type=Path, help="override the output directory")
    parser.add_argument(
        "--mock", type=Path, dest="mock_dir", help="directory of canned provider responses"
    )
    parser.add_argument(
        "--refresh", action="store_true", default=None,
        help="ignore cached entries and stage markers",
    )
    parser.add_argument("-v", "--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(stage.name, stage.help) for stage in STAGE_TABLE]
    for name, text in commands + [("all", "run every stage in order")]:
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--model", dest="model_id", help="override the configured model id")
        sp.add_argument(
            "--runs", dest="vanilla_runs", type=int, help="override the vanilla run count"
        )

    cal = sub.add_parser("calibrate", help="calibrate match thresholds on a labelled CSV")
    cal.add_argument("--labelled", type=Path, help="labelled pair CSV (default: bundled set)")
    cal.add_argument("--write-thresholds", type=Path, help="write the selected thresholds as JSON")
    return parser


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.labelled:
        pairs = matcher.load_labelled_csv(args.labelled)
    else:
        pairs = matcher.bundled_labelled_pairs()
    report = matcher.calibrate(pairs)
    t = report.thresholds
    print(f"selected thresholds: title={t.title_threshold:.4f} author={t.author_threshold:.4f}")
    print(f"accuracy: {report.accuracy:.2%} on {report.total} labelled pairs")
    print("confusion:", report.confusion_matrix())
    if args.write_thresholds:
        payload = {
            "title_threshold": t.title_threshold,
            "author_threshold": t.author_threshold,
            "provenance": "calibrated"
            + (f" on {args.labelled}" if args.labelled else " on bundled labelled_matches.csv"),
        }
        atomic_write_text(args.write_thresholds, dump_json(payload))
        print(f"wrote {args.write_thresholds}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        if args.config is None:
            print("error: --config is required for pipeline commands", file=sys.stderr)
            return 2
        # each OVERRIDABLE name is the dest of one flag, None when not given
        given = {name: getattr(args, name) for name in OVERRIDABLE}
        overrides = {name: value for name, value in given.items() if value is not None}
        config = load_config(args.config, overrides)
        stages = None if args.command == "all" else [args.command]
        manifest = run_pipeline(config, stages)
        for stage, info in manifest["stages"].items():
            # sorted-key JSON, the form the stage marker holds, so a skipped
            # stage prints the outcomes of the run that wrote it
            outcomes = json.dumps(info["outcomes"], sort_keys=True, ensure_ascii=False)
            print(f"{stage}: {info['status']} {outcomes}")
        return 0
    except CitebiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
