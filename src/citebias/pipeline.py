"""Pipeline orchestration: the run context, run identity and the stage driver.

Stages run in the fixed dependency order of ``STAGE_TABLE``, from ingest
to report, which declares each stage once, with the ``out/`` subtrees
that stage alone writes. Each stage reads only files written by earlier
stages (or the disk cache) and writes only under its own subtrees, which
the driver empties before the stage runs, so a rerun keeps nothing an
earlier run wrote there. A stage records a completion marker holding the
manifest hash; re-runs with the same hash skip completed stages. The
hash covers the run identity (effective config, template hashes, input
digest), which ``manifest.json`` records in full.
Every emitted file carries the manifest hash, which is computed from
deterministic inputs only, so a run against the replay provider is
bit-for-bit reproducible. Set SOURCE_DATE_EPOCH to pin the manifest
timestamp as well.

The configuration is in ``config``, the stages in ``perpaper`` (ingest
to iterate) and ``aggregate`` (analyze, graph, report). Only a config
with service URLs or a non-mock provider imports the clients of ``live``.

Per-paper failures (refusals, unparseable responses) are quarantined and
counted; only infrastructure errors abort a run.
"""

from __future__ import annotations

import fcntl
import glob
import hashlib
import json
import logging
import os
import shutil
import time
from contextlib import contextmanager, suppress
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable, NamedTuple

from .aggregate import stage_analyze, stage_graph, stage_report
from .clients import (
    CachedScholarClient,
    FixtureIndexClient,
    JsonCache,
    atomic_write_text,
    dump_json,
    read_tree,
    safe_filename,
    to_json,
)
# load_config and search_candidates are imported here too: the benchmark
# harness and its tests look them up on this module
from .config import LOCATION_FIELDS, PipelineConfig, load_config  # noqa: F401
from .corpus import PaperRecord, VenueTable
from .errors import ConfigError, PipelineError
from .llmgate import DirectoryMockProvider, template_hashes
from .matcher import search_candidates  # noqa: F401
from .perpaper import stage_generate, stage_ingest, stage_iterate, stage_prepare, stage_verify

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------


class PipelineContext:
    """Index clients and shared state for one run.

    ``out`` and every path the helpers below build from it are strings:
    pathlib would pass each part, a paper id or a run name among them,
    through ``sys.intern`` on every run (see ``clients``).
    """

    def __init__(
        self,
        config: PipelineConfig,
        manifest_hash: str,
        fixture_files: list[tuple[str, bytes]] | None = None,
        inputs: str | None = None,
    ):
        self.config = config
        self.manifest_hash = manifest_hash
        self.out = os.fspath(config.out_dir)
        if config.venue_aliases_path:
            self.venue_table = VenueTable.from_file(config.venue_aliases_path)
        else:
            self.venue_table = VenueTable.default()
        if config.fixture_dir:
            self.preprint = scholar = FixtureIndexClient(config.fixture_dir, fixture_files)
        else:
            from .live import HttpPreprintClient, HttpScholarClient, TokenBucket

            limiter = TokenBucket(config.rate_limit_per_sec)
            self.preprint = HttpPreprintClient(config.preprint_url, limiter=limiter)
            scholar = HttpScholarClient(
                config.scholar_url, limiter=limiter, api_key_env=config.scholar_api_key_env
            )
        # every scholar read, search or paper, goes through the disk cache,
        # whose entries a fixture run ties to its input digest ``inputs``
        source = inputs if config.fixture_dir else None
        self.scholar = CachedScholarClient(
            scholar, JsonCache(config.cache_dir, "scholar", refresh=config.refresh, source=source)
        )
        if config.provider_kind == "mock":
            self.provider = DirectoryMockProvider(config.mock_dir)
        else:
            from .live import OpenAIChatProvider, TokenBucket

            self.provider = OpenAIChatProvider(
                config.provider_base_url or "https://api.openai.com/v1",
                config.model_id,
                api_key_env=config.provider_api_key_env,
                limiter=TokenBucket(config.provider_rate_limit),
            )

    def provider_for(self, strategy: str, run_index: int):
        """Provider bound to one run; replay stores may carry per-run draws."""
        if self.config.provider_kind == "mock":
            return DirectoryMockProvider(self.config.mock_dir, f"{strategy}-{run_index}")
        return self.provider

    # -- paths ----------------------------------------------------------

    def stage_dir(self, stage: str) -> str:
        return os.path.join(self.out, stage)

    def subtrees(self, writes: tuple[str, ...]) -> list[str]:
        """A stage's ``writes`` with this run's model filled in."""
        model = safe_filename(self.config.model_id)
        return [pattern.format(model=model) for pattern in writes]

    def writer(self, path: Path | str) -> str:
        """Name of the stage whose subtrees hold ``path``, a path under ``out``."""
        parts = os.path.relpath(path, self.out).split(os.sep)
        for stage in STAGE_TABLE:
            for subtree in self.subtrees(stage.writes):
                patterns = subtree.split("/")
                if len(parts) >= len(patterns) and all(map(fnmatchcase, parts, patterns)):
                    return stage.name
        raise ValueError(f"no stage writes {path}")

    def paper_dirname(self, paper: PaperRecord) -> str:
        return safe_filename(paper.preprint_id)

    def prepared_dir(self, paper: PaperRecord) -> str:
        return os.path.join(self.stage_dir("prepared"), self.paper_dirname(paper))

    def run_dir(self, strategy: str, run_index: int) -> str:
        model = safe_filename(self.config.model_id)
        return os.path.join(self.out, "runs", model, f"{strategy}-{run_index}")

    def paper_run_dir(self, strategy: str, run_index: int, paper: PaperRecord) -> str:
        return os.path.join(self.run_dir(strategy, run_index), self.paper_dirname(paper))

    def verdicts_path(self, strategy: str, run_index: int, paper: PaperRecord) -> str:
        run = f"{strategy}-{run_index}"
        name = f"{self.paper_dirname(paper)}.jsonl"
        return os.path.join(self.out, "verdicts", safe_filename(self.config.model_id), run, name)


# ---------------------------------------------------------------------------
# Hashing and manifests
# ---------------------------------------------------------------------------


def inputs_digest(
    config: PipelineConfig, fixture_files: list[tuple[str, bytes]] | None = None
) -> str:
    """Digest of every input tree and file a run depends on, file by file
    in ``read_tree`` order and keyed by POSIX relative path.

    ``fixture_files`` is ``read_tree(config.fixture_dir)`` for a caller
    that has read it already.
    """
    digest = hashlib.sha256()
    roots = (config.sources_dir, config.fixture_dir, config.mock_dir, config.venue_aliases_path)
    for root in roots:
        if root is None:
            continue
        if root == config.fixture_dir and fixture_files is not None:
            files = fixture_files
        else:
            files = read_tree(root)
        for rel, data in files:
            digest.update(rel.encode("utf-8"))
            digest.update(b"\0")
            digest.update(data)
            digest.update(b"\1")
    return digest.hexdigest()


def run_identity(config: PipelineConfig, inputs: str) -> dict:
    """Everything a run's outputs depend on: the effective config without
    its ``LOCATION_FIELDS``, the template hashes and ``inputs`` (an
    ``inputs_digest``). ``manifest.json`` records it in full."""
    effective = to_json(config)
    for name in LOCATION_FIELDS:
        del effective[name]
    return {"config": effective, "template_hashes": template_hashes(), "inputs_digest": inputs}


def manifest_hash(identity: dict) -> str:
    """Digest of a ``run_identity``."""
    return hashlib.sha256(dump_json(identity).encode("utf-8")).hexdigest()


def _now_iso() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(int(epoch) if epoch else None))
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"SOURCE_DATE_EPOCH={epoch!r} is not a Unix time: {exc}") from None


@contextmanager
def output_lock(out_dir: Path | str):
    """Single-owner lock on the output directory: ``flock`` on its
    ``.lock`` file, which a second lock fails to take, even in the same
    process. The kernel drops the lock when its holder's process ends.
    The file stays (a waiter could otherwise lock an unlinked inode while
    a new run locks a new file) and is opened for writing, which the
    POSIX locks that emulate ``flock`` over NFS need."""
    os.makedirs(out_dir, exist_ok=True)
    fd = os.open(os.path.join(out_dir, ".lock"), os.O_RDWR | os.O_CREAT, 0o666)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(f"output directory {out_dir} is locked by another run") from None
        yield
    finally:
        os.close(fd)



# ---------------------------------------------------------------------------
# Stage driver
# ---------------------------------------------------------------------------


class Stage(NamedTuple):
    """One pipeline stage: its name, its function, the ``out/`` subtrees
    it alone writes (glob patterns in which ``{model}`` stands for
    ``safe_filename(model_id)``) and its CLI help."""

    name: str
    run: Callable[[PipelineContext], dict]
    writes: tuple[str, ...]
    help: str


# every stage, in dependency order; the CLI builds its subcommands from it
STAGE_TABLE = (
    Stage("ingest", stage_ingest, ("corpus",),
          "harvest, filter, and resolve the corpus; enrich references"),
    Stage("prepare", stage_prepare, ("prepared",),
          "clean LaTeX sources and build ground-truth intro references"),
    Stage("generate", stage_generate, ("runs/{model}/vanilla-*",),
          "run the vanilla prompting passes"),
    Stage("verify", stage_verify, ("verdicts/{model}/vanilla-*",),
          "check generated references against the scholarly index"),
    Stage("iterate", stage_iterate, ("runs/{model}/iterative-*", "verdicts/{model}/iterative-*"),
          "re-prompt for non-existent references and merge"),
    Stage("analyze", stage_analyze, ("analysis",),
          "compute summaries, characteristics, and bias tables"),
    Stage("graph", stage_graph, ("graphs",),
          "build per-paper citation graphs and metrics"),
    Stage("report", stage_report, ("report",),
          "emit the CSV/JSON report bundle"),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)


def _marker_path(ctx: PipelineContext, stage: str) -> str:
    return os.path.join(ctx.out, "stages", f"{stage}.json")


def _read_marker(path: str) -> dict | None:
    """A stage marker's contents, or None for a marker that is missing,
    not JSON or not a JSON object: the stage is not done."""
    try:
        with open(path, encoding="utf-8") as fh:
            marker = json.load(fh)
    except (FileNotFoundError, IsADirectoryError, ValueError):
        return None
    return marker if isinstance(marker, dict) else None


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> dict:
    """Run the requested stages in dependency order and write the manifest.

    Returns the manifest dict. Raises PipelineError on hard failure
    (after writing a manifest that records the failure point).
    """
    requested = stages or STAGES
    for name in requested:
        if name not in STAGES:
            raise ConfigError(f"unknown stage {name!r}")
    created_at = _now_iso()  # a malformed SOURCE_DATE_EPOCH fails before any work

    # one read of the fixture index serves the run identity and the index
    # client, which owns the bytes from here and drops them once parsed
    fixture_files = read_tree(config.fixture_dir) if config.fixture_dir else None
    identity = run_identity(config, inputs_digest(config, fixture_files))
    core = manifest_hash(identity)
    ctx = PipelineContext(config, core, fixture_files, identity["inputs_digest"])
    del fixture_files
    manifest: dict = {
        **identity,
        "manifest_hash": core,
        "created_at": created_at,
        "model_id": config.model_id,
        "stages": {},
        "failure": None,
    }

    manifest_path = os.path.join(ctx.out, "manifest.json")
    with output_lock(ctx.out):
        try:
            for stage, run, writes, _ in STAGE_TABLE:
                if stage not in requested:
                    continue
                marker = _marker_path(ctx, stage)
                existing = None if config.refresh else _read_marker(marker)
                if existing is not None and existing.get("manifest_hash") == core:
                    manifest["stages"][stage] = {
                        "status": "skipped",
                        "outcomes": existing.get("outcomes", {}),
                    }
                    continue
                logger.info("running stage %s", stage)
                with suppress(FileNotFoundError):
                    os.unlink(marker)  # a stage stopped midway is not done
                for subtree in ctx.subtrees(writes):
                    for path in glob.glob(os.path.join(glob.escape(ctx.out), subtree)):
                        shutil.rmtree(path)
                outcomes = run(ctx)
                atomic_write_text(
                    marker, dump_json({"manifest_hash": core, "outcomes": outcomes})
                )
                manifest["stages"][stage] = {"status": "ok", "outcomes": outcomes}
        except Exception as exc:
            manifest["failure"] = {"stage": stage, "error": f"{type(exc).__name__}: {exc}"}
            atomic_write_text(manifest_path, dump_json(manifest))
            raise
        atomic_write_text(manifest_path, dump_json(manifest))
    return manifest
