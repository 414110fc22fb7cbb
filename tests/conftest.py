"""Session fixtures: the offline workspace and one completed pipeline run."""

import os

import pytest

from citebias.config import load_config
from citebias.pipeline import run_pipeline
from fixtures_pipeline import build_workspace

EPOCH = "1700000000"


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("workspace")
    config_path = build_workspace(root)
    return root, config_path


@pytest.fixture(scope="session")
def completed_run(workspace):
    """One full pipeline run with a pinned manifest timestamp."""
    root, config_path = workspace
    previous = os.environ.get("SOURCE_DATE_EPOCH")
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    try:
        config = load_config(config_path)
        manifest = run_pipeline(config)
    finally:
        if previous is None:
            os.environ.pop("SOURCE_DATE_EPOCH", None)
        else:
            os.environ["SOURCE_DATE_EPOCH"] = previous
    return root, config_path, manifest
