"""The demos still import what they use from the package."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    # a run_name other than __main__ executes the imports and definitions
    # but not the demo's main(), so no flow runs
    namespace = runpy.run_path(str(path), run_name="demo_import_check")
    assert callable(namespace["main"])
