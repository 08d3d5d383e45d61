"""Each script under ``scripts/`` loads (only its imports run, since its
entry point is guarded by ``__name__``) and defines ``main``, so removing
a name from the package cannot break a script unnoticed."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(f"scripts_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
