"""The benchmark's tracer installs itself by module and attribute name.

``perfbench/run.py --trace 1`` fails at install time when a traced name
is moved or deleted, so the names it looks up are checked here.
"""

import importlib
import importlib.util
import pathlib

import rankfill

TRACING_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for prefix, module_name, attr in load_tracing().TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), prefix


def test_every_exported_name_exists():
    missing = [name for name in rankfill.__all__ if not hasattr(rankfill, name)]
    assert missing == []
