"""Every name the benchmark's tracer (`perfbench/tracer.py`) wraps exists.

The tracer replaces functions by name when a traced run starts, so a
refactor that deletes or renames one of them would break `--trace 1`
without failing anything else.
"""

import importlib
import pathlib
import sys

import pytest

# appended, not prepended: perfbench/cmd.py would shadow the standard `cmd`
sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402

from bicatkit import acceptance, cli  # noqa: E402
from bicatkit.bicat import FiniteBicategory  # noqa: E402

WRAPPED = ([(module, attr) for _, module, attr in tracer.SPANS + tracer.ENUMERATORS + tracer.COUNTS]
           + [(module, attr) for _, module, attr, _ in tracer.VALIDATORS])


@pytest.mark.parametrize("module, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"bicatkit.{module}"), attr))


def test_wrapped_cell_operations_and_tables_exist():
    for op in tracer.CELL_OPS:
        assert callable(getattr(FiniteBicategory, op))
    assert all(callable(fn) for _, _, fn in acceptance.CRITERIA)
    assert all(callable(fn) for fn in cli._VALIDATORS.values())
