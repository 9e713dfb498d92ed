"""Every public name resolves, and so does every layer the benchmark's tracer wraps.

``perfbench/tracer.py`` looks up each entry of its ``LAYERS`` table with
``getattr`` when a traced run starts, and its count hooks read the wrapped
call's arguments by name, so deleting or renaming a traced name or a
parameter a hook reads crashes that run.  These checks catch it in the test
suite.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import credalmarket

MODULES = sorted(f"credalmarket.{m.name}" for m in pkgutil.iter_modules(credalmarket.__path__))
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module_name", ["credalmarket"] + MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_traced_layer_resolves():
    missing = []
    for module_name, attr, _, _ in load_tracer().LAYERS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_argument_a_count_hook_reads_is_a_parameter():
    # A hook reads arguments as a["name"], so its string constants that are
    # identifiers are those names; count keys such as "evidence.sample.outcomes" are not.
    read_by_all, missing = set(), []
    for module_name, attr, _, hook in load_tracer().LAYERS:
        if hook is None:
            continue
        fn = importlib.import_module(module_name)
        for part in attr.split("."):
            fn = getattr(fn, part)
        read = {c for c in hook.__code__.co_consts if isinstance(c, str) and c.isidentifier()}
        read_by_all |= read
        parameters = inspect.signature(fn).parameters
        missing += [f"{module_name}.{attr}: {name}" for name in sorted(read - set(parameters))]
    assert missing == []
    assert {"n_starts", "runs", "n", "providers", "z", "batches"} <= read_by_all
