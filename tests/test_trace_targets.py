"""The benchmark's span tracer must find every name it traces.

``perfbench/spans.py`` wraps functions by the name under which bathkit's
callers look them up.  A refactor that renames or removes one of them
breaks a traced benchmark run; this test makes it break the suite first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tracer; installs nothing
    return module


spans = load_spans()


@pytest.mark.parametrize(
    ("module_name", "class_name", "attr", "span_name"),
    spans.TARGETS,
    ids=[".".join(filter(None, t[:3])) for t in spans.TARGETS],
)
def test_every_traced_name_resolves(module_name, class_name, attr, span_name):
    # the lookup Tracer.install makes: a class attribute must be the class's own
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert attr in vars(owner), f"{span_name}: {module_name}.{attr} is gone"
    assert callable(vars(owner)[attr])


def test_result_counts_name_traced_spans():
    assert set(spans.RESULT_COUNTS) <= {t[3] for t in spans.TARGETS}
