"""Every JSON artifact is formatted in one place: ``_schema.write_json``.

The check parses the source with the standard library's ``ast``, so it needs
no linter.  It lists each ``json.dumps`` call (as an attribute or a bare
name) that passes ``indent`` or ``separators``, with the function that
contains it.
"""

import ast
import io
import json
from pathlib import Path

import numpy as np

from bathkit.discretize import (
    FdrGrid,
    bath_model_to_dict,
    discretize_bath,
    load_bath_model,
    save_bath_model,
)
from bathkit.specdens import NoiseKernel, Temperature
from bathkit.surrogate import surrogate_sd

SRC = Path(__file__).resolve().parents[1] / "src" / "bathkit"
LAYOUT = ("indent", "separators")


def formatted_dumps(source: str) -> list:
    """Names of the innermost functions holding a ``json.dumps`` that sets the layout."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps" and any(k.arg in LAYOUT for k in node.keywords):
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_checker_finds_every_form_of_the_call():
    source = (
        "def a(doc):\n    return json.dumps(doc, indent=2)\n"
        "def b(doc):\n    def inner():\n        return dumps(doc, sort_keys=True, indent=4)\n"
        "def c(doc):\n    return json.dumps(doc, sort_keys=True)\n"
        "def d(doc):\n    return json.dumps(doc, separators=(',', ':'))\n"
        "TEXT = json.dumps({}, indent=1)\n"
    )
    assert formatted_dumps(source) == ["a", "inner", "d", None]


def test_json_layout_is_set_only_by_write_json():
    calls = {
        path.name: formatted_dumps(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in calls.items() if found} == {
        "_schema.py": ["write_json"]
    }


def test_a_bath_json_is_one_compact_line_that_loads_back_equal():
    # the surrogate's tabulated points are most of the text
    kernel = NoiseKernel(surrogate_sd(), Temperature.finite(300.0))
    model = discretize_bath(kernel, FdrGrid(100.0, 600.0, n_time=20, n_freq=200), 1e-2)
    out = io.StringIO()
    save_bath_model(model, out)
    text = out.getvalue()
    assert text == json.dumps(bath_model_to_dict(model), separators=(",", ":")) + "\n"
    assert text.count("\n") == 1
    loaded = load_bath_model(io.StringIO(text))
    assert bath_model_to_dict(loaded) == bath_model_to_dict(model)
    for name in ("omegas", "z", "g"):
        assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
    assert np.array_equal(loaded.sd.omega, model.sd.omega)
    assert np.array_equal(loaded.sd.values, model.sd.values)
    again = io.StringIO()
    save_bath_model(loaded, again)
    assert again.getvalue() == text
