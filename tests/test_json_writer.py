"""Every JSON artifact is formatted in one place: ``_schema.write_json``.

The check parses the source with the standard library's ``ast``, so it needs
no linter.  It lists each ``json.dumps`` call (as an attribute or a bare
name) that passes ``indent``, with the function that contains it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bathkit"


def indented_dumps(source: str) -> list:
    """Names of the innermost functions holding a ``json.dumps(..., indent=...)``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps" and any(k.arg == "indent" for k in node.keywords):
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
        "TEXT = json.dumps({}, indent=1)\n"
    )
    assert indented_dumps(source) == ["a", "inner", None]


def test_indented_json_is_written_only_by_write_json():
    calls = {
        path.name: indented_dumps(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in calls.items() if found} == {
        "_schema.py": ["write_json"]
    }
