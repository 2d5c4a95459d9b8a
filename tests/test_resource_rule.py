"""Every resource cap is enforced in one place: ``discretize.check_memory``.

The check parses the source with the standard library's ``ast``, so it needs
no linter.  It lists each ``raise ResourceLimitError`` (bare, called or
reached through a module attribute) with the function that contains it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bathkit"


def resource_raises(source: str) -> list:
    """Names of the innermost functions holding a ``raise ResourceLimitError``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "ResourceLimitError":
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_checker_finds_every_form_of_the_raise():
    source = (
        "def a():\n    raise ResourceLimitError('x')\n"
        "def b():\n    def inner():\n        raise errors.ResourceLimitError\n"
        "def c():\n    raise ValidationError('x')\n"
        "raise ResourceLimitError\n"
    )
    assert resource_raises(source) == ["a", "inner", None]


def test_resource_limit_error_is_raised_only_by_check_memory():
    raises = {
        path.name: resource_raises(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in raises.items() if found} == {
        "discretize.py": ["check_memory"]
    }
